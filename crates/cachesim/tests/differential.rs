//! Differential tests of the simulator core against obviously-correct
//! references (ROADMAP item 4b).
//!
//! * `Cache` and `Tlb` against brute-force MRU lists, over random address
//!   streams × geometries, with owner tags and the heat ledger on.
//! * `Machine` against a naive walker that fetches every line of every
//!   function on every call — no line tables, no clean-region replay —
//!   assembled from the public `Cache` / `Tlb` / predictor / prefetcher
//!   pieces. Counters and heat ledger must agree after every single step.

use bufferdb_cachesim::heat::UNTRACKED_SEGMENT;
use bufferdb_cachesim::{
    BimodalPredictor, BranchPredictor, Cache, CacheConfig, CodeLayout, CodeRegion, GsharePredictor,
    HeatCell, Machine, MachineConfig, PerfCounters, PredictorKind, SegmentSpec, StreamPrefetcher,
    Tlb,
};
use std::collections::HashMap;

struct Rng(u64);

impl Rng {
    /// SplitMix64.
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------------
// (a) Cache vs. a brute-force per-set MRU list
// ---------------------------------------------------------------------------

/// Reference cache: every set is a `Vec` of `(line, fetching segment)`,
/// most recent first; attribution is two plain `HashMap`s.
struct RefCache {
    line_shift: u32,
    assoc: usize,
    sets: Vec<Vec<(u64, u16)>>,
    /// line → (segment, owner) that evicted it.
    evictor: HashMap<u64, (u16, u32)>,
    cells: HashMap<(u16, u32), HeatCell>,
    misses: u64,
    cross_misses: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        RefCache {
            line_shift: cfg.line_size.trailing_zeros(),
            assoc: cfg.associativity,
            sets: vec![Vec::new(); cfg.sets()],
            evictor: HashMap::new(),
            cells: HashMap::new(),
            misses: 0,
            cross_misses: 0,
        }
    }

    /// Returns `(hit, evicted line)`.
    fn access(&mut self, addr: u64, seg: u16, owner: u32) -> (bool, Option<u64>) {
        let line = addr >> self.line_shift;
        let index = line as usize % self.sets.len();
        let set = &mut self.sets[index];
        if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
            let entry = set.remove(pos);
            set.insert(0, entry);
            return (true, None);
        }
        self.misses += 1;
        let evicted = (set.len() == self.assoc).then(|| set.pop().expect("full set").0);
        set.insert(0, (line, seg));
        let cross = match self.evictor.remove(&line) {
            Some(by) if by.1 != owner => {
                self.cells.entry(by).or_default().cross_caused += 1;
                self.cross_misses += 1;
                true
            }
            _ => false,
        };
        let cell = self.cells.entry((seg, owner)).or_default();
        cell.misses += 1;
        cell.cross_misses += u64::from(cross);
        if let Some(old) = evicted {
            cell.evictions += 1;
            self.evictor.insert(old, (seg, owner));
        }
        (false, evicted)
    }

    fn residency(&self) -> HashMap<(usize, u16), u32> {
        let mut acc = HashMap::new();
        for (i, set) in self.sets.iter().enumerate() {
            for &(_, seg) in set {
                *acc.entry((i, seg)).or_insert(0) += 1;
            }
        }
        acc
    }
}

#[test]
fn cache_matches_brute_force_mru_lists() {
    let mut rng = Rng(0xC0FFEE);
    for assoc in [1usize, 2, 3, 4, 8, 16] {
        for sets in [1usize, 4, 16] {
            for line_size in [32usize, 64] {
                let cfg = CacheConfig {
                    capacity: line_size * assoc * sets,
                    line_size,
                    associativity: assoc,
                };
                cfg.validate().expect("test geometry");
                for _ in 0..6 {
                    check_cache_stream(cfg, &mut rng);
                }
            }
        }
    }
}

fn check_cache_stream(cfg: CacheConfig, rng: &mut Rng) {
    let mut cache = Cache::new(cfg);
    let mut model = RefCache::new(cfg);
    cache.enable_heat();
    let (mut seg, mut owner) = (1u16, 1u32);
    cache.set_owner(owner);
    cache.set_heat_segment(seg);
    // A few times the capacity, so streams both fit and thrash.
    let span = (cfg.capacity as u64) * (1 + rng.below(4));
    let len = 200 + rng.below(1500);
    for step in 0..len {
        match rng.below(16) {
            0 => {
                owner = 1 + rng.below(3) as u32;
                cache.set_owner(owner);
            }
            1 => {
                seg = rng.below(5) as u16;
                cache.set_heat_segment(seg);
            }
            _ => {}
        }
        let addr = rng.below(span);
        let (hit, evicted) = model.access(addr, seg, owner);
        assert_eq!(
            cache.access(addr),
            hit,
            "{cfg:?} step {step} addr {addr:#x}"
        );
        assert!(cache.contains(addr));
        if let Some(line) = evicted {
            assert!(
                !cache.contains(line << model.line_shift),
                "{cfg:?} step {step}: wrong victim"
            );
        }
    }
    assert_eq!(cache.misses(), model.misses, "{cfg:?}");
    assert_eq!(cache.cross_misses(), model.cross_misses, "{cfg:?}");
    let cells: HashMap<_, _> = cache.heat_cells().into_iter().collect();
    assert_eq!(cells, model.cells, "{cfg:?}");
    let residency: HashMap<_, _> = cache
        .heat_residency()
        .into_iter()
        .map(|(set, seg, n)| ((set, seg), n))
        .collect();
    assert_eq!(residency, model.residency(), "{cfg:?}");
    for set in &model.sets {
        for &(line, _) in set {
            assert!(cache.contains(line << model.line_shift), "{cfg:?}");
        }
    }
    let resident: usize = model.sets.iter().map(Vec::len).sum();
    assert_eq!(cache.resident_lines(), resident, "{cfg:?}");
}

#[test]
fn tlb_matches_brute_force_mru_list() {
    let mut rng = Rng(7);
    for entries in [1usize, 2, 3, 8, 16, 24] {
        for _ in 0..8 {
            let mut tlb = Tlb::new(entries);
            let mut mru: Vec<u64> = Vec::new();
            let pages = 1 + rng.below(3 * entries as u64);
            let mut misses = 0;
            for _ in 0..2000 {
                let addr = rng.below(pages) * 4096 + rng.below(4096);
                let page = addr >> 12;
                let hit = match mru.iter().position(|&p| p == page) {
                    Some(pos) => {
                        mru.remove(pos);
                        true
                    }
                    None => {
                        mru.truncate(entries - 1);
                        misses += 1;
                        false
                    }
                };
                mru.insert(0, page);
                assert_eq!(tlb.access(addr), hit, "{entries} entries");
            }
            assert_eq!(tlb.misses(), misses);
            assert_eq!(tlb.accesses(), 2000);
        }
    }
}

// ---------------------------------------------------------------------------
// (b), (c) Machine vs. a naive line-by-line walker
// ---------------------------------------------------------------------------

/// Everything `Machine` models, fetched the slow obvious way.
struct NaiveMachine {
    cfg: MachineConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    itlb: Tlb,
    predictor: Box<dyn BranchPredictor>,
    prefetcher: StreamPrefetcher,
    instructions: u64,
    l2_accesses: u64,
    l2_misses: u64,
    l2_covered: u64,
    absorbed: PerfCounters,
    /// Heat ids are interned by name on first execution; index = id.
    heat_names: Option<Vec<String>>,
}

type HeatCells = HashMap<(String, u32), HeatCell>;
type HeatResidency = HashMap<(usize, String), u32>;

impl NaiveMachine {
    fn new(cfg: MachineConfig) -> Self {
        let predictor: Box<dyn BranchPredictor> = match cfg.branch.kind {
            PredictorKind::Bimodal => Box::new(BimodalPredictor::new(cfg.branch.table_entries)),
            PredictorKind::Gshare => Box::new(GsharePredictor::new(
                cfg.branch.table_entries,
                cfg.branch.history_bits,
            )),
        };
        NaiveMachine {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            itlb: Tlb::new(cfg.itlb_entries),
            predictor,
            prefetcher: StreamPrefetcher::new(cfg.prefetch_streams),
            instructions: 0,
            l2_accesses: 0,
            l2_misses: 0,
            l2_covered: 0,
            absorbed: PerfCounters::default(),
            heat_names: None,
            cfg,
        }
    }

    fn l2_access(&mut self, addr: u64, prefetchable: bool) {
        self.l2_accesses += 1;
        if !self.l2.access(addr) {
            self.l2_misses += 1;
            let line = addr / self.cfg.l2.line_size as u64;
            if prefetchable && self.prefetcher.observe_miss(line) {
                self.l2_covered += 1;
            }
        }
    }

    /// `site_counts` is this region object's private execution count per
    /// static site (the real region keeps its own inside).
    fn exec_region(&mut self, region: &CodeRegion, site_counts: &mut [u64]) {
        let line = self.cfg.l1i.line_size as u64;
        for seg in region.segments() {
            if let Some(names) = &mut self.heat_names {
                let id = names
                    .iter()
                    .position(|n| n == &seg.name)
                    .unwrap_or_else(|| {
                        names.push(seg.name.clone());
                        names.len() - 1
                    });
                self.l1i.set_heat_segment(id as u16);
            }
            for &(base, len) in &seg.functions {
                self.itlb.access(base);
                self.instructions += len as u64 / 4;
                let mut addr = base;
                while addr < base + len as u64 {
                    if !self.l1i.access(addr) {
                        self.l2_access(addr, false);
                    }
                    addr += line;
                }
            }
        }
        let sites = region.segments().iter().flat_map(|s| s.sites.iter());
        for (&(addr, kind), count) in sites.zip(site_counts) {
            self.predictor
                .predict_and_update(addr, kind.outcome(*count));
            *count += 1;
        }
    }

    fn data_access(&mut self, addr: u64, len: usize) {
        let line = self.cfg.l1d.line_size as u64;
        let mut a = addr - addr % line;
        while a < addr + len.max(1) as u64 {
            if !self.l1d.access(a) {
                self.l2_access(a, true);
            }
            a += line;
        }
    }

    fn enable_heatmap(&mut self) {
        if self.heat_names.is_none() {
            self.heat_names = Some(vec![UNTRACKED_SEGMENT.to_string()]);
            self.l1i.enable_heat();
        }
    }

    fn snapshot(&self) -> PerfCounters {
        self.absorbed
            + PerfCounters {
                instructions: self.instructions,
                l1i_accesses: self.l1i.accesses(),
                l1i_misses: self.l1i.misses(),
                l1i_cross_misses: self.l1i.cross_misses(),
                l1d_accesses: self.l1d.accesses(),
                l1d_misses: self.l1d.misses(),
                l2_accesses: self.l2_accesses,
                l2_misses: self.l2_misses,
                l2_covered: self.l2_covered,
                itlb_accesses: self.itlb.accesses(),
                itlb_misses: self.itlb.misses(),
                branches: self.predictor.branches(),
                mispredictions: self.predictor.mispredictions(),
            }
    }

    fn heat(&self) -> (HeatCells, HeatResidency) {
        let Some(names) = &self.heat_names else {
            return Default::default();
        };
        let cells = self
            .l1i
            .heat_cells()
            .into_iter()
            .map(|((seg, owner), cell)| ((names[seg as usize].clone(), owner), cell))
            .collect();
        let residency = self
            .l1i
            .heat_residency()
            .into_iter()
            .map(|(set, seg, n)| ((set, names[seg as usize].clone()), n))
            .collect();
        (cells, residency)
    }
}

/// Regions chosen to hit every replay edge: tiny (cold once, then clean),
/// a pair that fits together, a pair that thrashes, a clone, regions that
/// share a segment, a region that lists one segment twice, one too big for
/// L1i and one with more functions than ITLB entries (both evict their own
/// lines and must never be credited), and the empty region.
fn region_pool(cfg: &MachineConfig) -> Vec<CodeRegion> {
    let mut layout = CodeLayout::new();
    let mut seg = |name: &str, bytes: usize| layout.define(&SegmentSpec::new(name, bytes));
    let l1i = cfg.l1i.capacity;
    let common = seg("diff_common", 900);
    let tiny = seg("diff_tiny", 300);
    let scan = seg("diff_scan", l1i * 2 / 5);
    let agg = seg("diff_agg", l1i * 2 / 5);
    let sort = seg("diff_sort", l1i * 4 / 5);
    let huge = seg("diff_huge", l1i + 4096);
    let many_pages = seg("diff_pages", 832 * (cfg.itlb_entries + 3));
    let scan_region = CodeRegion::new(vec![common.clone(), scan.clone()]);
    vec![
        CodeRegion::new(vec![tiny]),
        scan_region.clone(),
        CodeRegion::new(vec![common.clone(), agg.clone()]),
        scan_region,
        CodeRegion::new(vec![sort, common.clone()]),
        CodeRegion::new(vec![scan.clone(), agg, scan]),
        CodeRegion::new(vec![common.clone(), common]),
        CodeRegion::new(vec![huge]),
        CodeRegion::new(vec![many_pages]),
        CodeRegion::empty(),
    ]
}

/// A zeroed execution count per static site, per region object.
fn fresh_site_counts(regions: &[CodeRegion]) -> Vec<Vec<u64>> {
    regions
        .iter()
        .map(|r| vec![0; r.segments().iter().map(|s| s.sites.len()).sum()])
        .collect()
}

fn check_machine(cfg: MachineConfig, seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let mut regions = region_pool(&cfg);
    let mut site_counts = fresh_site_counts(&regions);
    let mut real = Machine::new(cfg.clone());
    let mut naive = NaiveMachine::new(cfg.clone());
    // Heat from birth, heat switched on mid-run, or never.
    let heat_at = match seed % 3 {
        0 => Some(0),
        1 => Some(steps / 3),
        _ => None,
    };
    let mut current = 0;
    let (mut clean_repeats, mut missing_execs) = (0, 0);
    for step in 0..steps {
        if heat_at == Some(step) {
            real.enable_heatmap();
            naive.enable_heatmap();
        }
        let roll = rng.below(20);
        let what = match roll {
            // 0..=14, mostly: execute a region — repeat the current one
            // (the buffered pattern), alternate, or jump anywhere.
            0..=8 => "repeat",
            9..=11 => {
                current ^= 1;
                "alternate"
            }
            12..=14 => {
                current = rng.below(regions.len() as u64) as usize;
                "jump"
            }
            15 => {
                let (addr, len) = (0x1000_0000 + rng.below(1 << 16), rng.below(200) as usize);
                real.data_read(addr, len);
                naive.data_access(addr, len);
                "data_read"
            }
            16 => {
                let (addr, len) = (0x2000_0000 + rng.below(1 << 20), 8);
                real.data_write(addr, len);
                naive.data_access(addr, len);
                "data_write"
            }
            17 => {
                let (site, taken) = (0x40_0000 + rng.below(64) * 16, rng.below(3) != 0);
                real.branch(site, taken);
                naive.predictor.predict_and_update(site, taken);
                "branch"
            }
            18 => {
                let tag = 1 + rng.below(3) as u32;
                real.set_query_tag(tag);
                naive.l1i.set_owner(tag);
                "set_query_tag"
            }
            _ => {
                let n = rng.below(1000);
                real.add_instructions(n);
                naive.instructions += n;
                let other = PerfCounters {
                    instructions: n,
                    l1i_accesses: 3,
                    ..Default::default()
                };
                real.absorb(&other);
                naive.absorbed = naive.absorbed + other;
                "add_instructions+absorb"
            }
        };
        if roll <= 14 {
            let before = naive.snapshot();
            real.exec_region(&mut regions[current]);
            naive.exec_region(&regions[current], &mut site_counts[current]);
            let fetched = naive.snapshot() - before;
            if fetched.l1i_misses + fetched.itlb_misses > 0 {
                missing_execs += 1;
            } else if what == "repeat" && fetched.l1i_accesses > 0 {
                clean_repeats += 1;
            }
        }
        let context = format!("seed {seed} step {step}: {what} (region {current})");
        assert_eq!(real.snapshot(), naive.snapshot(), "{context}");
        let snap = real.heat_snapshot();
        let (cells, residency) = naive.heat();
        assert_eq!(snap.cells, cells, "{context}");
        assert_eq!(snap.residency, residency, "{context}");
        assert_eq!(real.heatmap_enabled(), heat_at.is_some_and(|at| at <= step));
    }
    // The run must have exercised both paths it claims to compare.
    assert!(
        clean_repeats > 50,
        "seed {seed}: {clean_repeats} clean repeats"
    );
    assert!(
        missing_execs > 50,
        "seed {seed}: {missing_execs} walks with misses"
    );
}

#[test]
fn machine_matches_naive_walker_on_pentium4_like() {
    for seed in 0..6 {
        check_machine(MachineConfig::pentium4_like(), seed, 1500);
    }
}

#[test]
fn machine_matches_naive_walker_on_ultrasparc_like() {
    // 32 B lines, 4-way, gshare.
    for seed in 10..14 {
        check_machine(MachineConfig::ultrasparc_like(), seed, 1200);
    }
}

#[test]
fn machine_matches_naive_walker_on_athlon_like() {
    // 2-way L1, 16-way L2, 24-entry ITLB, gshare.
    for seed in 20..24 {
        check_machine(MachineConfig::athlon_like(), seed, 1200);
    }
}

#[test]
fn machine_matches_naive_walker_when_only_l1i_thrashes() {
    // A 4 KB L1i under a 64-entry ITLB: regions that evict their own lines
    // while every page stays translated (no preset separates the two).
    let mut cfg = MachineConfig::pentium4_like();
    cfg.l1i.capacity = 4 * 1024;
    cfg.itlb_entries = 64;
    for seed in 30..34 {
        check_machine(cfg.clone(), seed, 1200);
    }
}

/// The replay itself, deterministically: cold walk, clean repeats credited,
/// latch survives everything that does not touch L1i/ITLB, and a region
/// that evicts its own lines is walked every time.
#[test]
fn clean_repeats_are_credited_and_self_evicting_regions_never_are() {
    let cfg = MachineConfig::pentium4_like();
    let mut regions = region_pool(&cfg);
    let mut real = Machine::new(cfg.clone());
    let mut naive = NaiveMachine::new(cfg.clone());
    let mut counts = fresh_site_counts(&regions);
    let (scan, huge) = (1, 7);
    for round in 0..50 {
        real.exec_region(&mut regions[scan]);
        naive.exec_region(&regions[scan], &mut counts[scan]);
        if round % 7 == 3 {
            real.data_read(0x1000_0000 + round * 64, 64);
            naive.data_access(0x1000_0000 + round * 64, 64);
            real.set_query_tag(round as u32);
            naive.l1i.set_owner(round as u32);
        }
        assert_eq!(real.snapshot(), naive.snapshot(), "round {round}");
    }
    let before = real.snapshot();
    for round in 0..20 {
        real.exec_region(&mut regions[huge]);
        naive.exec_region(&regions[huge], &mut counts[huge]);
        assert_eq!(real.snapshot(), naive.snapshot(), "huge round {round}");
    }
    let delta = real.snapshot() - before;
    assert!(
        delta.l1i_misses >= 20 * (cfg.l1i.capacity as u64 / 64),
        "a region larger than L1i must miss on every pass: {delta:?}"
    );
}

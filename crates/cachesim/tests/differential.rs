//! Differential tests of the simulator core against obviously-correct
//! references (ROADMAP item 4b).
//!
//! * `Cache` and `Tlb` against brute-force MRU lists, over random address
//!   streams × geometries, with owner tags and the heat ledger on.
//! * `Machine` against a naive walker that fetches every line of every
//!   function on every call — no line tables, no walk memo — assembled from
//!   the public `Cache` / `Tlb` / predictor / prefetcher pieces. Counters
//!   and heat ledger must agree after every single step, under a random
//!   event mix and under the periodic region cycles the memo is built for,
//!   with attribution never on, on from the start, switched on mid-run and
//!   with owner tags alternating in server-like quanta, under scan-shaped
//!   data traffic, with L2s from one that keeps the code to one that loses
//!   it to every scan and to itself, and with bimodal tables from the
//!   preset's 512 counters down to 16, where a region's own sites share
//!   counters and data-dependent branches land on them; each run proves from
//!   `Machine::walk_stats` which path it exercised — in L2 too, where a
//!   credited walk's refills are credited, refused or synced — and no walk
//!   that misses is ever credited across an owner-tag change.
//! * The property the memo rests on, on the naive walker alone: a region's
//!   walk misses the same lines and displaces the same lines whenever the
//!   same regions were walked since its previous walk.

use bufferdb_cachesim::heat::UNTRACKED_SEGMENT;
use bufferdb_cachesim::{
    BranchPredictor, Cache, CacheConfig, CodeLayout, CodeRegion, GsharePredictor, HeatCell,
    Machine, MachineConfig, PerfCounters, PredictorKind, SegmentSpec, StreamPrefetcher, Tlb,
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

/// Two-bit saturating counters indexed by branch address, one branch at a
/// time: the reference for the crate's bimodal predictor, which fires a
/// region's sites as one sparse update per call.
struct NaiveBimodal {
    table: Vec<u8>,
    branches: u64,
    mispredictions: u64,
}

impl BranchPredictor for NaiveBimodal {
    fn predict_and_update(&mut self, site: u64, taken: bool) -> bool {
        let slot = (((site >> 2) ^ (site >> 14)) as usize) & (self.table.len() - 1);
        let counter = &mut self.table[slot];
        let correct = (*counter >= 2) == taken;
        *counter = if taken {
            (*counter + 1).min(3)
        } else {
            counter.saturating_sub(1)
        };
        self.branches += 1;
        self.mispredictions += u64::from(!correct);
        correct
    }

    fn branches(&self) -> u64 {
        self.branches
    }

    fn mispredictions(&self) -> u64 {
        self.mispredictions
    }
}

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
    /// Addresses the latest `exec_region` missed in L1i, in walk order.
    l1i_missed: Vec<u64>,
}

type HeatCells = HashMap<(String, u32), HeatCell>;
type HeatResidency = HashMap<(usize, String), u32>;

impl NaiveMachine {
    fn new(cfg: MachineConfig) -> Self {
        let predictor: Box<dyn BranchPredictor> = match cfg.branch.kind {
            PredictorKind::Bimodal => Box::new(NaiveBimodal {
                table: vec![2; cfg.branch.table_entries],
                branches: 0,
                mispredictions: 0,
            }),
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
            l1i_missed: Vec::new(),
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
        self.l1i_missed.clear();
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
                        self.l1i_missed.push(addr);
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

/// Regions chosen to hit every edge of the memo: tiny (cold once, then
/// clean), a pair that fits together, a pair that thrashes, a clone, regions
/// that share a segment, a region that lists one segment twice, one too big
/// for L1i and one with more functions than ITLB entries (both evict their
/// own lines, so even their back-to-back repeats miss), and the empty
/// region.
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

/// Indices into [`region_pool`].
const TINY: usize = 0;
const SCAN: usize = 1;
const AGG: usize = 2;
const SCAN_CLONE: usize = 3;
const SORT: usize = 4;
const TWICE: usize = 5;
const COMMON: usize = 6;
const HUGE: usize = 7;
const PAGES: usize = 8;
const EMPTY: usize = 9;

/// A zeroed execution count per static site, per region object (the real
/// region keeps its own inside).
fn fresh_site_counts(regions: &[CodeRegion]) -> Vec<Vec<u64>> {
    regions
        .iter()
        .map(|r| vec![0; r.segments().iter().map(|s| s.sites.len()).sum()])
        .collect()
}

/// The machine under test and the naive walker, fed the same events.
struct Pair {
    regions: Vec<CodeRegion>,
    /// The naive walker's [`fresh_site_counts`].
    site_counts: Vec<Vec<u64>>,
    real: Machine,
    naive: NaiveMachine,
    heat: bool,
    /// Whether the ledger has seen every L1i miss.
    heat_from_birth: bool,
    /// `exec` calls so far, the count at which the owner tag in force was
    /// set, and at which each region (by fetch identity) was last executed.
    clock: u64,
    tag: Option<u32>,
    tagged_at: u64,
    walked_at: Vec<Option<u64>>,
    /// Where the table scan of [`Pair::scan`] has got to.
    scanned: u64,
}

impl Pair {
    fn new(cfg: &MachineConfig) -> Self {
        let regions = region_pool(cfg);
        Pair {
            site_counts: fresh_site_counts(&regions),
            walked_at: vec![None; regions.len()],
            regions,
            real: Machine::new(cfg.clone()),
            naive: NaiveMachine::new(cfg.clone()),
            heat: false,
            heat_from_birth: false,
            clock: 0,
            tag: None,
            tagged_at: 0,
            scanned: 0x3000_0000,
        }
    }

    /// Execute one region on both; what the naive walk fetched. A walk that
    /// misses in L1i must not be credited unless the region's previous walk
    /// ran under the owner tag in force: what evicted its lines decides
    /// which of the misses are cross-owner misses.
    fn exec(&mut self, region: usize) -> PerfCounters {
        let before = self.naive.snapshot();
        let credited_missing = self.real.walk_stats().credited_missing;
        self.real.exec_region(&mut self.regions[region]);
        self.naive
            .exec_region(&self.regions[region], &mut self.site_counts[region]);
        let fetched = self.naive.snapshot() - before;
        // A clone is its original as far as the memo can tell.
        let id = if region == SCAN_CLONE { SCAN } else { region };
        let in_epoch = self.walked_at[id].is_some_and(|at| at >= self.tagged_at);
        if fetched.l1i_misses > 0 && !in_epoch {
            assert_eq!(
                self.real.walk_stats().credited_missing,
                credited_missing,
                "region {region} credited across an owner-tag change"
            );
        }
        self.walked_at[id] = Some(self.clock);
        self.clock += 1;
        fetched
    }

    /// Resolve a data-dependent branch on both.
    fn branch(&mut self, site: u64, taken: bool) {
        self.real.branch(site, taken);
        self.naive.predictor.predict_and_update(site, taken);
    }

    /// A static branch site of `region` drawn at random — where a
    /// data-dependent branch shares a counter with the region's own sites —
    /// or, for a region without any, a site of none.
    fn site_of(&self, region: usize, rng: &mut Rng) -> u64 {
        let sites: Vec<u64> = (self.regions[region].segments().iter())
            .flat_map(|s| s.sites.iter().map(|&(addr, _)| addr))
            .collect();
        match sites.len() {
            0 => 0x40_0000 + rng.below(64) * 16,
            n => sites[rng.below(n as u64) as usize],
        }
    }

    fn data(&mut self, addr: u64, len: usize) {
        self.real.data_read(addr, len);
        self.naive.data_access(addr, len);
    }

    /// Read the next `bytes` of a table no one has read before: every line
    /// misses both data levels and fills a way of L2.
    fn scan(&mut self, bytes: usize) {
        self.data(self.scanned, bytes);
        self.scanned += bytes as u64;
    }

    fn tag(&mut self, tag: u32) {
        self.real.set_query_tag(tag);
        self.naive.l1i.set_owner(tag);
        if self.tag.replace(tag) != Some(tag) {
            self.tagged_at = self.clock;
        }
    }

    fn enable_heatmap(&mut self) {
        self.real.enable_heatmap();
        self.naive.enable_heatmap();
        self.heat_from_birth |= !self.heat && self.clock == 0;
        self.heat = true;
    }

    /// Counters and heat ledger agree, and the ledger conserves.
    fn check(&self, context: &str) {
        let counters = self.real.snapshot();
        assert_eq!(counters, self.naive.snapshot(), "{context}");
        // A credited walk that missed went to L2 one way or the other.
        let stats = self.real.walk_stats();
        assert_eq!(
            stats.l2_credited + stats.l2_refused,
            stats.credited_missing,
            "{context}"
        );
        let snap = self.real.heat_snapshot();
        let (cells, residency) = self.naive.heat();
        assert_eq!(snap.cells, cells, "{context}");
        assert_eq!(snap.residency, residency, "{context}");
        assert_eq!(self.real.heatmap_enabled(), self.heat, "{context}");
        if self.heat_from_birth {
            assert_eq!(snap.total_misses(), counters.l1i_misses, "{context}");
            let cross = counters.l1i_cross_misses;
            assert_eq!(snap.total_cross_misses(), cross, "{context}");
            assert_eq!(snap.total_cross_caused(), cross, "{context}");
        }
    }
}

/// A random event mix. With `attribution`, owner tags arrive at random and
/// the heat ledger is on from birth, from a third of the way in, or never
/// (by seed); without, neither ever comes on, so walks that miss are
/// credited too.
fn check_machine(cfg: MachineConfig, seed: u64, steps: usize, attribution: bool) {
    let mut rng = Rng(seed);
    let mut pair = Pair::new(&cfg);
    let heat_at = match seed % 3 {
        0 if attribution => Some(0),
        1 if attribution => Some(steps / 3),
        _ => None,
    };
    let mut current = 0;
    let (mut clean_repeats, mut missing_execs) = (0, 0);
    for step in 0..steps {
        if heat_at == Some(step) {
            pair.enable_heatmap();
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
                current = rng.below(pair.regions.len() as u64) as usize;
                "jump"
            }
            15 => {
                pair.data(0x1000_0000 + rng.below(1 << 16), rng.below(200) as usize);
                "data_read"
            }
            16 => {
                let (addr, len) = (0x2000_0000 + rng.below(1 << 20), 8);
                pair.real.data_write(addr, len);
                pair.naive.data_access(addr, len);
                "data_write"
            }
            17 => {
                let region = rng.below(pair.regions.len() as u64) as usize;
                let site = pair.site_of(region, &mut rng);
                pair.branch(site, rng.below(3) != 0);
                "branch"
            }
            18 if attribution => {
                pair.tag(1 + rng.below(3) as u32);
                "set_query_tag"
            }
            _ => {
                let n = rng.below(1000);
                pair.real.add_instructions(n);
                pair.naive.instructions += n;
                let other = PerfCounters {
                    instructions: n,
                    l1i_accesses: 3,
                    ..Default::default()
                };
                pair.real.absorb(&other);
                pair.naive.absorbed = pair.naive.absorbed + other;
                "add_instructions+absorb"
            }
        };
        if roll <= 14 {
            let fetched = pair.exec(current);
            if fetched.l1i_misses + fetched.itlb_misses > 0 {
                missing_execs += 1;
            } else if what == "repeat" && fetched.l1i_accesses > 0 {
                clean_repeats += 1;
            }
        }
        pair.check(&format!(
            "seed {seed} step {step}: {what} (region {current})"
        ));
    }
    // The run must have exercised the paths it claims to compare.
    assert!(
        clean_repeats > 50,
        "seed {seed}: {clean_repeats} clean repeats"
    );
    assert!(
        missing_execs > 50,
        "seed {seed}: {missing_execs} walks with misses"
    );
    let stats = pair.real.walk_stats();
    assert!(stats.credited > 50 && stats.syncs > 20, "{stats:?}");
    if !attribution {
        assert!(stats.credited_missing > 50, "{stats:?}");
    }
}

/// When owner tags and the heat ledger come on in [`check_cycles`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Attribution {
    Never,
    /// One of the two at the first step (tags on even seeds, the ledger on
    /// odd ones), the other a third of the way in; from then on a break may
    /// set any of three tags.
    FromStart,
    /// The same two thirds and five sixths of the way in.
    MidRun,
    /// A server core: tagged from the first step, the tag passing round two
    /// (odd seeds: three) queries every 50 to 500 walks.
    Quanta(Ledger),
}

/// When the heat ledger comes on under [`Attribution::Quanta`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ledger {
    Never,
    FromStart,
    /// Half way in.
    MidRun,
}

/// The instruction stream the memo is built for: a cycle of two to four
/// regions going round, broken at random points. The log wraps several
/// times over a run. On even seeds a table scan runs alongside, a tuple per
/// walk — the pull pipeline's data traffic, which keeps taking ways of L2
/// from under the code — and on every seed some breaks read a burst of it.
fn check_cycles(cfg: MachineConfig, seed: u64, attribution: Attribution) {
    const STEPS: usize = 9000;
    let scanning = seed.is_multiple_of(2);
    let l2 = cfg.l2;
    // Thrashing cycles first, among them regions that share a segment, one
    // that lists a segment twice and a clone standing in for its original;
    // then the regions that evict their own lines or pages; then cycles
    // that stay resident, credited whatever tag their previous walk ran
    // under.
    let cycles: [&[usize]; 9] = [
        &[SCAN, SORT],
        &[SORT, TWICE],
        &[SCAN, AGG, SORT],
        &[SCAN, SORT, SCAN_CLONE, TWICE],
        &[HUGE, AGG],
        &[HUGE],
        &[PAGES, SCAN],
        &[AGG, SORT, COMMON],
        &[TINY, AGG],
    ];
    let mut rng = Rng(seed);
    let mut pair = Pair::new(&cfg);
    let mut attributed = false;
    let mut at_switch = None;
    let queries = 2 + (seed % 2) as u32;
    let (mut tag, mut quantum_ends) = (0, 0);
    let (mut step, mut log_entries, mut previous) = (0, 0, usize::MAX);
    while step < STEPS {
        let cycle = cycles[rng.below(cycles.len() as u64) as usize];
        // Now and then the buffered shape: each region eight times over,
        // for an eighth as many rounds.
        let batch = if rng.below(8) == 0 { 8 } else { 1 };
        for _ in 0..(2 + rng.below(16) as usize).div_ceil(batch) {
            for &region in cycle.iter().flat_map(|r| std::iter::repeat_n(r, batch)) {
                let (tags_on, ledger_on) = match attribution {
                    Attribution::Never => (false, false),
                    Attribution::FromStart => (step == 0, step == STEPS / 3),
                    Attribution::MidRun => (step == STEPS * 2 / 3, step == STEPS * 5 / 6),
                    Attribution::Quanta(ledger) => (
                        step == quantum_ends,
                        match ledger {
                            Ledger::Never => false,
                            Ledger::FromStart => step == 0,
                            Ledger::MidRun => step == STEPS / 2,
                        },
                    ),
                };
                if let Attribution::Quanta(_) = attribution {
                    if tags_on {
                        tag = tag % queries + 1;
                        pair.tag(tag);
                        quantum_ends = step + 50 + rng.below(451) as usize;
                        // The log cannot tell this walk from a repeat.
                        log_entries += usize::from(region == previous);
                    }
                    if ledger_on {
                        pair.enable_heatmap();
                    }
                } else if tags_on || ledger_on {
                    at_switch.get_or_insert(pair.real.walk_stats());
                    if tags_on == seed.is_multiple_of(2) {
                        pair.tag(1);
                    } else {
                        pair.enable_heatmap();
                    }
                    attributed = true;
                }
                if scanning {
                    pair.scan(64);
                }
                if rng.below(4) == 0 {
                    // A predicate on the tuple, at one of the region's own
                    // sites.
                    let site = pair.site_of(region, &mut rng);
                    pair.branch(site, rng.below(3) != 0);
                }
                pair.exec(region);
                pair.check(&format!("seed {seed} step {step}: {cycle:?} x{batch}"));
                // A clone is its original as far as the log can tell.
                let id = if region == SCAN_CLONE { SCAN } else { region };
                log_entries += usize::from(id != previous);
                previous = id;
                step += 1;
            }
        }
        let what = match rng.below(10) {
            0..=2 => {
                pair.exec(rng.below(pair.regions.len() as u64) as usize);
                previous = usize::MAX;
                "jump"
            }
            3 => {
                pair.data(0x1000_0000 + rng.below(1 << 20), 64);
                "data"
            }
            4 => {
                pair.scan((1 + rng.below(40) as usize) * l2.line_size);
                "scan burst"
            }
            5 => {
                // More walks than any recorded history holds.
                for _ in 0..9 {
                    pair.exec(TINY);
                    pair.exec(EMPTY);
                }
                previous = EMPTY;
                "long history"
            }
            6 | 7 if attributed => {
                pair.tag(1 + rng.below(3) as u32);
                "tag"
            }
            8 if tag != 0 => {
                // A morsel of the query already running: nothing changes.
                let syncs = pair.real.walk_stats().syncs;
                pair.tag(tag);
                assert_eq!(pair.real.walk_stats().syncs, syncs);
                "same tag"
            }
            _ => "nothing",
        };
        pair.check(&format!("seed {seed} step {step}: break by {what}"));
    }
    assert!(log_entries > 2 * 1024, "the log must wrap: {log_entries}");
    let stats = pair.real.walk_stats();
    let context = format!("{attribution:?} seed {seed}: {stats:?}");
    assert!(stats.syncs > 50, "{context}");
    // Most walks are credited misses and all: always while nothing is
    // attributed, and inside an owner-tag epoch.
    let unattributed = at_switch.unwrap_or(stats);
    if attribution != Attribution::FromStart {
        assert!(
            unattributed.credited_missing * 2 > unattributed.walks,
            "{context} after {unattributed:?}"
        );
    }
    if attribution != Attribution::Never {
        let before = at_switch.unwrap_or_default();
        assert!(
            (stats.credited_missing - before.credited_missing) * 2 > stats.walks - before.walks,
            "{context} after {before:?}"
        );
        // Each change of tag sends every region round once more.
        assert!(stats.epoch_refused > 0, "{context}");
    }
    // L2, by how much of the code it keeps. 8 KB: every refill loses lines
    // to the scan, the next region or itself, and has to probe. 32 KB: so do
    // nearly all, and the few that are credited meet fills that need their
    // recency. A preset's L2 holds all the code against any scan — credited
    // refills wait for the next real walk's, or for a fill that comes upon
    // one of their lines — but the Athlon's sixteen ways are too few for the
    // 52 sets the page-aligned functions share, and about as many refills
    // find a line displaced as do not.
    if l2.capacity <= 8 * 1024 {
        assert!(stats.l2_refused > 20 * stats.l2_credited, "{context}");
    } else if l2.capacity <= 32 * 1024 {
        assert!(stats.l2_refused > stats.l2_credited, "{context}");
        assert!(stats.l2_credited > 0 && stats.l2_syncs > 0, "{context}");
    } else {
        assert!(stats.l2_credited > stats.credited_missing / 3, "{context}");
        assert!(stats.l2_syncs > 50, "{context}");
        if l2.associativity == 16 {
            assert!(stats.l2_refused > 500, "{context}");
        }
    }
}

/// Every preset; a 4 KB L1i under a 64-entry ITLB: regions that evict
/// their own lines while every page stays translated (no preset separates
/// the two); two L2s too small for the code (every preset's holds it
/// all): 32 KB, where data keeps displacing lines the walk memo's credited
/// refills count on, and 8 KB, where a refill displaces its own; and two
/// bimodal tables far smaller than the preset's 512 counters, 64 and 16,
/// where most of a region's sites share a counter with another of its
/// sites and mixed patterns keep counters below 2.
fn machines() -> Vec<MachineConfig> {
    let mut l1i_only = MachineConfig::pentium4_like();
    l1i_only.l1i.capacity = 4 * 1024;
    l1i_only.itlb_entries = 64;
    let small_l2 = |capacity, associativity| {
        let mut cfg = MachineConfig::pentium4_like();
        cfg.l2.capacity = capacity;
        cfg.l2.associativity = associativity;
        cfg
    };
    let small_bimodal = |entries| {
        let mut cfg = MachineConfig::pentium4_like();
        cfg.branch.table_entries = entries;
        cfg
    };
    vec![
        MachineConfig::pentium4_like(),
        // 32 B lines, 4-way, gshare.
        MachineConfig::ultrasparc_like(),
        // 2-way L1, 16-way L2, 24-entry ITLB, gshare.
        MachineConfig::athlon_like(),
        l1i_only,
        small_l2(32 * 1024, 4),
        small_l2(8 * 1024, 2),
        small_bimodal(64),
        small_bimodal(16),
    ]
}

#[test]
fn machine_matches_naive_walker_on_a_random_mix() {
    for (m, cfg) in machines().into_iter().enumerate() {
        for seed in 0..4 {
            check_machine(cfg.clone(), 10 * m as u64 + seed, 1500, true);
        }
    }
}

#[test]
fn machine_matches_naive_walker_on_a_random_mix_never_attributed() {
    for (m, cfg) in machines().into_iter().enumerate() {
        for seed in 0..2 {
            check_machine(cfg.clone(), 100 + 10 * m as u64 + seed, 1500, false);
        }
    }
}

#[test]
fn machine_matches_naive_walker_on_cycles_never_attributed() {
    for (m, cfg) in machines().into_iter().enumerate() {
        check_cycles(cfg, 200 + m as u64, Attribution::Never);
    }
}

#[test]
fn machine_matches_naive_walker_on_cycles_attributed_from_the_start() {
    for (m, cfg) in machines().into_iter().enumerate() {
        check_cycles(cfg, 300 + m as u64, Attribution::FromStart);
    }
}

#[test]
fn machine_matches_naive_walker_on_cycles_attributed_mid_run() {
    for (m, cfg) in machines().into_iter().enumerate() {
        // Both ways of switching attribution on, on every machine.
        check_cycles(cfg.clone(), 400 + 2 * m as u64, Attribution::MidRun);
        check_cycles(cfg, 401 + 2 * m as u64, Attribution::MidRun);
    }
}

#[test]
fn machine_matches_naive_walker_on_cycles_in_owner_quanta() {
    for (m, cfg) in machines().into_iter().enumerate() {
        // Two queries and three, under every ledger schedule.
        let ledgers = [Ledger::Never, Ledger::FromStart, Ledger::MidRun];
        for (l, ledger) in ledgers.into_iter().enumerate() {
            let seed = 600 + 10 * m as u64 + l as u64;
            check_cycles(cfg.clone(), seed, Attribution::Quanta(ledger));
        }
    }
}

/// The memo itself, deterministically: a cold walk, then repeats credited
/// through everything that leaves L1i and the ITLB alone; and a region that
/// evicts its own lines, whose repeats are credited too — misses and all.
#[test]
fn repeats_are_credited_and_a_self_evicting_region_still_misses_every_pass() {
    let cfg = MachineConfig::pentium4_like();
    let mut pair = Pair::new(&cfg);
    for round in 0..50 {
        pair.exec(SCAN);
        if round % 7 == 3 {
            pair.data(0x1000_0000 + round * 64, 64);
        }
        pair.check(&format!("round {round}"));
    }
    let stats = pair.real.walk_stats();
    assert_eq!((stats.credited, stats.credited_missing), (48, 0));
    let before = pair.real.snapshot();
    for round in 0..20 {
        pair.exec(HUGE);
        pair.check(&format!("huge round {round}"));
    }
    let delta = pair.real.snapshot() - before;
    assert!(
        delta.l1i_misses >= 20 * (cfg.l1i.capacity as u64 / 64),
        "a region larger than L1i must miss on every pass: {delta:?}"
    );
    // The first pass follows SCAN, the second records what a repeat finds.
    assert_eq!(pair.real.walk_stats().credited_missing, 18);
    // Under an owner tag the first pass is walked again — the one before it
    // ran untagged — and the rest are credited as before.
    pair.tag(1);
    for round in 0..5 {
        pair.exec(HUGE);
        pair.check(&format!("tagged huge round {round}"));
    }
    let stats = pair.real.walk_stats();
    assert_eq!((stats.credited_missing, stats.epoch_refused), (22, 1));
}

/// A change of owner tag fences the memo: a walk that misses is credited
/// only once the region has been walked under the tag in force, because only
/// then is none of its misses a cross-owner miss. Naming the tag already in
/// force changes nothing.
#[test]
fn an_owner_tag_change_fences_the_memo() {
    for cfg in machines() {
        let mut pair = Pair::new(&cfg);
        let refused = |pair: &Pair| pair.real.walk_stats().epoch_refused;
        let credited = |pair: &Pair| pair.real.walk_stats().credited_missing;
        // A region that evicts its own lines, back to back across a switch:
        // the second walk misses on what the first evicted under tag 1.
        pair.tag(1);
        for round in 0..4 {
            pair.exec(HUGE);
            pair.check(&format!("huge round {round} under tag 1"));
        }
        assert_eq!((credited(&pair), refused(&pair)), (2, 0));
        pair.tag(2);
        let fetched = pair.exec(HUGE);
        pair.check("huge, first walk under tag 2");
        assert!(fetched.l1i_cross_misses > 0, "{fetched:?}");
        assert_eq!((credited(&pair), refused(&pair)), (2, 1));
        let fetched = pair.exec(HUGE);
        pair.check("huge, second walk under tag 2");
        assert!(fetched.l1i_misses > 0 && fetched.l1i_cross_misses == 0);
        assert_eq!((credited(&pair), refused(&pair)), (3, 1));

        // A thrashing pair whose history spans the switch: each of the two
        // is walked once under the new tag before it is credited again.
        for round in 0..4 {
            pair.exec(SCAN);
            pair.exec(SORT);
            pair.check(&format!("pair round {round} under tag 2"));
        }
        let before = (credited(&pair), refused(&pair));
        assert!(before.0 >= 3 + 4, "{:?}", pair.real.walk_stats());
        pair.exec(SCAN);
        pair.tag(1);
        let mut cross = 0;
        for round in 0..3 {
            cross += pair.exec(SORT).l1i_cross_misses;
            pair.check(&format!("sort, pair round {round} under tag 1"));
            cross += pair.exec(SCAN).l1i_cross_misses;
            pair.check(&format!("scan, pair round {round} under tag 1"));
        }
        assert!(cross > 0, "the pair evicted each other's lines under tag 2");
        let after = (credited(&pair), refused(&pair));
        assert_eq!(after, (before.0 + 1 + 4, before.1 + 2));

        // Credited walks are waiting for a sync; a morsel of the same query
        // leaves them waiting, a switch does not.
        let syncs = pair.real.walk_stats().syncs;
        pair.tag(1);
        assert_eq!(pair.real.walk_stats().syncs, syncs);
        pair.check("same tag again");
        pair.tag(2);
        assert_eq!(pair.real.walk_stats().syncs, syncs + 1);
        pair.check("another tag");
    }
}

// ---------------------------------------------------------------------------
// (d) What the walk memo rests on, shown on the naive walker alone
// ---------------------------------------------------------------------------

/// Under true LRU the lines a walk of region R misses, the line each miss
/// displaces and the walk's ITLB miss count are a function of R and of the
/// regions walked since R's previous walk — consecutive repeats counted
/// once — whatever came before. And once R has been walked, each of its
/// misses displaces a line: the set was full when the missing line left it,
/// and nothing empties a set. (What the heat ledger credits rests on both.)
#[test]
fn a_walk_misses_and_displaces_the_same_lines_whenever_its_history_repeats() {
    for (m, cfg) in machines().into_iter().enumerate() {
        let mut rng = Rng(500 + m as u64);
        let regions = region_pool(&cfg);
        let mut site_counts = fresh_site_counts(&regions);
        // The victims come from a brute-force L1i fed the same fetches.
        let mut victims_of = RefCache::new(cfg.l1i);
        let line_size = cfg.l1i.line_size;
        let mut naive = NaiveMachine::new(cfg);
        // Every walk so far, consecutive repeats collapsed.
        let mut log: Vec<usize> = Vec::new();
        type Found = (Vec<u64>, Vec<Option<u64>>, u64);
        let mut found: HashMap<(usize, Vec<usize>), Found> = HashMap::new();
        let (mut repeated, mut repeated_missing) = (0, 0);
        for _ in 0..12 {
            // A few regions at a time, so that histories recur.
            let subset: Vec<usize> = (0..3).map(|_| rng.below(9) as usize).collect();
            for _ in 0..400 {
                let mut region = subset[rng.below(3) as usize];
                if region == SCAN_CLONE {
                    region = SCAN;
                }
                let itlb_before = naive.itlb.misses();
                naive.exec_region(&regions[region], &mut site_counts[region]);
                let mut victims = Vec::new();
                for &(base, len) in regions[region].segments().iter().flat_map(|s| &s.functions) {
                    for addr in (base..base + len as u64).step_by(line_size) {
                        let (hit, evicted) = victims_of.access(addr, 0, 0);
                        if !hit {
                            victims.push(evicted);
                        }
                    }
                }
                assert_eq!(victims.len(), naive.l1i_missed.len());
                let itlb_misses = naive.itlb.misses() - itlb_before;
                let outcome = (naive.l1i_missed.clone(), victims, itlb_misses);
                if let Some(at) = log.iter().rposition(|&r| r == region) {
                    assert!(
                        outcome.1.iter().all(Option::is_some),
                        "region {region}: a miss found a vacant way"
                    );
                    let history = log[at + 1..].to_vec();
                    match found.get(&(region, history.clone())) {
                        Some(earlier) => {
                            assert_eq!(earlier, &outcome, "region {region} after {history:?}");
                            repeated += 1;
                            repeated_missing += usize::from(!outcome.0.is_empty());
                        }
                        None => {
                            found.insert((region, history), outcome);
                        }
                    }
                }
                if log.last() != Some(&region) {
                    log.push(region);
                }
            }
        }
        assert!(
            repeated > 2000 && repeated_missing > 500,
            "machine {m}: {repeated} repeated histories, {repeated_missing} with misses"
        );
    }
}

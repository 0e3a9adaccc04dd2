//! The machine facade: caches + TLB + predictor + prefetcher + counters.

use crate::branch::{BranchPredictor, Predictor};
use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::counters::PerfCounters;
use crate::heat::{self, HeatSnapshot};
use crate::layout::CodeRegion;
use crate::prefetch::StreamPrefetcher;
use crate::report::BreakdownReport;
use crate::tlb::Tlb;

/// One simulated CPU. The query executor drives it with three event kinds:
/// [`Machine::exec_region`] (an operator executes its code for one call),
/// [`Machine::branch`] (a data-dependent branch resolved), and
/// [`Machine::data_read`] / [`Machine::data_write`] (tuple memory traffic).
pub struct Machine {
    cfg: MachineConfig,
    l1i: Cache,
    l1d: Cache,
    l2: L2,
    itlb: Tlb,
    predictor: Predictor,
    instructions: u64,
    /// Counters merged in from other simulated cores (worker machines).
    absorbed: PerfCounters,
    /// Scratch: addresses of the L1i misses of the segment being fetched.
    l1i_refills: Vec<u64>,
    /// The region the previous `exec_region` fetched, for clean-region
    /// replay (see [`Machine::exec_region`]).
    last_fetch: Option<Fetch>,
}

/// The unified L2 behind both L1s, with its sequential stream prefetcher.
struct L2 {
    cache: Cache,
    prefetcher: StreamPrefetcher,
    line_shift: u32,
    accesses: u64,
    misses: u64,
    covered: u64,
}

impl L2 {
    /// Refill one L1d miss, training and consulting the prefetcher.
    fn refill_data(&mut self, addr: u64) {
        self.accesses += 1;
        if !self.cache.access(addr) {
            self.misses += 1;
            if self.prefetcher.observe_miss(addr >> self.line_shift) {
                self.covered += 1;
            }
        }
    }

    /// Refill a run of L1i misses, in order. Instruction refills are not
    /// prefetchable (the P4 trace cache rebuilds traces on demand): the
    /// prefetcher neither sees nor covers them.
    fn refill_code(&mut self, addrs: &[u64]) {
        self.accesses += addrs.len() as u64;
        let misses = &mut self.misses;
        self.cache.access_each(addrs, |_| *misses += 1);
    }
}

/// One region's instruction fetch: what it adds to the counters, and
/// whether the latest walk of its lines (through L1i) and of its pages
/// (through the ITLB) found every one of them resident.
#[derive(Debug, Clone, Copy)]
struct Fetch {
    fetch_id: u64,
    lines: u64,
    pages: u64,
    instructions: u64,
    l1i_clean: bool,
    itlb_clean: bool,
}

impl Fetch {
    /// The fetch of a region not walked yet.
    fn of(region: &CodeRegion, line_size: usize) -> Self {
        let mut fetch = Fetch {
            fetch_id: region.fetch_id(),
            lines: 0,
            pages: 0,
            instructions: 0,
            l1i_clean: false,
            itlb_clean: false,
        };
        for seg in region.segments() {
            fetch.lines += seg.lines(line_size).len() as u64;
            fetch.pages += seg.functions.len() as u64;
            fetch.instructions += seg.instructions();
        }
        fetch
    }
}

impl Machine {
    /// A cold machine for `cfg`.
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate().expect("invalid machine config");
        Machine {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: L2 {
                cache: Cache::new(cfg.l2),
                prefetcher: StreamPrefetcher::new(cfg.prefetch_streams),
                line_shift: cfg.l2.line_size.trailing_zeros(),
                accesses: 0,
                misses: 0,
                covered: 0,
            },
            itlb: Tlb::new(cfg.itlb_entries),
            predictor: Predictor::new(&cfg.branch),
            instructions: 0,
            absorbed: PerfCounters::default(),
            l1i_refills: Vec::new(),
            last_fetch: None,
            cfg,
        }
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Simulate one execution of an operator's code: every function is
    /// entered (one ITLB lookup), every instruction line is fetched through
    /// L1i (missing to L2/memory), and every static branch site fires with
    /// its deterministic data-independent pattern.
    ///
    /// **Clean-region replay.** If the previous `exec_region` on this
    /// machine fetched this same region and its walk through L1i missed
    /// nowhere, walking it again would hit everywhere and leave every LRU
    /// order exactly as it is: nothing but `exec_region` touches L1i, hits
    /// evict nothing, and a set's recency order after a miss-free pass is a
    /// function of the pass alone. So the pass is credited in O(1) instead
    /// of walked. The ITLB replays the same way, independently. Branch
    /// sites always run — predictor state depends on history.
    pub fn exec_region(&mut self, region: &mut CodeRegion) {
        let mut fetch = match self.last_fetch {
            Some(last) if last.fetch_id == region.fetch_id() => last,
            _ => Fetch::of(region, self.cfg.l1i.line_size),
        };
        if fetch.itlb_clean {
            self.itlb.credit_hits(fetch.pages);
        } else {
            fetch.itlb_clean = self.walk_pages(region);
        }
        if fetch.l1i_clean {
            self.l1i.credit_hits(fetch.lines);
        } else {
            fetch.l1i_clean = self.walk_lines(region);
        }
        self.instructions += fetch.instructions;
        self.last_fetch = Some(fetch);
        self.predictor.run_sites(region.site_state_mut());
    }

    /// Enter every function of `region` through the ITLB; `true` if none
    /// missed.
    fn walk_pages(&mut self, region: &CodeRegion) -> bool {
        let misses = self.itlb.misses();
        for seg in region.segments() {
            for &(base, _) in &seg.functions {
                self.itlb.access(base);
            }
        }
        self.itlb.misses() == misses
    }

    /// Fetch every instruction line of `region` through L1i; `true` if none
    /// missed.
    fn walk_lines(&mut self, region: &CodeRegion) -> bool {
        let misses = self.l1i.misses();
        for seg in region.segments() {
            if self.l1i.heat_enabled() {
                // Announce the segment so L1i misses below land in its cell.
                self.l1i.set_heat_segment(seg.heat_id());
            }
            // The segment's misses reach L2 after its L1i pass rather than
            // interleaved with it: the same L2 accesses in the same order,
            // as two tight loops.
            let refills = &mut self.l1i_refills;
            refills.clear();
            self.l1i
                .access_each(seg.lines(self.cfg.l1i.line_size), |addr| refills.push(addr));
            self.l2.refill_code(refills);
        }
        self.l1i.misses() == misses
    }

    /// Resolve one data-dependent branch (e.g. a predicate outcome) at the
    /// given site address.
    pub fn branch(&mut self, site: u64, taken: bool) {
        self.predictor.predict_and_update(site, taken);
    }

    /// Simulate a data read of `len` bytes at `addr` (tuple slot access).
    pub fn data_read(&mut self, addr: u64, len: usize) {
        self.data_access(addr, len)
    }

    /// Simulate a data write of `len` bytes at `addr` (write-allocate).
    pub fn data_write(&mut self, addr: u64, len: usize) {
        self.data_access(addr, len)
    }

    fn data_access(&mut self, addr: u64, len: usize) {
        let line = self.cfg.l1d.line_size as u64;
        let mut a = addr & !(line - 1);
        let end = addr + len.max(1) as u64;
        while a < end {
            if !self.l1d.access(a) {
                self.l2.refill_data(a);
            }
            a += line;
        }
    }

    /// Account for computation that executes no modeled code region (e.g.
    /// tight loops inside sort comparisons).
    pub fn add_instructions(&mut self, n: u64) {
        self.instructions += n;
    }

    /// Tag all execution from this point as belonging to query `tag`,
    /// enabling cross-query L1i eviction attribution on this core.
    ///
    /// A multi-query server calls this whenever a worker's long-lived
    /// machine switches to a different query's work: L1i lines the new
    /// query pushes out are stamped with its tag, and when the *old* query
    /// later re-misses on those lines the miss lands in
    /// [`PerfCounters::l1i_cross_misses`] — the modeled cost of sharing an
    /// instruction cache between concurrent queries. Solo executions never
    /// call this and pay nothing.
    pub fn set_query_tag(&mut self, tag: u32) {
        self.l1i.set_owner(tag);
    }

    /// Enable the per-segment L1i heat ledger on this core. Idempotent.
    /// Enable before the first [`Machine::exec_region`] for exact
    /// miss-conservation (Σ cell misses == `l1i_misses`); attribution adds
    /// zero modeled cost either way.
    pub fn enable_heatmap(&mut self) {
        if !self.l1i.heat_enabled() {
            self.l1i.enable_heat();
            // The next walk announces its segments to the new ledger.
            self.last_fetch = None;
        }
    }

    /// Whether the heat ledger is on.
    pub fn heatmap_enabled(&self) -> bool {
        self.l1i.heat_enabled()
    }

    /// Resolve the L1i heat ledger into names: per-(segment, owner) miss/
    /// eviction attribution plus point-in-time per-set residency. Empty when
    /// the heatmap was never enabled. Snapshots of several machines merge
    /// with [`HeatSnapshot::merge`].
    pub fn heat_snapshot(&self) -> HeatSnapshot {
        let mut snap = HeatSnapshot::default();
        if !self.l1i.heat_enabled() {
            return snap;
        }
        snap.sets = self.l1i.sets();
        for ((seg, owner), cell) in self.l1i.heat_cells() {
            snap.cells.insert((heat::segment_name(seg), owner), cell);
        }
        for (set, seg, n) in self.l1i.heat_residency() {
            *snap
                .residency
                .entry((set, heat::segment_name(seg)))
                .or_insert(0) += n;
        }
        snap
    }

    /// Fold another core's counter delta into this machine's totals.
    ///
    /// Parallel operators (exchange, partitioned hash build) simulate each
    /// worker on its own [`Machine`] — per-core L1i/ITLB/branch state, as the
    /// paper assumes — and merge the workers' counters into the coordinating
    /// machine at the end of the parallel phase. The merge is exact: after
    /// absorbing every worker, [`Machine::snapshot`] equals the field-wise
    /// sum of the coordinator's own activity and all worker activity.
    pub fn absorb(&mut self, other: &PerfCounters) {
        self.absorbed = self.absorbed + *other;
    }

    /// Snapshot every counter (this core's activity plus anything absorbed
    /// from worker machines).
    pub fn snapshot(&self) -> PerfCounters {
        self.absorbed
            + PerfCounters {
                instructions: self.instructions,
                l1i_accesses: self.l1i.accesses(),
                l1i_misses: self.l1i.misses(),
                l1i_cross_misses: self.l1i.cross_misses(),
                l1d_accesses: self.l1d.accesses(),
                l1d_misses: self.l1d.misses(),
                l2_accesses: self.l2.accesses,
                l2_misses: self.l2.misses,
                l2_covered: self.l2.covered,
                itlb_accesses: self.itlb.accesses(),
                itlb_misses: self.itlb.misses(),
                branches: self.predictor.branches(),
                mispredictions: self.predictor.mispredictions(),
            }
    }

    /// Modeled cycles for a counter delta, per the paper's methodology
    /// (penalty = events × latency, plus a base issue cost).
    pub fn cycles_for(&self, c: &PerfCounters) -> u64 {
        BreakdownReport::from_counters(c, &self.cfg).total_cycles
    }

    /// Execution-time breakdown for a counter delta (the paper's Figures
    /// 4, 9, 10, 13, 15–17).
    pub fn breakdown_for(&self, c: &PerfCounters) -> BreakdownReport {
        BreakdownReport::from_counters(c, &self.cfg)
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cfg", &self.cfg)
            .field("counters", &self.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{CodeLayout, CodeRegion, SegmentSpec};

    fn machine() -> Machine {
        Machine::new(MachineConfig::pentium4_like())
    }

    fn region(layout: &mut CodeLayout, name: &str, bytes: usize) -> CodeRegion {
        let seg = layout.define(&SegmentSpec::new(name, bytes));
        CodeRegion::new(vec![seg])
    }

    #[test]
    fn small_region_becomes_cache_resident() {
        let mut m = machine();
        let mut l = CodeLayout::new();
        let mut r = region(&mut l, "small", 4000);
        m.exec_region(&mut r);
        let cold = m.snapshot();
        assert!(cold.l1i_misses > 0, "compulsory misses expected");
        for _ in 0..100 {
            m.exec_region(&mut r);
        }
        let warm = m.snapshot() - cold;
        assert_eq!(
            warm.l1i_misses, 0,
            "4 KB of code must stay resident in 16 KB L1i"
        );
    }

    #[test]
    fn interleaving_two_large_regions_thrashes() {
        // Two 13 KB regions: together 26 KB > 16 KB L1i. Interleaved
        // execution (the paper's PCPC pattern) must miss heavily; batched
        // execution (PCCCC...PPPP) must not.
        let interleaved = {
            let mut m = machine();
            let mut l = CodeLayout::new();
            let mut a = region(&mut l, "parent", 13_000);
            let mut b = region(&mut l, "child", 13_000);
            for _ in 0..200 {
                m.exec_region(&mut b);
                m.exec_region(&mut a);
            }
            m.snapshot().l1i_misses
        };
        let batched = {
            let mut m = machine();
            let mut l = CodeLayout::new();
            let mut a = region(&mut l, "parent", 13_000);
            let mut b = region(&mut l, "child", 13_000);
            for _ in 0..2 {
                for _ in 0..100 {
                    m.exec_region(&mut b);
                }
                for _ in 0..100 {
                    m.exec_region(&mut a);
                }
            }
            m.snapshot().l1i_misses
        };
        assert!(
            batched * 4 < interleaved,
            "batched {batched} should be ≪ interleaved {interleaved}"
        );
    }

    #[test]
    fn combined_regions_under_capacity_do_not_thrash() {
        // 7 KB + 7 KB = 14 KB < 16 KB: interleaving is fine (paper's Query 2).
        let mut m = machine();
        let mut l = CodeLayout::new();
        let mut a = region(&mut l, "p", 7000);
        let mut b = region(&mut l, "c", 7000);
        for _ in 0..5 {
            m.exec_region(&mut b);
            m.exec_region(&mut a);
        }
        let warmup = m.snapshot();
        for _ in 0..100 {
            m.exec_region(&mut b);
            m.exec_region(&mut a);
        }
        let delta = m.snapshot() - warmup;
        let per_iter = delta.l1i_misses as f64 / 100.0;
        // A few conflict misses are tolerated; thrashing would be hundreds.
        assert!(per_iter < 20.0, "per-iteration misses {per_iter}");
    }

    #[test]
    fn data_accesses_flow_through_hierarchy() {
        let mut m = machine();
        m.data_write(0x1000_0000, 64);
        let c = m.snapshot();
        assert_eq!(c.l1d_accesses, 1);
        assert_eq!(c.l1d_misses, 1);
        assert_eq!(c.l2_accesses, 1);
        assert_eq!(c.l2_misses, 1);
        m.data_read(0x1000_0000, 64);
        let c2 = m.snapshot();
        assert_eq!(c2.l1d_misses, 1, "second access hits L1d");
    }

    #[test]
    fn sequential_data_misses_are_prefetch_covered() {
        let mut m = machine();
        // Stream through 1 MB sequentially — far beyond L2 (256 KB).
        for i in 0..16_384u64 {
            m.data_read(0x2000_0000 + i * 64, 64);
        }
        let c = m.snapshot();
        assert!(c.l2_misses > 1000);
        let covered_frac = c.l2_covered as f64 / c.l2_misses as f64;
        assert!(covered_frac > 0.9, "covered fraction {covered_frac}");
    }

    #[test]
    fn data_dependent_branches_feed_predictor() {
        let mut m = machine();
        for i in 0..1000u64 {
            m.branch(0x5000, i % 10 != 0); // 90% taken: learnable
        }
        let c = m.snapshot();
        assert_eq!(c.branches, 1000);
        assert!(c.mispredictions < 200, "got {}", c.mispredictions);
    }

    #[test]
    fn unaligned_data_access_touches_both_lines() {
        let mut m = machine();
        m.data_read(0x1000_0020, 96); // crosses a 64 B boundary
        assert_eq!(m.snapshot().l1d_accesses, 2);
    }

    #[test]
    fn heat_snapshot_conserves_machine_l1i_totals() {
        let mut m = machine();
        m.enable_heatmap();
        let mut l = CodeLayout::new();
        let mut a = region(&mut l, "parent", 13_000);
        let mut b = region(&mut l, "child", 13_000);
        m.set_query_tag(1);
        for _ in 0..50 {
            m.exec_region(&mut b);
            m.exec_region(&mut a);
        }
        m.set_query_tag(2);
        for _ in 0..50 {
            m.exec_region(&mut a);
        }
        let c = m.snapshot();
        let snap = m.heat_snapshot();
        assert_eq!(snap.total_misses(), c.l1i_misses);
        assert_eq!(snap.total_cross_misses(), c.l1i_cross_misses);
        assert_eq!(snap.total_cross_caused(), c.l1i_cross_misses);
        assert!(snap.cells.keys().any(|(s, _)| s == "parent"));
        assert!(snap.cells.keys().any(|(s, _)| s == "child"));
        let resident: u32 = snap.residency.values().sum();
        assert!(resident > 0, "warm cache has resident lines");
    }

    #[test]
    fn heatmap_adds_zero_modeled_cost() {
        let run = |heat: bool| {
            let mut m = machine();
            if heat {
                m.enable_heatmap();
            }
            let mut l = CodeLayout::new();
            let mut a = region(&mut l, "p", 13_000);
            let mut b = region(&mut l, "c", 13_000);
            m.set_query_tag(7);
            for _ in 0..100 {
                m.exec_region(&mut b);
                m.exec_region(&mut a);
            }
            m.snapshot()
        };
        assert_eq!(run(false), run(true), "heat must not perturb counters");
    }

    #[test]
    fn instructions_counted_per_execution() {
        let mut m = machine();
        let mut l = CodeLayout::new();
        let mut r = region(&mut l, "s", 4000);
        m.exec_region(&mut r);
        assert_eq!(m.snapshot().instructions, 1000); // 4000 bytes / 4
        m.add_instructions(50);
        assert_eq!(m.snapshot().instructions, 1050);
    }
}

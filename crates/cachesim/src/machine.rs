//! The machine facade: caches + TLB + predictor + prefetcher + counters.

use crate::branch::{BranchPredictor, Predictor};
use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::counters::PerfCounters;
use crate::hash::U64Map;
use crate::heat::{self, HeatSnapshot};
use crate::layout::{CodeRegion, SegmentRef};
use crate::lru::{Noted, EMPTY};
use crate::prefetch::StreamPrefetcher;
use crate::report::BreakdownReport;
use crate::tlb::Tlb;
use std::sync::Arc;

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
    /// What the latest real walk found in L1i.
    fetched: Fetched,
    /// What earlier walks found, so that a walk whose history repeats is not
    /// walked again (see [`Machine::exec_region`]).
    memo: WalkMemo,
}

/// The unified L2 behind both L1s, with its sequential stream prefetcher.
struct L2 {
    cache: Cache,
    prefetcher: StreamPrefetcher,
    line_shift: u32,
    accesses: u64,
    misses: u64,
    covered: u64,
    /// Where [`L2::credit_code`] collects the ways a refill it has to make
    /// lands in.
    slots: Vec<u32>,
}

impl L2 {
    /// Refill one L1d miss, training and consulting the prefetcher.
    fn refill_data(&mut self, addr: u64) {
        self.accesses += 1;
        if !self.cache.access_lazy(addr) {
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
        self.cache.access_each_lazy(addrs, |_, _| *misses += 1);
    }

    /// [`L2::refill_code`] on behalf of a credited walk, whose miss list
    /// `addrs` is refilled time and again: if every line is still where the
    /// refill `noted` describes found or left it, all of them hit, and they
    /// are counted without being probed for (`true`). Otherwise — the first
    /// time, or once a fill has displaced any noted line — they are refilled
    /// for real and `noted` says where to.
    fn credit_code(&mut self, addrs: &[u64], noted: &mut Option<Noted>) -> bool {
        self.accesses += addrs.len() as u64;
        if let Some(noted) = noted {
            if self.cache.credit_noted(noted, addrs.len() as u64) {
                return true;
            }
        }
        let (misses, slots) = (&mut self.misses, &mut self.slots);
        let generation = self.cache.note_each(addrs, slots, |_, _| *misses += 1);
        Noted::renote(noted, slots, generation);
        false
    }
}

/// The L1i side of one real walk, in walk order.
#[derive(Default)]
struct Fetched {
    /// Addresses that missed.
    misses: Vec<u64>,
    /// With the heat ledger on (empty otherwise): the line each miss
    /// displaced, and how many of the misses each segment of the region
    /// took.
    victims: Vec<u64>,
    per_segment: Vec<u64>,
}

/// Walks the memo logs before it syncs and starts the log over.
const LOG_ENTRIES: usize = 1024;
/// Longest history an outcome is recorded under.
const MAX_HISTORY: usize = 16;
/// Outcomes kept per region; the oldest is dropped first.
const MAX_OUTCOMES: usize = 8;
/// `u64` words the region table may account for (128 KiB); it is emptied
/// rather than grown past this.
const MEMO_WORDS: usize = 16 * 1024;
/// Longest miss list recorded, so one region cannot use up the table (a
/// miss takes a word and a half, address and L2 slot; with the heat ledger
/// on, where its victim makes that two and a half, seven such outcomes of
/// one region do empty it).
const MAX_MISSES: usize = MEMO_WORDS / MAX_OUTCOMES / 2;
/// Words a region accounts for before its first outcome (table slot and
/// header), and an outcome on top of its `words` and its L2 note.
const REGION_WORDS: usize = 24;
const OUTCOME_WORDS: usize = 9;

/// Which regions a machine walked in what order, and what each walk found.
/// DESIGN.md §18 has the exactness argument.
#[derive(Default)]
struct WalkMemo {
    /// `fetch_id` of every walk since the log was last started over,
    /// consecutive repeats under one owner tag collapsed: `log[i]` is walk
    /// number `start + i`.
    log: Vec<u64>,
    start: u64,
    /// L1i and the ITLB have seen `log[..synced]`; every later entry was
    /// credited.
    synced: usize,
    /// Number of the first walk under the owner tag now in force: every
    /// walk from this one on displaced lines under that tag, or none.
    tag_since: u64,
    regions: U64Map<RegionMemo>,
    /// Words `regions` accounts for, against [`MEMO_WORDS`].
    words: usize,
    stats: WalkStats,
}

/// What the memo knows about one region (one `fetch_id`).
struct RegionMemo {
    segments: Arc<[SegmentRef]>,
    /// Number of the region's latest walk; in the log iff `>= start`.
    last: u64,
    lines: u64,
    pages: u64,
    instructions: u64,
    /// Oldest first; no two under one history.
    outcomes: Vec<Outcome>,
}

impl RegionMemo {
    /// Words this region accounts for, against [`MEMO_WORDS`].
    fn words(&self) -> usize {
        let outcomes = self.outcomes.iter().map(Outcome::accounted_words);
        REGION_WORDS + outcomes.sum::<usize>()
    }
}

/// What a walk of one region found after one history: the log entries
/// between the region's previous walk and that one.
struct Outcome {
    /// The history, then the addresses that missed L1i in walk order, then —
    /// recorded with the heat ledger on ([`Fetched`]) — the line each of them
    /// displaced and how many of them each of the region's segments took.
    words: Box<[u64]>,
    history_len: u32,
    l1i_misses: u32,
    itlb_misses: u32,
    /// Credits the heat ledger has yet to see (the next sync shows it), and
    /// the number of the walk that took the latest of them.
    owed: u32,
    credited_at: u64,
    /// Where in L2 the latest real refill of the miss list on behalf of a
    /// credit found or put each line; `None` until the first.
    l2: Option<Noted>,
}

impl Outcome {
    fn new(history: &[u64], fetched: &Fetched, itlb_misses: u64) -> Self {
        let Fetched {
            misses,
            victims,
            per_segment,
        } = fetched;
        Outcome {
            words: [history, misses, victims, per_segment]
                .concat()
                .into_boxed_slice(),
            history_len: history.len() as u32,
            l1i_misses: misses.len() as u32,
            itlb_misses: itlb_misses as u32,
            owed: 0,
            credited_at: 0,
            l2: None,
        }
    }

    fn l1i_misses(&self) -> &[u64] {
        &self.words[self.history_len as usize..][..self.l1i_misses as usize]
    }

    /// [`Outcome::l1i_misses`], and the note of their refill from L2.
    fn l1i_misses_noted(&mut self) -> (&[u64], &mut Option<Noted>) {
        let misses = &self.words[self.history_len as usize..][..self.l1i_misses as usize];
        (misses, &mut self.l2)
    }

    /// What the heat ledger is owed for one credit: the misses each of the
    /// region's `segments` took and the lines they displaced.
    fn ledger<'a>(
        &'a self,
        segments: &'a [SegmentRef],
    ) -> impl Iterator<Item = (&'a SegmentRef, &'a [u64], &'a [u64])> {
        let misses = self.l1i_misses();
        let rest = &self.words[(self.history_len + self.l1i_misses) as usize..];
        let (victims, per_segment) = rest.split_at(misses.len());
        let mut at = 0;
        segments.iter().zip(per_segment).map(move |(seg, &n)| {
            let took = at..at + n as usize;
            at = took.end;
            (seg, &misses[took.clone()], &victims[took])
        })
    }

    /// Whether `history` is the one this outcome was recorded under.
    /// Element by element: histories are a few entries long, and slice
    /// equality calls out to `bcmp`, which costs more than the rest of a
    /// credited walk.
    fn follows(&self, history: &[u64]) -> bool {
        self.history_len as usize == history.len()
            && self.words.iter().zip(history).all(|(a, b)| a == b)
    }

    fn accounted_words(&self) -> usize {
        // At most what the L2 note will hold once a credit has made it: two
        // reference counts, and a 4-byte slot per miss.
        let note = match self.l1i_misses as usize {
            0 => 0,
            misses => 2 + misses.div_ceil(2),
        };
        self.words.len() + OUTCOME_WORDS + note
    }
}

impl WalkMemo {
    /// Note that walk number `now` fetched `region`, and what it found if
    /// that is worth keeping. Nothing may be waiting for a sync.
    fn record(&mut self, now: u64, region: &CodeRegion, line_size: usize, found: Option<Outcome>) {
        let found_words = found.as_ref().map_or(0, Outcome::accounted_words);
        // Room for the outcome and, in case the region is new, for it too.
        if self.words + found_words + REGION_WORDS > MEMO_WORDS {
            self.forget_regions();
        }
        let known = self.regions.entry(region.fetch_id()).or_insert_with(|| {
            self.words += REGION_WORDS;
            let mut fresh = RegionMemo {
                segments: Arc::clone(region.shared_segments()),
                last: now,
                lines: 0,
                pages: 0,
                instructions: 0,
                outcomes: Vec::new(),
            };
            for seg in region.segments() {
                fresh.lines += seg.lines(line_size).len() as u64;
                fresh.pages += seg.functions.len() as u64;
                fresh.instructions += seg.instructions();
            }
            fresh
        });
        known.last = now;
        if let Some(found) = found {
            if known.outcomes.len() == MAX_OUTCOMES {
                self.words -= known.outcomes.remove(0).accounted_words();
            }
            self.words += found_words;
            known.outcomes.push(found);
        }
    }

    /// Empty the region table. Nothing may be waiting for a sync.
    fn forget_regions(&mut self) {
        self.regions.clear();
        self.words = 0;
    }

    /// What a sync replays: each distinct region credited since the last
    /// real walk, once, in order of its latest occurrence — a way's standing
    /// depends only on when its line was last touched.
    fn each_credited_segment(&self, mut replay: impl FnMut(&SegmentRef)) {
        for at in self.synced..self.log.len() {
            let known = &self.regions[&self.log[at]];
            if known.last == self.start + at as u64 {
                known.segments.iter().for_each(&mut replay);
            }
        }
    }

    /// Start the log over. Nothing may be waiting for a sync. A region the
    /// finished log never saw is forgotten: a long-lived pool machine meets
    /// fresh `fetch_id`s with every query.
    fn restart_log(&mut self) {
        let finished = self.start;
        self.regions.retain(|_, known| known.last >= finished);
        self.words = self.regions.values().map(RegionMemo::words).sum();
        self.start += LOG_ENTRIES as u64;
        self.log.clear();
        self.synced = 0;
    }
}

/// How a machine's [`Machine::exec_region`] calls were served, for tests and
/// microbenchmarks that must show which path they exercised.
#[doc(hidden)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalkStats {
    /// `exec_region` calls.
    pub walks: u64,
    /// Calls credited from a recorded outcome.
    pub credited: u64,
    /// Credited calls whose outcome had L1i misses.
    pub credited_missing: u64,
    /// Calls walked although their outcome was on record: it had L1i misses
    /// and the region's previous walk ran under an earlier owner tag.
    pub epoch_refused: u64,
    /// Syncs that had credited walks to re-apply.
    pub syncs: u64,
    /// Credited calls with L1i misses whose L2 refill was credited too: no
    /// L2 way probed.
    pub l2_credited: u64,
    /// Credited calls whose L2 refill was made for real, and noted: the
    /// outcome's first credit, or one after a noted line (of its refill or
    /// of any other) had been displaced.
    pub l2_refused: u64,
    /// Times L2's recency was brought up to date with credited refills,
    /// before a fill that might have displaced one of their lines.
    pub l2_syncs: u64,
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
                slots: Vec::new(),
            },
            itlb: Tlb::new(cfg.itlb_entries),
            predictor: Predictor::new(&cfg.branch),
            instructions: 0,
            absorbed: PerfCounters::default(),
            fetched: Fetched::default(),
            // The log's whole capacity up front: it never grows mid-run, so
            // a query allocates the same whatever its length.
            memo: WalkMemo {
                log: Vec::with_capacity(LOG_ENTRIES),
                ..WalkMemo::default()
            },
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
    /// **Walk memo.** Under true LRU a line hits iff fewer than `assoc`
    /// distinct lines of its set were touched since its own last touch, so
    /// which lines of a region miss — and which line each miss displaces — is
    /// a pure function of the regions walked since that region's previous
    /// walk, its *history*. The first time a region meets a history it is
    /// walked and what the walk found is recorded; every later time that
    /// outcome is *credited*: the counters and the heat ledger advance and no
    /// L1i or ITLB way is touched; the next real walk first brings their
    /// recency up to date (a *sync*). L2, which data traffic shares, is
    /// credited the refill of the recorded misses as well — all hits, its
    /// recency likewise left for later — from an outcome's second credit on,
    /// for as long as every line its latest real refill touched is where it
    /// was; otherwise the misses go through L2 for real. Under owner tags an
    /// outcome with L1i misses is credited only if the region's previous
    /// walk ran under the tag in force: then so did whatever evicted its
    /// lines since, and none of the misses is a cross-owner miss. Branch
    /// sites always run: the predictor has a history of its own.
    pub fn exec_region(&mut self, region: &mut CodeRegion) {
        self.predictor.run_sites(region.site_state_mut());
        let id = region.fetch_id();
        // A repeat shares the log entry of the walk before it, unless that
        // one ran under an earlier owner tag: what it evicted of its own
        // lines is a cross-owner miss now, and may be only this once.
        let entries = self.memo.start + self.memo.log.len() as u64;
        let repeat = self.memo.log.last() == Some(&id) && entries > self.memo.tag_since;
        if !repeat && self.memo.log.len() == LOG_ENTRIES {
            self.sync();
            self.memo.restart_log();
        }
        let memo = &mut self.memo;
        memo.stats.walks += 1;
        let now = memo.start + memo.log.len() as u64 - u64::from(repeat);
        // Where in the log this region's history starts — right after its
        // previous walk — if the log reaches back that far, and whether an
        // outcome is on record under it.
        let mut history_at = None;
        let mut on_record = false;
        if let Some(known) = memo.regions.get_mut(&id) {
            let since = known.last.checked_sub(memo.start);
            history_at = since.map(|walk| walk as usize + 1);
            let history = history_at.map(|at| &memo.log[at..]);
            let outcomes = &mut known.outcomes;
            let recorded = history.and_then(|h| outcomes.iter_mut().rev().find(|o| o.follows(h)));
            if let Some(outcome) = recorded {
                if outcome.l1i_misses == 0 || known.last >= memo.tag_since {
                    if outcome.l1i_misses != 0 && self.l1i.heat_enabled() {
                        outcome.owed += 1;
                        outcome.credited_at = now;
                    }
                    let itlb_misses = u64::from(outcome.itlb_misses);
                    let (misses, noted) = outcome.l1i_misses_noted();
                    self.l1i.credit(known.lines, misses.len() as u64);
                    self.itlb.credit(known.pages, itlb_misses);
                    if !misses.is_empty() {
                        if self.l2.credit_code(misses, noted) {
                            memo.stats.l2_credited += 1;
                        } else {
                            memo.stats.l2_refused += 1;
                        }
                        memo.stats.credited_missing += 1;
                    }
                    self.instructions += known.instructions;
                    memo.stats.credited += 1;
                    known.last = now;
                    if !repeat {
                        memo.log.push(id);
                    }
                    return;
                }
                memo.stats.epoch_refused += 1;
                on_record = true;
            }
        }
        self.sync();
        let itlb_misses = self.itlb.misses();
        self.walk(region);
        let itlb_misses = self.itlb.misses() - itlb_misses;
        // Every line was fetched before, so every miss found its set full.
        debug_assert!(history_at.is_none() || !self.fetched.victims.contains(&EMPTY));
        let misses = self.fetched.misses.len();
        let found = history_at
            .map(|at| &self.memo.log[at..])
            .filter(|h| !on_record && h.len() <= MAX_HISTORY && misses <= MAX_MISSES)
            .map(|history| Outcome::new(history, &self.fetched, itlb_misses));
        let memo = &mut self.memo;
        memo.record(now, region, self.cfg.l1i.line_size, found);
        if !repeat {
            memo.log.push(id);
        }
        memo.synced = memo.log.len();
    }

    /// Fetch `region` for real: every function base through the ITLB, every
    /// line through L1i, and the lines that missed — left in `fetched`, in
    /// walk order — through L2.
    fn walk(&mut self, region: &CodeRegion) {
        let Fetched {
            misses,
            victims,
            per_segment,
        } = &mut self.fetched;
        misses.clear();
        victims.clear();
        per_segment.clear();
        let ledger = self.l1i.heat_enabled();
        for seg in region.segments() {
            self.instructions += seg.instructions();
            for &(base, _) in &seg.functions {
                self.itlb.access(base);
            }
            if ledger {
                // Announce the segment so L1i misses below land in its cell.
                self.l1i.set_heat_segment(seg.heat_id());
            }
            let before = misses.len();
            self.l1i
                .access_each(seg.lines(self.cfg.l1i.line_size), |addr, old| {
                    misses.push(addr);
                    if ledger {
                        victims.push(old);
                    }
                });
            if ledger {
                per_segment.push((misses.len() - before) as u64);
            }
        }
        // The misses reach L2 after the L1i pass rather than interleaved
        // with it: the same L2 accesses in the same order, as two tight
        // loops.
        self.l2.refill_code(misses);
    }

    /// Bring L1i, the ITLB and the heat ledger up to date with the walks
    /// credited since the last real one, before anything looks at or changes
    /// a way or a ledger entry.
    fn sync(&mut self) {
        let memo = &mut self.memo;
        if memo.synced < memo.log.len() {
            let line_size = self.cfg.l1i.line_size;
            memo.each_credited_segment(|seg| {
                for &(base, _) in &seg.functions {
                    self.itlb.replay(base);
                }
                self.l1i.replay_each(seg.lines(line_size), seg.heat_id());
            });
            self.l1i.end_replay();
            memo.stats.syncs += 1;
        }
        if self.l1i.heat_enabled() {
            // The ledger takes each outcome once, for all its credits, when
            // the latest of them was made: an evictor record shows a line's
            // latest eviction, and every credit of one outcome evicts the
            // same lines on behalf of the same segments. The last real walk
            // may have credited repeats, which share its log entry (and
            // leave the ways as they were); the walk that made an entry
            // comes before its repeats, which have no history.
            for at in memo.synced.saturating_sub(1)..memo.log.len() {
                let Some(known) = memo.regions.get_mut(&memo.log[at]) else {
                    continue;
                };
                let now = memo.start + at as u64;
                for repeats in [false, true] {
                    let owed = known.outcomes.iter_mut().filter(|o| {
                        o.owed != 0 && o.credited_at == now && (o.history_len == 0) == repeats
                    });
                    for outcome in owed {
                        for (seg, misses, victims) in outcome.ledger(&known.segments) {
                            self.l1i
                                .credit_heat(seg.heat_id(), misses, victims, outcome.owed);
                        }
                        outcome.owed = 0;
                    }
                }
            }
        }
        memo.synced = memo.log.len();
    }

    /// How `exec_region` calls were served so far.
    #[doc(hidden)]
    pub fn walk_stats(&self) -> WalkStats {
        WalkStats {
            l2_syncs: self.l2.cache.recency_syncs(),
            ..self.memo.stats
        }
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
    /// call this and pay nothing. A call that repeats the tag in force (a
    /// server makes one per morsel) returns at once; a change of tag costs
    /// a sync, and one real walk of each region — or one per history, for a
    /// region that misses — before the walk memo credits it again.
    pub fn set_query_tag(&mut self, tag: u32) {
        if self.l1i.owner() == Some(tag) {
            return;
        }
        // Walks credited so far displaced lines under the old tag, or none.
        self.sync();
        self.l1i.set_owner(tag);
        self.memo.tag_since = self.memo.start + self.memo.log.len() as u64;
    }

    /// Enable the per-segment L1i heat ledger on this core. Idempotent.
    /// Enable before the first [`Machine::exec_region`] for exact
    /// miss-conservation (Σ cell misses == `l1i_misses`); attribution adds
    /// zero modeled cost either way.
    pub fn enable_heatmap(&mut self) {
        if !self.l1i.heat_enabled() {
            // The ledger starts from the ways as the walks so far left them,
            // and the memo from nothing: no outcome on record says which
            // lines its misses displaced.
            self.sync();
            self.memo.forget_regions();
            self.l1i.enable_heat();
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
        // What the next sync will show the ledger: every miss of a credited
        // walk displaced a line, under the owner in force.
        let owner = self.l1i.owner().unwrap_or(0);
        for known in self.memo.regions.values() {
            for outcome in known.outcomes.iter().filter(|o| o.owed != 0) {
                for (seg, misses, _) in outcome.ledger(&known.segments) {
                    if !misses.is_empty() {
                        let name = heat::segment_name(seg.heat_id());
                        let cell = snap.cells.entry((name, owner)).or_default();
                        cell.misses += misses.len() as u64 * u64::from(outcome.owed);
                        cell.evictions += misses.len() as u64 * u64::from(outcome.owed);
                    }
                }
            }
        }
        // Residency is read off the ways, which credited walks have yet to
        // reach: replay them onto a copy.
        let mut ways = self.l1i.ways_only();
        self.memo.each_credited_segment(|seg| {
            ways.replay_each(seg.lines(self.cfg.l1i.line_size), seg.heat_id());
        });
        for (set, seg, n) in ways.heat_residency() {
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
    fn a_self_evicting_region_cross_misses_once_after_a_tag_change() {
        // Twice the L1i: every line of every pass misses, evicted by the
        // pass before, so from the third pass on the memo credits them.
        let mut m = machine();
        let mut l = CodeLayout::new();
        let mut r = region(&mut l, "huge", 2 * m.config().l1i.capacity);
        m.set_query_tag(1);
        for _ in 0..5 {
            m.exec_region(&mut r);
        }
        let tagged_1 = m.snapshot();
        assert_eq!(tagged_1.l1i_cross_misses, 0);
        assert_eq!(m.walk_stats().credited_missing, 3);
        // Back to back under another tag: the pass is walked, because the
        // half of it that tag 1 evicted cross-misses (the other half was
        // resident until this very pass pushed it out) ...
        m.set_query_tag(2);
        m.exec_region(&mut r);
        let first = m.snapshot() - tagged_1;
        assert_eq!(first.l1i_misses, first.l1i_accesses);
        assert_eq!(first.l1i_cross_misses, first.l1i_misses / 2);
        assert_eq!(m.walk_stats().epoch_refused, 1);
        // ... once: the next pass misses on its own evictions again.
        m.exec_region(&mut r);
        let second = m.snapshot() - tagged_1 - first;
        assert_eq!(
            (second.l1i_misses, second.l1i_cross_misses),
            (first.l1i_misses, 0)
        );
        assert_eq!(m.walk_stats().credited_missing, 4);
    }

    #[test]
    fn naming_the_tag_in_force_again_costs_no_sync() {
        let mut m = machine();
        let mut l = CodeLayout::new();
        let mut a = region(&mut l, "parent", 13_000);
        let mut b = region(&mut l, "child", 13_000);
        m.set_query_tag(1);
        for _ in 0..10 {
            m.exec_region(&mut b);
            m.exec_region(&mut a);
        }
        let stats = m.walk_stats();
        assert!(stats.credited_missing > 0, "credited walks must be pending");
        m.set_query_tag(1);
        assert_eq!(m.walk_stats(), stats);
        m.set_query_tag(2);
        assert_eq!(m.walk_stats().syncs, stats.syncs + 1);
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

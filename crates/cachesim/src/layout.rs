//! Code layout: synthetic instruction footprints for query operators.
//!
//! The paper estimates per-module footprints (Table 2) by summing the binary
//! sizes of the functions each module calls at runtime, noting that "most
//! functions are smaller than 1 K bytes" and that modules share a fair number
//! of functions. We model exactly that: a *segment* (named unit of code such
//! as "seqscan core" or the shared "expression evaluator") is split into
//! functions of ≤ [`FUNC_BYTES`] bytes; each function lives on its own 4 KB
//! page at a hash-derived 64-byte-aligned offset, scattering the footprint
//! the way a multi-megabyte binary does. Operators reference segments by
//! handle; shared segments are allocated once, so combined execution-group
//! footprints automatically count common code once (§6.1).

use crate::branch::{site_plan, SitePlan};
use crate::hash::U64Map;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Maximum synthetic function size in bytes ("most functions < 1 K").
pub const FUNC_BYTES: usize = 832;
/// Page size for the ITLB model.
pub const PAGE_BYTES: u64 = 4096;
/// Base of the simulated text section.
pub const CODE_BASE: u64 = 0x0040_0000;
/// One static branch site per this many bytes of code.
pub const BRANCH_SITE_STRIDE: usize = 256;

/// Request to define a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentSpec {
    /// Unique name, e.g. `"expr_eval"`.
    pub name: String,
    /// Footprint contribution in bytes.
    pub bytes: usize,
}

impl SegmentSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, bytes: usize) -> Self {
        SegmentSpec {
            name: name.into(),
            bytes,
        }
    }
}

/// Statically-biased behaviour class of a synthetic branch site.
///
/// These stand in for the data-independent control flow inside operator code
/// (error checks, type dispatch, loop back-edges). Data-*dependent* branches
/// (predicate outcomes) are fired separately by the engine with real
/// outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// Almost always taken (error-check style): not-taken once per 64.
    Biased,
    /// Short repeating pattern (taken-taken-not): learnable through clean
    /// global history, broken by polluted history — the §4 effect.
    Mixed,
    /// Loop back-edge: taken 7 of 8 consecutive executions.
    Loop,
}

impl SiteKind {
    /// Every kind, in declaration order (`kind as usize` indexes it).
    pub const ALL: [SiteKind; 3] = [SiteKind::Biased, SiteKind::Mixed, SiteKind::Loop];

    /// Length of the site's repeating pattern: taken every time but the
    /// last of each period.
    pub fn period(self) -> u32 {
        match self {
            SiteKind::Biased => 64,
            SiteKind::Mixed => 3,
            SiteKind::Loop => 8,
        }
    }

    /// Deterministic outcome of the `count`-th execution of a site.
    pub fn outcome(self, count: u64) -> bool {
        let period = u64::from(self.period());
        count % period != period - 1
    }
}

/// Line tables are kept per L1i line size, indexed by its log2. A function
/// is at most [`FUNC_BYTES`] long, so every line size from 1 KB up fetches
/// exactly each function's base and shares the last table.
const LINE_TABLES: usize = FUNC_BYTES.next_power_of_two().trailing_zeros() as usize + 1;

/// One immutable, laid-out segment.
///
/// Everything [`crate::Machine::exec_region`] needs per execution is
/// flattened here once per segment and shared through the [`SegmentRef`]:
/// the heat-ledger id and instruction total at [`CodeLayout::define`] time,
/// the line table the first time a machine with that L1i line size executes
/// the segment (the layout does not know the machine). Building a
/// [`CodeRegion`] over defined segments therefore costs nothing per line.
#[derive(Debug)]
pub struct SegmentCode {
    /// Segment name (unique within a layout).
    pub name: String,
    /// Total bytes (the Table 2 footprint contribution).
    pub bytes: usize,
    /// Laid-out functions as `(base address, length)`.
    pub functions: Vec<(u64, u32)>,
    /// Static branch sites as `(address, kind)`.
    pub sites: Vec<(u64, SiteKind)>,
    heat_id: u16,
    instructions: u64,
    lines: [OnceLock<Box<[u64]>>; LINE_TABLES],
}

impl SegmentCode {
    /// Process-wide heat-ledger id of this segment's name (never 0; equal
    /// names in different layouts share it).
    pub(crate) fn heat_id(&self) -> u16 {
        self.heat_id
    }

    /// Instructions one execution of the segment retires (4-byte
    /// instructions, counted per function).
    pub(crate) fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The address fetched for every instruction line of one execution, in
    /// fetch order, on a cache with `line_size`-byte lines: each function
    /// from its base in `line_size` steps.
    pub(crate) fn lines(&self, line_size: usize) -> &[u64] {
        debug_assert!(line_size.is_power_of_two());
        let slot = (line_size.trailing_zeros() as usize).min(LINE_TABLES - 1);
        self.lines[slot].get_or_init(|| {
            let count = self
                .functions
                .iter()
                .map(|&(_, len)| (len as usize).div_ceil(line_size));
            let mut lines = Vec::with_capacity(count.sum());
            for &(base, len) in &self.functions {
                lines.extend((base..base + len as u64).step_by(line_size));
            }
            lines.into_boxed_slice()
        })
    }
}

/// Shared handle to a laid-out segment.
pub type SegmentRef = Arc<SegmentCode>;

fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer: cheap, deterministic scatter.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Cache-set fold used to balance function placement. 64 covers both the
/// default 16 KB L1i (32 sets — balance mod 64 implies balance mod 32) and
/// the 32 KB ablation cache (64 sets).
pub const SET_FOLD: usize = 64;

/// Everything the placement of the *next* segment depends on besides the
/// segment itself: where a layout stands after the definitions so far.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LinkState {
    next_page: u64,
    /// Cumulative i-cache-set load; used as a tie-break so different
    /// segments' spill lines spread over different sets.
    set_load: [u32; SET_FOLD],
}

impl LinkState {
    /// The in-page line slot for a function of `lines` cache lines that
    /// minimizes the peak per-set load **within the segment being defined**
    /// (`local_load`), breaking ties on the layout-wide load.
    ///
    /// Balancing per segment — not globally — matters: a linker packs each
    /// module's functions contiguously, so *every* module covers the cache
    /// sets near-uniformly on its own. A query executes a subset of the
    /// segment vocabulary; only per-segment uniformity guarantees that any
    /// such subset is conflict-free whenever its total footprint fits.
    /// Globally-balanced placement looks uniform over the whole text
    /// section but leaves individual subsets clustered on hot sets, which
    /// thrash every row even though the working set fits overall.
    fn balanced_slot(&mut self, local_load: &mut [u32; SET_FOLD], lines: u64) -> u64 {
        let max_slot = (PAGE_BYTES - FUNC_BYTES as u64) / 64; // 51
        let mut best = (u32::MAX, u64::MAX, u64::MAX, 0u64);
        for slot in 0..=max_slot {
            let mut peak = 0u32;
            let mut total = 0u64;
            let mut global = 0u64;
            for k in 0..lines {
                let set = ((slot + k) % SET_FOLD as u64) as usize;
                let load = local_load[set] + 1;
                peak = peak.max(load);
                total += load as u64;
                global += self.set_load[set] as u64;
            }
            // Ranked by (local peak, local total, global total); first wins.
            if (peak, total, global) < (best.0, best.1, best.2) {
                best = (peak, total, global, slot);
            }
        }
        let slot = best.3;
        for k in 0..lines {
            let set = ((slot + k) % SET_FOLD as u64) as usize;
            local_load[set] += 1;
            self.set_load[set] += 1;
        }
        slot
    }

    /// Lay out segment `name` of `bytes` bytes after everything placed so
    /// far, advancing the state past it. A pure function of
    /// `(self, name, bytes)` — which is what lets [`LinkMemo`] share the
    /// result.
    fn link(&mut self, name: &str, bytes: usize) -> SegmentCode {
        let mut functions = Vec::new();
        let mut sites = Vec::new();
        let mut remaining = bytes;
        let mut local_load = [0u32; SET_FOLD];
        while remaining > 0 {
            let len = remaining.min(FUNC_BYTES) as u32;
            let page = CODE_BASE + self.next_page * PAGE_BYTES;
            self.next_page += 1;
            // Set-balanced 64-byte-aligned in-page offset (see balanced_slot).
            let slot = self.balanced_slot(&mut local_load, (len as u64).div_ceil(64));
            let base = page + slot * 64;
            for off in (0..len as usize).step_by(BRANCH_SITE_STRIDE) {
                let addr = base + off as u64 + 16;
                let kind = match mix(addr) % 10 {
                    0..=5 => SiteKind::Biased,
                    6..=8 => SiteKind::Mixed,
                    _ => SiteKind::Loop,
                };
                sites.push((addr, kind));
            }
            functions.push((base, len));
            remaining -= len as usize;
        }
        SegmentCode {
            heat_id: crate::heat::segment_id(name),
            instructions: functions.iter().map(|&(_, len)| len as u64 / 4).sum(),
            lines: std::array::from_fn(|_| OnceLock::new()),
            name: name.to_string(),
            bytes,
            functions,
            sites,
        }
    }

    /// Hash of the whole memo key `(self, name, bytes)`.
    fn link_key(&self, name: &str, bytes: usize) -> u64 {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let fold = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
        let mut h = fold(self.next_page, bytes as u64);
        for pair in self.set_load.chunks_exact(2) {
            h = fold(h, u64::from(pair[0]) << 32 | u64::from(pair[1]));
        }
        for chunk in name.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = fold(h, u64::from_le_bytes(word));
        }
        mix(h ^ name.len() as u64)
    }
}

/// One memoized [`LinkState::link`]: the state it started from (with the
/// segment's name and size, the whole key), the segment, the state after.
struct Linked {
    before: LinkState,
    seg: SegmentRef,
    after: LinkState,
}

/// Most entries a [`LinkMemo`] holds; past it, segments are linked without
/// being remembered. A process links a few dozen distinct
/// (state, segment) pairs per plan shape it ever builds.
const LINK_MEMO_CAP: usize = 4096;

/// Link once per process: the operator vocabulary is fixed, so the queries
/// of a process re-define the same few segments from the same few states.
/// The memo maps the *whole* input of [`LinkState::link`] to its result, so
/// a layout that hits takes the shared [`SegmentRef`] — line tables
/// included — and the successor state, and lands exactly where linking
/// again would have put it. (Keying on the name alone would not do: a
/// layout's addresses depend on its definition order.)
struct LinkMemo {
    /// Keyed by [`LinkState::link_key`]; an entry answers only for the
    /// exact key it stores, so a hash collision is a miss.
    entries: Mutex<U64Map<Linked>>,
}

/// The process-wide memo behind [`CodeLayout::define`].
static LINK_MEMO: LinkMemo = LinkMemo::new();

impl LinkMemo {
    const fn new() -> Self {
        LinkMemo {
            entries: Mutex::new(HashMap::with_hasher(BuildHasherDefault::new())),
        }
    }

    /// The entries. Nothing that can panic runs under the lock and every
    /// update is one `HashMap` insertion, so a poisoned lock still guards a
    /// valid map: recover it rather than wedge every later query.
    fn lock(&self) -> MutexGuard<'_, U64Map<Linked>> {
        self.entries.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Link `name` after `state` — from the memo when this exact link was
    /// done before — and advance `state` past it.
    fn link(&self, state: &mut LinkState, name: &str, bytes: usize) -> SegmentRef {
        let key = state.link_key(name, bytes);
        if let Some(hit) = self.lock().get(&key) {
            if hit.before == *state && hit.seg.bytes == bytes && hit.seg.name == name {
                *state = hit.after.clone();
                return Arc::clone(&hit.seg);
            }
        }
        let before = state.clone();
        let seg = Arc::new(state.link(name, bytes));
        let mut entries = self.lock();
        if entries.len() < LINK_MEMO_CAP {
            // A concurrent linker of the same key may have won the race
            // (or a colliding key sits here): the resident entry stays.
            entries.entry(key).or_insert_with(|| Linked {
                before,
                seg: Arc::clone(&seg),
                after: state.clone(),
            });
        }
        seg
    }
}

/// Allocates segments within a simulated text section.
///
/// `Clone` is shallow where it matters: the clone shares the original's
/// [`SegmentRef`]s, so every clone of a pre-linked layout hands out the
/// *same* addresses for the same segment names — the way every query in a
/// server shares one binary's text section. Independent layouts that define
/// the same segments in the same order share them too (see `LinkMemo`).
#[derive(Debug, Clone)]
pub struct CodeLayout {
    /// Defined segments in definition order. A layout holds a few dozen at
    /// most, so lookup by name is a scan.
    segments: Vec<SegmentRef>,
    state: LinkState,
}

impl Default for CodeLayout {
    fn default() -> Self {
        Self::new()
    }
}

impl CodeLayout {
    /// An empty layout.
    pub fn new() -> Self {
        CodeLayout {
            segments: Vec::new(),
            state: LinkState {
                next_page: 0,
                set_load: [0; SET_FOLD],
            },
        }
    }

    /// Define (or fetch the previously defined) segment for `spec`.
    /// Re-defining a name with a different size is a bug and panics.
    pub fn define(&mut self, spec: &SegmentSpec) -> SegmentRef {
        self.define_segment(&spec.name, spec.bytes)
    }

    /// [`CodeLayout::define`] from a borrowed name.
    pub fn define_segment(&mut self, name: &str, bytes: usize) -> SegmentRef {
        self.define_with(name, bytes, |state| LINK_MEMO.link(state, name, bytes))
    }

    /// The one body of `define`: fetch `name` if this layout has it, else
    /// place it with `link` and remember it.
    fn define_with(
        &mut self,
        name: &str,
        bytes: usize,
        link: impl FnOnce(&mut LinkState) -> SegmentRef,
    ) -> SegmentRef {
        if let Some(existing) = self.get_ref(name) {
            assert_eq!(
                existing.bytes, bytes,
                "segment {name:?} redefined with a different size"
            );
            return Arc::clone(existing);
        }
        let seg = link(&mut self.state);
        self.segments.push(Arc::clone(&seg));
        seg
    }

    fn get_ref(&self, name: &str) -> Option<&SegmentRef> {
        self.segments.iter().find(|s| s.name == name)
    }

    /// Every defined segment, in definition order.
    pub fn defined(&self) -> &[SegmentRef] {
        &self.segments
    }

    /// Look up a previously defined segment.
    pub fn get(&self, name: &str) -> Option<SegmentRef> {
        self.get_ref(name).cloned()
    }
}

/// Per-operator-instance executable region: shared immutable segments plus
/// a private execution count (where every branch site's pattern stands).
/// Cloning a region models the same binary text mapped by another core: the
/// addresses are shared, the execution count is private to the clone.
#[derive(Debug, Clone)]
pub struct CodeRegion {
    /// Names the (immutable) segment list: equal ids fetch the same lines
    /// and pages in the same order. Clones keep it.
    fetch_id: u64,
    segments: Arc<[SegmentRef]>,
    /// Executions so far. Every site of the region advances once per
    /// execution, so this is each site's count too.
    calls: u64,
    /// The segment list's [`SitePlan`] on the bimodal table it last ran on,
    /// fetched on the first execution there.
    plan: Option<Arc<SitePlan>>,
}

/// Next [`CodeRegion::fetch_id`]; 0 is the empty region's.
static NEXT_FETCH_ID: AtomicU64 = AtomicU64::new(1);

impl CodeRegion {
    /// Build a region over the given segments.
    pub fn new(segments: Vec<SegmentRef>) -> Self {
        CodeRegion {
            // Relaxed: the id is only ever compared for equality.
            fetch_id: NEXT_FETCH_ID.fetch_add(1, Ordering::Relaxed),
            segments: segments.into(),
            calls: 0,
            plan: None,
        }
    }

    /// An empty region (an operator with no simulated code, used in tests).
    pub fn empty() -> Self {
        CodeRegion {
            fetch_id: 0,
            segments: Arc::new([]),
            calls: 0,
            plan: None,
        }
    }

    /// Identity of this region's instruction-fetch sequence (see
    /// [`crate::Machine::exec_region`]'s walk memo).
    pub(crate) fn fetch_id(&self) -> u64 {
        self.fetch_id
    }

    /// The segment list itself, for holders that outlive this region.
    pub(crate) fn shared_segments(&self) -> &Arc<[SegmentRef]> {
        &self.segments
    }

    /// The segments making up this region.
    pub fn segments(&self) -> &[SegmentRef] {
        &self.segments
    }

    /// Count one more execution; the number of executions before it.
    pub(crate) fn next_call(&mut self) -> u64 {
        self.calls += 1;
        self.calls - 1
    }

    /// This region's [`SitePlan`] on a bimodal table of `mask + 1` counters.
    pub(crate) fn site_plan(&mut self, mask: u64) -> &SitePlan {
        if self.plan.as_ref().is_none_or(|plan| plan.mask() != mask) {
            self.plan = Some(site_plan(&self.segments, mask));
        }
        self.plan.as_deref().expect("just planned")
    }

    /// Total footprint bytes, counting shared segments once.
    pub fn footprint_bytes(&self) -> usize {
        let mut seen: Vec<&str> = Vec::new();
        let mut total = 0;
        for s in self.segments.iter() {
            if !seen.contains(&s.name.as_str()) {
                seen.push(&s.name);
                total += s.bytes;
            }
        }
        total
    }

    /// Number of distinct 4 KB pages the region's functions touch.
    pub fn pages(&self) -> usize {
        let mut pages: Vec<u64> = self
            .segments
            .iter()
            .flat_map(|s| s.functions.iter().map(|&(b, _)| b / PAGE_BYTES))
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn define_splits_into_small_functions() {
        let mut l = CodeLayout::new();
        let seg = l.define(&SegmentSpec::new("scan", 9000));
        assert_eq!(seg.bytes, 9000);
        assert_eq!(seg.functions.len(), 9000usize.div_ceil(FUNC_BYTES));
        assert!(seg
            .functions
            .iter()
            .all(|&(_, len)| len as usize <= FUNC_BYTES));
        let total: usize = seg.functions.iter().map(|&(_, l)| l as usize).sum();
        assert_eq!(total, 9000);
    }

    #[test]
    fn functions_live_on_distinct_pages() {
        let mut l = CodeLayout::new();
        let seg = l.define(&SegmentSpec::new("scan", 9000));
        let mut pages: Vec<u64> = seg.functions.iter().map(|&(b, _)| b / PAGE_BYTES).collect();
        pages.sort_unstable();
        pages.dedup();
        assert_eq!(pages.len(), seg.functions.len());
    }

    #[test]
    fn functions_fit_within_their_page() {
        let mut l = CodeLayout::new();
        let seg = l.define(&SegmentSpec::new("x", 5000));
        for &(base, len) in &seg.functions {
            assert_eq!(base % 64, 0, "function base must be line-aligned");
            assert_eq!(base / PAGE_BYTES, (base + len as u64 - 1) / PAGE_BYTES);
        }
    }

    #[test]
    fn redefinition_returns_same_segment() {
        let mut l = CodeLayout::new();
        let a = l.define(&SegmentSpec::new("expr", 1500));
        let b = l.define(&SegmentSpec::new("expr", 1500));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "redefined")]
    fn redefinition_with_new_size_panics() {
        let mut l = CodeLayout::new();
        l.define(&SegmentSpec::new("expr", 1500));
        l.define(&SegmentSpec::new("expr", 2000));
    }

    #[test]
    fn region_footprint_counts_shared_once() {
        let mut l = CodeLayout::new();
        let common = l.define(&SegmentSpec::new("common", 800));
        let scan = l.define(&SegmentSpec::new("scan", 8200));
        let r = CodeRegion::new(vec![common.clone(), scan, common]);
        assert_eq!(r.footprint_bytes(), 9000);
        assert!(r.pages() >= 11);
    }

    #[test]
    fn branch_sites_every_stride() {
        let mut l = CodeLayout::new();
        let seg = l.define(&SegmentSpec::new("s", 2000));
        // 2000 bytes => functions of 832+832+336 => 4+4+2 sites.
        assert_eq!(seg.sites.len(), 10);
    }

    #[test]
    fn site_kind_patterns_are_deterministic_and_biased() {
        let taken = |k: SiteKind| (0..640u64).filter(|&c| k.outcome(c)).count();
        assert_eq!(taken(SiteKind::Biased), 630); // 1 in 64 not taken
        assert_eq!(taken(SiteKind::Loop), 560); // 7 in 8 taken
        assert_eq!(taken(SiteKind::Mixed), 427); // 2 of 3 taken (ceil for 640)
    }

    /// SplitMix64 stream over the layout's own finalizer.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(*state)
    }

    /// Define `seq` twice from scratch — once through `memo`, once always
    /// linking — and require the same segments and the same successor state
    /// after every step. Returns how many definitions it made.
    fn check_sequence(memo: &LinkMemo, seq: &[(&str, usize)]) -> usize {
        let mut memoized = CodeLayout::new();
        let mut reference = CodeLayout::new();
        for &(name, bytes) in seq {
            let a = memoized.define_with(name, bytes, |st| memo.link(st, name, bytes));
            let b = reference.define_with(name, bytes, |st| Arc::new(st.link(name, bytes)));
            assert_eq!((&a.name, a.bytes), (&b.name, b.bytes));
            assert_eq!(a.functions, b.functions, "{name} in {seq:?}");
            assert_eq!(a.sites, b.sites, "{name} in {seq:?}");
            assert_eq!(a.instructions(), b.instructions());
            assert_eq!(a.heat_id(), b.heat_id());
            assert_eq!(a.lines(64), b.lines(64));
            assert_eq!(memoized.state, reference.state, "after {name} in {seq:?}");
        }
        memoized.segments.len()
    }

    /// Random define sequences over a small vocabulary, so states repeat.
    /// Two names come in two sizes (fixed within a sequence): the size is
    /// part of the key.
    fn random_sequences(seed: u64, count: usize) -> Vec<Vec<(&'static str, usize)>> {
        const POOL: [(&str, [usize; 2]); 10] = [
            ("common", [800, 800]),
            ("expr", [1500, 1500]),
            ("scan", [8200, 8200]),
            ("pred", [2700, 900]),
            ("sort", [13_200, 13_200]),
            ("agg", [200, 200]),
            ("sum", [200, 2300]),
            ("probe", [6000, 6000]),
            ("buffer", [700, 700]),
            ("dispatch", [1000, 1000]),
        ];
        let mut rng = seed;
        (0..count)
            .map(|_| {
                let variant = (next(&mut rng) % 2) as usize;
                let len = 1 + next(&mut rng) % 12;
                (0..len)
                    .map(|_| {
                        let (name, sizes) = POOL[(next(&mut rng) % POOL.len() as u64) as usize];
                        (name, sizes[variant])
                    })
                    .collect()
            })
            .collect()
    }

    /// The definition orders real builds produce (`FootprintModel::prelinked`
    /// and the executor builds of the benchmark's nine-query mix), kept
    /// current by `tests/plancache.rs` in the root package.
    fn recorded_sequences() -> Vec<Vec<(&'static str, usize)>> {
        include_str!("../tests/fixtures/define_orders.txt")
            .lines()
            .map(|line| {
                let (_label, defs) = line.split_once(": ").expect("label: defs");
                defs.split(' ')
                    .map(|d| {
                        let (name, bytes) = d.split_once('=').expect("name=bytes");
                        (name, bytes.parse().expect("bytes"))
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn memoized_define_equals_always_linking() {
        let memo = LinkMemo::new();
        let mut sequences = random_sequences(0x5EED, 1500);
        let recorded = recorded_sequences();
        assert!(recorded.len() >= 10, "prelinked + the nine-query mix");
        sequences.extend(recorded);
        let mut defined = 0;
        // Twice: the second pass finds every link remembered.
        for _ in 0..2 {
            for seq in &sequences {
                defined += check_sequence(&memo, seq);
            }
        }
        let remembered = memo.lock().len();
        assert!(
            remembered < LINK_MEMO_CAP,
            "{remembered}: the bound never engaged"
        );
        assert!(
            remembered * 4 < defined,
            "{remembered} links remembered for {defined} definitions: states did not repeat"
        );
    }

    #[test]
    fn memoized_define_equals_always_linking_from_four_threads() {
        let memo = LinkMemo::new();
        let sequences = random_sequences(0xC0FFEE, 400);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                // Every thread runs the same sequences, so they race to
                // link and to remember the same keys.
                scope.spawn(|| {
                    start.wait();
                    for seq in &sequences {
                        check_sequence(&memo, seq);
                    }
                });
            }
        });
    }

    #[test]
    fn memo_stops_growing_at_its_cap() {
        let memo = LinkMemo::new();
        let mut rng = 0xCA9u64;
        for i in 0..10_000 {
            let name = format!("cap{:x}_{i}", next(&mut rng));
            let bytes = 64 + (next(&mut rng) % 4000) as usize;
            check_sequence(&memo, &[("common", 800), (&name, bytes)]);
            assert!(memo.lock().len() <= LINK_MEMO_CAP);
        }
        assert_eq!(memo.lock().len(), LINK_MEMO_CAP);
    }

    #[test]
    fn poisoned_memo_lock_is_recovered() {
        let memo = LinkMemo::new();
        check_sequence(&memo, &[("common", 800), ("scan", 8200)]);
        let holder = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = memo.entries.lock().expect("first holder");
                    panic!("die holding the memo lock");
                })
                .join()
        });
        assert!(holder.is_err() && memo.entries.is_poisoned());
        // Hits and inserts both still work.
        check_sequence(&memo, &[("common", 800), ("scan", 8200), ("agg", 200)]);
        assert_eq!(memo.lock().len(), 3);
    }

    #[test]
    fn redefinition_panic_does_not_hold_the_memo_lock() {
        let caught = std::panic::catch_unwind(|| {
            let mut l = CodeLayout::new();
            l.define(&SegmentSpec::new("expr", 1500));
            l.define(&SegmentSpec::new("expr", 2000));
        });
        assert!(caught.is_err());
        assert!(!LINK_MEMO.entries.is_poisoned());
        let mut l = CodeLayout::new();
        assert_eq!(l.define(&SegmentSpec::new("expr", 2000)).bytes, 2000);
    }

    #[test]
    fn independent_layouts_share_equal_links() {
        let build = || {
            let mut l = CodeLayout::new();
            l.define(&SegmentSpec::new("shared_a", 3000));
            l.define(&SegmentSpec::new("shared_b", 900))
        };
        assert!(Arc::ptr_eq(&build(), &build()));
        // Same name, different history: a different link.
        let mut other = CodeLayout::new();
        let alone = other.define(&SegmentSpec::new("shared_b", 900));
        assert_ne!(alone.functions, build().functions);
    }

    #[test]
    fn layout_is_deterministic() {
        let build = || {
            let mut l = CodeLayout::new();
            let s = l.define(&SegmentSpec::new("a", 3000));
            s.functions.clone()
        };
        assert_eq!(build(), build());
    }
}

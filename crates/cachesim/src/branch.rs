//! Branch predictors with finite tables.
//!
//! The paper (§4) attributes mispredictions to two effects of long pipelines:
//! the branch-history hardware has finite capacity (512–4 K branches), and
//! interleaving operators mixes the branching patterns of shared code. A
//! gshare predictor captures both — distinct branches alias in one table and
//! a *global* history register is polluted when parent and child interleave
//! per tuple. A bimodal (per-address) predictor is provided for ablation.

use crate::hash::U64Map;
use crate::layout::{CodeRegion, SegmentRef, SiteKind};
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Mutex, MutexGuard};

/// Which predictor to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Per-address two-bit counters.
    Bimodal,
    /// Global-history-xor-address two-bit counters (default).
    Gshare,
}

/// Common predictor interface: predict, then update with the real outcome.
pub trait BranchPredictor {
    /// Record one dynamic branch; returns `true` when the prediction was
    /// correct.
    fn predict_and_update(&mut self, site: u64, taken: bool) -> bool;

    /// Dynamic branches seen.
    fn branches(&self) -> u64;

    /// Mispredictions seen.
    fn mispredictions(&self) -> u64;
}

fn counter_predict(c: u8) -> bool {
    c >= 2
}

fn counter_update(c: u8, taken: bool) -> u8 {
    std::hint::select_unpredictable(taken, (c + 1).min(3), c.saturating_sub(1))
}

/// The counter of `site` in a table of `mask + 1` entries. Branch sites are
/// 4-byte aligned at best; drop low bits then fold.
fn site_slot(site: u64, mask: u64) -> usize {
    (((site >> 2) ^ (site >> 14)) & mask) as usize
}

/// Two-bit saturating counters indexed by branch address, bit-sliced: per
/// 64 counters, one word of high bits and one of low bits.
#[derive(Debug, Clone)]
pub struct BimodalPredictor {
    /// `(high, low)` bitplanes of the counters, 64 to a word.
    planes: Vec<(u64, u64)>,
    mask: u64,
    branches: u64,
    mispredictions: u64,
}

impl BimodalPredictor {
    /// A predictor with `entries` two-bit counters (power of two),
    /// initialized weakly-taken.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two());
        BimodalPredictor {
            planes: vec![(u64::MAX, 0); entries.div_ceil(64)],
            mask: (entries - 1) as u64,
            branches: 0,
            mispredictions: 0,
        }
    }

    /// Update the counters of `word` whose bits are set in `taken` or
    /// `not_taken` (disjoint) with those outcomes, all at once; how many
    /// mispredicted. A counter predicts taken iff its high bit is set.
    #[inline(always)]
    fn update(&mut self, word: usize, taken: u64, not_taken: u64) -> u64 {
        let (h, l) = self.planes[word];
        let keep = !(taken | not_taken);
        self.planes[word] = (
            keep & h | taken & (h | l) | not_taken & h & l,
            keep & l | taken & (h | !l) | not_taken & h & !l,
        );
        u64::from((taken & !h | not_taken & h).count_ones())
    }

    /// Fire every site of a region's call number `calls` (see
    /// [`SitePlan`]): one branch-free update per word of each layer.
    fn run_plan(&mut self, plan: &SitePlan, calls: u64) {
        debug_assert_eq!(plan.mask, self.mask);
        // All ones for the kinds whose sites are taken on this call.
        let [f0, f1, f2] = SiteKind::ALL.map(|kind| 0u64.wrapping_sub(kind.outcome(calls).into()));
        self.branches += plan.sites;
        let mut missed = 0;
        for &(word, [k0, k1, k2]) in &*plan.words {
            let taken = k0 & f0 | k1 & f1 | k2 & f2;
            missed += self.update(word as usize, taken, (k0 | k1 | k2) ^ taken);
        }
        self.mispredictions += missed;
    }
}

impl BranchPredictor for BimodalPredictor {
    fn predict_and_update(&mut self, site: u64, taken: bool) -> bool {
        self.branches += 1;
        let slot = site_slot(site, self.mask);
        let bit = 1 << (slot & 63);
        let (t, n) = if taken { (bit, 0) } else { (0, bit) };
        let wrong = self.update(slot >> 6, t, n);
        self.mispredictions += wrong;
        wrong == 0
    }

    fn branches(&self) -> u64 {
        self.branches
    }

    fn mispredictions(&self) -> u64 {
        self.mispredictions
    }
}

/// Gshare: two-bit counters indexed by `address ⊕ global history`.
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    table: Vec<u8>,
    mask: u64,
    history: u64,
    history_mask: u64,
    branches: u64,
    mispredictions: u64,
}

impl GsharePredictor {
    /// A gshare predictor with `entries` counters and `history_bits` of
    /// global history.
    pub fn new(entries: usize, history_bits: u32) -> Self {
        assert!(entries.is_power_of_two());
        GsharePredictor {
            table: vec![2; entries],
            mask: (entries - 1) as u64,
            history: 0,
            history_mask: (1u64 << history_bits) - 1,
            branches: 0,
            mispredictions: 0,
        }
    }
}

impl BranchPredictor for GsharePredictor {
    fn predict_and_update(&mut self, site: u64, taken: bool) -> bool {
        self.branches += 1;
        let idx = site_slot(site, self.mask) ^ (self.history & self.mask) as usize;
        let predicted = counter_predict(self.table[idx]);
        self.table[idx] = counter_update(self.table[idx], taken);
        self.history = ((self.history << 1) | taken as u64) & self.history_mask;
        let correct = predicted == taken;
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

/// How one call of a region fires its static branch sites on a bimodal
/// table of `mask + 1` counters. A pure function of the region's segment
/// list and the mask; DESIGN.md §18 "Branch sites" has the argument.
///
/// Every site of a region advances once per call, so on call `c` a site of
/// period `p` is not taken iff `c % p == p - 1`. Counters are independent
/// of each other, so only the order of the touches *of one slot* matters:
/// layer `n` holds the `n`-th touch of every slot the region touches at
/// least `n` times, and the layers run in order.
#[derive(Debug)]
pub(crate) struct SitePlan {
    mask: u64,
    /// Sites one call fires.
    sites: u64,
    /// Layer after layer, per 64-slot word of the table that the layer
    /// touches: the word's index and, per [`SiteKind`], the slots in it
    /// whose touch in this layer is a site of that kind.
    words: Box<[(u32, [u64; 3])]>,
}

impl SitePlan {
    /// The mask of the table this plan is for.
    pub(crate) fn mask(&self) -> u64 {
        self.mask
    }

    fn new(segments: &[SegmentRef], mask: u64) -> Self {
        let mut sites = 0;
        let mut touches: HashMap<u32, usize> = HashMap::new();
        let mut layers: Vec<BTreeMap<u32, [u64; 3]>> = Vec::new();
        for &(addr, kind) in segments.iter().flat_map(|seg| &seg.sites) {
            let slot = u32::try_from(site_slot(addr, mask)).expect("at most 2^32 counters");
            let layer = touches.entry(slot).or_default();
            if *layer == layers.len() {
                layers.push(BTreeMap::new());
            }
            layers[*layer].entry(slot >> 6).or_default()[kind as usize] |= 1 << (slot & 63);
            *layer += 1;
            sites += 1;
        }
        SitePlan {
            mask,
            sites,
            words: layers.into_iter().flatten().collect(),
        }
    }
}

/// One memoized [`SitePlan`] and the segment list it was planned for. The
/// list is the key: holding its `Arc`s keeps every segment's address from
/// being reused under it.
struct Planned {
    segments: Arc<[SegmentRef]>,
    plan: Arc<SitePlan>,
}

/// Most entries [`PLAN_MEMO`] holds; past it, plans are built without being
/// remembered. A process builds a few dozen distinct segment lists per plan
/// shape it ever runs.
const PLAN_MEMO_CAP: usize = 4096;

/// Plan once per process: regions are built afresh for every query (every
/// prepared request), over the same few segment lists. Keyed by a hash of
/// the segment addresses and the mask; an entry answers only for the exact
/// list and mask it stores, so a collision is a miss.
static PLAN_MEMO: Mutex<U64Map<Planned>> =
    Mutex::new(HashMap::with_hasher(BuildHasherDefault::new()));

/// The entries. Nothing that can panic runs under the lock and every update
/// is one insertion, so a poisoned lock still guards a valid map.
fn plan_memo() -> MutexGuard<'static, U64Map<Planned>> {
    PLAN_MEMO.lock().unwrap_or_else(|p| p.into_inner())
}

/// The [`SitePlan`] of `segments` on a table of `mask + 1` counters.
pub(crate) fn site_plan(segments: &Arc<[SegmentRef]>, mask: u64) -> Arc<SitePlan> {
    let same = |planned: &Planned| {
        planned.plan.mask == mask
            && planned.segments.len() == segments.len()
            && (planned.segments.iter().zip(segments.iter())).all(|(a, b)| Arc::ptr_eq(a, b))
    };
    let key = segments.iter().fold(mask, |h, seg| {
        (h.rotate_left(5) ^ Arc::as_ptr(seg) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    });
    if let Some(hit) = plan_memo().get(&key).filter(|p| same(p)) {
        return Arc::clone(&hit.plan);
    }
    let plan = Arc::new(SitePlan::new(segments, mask));
    let mut entries = plan_memo();
    if entries.len() < PLAN_MEMO_CAP {
        entries.entry(key).or_insert_with(|| Planned {
            segments: Arc::clone(segments),
            plan: Arc::clone(&plan),
        });
    }
    plan
}

/// The machine's predictor. An enum rather than a boxed trait object so a
/// region's whole run of branch sites dispatches once
/// and the per-site update inlines.
#[derive(Debug, Clone)]
pub enum Predictor {
    /// Per-address counters.
    Bimodal(BimodalPredictor),
    /// Global-history-xor-address counters.
    Gshare(GsharePredictor),
}

impl Predictor {
    /// Build the predictor a [`crate::BranchConfig`] describes.
    pub fn new(cfg: &crate::BranchConfig) -> Self {
        match cfg.kind {
            PredictorKind::Bimodal => Predictor::Bimodal(BimodalPredictor::new(cfg.table_entries)),
            PredictorKind::Gshare => {
                Predictor::Gshare(GsharePredictor::new(cfg.table_entries, cfg.history_bits))
            }
        }
    }

    /// Fire every static site of a region once, in order, each with the
    /// next outcome of its deterministic pattern. A bimodal table takes
    /// the region's [`SitePlan`]; gshare, whose index depends on every
    /// outcome before, fires the sites one by one.
    pub(crate) fn run_region(&mut self, region: &mut CodeRegion) {
        let calls = region.next_call();
        match self {
            Predictor::Bimodal(p) => p.run_plan(region.site_plan(p.mask), calls),
            Predictor::Gshare(p) => {
                let taken = SiteKind::ALL.map(|kind| kind.outcome(calls));
                for seg in region.segments() {
                    for &(addr, kind) in &seg.sites {
                        p.predict_and_update(addr, taken[kind as usize]);
                    }
                }
            }
        }
    }
}

impl BranchPredictor for Predictor {
    fn predict_and_update(&mut self, site: u64, taken: bool) -> bool {
        match self {
            Predictor::Bimodal(p) => p.predict_and_update(site, taken),
            Predictor::Gshare(p) => p.predict_and_update(site, taken),
        }
    }

    fn branches(&self) -> u64 {
        match self {
            Predictor::Bimodal(p) => p.branches(),
            Predictor::Gshare(p) => p.branches(),
        }
    }

    fn mispredictions(&self) -> u64 {
        match self {
            Predictor::Bimodal(p) => p.mispredictions(),
            Predictor::Gshare(p) => p.mispredictions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_learns_a_biased_branch() {
        let mut p = BimodalPredictor::new(64);
        for _ in 0..100 {
            p.predict_and_update(0x400, true);
        }
        // After warmup, always-taken is always predicted.
        assert!(p.mispredictions() <= 1);
    }

    #[test]
    fn bimodal_alternating_branch_mispredicts_heavily() {
        let mut p = BimodalPredictor::new(64);
        let mut taken = false;
        for _ in 0..100 {
            taken = !taken;
            p.predict_and_update(0x400, taken);
        }
        // A 2-bit counter cannot track strict alternation.
        assert!(p.mispredictions() >= 40, "got {}", p.mispredictions());
    }

    #[test]
    fn gshare_learns_alternation_via_history() {
        let mut p = GsharePredictor::new(1024, 8);
        let mut taken = false;
        for _ in 0..500 {
            taken = !taken;
            p.predict_and_update(0x400, taken);
        }
        // History disambiguates the two phases; late-run accuracy is high.
        assert!(p.mispredictions() < 50, "got {}", p.mispredictions());
    }

    #[test]
    fn gshare_interleaving_two_patterns_hurts() {
        // One branch site shared by two "operators" with opposite biases,
        // mirroring the paper's shared-function observation (§4).
        // Site A alternates (perfectly learnable through global history);
        // site B is data-dependent and effectively random. Interleaving
        // injects B's random outcomes into A's history, destroying A's
        // predictability; batched execution keeps A near-perfect.
        let noisy = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 0;
        let run = |interleaved: bool| {
            let mut p = GsharePredictor::new(256, 8);
            if interleaved {
                for i in 0..2000u64 {
                    p.predict_and_update(0x400, i % 2 == 0);
                    p.predict_and_update(0x800, noisy(i));
                }
            } else {
                for i in 0..2000u64 {
                    p.predict_and_update(0x400, i % 2 == 0);
                }
                for i in 0..2000u64 {
                    p.predict_and_update(0x800, noisy(i));
                }
            }
            p.mispredictions()
        };
        assert!(
            run(true) > run(false),
            "interleaved {} vs batched {}",
            run(true),
            run(false)
        );
    }

    #[test]
    fn counters_track_totals() {
        let mut p = BimodalPredictor::new(16);
        for i in 0..10u64 {
            p.predict_and_update(i * 4, i % 2 == 0);
        }
        assert_eq!(p.branches(), 10);
        assert!(p.mispredictions() <= 10);
    }

    #[test]
    fn predictor_enum_dispatches() {
        let cfg = crate::BranchConfig {
            kind: PredictorKind::Bimodal,
            table_entries: 64,
            history_bits: 8,
        };
        let mut p = Predictor::new(&cfg);
        assert!(matches!(p, Predictor::Bimodal(_)));
        p.predict_and_update(0, true);
        assert_eq!(p.branches(), 1);
    }

    #[test]
    fn site_plans_are_shared_per_segment_list_and_mask() {
        let mut layout = crate::CodeLayout::new();
        let a = layout.define(&crate::SegmentSpec::new("plan_a", 3000));
        let b = layout.define(&crate::SegmentSpec::new("plan_b", 2000));
        let list = |segs: &[&SegmentRef]| -> Arc<[SegmentRef]> {
            segs.iter().map(|&s| Arc::clone(s)).collect()
        };
        // Separately built lists of the same segments share one plan.
        let ab = site_plan(&list(&[&a, &b]), 511);
        assert!(Arc::ptr_eq(&ab, &site_plan(&list(&[&a, &b]), 511)));
        assert_eq!(ab.sites as usize, a.sites.len() + b.sites.len());
        // Order and table size are part of the key.
        assert!(!Arc::ptr_eq(&ab, &site_plan(&list(&[&b, &a]), 511)));
        assert_eq!(site_plan(&list(&[&a, &b]), 63).mask(), 63);
        // A segment listed twice touches each slot twice as often: every
        // touch is in some layer, and layers 2j and 2j + 1 cover the words
        // of the segment's own layer j.
        let twice = site_plan(&list(&[&a, &a]), 511);
        let touched: u32 = (twice.words.iter().flat_map(|(_, kinds)| kinds))
            .map(|m| m.count_ones())
            .sum();
        assert_eq!(touched as usize, 2 * a.sites.len());
        assert_eq!(
            twice.words.len(),
            2 * site_plan(&list(&[&a]), 511).words.len()
        );
    }
}

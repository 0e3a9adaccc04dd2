//! Instruction footprints per operator, mirroring the paper's Table 2.
//!
//! Footprints are decomposed into named *segments*. Three segments are
//! shared across operator kinds, modelling the paper's observation that
//! "different modules share a fair number of functions": `common_rt`
//! (tuple-slot access, memory management), `expr_eval` (expression
//! evaluation for scan predicates, join quals and AVG), and `numeric_rt`
//! (the numeric/datum arithmetic library used by join key handling and the
//! computed aggregates SUM/AVG — but not by simple scan predicates).
//! Combined footprints count shared segments once (§6.1). The decomposition
//! is the unique family (up to small slack) that makes every published
//! grouping decision come out right at the 16 KB trace-cache capacity:
//! Query 2 and the Figure 15-17 join groups fit, while Query 1's and
//! TPC-H Q6's scan+aggregate pairs overflow.
//!
//! | Module (paper Table 2)      | Total  | Segments                                          |
//! |-----------------------------|--------|---------------------------------------------------|
//! | Scan, no predicates         |  9.0 K | common + scan_core                                |
//! | Scan, with predicates       | 13.2 K | common + expr + scan_core + scan_pred             |
//! | IndexScan                   | 14.0 K | common + ixscan_core                              |
//! | Sort                        | 14.0 K | common + sort_core                                |
//! | NestLoop                    | 11.0 K | common + expr + numeric + nestloop_core           |
//! | Merge Join                  | 12.0 K | common + expr + numeric + mergejoin_core          |
//! | Hash Join, build            | 12.0 K | common + hash_fn + numeric + hashbuild_core       |
//! | Hash Join, probe            | 12.0 K | common + expr + hash_fn + numeric + hashprobe_core|
//! | Aggregation, base           |  1.0 K | common + agg_core                                 |
//! |   + COUNT                   | +0.9 K | agg_count                                         |
//! |   + MIN / MAX               | +1.6 K | agg_min / agg_max                                 |
//! |   + SUM                     | +2.7 K | numeric + agg_sum                                 |
//! |   + AVG                     | +6.3 K | expr + numeric + agg_avg                          |
//! | Buffer                      |  0.7 K | buffer_core (no shared code: light-weight)        |

use crate::obs::ObsId;
use crate::plan::{AggFunc, AggSpec};
use bufferdb_cachesim::layout::SegmentRef;
use bufferdb_cachesim::{CodeLayout, CodeRegion};

/// The executor's dispatch loop (`ExecProcNode` and friends): code that runs
/// between *every* pair of operators but belongs to no module, so the
/// paper's per-module footprints (Table 2) exclude it. It occupies real
/// i-cache space, which is why groups sized right at the cache capacity
/// still take some conflict misses.
pub const EXEC_DISPATCH: usize = 1000;

/// Shared segment sizes in bytes.
pub const COMMON_RT: usize = 800;
/// Expression evaluator shared segment.
pub const EXPR_EVAL: usize = 1500;
/// Numeric/datum arithmetic library shared by joins and computed aggregates.
pub const NUMERIC_RT: usize = 2500;
/// Hash-function code shared by hash build and probe.
pub const HASH_FN: usize = 1200;

const SCAN_CORE: usize = 8200;
const SCAN_PRED: usize = 2700;
const IXSCAN_CORE: usize = 13_200;
const SORT_CORE: usize = 13_200;
const NESTLOOP_CORE: usize = 6200; // + common + expr + numeric => 11 K
const MERGEJOIN_CORE: usize = 7200; // + common + expr + numeric => 12 K
const HASHBUILD_CORE: usize = 7500; // + common + hash_fn + numeric => 12 K
const HASHPROBE_CORE: usize = 6000; // + common + expr + hash_fn + numeric => 12 K
const AGG_CORE: usize = 200;
const AGG_COUNT: usize = 900;
const AGG_MINMAX: usize = 1600;
const AGG_SUM: usize = 200; // + numeric_rt => 2.7 K as listed
const AGG_AVG: usize = 2300; // + expr_eval + numeric_rt => 6.3 K as listed
const BUFFER_CORE: usize = 700;
/// Exchange gather loop: queue pop + tuple hand-off. Like the buffer
/// operator it is light-weight and shares no module code.
const EXCHANGE_CORE: usize = 800;
const PROJECT_CORE: usize = 600;
const MATERIALIZE_CORE: usize = 3000;
const FILTER_CORE: usize = 900;
const LIMIT_CORE: usize = 300;
/// Replay loop of a cached intermediate (subplan reuse cache): slot fetch
/// plus hand-off, no expression or numeric code. Deliberately tiny — the
/// whole point of splicing a [`OpKind::ReusedScan`] over a subtree is that
/// the subtree's operator stack leaves the instruction stream.
const REUSED_CORE: usize = 1200;
/// A retired segment (block-management code of a removed block engine)
/// that the pre-linked layout still places; see
/// [`FootprintModel::prelinked`].
const RESERVED_BLOCK_MGMT: usize = 1100;
/// The push executor's fused-pipeline driver: the produce loop plus the
/// inlined consume calls threading a batch through every stage of one
/// fused group. It replaces the per-operator `exec_dispatch` interleaving
/// of the pull model — a fused group executes as ONE region, so its
/// member segments plus this driver form a single combined footprint.
const PUSH_DRIVER: usize = 1300;

/// The segments operators are made of, **in name order**: an operator
/// defines its segments in this order, and a layout's addresses depend on
/// definition order, so the order is part of every committed baseline.
/// (`exec_dispatch` follows every operator's own segments and the retired
/// `block_mgmt` is only ever pre-linked; neither is listed.)
const SEGMENTS: [(&str, usize); 26] = [
    ("agg_avg", AGG_AVG),
    ("agg_core", AGG_CORE),
    ("agg_count", AGG_COUNT),
    ("agg_max", AGG_MINMAX),
    ("agg_min", AGG_MINMAX),
    ("agg_sum", AGG_SUM),
    ("buffer_core", BUFFER_CORE),
    ("common_rt", COMMON_RT),
    ("exchange_core", EXCHANGE_CORE),
    ("expr_eval", EXPR_EVAL),
    ("filter_core", FILTER_CORE),
    ("hash_fn", HASH_FN),
    ("hashbuild_core", HASHBUILD_CORE),
    ("hashprobe_core", HASHPROBE_CORE),
    ("ixscan_core", IXSCAN_CORE),
    ("limit_core", LIMIT_CORE),
    ("materialize_core", MATERIALIZE_CORE),
    ("mergejoin_core", MERGEJOIN_CORE),
    ("nestloop_core", NESTLOOP_CORE),
    ("numeric_rt", NUMERIC_RT),
    ("project_core", PROJECT_CORE),
    ("push_driver", PUSH_DRIVER),
    ("reused_core", REUSED_CORE),
    ("scan_core", SCAN_CORE),
    ("scan_pred", SCAN_PRED),
    ("sort_core", SORT_CORE),
];

/// A set of [`SEGMENTS`]: bit `i` stands for `SEGMENTS[i]`, so a union
/// counts shared segments once and ascending bits are definition order.
type SegmentSet = u32;

/// The one-segment set of `name` (compile-time lookup).
const fn seg(name: &str) -> SegmentSet {
    let name = name.as_bytes();
    let mut i = 0;
    while i < SEGMENTS.len() {
        let entry = SEGMENTS[i].0.as_bytes();
        let mut same = entry.len() == name.len();
        let mut k = 0;
        while same && k < name.len() {
            same = entry[k] == name[k];
            k += 1;
        }
        if same {
            return 1 << i;
        }
        i += 1;
    }
    panic!("not a vocabulary segment")
}

const COMMON: SegmentSet = seg("common_rt");
const EXPR: SegmentSet = seg("expr_eval");
const NUMERIC: SegmentSet = seg("numeric_rt");
const HASH: SegmentSet = seg("hash_fn");

/// The segments of `set` as `(name, bytes)`, in definition order.
fn set_segments(set: SegmentSet) -> impl Iterator<Item = (&'static str, usize)> {
    (SEGMENTS.iter().enumerate())
        .filter(move |(i, _)| set >> i & 1 == 1)
        .map(|(_, &segment)| segment)
}

/// Total bytes of `set`.
fn set_bytes(set: SegmentSet) -> usize {
    set_segments(set).map(|(_, bytes)| bytes).sum()
}

/// Operator kinds for footprint purposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Sequential scan; `with_pred` adds the predicate machinery.
    SeqScan {
        /// Whether a predicate is evaluated per row.
        with_pred: bool,
    },
    /// Index scan (range or parameterized lookup).
    IndexScan,
    /// Replay of a cached intermediate (subplan reuse cache).
    ReusedScan,
    /// Scan of a virtual `sys.*` introspection table. Owns **no** code
    /// segments: the snapshot is taken outside the simulated machine, so
    /// introspection contributes nothing to any instruction footprint and
    /// cannot evict anyone's cached code (the observer-effect-zero
    /// guarantee the `sys.*` tests assert).
    SysScan,
    /// Blocking sort.
    Sort,
    /// Nested-loop join node.
    NestLoop,
    /// Merge join node.
    MergeJoin,
    /// Hash join build phase (blocking).
    HashBuild,
    /// Hash join probe phase.
    HashProbe,
    /// Aggregation with the given functions.
    Aggregate {
        /// The aggregate functions computed.
        funcs: Vec<AggFunc>,
    },
    /// The paper's buffer operator.
    Buffer,
    /// Parallel exchange (morsel fan-out + gather).
    Exchange,
    /// Standalone projection.
    Project,
    /// Blocking materialization.
    Materialize,
    /// Standalone filter (predicate over any input).
    Filter,
    /// LIMIT n.
    Limit,
    /// A fused push-based pipeline over the member operators: the whole
    /// group executes as one code region (member segments counted once,
    /// plus the push driver), which is the push model's answer to the
    /// paper's buffering — one combined footprint instead of several
    /// interleaved ones.
    PushGroup(Vec<OpKind>),
}

impl OpKind {
    /// The footprint kind for an aggregate node's specs.
    pub fn aggregate(specs: &[AggSpec]) -> OpKind {
        OpKind::Aggregate {
            funcs: specs.iter().map(|s| s.func).collect(),
        }
    }

    /// The vocabulary segments making up this operator's footprint.
    fn segment_set(&self) -> SegmentSet {
        match self {
            OpKind::Buffer => const { seg("buffer_core") },
            OpKind::Exchange => const { seg("exchange_core") },
            OpKind::SeqScan { with_pred: false } => const { COMMON | seg("scan_core") },
            OpKind::SeqScan { with_pred: true } => {
                const { COMMON | EXPR | seg("scan_core") | seg("scan_pred") }
            }
            OpKind::IndexScan => const { COMMON | seg("ixscan_core") },
            OpKind::ReusedScan => const { COMMON | seg("reused_core") },
            OpKind::SysScan => 0,
            OpKind::Sort => const { COMMON | seg("sort_core") },
            OpKind::NestLoop => const { COMMON | EXPR | NUMERIC | seg("nestloop_core") },
            OpKind::MergeJoin => const { COMMON | EXPR | NUMERIC | seg("mergejoin_core") },
            OpKind::HashBuild => const { COMMON | HASH | NUMERIC | seg("hashbuild_core") },
            OpKind::HashProbe => const { COMMON | EXPR | HASH | NUMERIC | seg("hashprobe_core") },
            OpKind::Aggregate { funcs } => {
                let each = funcs.iter().map(|f| match f {
                    AggFunc::CountStar | AggFunc::Count => const { seg("agg_count") },
                    AggFunc::Min => const { seg("agg_min") },
                    AggFunc::Max => const { seg("agg_max") },
                    AggFunc::Sum => const { NUMERIC | seg("agg_sum") },
                    AggFunc::Avg => const { EXPR | NUMERIC | seg("agg_avg") },
                });
                each.fold(const { COMMON | seg("agg_core") }, |set, f| set | f)
            }
            OpKind::Project => const { COMMON | EXPR | seg("project_core") },
            OpKind::Materialize => const { COMMON | seg("materialize_core") },
            OpKind::Filter => const { COMMON | EXPR | seg("filter_core") },
            OpKind::Limit => const { COMMON | seg("limit_core") },
            OpKind::PushGroup(members) => {
                let members = members.iter().map(OpKind::segment_set);
                members.fold(const { seg("push_driver") }, |set, m| set | m)
            }
        }
    }

    /// Segment names + sizes making up this operator's footprint, each
    /// shared segment once, in the order the operator defines them.
    pub fn segments(&self) -> impl Iterator<Item = (&'static str, usize)> {
        set_segments(self.segment_set())
    }

    /// Footprint in bytes, shared segments counted once (Table 2's totals).
    pub fn footprint_bytes(&self) -> usize {
        set_bytes(self.segment_set())
    }
}

/// Per-query footprint model: owns the code layout and hands operators their
/// code regions and predicate branch sites.
pub struct FootprintModel {
    layout: CodeLayout,
    expr_seg: SegmentRef,
    site_counter: usize,
    /// When present, executor construction registers every operator here
    /// (pre-order) and wraps it in a profiling decorator.
    obs_labels: Option<Vec<String>>,
}

impl Default for FootprintModel {
    fn default() -> Self {
        Self::new()
    }
}

impl FootprintModel {
    /// A fresh model over an empty layout: one per executor build, so a
    /// query's addresses depend on nothing but the order its own operators
    /// define their segments in. The segments themselves are linked once
    /// per process — models that define the same segments in the same order
    /// share them (see [`CodeLayout::define`]), which is the sense in which
    /// every query runs one binary's text section.
    pub fn new() -> Self {
        Self::with_layout(CodeLayout::new())
    }

    /// A model over an existing (typically pre-linked) layout.
    ///
    /// A multi-query server clones one [`FootprintModel::prelinked`] master
    /// layout per query build so every concurrent query sees the *same*
    /// text-section addresses — they genuinely share code, and their L1i
    /// interference is real displacement, not accidental address aliasing
    /// between independently laid-out layouts.
    pub fn with_layout(mut layout: CodeLayout) -> Self {
        let expr_seg = layout.define_segment("expr_eval", EXPR_EVAL);
        FootprintModel {
            layout,
            expr_seg,
            site_counter: 0,
            obs_labels: None,
        }
    }

    /// A master layout with the entire segment vocabulary already placed.
    ///
    /// Clones of this layout define no new segments for any plan the
    /// executor can build, so concurrent per-query models derived from one
    /// master agree on every address (see [`FootprintModel::with_layout`]).
    pub fn prelinked() -> CodeLayout {
        let mut layout = CodeLayout::new();
        let mut define = |name: &str, bytes: usize| {
            layout.define_segment(name, bytes);
        };
        define("expr_eval", EXPR_EVAL);
        define("common_rt", COMMON_RT);
        define("numeric_rt", NUMERIC_RT);
        define("hash_fn", HASH_FN);
        define("scan_core", SCAN_CORE);
        define("scan_pred", SCAN_PRED);
        define("ixscan_core", IXSCAN_CORE);
        define("reused_core", REUSED_CORE);
        define("sort_core", SORT_CORE);
        define("nestloop_core", NESTLOOP_CORE);
        define("mergejoin_core", MERGEJOIN_CORE);
        define("hashbuild_core", HASHBUILD_CORE);
        define("hashprobe_core", HASHPROBE_CORE);
        define("agg_core", AGG_CORE);
        define("agg_count", AGG_COUNT);
        define("agg_min", AGG_MINMAX);
        define("agg_max", AGG_MINMAX);
        define("agg_sum", AGG_SUM);
        define("agg_avg", AGG_AVG);
        define("buffer_core", BUFFER_CORE);
        define("exchange_core", EXCHANGE_CORE);
        define("project_core", PROJECT_CORE);
        define("materialize_core", MATERIALIZE_CORE);
        define("filter_core", FILTER_CORE);
        define("limit_core", LIMIT_CORE);
        // No operator executes this segment any more, but each placement
        // advances the layout's page counter and set-load tie-break, so
        // dropping it would move `push_driver` and `exec_dispatch` — which
        // every server query executes — and with them every committed
        // server, heatmap and traffic baseline.
        define("block_mgmt", RESERVED_BLOCK_MGMT);
        define("push_driver", PUSH_DRIVER);
        define("exec_dispatch", EXEC_DISPATCH);
        layout
    }

    /// Turn on operator registration: executors built with this model are
    /// wrapped for per-operator profiling (see [`crate::obs`]).
    pub fn enable_obs(&mut self) {
        self.obs_labels = Some(Vec::new());
    }

    /// Whether operator registration is on.
    pub fn obs_enabled(&self) -> bool {
        self.obs_labels.is_some()
    }

    /// Register one operator instance under `label`, returning its id.
    /// Ids are consecutive in registration (= plan pre-order) order.
    ///
    /// # Panics
    /// If [`FootprintModel::enable_obs`] was not called first.
    pub fn obs_register(&mut self, label: String) -> ObsId {
        let labels = self.obs_labels.as_mut().expect("obs not enabled");
        labels.push(label);
        ObsId(labels.len() - 1)
    }

    /// Labels of every registered operator, in id order.
    pub fn obs_labels(&self) -> &[String] {
        self.obs_labels.as_deref().unwrap_or(&[])
    }

    /// Build a code region for an operator instance. Every region includes
    /// the executor dispatch segment on top of the operator's own Table 2
    /// footprint (see [`EXEC_DISPATCH`]).
    pub fn region_for(&mut self, kind: &OpKind) -> CodeRegion {
        let set = kind.segment_set();
        let mut segs = Vec::with_capacity(set.count_ones() as usize + 1);
        for (name, bytes) in set_segments(set) {
            segs.push(self.layout.define_segment(name, bytes));
        }
        segs.push(self.layout.define_segment("exec_dispatch", EXEC_DISPATCH));
        CodeRegion::new(segs)
    }

    /// A branch-site address inside the *shared* expression evaluator for a
    /// data-dependent predicate. Different operators receive sites in the
    /// same shared functions — mixing their branch patterns, exactly the
    /// §4 effect.
    pub fn predicate_site(&mut self) -> u64 {
        let funcs = &self.expr_seg.functions;
        let (base, _) = funcs[self.site_counter % funcs.len()];
        self.site_counter += 1;
        base + 40
    }

    /// The underlying layout (for combined-footprint queries).
    pub fn layout(&self) -> &CodeLayout {
        &self.layout
    }

    /// Combined footprint of several operator kinds, counting shared
    /// segments once — the §6.1 rule used by plan refinement.
    pub fn combined_footprint(kinds: &[OpKind]) -> usize {
        set_bytes(kinds.iter().fold(0, |set, k| set | k.segment_set()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_operators_have_footprints() {
        assert_eq!(OpKind::Filter.footprint_bytes(), 800 + 1500 + 900);
        assert_eq!(OpKind::Limit.footprint_bytes(), 800 + 300);
    }

    #[test]
    fn sys_scan_has_zero_footprint() {
        assert_eq!(OpKind::SysScan.segments().count(), 0);
        assert_eq!(OpKind::SysScan.footprint_bytes(), 0);
    }

    #[test]
    fn vocabulary_is_in_name_order() {
        assert!(SEGMENTS.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn operators_define_each_segment_once_in_name_order() {
        let names = |k: &OpKind| k.segments().map(|(n, _)| n).collect::<Vec<_>>();
        assert_eq!(
            names(&OpKind::SeqScan { with_pred: true }),
            ["common_rt", "expr_eval", "scan_core", "scan_pred"]
        );
        assert_eq!(
            names(&OpKind::HashProbe),
            [
                "common_rt",
                "expr_eval",
                "hash_fn",
                "hashprobe_core",
                "numeric_rt"
            ]
        );
        let agg = OpKind::Aggregate {
            funcs: vec![
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::CountStar,
                AggFunc::Count,
            ],
        };
        assert_eq!(
            names(&agg),
            [
                "agg_avg",
                "agg_core",
                "agg_count",
                "agg_sum",
                "common_rt",
                "expr_eval",
                "numeric_rt"
            ]
        );
        let group = OpKind::PushGroup(vec![OpKind::SeqScan { with_pred: false }, agg]);
        assert_eq!(
            names(&group),
            [
                "agg_avg",
                "agg_core",
                "agg_count",
                "agg_sum",
                "common_rt",
                "expr_eval",
                "numeric_rt",
                "push_driver",
                "scan_core"
            ]
        );
        // A region is the operator's segments, then the dispatch loop.
        let region = FootprintModel::new().region_for(&OpKind::Limit);
        let region: Vec<&str> = region.segments().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(region, ["common_rt", "limit_core", "exec_dispatch"]);
    }

    #[test]
    fn table2_totals_match_paper() {
        assert_eq!(OpKind::SeqScan { with_pred: false }.footprint_bytes(), 9000);
        assert_eq!(
            OpKind::SeqScan { with_pred: true }.footprint_bytes(),
            13_200
        );
        assert_eq!(OpKind::IndexScan.footprint_bytes(), 14_000);
        assert_eq!(OpKind::Sort.footprint_bytes(), 14_000);
        assert_eq!(OpKind::NestLoop.footprint_bytes(), 11_000);
        assert_eq!(OpKind::MergeJoin.footprint_bytes(), 12_000);
        assert_eq!(OpKind::HashBuild.footprint_bytes(), 12_000);
        assert_eq!(OpKind::HashProbe.footprint_bytes(), 12_000);
        assert_eq!(OpKind::Aggregate { funcs: vec![] }.footprint_bytes(), 1000);
        assert_eq!(OpKind::Buffer.footprint_bytes(), 700);
    }

    #[test]
    fn aggregate_functions_add_their_footprints() {
        let count = OpKind::Aggregate {
            funcs: vec![AggFunc::CountStar],
        };
        assert_eq!(count.footprint_bytes(), 1900); // base 1.0K + count 0.9K
        let sum = OpKind::Aggregate {
            funcs: vec![AggFunc::Sum],
        };
        assert_eq!(sum.footprint_bytes(), 1000 + 2700); // SUM listed as 2.7K
        let avg = OpKind::Aggregate {
            funcs: vec![AggFunc::Avg],
        };
        assert_eq!(avg.footprint_bytes(), 1000 + 6300); // AVG listed as 6.3K
    }

    #[test]
    fn duplicate_agg_funcs_counted_once_for_shared_segments() {
        // SUM + AVG share numeric_rt: 1000 + 200 + 2300 + 1500 + 2500 = 7500.
        let k = OpKind::Aggregate {
            funcs: vec![AggFunc::Sum, AggFunc::Avg],
        };
        assert_eq!(k.footprint_bytes(), 7500);
    }

    #[test]
    fn push_group_is_one_combined_footprint_plus_driver() {
        let members = vec![
            OpKind::SeqScan { with_pred: true },
            OpKind::Filter,
            OpKind::Aggregate {
                funcs: vec![AggFunc::Sum],
            },
        ];
        let group = OpKind::PushGroup(members.clone());
        // Shared segments (common_rt, expr_eval, numeric_rt) count once:
        // the group footprint is the §6.1 combined footprint of its
        // members plus the push driver — not the sum of separate totals.
        assert_eq!(
            group.footprint_bytes(),
            FootprintModel::combined_footprint(&members) + PUSH_DRIVER
        );
        let separate: usize = members.iter().map(|m| m.footprint_bytes()).sum();
        assert!(group.footprint_bytes() < separate);
    }

    #[test]
    fn paper_query1_combined_footprint_exceeds_l1i() {
        // Scan-with-pred + Agg(SUM, AVG, COUNT): §7.2 says ≈ 23 K > 16 K.
        let combined = FootprintModel::combined_footprint(&[
            OpKind::SeqScan { with_pred: true },
            OpKind::Aggregate {
                funcs: vec![AggFunc::Sum, AggFunc::Avg, AggFunc::CountStar],
            },
        ]);
        assert!(combined > 16 * 1024, "combined {combined}");
        assert!(combined < 21 * 1024, "combined {combined}");
    }

    #[test]
    fn paper_query2_combined_footprint_fits_l1i() {
        // Scan-with-pred + Agg(COUNT): §7.2 says ≈ 15 K < 16 K.
        let combined = FootprintModel::combined_footprint(&[
            OpKind::SeqScan { with_pred: true },
            OpKind::Aggregate {
                funcs: vec![AggFunc::CountStar],
            },
        ]);
        assert!(combined < 16 * 1024, "combined {combined}");
        assert!(combined > 13 * 1024, "combined {combined}");
    }

    #[test]
    fn regions_share_segments_across_operators() {
        let mut m = FootprintModel::new();
        let scan = m.region_for(&OpKind::SeqScan { with_pred: true });
        let nl = m.region_for(&OpKind::NestLoop);
        let scan_exprs: Vec<u64> = scan
            .segments()
            .iter()
            .filter(|s| s.name == "expr_eval")
            .flat_map(|s| s.functions.iter().map(|&(b, _)| b))
            .collect();
        let nl_exprs: Vec<u64> = nl
            .segments()
            .iter()
            .filter(|s| s.name == "expr_eval")
            .flat_map(|s| s.functions.iter().map(|&(b, _)| b))
            .collect();
        assert_eq!(scan_exprs, nl_exprs, "expr_eval must be the same code");
    }

    #[test]
    fn prelinked_clones_agree_on_every_address() {
        // Two models over independent clones of one pre-linked master must
        // hand out identical code addresses for every operator kind the
        // executor can build — otherwise a clone would place a "new"
        // segment at a clone-local address and alias another query's code.
        let master = FootprintModel::prelinked();
        let kinds = [
            OpKind::SeqScan { with_pred: false },
            OpKind::SeqScan { with_pred: true },
            OpKind::IndexScan,
            OpKind::ReusedScan,
            OpKind::Sort,
            OpKind::NestLoop,
            OpKind::MergeJoin,
            OpKind::HashBuild,
            OpKind::HashProbe,
            OpKind::Aggregate {
                funcs: vec![
                    AggFunc::CountStar,
                    AggFunc::Count,
                    AggFunc::Min,
                    AggFunc::Max,
                    AggFunc::Sum,
                    AggFunc::Avg,
                ],
            },
            OpKind::Buffer,
            OpKind::Exchange,
            OpKind::Project,
            OpKind::Materialize,
            OpKind::Filter,
            OpKind::Limit,
            OpKind::PushGroup(vec![
                OpKind::SeqScan { with_pred: true },
                OpKind::Filter,
                OpKind::HashProbe,
                OpKind::Aggregate {
                    funcs: vec![AggFunc::Sum, AggFunc::Avg, AggFunc::CountStar],
                },
            ]),
        ];
        let mut m1 = FootprintModel::with_layout(master.clone());
        let mut m2 = FootprintModel::with_layout(master.clone());
        for k in &kinds {
            let addrs = |m: &mut FootprintModel| -> Vec<(u64, u32)> {
                m.region_for(k)
                    .segments()
                    .iter()
                    .flat_map(|s| s.functions.iter().copied())
                    .collect()
            };
            assert_eq!(addrs(&mut m1), addrs(&mut m2), "kind {k:?}");
        }
        assert_eq!(m1.predicate_site(), m2.predicate_site());
        // The two segments every server query executes keep the addresses
        // the committed server / heatmap / traffic baselines were taken at.
        let base = |name: &str| master.get(name).expect("prelinked segment").functions[0].0;
        assert_eq!(base("push_driver"), 0x47_3880);
        assert_eq!(base("exec_dispatch"), 0x47_5440);
    }

    #[test]
    fn predicate_sites_live_in_shared_expr_code() {
        let mut m = FootprintModel::new();
        let s1 = m.predicate_site();
        let s2 = m.predicate_site();
        assert_ne!(s1, s2);
        let in_expr = |a: u64| {
            m.expr_seg
                .functions
                .iter()
                .any(|&(b, l)| a >= b && a < b + l as u64)
        };
        assert!(in_expr(s1) && in_expr(s2));
    }
}

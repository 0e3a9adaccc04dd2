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
use bufferdb_cachesim::{CodeLayout, CodeRegion, SegmentSpec};

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

    /// Segment names + sizes making up this operator's footprint.
    pub fn segments(&self) -> Vec<SegmentSpec> {
        let seg = SegmentSpec::new;
        let mut out = Vec::new();
        match self {
            OpKind::Buffer => {
                out.push(seg("buffer_core", BUFFER_CORE));
            }
            OpKind::Exchange => {
                out.push(seg("exchange_core", EXCHANGE_CORE));
            }
            OpKind::SeqScan { with_pred } => {
                out.push(seg("common_rt", COMMON_RT));
                out.push(seg("scan_core", SCAN_CORE));
                if *with_pred {
                    out.push(seg("expr_eval", EXPR_EVAL));
                    out.push(seg("scan_pred", SCAN_PRED));
                }
            }
            OpKind::IndexScan => {
                out.push(seg("common_rt", COMMON_RT));
                out.push(seg("ixscan_core", IXSCAN_CORE));
            }
            OpKind::ReusedScan => {
                out.push(seg("common_rt", COMMON_RT));
                out.push(seg("reused_core", REUSED_CORE));
            }
            OpKind::SysScan => {}
            OpKind::Sort => {
                out.push(seg("common_rt", COMMON_RT));
                out.push(seg("sort_core", SORT_CORE));
            }
            OpKind::NestLoop => {
                out.push(seg("common_rt", COMMON_RT));
                out.push(seg("expr_eval", EXPR_EVAL));
                out.push(seg("numeric_rt", NUMERIC_RT));
                out.push(seg("nestloop_core", NESTLOOP_CORE));
            }
            OpKind::MergeJoin => {
                out.push(seg("common_rt", COMMON_RT));
                out.push(seg("expr_eval", EXPR_EVAL));
                out.push(seg("numeric_rt", NUMERIC_RT));
                out.push(seg("mergejoin_core", MERGEJOIN_CORE));
            }
            OpKind::HashBuild => {
                out.push(seg("common_rt", COMMON_RT));
                out.push(seg("hash_fn", HASH_FN));
                out.push(seg("numeric_rt", NUMERIC_RT));
                out.push(seg("hashbuild_core", HASHBUILD_CORE));
            }
            OpKind::HashProbe => {
                out.push(seg("common_rt", COMMON_RT));
                out.push(seg("expr_eval", EXPR_EVAL));
                out.push(seg("hash_fn", HASH_FN));
                out.push(seg("numeric_rt", NUMERIC_RT));
                out.push(seg("hashprobe_core", HASHPROBE_CORE));
            }
            OpKind::Aggregate { funcs } => {
                out.push(seg("common_rt", COMMON_RT));
                out.push(seg("agg_core", AGG_CORE));
                for f in funcs {
                    match f {
                        AggFunc::CountStar | AggFunc::Count => {
                            out.push(seg("agg_count", AGG_COUNT))
                        }
                        AggFunc::Min => out.push(seg("agg_min", AGG_MINMAX)),
                        AggFunc::Max => out.push(seg("agg_max", AGG_MINMAX)),
                        AggFunc::Sum => {
                            out.push(seg("numeric_rt", NUMERIC_RT));
                            out.push(seg("agg_sum", AGG_SUM));
                        }
                        AggFunc::Avg => {
                            out.push(seg("expr_eval", EXPR_EVAL));
                            out.push(seg("numeric_rt", NUMERIC_RT));
                            out.push(seg("agg_avg", AGG_AVG));
                        }
                    }
                }
            }
            OpKind::Project => {
                out.push(seg("common_rt", COMMON_RT));
                out.push(seg("expr_eval", EXPR_EVAL));
                out.push(seg("project_core", PROJECT_CORE));
            }
            OpKind::Materialize => {
                out.push(seg("common_rt", COMMON_RT));
                out.push(seg("materialize_core", MATERIALIZE_CORE));
            }
            OpKind::Filter => {
                out.push(seg("common_rt", COMMON_RT));
                out.push(seg("expr_eval", EXPR_EVAL));
                out.push(seg("filter_core", FILTER_CORE));
            }
            OpKind::Limit => {
                out.push(seg("common_rt", COMMON_RT));
                out.push(seg("limit_core", LIMIT_CORE));
            }
            OpKind::PushGroup(members) => {
                for m in members {
                    out.extend(m.segments());
                }
                out.push(seg("push_driver", PUSH_DRIVER));
            }
        }
        // Within one operator, count each shared segment once.
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out.dedup();
        out
    }

    /// Footprint in bytes, shared segments counted once (Table 2's totals).
    pub fn footprint_bytes(&self) -> usize {
        self.segments().iter().map(|s| s.bytes).sum()
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
    /// A fresh model (one per database instance; code layout is shared by
    /// every query, as a real binary's text section is).
    pub fn new() -> Self {
        let mut layout = CodeLayout::new();
        let expr_seg = layout.define(&SegmentSpec::new("expr_eval", EXPR_EVAL));
        FootprintModel {
            layout,
            expr_seg,
            site_counter: 0,
            obs_labels: None,
        }
    }

    /// A model over an existing (typically pre-linked) layout.
    ///
    /// A multi-query server clones one [`FootprintModel::prelinked`] master
    /// layout per query build so every concurrent query sees the *same*
    /// text-section addresses — they genuinely share code, and their L1i
    /// interference is real displacement, not accidental address aliasing
    /// between independently laid-out layouts.
    pub fn with_layout(mut layout: CodeLayout) -> Self {
        let expr_seg = layout.define(&SegmentSpec::new("expr_eval", EXPR_EVAL));
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
            layout.define(&SegmentSpec::new(name, bytes));
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
        let mut segs: Vec<_> = kind
            .segments()
            .iter()
            .map(|s| self.layout.define(s))
            .collect();
        segs.push(
            self.layout
                .define(&SegmentSpec::new("exec_dispatch", EXEC_DISPATCH)),
        );
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
        let mut names: Vec<SegmentSpec> = Vec::new();
        for k in kinds {
            for s in k.segments() {
                if !names.iter().any(|n| n.name == s.name) {
                    names.push(s);
                }
            }
        }
        names.iter().map(|s| s.bytes).sum()
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
        assert!(OpKind::SysScan.segments().is_empty());
        assert_eq!(OpKind::SysScan.footprint_bytes(), 0);
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

//! Feedback-driven adaptive re-refinement.
//!
//! The paper's refinement algorithm (§6) places buffers from *calibrated*
//! footprints and *estimated* cardinalities. Both can be wrong at runtime:
//!
//! * the footprint model deliberately excludes the executor's shared
//!   dispatch code and cannot see conflict misses, so a group that
//!   statically "fits" L1i can still thrash (the paper's Query 2 sits at
//!   ~15.1 KB of a 16 KB budget and pays real misses once dispatch code and
//!   set conflicts are added);
//! * a cardinality estimate above the buffering threshold can overshoot,
//!   leaving a buffer whose per-batch overhead is never amortized.
//!
//! After each profiled execution this module compares the *observed*
//! per-execution-group L1i miss rates and the *observed* per-operator
//! cardinalities against those predictions and, on divergence, re-refines
//! the cached plan:
//!
//! * a **thrashing group** (miss rate above threshold) decays the effective
//!   L1i capacity the refiner budgets against, so the next refinement pass
//!   splits the group with a buffer — the paper's rule, driven by
//!   measurement instead of calibration;
//! * a **buffer over a below-threshold observed cardinality** is dropped,
//!   because re-refinement runs the §7.3 rule on measured rows
//!   (see [`crate::refine::refine_plan_observed`]).
//!
//! Every installed adaptation is **validated by its next profiled
//! execution**: the pass remembers the replaced plan and its observed L1i
//! misses, and if the new plan regresses past `REGRET_FACTOR` (1.5×) it is
//! rolled back and the entry frozen — observation can propose, but a
//! worse measurement vetoes. (The two rules above can genuinely conflict:
//! dropping an underfed buffer merges groups, and if the merged group then
//! thrashes, the cardinality gate would keep re-refinement from ever
//! re-splitting it. The rollback breaks that deadlock in favour of the
//! measured-better plan.)
//!
//! Adaptation only ever runs on a *clean, profiled* outcome — the caller
//! ([`crate::prepare::PreparedQuery`]) gates on that, so a cancelled,
//! faulted, or panicked execution can never poison a cached plan.

use super::fingerprint::subtree_hash;
use crate::obs::QueryProfile;
use crate::plan::PlanNode;
use crate::refine::{refine_plan_observed, ObservedCards, RefineConfig};
use bufferdb_storage::Catalog;

/// Observed L1i miss rate (misses / accesses over one execution group)
/// above which the group is considered thrashing.
const MISS_RATE_THRESHOLD: f64 = 0.003;
/// Minimum L1i accesses a group must have executed before its miss rate is
/// trusted (cold-start misses dominate tiny groups).
const MIN_GROUP_ACCESSES: u64 = 10_000;
/// Multiplier applied to the effective refinement capacity when a group
/// thrashes (`0 < decay < 1`).
const CAPACITY_DECAY: f64 = 0.75;
/// Floor for the decayed capacity: below this, splitting groups further
/// cannot help and adaptation stops tightening.
const MIN_L1I_CAPACITY: usize = 4 * 1024;
/// Maximum number of plan replacements per cache entry; bounds how long the
/// loop may chase noise.
const MAX_GENERATIONS: u64 = 4;
/// An installed adaptation whose next profiled execution shows more than
/// `REGRET_FACTOR ×` the L1i misses of the plan it replaced is rolled back
/// (and the entry frozen against further adaptation).
const REGRET_FACTOR: f64 = 1.5;
/// Absolute miss floor below which the regret check never fires — tiny
/// queries are all cold-start noise.
const MIN_REGRET_MISSES: u64 = 1_000;

/// The measurement an installed adaptation must beat: the plan it replaced
/// and that plan's observed L1i misses.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingValidation {
    /// The physical plan the adaptation replaced.
    pub prior_plan: PlanNode,
    /// Total observed L1i misses of the replaced plan's profiled run.
    pub prior_l1i_misses: u64,
}

/// Mutable per-entry adaptation state, persisted in the plan cache between
/// executions of the same prepared query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptState {
    /// Effective L1i budget the refiner currently plans against; `None`
    /// until the first thrash observation (meaning: use the configured
    /// [`RefineConfig::l1i_capacity`]).
    pub effective_l1i_capacity: Option<usize>,
    /// Plan replacements so far.
    pub generation: u64,
    /// Set when a plan replacement was installed: the next clean profiled
    /// execution compares against it and may roll back.
    pub pending_validation: Option<PendingValidation>,
    /// Set after a rollback: a regretted adaptation permanently stops the
    /// loop for this entry (until statistics change and re-key it).
    pub frozen: bool,
}

/// What one adaptation pass concluded (for logs, benches, and tests).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptDecision {
    /// Replacement physical plan, when observation diverged from prediction
    /// enough to move a buffer. `None` = keep the current plan.
    pub new_plan: Option<PlanNode>,
    /// True when `new_plan` is a rollback of a regretted adaptation rather
    /// than a fresh refinement.
    pub rolled_back: bool,
    /// Execution groups whose observed miss rate crossed the threshold.
    pub thrashing_groups: usize,
    /// Worst observed group miss rate this execution.
    pub worst_group_miss_rate: f64,
    /// Buffers in the executed plan whose observed output cardinality fell
    /// below the refiner's threshold.
    pub underfed_buffers: usize,
    /// Effective capacity after this pass (for diagnostics).
    pub effective_l1i_capacity: usize,
}

/// Per-group observed counters.
#[derive(Debug, Clone, Copy, Default)]
struct GroupObs {
    accesses: u64,
    misses: u64,
}

impl GroupObs {
    fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Partition the executed plan's operators (pre-order indices, matching
/// [`crate::obs::ObsId`] assignment) into execution groups whose code
/// interleaves per tuple — mirroring the refiner's boundaries: a buffer
/// belongs to the group it drains (its fill phase interleaves with its
/// input), the edge *above* a buffer is a boundary, blocking operators and
/// exchange edges start fresh groups, and a hash join's build side is its
/// own group (the blocking build phase).
fn execution_groups(plan: &PlanNode) -> Vec<Vec<usize>> {
    fn assign(
        node: &PlanNode,
        current: Option<usize>,
        groups: &mut Vec<Vec<usize>>,
        idx: &mut usize,
    ) {
        let my_idx = *idx;
        *idx += 1;
        let g = match current {
            Some(g) => g,
            None => {
                groups.push(Vec::new());
                groups.len() - 1
            }
        };
        groups[g].push(my_idx);
        let child_group = |c: &PlanNode| -> Option<usize> {
            if matches!(c, PlanNode::Buffer { .. }) || c.is_blocking() {
                None
            } else {
                Some(g)
            }
        };
        match node {
            PlanNode::HashJoin { probe, build, .. } => {
                assign(probe, child_group(probe), groups, idx);
                // The build side runs in the blocking build phase: its code
                // never interleaves with the probe pipeline.
                assign(build, None, groups, idx);
            }
            _ => {
                for c in node.children() {
                    assign(c, child_group(c), groups, idx);
                }
            }
        }
    }
    let mut groups = Vec::new();
    let mut idx = 0;
    assign(plan, None, &mut groups, &mut idx);
    groups
}

/// Collect observed output cardinalities from a profiled execution, keyed by
/// structural subtree hash of both the *base* (pre-refinement) and the
/// *executed* subtree shapes — so a re-refinement pass finds measurements
/// whether it reproduces, moves, or removes a buffer.
///
/// `base` and `executed` are walked simultaneously: `executed` is `base`
/// with zero or more `Buffer` nodes inserted, and a buffer is a row-exact
/// passthrough, so skipping inserted buffers keeps the walks aligned.
fn collect_observed(
    base: &PlanNode,
    executed: &PlanNode,
    profile: &QueryProfile,
    idx: &mut usize,
    out: &mut ObservedCards,
) {
    let mut e = executed;
    // Skip buffers the refiner inserted (present in `executed`, absent in
    // `base`), spending their pre-order slots.
    while matches!(e, PlanNode::Buffer { .. }) && !matches!(base, PlanNode::Buffer { .. }) {
        if *idx < profile.ops.len() {
            out.insert(subtree_hash(e), profile.ops[*idx].rows as f64);
        }
        *idx += 1;
        let PlanNode::Buffer { input, .. } = e else {
            return;
        };
        e = input;
    }
    let my = *idx;
    *idx += 1;
    if my >= profile.ops.len() {
        return;
    }
    let rows = profile.ops[my].rows as f64;
    out.insert(subtree_hash(base), rows);
    out.insert(subtree_hash(e), rows);
    let bc = base.children();
    let ec = e.children();
    if bc.len() == ec.len() {
        for (b, c) in bc.iter().zip(ec.iter()) {
            collect_observed(b, c, profile, idx, out);
        }
    }
}

/// Count buffers in the executed plan whose observed output cardinality fell
/// below the refiner's threshold — candidates for dropping.
fn underfed_buffers(executed: &PlanNode, profile: &QueryProfile, threshold: f64) -> usize {
    fn walk(node: &PlanNode, profile: &QueryProfile, threshold: f64, idx: &mut usize) -> usize {
        let my = *idx;
        *idx += 1;
        let mut n = 0;
        if matches!(node, PlanNode::Buffer { .. })
            && my < profile.ops.len()
            && (profile.ops[my].rows as f64) < threshold
        {
            n += 1;
        }
        for c in node.children() {
            n += walk(c, profile, threshold, idx);
        }
        n
    }
    let mut idx = 0;
    walk(executed, profile, threshold, &mut idx)
}

/// One adaptation pass over a clean, profiled execution of `executed`
/// (which must be the refinement of `base`). Updates `state` and returns
/// the decision; the caller installs `new_plan` into the cache entry if
/// present.
pub fn adapt_plan(
    base: &PlanNode,
    executed: &PlanNode,
    profile: &QueryProfile,
    catalog: &Catalog,
    refine_cfg: &RefineConfig,
    state: &mut AdaptState,
) -> AdaptDecision {
    let mut effective = state
        .effective_l1i_capacity
        .unwrap_or(refine_cfg.l1i_capacity);
    let total_misses: u64 = profile.ops.iter().map(|op| op.counters.l1i_misses).sum();

    // Per-group observed miss rates over the executed plan.
    let groups = execution_groups(executed);
    let mut worst = 0.0_f64;
    let mut thrashing = 0usize;
    for group in &groups {
        let mut obs = GroupObs::default();
        for &i in group {
            if let Some(op) = profile.ops.get(i) {
                obs.accesses += op.counters.l1i_accesses;
                obs.misses += op.counters.l1i_misses;
            }
        }
        let rate = obs.miss_rate();
        worst = worst.max(rate);
        if obs.accesses >= MIN_GROUP_ACCESSES && rate > MISS_RATE_THRESHOLD {
            thrashing += 1;
        }
    }

    let underfed = underfed_buffers(executed, profile, refine_cfg.cardinality_threshold);

    let done = |effective| AdaptDecision {
        new_plan: None,
        rolled_back: false,
        thrashing_groups: thrashing,
        worst_group_miss_rate: worst,
        underfed_buffers: underfed,
        effective_l1i_capacity: effective,
    };

    if state.frozen {
        return done(effective);
    }

    // Validate the previously installed adaptation: this execution is the
    // first clean measurement of it. A regression past the regret factor
    // rolls it back and freezes the entry — checked *before* the generation
    // cap, so a bad final-generation install can still be undone.
    if let Some(pending) = state.pending_validation.take() {
        if total_misses > MIN_REGRET_MISSES
            && total_misses as f64 > pending.prior_l1i_misses as f64 * REGRET_FACTOR
        {
            state.frozen = true;
            state.generation += 1;
            return AdaptDecision {
                new_plan: Some(pending.prior_plan),
                rolled_back: true,
                thrashing_groups: thrashing,
                worst_group_miss_rate: worst,
                underfed_buffers: underfed,
                effective_l1i_capacity: effective,
            };
        }
    }

    if state.generation >= MAX_GENERATIONS {
        return done(effective);
    }

    let can_tighten = thrashing > 0 && effective > MIN_L1I_CAPACITY;
    if !can_tighten && underfed == 0 {
        return done(effective);
    }
    if can_tighten {
        effective = ((effective as f64 * CAPACITY_DECAY) as usize).max(MIN_L1I_CAPACITY);
    }

    // Re-refine the base plan against the observed world: decayed capacity
    // splits thrashing groups, measured cardinalities drop underfed buffers.
    let mut observed = ObservedCards::new();
    let mut idx = 0;
    collect_observed(base, executed, profile, &mut idx, &mut observed);
    let cfg = RefineConfig {
        l1i_capacity: effective,
        ..refine_cfg.clone()
    };
    let new_plan = refine_plan_observed(base, catalog, &cfg, Some(&observed));

    state.effective_l1i_capacity = Some(effective);
    if new_plan == *executed {
        // Divergence observed but refinement reached the same placement;
        // keep the tightened budget for the next pass.
        return done(effective);
    }
    state.generation += 1;
    state.pending_validation = Some(PendingValidation {
        prior_plan: executed.clone(),
        prior_l1i_misses: total_misses,
    });
    AdaptDecision {
        new_plan: Some(new_plan),
        rolled_back: false,
        thrashing_groups: thrashing,
        worst_group_miss_rate: worst,
        underfed_buffers: underfed,
        effective_l1i_capacity: effective,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan() -> PlanNode {
        PlanNode::SeqScan {
            table: "t".into(),
            predicate: None,
            projection: None,
        }
    }

    fn buffer(input: PlanNode) -> PlanNode {
        PlanNode::Buffer {
            input: Box::new(input),
            size: 100,
        }
    }

    fn agg(input: PlanNode) -> PlanNode {
        PlanNode::Aggregate {
            input: Box::new(input),
            group_by: vec![],
            aggs: vec![crate::plan::AggSpec::count_star("n")],
        }
    }

    #[test]
    fn groups_split_at_buffer_and_blocking_edges() {
        // Agg -> Buffer -> Scan: boundary above the buffer, so two groups:
        // {Agg} and {Buffer, Scan}.
        let plan = agg(buffer(scan()));
        let groups = execution_groups(&plan);
        assert_eq!(groups, vec![vec![0], vec![1, 2]]);

        // Agg -> Sort -> Scan: sort is blocking, joins its input's group.
        let plan = agg(PlanNode::Sort {
            input: Box::new(scan()),
            keys: vec![(0, true)],
        });
        let groups = execution_groups(&plan);
        assert_eq!(groups, vec![vec![0], vec![1, 2]]);
    }

    #[test]
    fn hash_join_build_side_is_its_own_group() {
        let plan = PlanNode::HashJoin {
            probe: Box::new(scan()),
            build: Box::new(scan()),
            probe_key: 0,
            build_key: 0,
        };
        let groups = execution_groups(&plan);
        assert_eq!(groups, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn pipelined_plan_is_one_group() {
        let plan = agg(PlanNode::Filter {
            input: Box::new(scan()),
            predicate: crate::expr::Expr::lit(1).le(crate::expr::Expr::lit(2)),
        });
        assert_eq!(execution_groups(&plan), vec![vec![0, 1, 2]]);
    }

    fn catalog() -> Catalog {
        use bufferdb_types::{DataType, Datum, Field, Schema, Tuple};
        let c = Catalog::new();
        let mut b = bufferdb_storage::TableBuilder::new(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int)]),
        );
        for i in 0..100 {
            b.push(Tuple::new(vec![Datum::Int(i)]));
        }
        c.add_table(b);
        c
    }

    fn profile_with_misses(ops: usize, misses: u64, accesses: u64) -> QueryProfile {
        let op = crate::obs::OpStats {
            counters: bufferdb_cachesim::PerfCounters {
                l1i_misses: misses,
                l1i_accesses: accesses,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut total = bufferdb_cachesim::PerfCounters::default();
        for _ in 0..ops {
            total = total + op.counters;
        }
        QueryProfile {
            ops: vec![op; ops],
            total,
        }
    }

    #[test]
    fn regressed_adaptation_rolls_back_and_freezes() {
        let c = catalog();
        let cfg = RefineConfig::default();
        let executed = scan();
        let prior = buffer(scan());
        let mut state = AdaptState {
            generation: 1,
            pending_validation: Some(PendingValidation {
                prior_plan: prior.clone(),
                prior_l1i_misses: 1_000,
            }),
            ..Default::default()
        };
        // The installed plan's first measurement is 100× worse than what it
        // replaced: the pass must hand back the prior plan and freeze.
        let profile = profile_with_misses(1, 100_000, 1_000_000);
        let d = adapt_plan(&executed, &executed, &profile, &c, &cfg, &mut state);
        assert_eq!(d.new_plan, Some(prior));
        assert!(d.rolled_back);
        assert!(state.frozen);
        assert_eq!(state.generation, 2);

        // Frozen: even a blatantly thrashing measurement changes nothing.
        let thrash = profile_with_misses(1, 500_000, 1_000_000);
        let d = adapt_plan(&executed, &executed, &thrash, &c, &cfg, &mut state);
        assert_eq!(d.new_plan, None);
        assert_eq!(state.generation, 2);
    }

    #[test]
    fn validated_adaptation_is_kept() {
        let c = catalog();
        let cfg = RefineConfig::default();
        let executed = scan();
        let mut state = AdaptState {
            generation: 1,
            pending_validation: Some(PendingValidation {
                prior_plan: buffer(scan()),
                prior_l1i_misses: 10_000,
            }),
            ..Default::default()
        };
        // Better than the replaced plan: validation passes, no rollback,
        // and the one-shot pending slot is consumed.
        let profile = profile_with_misses(1, 2_000, 1_000_000);
        let d = adapt_plan(&executed, &executed, &profile, &c, &cfg, &mut state);
        assert_eq!(d.new_plan, None);
        assert!(!d.rolled_back);
        assert!(!state.frozen);
        assert_eq!(state.pending_validation, None);
    }
}

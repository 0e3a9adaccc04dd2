//! Canonical plan fingerprints: the plan-cache key.
//!
//! A fingerprint folds everything that determines the refined + parallelized
//! physical plan into one 64-bit FNV-1a hash:
//!
//! * the **logical plan** (its canonical `Debug` rendering — `PlanNode`
//!   derives a deterministic, whitespace-free single-line format);
//! * the **machine configuration** (a different L1i capacity or line size
//!   refines differently), again as its `Debug` rendering;
//! * the **worker budget** (parallelization rewrites the plan per count);
//! * the **catalog stats epoch** (cardinality estimates feed the refiner's
//!   threshold rule, so any registration or re-analyze must miss);
//! * the **refinement configuration** (capacity, threshold, buffer size).
//!
//! Baking the epoch into the key makes invalidation correct *by
//! construction*: a stale entry can never be returned for a fresh lookup —
//! [`crate::prepare::PlanCache::evict_stale`] merely reclaims its memory.
//!
//! A key is computed per request (and per consulted subtree, for the reuse
//! cache's keys, which start the same way), so it must cost far less than
//! the work a hit saves: renderings are never materialized. `Debug` output
//! is formatted straight into the hash (`fnv1a_debug`), and the machine's
//! rendering — the same bytes every time for one
//! [`crate::session::Session`] — is rendered once there and folded in from
//! those bytes (`plan_machine_hash`). The values are exactly
//! `fnv1a(format!("{:?}"))`'s.

use crate::optimizer::ExecModePolicy;
use crate::plan::PlanNode;
use crate::refine::RefineConfig;
use bufferdb_cachesim::MachineConfig;
use std::fmt::{self, Write};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over whatever is formatted into it.
struct FnvSink(u64);

impl Write for FnvSink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a(self.0, s.as_bytes());
        Ok(())
    }
}

/// `fnv1a(hash, format!("{value:?}").as_bytes())` without the `String`.
pub(crate) fn fnv1a_debug(hash: u64, value: &impl fmt::Debug) -> u64 {
    let mut sink = FnvSink(hash);
    write!(sink, "{value:?}").expect("the sink never fails and derived Debug impls do not");
    sink.0
}

/// Structural hash of one plan subtree (FNV-1a over its canonical `Debug`
/// rendering). Identical subtrees — which execute identically against the
/// same catalog — hash identically, which is what lets observed
/// cardinalities survive a re-refinement that moves buffers around (see
/// [`crate::refine::ObservedCards`]).
pub fn subtree_hash(plan: &PlanNode) -> u64 {
    fnv1a_debug(FNV_OFFSET, plan)
}

/// The hash state after `plan` and a machine configuration whose `Debug`
/// rendering is `machine_debug`: where the plan-cache and the reuse-cache
/// key both start.
pub(crate) fn plan_machine_hash(plan: &PlanNode, machine_debug: &str) -> u64 {
    fnv1a(subtree_hash(plan), machine_debug.as_bytes())
}

/// The plan-cache key: see the module docs for what it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanFingerprint(u64);

impl PlanFingerprint {
    /// The raw 64-bit hash (for diagnostics and JSON export).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Fold the rest of the preparation context onto a
    /// [`plan_machine_hash`].
    pub(crate) fn seal(
        plan_machine: u64,
        threads: usize,
        stats_epoch: u64,
        refine: &RefineConfig,
        mode: ExecModePolicy,
    ) -> Self {
        let mut h = fnv1a(plan_machine, &(threads as u64).to_le_bytes());
        h = fnv1a(h, &stats_epoch.to_le_bytes());
        h = fnv1a(h, &(refine.l1i_capacity as u64).to_le_bytes());
        h = fnv1a(h, &refine.cardinality_threshold.to_bits().to_le_bytes());
        h = fnv1a(h, &(refine.buffer_size as u64).to_le_bytes());
        h = fnv1a(h, mode.label().as_bytes());
        PlanFingerprint(h)
    }
}

/// Fingerprint `plan` under the full preparation context, at the default
/// [`ExecModePolicy::BufferedPull`].
pub fn fingerprint_plan(
    plan: &PlanNode,
    machine: &MachineConfig,
    threads: usize,
    stats_epoch: u64,
    refine: &RefineConfig,
) -> PlanFingerprint {
    fingerprint_plan_with_mode(
        plan,
        machine,
        threads,
        stats_epoch,
        refine,
        ExecModePolicy::BufferedPull,
    )
}

/// [`fingerprint_plan`] with an explicit executor-mode policy. The mode
/// determines where push groups are carved and whether buffers exist at
/// all, so it is as much a part of the physical plan as the worker budget:
/// a plan prepared for `push` must never be served to a `pull` lookup.
pub fn fingerprint_plan_with_mode(
    plan: &PlanNode,
    machine: &MachineConfig,
    threads: usize,
    stats_epoch: u64,
    refine: &RefineConfig,
    mode: ExecModePolicy,
) -> PlanFingerprint {
    let plan_machine = fnv1a_debug(subtree_hash(plan), machine);
    PlanFingerprint::seal(plan_machine, threads, stats_epoch, refine, mode)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(table: &str) -> PlanNode {
        PlanNode::SeqScan {
            table: table.into(),
            predicate: None,
            projection: None,
        }
    }

    #[test]
    fn identical_inputs_fingerprint_identically() {
        let cfg = MachineConfig::pentium4_like();
        let r = RefineConfig::default();
        let a = fingerprint_plan(&scan("t"), &cfg, 1, 0, &r);
        let b = fingerprint_plan(&scan("t"), &cfg, 1, 0, &r);
        assert_eq!(a, b);
    }

    #[test]
    fn every_key_component_perturbs_the_fingerprint() {
        let cfg = MachineConfig::pentium4_like();
        let r = RefineConfig::default();
        let base = fingerprint_plan(&scan("t"), &cfg, 1, 0, &r);
        assert_ne!(base, fingerprint_plan(&scan("u"), &cfg, 1, 0, &r), "plan");
        assert_ne!(
            base,
            fingerprint_plan(&scan("t"), &cfg, 2, 0, &r),
            "threads"
        );
        assert_ne!(base, fingerprint_plan(&scan("t"), &cfg, 1, 1, &r), "epoch");
        let mut small = MachineConfig::pentium4_like();
        small.l1i.capacity /= 2;
        assert_ne!(
            base,
            fingerprint_plan(&scan("t"), &small, 1, 0, &r),
            "machine"
        );
        let tight = RefineConfig {
            l1i_capacity: 8 * 1024,
            ..RefineConfig::default()
        };
        assert_ne!(
            base,
            fingerprint_plan(&scan("t"), &cfg, 1, 0, &tight),
            "refine cfg"
        );
        for mode in [ExecModePolicy::Pull, ExecModePolicy::Push] {
            assert_ne!(
                base,
                fingerprint_plan_with_mode(&scan("t"), &cfg, 1, 0, &r, mode),
                "mode {}",
                mode.label()
            );
        }
        assert_eq!(
            base,
            fingerprint_plan_with_mode(&scan("t"), &cfg, 1, 0, &r, ExecModePolicy::BufferedPull),
            "buffered-pull is the default keying"
        );
    }

    #[test]
    fn subtree_hash_is_structural() {
        assert_eq!(subtree_hash(&scan("t")), subtree_hash(&scan("t")));
        assert_ne!(subtree_hash(&scan("t")), subtree_hash(&scan("u")));
        let buffered = PlanNode::Buffer {
            input: Box::new(scan("t")),
            size: 100,
        };
        assert_ne!(subtree_hash(&scan("t")), subtree_hash(&buffered));
    }
}

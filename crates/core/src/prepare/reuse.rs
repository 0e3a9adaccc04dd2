//! Subplan reuse cache: semantic caching of materialized intermediates.
//!
//! After a query completes, eligible materialization points — hash-join
//! build inputs, aggregate outputs, and explicit materialize nodes — may
//! install their output rows here, keyed by the subtree's structural hash,
//! the catalog stats epoch, and the machine configuration. At prepare time
//! the cache is consulted top-down over the logical plan: a matching
//! subtree is replaced by a [`PlanNode::ReusedScan`] leaf that replays the
//! stored rows bit-identically, but whose *instruction footprint* is a
//! single tight loop ([`crate::footprint::OpKind::ReusedScan`]) instead of
//! the subtree's whole operator stack — the paper's i-cache thesis applied
//! across queries rather than within one.
//!
//! The cost model is explicit: an entry records the modeled cycles its
//! producing subtree cost (`recompute_cycles`) and the modeled cycles one
//! replay costs (`replay_cycles`, measured by actually driving the replay
//! operator over a scratch machine at install time). A subtree is only
//! spliced when replay is strictly cheaper than recompute, and eviction
//! ranks entries by realized benefit per byte:
//! `(recompute − replay) × (1 + hits) / bytes`.
//!
//! Correctness boundaries:
//! * the stats epoch is folded into the key, so a bumped epoch can never
//!   serve stale rows; [`ReuseCache::sweep_epoch`] reclaims the memory;
//! * installation re-checks the epoch after the producing run, so a bump
//!   mid-stream (chaos harness) never installs rows computed against the
//!   old catalog;
//! * a failed, cancelled, or faulted producing run never installs.

use super::fingerprint::{fnv1a, fnv1a_debug, plan_machine_hash, subtree_hash};
use crate::exec::schema_slot_bytes;
use crate::plan::PlanNode;
use bufferdb_cachesim::MachineConfig;
use bufferdb_types::{SchemaRef, Tuple};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default reuse-cache byte budget: 4 MiB of materialized intermediates.
pub const DEFAULT_REUSE_BUDGET_BYTES: u64 = 4 * 1024 * 1024;

/// The reuse-cache key for one plan subtree: structural hash of the
/// subtree, the machine configuration (replay cost is machine-specific),
/// and the catalog stats epoch (rows computed against old statistics are
/// unreachable by construction after a bump).
pub fn reuse_key(plan: &PlanNode, machine: &MachineConfig, stats_epoch: u64) -> u64 {
    let plan_machine = fnv1a_debug(subtree_hash(plan), machine);
    fnv1a(plan_machine, &stats_epoch.to_le_bytes())
}

/// [`reuse_key`] for a machine whose `Debug` rendering is `machine_debug`.
pub(crate) fn reuse_key_rendered(plan: &PlanNode, machine_debug: &str, stats_epoch: u64) -> u64 {
    fnv1a(
        plan_machine_hash(plan, machine_debug),
        &stats_epoch.to_le_bytes(),
    )
}

/// One cached materialized intermediate.
pub struct ReuseEntry {
    key: u64,
    epoch: u64,
    schema: SchemaRef,
    rows: Arc<Vec<Tuple>>,
    bytes: u64,
    recompute_cycles: u64,
    replay_cycles: u64,
    hits: AtomicU64,
}

impl ReuseEntry {
    fn benefit_cycles(&self) -> u64 {
        self.recompute_cycles.saturating_sub(self.replay_cycles)
    }

    /// Benefit-per-byte eviction score: modeled cycles saved per replay,
    /// weighted by realized hits (entries that keep earning keep living),
    /// normalized by footprint.
    fn score(&self) -> f64 {
        let hits = self.hits.load(Ordering::Relaxed);
        self.benefit_cycles() as f64 * (1 + hits) as f64 / self.bytes.max(1) as f64
    }

    fn realized_savings(&self) -> u64 {
        self.hits.load(Ordering::Relaxed) * self.benefit_cycles()
    }
}

/// Shared handle to a cached intermediate, embedded in
/// [`PlanNode::ReusedScan`] leaves.
///
/// The `Debug` rendering is deterministic (key, epoch, row count, byte
/// size — never addresses), because plan `Debug` output feeds both the
/// plan-cache fingerprint and the reuse key.
#[derive(Clone)]
pub struct ReuseHandle(Arc<ReuseEntry>);

impl fmt::Debug for ReuseHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ReuseHandle(key={:#018x}, epoch={}, rows={}, bytes={})",
            self.0.key,
            self.0.epoch,
            self.0.rows.len(),
            self.0.bytes
        )
    }
}

impl PartialEq for ReuseHandle {
    fn eq(&self, other: &Self) -> bool {
        self.0.key == other.0.key && self.0.epoch == other.0.epoch
    }
}

impl ReuseHandle {
    /// The cache key this entry was installed under.
    pub fn key(&self) -> u64 {
        self.0.key
    }

    /// The cached output schema.
    pub fn schema(&self) -> SchemaRef {
        self.0.schema.clone()
    }

    /// The cached rows (shared, immutable).
    pub fn rows(&self) -> &Arc<Vec<Tuple>> {
        &self.0.rows
    }

    /// Number of cached rows.
    pub fn row_count(&self) -> usize {
        self.0.rows.len()
    }

    /// Exact modeled footprint in bytes (`rows × slot width`).
    pub fn bytes(&self) -> u64 {
        self.0.bytes
    }

    /// Modeled cycles the producing subtree cost.
    pub fn recompute_cycles(&self) -> u64 {
        self.0.recompute_cycles
    }

    /// Modeled cycles one replay costs (measured at install time).
    pub fn replay_cycles(&self) -> u64 {
        self.0.replay_cycles
    }

    /// Whether replaying beats recomputing — the splice gate.
    pub fn beneficial(&self) -> bool {
        self.0.replay_cycles < self.0.recompute_cycles
    }

    /// Times this entry's rows were replayed (one per operator open).
    pub fn hits(&self) -> u64 {
        self.0.hits.load(Ordering::Relaxed)
    }

    /// Record one replay (called by the executor leaf at `open`).
    pub fn note_hit(&self) {
        self.0.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A detached handle over rows not resident in any cache — used by the
    /// harvester to measure replay cost before deciding to install.
    pub(crate) fn scratch(schema: SchemaRef, rows: Vec<Tuple>) -> Self {
        let bytes = rows.len() as u64 * schema_slot_bytes(&schema) as u64;
        ReuseHandle(Arc::new(ReuseEntry {
            key: 0,
            epoch: 0,
            schema,
            rows: Arc::new(rows),
            bytes,
            recompute_cycles: u64::MAX,
            replay_cycles: 0,
            hits: AtomicU64::new(0),
        }))
    }
}

/// Counters describing reuse-cache behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReuseStats {
    /// Subtree lookups (one per plan node consulted at splice time).
    pub lookups: u64,
    /// Lookups that found a live, beneficial entry.
    pub hits: u64,
    /// Entries installed.
    pub installs: u64,
    /// Install attempts refused: over budget, not beneficial, failed or
    /// epoch-raced producing runs.
    pub install_failures: u64,
    /// Entries evicted to make room (benefit-per-byte order).
    pub evictions: u64,
    /// Entries swept by a stats-epoch bump.
    pub invalidations: u64,
    /// Live entries.
    pub entries: u64,
    /// Exact bytes of live materialized rows.
    pub bytes: u64,
    /// Configured byte budget.
    pub budget_bytes: u64,
    /// Total modeled cycles saved: `hits × (recompute − replay)` summed
    /// over live entries plus everything evicted/swept entries earned
    /// while resident.
    pub cycles_saved: u64,
}

impl ReuseStats {
    /// Hit rate over all lookups (0 when none).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Bounded, byte-budgeted cache of materialized subtree outputs.
///
/// Shared (`&self` everywhere) so a [`crate::prepare::Database`] and its
/// callers can hold it behind one `Arc`.
pub struct ReuseCache {
    budget_bytes: u64,
    inner: Mutex<Inner>,
    lookups: AtomicU64,
    hits: AtomicU64,
    installs: AtomicU64,
    install_failures: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    /// Savings earned by entries no longer resident (evicted or swept):
    /// realized benefit survives the entry.
    retired_savings: AtomicU64,
}

struct Inner {
    entries: HashMap<u64, Arc<ReuseEntry>>,
    bytes: u64,
    /// Keys whose install was refused on merit (over budget, not
    /// beneficial). The harvester skips these instead of re-running and
    /// re-measuring the same unprofitable subtree every query.
    refused: HashSet<u64>,
}

impl Default for ReuseCache {
    fn default() -> Self {
        Self::new(DEFAULT_REUSE_BUDGET_BYTES)
    }
}

impl ReuseCache {
    /// A cache bounded to `budget_bytes` of materialized rows. A zero
    /// budget disables installation entirely (every attempt is refused),
    /// which is the reuse-off baseline the bench sweep uses.
    pub fn new(budget_bytes: u64) -> Self {
        ReuseCache {
            budget_bytes,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                bytes: 0,
                refused: HashSet::new(),
            }),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            installs: AtomicU64::new(0),
            install_failures: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            retired_savings: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Look up a subtree key. Counts a lookup always and a hit only when a
    /// live *beneficial* entry is returned — entries whose replay does not
    /// beat recompute never splice, so they never count as hits either.
    pub fn lookup(&self, key: u64) -> Option<ReuseHandle> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let found = self.lock().entries.get(&key).map(Arc::clone);
        match found {
            Some(e) => {
                let h = ReuseHandle(e);
                if h.beneficial() {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Some(h)
                } else {
                    None
                }
            }
            None => None,
        }
    }

    /// Whether `key` is resident (no lookup/hit accounting; used by the
    /// harvester to skip already-cached subtrees).
    pub fn contains(&self, key: u64) -> bool {
        self.lock().entries.contains_key(&key)
    }

    /// Whether `key`'s install was previously refused on merit (the
    /// harvester skips re-measuring unprofitable subtrees).
    pub fn is_refused(&self, key: u64) -> bool {
        self.lock().refused.contains(&key)
    }

    /// Install a materialized intermediate. Returns the handle when the
    /// entry was admitted, `None` when refused (zero budget, larger than
    /// the whole budget, replay not cheaper than recompute, or an equal
    /// key already resident — the resident entry wins).
    #[allow(clippy::too_many_arguments)]
    pub fn install(
        &self,
        key: u64,
        epoch: u64,
        schema: SchemaRef,
        rows: Vec<Tuple>,
        recompute_cycles: u64,
        replay_cycles: u64,
    ) -> Option<ReuseHandle> {
        let bytes = rows.len() as u64 * schema_slot_bytes(&schema) as u64;
        let mut inner = self.lock();
        if self.budget_bytes == 0 || bytes > self.budget_bytes || replay_cycles >= recompute_cycles
        {
            inner.refused.insert(key);
            self.install_failures.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let entry = Arc::new(ReuseEntry {
            key,
            epoch,
            schema,
            rows: Arc::new(rows),
            bytes,
            recompute_cycles,
            replay_cycles,
            hits: AtomicU64::new(0),
        });
        if inner.entries.contains_key(&key) {
            // Concurrent install of the same subtree: resident wins.
            return Some(ReuseHandle(Arc::clone(&inner.entries[&key])));
        }
        // Evict in ascending benefit-per-byte order until the entry fits.
        while inner.bytes + bytes > self.budget_bytes {
            let victim = inner
                .entries
                .values()
                .min_by(|a, b| {
                    a.score()
                        .partial_cmp(&b.score())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|e| e.key);
            match victim {
                Some(k) => {
                    if let Some(old) = inner.entries.remove(&k) {
                        inner.bytes -= old.bytes;
                        self.retired_savings
                            .fetch_add(old.realized_savings(), Ordering::Relaxed);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => break,
            }
        }
        inner.bytes += bytes;
        inner.entries.insert(key, Arc::clone(&entry));
        self.installs.fetch_add(1, Ordering::Relaxed);
        Some(ReuseHandle(entry))
    }

    /// Record one refused install (producing run failed, was cancelled, or
    /// raced a stats-epoch bump — the caller decides, the cache counts).
    pub fn note_install_failure(&self) {
        self.install_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Sweep every entry whose stats epoch is not `current_epoch`. Stale
    /// entries are unreachable anyway (the epoch is folded into the key);
    /// this reclaims their bytes and counts the invalidations.
    pub fn sweep_epoch(&self, current_epoch: u64) {
        let mut inner = self.lock();
        // Refusals were judged against the old statistics; let the
        // harvester re-evaluate under the new epoch.
        if inner.entries.values().any(|e| e.epoch != current_epoch) {
            inner.refused.clear();
        }
        let stale: Vec<u64> = inner
            .entries
            .values()
            .filter(|e| e.epoch != current_epoch)
            .map(|e| e.key)
            .collect();
        for k in stale {
            if let Some(old) = inner.entries.remove(&k) {
                inner.bytes -= old.bytes;
                self.retired_savings
                    .fetch_add(old.realized_savings(), Ordering::Relaxed);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.lock();
        let retired: u64 = inner.entries.values().map(|e| e.realized_savings()).sum();
        self.retired_savings.fetch_add(retired, Ordering::Relaxed);
        inner.entries.clear();
        inner.refused.clear();
        inner.bytes = 0;
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot every live entry as a shared handle, ordered by key for
    /// deterministic iteration. Backs the `sys.reuse_cache` table.
    pub fn entries(&self) -> Vec<ReuseHandle> {
        let mut out: Vec<ReuseHandle> = self
            .lock()
            .entries
            .values()
            .map(|e| ReuseHandle(Arc::clone(e)))
            .collect();
        out.sort_by_key(ReuseHandle::key);
        out
    }

    /// Snapshot of the cache counters (exact byte accounting: `bytes` is
    /// the sum of `rows × slot width` over live entries).
    pub fn stats(&self) -> ReuseStats {
        let inner = self.lock();
        let live_savings: u64 = inner.entries.values().map(|e| e.realized_savings()).sum();
        ReuseStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            installs: self.installs.load(Ordering::Relaxed),
            install_failures: self.install_failures.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: inner.entries.len() as u64,
            bytes: inner.bytes,
            budget_bytes: self.budget_bytes,
            cycles_saved: live_savings + self.retired_savings.load(Ordering::Relaxed),
        }
    }
}

/// Splice [`PlanNode::ReusedScan`] leaves over every cached subtree of
/// `plan`, outermost match first (a hit covers its whole subtree, so inner
/// candidates are not consulted). Returns the rewritten plan and the
/// number of splices performed.
pub fn splice_reused(
    plan: &PlanNode,
    cache: &ReuseCache,
    machine: &MachineConfig,
    stats_epoch: u64,
) -> (PlanNode, u64) {
    splice_reused_rendered(plan, cache, &format!("{machine:?}"), stats_epoch)
}

/// [`splice_reused`] for a machine whose `Debug` rendering is
/// `machine_debug` (every consulted subtree folds it into its key).
pub(crate) fn splice_reused_rendered(
    plan: &PlanNode,
    cache: &ReuseCache,
    machine_debug: &str,
    stats_epoch: u64,
) -> (PlanNode, u64) {
    let mut splices = 0;
    let out = splice_rec(plan, cache, machine_debug, stats_epoch, &mut splices);
    (out, splices)
}

fn splice_rec(
    node: &PlanNode,
    cache: &ReuseCache,
    machine: &str,
    epoch: u64,
    splices: &mut u64,
) -> PlanNode {
    // Leaves that can never be cheaper cached than executed are not even
    // looked up (a ReusedScan of a SeqScan's rows replays the same data
    // with the same read loop; the scan itself is the floor). Sys scans are
    // excluded too: a cached replay of live telemetry would be stale.
    let consult = !matches!(
        node,
        PlanNode::SeqScan { .. }
            | PlanNode::IndexScan { .. }
            | PlanNode::ReusedScan { .. }
            | PlanNode::SysScan { .. }
    );
    if consult {
        if let Some(handle) = cache.lookup(reuse_key_rendered(node, machine, epoch)) {
            *splices += 1;
            return PlanNode::ReusedScan { handle };
        }
    }
    let inputs = match node {
        // A parameterized inner is re-scanned per outer row with a fresh
        // key: its output is not a function of the subtree alone, so it
        // must never be replaced by a static replay.
        PlanNode::NestLoopJoin {
            outer,
            inner,
            param_outer_col: Some(_),
            ..
        } => vec![
            splice_rec(outer, cache, machine, epoch, splices),
            (**inner).clone(),
        ],
        _ => (node.children().into_iter())
            .map(|child| splice_rec(child, cache, machine, epoch, splices))
            .collect(),
    };
    node.with_inputs(inputs)
}

/// The materialization points eligible to *install* after a clean run:
/// hash-join build inputs, aggregate nodes, and materialize nodes. (Any
/// subtree may be *spliced* on lookup; installation is restricted to the
/// points whose output the executor materializes anyway, so caching them
/// changes data-space footprint, not execution semantics.)
///
/// Subtrees under a parameterized nested-loop inner are excluded: their
/// rows depend on the per-rescan parameter.
pub fn eligible_subtrees(plan: &PlanNode) -> Vec<&PlanNode> {
    // Mirror of the splice-side consult rule: a bare scan leaf is never
    // looked up at splice time, so installing one would only burn budget.
    // Any subtree *containing* a sys scan is also excluded: its rows are a
    // snapshot of live engine state, and a cached replay would freeze it.
    fn consultable(n: &PlanNode) -> bool {
        !matches!(
            n,
            PlanNode::SeqScan { .. }
                | PlanNode::IndexScan { .. }
                | PlanNode::ReusedScan { .. }
                | PlanNode::SysScan { .. }
        )
    }
    fn contains_sys_scan(n: &PlanNode) -> bool {
        matches!(n, PlanNode::SysScan { .. }) || n.children().iter().any(|c| contains_sys_scan(c))
    }
    fn rec<'p>(n: &'p PlanNode, out: &mut Vec<&'p PlanNode>) {
        match n {
            PlanNode::HashJoin { probe, build, .. } => {
                if consultable(build) && !contains_sys_scan(build) {
                    out.push(build);
                }
                rec(probe, out);
                rec(build, out);
            }
            PlanNode::Aggregate { input, .. } => {
                if !contains_sys_scan(n) {
                    out.push(n);
                }
                rec(input, out);
            }
            PlanNode::Materialize { input } => {
                if !contains_sys_scan(n) {
                    out.push(n);
                }
                rec(input, out);
            }
            PlanNode::NestLoopJoin {
                outer,
                inner,
                param_outer_col,
                ..
            } => {
                rec(outer, out);
                if param_outer_col.is_none() {
                    rec(inner, out);
                }
            }
            other => {
                for c in other.children() {
                    rec(c, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    rec(plan, &mut out);
    // A node can appear once as a build side and once via recursion; a
    // duplicate install attempt is refused anyway, but deduping here keeps
    // the harvester's work linear.
    let mut seen = HashSet::new();
    out.retain(|n| seen.insert(subtree_hash(n)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bufferdb_types::{DataType, Datum, Field, Schema};

    fn schema() -> SchemaRef {
        Schema::new(vec![Field::new("k", DataType::Int)]).into_ref()
    }

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::new(vec![Datum::Int(i)])).collect()
    }

    #[test]
    fn install_lookup_round_trip_with_exact_bytes() {
        let cache = ReuseCache::new(1 << 20);
        let h = cache
            .install(42, 0, schema(), rows(10), 1_000_000, 10_000)
            .expect("install");
        assert_eq!(h.row_count(), 10);
        let slot = schema_slot_bytes(&schema()) as u64;
        assert_eq!(h.bytes(), 10 * slot);
        assert_eq!(cache.stats().bytes, 10 * slot);
        let hit = cache.lookup(42).expect("hit");
        assert_eq!(hit.row_count(), 10);
        let s = cache.stats();
        assert_eq!((s.lookups, s.hits, s.installs), (1, 1, 1));
    }

    #[test]
    fn zero_budget_refuses_everything() {
        let cache = ReuseCache::new(0);
        assert!(cache
            .install(1, 0, schema(), rows(1), 1_000_000, 10)
            .is_none());
        assert_eq!(cache.stats().install_failures, 1);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn non_beneficial_entries_are_refused() {
        let cache = ReuseCache::new(1 << 20);
        assert!(cache.install(1, 0, schema(), rows(5), 100, 100).is_none());
        assert_eq!(cache.stats().install_failures, 1);
    }

    #[test]
    fn eviction_follows_benefit_per_byte() {
        let slot = schema_slot_bytes(&schema()) as u64;
        // Budget fits exactly two 10-row entries.
        let cache = ReuseCache::new(2 * 10 * slot);
        // Low benefit, never hit.
        cache
            .install(1, 0, schema(), rows(10), 20_000, 10_000)
            .expect("a");
        // High benefit.
        cache
            .install(2, 0, schema(), rows(10), 900_000, 10_000)
            .expect("b");
        // Third entry forces one eviction: the low-scoring key 1 goes.
        cache
            .install(3, 0, schema(), rows(10), 500_000, 10_000)
            .expect("c");
        assert!(cache.lookup(1).is_none(), "lowest benefit/byte evicted");
        assert!(cache.lookup(2).is_some());
        assert!(cache.lookup(3).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes, 2 * 10 * slot, "bytes stay exact after eviction");
    }

    #[test]
    fn hits_protect_entries_from_eviction() {
        let slot = schema_slot_bytes(&schema()) as u64;
        let cache = ReuseCache::new(2 * 10 * slot);
        cache
            .install(1, 0, schema(), rows(10), 100_000, 10_000)
            .expect("a");
        cache
            .install(2, 0, schema(), rows(10), 100_000, 10_000)
            .expect("b");
        // Same static score; replays make key 1 the keeper.
        let h = cache.lookup(1).expect("hit");
        h.note_hit();
        h.note_hit();
        cache
            .install(3, 0, schema(), rows(10), 100_000, 10_000)
            .expect("c");
        assert!(cache.lookup(1).is_some(), "hit entry survives");
        assert!(cache.lookup(2).is_none(), "unhit twin evicted");
    }

    #[test]
    fn epoch_sweep_invalidates_and_retires_savings() {
        let cache = ReuseCache::new(1 << 20);
        let h = cache
            .install(1, 0, schema(), rows(10), 50_000, 10_000)
            .expect("install");
        h.note_hit(); // realized 40_000 cycles
        cache.sweep_epoch(1);
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.entries, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.cycles_saved, 40_000, "savings survive the sweep");
    }

    #[test]
    fn cycles_saved_counts_hits_times_benefit() {
        let cache = ReuseCache::new(1 << 20);
        let h = cache
            .install(1, 0, schema(), rows(10), 30_000, 10_000)
            .expect("install");
        assert_eq!(cache.stats().cycles_saved, 0);
        h.note_hit();
        h.note_hit();
        h.note_hit();
        assert_eq!(cache.stats().cycles_saved, 3 * 20_000);
    }
}

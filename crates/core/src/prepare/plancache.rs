//! The bounded, LRU plan cache behind [`crate::prepare::Database`].
//!
//! Entries are shared [`CacheEntry`] handles: a [`crate::prepare::PreparedQuery`]
//! keeps its `Arc` alive even if the cache later evicts the slot, so an
//! in-flight prepared query never dereferences a dangling plan, and an
//! adaptation installed through one handle is visible to every other holder
//! of the same entry.
//!
//! Invalidation is correct by construction — the catalog stats epoch is part
//! of the fingerprint, so a lookup after an epoch bump can only miss (see
//! [`crate::prepare::fingerprint`]). [`PlanCache::evict_stale`] additionally
//! sweeps entries prepared under older epochs, which bounds memory and makes
//! invalidations observable in [`CacheStats`].

use super::adapt::AdaptState;
use super::fingerprint::PlanFingerprint;
use crate::plan::PlanNode;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default entry capacity of a [`PlanCache`].
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One cached prepared plan.
///
/// The *base* plan (parallelized, pre-refinement) is immutable; the
/// *physical* plan (what executions actually run) starts as the statically
/// refined base and is replaced in place by the adaptive loop, bumping
/// [`CacheEntry::generation`].
#[derive(Debug)]
pub struct CacheEntry {
    fingerprint: PlanFingerprint,
    epoch: u64,
    base: PlanNode,
    physical: Mutex<PlanNode>,
    generation: AtomicU64,
    adapt: Mutex<AdaptState>,
    last_used: AtomicU64,
    hits: AtomicU64,
}

impl CacheEntry {
    fn new(fingerprint: PlanFingerprint, epoch: u64, base: PlanNode, physical: PlanNode) -> Self {
        CacheEntry {
            fingerprint,
            epoch,
            base,
            physical: Mutex::new(physical),
            generation: AtomicU64::new(0),
            adapt: Mutex::new(AdaptState::default()),
            last_used: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// The fingerprint this entry was stored under.
    pub fn fingerprint(&self) -> PlanFingerprint {
        self.fingerprint
    }

    /// The catalog stats epoch the entry was prepared under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The parallelized, pre-refinement plan adaptation re-refines from.
    pub fn base_plan(&self) -> &PlanNode {
        &self.base
    }

    /// Snapshot of the physical plan executions currently run.
    pub fn physical_plan(&self) -> PlanNode {
        lock(&self.physical).clone()
    }

    /// How many times adaptation has replaced the physical plan.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// How many cache lookups returned this entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Snapshot of the adaptive-refinement state.
    pub fn adapt_state(&self) -> AdaptState {
        lock(&self.adapt).clone()
    }

    /// Install an adapted physical plan, bumping the generation, and persist
    /// the adaptation state that produced it.
    pub(crate) fn install(&self, plan: PlanNode, state: AdaptState) {
        *lock(&self.physical) = plan;
        *lock(&self.adapt) = state;
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Persist adaptation state without changing the plan (e.g. a decayed
    /// capacity that produced no new placement).
    pub(crate) fn store_adapt_state(&self, state: AdaptState) {
        *lock(&self.adapt) = state;
    }
}

/// Monotonic adaptive-loop counters, snapshotted by
/// [`PlanCache::adapt_stats`].
///
/// The adaptive executor in [`crate::prepare::PreparedQuery`] bumps these
/// alongside the flight-recorder instants it already emits, so long-running
/// drivers (the traffic observatory) can report install/validate/rollback/
/// freeze activity as cheap counter deltas without collecting traces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptStats {
    /// Adapted plans installed (generation bumps).
    pub installs: u64,
    /// Pending installs validated by a clean follow-up run.
    pub validations: u64,
    /// Installs regressed and rolled back.
    pub rollbacks: u64,
    /// Entries frozen after repeated rollbacks.
    pub freezes: u64,
}

/// Monotonic cache counters, snapshotted by [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries swept because their stats epoch went stale.
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct Inner {
    map: HashMap<u64, Arc<CacheEntry>>,
    /// Monotonic logical clock for LRU ordering.
    tick: u64,
}

impl Inner {
    fn empty() -> Self {
        Inner {
            map: HashMap::new(),
            tick: 0,
        }
    }
}

/// A bounded, least-recently-used cache of prepared physical plans.
///
/// All methods take `&self`; the cache is safe to share across threads.
/// One mutex guards one map with exact global LRU order. Eviction scans the
/// map for the minimum use-tick — O(entries), fine at plan-cache
/// capacities.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    adapt_installs: AtomicU64,
    adapt_validations: AtomicU64,
    adapt_rollbacks: AtomicU64,
    adapt_freezes: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::empty()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            adapt_installs: AtomicU64::new(0),
            adapt_validations: AtomicU64::new(0),
            adapt_rollbacks: AtomicU64::new(0),
            adapt_freezes: AtomicU64::new(0),
        }
    }

    /// Maximum resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up a fingerprint, counting a hit or miss and refreshing the
    /// entry's LRU position on a hit.
    pub fn lookup(&self, fp: PlanFingerprint) -> Option<Arc<CacheEntry>> {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get(&fp.raw()) {
            Some(entry) => {
                entry.last_used.store(tick, Ordering::Relaxed);
                entry.hits.fetch_add(1, Ordering::Relaxed);
                let entry = Arc::clone(entry);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a freshly prepared plan, evicting the least-recently-used
    /// entry if the cache is full. Returns the shared entry handle.
    ///
    /// If another thread inserted the same fingerprint in the meantime, the
    /// resident entry wins and is returned instead (last prepare is wasted
    /// work, never a split-brain cache).
    pub fn insert(
        &self,
        fp: PlanFingerprint,
        epoch: u64,
        base: PlanNode,
        physical: PlanNode,
    ) -> Arc<CacheEntry> {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(existing) = inner.map.get(&fp.raw()) {
            existing.last_used.store(tick, Ordering::Relaxed);
            return Arc::clone(existing);
        }
        if inner.map.len() >= self.capacity {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(&k, _)| k);
            if let Some(k) = victim {
                inner.map.remove(&k);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let entry = Arc::new(CacheEntry::new(fp, epoch, base, physical));
        entry.last_used.store(tick, Ordering::Relaxed);
        inner.map.insert(fp.raw(), Arc::clone(&entry));
        entry
    }

    /// Sweep entries prepared under a stats epoch older than
    /// `current_epoch`, returning how many were invalidated. (Such entries
    /// are already unreachable through lookups — the epoch is in the key —
    /// so this reclaims their memory and counts them.)
    pub fn evict_stale(&self, current_epoch: u64) -> usize {
        let mut inner = lock(&self.inner);
        let before = inner.map.len();
        inner.map.retain(|_, e| e.epoch == current_epoch);
        let swept = before - inner.map.len();
        self.invalidations
            .fetch_add(swept as u64, Ordering::Relaxed);
        swept
    }

    /// Drop every entry (counters are preserved). Lets benchmarks re-measure
    /// the miss path repeatably.
    pub fn clear(&self) {
        lock(&self.inner).map.clear();
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot every resident entry, ordered by raw fingerprint for
    /// deterministic iteration. Backs the `sys.plan_cache` table.
    pub fn entries(&self) -> Vec<Arc<CacheEntry>> {
        let mut out: Vec<Arc<CacheEntry>> = lock(&self.inner).map.values().cloned().collect();
        out.sort_by_key(|e| e.fingerprint().raw());
        out
    }

    /// Snapshot the monotonic counters plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Snapshot the monotonic adaptive-loop counters.
    pub fn adapt_stats(&self) -> AdaptStats {
        AdaptStats {
            installs: self.adapt_installs.load(Ordering::Relaxed),
            validations: self.adapt_validations.load(Ordering::Relaxed),
            rollbacks: self.adapt_rollbacks.load(Ordering::Relaxed),
            freezes: self.adapt_freezes.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_adapt_install(&self) {
        self.adapt_installs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_adapt_validate(&self) {
        self.adapt_validations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_adapt_rollback(&self) {
        self.adapt_rollbacks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_adapt_freeze(&self) {
        self.adapt_freezes.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::super::fingerprint::fingerprint_plan;
    use super::*;
    use crate::refine::RefineConfig;
    use bufferdb_cachesim::MachineConfig;

    fn scan(table: &str) -> PlanNode {
        PlanNode::SeqScan {
            table: table.into(),
            predicate: None,
            projection: None,
        }
    }

    fn fp(table: &str, epoch: u64) -> PlanFingerprint {
        fingerprint_plan(
            &scan(table),
            &MachineConfig::pentium4_like(),
            1,
            epoch,
            &RefineConfig::default(),
        )
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = PlanCache::new(4);
        assert!(cache.lookup(fp("t", 0)).is_none());
        cache.insert(fp("t", 0), 0, scan("t"), scan("t"));
        assert!(cache.lookup(fp("t", 0)).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let cache = PlanCache::new(2);
        cache.insert(fp("a", 0), 0, scan("a"), scan("a"));
        cache.insert(fp("b", 0), 0, scan("b"), scan("b"));
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.lookup(fp("a", 0)).is_some());
        cache.insert(fp("c", 0), 0, scan("c"), scan("c"));
        assert!(cache.lookup(fp("a", 0)).is_some(), "recently used survives");
        assert!(cache.lookup(fp("b", 0)).is_none(), "LRU entry evicted");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn stale_epoch_sweep_counts_invalidations() {
        let cache = PlanCache::new(4);
        cache.insert(fp("a", 0), 0, scan("a"), scan("a"));
        cache.insert(fp("b", 0), 0, scan("b"), scan("b"));
        cache.insert(fp("c", 1), 1, scan("c"), scan("c"));
        assert_eq!(cache.evict_stale(1), 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn duplicate_insert_returns_resident_entry() {
        let cache = PlanCache::new(4);
        let a = cache.insert(fp("t", 0), 0, scan("t"), scan("t"));
        let b = cache.insert(fp("t", 0), 0, scan("t"), scan("u"));
        assert!(Arc::ptr_eq(&a, &b), "resident entry wins");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn entry_survives_eviction_via_arc() {
        let cache = PlanCache::new(1);
        let held = cache.insert(fp("a", 0), 0, scan("a"), scan("a"));
        cache.insert(fp("b", 0), 0, scan("b"), scan("b"));
        assert!(cache.lookup(fp("a", 0)).is_none());
        // The evicted entry's plan is still usable through the held handle.
        assert_eq!(held.physical_plan(), scan("a"));
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = PlanCache::new(4);
        cache.insert(fp("a", 0), 0, scan("a"), scan("a"));
        assert!(cache.lookup(fp("a", 0)).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
    }
}

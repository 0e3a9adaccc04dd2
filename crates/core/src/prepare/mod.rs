//! Prepared queries: the [`Database`] facade, the shared [`PlanCache`], and
//! feedback-driven adaptive refinement.
//!
//! ```ignore
//! let db = Database::open(catalog, MachineConfig::pentium4_like());
//! let q = db.prepare(&plan)?;       // parallelize + refine once, cached
//! let out = q.execute();           // repeated executions skip optimization
//! let out = q.execute_adaptive();  // profiled; re-refines on divergence
//! ```
//!
//! [`prepare_physical_plan`] is the *single* logical→physical path —
//! parallelization (when the worker budget warrants it) strictly before
//! refinement, so exchange boundaries are in place when execution groups
//! form. Every caller (the facade, the bench harness, examples) routes
//! through it; ad-hoc `parallelize_plan` + `refine_plan` glue is gone.

pub mod adapt;
pub mod fingerprint;
pub mod plancache;
pub mod reuse;

pub use adapt::{adapt_plan, AdaptDecision, AdaptState, PendingValidation};
pub use fingerprint::{
    fingerprint_plan, fingerprint_plan_with_mode, subtree_hash, PlanFingerprint,
};
pub use plancache::{AdaptStats, CacheEntry, CacheStats, PlanCache, DEFAULT_CACHE_CAPACITY};
pub use reuse::{
    eligible_subtrees, reuse_key, splice_reused, ReuseCache, ReuseHandle, ReuseStats,
    DEFAULT_REUSE_BUDGET_BYTES,
};

use crate::exec::QueryOutcome;
use crate::obs::trace::TraceEvent;
use crate::optimizer::{choose_pipeline_modes, ExecModePolicy};
use crate::parallel::parallelize_plan;
use crate::plan::PlanNode;
use crate::refine::{refine_plan, RefineConfig};
use crate::session::{QueryOpts, Session};
use bufferdb_cachesim::MachineConfig;
use bufferdb_storage::{Catalog, FnSysTable};
use bufferdb_types::{DataType, Datum, Field, Result, Schema, Tuple};
use std::sync::Arc;
use std::time::Duration;

/// A prepared physical plan: the parallelized base kept for adaptive
/// re-refinement, plus the refined plan executions actually run.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedPlan {
    /// Parallelized, pre-refinement plan.
    pub base: PlanNode,
    /// Refined physical plan.
    pub physical: PlanNode,
}

/// The canonical logical→physical pipeline: parallelize (only when
/// `workers > 1` — the exchange rewrite is not free at one worker), then
/// refine under the default [`ExecModePolicy::BufferedPull`]. Returns both
/// stages; use [`prepare_physical_plan`] when only the executable plan is
/// needed, or [`prepare_plan_parts_with_mode`] to pick the executor
/// backend per pipeline.
pub fn prepare_plan_parts(
    plan: &PlanNode,
    catalog: &Catalog,
    refine_cfg: &RefineConfig,
    workers: usize,
) -> Result<PreparedPlan> {
    prepare_plan_parts_with_mode(
        plan,
        catalog,
        refine_cfg,
        workers,
        ExecModePolicy::BufferedPull,
    )
}

/// [`prepare_plan_parts`] with an explicit executor-mode policy:
/// parallelize, then mark pipelines for push execution per `mode`
/// ([`choose_pipeline_modes`]), then refine — except under
/// [`ExecModePolicy::Pull`], whose whole point is the unbuffered baseline,
/// so refinement is skipped. Mode selection runs *before* refinement so
/// the refiner sees fused groups as opaque single-footprint operators and
/// never buffers inside them.
pub fn prepare_plan_parts_with_mode(
    plan: &PlanNode,
    catalog: &Catalog,
    refine_cfg: &RefineConfig,
    workers: usize,
    mode: ExecModePolicy,
) -> Result<PreparedPlan> {
    let base = if workers > 1 {
        parallelize_plan(plan, catalog, workers)?
    } else {
        plan.clone()
    };
    let base = choose_pipeline_modes(&base, refine_cfg, mode);
    let physical = if mode.refines() {
        refine_plan(&base, catalog, refine_cfg)
    } else {
        base.clone()
    };
    Ok(PreparedPlan { base, physical })
}

/// [`prepare_plan_parts`], returning just the executable physical plan.
pub fn prepare_physical_plan(
    plan: &PlanNode,
    catalog: &Catalog,
    refine_cfg: &RefineConfig,
    workers: usize,
) -> Result<PlanNode> {
    Ok(prepare_plan_parts(plan, catalog, refine_cfg, workers)?.physical)
}

/// The top-level facade: a [`Session`] plus a shared [`PlanCache`] and the
/// refinement configuration.
///
/// `Database` wraps rather than replaces `Session`: cancellation, fault
/// injection, and the default timeout live on the session and apply to
/// prepared executions unchanged. The worker count is the database's own:
/// it shapes the plans it prepares (their exchanges), not the session.
pub struct Database {
    session: Session,
    threads: usize,
    cache: Arc<PlanCache>,
    reuse: Arc<ReuseCache>,
    refine_cfg: RefineConfig,
    mode: ExecModePolicy,
}

impl Database {
    /// Open a database over `catalog` simulating `cfg`, with a
    /// default-capacity plan cache and default refinement configuration.
    pub fn open(catalog: Catalog, cfg: MachineConfig) -> Self {
        Database {
            session: Session::new(catalog, cfg),
            threads: 1,
            cache: Arc::new(PlanCache::default()),
            reuse: Arc::new(ReuseCache::default()),
            refine_cfg: RefineConfig::default(),
            mode: ExecModePolicy::default(),
        }
    }

    /// Replace the subplan reuse cache (e.g. a different byte budget, or a
    /// cache shared with another database over the same catalog).
    pub fn with_reuse_cache(mut self, reuse: Arc<ReuseCache>) -> Self {
        self.reuse = reuse;
        self
    }

    /// The subplan reuse cache (inspect [`ReuseCache::stats`] for hit rates
    /// and modeled cycles saved).
    pub fn reuse_cache(&self) -> &Arc<ReuseCache> {
        &self.reuse
    }

    /// Replace the executor-mode policy used by [`Database::prepare`].
    /// The mode is part of the plan fingerprint, so databases sharing one
    /// cache never serve each other plans prepared for another backend.
    pub fn with_exec_mode(mut self, mode: ExecModePolicy) -> Self {
        self.mode = mode;
        self
    }

    /// Replace the plan cache (e.g. a smaller capacity for tests, or a
    /// cache shared with another database over the same catalog semantics).
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Replace the refinement configuration used by [`Database::prepare`].
    pub fn with_refine_config(mut self, cfg: RefineConfig) -> Self {
        self.refine_cfg = cfg;
        self
    }

    /// The underlying session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The catalog queries run against.
    pub fn catalog(&self) -> &Catalog {
        self.session.catalog()
    }

    /// The shared plan cache (inspect [`PlanCache::stats`] for hit rates).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The refinement configuration prepares run under.
    pub fn refine_config(&self) -> &RefineConfig {
        &self.refine_cfg
    }

    /// Register this database's `sys.*` introspection tables in its own
    /// catalog:
    ///
    /// * `sys.plan_cache` — one row per resident [`CacheEntry`]
    ///   (fingerprint, stats epoch, adaptive generation, lookup hits, and
    ///   the physical plan's buffer-operator count);
    /// * `sys.reuse_cache` — one row per live materialized intermediate
    ///   (key, rows, exact bytes, replay hits, modeled recompute/replay
    ///   cycles and the benefit gate).
    ///
    /// Providers capture `Arc` handles to the caches, snapshot under their
    /// short internal locks, and run as zero-footprint
    /// [`PlanNode::SysScan`] leaves — introspecting the caches never adds
    /// modeled cycles or perturbs hit counters (registration bumps the
    /// stats epoch once, like any other catalog change).
    pub fn install_sys_tables(&self) {
        let plan_schema = Schema::new(vec![
            Field::new("fingerprint", DataType::Str),
            Field::new("epoch", DataType::Int),
            Field::new("generation", DataType::Int),
            Field::new("hits", DataType::Int),
            Field::new("buffers", DataType::Int),
        ])
        .into_ref();
        let cache = Arc::clone(&self.cache);
        self.catalog().register_sys_table(
            "sys.plan_cache",
            Arc::new(FnSysTable::new(plan_schema, move || {
                cache
                    .entries()
                    .iter()
                    .map(|e| {
                        Tuple::new(vec![
                            Datum::str(format!("{:#018x}", e.fingerprint().raw())),
                            Datum::Int(e.epoch() as i64),
                            Datum::Int(e.generation() as i64),
                            Datum::Int(e.hits() as i64),
                            Datum::Int(e.physical_plan().buffer_count() as i64),
                        ])
                    })
                    .collect()
            })),
        );

        let reuse_schema = Schema::new(vec![
            Field::new("key", DataType::Str),
            Field::new("rows", DataType::Int),
            Field::new("bytes", DataType::Int),
            Field::new("hits", DataType::Int),
            Field::new("recompute_cycles", DataType::Int),
            Field::new("replay_cycles", DataType::Int),
            Field::new("benefit_cycles", DataType::Int),
            Field::new("beneficial", DataType::Bool),
        ])
        .into_ref();
        let reuse = Arc::clone(&self.reuse);
        self.catalog().register_sys_table(
            "sys.reuse_cache",
            Arc::new(FnSysTable::new(reuse_schema, move || {
                reuse
                    .entries()
                    .iter()
                    .map(|h| {
                        Tuple::new(vec![
                            Datum::str(format!("{:#018x}", h.key())),
                            Datum::Int(h.row_count() as i64),
                            Datum::Int(h.bytes() as i64),
                            Datum::Int(h.hits() as i64),
                            Datum::Int(h.recompute_cycles() as i64),
                            Datum::Int(h.replay_cycles() as i64),
                            Datum::Int(
                                h.recompute_cycles().saturating_sub(h.replay_cycles()) as i64
                            ),
                            Datum::Bool(h.beneficial()),
                        ])
                    })
                    .collect()
            })),
        );
    }

    /// Set the exchange worker count of subsequently prepared plans.
    /// Changing it re-keys future fingerprints (a plan parallelized for 2
    /// workers is not the plan for 8).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Set (or clear) the session's default per-query timeout.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.session.set_timeout(timeout);
    }

    /// Feed one profiled outcome back into `entry`'s adaptive loop: the
    /// deferred half of [`PreparedQuery::execute_adaptive_opts`], for
    /// callers that execute the cached plan elsewhere (the server admission
    /// path runs `executed` on a [`crate::server::virt::VirtualServer`] and only
    /// sees the profile at completion time). Gated on a **clean** profiled
    /// outcome — a failed, cancelled, or panicked execution never modifies
    /// the cached plan. Adaptivity instants are appended to `out`'s trace
    /// when one was recorded.
    pub fn absorb_feedback(
        &self,
        entry: &Arc<CacheEntry>,
        executed: &PlanNode,
        out: &mut QueryOutcome,
    ) {
        // Adaptation moves buffer operators; under a policy that did not
        // ask for refiner-placed buffers the cached plan is pinned.
        if !self.mode.adapts() {
            return;
        }
        // Instants for the flight recorder: collected while the profile
        // borrow is live, recorded onto the trace afterwards.
        let mut instants: Vec<TraceEvent> = Vec::new();
        if let (true, Some(profile)) = (out.is_ok(), out.profile()) {
            let mut state = entry.adapt_state();
            let had_pending = state.pending_validation.is_some();
            let decision = adapt_plan(
                entry.base_plan(),
                executed,
                profile,
                self.catalog(),
                &self.refine_cfg,
                &mut state,
            );
            if had_pending {
                self.cache.note_adapt_validate();
                instants.push(TraceEvent::AdaptValidate {
                    regressed: decision.rolled_back,
                });
            }
            if decision.rolled_back {
                self.cache.note_adapt_rollback();
                instants.push(TraceEvent::AdaptRollback);
                if state.frozen {
                    self.cache.note_adapt_freeze();
                    instants.push(TraceEvent::AdaptFreeze);
                }
            }
            match decision.new_plan {
                Some(new_plan) => {
                    self.cache.note_adapt_install();
                    instants.push(TraceEvent::AdaptInstall {
                        generation: state.generation,
                        buffers: new_plan.buffer_count() as u64,
                    });
                    entry.install(new_plan, state);
                }
                None => entry.store_adapt_state(state),
            }
        }
        if let Some(trace) = out.trace_mut() {
            for ev in instants {
                trace.record_instant(ev);
            }
        }
    }

    /// Prepare `plan` under default [`QueryOpts`]: on a cache hit the
    /// stored physical plan is reused outright; on a miss the plan is
    /// parallelized + refined and cached. See [`Database::prepare_opts`].
    pub fn prepare(&self, plan: &PlanNode) -> Result<PreparedQuery<'_>> {
        self.prepare_opts(plan, &QueryOpts::new())
    }

    /// Prepare `plan` under explicit [`QueryOpts`].
    ///
    /// When `opts.reuse_policy()` splices (the default), the logical plan
    /// is first rewritten against the subplan [`ReuseCache`]: any subtree
    /// whose output is cached for the current stats epoch — and whose
    /// replay is modeled cheaper than recompute — is replaced by a
    /// [`PlanNode::ReusedScan`] leaf. The fingerprint is computed over the
    /// *spliced* plan, so the plan cache automatically keys reused and
    /// recomputing variants separately.
    ///
    /// Also sweeps plan-cache and reuse-cache entries whose stats epoch
    /// went stale (they are already unreachable — the epoch is part of
    /// both keys — this reclaims their memory).
    pub fn prepare_opts(&self, plan: &PlanNode, opts: &QueryOpts) -> Result<PreparedQuery<'_>> {
        let epoch = self.catalog().stats_epoch();
        self.cache.evict_stale(epoch);
        self.reuse.sweep_epoch(epoch);
        let logical = plan.clone();
        let plan = if opts.reuse_policy().splices() {
            reuse::splice_reused_rendered(plan, &self.reuse, self.session.machine_debug(), epoch).0
        } else {
            plan.clone()
        };
        let threads = self.threads;
        let fp = PlanFingerprint::seal(
            fingerprint::plan_machine_hash(&plan, self.session.machine_debug()),
            threads,
            epoch,
            &self.refine_cfg,
            self.mode,
        );
        let entry = match self.cache.lookup(fp) {
            Some(entry) => entry,
            None => {
                let parts = prepare_plan_parts_with_mode(
                    &plan,
                    self.catalog(),
                    &self.refine_cfg,
                    threads,
                    self.mode,
                )?;
                self.cache.insert(fp, epoch, parts.base, parts.physical)
            }
        };
        Ok(PreparedQuery {
            db: self,
            entry,
            logical,
        })
    }

    /// Harvest `plan`'s eligible materialization points into the reuse
    /// cache: each hash-join build input, aggregate, and materialize node
    /// of the *logical* plan is run standalone (under `opts` minus
    /// profiling/tracing — so armed faults, timeouts, and cancellation
    /// apply to the producing runs exactly as they would to a query), its
    /// modeled recompute cost read off the run, its replay cost measured
    /// by actually driving a [`crate::exec::reused::ReusedScanOp`] over a
    /// scratch machine, and the pair offered to [`ReuseCache::install`].
    ///
    /// Correctness gates, in order:
    /// * `opts.reuse_policy()` must install (default [`crate::session::ReusePolicy::Enabled`]);
    /// * a failed, cancelled, or faulted producing run installs nothing;
    /// * a stats-epoch bump between the start of the harvest and the end
    ///   of a producing run discards that run's rows (they reflect the old
    ///   catalog);
    /// * the cache itself refuses entries over budget or whose replay does
    ///   not beat recompute.
    ///
    /// Returns the number of entries installed. Installation is explicit —
    /// executing a prepared query never grows the cache behind the
    /// caller's back; call this after (or instead of) executions whose
    /// intermediates are worth keeping.
    pub fn harvest_reuse(&self, plan: &PlanNode, opts: &QueryOpts) -> usize {
        if !opts.reuse_policy().installs() || self.reuse.budget_bytes() == 0 {
            return 0;
        }
        let machine = self.session.machine();
        let epoch0 = self.catalog().stats_epoch();
        let run_opts = opts.clone().profile(false).trace(false);
        let mut installed = 0;
        for sub in reuse::eligible_subtrees(plan) {
            let key = reuse::reuse_key_rendered(sub, self.session.machine_debug(), epoch0);
            if self.reuse.contains(key) || self.reuse.is_refused(key) {
                continue;
            }
            let Ok(schema) = sub.output_schema(self.catalog()) else {
                continue;
            };
            let out = self.session.query(sub, &run_opts);
            if !out.is_ok() {
                // Fault, cancel, or error mid-produce: never install.
                self.reuse.note_install_failure();
                continue;
            }
            if self.catalog().stats_epoch() != epoch0 {
                // Stats moved mid-stream: the rows reflect the old catalog.
                self.reuse.note_install_failure();
                continue;
            }
            let recompute = out.stats().breakdown.total_cycles;
            let rows = out.rows().to_vec();
            let replay = measure_replay_cycles(&schema, rows.clone(), machine);
            if self
                .reuse
                .install(key, epoch0, schema, rows, recompute, replay)
                .is_some()
            {
                installed += 1;
            }
        }
        installed
    }
}

/// Modeled cycles one full replay of `rows` costs: build a
/// [`crate::exec::reused::ReusedScanOp`] over a detached handle and drive
/// it on a scratch machine. This is a measurement, not an estimate — the
/// exact operator the splice would run, over the exact rows.
fn measure_replay_cycles(
    schema: &bufferdb_types::SchemaRef,
    rows: Vec<bufferdb_types::Tuple>,
    cfg: &MachineConfig,
) -> u64 {
    use crate::exec::reused::ReusedScanOp;
    use crate::exec::Operator;
    let handle = reuse::ReuseHandle::scratch(schema.clone(), rows);
    let mut fm = crate::footprint::FootprintModel::new();
    let mut op = ReusedScanOp::new(&mut fm, handle);
    let mut ctx = crate::context::ExecContext::new(cfg.clone());
    let drove = (|| -> Result<()> {
        op.open(&mut ctx)?;
        while op.next(&mut ctx)?.is_some() {}
        op.close(&mut ctx)
    })();
    if drove.is_err() {
        // Replay cannot even be measured: report it as never profitable.
        return u64::MAX;
    }
    let counters = ctx.machine.snapshot();
    ctx.machine.cycles_for(&counters)
}

/// A handle on one cached prepared plan, ready for repeated execution.
///
/// The handle stays valid even if the cache evicts the entry (it holds the
/// entry `Arc`); adaptation performed through any handle is visible to all
/// handles sharing the entry.
pub struct PreparedQuery<'db> {
    db: &'db Database,
    entry: Arc<CacheEntry>,
    /// The original logical plan as handed to `prepare_opts`, before any
    /// reuse splice — the tree [`Database::harvest_reuse`] walks.
    logical: PlanNode,
}

impl PreparedQuery<'_> {
    /// Execute the cached physical plan with session defaults, no
    /// profiling, no adaptation.
    pub fn execute(&self) -> QueryOutcome {
        self.execute_opts(&QueryOpts::new())
    }

    /// Execute the cached physical plan under explicit [`QueryOpts`].
    pub fn execute_opts(&self, opts: &QueryOpts) -> QueryOutcome {
        let plan = self.entry.physical_plan();
        self.db.session.query(&plan, opts)
    }

    /// Execute with profiling and feed the measurements back: when observed
    /// group miss rates or cardinalities diverge from the refiner's
    /// predictions, the cached plan is re-refined in place (visible to
    /// every holder of this prepared query; see [`adapt_plan`]).
    ///
    /// Adaptation is gated on a **clean** profiled outcome — a failed,
    /// cancelled, or panicked execution returns its outcome untouched and
    /// never modifies the cached plan.
    pub fn execute_adaptive(&self) -> QueryOutcome {
        self.execute_adaptive_opts(&QueryOpts::new())
    }

    /// [`PreparedQuery::execute_adaptive`] with explicit options
    /// (profiling is forced on — the feedback needs the measurements).
    pub fn execute_adaptive_opts(&self, opts: &QueryOpts) -> QueryOutcome {
        let plan = self.entry.physical_plan();
        let mut out = self.db.session.query(&plan, &opts.clone().profile(true));
        self.db.absorb_feedback(&self.entry, &plan, &mut out);
        out
    }

    /// Snapshot of the physical plan the next execution will run.
    pub fn plan(&self) -> PlanNode {
        self.entry.physical_plan()
    }

    /// How many times adaptation has replaced this entry's plan.
    pub fn generation(&self) -> u64 {
        self.entry.generation()
    }

    /// The cache entry backing this handle.
    pub fn entry(&self) -> &Arc<CacheEntry> {
        &self.entry
    }

    /// The fingerprint this query is cached under.
    pub fn fingerprint(&self) -> PlanFingerprint {
        self.entry.fingerprint()
    }

    /// Harvest this query's eligible subtrees into the reuse cache — a
    /// convenience for [`Database::harvest_reuse`] over the logical plan.
    pub fn harvest_reuse(&self, opts: &QueryOpts) -> usize {
        self.db.harvest_reuse(&self.logical, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bufferdb_storage::TableBuilder;
    use bufferdb_types::{DataType, Datum, Field, Schema, Tuple};

    fn catalog(rows: i64) -> Catalog {
        let c = Catalog::new();
        let mut b = TableBuilder::new("t", Schema::new(vec![Field::new("k", DataType::Int)]));
        for i in 0..rows {
            b.push(Tuple::new(vec![Datum::Int(i)]));
        }
        c.add_table(b);
        c
    }

    fn scan() -> PlanNode {
        PlanNode::SeqScan {
            table: "t".into(),
            predicate: None,
            projection: None,
        }
    }

    #[test]
    fn prepare_twice_hits_the_cache() {
        let db = Database::open(catalog(100), MachineConfig::pentium4_like());
        let a = db.prepare(&scan()).unwrap();
        let b = db.prepare(&scan()).unwrap();
        assert!(Arc::ptr_eq(a.entry(), b.entry()));
        let s = db.plan_cache().stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn prepared_execution_returns_rows() {
        let db = Database::open(catalog(100), MachineConfig::pentium4_like());
        let q = db.prepare(&scan()).unwrap();
        let out = q.execute();
        assert!(out.is_ok());
        assert_eq!(out.rows().len(), 100);
    }

    #[test]
    fn stats_epoch_bump_invalidates() {
        let db = Database::open(catalog(100), MachineConfig::pentium4_like());
        let a = db.prepare(&scan()).unwrap();
        db.catalog().bump_stats_epoch();
        let b = db.prepare(&scan()).unwrap();
        assert!(!Arc::ptr_eq(a.entry(), b.entry()), "stale entry not reused");
        assert_eq!(db.plan_cache().stats().invalidations, 1);
    }

    #[test]
    fn thread_count_re_keys_the_cache() {
        let mut db = Database::open(catalog(100), MachineConfig::pentium4_like());
        let a = db.prepare(&scan()).unwrap().fingerprint();
        db.set_threads(4);
        let b = db.prepare(&scan()).unwrap().fingerprint();
        assert_ne!(a, b);
    }

    #[test]
    fn prepare_physical_plan_skips_exchange_at_one_worker() {
        let c = catalog(5000);
        let p = prepare_physical_plan(&scan(), &c, &RefineConfig::default(), 1).unwrap();
        assert!(!format!("{p:?}").contains("Exchange"));
        let p = prepare_physical_plan(&scan(), &c, &RefineConfig::default(), 4).unwrap();
        assert!(format!("{p:?}").contains("Exchange"));
    }
}

//! A long-lived query session: repeated executions against one catalog with
//! cross-query settings (timeout, fault registry) and a handle for
//! cancelling the in-flight query from another thread.
//!
//! The session exists for the robustness contract: after any failed query —
//! typed error, timeout, injected fault, or contained worker panic — the
//! session stays usable and the next query runs normally. The chaos suite
//! (`tests/chaos.rs`) exercises exactly that.
//!
//! The one entry point is [`Session::query`] with a [`QueryOpts`] builder.
//! For cached prepared execution, wrap the session in a
//! [`crate::prepare::Database`].

use crate::cancel::CancelToken;
use crate::exec::{execute_query, QueryOutcome};
use crate::fault::FaultRegistry;
use crate::plan::PlanNode;
use bufferdb_cachesim::MachineConfig;
use bufferdb_storage::Catalog;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Per-query policy for the subplan reuse cache (see
/// [`crate::prepare::ReuseCache`]).
///
/// Reuse never changes results — a spliced [`crate::plan::PlanNode::ReusedScan`]
/// replays bit-identical rows — so the policy only controls whether the
/// cache is consulted and whether new entries may be installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReusePolicy {
    /// Consult the cache at prepare time *and* allow eligible subtrees to
    /// install their output after a clean execution.
    #[default]
    Enabled,
    /// Consult the cache (splice hits) but never install new entries.
    ReadOnly,
    /// Ignore the reuse cache entirely.
    Off,
}

impl ReusePolicy {
    /// Whether prepare may splice `ReusedScan` leaves over cache hits.
    pub fn splices(self) -> bool {
        !matches!(self, ReusePolicy::Off)
    }

    /// Whether eligible subtrees may install their output after execution.
    pub fn installs(self) -> bool {
        matches!(self, ReusePolicy::Enabled)
    }

    /// Stable lowercase label (for reports and fingerprints).
    pub fn label(self) -> &'static str {
        match self {
            ReusePolicy::Enabled => "enabled",
            ReusePolicy::ReadOnly => "read-only",
            ReusePolicy::Off => "off",
        }
    }
}

/// The one execution-options type, builder style.
///
/// Used directly by [`crate::exec::execute_query`], by [`Session::query`],
/// by [`crate::prepare::Database`], and (wrapped in a
/// [`crate::server::SubmitSpec`]) by both servers. Unset options fall back
/// to the caller's defaults: a session fills in its timeout and fault
/// registry; bare `execute_query` runs with no deadline and no armed
/// faults. How many workers a query runs on is not an option: it is the
/// `workers` of the plan's [`crate::plan::PlanNode::Exchange`] nodes.
///
/// ```ignore
/// let opts = QueryOpts::new().profile(true).timeout(Duration::from_secs(1));
/// let out = session.query(&plan, &opts);
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryOpts {
    profile: bool,
    trace: bool,
    heatmap: bool,
    timeout: Option<Duration>,
    cancel: Option<CancelToken>,
    faults: Option<Arc<FaultRegistry>>,
    reuse: ReusePolicy,
}

impl QueryOpts {
    /// Options that inherit every session default (no profiling).
    pub fn new() -> Self {
        Self::default()
    }

    /// Request per-operator profiling (adds zero modeled cost).
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Request a flight-recorder trace on the outcome (see
    /// [`crate::obs::trace`]; adds zero modeled cost, off by default).
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Request a per-segment L1i heatmap on the outcome
    /// ([`bufferdb_cachesim::HeatSnapshot`]; attribution adds zero modeled
    /// cost, off by default).
    pub fn heatmap(mut self, on: bool) -> Self {
        self.heatmap = on;
        self
    }

    /// Override the session's per-query timeout for this query.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Attach a caller-held cancel token. An explicit token wins over any
    /// timeout-derived one, so the caller can stop the query from another
    /// thread regardless of deadlines.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attach a fault-injection registry for this query (chaos tests arm
    /// sites per query; unset inherits the session's registry, or an empty
    /// one under bare `execute_query`).
    pub fn faults(mut self, faults: Arc<FaultRegistry>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Set the subplan-reuse policy (default: [`ReusePolicy::Enabled`]).
    pub fn reuse(mut self, policy: ReusePolicy) -> Self {
        self.reuse = policy;
        self
    }

    /// Whether profiling was requested.
    pub fn wants_profile(&self) -> bool {
        self.profile
    }

    /// Whether a flight-recorder trace was requested.
    pub fn wants_trace(&self) -> bool {
        self.trace
    }

    /// Whether a per-segment L1i heatmap was requested.
    pub fn wants_heatmap(&self) -> bool {
        self.heatmap
    }

    /// The timeout override, if any.
    pub fn timeout_override(&self) -> Option<Duration> {
        self.timeout
    }

    /// The caller-held cancel token, if any.
    pub fn cancel_override(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The per-query fault registry, if any.
    pub fn fault_registry(&self) -> Option<&Arc<FaultRegistry>> {
        self.faults.as_ref()
    }

    /// The subplan-reuse policy.
    pub fn reuse_policy(&self) -> ReusePolicy {
        self.reuse
    }

    /// The cancel token this query will run under: the explicit token when
    /// set, else a fresh deadline token from the timeout, else a fresh
    /// never-cancelling token.
    pub fn resolve_cancel(&self) -> CancelToken {
        match (&self.cancel, self.timeout) {
            (Some(c), _) => c.clone(),
            (None, Some(t)) => CancelToken::with_timeout(t),
            (None, None) => CancelToken::new(),
        }
    }

    /// The fault registry this query will run under (an empty registry when
    /// none was attached).
    pub fn resolve_faults(&self) -> Arc<FaultRegistry> {
        match &self.faults {
            Some(f) => Arc::clone(f),
            None => Arc::new(FaultRegistry::new()),
        }
    }
}

/// Stateful query runner over one catalog. It runs each plan as given:
/// parallelism is already in the plan (its exchanges), so the session holds
/// no worker count.
pub struct Session {
    catalog: Catalog,
    cfg: MachineConfig,
    /// `format!("{cfg:?}")`, rendered once: plan-cache and reuse-cache keys
    /// fold it in per request and per consulted subtree.
    cfg_debug: String,
    timeout: Option<Duration>,
    faults: Arc<FaultRegistry>,
    /// Cancel token of the in-flight (or most recent) query, so another
    /// thread holding a reference to the session can stop it.
    current: Mutex<CancelToken>,
}

impl Session {
    /// New session over `catalog` simulating `cfg`.
    pub fn new(catalog: Catalog, cfg: MachineConfig) -> Self {
        Session {
            catalog,
            cfg_debug: format!("{cfg:?}"),
            cfg,
            timeout: None,
            faults: Arc::new(FaultRegistry::new()),
            current: Mutex::new(CancelToken::new()),
        }
    }

    /// The catalog queries run against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The simulated machine configuration queries run on.
    pub fn machine(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The `Debug` rendering of [`Session::machine`].
    pub(crate) fn machine_debug(&self) -> &str {
        &self.cfg_debug
    }

    /// The session's default per-query timeout.
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    /// The session's fault registry: arm sites here to inject failures into
    /// subsequent queries.
    pub fn faults(&self) -> &Arc<FaultRegistry> {
        &self.faults
    }

    /// Set (or clear) a per-query timeout; applies to queries started after
    /// this call.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.timeout = timeout;
    }

    /// Cancel the in-flight query (no-op when idle: the token is replaced at
    /// the start of each run).
    pub fn cancel(&self) {
        self.current
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .cancel();
    }

    /// Run `plan` to completion (or failure) under `opts`. Options left
    /// unset in `opts` inherit the session defaults.
    ///
    /// The plan is executed exactly as given — pass it through
    /// [`crate::prepare::prepare_physical_plan`] (or use a
    /// [`crate::prepare::Database`]) to parallelize and refine it first.
    pub fn query(&self, plan: &PlanNode, opts: &QueryOpts) -> QueryOutcome {
        let resolved = self.resolve_opts(opts);
        let cancel = resolved.resolve_cancel();
        *self
            .current
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = cancel.clone();
        execute_query(plan, &self.catalog, &self.cfg, &resolved.cancel(cancel))
    }

    /// Fill session defaults into options the caller left unset: the
    /// per-query timeout and the fault registry. Explicit settings in `opts`
    /// always win.
    pub fn resolve_opts(&self, opts: &QueryOpts) -> QueryOpts {
        let mut resolved = opts.clone();
        if resolved.timeout_override().is_none() {
            if let Some(t) = self.timeout {
                resolved = resolved.timeout(t);
            }
        }
        if resolved.fault_registry().is_none() {
            resolved = resolved.faults(Arc::clone(&self.faults));
        }
        resolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bufferdb_storage::TableBuilder;
    use bufferdb_types::{DataType, Datum, DbError, Field, Schema, Tuple};

    fn session() -> Session {
        let c = Catalog::new();
        let mut b = TableBuilder::new("t", Schema::new(vec![Field::new("k", DataType::Int)]));
        for i in 0..100 {
            b.push(Tuple::new(vec![Datum::Int(i)]));
        }
        c.add_table(b);
        Session::new(c, MachineConfig::pentium4_like())
    }

    fn scan() -> PlanNode {
        PlanNode::SeqScan {
            table: "t".into(),
            predicate: None,
            projection: None,
        }
    }

    #[test]
    fn clean_run_returns_rows() {
        let s = session();
        let out = s.query(&scan(), &QueryOpts::new());
        assert!(out.is_ok());
        assert_eq!(out.rows().len(), 100);
    }

    #[test]
    fn zero_timeout_cancels_and_session_recovers() {
        let mut s = session();
        s.set_timeout(Some(Duration::ZERO));
        let out = s.query(&scan(), &QueryOpts::new());
        assert!(
            matches!(out.error(), Some(DbError::Cancelled(_))),
            "{out:?}"
        );
        s.set_timeout(None);
        let out = s.query(&scan(), &QueryOpts::new());
        assert!(out.is_ok());
        assert_eq!(out.rows().len(), 100);
    }

    #[test]
    fn per_query_timeout_override_beats_session_default() {
        let s = session();
        let out = s.query(&scan(), &QueryOpts::new().timeout(Duration::ZERO));
        assert!(matches!(out.error(), Some(DbError::Cancelled(_))));
        // Session default (no timeout) is untouched.
        let out = s.query(&scan(), &QueryOpts::new());
        assert!(out.is_ok());
    }

    #[test]
    fn pre_cancelled_session_token_is_replaced_per_query() {
        let s = session();
        s.cancel(); // cancels the idle placeholder token only
        let out = s.query(&scan(), &QueryOpts::new());
        assert!(out.is_ok(), "next query gets a fresh token");
    }
}

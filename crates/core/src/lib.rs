//! BufferDB core: a demand-pull pipelined query executor with the paper's
//! **buffer operator** and **plan refinement algorithm**.
//!
//! The executor follows the classic Volcano `open`/`next`/`close` iterator
//! contract (§4 of the paper): every operator produces one tuple per `next`
//! call, recursively pulling from its children. Each operator carries a
//! synthetic instruction footprint (Table 2) that it executes through the
//! simulated machine on every call — so the PCPCPC interleaving of parent
//! and child code, and the instruction-cache thrashing it causes, appear in
//! the simulated counters exactly as they do on the paper's Pentium 4.
//!
//! The [`exec::buffer::BufferOp`] operator implements §5: it batches child
//! tuples by *pointer* (arena slot), turning the execution sequence into
//! PCCCCC…PPPPP and restoring instruction locality. [`refine::refine_plan`]
//! implements §6: bottom-up execution-group formation from calibrated
//! footprints, with blocking operators and low-cardinality operators
//! excluded, and a buffer operator placed above each completed group.

#![warn(missing_docs)]

pub mod arena;
pub mod cancel;
pub mod context;
// The executor must stay panic-free outside tests: worker containment and
// the chaos suite rely on every failure being a typed `DbError`. The gate
// only covers non-test builds, so `cfg(test)` unit tests may still unwrap.
#[cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod exec;
pub mod expr;
pub mod fault;
pub mod footprint;
pub mod obs;
pub mod optimizer;
pub mod parallel;
pub mod plan;
pub mod prepare;
pub mod refine;
// Same containment contract as `exec`: the server pool must never unwrap
// its way into a poisoned panic while holding shared scheduler state.
#[cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod server;
pub mod session;
pub mod stats;

pub use arena::{TupleArena, TupleSlot};
pub use cancel::CancelToken;
pub use context::ExecContext;
pub use exec::{build_executor, execute_query, Operator, QueryOutcome};
pub use expr::Expr;
pub use fault::{FaultMode, FaultRegistry, Trigger};
pub use footprint::{FootprintModel, OpKind};
pub use obs::{
    BufferGauges, ExchangeLane, Histogram, MetricsRegistry, ObsId, OpStats, QueryProfile,
    QueryProfiler, TraceEvent, TraceReport, Tracer,
};
pub use optimizer::{choose_pipeline_modes, ExecModePolicy};
pub use parallel::parallelize_plan;
pub use plan::analyze::explain_analyze;
pub use plan::{AggFunc, AggSpec, IndexMode, PlanNode};
pub use prepare::{
    prepare_physical_plan, AdaptStats, CacheStats, Database, PlanCache, PlanFingerprint,
    PreparedQuery, ReuseCache, ReuseStats,
};
pub use refine::{refine_plan, refine_plan_observed, ObservedCards, RefineConfig};
pub use server::virt::{CompletedQuery, VirtualServer};
pub use server::{QueryTicket, Server, ServerConfig, ServerStats, SubmitSpec};
pub use session::{QueryOpts, ReusePolicy, Session};
pub use stats::ExecStats;

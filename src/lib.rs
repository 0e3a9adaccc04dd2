//! # BufferDB
//!
//! A reproduction of *"Buffering Database Operations for Enhanced Instruction
//! Cache Performance"* (Zhou & Ross, SIGMOD 2004): a demand-pull pipelined
//! query engine, a machine simulator that stands in for the paper's Pentium 4
//! hardware counters, the light-weight **buffer operator**, and the
//! instruction-footprint-driven **plan refinement algorithm**.
//!
//! This facade crate re-exports every workspace crate under one roof:
//!
//! ```
//! use bufferdb::prelude::*;
//!
//! // Build a tiny catalog and run COUNT(*) over a filtered scan.
//! let catalog = bufferdb::tpch::generate_catalog(0.001, 42);
//! let plan = bufferdb::tpch::queries::paper_query2(&catalog).unwrap();
//! let machine = MachineConfig::pentium4_like();
//! let out = execute_query(&plan, &catalog, &machine, &QueryOpts::new());
//! assert_eq!(out.rows().len(), 1); // single aggregate row
//! ```
//!
//! See `examples/` for end-to-end walkthroughs and `crates/bench` for the
//! harness that regenerates every table and figure in the paper.

#![warn(missing_docs)]

pub use bufferdb_cachesim as cachesim;
pub use bufferdb_core as core;
pub use bufferdb_index as index;
pub use bufferdb_storage as storage;
pub use bufferdb_tpch as tpch;
pub use bufferdb_types as types;

/// Commonly used items in one import.
///
/// Covers the full redesigned surface: the
/// [`Database`](bufferdb_core::prepare::Database)/[`PreparedQuery`](bufferdb_core::prepare::PreparedQuery)
/// facade with its plan cache, the
/// [`Session`](bufferdb_core::session::Session)/[`QueryOpts`](bufferdb_core::session::QueryOpts)
/// entry point,
/// execution helpers, plan building, refinement, parallelization, fault
/// injection, and the storage/type vocabulary — everything the examples,
/// integration tests, and bench harness need without deep `crates/...`
/// paths.
pub mod prelude {
    pub use bufferdb_cachesim::{
        BreakdownReport, CacheConfig, HeatCell, HeatSnapshot, MachineConfig, PerfCounters,
    };
    pub use bufferdb_core::cancel::CancelToken;
    pub use bufferdb_core::exec::{execute_query, QueryOutcome};
    pub use bufferdb_core::expr::Expr;
    pub use bufferdb_core::fault::{FaultMode, FaultRegistry, Trigger};
    pub use bufferdb_core::footprint::{FootprintModel, OpKind};
    pub use bufferdb_core::obs::{
        BufferGauges, ExchangeLane, Histogram, MetricsRegistry, ObsId, OpStats, QueryProfile,
        TraceEvent, TraceReport, Tracer,
    };
    pub use bufferdb_core::optimizer::{choose_pipeline_modes, ExecModePolicy};
    pub use bufferdb_core::parallel::parallelize_plan;
    pub use bufferdb_core::plan::analyze::explain_analyze;
    pub use bufferdb_core::plan::explain::explain;
    pub use bufferdb_core::plan::{AggFunc, AggSpec, IndexMode, PlanNode};
    pub use bufferdb_core::prepare::{
        fingerprint_plan, fingerprint_plan_with_mode, prepare_physical_plan,
        prepare_plan_parts_with_mode, AdaptStats, CacheEntry, CacheStats, Database, PlanCache,
        PlanFingerprint, PreparedQuery, ReuseCache, ReuseStats,
    };
    pub use bufferdb_core::refine::{
        refine_plan, refine_plan_observed, ObservedCards, RefineConfig,
    };
    pub use bufferdb_core::server::virt::{CompletedQuery, VirtualServer};
    pub use bufferdb_core::server::{
        QueryTicket, Server, ServerConfig, ServerRecorder, ServerStats, SubmitSpec,
    };
    pub use bufferdb_core::session::{QueryOpts, ReusePolicy, Session};
    pub use bufferdb_core::stats::ExecStats;
    pub use bufferdb_index::BTreeIndex;
    pub use bufferdb_storage::{
        Catalog, FnSysTable, IndexDef, SysTableProvider, SysTableRef, Table, TableBuilder,
    };
    pub use bufferdb_types::{
        DataType, Date, Datum, DbError, Decimal, Field, Result, Schema, Tuple,
    };
}

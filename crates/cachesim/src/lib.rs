//! A deterministic machine simulator for instruction-cache experiments.
//!
//! The paper measures real Pentium 4 hardware counters (trace cache misses,
//! L2 misses, branch mispredictions, ITLB misses) with VTune. We do not have
//! that testbed, so this crate implements the closest synthetic equivalent:
//!
//! * a set-associative, LRU **L1 instruction cache** standing in for the
//!   trace cache (the paper itself converts the 12 K-µop trace cache to an
//!   "8–16 KB conventional i-cache equivalent" and uses 16 KB);
//! * **L1 data** and **unified L2** caches with a sequential stream
//!   prefetcher (the P4 hardware prefetch that hides sequential L2 misses,
//!   §7.4);
//! * a small fully-associative **ITLB**;
//! * finite-table **branch predictors** (gshare by default — interleaving
//!   operators pollutes global history, reproducing §4's misprediction
//!   effect — plus bimodal for ablation);
//! * a **code layout** allocator that scatters operator "functions" across
//!   pages the way a large compiled binary does;
//! * the paper's **cycle cost model**: `penalty = misses × latency` with the
//!   Table 1 latencies.
//!
//! Everything is deterministic: identical runs produce identical counters.

#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod config;
pub mod counters;
mod hash;
pub mod heat;
pub mod layout;
mod lru;
pub mod machine;
pub mod misscurve;
pub mod prefetch;
pub mod report;
pub mod tlb;

pub use branch::{BimodalPredictor, BranchPredictor, GsharePredictor, Predictor, PredictorKind};
pub use cache::Cache;
pub use config::{BranchConfig, CacheConfig, Latencies, MachineConfig};
pub use counters::PerfCounters;
pub use heat::{HeatCell, HeatSnapshot};
pub use layout::{CodeLayout, CodeRegion, SegmentSpec};
pub use machine::Machine;
pub use misscurve::{sweep as miss_curve_sweep, MissPoint};
pub use prefetch::StreamPrefetcher;
pub use report::{
    counter_rows, format_counter_comparison, format_counter_table, pct_reduction, BreakdownReport,
};
pub use tlb::Tlb;

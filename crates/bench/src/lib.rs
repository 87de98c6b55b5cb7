//! # perfvec-bench
//!
//! The experiment harness. One declarative API runs everything:
//!
//! * [`spec::ExperimentSpec`] — a typed description of one run
//!   (experiment kind, scale, seed, feature mask, march subset, cache
//!   policy, trace length, output path, kind-specific params), built
//!   from CLI flags or loaded from a JSON config file;
//! * [`runner`] — executes a spec; every figure/table/ablation/bench
//!   experiment of the paper lives here as a function;
//! * [`report`] — each run emits a schema-versioned JSON report
//!   (metrics, per-phase timings, cache stats, version pins) alongside
//!   its human-readable output.
//!
//! The `perfvec` multi-call binary (`run` / `list` / `report` / `asm` /
//! `probe`) is the only entry point; library code never reads process
//! arguments.
//!
//! `perfvec run` accepts `--scale quick|full` (default `quick`; scales
//! only change trace lengths and training budgets, never the protocol)
//! and `--no-cache` (bypass the on-disk dataset cache, see [`cache`]).
//! Cold dataset generation is sharded across memory and cores by
//! [`ShardPlan::auto`] at every scale.

pub mod cache;
pub mod chart;
pub mod pipeline;
pub mod programs;
pub mod report;
pub mod runner;
pub mod scale;
pub mod shard;
pub mod spec;

pub use cache::{workload_datasets, CacheStats, DatasetCache};
pub use pipeline::{eval_seen_unseen, SuiteData};
pub use report::Report;
pub use runner::RunError;
pub use scale::Scale;
pub use shard::ShardPlan;
pub use spec::{CachePolicy, ExperimentKind, ExperimentSpec};

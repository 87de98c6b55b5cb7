//! `perfvec_obs` — the workspace observability substrate.
//!
//! Std-only building blocks shared by every layer of the stack:
//!
//! - [`Counter`] / [`Gauge`]: lock-free atomic instruments.
//! - [`Histogram`]: log-bucketed latency histogram with exact bucket
//!   counts and documented quantile semantics (see [`histogram`]).
//! - [`Registry`]: named metric families with labels, rendered in
//!   Prometheus text exposition format (version 0.0.4).
//! - [`log`]: leveled JSONL structured logger on stderr, filtered by
//!   the `PERFVEC_LOG` environment variable (default `warn`).
//!
//! Instrumentation is observational only: recording never influences
//! the values being measured, and the whole layer can be switched off
//! at runtime with [`set_enabled`] so overhead gates can compare
//! metrics-on vs metrics-off throughput of the same binary.

use std::sync::atomic::{AtomicBool, Ordering};

pub mod histogram;
pub mod log;
mod metrics;
pub mod prom;
mod registry;

pub use histogram::{Histogram, HistogramSummary};
pub use log::Level;
pub use metrics::{Counter, Gauge};
pub use registry::{MetricKind, Registry};

/// Global record-enable switch. `true` at startup.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable all metric recording process-wide.
///
/// Disabling turns `Counter::inc`, `Gauge` updates, and
/// `Histogram::record` into a single relaxed atomic load. This exists
/// for the `obs_overhead` gate, which measures the cost of the
/// instrumentation itself; it is not meant as an operational toggle
/// (a gauge inc/dec pair that straddles the flip can leave the gauge
/// offset).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

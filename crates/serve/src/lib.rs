//! # perfvec-serve
//!
//! A batched inference service over trained PerfVec checkpoints: the
//! "train once, query many" half of the paper's economics, as a
//! production-shaped subsystem. One process loads one or more
//! checkpoints into an immutable model registry and answers
//! program-performance queries over HTTP/1.1 — entirely `std`, no
//! external dependencies.
//!
//! ## Architecture
//!
//! ```text
//! TCP accept ─ per-connection threads ─┐
//!                                      ▼
//!    parse JSON ─ resolve model/march ─ rep cache? ──hit──► dot ─ reply
//!                                      │ miss
//!                                      ▼
//!            bounded queue ─ worker pool drains ≤ B same-model requests
//!                                      ▼
//!      one coalesced batched forward pass (SeqModel::forward_windows)
//!                                      ▼
//!               per-request representations ─ dot ─ reply
//! ```
//!
//! * [`batcher`] — the micro-batching engine (bounded queue, worker
//!   pool, key-homogeneous coalescing, load shedding).
//! * [`engine`] — registry + cache + batcher glued into a prediction
//!   engine whose served results are **bit-identical** to the offline
//!   `perfvec::predict` path, by construction and by test.
//! * [`cache`] — bounded representation cache keyed by
//!   `perfvec_trace::fingerprint` content fingerprints: repeated
//!   queries cost one dot product.
//! * [`registry`] — checkpoint loading and `MicroArchConfig` →
//!   table-row resolution.
//! * [`http`] / [`json`] / [`protocol`] — `std`-only wire plumbing.
//! * [`server`] — the routes and the accept loop.
//!
//! The `serve` binary wires it to flags/env; `serve_bench` (in
//! `perfvec-bench`) is the load generator that measures batched vs
//! unbatched throughput and tail latency.

pub mod batcher;
pub mod cache;
pub mod client;
pub mod engine;
pub mod http;
/// The JSON layer, re-exported from the shared [`perfvec_json`] crate
/// (it moved there so the bench harness's experiment specs and reports
/// share one value model with the wire protocol). Existing
/// `perfvec_serve::json::*` paths keep working.
pub mod json {
    pub use perfvec_json::*;
}
pub mod protocol;
pub mod registry;
pub mod server;

pub use batcher::{BatchError, Batcher, BatcherConfig, BatcherObs, SubmitError};
pub use engine::{EngineConfig, EngineError, PredictEngine, PredictOutcome};
pub use registry::{LoadedModel, ModelRegistry};
pub use server::{start, ServerConfig, ServerHandle};

//! # perfvec-json
//!
//! The workspace's shared JSON layer. Every JSON surface — the
//! `perfvec-serve` wire protocol, the `perfvec` CLI's experiment
//! configs, and the harness's machine-readable experiment reports —
//! goes through this hand-rolled, `std`-only implementation:
//!
//! * [`Json`] — the value model (objects preserve insertion order;
//!   [`Json::sorted`] canonicalizes recursively for stable reports);
//! * [`Json::parse`] — a strict recursive-descent parser with a depth
//!   limit, full escape/surrogate handling, and trailing-garbage
//!   rejection;
//! * [`Json::write`] / [`Json::pretty`] — compact and human-readable
//!   printers whose `f64` formatting uses Rust's shortest-roundtrip
//!   `Display`, so finite numbers survive a print/parse round trip
//!   bit-exactly;
//! * [`ToJson`] / [`FromJson`] — a small trait surface for typed
//!   conversion (primitives, `String`, `Vec<T>`, `Option<T>`).

pub mod convert;
pub mod parse;
pub mod value;

pub use convert::{ConvertError, FromJson, ToJson};
pub use value::{obj, Json, JsonError};

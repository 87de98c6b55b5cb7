//! # perfvec-trace
//!
//! Microarchitecture-independent instruction feature extraction and
//! dataset plumbing for the PerfVec reproduction.
//!
//! The foundation model never sees timing or any
//! microarchitecture-dependent signal; its inputs are the 51 features of
//! the paper's Table I, reproduced exactly by [`features::extract_features`]:
//! static properties (operation flags, register slots), dynamic
//! execution behaviour (faults, branch outcomes), memory behaviour
//! ([`stack_distance`] at cache-line granularity), and branch
//! predictability ([`branch_entropy`], local and global).
//!
//! ```
//! use perfvec_isa::{ProgramBuilder, Reg, Emulator};
//! use perfvec_trace::features::{extract_features, FeatureMask, NUM_FEATURES};
//!
//! let mut b = ProgramBuilder::new();
//! let buf = b.alloc_zeroed(256);
//! b.li(Reg::x(1), buf as i64);
//! b.ld(Reg::x(2), Reg::x(1), 0, 8);
//! b.halt();
//! let prog = b.build();
//! let trace = Emulator::new(&prog).run(100).unwrap();
//!
//! let m = extract_features(&trace, FeatureMask::Full);
//! assert_eq!(m.cols, NUM_FEATURES); // 51, as in the paper
//! assert_eq!(m.rows, trace.len());
//! ```

pub mod binio;
pub mod branch_entropy;
pub mod dataset;
pub mod decoded;
pub mod features;
pub mod fingerprint;
pub mod stack_distance;

pub use dataset::{fill_window, ProgramData};
pub use decoded::{DecodedInst, DecodedTrace};
pub use features::{extract_features, FeatureMask, Matrix, NUM_FEATURES};

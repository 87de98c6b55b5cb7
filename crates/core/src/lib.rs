//! # perfvec
//!
//! A Rust reproduction of **PerfVec** (Li, Flynn, Hoisie — SC 2024):
//! learning generalizable program and microarchitecture representations
//! for performance modeling.
//!
//! The core idea: a **foundation model** maps every executed instruction
//! (plus a window of predecessors, described by 51
//! microarchitecture-independent features) to a d-dimensional
//! representation `R_i`; a **microarchitecture representation** `M` is
//! learned per machine; the **performance predictor** is a bias-free
//! linear model, so an instruction's incremental latency is `R_i . M`
//! and — because incremental latencies sum to total time — a whole
//! program's execution time is `(sum_i R_i) . M`. Program and
//! microarchitecture representations are thereby *independent*: either
//! can be reused against any counterpart.
//!
//! ## Crate map
//!
//! * [`foundation`] — instruction-representation model (+ architecture zoo)
//! * [`march_table`] — learnable representations of sampled machines
//! * [`trainer`] — joint training with microarchitecture sampling and
//!   instruction-representation reuse (Section IV)
//! * [`compose`] — program representation = sum of instruction
//!   representations, through one parallel batched block generator
//!   (or the approximate streaming one)
//! * [`predict`] — dot-product prediction and the paper's error metrics
//! * [`finetune`] — representations of unseen machines with the
//!   foundation frozen (Section V-A)
//! * [`march_model`] — configuration-to-representation MLP for DSE
//! * [`dse`] — the cache-geometry design-space exploration of Section VI-A
//! * [`analysis`] — program-variant sweeps (loop tiling, Section VI-B)
//! * [`data`] — dataset generation against the `perfvec-sim` simulator
//!
//! ## End-to-end sketch
//!
//! ```no_run
//! use perfvec::data::build_program_data;
//! use perfvec::trainer::{train_foundation, TrainConfig};
//! use perfvec::compose::program_representation;
//! use perfvec::predict::predict_total_tenths;
//! use perfvec_sim::sample::training_population;
//! use perfvec_trace::features::{extract_features, FeatureMask};
//! use perfvec_workloads::{training_suite, testing_suite};
//!
//! let configs = training_population(7);
//! let data: Vec<_> = training_suite()
//!     .iter()
//!     .map(|w| build_program_data(&w.name, &w.trace(20_000), &configs, FeatureMask::Full))
//!     .collect();
//! let trained = train_foundation(&data, &TrainConfig::default());
//!
//! // An unseen program: representation once, prediction per machine is a dot.
//! let trace = testing_suite()[0].trace(20_000);
//! let feats = extract_features(&trace, FeatureMask::Full);
//! let rp = program_representation(&trained.foundation, &feats);
//! let t = predict_total_tenths(&rp, trained.march_table.rep(0),
//!                              trained.foundation.target_scale);
//! println!("predicted {t} x 0.1ns");
//! ```

pub mod analysis;
pub mod checkpoint;
pub mod compose;
pub mod data;
pub mod dse;
pub mod finetune;
pub mod foundation;
pub mod march_model;
pub mod march_table;
pub mod predict;
pub mod refit;
pub mod trainer;

pub use compose::{
    program_representation, program_representation_streaming, program_representations_coalesced,
};
pub use foundation::{ArchKind, ArchSpec, Foundation};
pub use march_table::MarchTable;
pub use predict::{evaluate_program, mean_error, predict_total_tenths, EvalRow};
pub use refit::refit_march_table;
pub use trainer::{train_foundation, TrainConfig, TrainedFoundation};

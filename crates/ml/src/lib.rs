//! # perfvec-ml
//!
//! A minimal, from-scratch deep-learning library: the PyTorch substitute
//! in this PerfVec reproduction.
//!
//! Everything the paper's modelling needs and nothing more: flat-parameter
//! layers with hand-written backward passes (verified by finite-difference
//! tests), the six sequence architectures of the Figure 6 ablation
//! ([`seq::SeqModel`]) with batch-major batched forward *and* backward
//! (`forward_batch`/[`seq::SeqModel::backward_batch`], bit-identical per
//! sequence to the scalar passes), window-reading inference
//! ([`seq::SeqModel::forward_windows`], which projects each instruction
//! of a block once for the recurrent models), Adam with the paper's
//! step-decay schedule, MSE loss, and deterministic lane-chunked
//! gradient parallelism ([`parallel::BatchStep`]).
//!
//! ```
//! use perfvec_ml::seq::SeqModel;
//! use perfvec_ml::adam::Adam;
//! use perfvec_ml::loss::{mse, mse_grad};
//!
//! // Train LSTM-1-8 to map a constant window to a target vector.
//! let mut model = SeqModel::lstm(4, 8, 1, 42);
//! let xs = vec![0.5f32; 3 * 4]; // T=3 steps, 4 features
//! let target = vec![0.25f32; 8];
//! let mut opt = Adam::new(model.num_params());
//! let mut params = model.get_params();
//! for _ in 0..200 {
//!     let (y, cache) = model.forward(&xs, 3);
//!     let mut dy = vec![0.0; 8];
//!     mse_grad(&y, &target, &mut dy);
//!     let mut grads = vec![0.0; model.num_params()];
//!     model.backward(&xs, &cache, &dy, &mut grads);
//!     opt.step(&mut params, &grads, 1e-2);
//!     model.set_params(&params);
//! }
//! let (y, _) = model.forward(&xs, 3);
//! assert!(mse(&y, &target) < 1e-3);
//! ```

pub mod adam;
pub mod bilstm;
pub mod gru;
pub mod init;
pub mod linalg;
pub mod linear;
pub mod loss;
pub mod lstm;
pub mod mlp;
pub mod parallel;
pub mod rnn;
pub mod schedule;
pub mod seq;
pub mod tensor;
pub mod transformer;
pub mod window;

pub use adam::Adam;
pub use loss::{abs_rel_error, error_stats, mse, mse_grad};
pub use schedule::StepDecay;
pub use seq::{SeqCache, SeqModel};

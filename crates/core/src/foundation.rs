//! The foundation model: the instruction-representation model of
//! Section III, wrapped with its context length and target scaling.
//!
//! Once trained it is microarchitecture-independent and program-
//! independent: it maps any instruction (plus its `c` predecessors,
//! described by the 51 features of Table I) to a `d`-dimensional
//! representation whose dot product with a microarchitecture
//! representation predicts the instruction's incremental latency.

use perfvec_ml::seq::SeqModel;
use perfvec_trace::features::Matrix;
use perfvec_trace::{fill_window, NUM_FEATURES};

/// Architecture family (the Figure 6 ablation set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchKind {
    /// Flattened-window linear regression.
    Linear,
    /// Flattened-window MLP.
    Mlp,
    /// Unidirectional LSTM (the paper's default).
    Lstm,
    /// Bidirectional LSTM.
    BiLstm,
    /// GRU.
    Gru,
    /// Transformer encoder.
    Transformer,
}

/// An architecture specification: family, depth, representation width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchSpec {
    /// Family.
    pub kind: ArchKind,
    /// Layer count (ignored by `Linear`).
    pub layers: usize,
    /// Representation dimensionality `d`.
    pub dim: usize,
}

impl ArchSpec {
    /// The paper's default foundation architecture, scaled to `dim`
    /// (`LSTM-2-256` at full scale).
    pub fn default_lstm(dim: usize) -> ArchSpec {
        ArchSpec {
            kind: ArchKind::Lstm,
            layers: 2,
            dim,
        }
    }

    /// Instantiate the model for a given window length.
    pub fn build(&self, window: usize, seed: u64) -> SeqModel {
        match self.kind {
            ArchKind::Linear => SeqModel::linear(NUM_FEATURES, self.dim, window, seed),
            ArchKind::Mlp => SeqModel::mlp(NUM_FEATURES, self.dim, window, seed),
            ArchKind::Lstm => SeqModel::lstm(NUM_FEATURES, self.dim, self.layers, seed),
            ArchKind::BiLstm => SeqModel::bilstm(NUM_FEATURES, self.dim, self.layers, seed),
            ArchKind::Gru => SeqModel::gru(NUM_FEATURES, self.dim, self.layers, seed),
            ArchKind::Transformer => {
                SeqModel::transformer(NUM_FEATURES, self.dim, self.layers, seed)
            }
        }
    }
}

/// A (possibly trained) instruction-representation model.
pub struct Foundation {
    /// The sequence model.
    pub model: SeqModel,
    /// Number of preceding instructions in the input window (the paper's
    /// `c`; 255 at full scale).
    pub context: usize,
    /// Scale applied to incremental-latency targets during training
    /// (predictions divide by it to return to 0.1 ns units).
    pub target_scale: f32,
}

impl Foundation {
    /// Fresh, untrained foundation model.
    pub fn new(spec: ArchSpec, context: usize, target_scale: f32, seed: u64) -> Foundation {
        Foundation {
            model: spec.build(context + 1, seed),
            context,
            target_scale,
        }
    }

    /// Window length (`c + 1`).
    pub fn window(&self) -> usize {
        self.context + 1
    }

    /// Representation dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.model.out_dim()
    }

    /// Representation of instruction `i` of a feature matrix, using the
    /// training-time window (zero-padded at the trace head), through one
    /// scalar `forward`. This is the oracle the batched generator in
    /// [`crate::compose`] is tested against, bit for bit.
    pub fn repr_at(&self, features: &Matrix, i: usize) -> Vec<f32> {
        let w = self.window();
        let mut buf = vec![0.0f32; w * NUM_FEATURES];
        fill_window(features, i, self.context, &mut buf);
        let (r, _) = self.model.forward(&buf, w);
        r
    }

    /// Short description, e.g. `LSTM-2-256 (c=255)`.
    pub fn describe(&self) -> String {
        format!("{} (c={})", self.model.describe(), self.context)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_arch_specs_build() {
        for kind in [
            ArchKind::Linear,
            ArchKind::Mlp,
            ArchKind::Lstm,
            ArchKind::BiLstm,
            ArchKind::Gru,
            ArchKind::Transformer,
        ] {
            let spec = ArchSpec {
                kind,
                layers: 2,
                dim: 8,
            };
            let f = Foundation::new(spec, 3, 0.1, 7);
            assert_eq!(f.dim(), 8);
            assert_eq!(f.window(), 4);
        }
    }

    #[test]
    fn repr_at_handles_trace_head_padding() {
        let f = Foundation::new(ArchSpec::default_lstm(8), 4, 0.1, 1);
        let mut m = Matrix::zeros(10, NUM_FEATURES);
        for i in 0..10 {
            m.row_mut(i)[0] = 1.0;
        }
        // Instruction 0 has an all-padding context; must still work.
        let r0 = f.repr_at(&m, 0);
        let r9 = f.repr_at(&m, 9);
        assert_eq!(r0.len(), 8);
        assert!(r0.iter().all(|v| v.is_finite()));
        assert_ne!(
            r0, r9,
            "different contexts should give different representations"
        );
    }

    #[test]
    fn identical_windows_give_identical_representations() {
        let f = Foundation::new(ArchSpec::default_lstm(8), 2, 0.1, 3);
        let mut m = Matrix::zeros(20, NUM_FEATURES);
        for i in 0..20 {
            m.row_mut(i)[i % 5] = 1.0; // period-5 pattern
        }
        // Windows ending at 10 and 15 see identical feature content.
        assert_eq!(f.repr_at(&m, 10), f.repr_at(&m, 15));
    }
}

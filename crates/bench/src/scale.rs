//! Experiment scales.
//!
//! The paper trains an LSTM-2-256 with a 255-instruction context on
//! 737 M instructions for 50 epochs on 8xA100. `Quick` reproduces every
//! protocol at single-core laptop scale; `Full` pushes sizes up for
//! longer runs (still CPU-feasible).

use perfvec::foundation::ArchSpec;
use perfvec::trainer::TrainConfig;
use perfvec_ml::schedule::StepDecay;

/// Experiment scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale runs (the default).
    Quick,
    /// Larger traces, wider models, more epochs.
    Full,
}

impl Scale {
    /// Dynamic instructions collected per workload trace.
    pub fn trace_len(&self) -> u64 {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 60_000,
        }
    }

    /// Training configuration for the foundation model.
    pub fn train_config(&self) -> TrainConfig {
        match self {
            Scale::Quick => TrainConfig {
                arch: ArchSpec::default_lstm(32),
                context: 12,
                epochs: 26,
                batch_size: 32,
                windows_per_epoch: 6_000,
                val_windows: 2_000,
                schedule: StepDecay {
                    initial: 5e-3,
                    gamma: 0.3,
                    every: 9,
                },
                ..TrainConfig::default()
            },
            Scale::Full => TrainConfig {
                arch: ArchSpec::default_lstm(64),
                context: 24,
                epochs: 30,
                batch_size: 32,
                windows_per_epoch: 12_000,
                val_windows: 4_000,
                schedule: StepDecay {
                    initial: 3e-3,
                    gamma: 0.3,
                    every: 10,
                },
                ..TrainConfig::default()
            },
        }
    }

    /// Seed for microarchitecture sampling (kept constant so quick and
    /// full runs see the same 77 machines, and so served checkpoints
    /// line up with the serve stack's default population).
    pub fn march_seed(&self) -> u64 {
        perfvec_sim::sample::DEFAULT_MARCH_SEED
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        assert!(Scale::Quick.trace_len() < Scale::Full.trace_len());
        let q = Scale::Quick.train_config();
        let f = Scale::Full.train_config();
        assert!(q.arch.dim <= f.arch.dim);
        assert!(q.epochs <= f.epochs);
    }
}

//! Cross-program linear predictor (Dubach et al., MICRO'07 flavour).
//!
//! A single linear model over microarchitecture parameters plus a cheap
//! program *signature* (instruction-class mix), trained on a corpus of
//! (program, configuration, time) observations. Transfers to a new
//! program with only a handful of calibration simulations — cheaper than
//! program-specific models, but the linear form and coarse signature cap
//! its accuracy, and it still needs target-program runs (Table III/IV).

use perfvec_isa::Trace;
use perfvec_ml::linalg::ridge_solve;
use perfvec_sim::MicroArchConfig;

/// Program signature: executed-instruction class fractions.
pub fn signature(trace: &Trace) -> Vec<f32> {
    let mix = trace.class_mix();
    let total = trace.len().max(1) as f32;
    mix.iter().map(|&c| c as f32 / total).collect()
}

/// Feature vector for one (signature, configuration) pair: the two
/// blocks plus their outer-product interactions with the clock-relevant
/// leading parameters (keeps the model linear but lets program mix
/// modulate machine sensitivity).
fn features(sig: &[f32], config: &MicroArchConfig) -> Vec<f64> {
    let arch = config.param_vector();
    let mut f: Vec<f64> = Vec::with_capacity(1 + sig.len() + arch.len() + sig.len() * 4);
    f.push(1.0);
    f.extend(sig.iter().map(|&v| v as f64));
    f.extend(arch.iter().map(|&v| v as f64));
    // interactions with core kind, frequency, widths
    for &a in arch.iter().take(4) {
        for &s in sig {
            f.push((a * s) as f64);
        }
    }
    f
}

/// The fitted cross-program model (linear in its `features`, predicting
/// log-time for positivity).
pub struct CrossProgramModel {
    w: Vec<f64>,
    n_features: usize,
}

impl CrossProgramModel {
    /// Fit on a corpus of `(signature, config, total time)` samples.
    pub fn train(samples: &[(Vec<f32>, &MicroArchConfig, f64)]) -> CrossProgramModel {
        assert!(!samples.is_empty());
        let n = features(&samples[0].0, samples[0].1).len();
        let mut xtx = vec![0.0f64; n * n];
        let mut xty = vec![0.0f64; n];
        for (sig, cfg, t) in samples {
            let x = features(sig, cfg);
            let y = t.max(1.0).ln();
            for i in 0..n {
                for j in 0..n {
                    xtx[i * n + j] += x[i] * x[j];
                }
                xty[i] += x[i] * y;
            }
        }
        let w = ridge_solve(&xtx, &xty, n, 1e-4 * samples.len() as f64)
            .expect("ridge system is positive definite");
        CrossProgramModel { w, n_features: n }
    }

    /// Predict total time (0.1 ns) for a program signature on a
    /// configuration.
    pub fn predict(&self, sig: &[f32], config: &MicroArchConfig) -> f64 {
        let x = features(sig, config);
        debug_assert_eq!(x.len(), self.n_features);
        let log_t: f64 = x.iter().zip(&self.w).map(|(a, b)| a * b).sum();
        log_t.clamp(-20.0, 60.0).exp()
    }

    /// Calibrate to a new program: rescale by the geometric-mean ratio
    /// over a few observed (config, time) pairs.
    pub fn calibration(&self, sig: &[f32], observed: &[(&MicroArchConfig, f64)]) -> f64 {
        if observed.is_empty() {
            return 1.0;
        }
        let log_ratio: f64 = observed
            .iter()
            .map(|(c, t)| (t.max(1.0) / self.predict(sig, c).max(1e-9)).ln())
            .sum::<f64>()
            / observed.len() as f64;
        log_ratio.exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvec_sim::sample::sample_configs;
    use perfvec_sim::simulate;
    use perfvec_workloads::{by_name, training_suite};

    #[test]
    fn signature_sums_to_one() {
        let t = by_name("xz").unwrap().trace(2_000);
        let s = signature(&t);
        assert_eq!(s.len(), perfvec_isa::OpClass::COUNT);
        let sum: f32 = s.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn transfers_across_programs_with_calibration() {
        let configs = sample_configs(3, 10, 2);
        // Corpus: three training programs on all configs.
        let mut corpus = Vec::new();
        for w in training_suite().iter().take(3) {
            let trace = w.trace(2_500);
            let sig = signature(&trace);
            for c in &configs {
                corpus.push((sig.clone(), c, simulate(&trace, c).total_tenths));
            }
        }
        let model = CrossProgramModel::train(&corpus);

        // New program: calibrate on 3 configs, evaluate on the rest.
        let target = by_name("perlbench").unwrap().trace(2_500);
        let sig = signature(&target);
        let times: Vec<f64> = configs
            .iter()
            .map(|c| simulate(&target, c).total_tenths)
            .collect();
        let obs: Vec<(&MicroArchConfig, f64)> = configs
            .iter()
            .take(3)
            .zip(times.iter().take(3))
            .map(|(c, &t)| (c, t))
            .collect();
        let k = model.calibration(&sig, &obs);
        let err: f64 = configs[3..]
            .iter()
            .zip(&times[3..])
            .map(|(c, &t)| ((model.predict(&sig, c) * k) - t).abs() / t)
            .sum::<f64>()
            / (configs.len() - 3) as f64;
        assert!(err < 0.8, "cross-program transfer error {err:.3}");
    }
}

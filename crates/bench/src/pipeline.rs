//! Shared experiment pipeline: foundation training and seen/unseen
//! evaluation over the Table II suite. Datasets come from the runner's
//! one dataset stage.

use perfvec::compose::program_representation;
use perfvec::predict::{evaluate_program, EvalRow};
use perfvec::refit::refit_march_table;
use perfvec::trainer::{train_foundation, TrainConfig, TrainedFoundation};
use perfvec_trace::ProgramData;

pub use perfvec::data::SuiteData;

/// Train the foundation, failing when a loss went non-finite: the error
/// names the diverged epoch and the epoch whose parameters were kept.
pub fn train(data: &[ProgramData], cfg: &TrainConfig) -> Result<TrainedFoundation, String> {
    let trained = train_foundation(data, cfg);
    match trained.report.diverged_epoch {
        Some(epoch) => Err(format!(
            "training diverged at epoch {epoch} (non-finite loss); best finite epoch {}",
            trained.report.best_epoch
        )),
        None => Ok(trained),
    }
}

/// Train the foundation on the training programs and refit its
/// microarchitecture table in closed form over all training instructions
/// (the converged fixed point of the paper's long table-SGD schedule).
pub fn train_and_refit(data: &SuiteData, cfg: &TrainConfig) -> Result<TrainedFoundation, String> {
    let mut trained = train(&data.train, cfg)?;
    trained.march_table = refit_march_table(&trained.foundation, &data.train, 3e-3);
    Ok(trained)
}

/// Evaluate a trained foundation on seen (training) and unseen (testing)
/// programs against the machines of its own table; ground truth is the
/// column sums of each dataset (identical to the simulator totals).
pub fn eval_seen_unseen(trained: &TrainedFoundation, data: &SuiteData) -> Vec<EvalRow> {
    let mut rows = Vec::new();
    for (seen, set) in [(true, &data.train), (false, &data.test)] {
        for d in set {
            let rp = program_representation(&trained.foundation, &d.features);
            let truths: Vec<f64> = (0..d.num_marches()).map(|j| d.total_time(j)).collect();
            rows.push(evaluate_program(
                &d.name,
                seen,
                &rp,
                &trained.foundation,
                &trained.march_table,
                &truths,
            ));
        }
    }
    rows
}

/// Mean error over the seen or unseen subset of rows.
pub fn subset_mean(rows: &[EvalRow], seen: bool) -> f64 {
    let sel: Vec<f64> = rows
        .iter()
        .filter(|r| r.seen == seen)
        .map(|r| r.mean)
        .collect();
    if sel.is_empty() {
        0.0
    } else {
        sel.iter().sum::<f64>() / sel.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, seen: bool, mean: f64) -> EvalRow {
        EvalRow {
            program: name.into(),
            seen,
            mean,
            std: 0.0,
            min: 0.0,
            max: mean,
        }
    }

    #[test]
    fn subset_mean_separates_seen_and_unseen() {
        let rows = vec![
            row("a", true, 0.1),
            row("b", true, 0.3),
            row("c", false, 0.5),
        ];
        assert!((subset_mean(&rows, true) - 0.2).abs() < 1e-12);
        assert!((subset_mean(&rows, false) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn diverged_training_is_a_run_error_naming_the_epoch() {
        use perfvec::data::build_program_data;
        use perfvec::foundation::ArchSpec;
        use perfvec_ml::schedule::StepDecay;
        use perfvec_trace::features::FeatureMask;
        let configs = perfvec_sim::sample::predefined_configs();
        let trace = perfvec_workloads::by_name("xz").unwrap().trace(800);
        let data = [build_program_data(
            "xz",
            &trace,
            &configs,
            FeatureMask::Full,
        )];
        let mut cfg = TrainConfig {
            arch: ArchSpec::default_lstm(8),
            context: 4,
            epochs: 3,
            batch_size: 16,
            windows_per_epoch: 200,
            val_windows: 50,
            clip_norm: None,
            ..TrainConfig::default()
        };
        assert!(train(&data, &cfg).is_ok());
        cfg.schedule = StepDecay {
            initial: 1e-3,
            gamma: 1e30,
            every: 1,
        };
        let err = train(&data, &cfg)
            .err()
            .expect("an absurd rate must diverge");
        assert!(err.contains("diverged at epoch 1"), "{err}");
    }

    #[test]
    fn subset_mean_of_empty_subset_is_zero() {
        let rows = vec![row("a", true, 0.1)];
        assert_eq!(subset_mean(&rows, false), 0.0);
    }
}

//! The ablation and utility experiments (`ablation_data`,
//! `ablation_features`, `train_opt`, `tune_ridge`), each recording its
//! metrics into the report as it prints.

use super::{datasets, suite_datasets, RunError};
use crate::chart::bar_chart;
use crate::pipeline::subset_mean;
use crate::report::Report;
use crate::spec::ExperimentSpec;
use perfvec::compose::program_representation;
use perfvec::finetune::{learn_march_reps, FinetuneConfig};
use perfvec::foundation::{ArchSpec, Foundation};
use perfvec::predict::evaluate_program;
use perfvec::refit::{accumulate_normal_equations, solve_table};
use perfvec::trainer::TrainConfig;
use perfvec::MarchTable;
use perfvec_json::{obj, Json};
use perfvec_ml::mlp::Mlp;
use perfvec_ml::schedule::StepDecay;
use perfvec_sim::sample::unseen_population;
use perfvec_sim::MicroArchConfig;
use perfvec_trace::features::{BRANCH_FEATURES, MEM_FEATURES};
use perfvec_trace::ProgramData;
use perfvec_workloads::{suite, training_suite, SuiteRole, Workload};

/// Mean error of `foundation` with `table` over `test`, every program
/// treated as unseen.
fn eval_unseen_programs(foundation: &Foundation, table: &MarchTable, test: &[ProgramData]) -> f64 {
    let rows: Vec<_> = test
        .iter()
        .map(|d| {
            let rp = program_representation(foundation, &d.features);
            let truths: Vec<f64> = (0..d.num_marches()).map(|j| d.total_time(j)).collect();
            evaluate_program(&d.name, false, &rp, foundation, table, &truths)
        })
        .collect();
    subset_mean(&rows, false)
}

/// **Section V-B, training-data volume ablation**: instruction-volume
/// and microarchitecture-count sweeps.
pub fn ablation_data(spec: &ExperimentSpec, report: &mut Report) -> Result<(), RunError> {
    let scale = spec.scale;
    let trace_len = spec.trace_len_or(scale.trace_len() / 2);
    perfvec_obs::info!(
        "ablations",
        "[ablation_data] generating datasets ({trace_len} instrs/program)..."
    );
    let configs = spec.march_configs();
    let data = suite_datasets(spec, report, &configs, trace_len);
    let mut cfg = scale.train_config();
    cfg.epochs /= 2;
    cfg.windows_per_epoch /= 2;

    // --- (a) instruction-volume sweep ---
    let mut series = Vec::new();
    let mut volume_rows = Vec::new();
    for pct in [10usize, 50, 100] {
        let subset: Vec<ProgramData> = data
            .train
            .iter()
            .map(|d| d.truncated(d.len() * pct / 100))
            .collect();
        let trained = crate::pipeline::train(&subset, &cfg)?;
        let err = eval_unseen_programs(&trained.foundation, &trained.march_table, &data.test);
        perfvec_obs::info!(
            "ablations",
            "[ablation_data] {pct:>3}% of instructions -> unseen error {:.1}%",
            err * 100.0
        );
        series.push((format!("{pct}% instrs"), err * 100.0));
        volume_rows.push(obj(vec![
            ("instr_pct", Json::Num(pct as f64)),
            ("unseen_error", Json::Num(err)),
        ]));
    }
    report.lap("volume_sweep");
    println!(
        "{}",
        bar_chart(
            "Training-data volume: unseen-program error vs instruction count",
            "%",
            &series
        )
    );
    report.metric("volume_sweep", Json::Arr(volume_rows));

    // --- (b) microarchitecture-count sweep: 20 vs 77 machines ---
    perfvec_obs::info!(
        "ablations",
        "[ablation_data] microarchitecture-count sweep (20 vs 77)..."
    );
    let unseen_m = unseen_population(spec.seed);
    let tuning_workloads: Vec<Workload> = suite()
        .into_iter()
        .filter(|w| w.role == SuiteRole::Training)
        .take(3)
        .collect();
    let mask = spec.feature_mask;
    let tuning_full = datasets(spec, report, &tuning_workloads, &unseen_m, trace_len, mask);
    let testing_workloads: Vec<Workload> = suite()
        .into_iter()
        .filter(|w| w.role == SuiteRole::Testing)
        .collect();
    let test_unseen_m = datasets(spec, report, &testing_workloads, &unseen_m, trace_len, mask);

    let mut table = Vec::new();
    for k in [20usize, 77] {
        let keep: Vec<usize> = (0..k).collect();
        let subset: Vec<ProgramData> = data
            .train
            .iter()
            .map(|d| d.with_march_subset(&keep))
            .collect();
        let trained = crate::pipeline::train(&subset, &cfg)?;
        // unseen programs, seen machines
        let test_seen_m: Vec<ProgramData> = data
            .test
            .iter()
            .map(|d| d.with_march_subset(&keep))
            .collect();
        let prog_err =
            eval_unseen_programs(&trained.foundation, &trained.march_table, &test_seen_m);
        // unseen machines: fine-tune reps, evaluate unseen programs
        let (ft_table, _) = learn_march_reps(
            &trained.foundation,
            &tuning_full,
            &FinetuneConfig::default(),
        );
        let march_err = eval_unseen_programs(&trained.foundation, &ft_table, &test_unseen_m);
        perfvec_obs::info!(
            "ablations",
            "[ablation_data] {k} machines -> unseen-program {:.1}%, unseen-march {:.1}%",
            prog_err * 100.0,
            march_err * 100.0
        );
        table.push((k, prog_err, march_err));
    }
    report.lap("march_count_sweep");
    println!("== Microarchitecture-count ablation ==");
    println!(
        "{:>10} {:>22} {:>22}",
        "machines", "unseen-program error", "unseen-march error"
    );
    for (k, p, m) in &table {
        println!("{:>10} {:>21.1}% {:>21.1}%", k, p * 100.0, m * 100.0);
    }
    let d_prog = table[0].1 - table[1].1;
    let d_march = table[0].2 - table[1].2;
    println!(
        "dropping 77 -> 20 machines costs {:+.1}pp on unseen programs, {:+.1}pp on unseen machines",
        d_prog * 100.0,
        d_march * 100.0
    );
    report.metric(
        "march_count_sweep",
        Json::Arr(
            table
                .iter()
                .map(|(k, p, m)| {
                    obj(vec![
                        ("machines", Json::Num(*k as f64)),
                        ("unseen_program_error", Json::Num(*p)),
                        ("unseen_march_error", Json::Num(*m)),
                    ])
                })
                .collect(),
        ),
    );
    Ok(())
}

/// Zero the memory/branch feature block of an existing dataset (the
/// targets are identical, so there is no need to re-simulate).
fn masked(d: &ProgramData) -> ProgramData {
    let mut out = d.clone();
    for i in 0..out.features.rows {
        let row = out.features.row_mut(i);
        row[MEM_FEATURES.start..BRANCH_FEATURES.end].fill(0.0);
    }
    out
}

/// **Section V-B, feature ablation**: train with and without the
/// memory/branch-predictability features.
pub fn ablation_features(spec: &ExperimentSpec, report: &mut Report) -> Result<(), RunError> {
    let scale = spec.scale;
    let trace_len = spec.trace_len_or(scale.trace_len() / 2);
    perfvec_obs::info!("ablations", "[ablation_features] generating datasets...");
    let configs = spec.march_configs();
    // The spec cannot set `features` for this kind, so these datasets
    // carry the full mask; the ablated copies are masked below.
    let data = suite_datasets(spec, report, &configs, trace_len);
    let mut cfg = scale.train_config();
    cfg.epochs /= 2;
    cfg.windows_per_epoch /= 2;

    perfvec_obs::info!(
        "ablations",
        "[ablation_features] training with all 51 features..."
    );
    let full = crate::pipeline::train(&data.train, &cfg)?;
    let full_err = eval_unseen_programs(&full.foundation, &full.march_table, &data.test);
    let full_secs = report.lap("full_train");
    perfvec_obs::info!(
        "ablations",
        "[ablation_features] full-feature model in {full_secs:.1}s; training without memory/branch features..."
    );
    let masked_train: Vec<ProgramData> = data.train.iter().map(masked).collect();
    let masked_test: Vec<ProgramData> = data.test.iter().map(masked).collect();
    let ablated = crate::pipeline::train(&masked_train, &cfg)?;
    let ablated_err = eval_unseen_programs(&ablated.foundation, &ablated.march_table, &masked_test);
    report.lap("masked_train");

    println!(
        "{}",
        bar_chart(
            "Feature ablation: mean unseen-program error",
            "%",
            &[
                ("all 51 features".to_string(), full_err * 100.0),
                ("no memory/branch feats".to_string(), ablated_err * 100.0),
            ]
        )
    );
    println!(
        "removing stack-distance + branch-entropy features: {:.1}% -> {:.1}% ({:.1}x)",
        full_err * 100.0,
        ablated_err * 100.0,
        ablated_err / full_err.max(1e-9)
    );
    report.metric_f64("full_features_error", full_err);
    report.metric_f64("ablated_features_error", ablated_err);
    report.metric_f64("error_ratio", ablated_err / full_err.max(1e-9));
    Ok(())
}

/// **Section IV training-cost claims**: representation reuse and
/// microarchitecture-sampling parameter counts.
pub fn train_opt(spec: &ExperimentSpec, report: &mut Report) -> Result<(), RunError> {
    perfvec_obs::info!("ablations", "[train_opt] generating datasets...");
    let configs = spec.march_configs();
    let workloads: Vec<_> = training_suite().into_iter().take(3).collect();
    let trace_len = spec.trace_len_or(8_000);
    let data = datasets(
        spec,
        report,
        &workloads,
        &configs,
        trace_len,
        spec.feature_mask,
    );

    println!("== Representation reuse: one-epoch wall time vs sampled machines ==");
    println!(
        "{:>6} {:>14} {:>14} {:>9}",
        "k", "naive (s)", "reuse (s)", "speedup"
    );
    let mut reuse_rows = Vec::new();
    for k in [1usize, 5, 20, 77] {
        let keep: Vec<usize> = (0..k).collect();
        let subset: Vec<_> = data.iter().map(|d| d.with_march_subset(&keep)).collect();
        let mut times = [0.0f64; 2];
        for (slot, reuse) in [(0usize, false), (1, true)] {
            let cfg = TrainConfig {
                arch: ArchSpec::default_lstm(16),
                context: 8,
                epochs: 1,
                batch_size: 32,
                // Same window budget in both modes: the comparison
                // isolates the per-window cost, not the schedule.
                windows_per_epoch: 300,
                val_windows: 0,
                schedule: StepDecay::paper_default(),
                reuse,
                ..TrainConfig::default()
            };
            let trained = crate::pipeline::train(&subset, &cfg)?;
            times[slot] = trained.report.wall_seconds;
        }
        println!(
            "{:>6} {:>14.2} {:>14.2} {:>8.1}x",
            k,
            times[0],
            times[1],
            times[0] / times[1].max(1e-9)
        );
        reuse_rows.push(obj(vec![
            ("k", Json::Num(k as f64)),
            ("naive_seconds", Json::Num(times[0])),
            ("reuse_seconds", Json::Num(times[1])),
            ("speedup", Json::Num(times[0] / times[1].max(1e-9))),
        ]));
    }
    report.metric("reuse_sweep", Json::Arr(reuse_rows));
    report.lap("reuse_sweep");

    println!();
    println!("== Microarchitecture sampling: trainable parameter comparison ==");
    let k = 77;
    let d = 256;
    let table_params = k * d;
    // The paper's hypothetical configuration->representation model:
    // 1000 inputs, 1000 hidden, d outputs.
    let hypothetical = Mlp::new(&[1000, 1000, d], 0).params().len();
    // And a realistic small one over this simulator's parameter vector.
    let realistic = Mlp::new(&[MicroArchConfig::PARAM_DIM, 256, d], 0)
        .params()
        .len();
    println!(
        "representation table (77 x 256):              {:>10} parameters",
        table_params
    );
    println!(
        "hypothetical config->rep model (1000-1000-d):  {:>10} parameters",
        hypothetical
    );
    println!(
        "small config->rep model over {} params:        {:>10} parameters",
        MicroArchConfig::PARAM_DIM,
        realistic
    );
    println!(
        "sampling trains {:.0}x fewer microarchitecture-side parameters than the hypothetical model",
        hypothetical as f64 / table_params as f64
    );
    report.metric_f64("table_params", table_params as f64);
    report.metric_f64("hypothetical_model_params", hypothetical as f64);
    report.metric_f64("small_model_params", realistic as f64);
    Ok(())
}

/// Refit ridge-strength sweep on one trained model (scratch utility).
pub fn tune_ridge(spec: &ExperimentSpec, report: &mut Report) -> Result<(), RunError> {
    let scale = spec.scale;
    let configs = spec.march_configs();
    let data = suite_datasets(spec, report, &configs, spec.trace_len_or(scale.trace_len()));
    let cfg = scale.train_config();
    let trained = crate::pipeline::train(&data.train, &cfg)?;
    report.lap("train");
    perfvec_obs::info!(
        "ablations",
        "trained; accumulating normal equations + reps..."
    );
    let eq = accumulate_normal_equations(&trained.foundation, &data.train);
    let reps: Vec<(String, bool, Vec<f32>, Vec<f64>)> = data
        .train
        .iter()
        .map(|d| (d.name.clone(), true, d, ()))
        .map(|(n, s, d, _)| {
            let rp = program_representation(&trained.foundation, &d.features);
            let tr: Vec<f64> = (0..d.num_marches()).map(|j| d.total_time(j)).collect();
            (n, s, rp, tr)
        })
        .chain(data.test.iter().map(|d| {
            let rp = program_representation(&trained.foundation, &d.features);
            let tr: Vec<f64> = (0..d.num_marches()).map(|j| d.total_time(j)).collect();
            (d.name.clone(), false, rp, tr)
        }))
        .collect();
    let mut ridge_rows = Vec::new();
    for ridge in [1e-8, 1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1] {
        let table = solve_table(&eq, ridge);
        let rows: Vec<_> = reps
            .iter()
            .map(|(n, s, rp, tr)| evaluate_program(n, *s, rp, &trained.foundation, &table, tr))
            .collect();
        println!(
            "ridge {ridge:>8.0e}: seen {:5.1}%  unseen {:5.1}%",
            subset_mean(&rows, true) * 100.0,
            subset_mean(&rows, false) * 100.0
        );
        ridge_rows.push(obj(vec![
            ("ridge", Json::Num(ridge)),
            ("seen_error", Json::Num(subset_mean(&rows, true))),
            ("unseen_error", Json::Num(subset_mean(&rows, false))),
        ]));
    }
    // Also the SGD table without refit:
    let rows: Vec<_> = reps
        .iter()
        .map(|(n, s, rp, tr)| {
            evaluate_program(n, *s, rp, &trained.foundation, &trained.march_table, tr)
        })
        .collect();
    println!(
        "sgd table     : seen {:5.1}%  unseen {:5.1}%",
        subset_mean(&rows, true) * 100.0,
        subset_mean(&rows, false) * 100.0
    );
    report.lap("ridge_sweep");
    report.metric("ridge_sweep", Json::Arr(ridge_rows));
    report.metric_f64("sgd_seen_error", subset_mean(&rows, true));
    report.metric_f64("sgd_unseen_error", subset_mean(&rows, false));
    Ok(())
}

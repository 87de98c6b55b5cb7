//! The figure experiments (fig3–fig8) plus the `custom` pipeline, each
//! recording its metrics into the report as it prints.

use super::{datasets, rows_json, suite_datasets, RunError};
use crate::chart::{bar_chart, dual_series, error_chart, surface};
use crate::pipeline::{eval_seen_unseen, subset_mean, train_and_refit, SuiteData};
use crate::report::Report;
use crate::spec::{ExperimentKind, ExperimentSpec};
use perfvec::compose::{program_representation, program_representation_streaming};
use perfvec::dse::{cache_param_vector, objective, with_cache_sizes, CacheGrid, DseOutcome};
use perfvec::finetune::{cache_representations, learn_march_reps, FinetuneConfig};
use perfvec::foundation::{ArchKind, ArchSpec};
use perfvec::march_model::{train_march_model, MarchModelConfig};
use perfvec::predict::{evaluate_program, predict_total_tenths};
use perfvec::trainer::TrainConfig;
use perfvec_isa::Emulator;
use perfvec_json::{obj, Json};
use perfvec_sim::sample::{predefined_configs, unseen_population};
use perfvec_sim::simulate;
use perfvec_trace::features::extract_features;
use perfvec_workloads::matmul::matmul_tiled;
use perfvec_workloads::{suite, SuiteRole, Workload};

/// Build the training config a spec selects: the scale's config, with
/// the `custom` kind's params overriding individual knobs.
fn train_config(spec: &ExperimentSpec) -> Result<TrainConfig, RunError> {
    let mut cfg = spec.scale.train_config();
    if spec.kind == ExperimentKind::Custom {
        cfg.arch.dim = spec.param_usize("dim", cfg.arch.dim)?;
        cfg.context = spec.param_usize("context", cfg.context)?;
        cfg.epochs = spec.param_usize("epochs", cfg.epochs as usize)? as u32;
        cfg.windows_per_epoch = spec.param_usize("windows_per_epoch", cfg.windows_per_epoch)?;
        cfg.val_windows = spec.param_usize("val_windows", cfg.val_windows)?;
        cfg.batch_size = spec.param_usize("batch_size", cfg.batch_size)?;
    }
    Ok(cfg)
}

/// **Figure 3** (and the generic `custom` pipeline): train the
/// foundation on the spec's machine population and report
/// seen/unseen-program error against the simulator.
pub fn fig3_like(spec: &ExperimentSpec, report: &mut Report) -> Result<(), RunError> {
    let tag = spec.kind.name();
    let scale = spec.scale;
    let configs = spec.march_configs();
    let resolved = crate::programs::resolve_suite(spec).map_err(RunError)?;
    let trace_len = spec.trace_len_or(scale.trace_len());
    // Run every external program once before dataset generation: a trap
    // must surface its source diagnostic, not a panic mid-pipeline.
    crate::programs::preflight(&resolved, trace_len).map_err(RunError)?;
    report.lap("preflight");
    perfvec_obs::info!(
        "figures",
        "[{tag}] generating datasets ({} programs x {} microarchitectures)...",
        resolved.workloads.len(),
        configs.len()
    );
    let workloads = &resolved.workloads;
    let parts = datasets(
        spec,
        report,
        workloads,
        &configs,
        trace_len,
        spec.feature_mask,
    );
    let data = SuiteData::assemble_from(workloads, parts);
    perfvec_obs::info!("figures", "[{tag}] training foundation model...");

    let cfg = train_config(spec)?;
    let trained = train_and_refit(&data, &cfg)?;
    report.lap("train");
    perfvec_obs::info!(
        "figures",
        "[{tag}] trained {} in {:.1}s (best epoch {}, val loss {:.4})",
        trained.foundation.describe(),
        trained.report.wall_seconds,
        trained.report.best_epoch,
        trained.report.val_loss[trained.report.best_epoch as usize],
    );

    let rows = eval_seen_unseen(&trained, &data);
    report.lap("eval");
    let title = match spec.kind {
        ExperimentKind::Fig3 => {
            "Figure 3: prediction error, seen + unseen programs, seen microarchitectures"
                .to_string()
        }
        _ => format!(
            "Custom experiment: prediction error on {} machines ({} features)",
            configs.len(),
            crate::spec::mask_name(spec.feature_mask)
        ),
    };
    println!("{}", error_chart(&title, &rows));
    println!(
        "seen-program mean error   {:>5.1}%",
        subset_mean(&rows, true) * 100.0
    );
    println!(
        "unseen-program mean error {:>5.1}%",
        subset_mean(&rows, false) * 100.0
    );
    report.metric_f64("seen_mean_error", subset_mean(&rows, true));
    report.metric_f64("unseen_mean_error", subset_mean(&rows, false));
    report.metric("model", Json::Str(trained.foundation.describe()));
    report.metric_f64("marches", configs.len() as f64);
    report.metric("rows", rows_json(&rows));
    Ok(())
}

/// **Figure 4**: retrain with `519.lbm-like` moved into the training
/// set and report the error collapse.
pub fn fig4(spec: &ExperimentSpec, report: &mut Report) -> Result<(), RunError> {
    let scale = spec.scale;
    perfvec_obs::info!("figures", "[fig4] generating datasets...");
    let configs = spec.march_configs();
    let trace_len = spec.trace_len_or(scale.trace_len());
    let data = suite_datasets(spec, report, &configs, trace_len);
    let cfg = scale.train_config();

    perfvec_obs::info!(
        "figures",
        "[fig4] training on the Table II split (lbm unseen)..."
    );
    let base = train_and_refit(&data, &cfg)?;
    let base_secs = report.lap("base_train");
    let base_rows = eval_seen_unseen(&base, &data);
    report.lap("base_eval");

    // Move lbm into the training set.
    let mut train = data.train.clone();
    let mut test = Vec::new();
    for d in &data.test {
        if d.name.contains("lbm") {
            train.push(d.clone());
        } else {
            test.push(d.clone());
        }
    }
    let moved = SuiteData { train, test };
    perfvec_obs::info!(
        "figures",
        "[fig4] base model in {base_secs:.1}s; retraining with 519.lbm-like in the training set..."
    );
    let updated = train_and_refit(&moved, &cfg)?;
    report.lap("retrain");
    let rows = eval_seen_unseen(&updated, &moved);
    report.lap("eval");

    let lbm_before = base_rows
        .iter()
        .find(|r| r.program.contains("lbm"))
        .map(|r| r.mean)
        .unwrap_or(f64::NAN);
    let lbm_after = rows
        .iter()
        .find(|r| r.program.contains("lbm"))
        .map(|r| r.mean)
        .unwrap_or(f64::NAN);

    println!(
        "{}",
        error_chart(
            "Figure 4: accuracy after moving 519.lbm-like into training",
            &rows
        )
    );
    println!(
        "519.lbm-like mean error: {:.1}% (unseen) -> {:.1}% (seen)",
        lbm_before * 100.0,
        lbm_after * 100.0
    );
    println!(
        "unseen mean error: {:.1}% (before) -> {:.1}% (after, excl. lbm)",
        subset_mean(&base_rows, false) * 100.0,
        subset_mean(&rows, false) * 100.0
    );
    println!(
        "seen mean error: {:.1}% (before) -> {:.1}% (after)",
        subset_mean(&base_rows, true) * 100.0,
        subset_mean(&rows, true) * 100.0
    );
    report.metric_f64("lbm_error_before", lbm_before);
    report.metric_f64("lbm_error_after", lbm_after);
    report.metric_f64("unseen_mean_error_before", subset_mean(&base_rows, false));
    report.metric_f64("unseen_mean_error_after", subset_mean(&rows, false));
    report.metric_f64("seen_mean_error_before", subset_mean(&base_rows, true));
    report.metric_f64("seen_mean_error_after", subset_mean(&rows, true));
    report.metric("rows", rows_json(&rows));
    Ok(())
}

/// **Figure 5**: unseen-microarchitecture error via fine-tuned machine
/// representations.
pub fn fig5(spec: &ExperimentSpec, report: &mut Report) -> Result<(), RunError> {
    let scale = spec.scale;
    perfvec_obs::info!(
        "figures",
        "[fig5] generating datasets + training foundation..."
    );
    let configs = spec.march_configs();
    let trace_len = spec.trace_len_or(scale.trace_len());
    let data = suite_datasets(spec, report, &configs, trace_len);
    let trained = train_and_refit(&data, &scale.train_config())?;
    report.lap("train");

    // 10 fresh machines; tuning data = 3 seen programs simulated on them.
    let unseen = unseen_population(spec.seed);
    perfvec_obs::info!(
        "figures",
        "[fig5] fine-tuning representations of {} unseen machines...",
        unseen.len()
    );
    let tuning_workloads: Vec<Workload> = suite()
        .into_iter()
        .filter(|w| w.role == SuiteRole::Training)
        .take(3)
        .collect();
    let mask = spec.feature_mask;
    let tuning = datasets(spec, report, &tuning_workloads, &unseen, trace_len, mask);
    let ft = FinetuneConfig {
        windows: 5_000,
        epochs: 40,
        ..Default::default()
    };
    let (march_table, ft_loss) = learn_march_reps(&trained.foundation, &tuning, &ft);
    let ft_secs = report.lap("finetune");
    perfvec_obs::info!(
        "figures",
        "[fig5] fine-tuned in {ft_secs:.1}s (final loss {ft_loss:.4}); evaluating all programs..."
    );

    // Evaluate every program on the unseen machines.
    let eval_data = datasets(spec, report, &suite(), &unseen, trace_len, mask);
    let mut rows = Vec::new();
    for (w, d) in suite().iter().zip(&eval_data) {
        let rp = program_representation(&trained.foundation, &d.features);
        let truths: Vec<f64> = (0..d.num_marches()).map(|j| d.total_time(j)).collect();
        rows.push(evaluate_program(
            &w.name,
            w.role == SuiteRole::Training,
            &rp,
            &trained.foundation,
            &march_table,
            &truths,
        ));
    }
    let eval_secs = report.lap("eval");
    perfvec_obs::info!("figures", "[fig5] evaluated in {eval_secs:.1}s");
    println!(
        "{}",
        error_chart(
            "Figure 5: prediction error on 10 unseen microarchitectures",
            &rows
        )
    );
    println!(
        "seen-program mean error   {:>5.1}%",
        subset_mean(&rows, true) * 100.0
    );
    println!(
        "unseen-program mean error {:>5.1}%",
        subset_mean(&rows, false) * 100.0
    );
    report.metric_f64("seen_mean_error", subset_mean(&rows, true));
    report.metric_f64("unseen_mean_error", subset_mean(&rows, false));
    report.metric_f64("finetune_loss", ft_loss);
    report.metric_f64("unseen_machines", unseen.len() as f64);
    report.metric("rows", rows_json(&rows));
    Ok(())
}

/// **Figure 6**: foundation-architecture ablation.
pub fn fig6(spec: &ExperimentSpec, report: &mut Report) -> Result<(), RunError> {
    let scale = spec.scale;
    // Reduced budget: the ablation compares architectures *relative* to
    // one another, so every candidate gets the same smaller dataset and
    // schedule.
    let trace_len = spec.trace_len_or(scale.trace_len() / 2);
    perfvec_obs::info!(
        "figures",
        "[fig6] generating ablation datasets ({trace_len} instrs/program)..."
    );
    let configs = spec.march_configs();
    let data = suite_datasets(spec, report, &configs, trace_len);
    let (train, test) = (data.train, data.test);

    let d = 32usize;
    let candidates: Vec<ArchSpec> = vec![
        ArchSpec {
            kind: ArchKind::Linear,
            layers: 1,
            dim: d,
        },
        ArchSpec {
            kind: ArchKind::Mlp,
            layers: 2,
            dim: d,
        },
        ArchSpec {
            kind: ArchKind::Gru,
            layers: 2,
            dim: d,
        },
        ArchSpec {
            kind: ArchKind::BiLstm,
            layers: 1,
            dim: d,
        },
        ArchSpec {
            kind: ArchKind::Transformer,
            layers: 2,
            dim: d,
        },
        ArchSpec {
            kind: ArchKind::Lstm,
            layers: 1,
            dim: d,
        },
        ArchSpec {
            kind: ArchKind::Lstm,
            layers: 2,
            dim: d,
        },
        ArchSpec {
            kind: ArchKind::Lstm,
            layers: 3,
            dim: d,
        },
        ArchSpec {
            kind: ArchKind::Lstm,
            layers: 4,
            dim: d,
        },
        ArchSpec {
            kind: ArchKind::Lstm,
            layers: 2,
            dim: 8,
        },
        ArchSpec {
            kind: ArchKind::Lstm,
            layers: 2,
            dim: 16,
        },
        ArchSpec {
            kind: ArchKind::Lstm,
            layers: 2,
            dim: 64,
        },
    ];

    let mut series = Vec::new();
    let mut arch_rows = Vec::new();
    for spec_arch in candidates {
        let mut cfg = scale.train_config();
        cfg.arch = spec_arch;
        cfg.epochs /= 2;
        cfg.windows_per_epoch /= 2;
        let trained = crate::pipeline::train(&train, &cfg)?;
        // Evaluate on unseen programs only (what Figure 6 reports);
        // stream-capable architectures get a second pass through the
        // single-pass streaming generator for comparison.
        let streams = trained.foundation.model.supports_streaming();
        let warmup = 4 * cfg.context;
        let mut errs = Vec::new();
        let mut stream_errs = Vec::new();
        for d in &test {
            let truths: Vec<f64> = (0..d.num_marches()).map(|j| d.total_time(j)).collect();
            let rp = program_representation(&trained.foundation, &d.features);
            let row = evaluate_program(
                &d.name,
                false,
                &rp,
                &trained.foundation,
                &trained.march_table,
                &truths,
            );
            errs.push(row.mean);
            if streams {
                let srp =
                    program_representation_streaming(&trained.foundation, &d.features, 512, warmup)
                        .expect("streaming support checked above");
                let srow = evaluate_program(
                    &d.name,
                    false,
                    &srp,
                    &trained.foundation,
                    &trained.march_table,
                    &truths,
                );
                stream_errs.push(srow.mean);
            }
        }
        let unseen_err = errs.iter().sum::<f64>() / errs.len() as f64;
        let name = trained.foundation.model.describe();
        let mut arch_row = vec![
            ("arch".to_string(), Json::Str(name.clone())),
            ("unseen_error".to_string(), Json::Num(unseen_err)),
        ];
        if streams {
            let stream_err = stream_errs.iter().sum::<f64>() / stream_errs.len() as f64;
            arch_row.push(("streaming_error".to_string(), Json::Num(stream_err)));
            perfvec_obs::info!(
                "figures",
                "[fig6] {:<18} unseen error {:5.1}%  (streaming fast path {:5.1}%)  ({:.0}s train)",
                name,
                unseen_err * 100.0,
                stream_err * 100.0,
                trained.report.wall_seconds
            );
        } else {
            perfvec_obs::info!(
                "figures",
                "[fig6] {:<18} unseen error {:5.1}%  ({:.0}s train)",
                name,
                unseen_err * 100.0,
                trained.report.wall_seconds
            );
        }
        arch_rows.push(Json::Obj(arch_row));
        series.push((name, unseen_err * 100.0));
    }
    report.lap("candidate_sweep");
    println!(
        "{}",
        bar_chart(
            "Figure 6: mean unseen-program error by foundation architecture",
            "%",
            &series
        )
    );
    report.metric("architectures", Json::Arr(arch_rows));
    Ok(())
}

/// **Figure 7**: L1/L2 cache design-space exploration.
pub fn fig7(spec: &ExperimentSpec, report: &mut Report) -> Result<(), RunError> {
    let scale = spec.scale;
    perfvec_obs::info!("figures", "[fig7] training foundation model...");
    let configs = spec.march_configs();
    let trace_len = spec.trace_len_or(scale.trace_len());
    let data = suite_datasets(spec, report, &configs, trace_len);
    let trained = train_and_refit(&data, &scale.train_config())?;
    report.lap("train");
    let base = predefined_configs()
        .into_iter()
        .find(|c| c.name == "cortex-a7-like")
        .unwrap();
    let grid = CacheGrid::default();
    let points = grid.points();

    // --- step 1: tuning dataset: 18 sampled cache configs x 3 programs.
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xd5e7);
    let mut sampled = points.clone();
    sampled.shuffle(&mut rng);
    sampled.truncate(18);
    let tune_configs: Vec<_> = sampled
        .iter()
        .map(|&(l1, l2)| with_cache_sizes(&base, l1, l2))
        .collect();
    let tune_params: Vec<Vec<f32>> = sampled
        .iter()
        .map(|&(l1, l2)| cache_param_vector(l1, l2))
        .collect();
    perfvec_obs::info!(
        "figures",
        "[fig7] collecting DSE tuning data (18 configs x 3 programs)..."
    );
    let tuning_workloads: Vec<_> = suite().into_iter().take(3).collect();
    let mask = spec.feature_mask;
    let tuning = datasets(
        spec,
        report,
        &tuning_workloads,
        &tune_configs,
        trace_len,
        mask,
    );

    // --- step 2: train the microarchitecture representation model.
    perfvec_obs::info!(
        "figures",
        "[fig7] training the cache-size representation model..."
    );
    let cached = cache_representations(&trained.foundation, &tuning, 5_000, 0x715e);
    let (march_model, loss) = train_march_model(
        &cached,
        &tune_params,
        trained.foundation.dim(),
        trained.foundation.target_scale,
        &MarchModelConfig {
            epochs: 80,
            ..Default::default()
        },
    );
    report.lap("march_model");
    perfvec_obs::info!(
        "figures",
        "[fig7] representation model trained (loss {loss:.4}); sweeping the grid..."
    );

    // --- step 3: sweep all programs over the full grid.
    let mut outcomes: Vec<DseOutcome> = Vec::new();
    let mut namd_surfaces: Option<(Vec<f64>, Vec<f64>)> = None;
    for w in suite() {
        let trace = w.trace(trace_len);
        let feats = extract_features(&trace, spec.feature_mask);
        let rp = program_representation(&trained.foundation, &feats);
        let mut true_obj = Vec::with_capacity(points.len());
        let mut pred_obj = Vec::with_capacity(points.len());
        for &(l1, l2) in &points {
            let cfg = with_cache_sizes(&base, l1, l2);
            let sim_t = simulate(&trace, &cfg).total_tenths;
            let pred_t = march_model.predict_total_tenths(&rp, &cache_param_vector(l1, l2));
            true_obj.push(objective(l1, l2, sim_t));
            pred_obj.push(objective(l1, l2, pred_t.max(0.0)));
        }
        let arg_min = |v: &[f64]| {
            v.iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap()
        };
        let outcome = DseOutcome {
            program: w.name.to_string(),
            true_best: arg_min(&true_obj),
            pred_best: arg_min(&pred_obj),
            true_objective: true_obj.clone(),
            pred_objective: pred_obj.clone(),
        };
        if w.name.contains("namd") {
            namd_surfaces = Some((true_obj, pred_obj));
        }
        outcomes.push(outcome);
    }
    report.lap("grid_sweep");

    // --- report.
    let row_labels: Vec<String> = grid.l2_kb.iter().map(|l2| format!("L2 {l2}kB")).collect();
    let col_labels: Vec<String> = grid.l1_kb.iter().map(|l1| format!("L1 {l1}k")).collect();
    if let Some((sim_s, pred_s)) = namd_surfaces {
        println!(
            "{}",
            surface(
                "Figure 7a: 508.namd-like objective surface (simulation)",
                &row_labels,
                &col_labels,
                &sim_s
            )
        );
        println!(
            "{}",
            surface(
                "Figure 7b: 508.namd-like objective surface (PerfVec)",
                &row_labels,
                &col_labels,
                &pred_s
            )
        );
    }
    let mut optimal = 0;
    let mut top2 = 0;
    let mut top3 = 0;
    let mut top5 = 0;
    for o in &outcomes {
        let rank = o.selected_rank();
        optimal += (rank == 0) as u32;
        top2 += (rank < 2) as u32;
        top3 += (rank < 3) as u32;
        top5 += (rank < 5) as u32;
    }
    let mean_quality: f64 =
        outcomes.iter().map(|o| o.quality()).sum::<f64>() / outcomes.len() as f64;
    println!("selected design is optimal for {optimal}/17 programs");
    println!("within top-2 for {top2}/17, top-3 for {top3}/17, top-5 for {top5}/17");
    println!(
        "mean quality (fraction of designs beating the selection): {:.1}%",
        mean_quality * 100.0
    );
    report.metric_f64("optimal_programs", optimal as f64);
    report.metric_f64("top2_programs", top2 as f64);
    report.metric_f64("top3_programs", top3 as f64);
    report.metric_f64("top5_programs", top5 as f64);
    report.metric_f64("mean_quality", mean_quality);
    report.metric_f64("march_model_loss", loss);
    Ok(())
}

/// **Figure 8**: matmul loop-tiling analysis on cortex-a7-like.
pub fn fig8(spec: &ExperimentSpec, report: &mut Report) -> Result<(), RunError> {
    let scale = spec.scale;
    perfvec_obs::info!("figures", "[fig8] training foundation model...");
    let configs = spec.march_configs();
    let trace_len = spec.trace_len_or(scale.trace_len());
    let data = suite_datasets(spec, report, &configs, trace_len);
    let trained = train_and_refit(&data, &scale.train_config())?;
    report.lap("train");
    // cortex-a7-like is one of the 7 predefined training machines: its
    // representation comes straight from the learned table.
    let a7_idx = configs
        .iter()
        .position(|c| c.name == "cortex-a7-like")
        .ok_or_else(|| {
            RunError(
                "fig8 needs cortex-a7-like in the march population (don't subset it away)".into(),
            )
        })?;
    let a7_rep = trained.march_table.rep(a7_idx).to_vec();
    let a7 = &configs[a7_idx];

    let n = 64usize;
    let tiles: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 64];
    let mut labels = Vec::new();
    let mut sim_ms = Vec::new();
    let mut pred_ms = Vec::new();
    for &tile in &tiles {
        let prog = matmul_tiled(n, tile);
        let trace = Emulator::new(&prog)
            .run(20_000_000)
            .expect("matmul executes");
        assert!(trace.halted, "matmul must run to completion");
        let sim = simulate(&trace, a7);
        let feats = extract_features(&trace, spec.feature_mask);
        // Streaming representations (LSTM fast path): one recurrent step
        // per instruction instead of a full window, chunk-parallel.
        let rp = program_representation_streaming(&trained.foundation, &feats, 8_192, 64)
            .expect("LSTM foundation streams");
        let pred = predict_total_tenths(&rp, &a7_rep, trained.foundation.target_scale);
        perfvec_obs::info!(
            "figures",
            "[fig8] tile {tile:>3}: {} instrs, sim {:.3} ms, perfvec {:.3} ms",
            trace.len(),
            sim.total_tenths * 1e-7,
            pred * 1e-7
        );
        labels.push(tile.to_string());
        sim_ms.push(sim.total_tenths * 1e-7);
        pred_ms.push(pred.max(0.0) * 1e-7);
    }
    report.lap("tile_sweep");

    println!(
        "{}",
        dual_series(
            &format!("Figure 8: {n}x{n} matmul execution time (ms) vs tile size on cortex-a7-like"),
            &labels,
            "gem5-sub",
            &sim_ms,
            "perfvec",
            &pred_ms
        )
    );
    let best_sim = labels[sim_ms
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .unwrap()
        .0]
        .clone();
    let best_pred = labels[pred_ms
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .unwrap()
        .0]
        .clone();
    println!("optimal tile: {best_sim} (simulation), {best_pred} (PerfVec)");
    report.metric(
        "tiles",
        Json::Arr(
            labels
                .iter()
                .zip(sim_ms.iter().zip(&pred_ms))
                .map(|(tile, (s, p))| {
                    obj(vec![
                        ("tile", Json::Str(tile.clone())),
                        ("sim_ms", Json::Num(*s)),
                        ("pred_ms", Json::Num(*p)),
                    ])
                })
                .collect(),
        ),
    );
    report.metric("best_tile_sim", Json::Str(best_sim));
    report.metric("best_tile_pred", Json::Str(best_pred));
    Ok(())
}

//! The `pipeline` phase: the fig3 protocol from a warm dataset cache —
//! load the 17 builtin programs, train the foundation, refit the
//! machine table, then represent and evaluate every program.

use crate::spans::Tracer;
use crate::{Gates, Rng, WorkDir};
use perfvec::compose::program_representation;
use perfvec::data::SuiteData;
use perfvec::foundation::ArchSpec;
use perfvec::predict::{evaluate_program, EvalRow};
use perfvec::refit::refit_march_table;
use perfvec::trainer::{train_foundation, TrainConfig, TrainedFoundation};
use perfvec_bench::cache::{workload_datasets, DatasetCache};
use perfvec_bench::shard::ShardPlan;
use perfvec_ml::adam::Adam;
use perfvec_ml::schedule::StepDecay;
use perfvec_sim::MicroArchConfig;
use perfvec_trace::features::FeatureMask;
use perfvec_trace::{fill_window, NUM_FEATURES};
use perfvec_workloads::{suite, Workload};
use std::time::Instant;

/// Instructions traced per program.
pub const TRACE_LEN: u64 = 512;

/// Ridge of the closed-form table refit (as in fig3).
const RIDGE: f64 = 3e-3;

/// Gradient steps replayed layer by layer in the traced run.
const REPLAY_STEPS: usize = 60;

/// fig3's LSTM-2-32 with context 12 and batch 32, with fewer epochs
/// and windows so one pass fits the run.
pub fn train_config() -> TrainConfig {
    TrainConfig {
        arch: ArchSpec::default_lstm(32),
        context: 12,
        epochs: 3,
        batch_size: 32,
        windows_per_epoch: 2_048,
        val_windows: 512,
        schedule: StepDecay {
            initial: 5e-3,
            gamma: 0.3,
            every: 9,
        },
        ..TrainConfig::default()
    }
}

/// The warm cache every pipeline pass loads from.
pub struct WarmCache {
    cache: DatasetCache,
    workloads: Vec<Workload>,
}

/// Build the warm cache in a fresh directory (set-up work).
pub fn setup(
    work: &WorkDir,
    configs: &[MicroArchConfig],
    gates: &mut Gates,
) -> Result<WarmCache, String> {
    let cache = DatasetCache::at(work.fresh("pipeline")?);
    let workloads = suite();
    let plan = ShardPlan::auto(TRACE_LEN, configs.len());
    let (_, s) = workload_datasets(
        &cache,
        &workloads,
        TRACE_LEN,
        configs,
        FeatureMask::Full,
        plan,
    );
    gates.check(s.misses == workloads.len(), || {
        format!("warm-cache build: {} misses", s.misses)
    });
    Ok(WarmCache { cache, workloads })
}

/// What one phase run measured, one entry per pass.
#[derive(Default)]
pub struct Outcome {
    pub pipeline_s: Vec<f64>,
    pub train_windows_per_s: Vec<f64>,
    pub represent_kinstr_per_s: Vec<f64>,
    pub seen_error_pct: f64,
    pub unseen_error_pct: f64,
    /// Per pass: gradient steps, validation seconds, refit and eval
    /// windows.
    pub steps: u64,
    pub validation_s: Vec<f64>,
    pub refit_windows: u64,
    pub eval_windows: u64,
    /// Replayed gradient-step wall times (traced run only), µs.
    pub replay_step_us: Vec<f64>,
}

/// The phase's state across its passes.
pub struct Pipeline<'a> {
    tr: &'a Tracer,
    warm: &'a WarmCache,
    configs: &'a [MicroArchConfig],
    cfg: TrainConfig,
    plan: ShardPlan,
    out: Outcome,
    errors: Option<(f64, f64)>,
    last: Option<(TrainedFoundation, SuiteData)>,
}

impl<'a> Pipeline<'a> {
    pub fn new(tr: &'a Tracer, warm: &'a WarmCache, configs: &'a [MicroArchConfig]) -> Self {
        Pipeline {
            tr,
            warm,
            configs,
            cfg: train_config(),
            plan: ShardPlan::auto(TRACE_LEN, configs.len()),
            out: Outcome::default(),
            errors: None,
            last: None,
        }
    }

    /// One pass: load → train → refit → represent and evaluate.
    pub fn step(&mut self, gates: &mut Gates) {
        let (tr, warm, cfg) = (self.tr, self.warm, &self.cfg);
        let out = &mut self.out;
        let t0 = Instant::now();
        let (parts, s) = tr.span("cache.workload_datasets", None, None, |_| {
            workload_datasets(
                &warm.cache,
                &warm.workloads,
                TRACE_LEN,
                self.configs,
                FeatureMask::Full,
                self.plan,
            )
        });
        gates.check(s.hits == warm.workloads.len(), || {
            format!("pipeline load: {} misses", s.misses)
        });
        let data = SuiteData::assemble_from(&warm.workloads, parts);

        let t1 = Instant::now();
        let mut trained = tr.span("train.train_foundation", None, None, |_| {
            train_foundation(&data.train, cfg)
        });
        let t2 = Instant::now();
        trained.march_table = tr.span("refit.refit_march_table", None, None, |_| {
            refit_march_table(&trained.foundation, &data.train, RIDGE)
        });
        let rows = tr.span("predict.eval", None, None, |id| {
            let mut rows: Vec<EvalRow> = Vec::new();
            for (seen, set) in [(true, &data.train), (false, &data.test)] {
                for d in set {
                    let rp = tr.span("compose.program_representation", id, None, |_| {
                        program_representation(&trained.foundation, &d.features)
                    });
                    let truths: Vec<f64> = (0..d.num_marches()).map(|j| d.total_time(j)).collect();
                    rows.push(tr.span("predict.evaluate_program", id, None, |_| {
                        evaluate_program(
                            &d.name,
                            seen,
                            &rp,
                            &trained.foundation,
                            &trained.march_table,
                            &truths,
                        )
                    }));
                }
            }
            rows
        });
        let t3 = Instant::now();

        let refit_windows: u64 = data.train.iter().map(|d| d.len() as u64).sum();
        let eval_windows: u64 =
            refit_windows + data.test.iter().map(|d| d.len() as u64).sum::<u64>();
        let windows = f64::from(cfg.epochs) * cfg.windows_per_epoch as f64;
        out.pipeline_s.push((t3 - t0).as_secs_f64());
        out.train_windows_per_s
            .push(windows / (t2 - t1).as_secs_f64());
        out.represent_kinstr_per_s
            .push((refit_windows + eval_windows) as f64 / (t3 - t2).as_secs_f64() / 1e3);

        let report = &trained.report;
        out.steps = report.step_time_us.count;
        let step_s = if report.steps_per_sec > 0.0 {
            report.step_time_us.count as f64 / report.steps_per_sec
        } else {
            0.0
        };
        out.validation_s
            .push((report.wall_seconds - step_s).max(0.0));
        out.refit_windows = refit_windows;
        out.eval_windows = eval_windows;

        let now = (subset_mean_pct(&rows, true), subset_mean_pct(&rows, false));
        gates.check(now.0.is_finite() && now.1.is_finite(), || {
            format!("non-finite fig3 errors {now:?}")
        });
        let before = self.errors;
        gates.check(before.is_none_or(|e| e == now), || {
            format!("fig3 errors changed between passes: {before:?} then {now:?}")
        });
        self.errors = Some(now);
        self.last = Some((trained, data));
    }

    /// Traced only: replay gradient steps layer by layer. Then hand
    /// back what the passes measured.
    pub fn finish(mut self, rng: &mut Rng) -> Outcome {
        let (trained, data) = self.last.expect("at least one pass");
        (self.out.seen_error_pct, self.out.unseen_error_pct) =
            self.errors.expect("at least one pass");
        if self.tr.on() {
            self.out.replay_step_us =
                replay_steps(self.tr, &trained.foundation, &data, &self.cfg, rng);
        }
        self.out
    }
}

fn subset_mean_pct(rows: &[EvalRow], seen: bool) -> f64 {
    let sel: Vec<f64> = rows
        .iter()
        .filter(|r| r.seen == seen)
        .map(|r| r.mean)
        .collect();
    100.0 * sel.iter().sum::<f64>() / sel.len() as f64
}

/// Replay gradient steps at the trained shape, one span per ML kernel
/// call: the trainer's own step internals are not visible from outside.
fn replay_steps(
    tr: &Tracer,
    f: &perfvec::Foundation,
    data: &SuiteData,
    cfg: &TrainConfig,
    rng: &mut Rng,
) -> Vec<f64> {
    let w = f.window();
    let b = cfg.batch_size;
    let mut params = f.model.get_params();
    let mut adam = Adam::new(params.len());
    let mut grads = vec![0.0f32; params.len()];
    let douts = vec![1e-3f32; b * f.dim()];
    let mut xs = vec![0.0f32; b * w * NUM_FEATURES];
    let mut step_us = Vec::with_capacity(REPLAY_STEPS);
    for _ in 0..REPLAY_STEPS {
        for lane in xs.chunks_mut(w * NUM_FEATURES) {
            let d = &data.train[rng.below(data.train.len())];
            fill_window(&d.features, rng.below(d.len()), f.context, lane);
        }
        let t = Instant::now();
        tr.span("train.replay_step", None, None, |id| {
            let (_, cache) = tr.span("ml.forward_batch_cached", id, None, |_| {
                f.model.forward_batch_cached(&xs, w, b)
            });
            grads.iter_mut().for_each(|g| *g = 0.0);
            tr.span("ml.backward_batch", id, None, |_| {
                f.model
                    .backward_batch(&xs, w, b, &cache, &douts, &mut grads)
            });
            tr.span("ml.adam", id, None, |_| {
                adam.step(&mut params, &grads, 1e-3)
            });
        });
        step_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    step_us
}

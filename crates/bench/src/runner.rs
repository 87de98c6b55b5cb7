//! Spec-driven experiment execution behind the `perfvec` CLI.
//!
//! Each experiment's logic lives in a submodule function with the
//! signature `fn(&ExperimentSpec, &mut Report) -> Result<(), RunError>`,
//! recording metrics into the [`Report`] as it prints its
//! human-readable lines. Experiments only name their phases
//! (`Report::lap` at each boundary); the dataset stage times itself.

use crate::cache::workload_datasets;
use crate::pipeline::SuiteData;
use crate::report::Report;
use crate::shard::ShardPlan;
use crate::spec::{ExperimentKind, ExperimentSpec};
use perfvec::predict::EvalRow;
use perfvec_json::{obj, Json};
use perfvec_sim::MicroArchConfig;
use perfvec_trace::features::FeatureMask;
use perfvec_trace::ProgramData;
use perfvec_workloads::{suite, Workload};
use std::fmt;
use std::time::Instant;

mod ablations;
mod benches;
mod figures;
mod tables;

/// An experiment failure. The message is what the process prints on
/// stderr before exiting nonzero.
#[derive(Debug)]
pub struct RunError(pub String);

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RunError {}

impl From<String> for RunError {
    fn from(msg: String) -> RunError {
        RunError(msg)
    }
}

/// Run one spec to completion, returning the filled report (not yet
/// written to disk — see [`execute`]).
pub fn run(spec: &ExperimentSpec) -> Result<Report, RunError> {
    spec.validate().map_err(RunError)?;
    let mut report = Report::new();
    match spec.kind {
        ExperimentKind::Fig3 | ExperimentKind::Custom => figures::fig3_like(spec, &mut report),
        ExperimentKind::Fig4 => figures::fig4(spec, &mut report),
        ExperimentKind::Fig5 => figures::fig5(spec, &mut report),
        ExperimentKind::Fig6 => figures::fig6(spec, &mut report),
        ExperimentKind::Fig7 => figures::fig7(spec, &mut report),
        ExperimentKind::Fig8 => figures::fig8(spec, &mut report),
        ExperimentKind::Table3 => tables::table3(spec, &mut report),
        ExperimentKind::Table4 => tables::table4(spec, &mut report),
        ExperimentKind::AblationData => ablations::ablation_data(spec, &mut report),
        ExperimentKind::AblationFeatures => ablations::ablation_features(spec, &mut report),
        ExperimentKind::TrainOpt => ablations::train_opt(spec, &mut report),
        ExperimentKind::TuneRidge => ablations::tune_ridge(spec, &mut report),
        ExperimentKind::ServeBench => benches::serve_bench(spec, &mut report),
        ExperimentKind::TrainBench => benches::train_bench(spec, &mut report),
        ExperimentKind::SimBench => benches::sim_bench(spec, &mut report),
        ExperimentKind::ObsOverhead => benches::obs_overhead(spec, &mut report),
    }?;
    println!("{}", report.wall_time_line());
    Ok(report)
}

/// Run one spec end to end — execute, print any failure, write the
/// report when the spec asks for one. Returns whether everything
/// succeeded. The CLI drives single runs and sweeps through it.
pub fn execute(spec: &ExperimentSpec) -> bool {
    match run(spec) {
        Ok(report) => {
            if let Some(path) = &spec.report_path {
                if let Err(e) = report.write(path, spec) {
                    perfvec_obs::error!(
                        "perfvec",
                        "[perfvec] cannot write report {}: {e}",
                        path.display()
                    );
                    return false;
                }
                perfvec_obs::info!("perfvec", "[perfvec] report written to {}", path.display());
            }
            true
        }
        Err(e) => {
            let msg = e.to_string();
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            false
        }
    }
}

/// The one dataset stage every experiment fetches through: datasets
/// for `workloads` on `configs`, in workload order, from the spec's
/// cache, generated on a miss under the [`ShardPlan::auto`] schedule
/// for this fetch's trace length and machine count. The fetch time
/// goes into the report's `datasets` phase (carved out of the
/// caller's lap), the cache stats into the report, and one "datasets
/// ready" line into the log.
pub(crate) fn datasets(
    spec: &ExperimentSpec,
    report: &mut Report,
    workloads: &[Workload],
    configs: &[MicroArchConfig],
    trace_len: u64,
    mask: FeatureMask,
) -> Vec<ProgramData> {
    let t = Instant::now();
    let plan = ShardPlan::auto(trace_len, configs.len());
    let cache = spec.dataset_cache();
    let (data, stats) = workload_datasets(&cache, workloads, trace_len, configs, mask, plan);
    let secs = t.elapsed().as_secs_f64();
    report.phase("datasets", secs);
    report.absorb_cache(stats);
    perfvec_obs::info!(
        "runner",
        "[{}] {} programs x {} machines: datasets ready in {secs:.1}s ({})",
        spec.kind.name(),
        workloads.len(),
        configs.len(),
        stats.summary()
    );
    data
}

/// [`datasets`] for the Table II suite under the spec's feature mask,
/// split into training and testing programs.
pub(crate) fn suite_datasets(
    spec: &ExperimentSpec,
    report: &mut Report,
    configs: &[MicroArchConfig],
    trace_len: u64,
) -> SuiteData {
    let (workloads, mask) = (suite(), spec.feature_mask);
    let parts = datasets(spec, report, &workloads, configs, trace_len, mask);
    SuiteData::assemble_from(&workloads, parts)
}

/// Per-program evaluation rows as report JSON.
pub(crate) fn rows_json(rows: &[EvalRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                obj(vec![
                    ("program", Json::Str(r.program.clone())),
                    ("seen", Json::Bool(r.seen)),
                    ("mean", Json::Num(r.mean)),
                    ("std", Json::Num(r.std)),
                    ("min", Json::Num(r.min)),
                    ("max", Json::Num(r.max)),
                ])
            })
            .collect(),
    )
}

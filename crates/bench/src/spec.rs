//! The declarative experiment API: a typed [`ExperimentSpec`] that
//! fully determines one harness run.
//!
//! A spec is built from the `perfvec` CLI's flags or from a JSON config
//! file (see [`ExperimentSpec::from_json`]); both produce the same runs
//! through [`crate::runner::run`]. The JSON form is the scenario
//! surface: a config file can select march subsets, feature masks,
//! trace lengths, and kind-specific parameters per entry of a sweep.

use crate::cache::DatasetCache;
use crate::scale::Scale;
use perfvec_json::{obj, ConvertError, FromJson, Json, ToJson};
use perfvec_sim::sample::{training_population, DEFAULT_MARCH_SEED};
use perfvec_sim::MicroArchConfig;
use perfvec_trace::features::FeatureMask;
use std::path::PathBuf;

/// Which experiment a spec runs: every figure/table/ablation/bench of
/// the paper harness, plus the config-file-only [`Custom`] pipeline.
///
/// [`Custom`]: ExperimentKind::Custom
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentKind {
    /// Figure 3: seen/unseen-program error on seen machines.
    Fig3,
    /// Figure 4: retraining with `519.lbm-like` moved into training.
    Fig4,
    /// Figure 5: unseen-microarchitecture error via fine-tuning.
    Fig5,
    /// Figure 6: foundation-architecture ablation.
    Fig6,
    /// Figure 7: L1/L2 cache design-space exploration.
    Fig7,
    /// Figure 8: matmul loop-tiling analysis.
    Fig8,
    /// Table III: modeling-approach comparison with measured speeds.
    Table3,
    /// Table IV: DSE method comparison (overhead/quality).
    Table4,
    /// Section V-B training-data volume ablation.
    AblationData,
    /// Section V-B feature ablation.
    AblationFeatures,
    /// Section IV training-cost claims (reuse, sampling).
    TrainOpt,
    /// Refit ridge-strength sweep (scratch utility).
    TuneRidge,
    /// Serving throughput/latency harness (`BENCH_serve.json`).
    ServeBench,
    /// Batch-major training throughput harness (`BENCH_train.json`).
    TrainBench,
    /// Simulator throughput + bit-identity gate (`BENCH_sim.json`).
    SimBench,
    /// Metrics-overhead gate: engine throughput with obs on vs off.
    ObsOverhead,
    /// The generic train-and-evaluate pipeline with every knob open:
    /// march subset x feature mask x trace length x training params.
    Custom,
}

impl ExperimentKind {
    /// Every kind, in `perfvec list` order.
    pub const ALL: [ExperimentKind; 17] = [
        ExperimentKind::Fig3,
        ExperimentKind::Fig4,
        ExperimentKind::Fig5,
        ExperimentKind::Fig6,
        ExperimentKind::Fig7,
        ExperimentKind::Fig8,
        ExperimentKind::Table3,
        ExperimentKind::Table4,
        ExperimentKind::AblationData,
        ExperimentKind::AblationFeatures,
        ExperimentKind::TrainOpt,
        ExperimentKind::TuneRidge,
        ExperimentKind::ServeBench,
        ExperimentKind::TrainBench,
        ExperimentKind::SimBench,
        ExperimentKind::ObsOverhead,
        ExperimentKind::Custom,
    ];

    /// The stable name used on the CLI, in config files, and in report
    /// `experiment` fields.
    pub fn name(&self) -> &'static str {
        match self {
            ExperimentKind::Fig3 => "fig3",
            ExperimentKind::Fig4 => "fig4",
            ExperimentKind::Fig5 => "fig5",
            ExperimentKind::Fig6 => "fig6",
            ExperimentKind::Fig7 => "fig7",
            ExperimentKind::Fig8 => "fig8",
            ExperimentKind::Table3 => "table3",
            ExperimentKind::Table4 => "table4",
            ExperimentKind::AblationData => "ablation_data",
            ExperimentKind::AblationFeatures => "ablation_features",
            ExperimentKind::TrainOpt => "train_opt",
            ExperimentKind::TuneRidge => "tune_ridge",
            ExperimentKind::ServeBench => "serve_bench",
            ExperimentKind::TrainBench => "train_bench",
            ExperimentKind::SimBench => "sim_bench",
            ExperimentKind::ObsOverhead => "obs_overhead",
            ExperimentKind::Custom => "custom",
        }
    }

    /// One-line description for `perfvec list`.
    pub fn describe(&self) -> &'static str {
        match self {
            ExperimentKind::Fig3 => "prediction error, seen + unseen programs, seen machines",
            ExperimentKind::Fig4 => "accuracy after moving 519.lbm-like into training",
            ExperimentKind::Fig5 => "prediction error on unseen microarchitectures (fine-tuning)",
            ExperimentKind::Fig6 => "foundation-architecture ablation",
            ExperimentKind::Fig7 => "L1/L2 cache design-space exploration",
            ExperimentKind::Fig8 => "matmul loop-tiling analysis",
            ExperimentKind::Table3 => "modeling approaches: generality + measured speeds",
            ExperimentKind::Table4 => "DSE methods: overhead and selection quality",
            ExperimentKind::AblationData => "training-data volume ablation",
            ExperimentKind::AblationFeatures => "memory/branch feature ablation",
            ExperimentKind::TrainOpt => "representation reuse + sampling cost claims",
            ExperimentKind::TuneRidge => "refit ridge-strength sweep",
            ExperimentKind::ServeBench => "serving throughput/latency (writes BENCH_serve.json)",
            ExperimentKind::TrainBench => "training throughput + parity (writes BENCH_train.json)",
            ExperimentKind::SimBench => {
                "simulator throughput + bit-identity (writes BENCH_sim.json)"
            }
            ExperimentKind::ObsOverhead => {
                "metrics-overhead gate: engine throughput, obs on vs off"
            }
            ExperimentKind::Custom => {
                "generic pipeline: march subset x feature mask x trace length"
            }
        }
    }

    /// Parse a kind name (the inverse of [`ExperimentKind::name`]).
    pub fn parse(s: &str) -> Option<ExperimentKind> {
        ExperimentKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Param keys this kind accepts (everything else is rejected
    /// loudly — a typo must not silently run a default experiment).
    pub fn allowed_params(&self) -> &'static [&'static str] {
        match self {
            ExperimentKind::ServeBench => &[
                "arch",
                "batch",
                "workers",
                "conns",
                "requests",
                "assert_speedup",
            ],
            ExperimentKind::TrainBench => {
                &["arch", "batch", "steps", "assert_speedup", "resume_smoke"]
            }
            ExperimentKind::SimBench => &["marches", "rounds", "assert_speedup", "programs"],
            ExperimentKind::ObsOverhead => &["requests", "rounds", "max_overhead"],
            ExperimentKind::Custom => &[
                "dim",
                "context",
                "epochs",
                "windows_per_epoch",
                "val_windows",
                "batch_size",
                "workloads",
                "program",
            ],
            _ => &[],
        }
    }

    /// Spec fields this kind does *not* honor. A non-default value for
    /// one of these is rejected by [`ExperimentSpec::validate`] instead
    /// of silently running the default protocol (or, for the ablation
    /// sweeps' hardcoded 77-machine subsets, crashing mid-run): the
    /// report's spec echo must always describe what actually executed.
    pub fn unsupported_fields(&self) -> &'static [&'static str] {
        match self {
            // table3 measures against the 7 predefined machines.
            ExperimentKind::Table3 => &["seed", "march_subset"],
            // The machine-count sweeps index columns 0..77 directly.
            ExperimentKind::AblationData | ExperimentKind::TrainOpt => &["march_subset"],
            // The feature ablation *is* the mask comparison.
            ExperimentKind::AblationFeatures => &["features"],
            // The serving bench uses the fixed shared population and
            // its own request mix.
            ExperimentKind::ServeBench => &["seed", "features", "march_subset", "trace_len"],
            ExperimentKind::TrainBench => &["features", "march_subset"],
            // The simulator bench measures the raw kernels on its own
            // machine list (`marches` param); nothing is trained.
            ExperimentKind::SimBench => &["seed", "features", "march_subset"],
            // The overhead gate serves one fixed model/workload pair —
            // the knob is only how long to measure.
            ExperimentKind::ObsOverhead => &["seed", "features", "march_subset", "trace_len"],
            _ => &[],
        }
    }
}

/// Whether a run may read/write the on-disk dataset cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Serve hits from `PERFVEC_CACHE_DIR`, publish misses (default).
    #[default]
    ReadWrite,
    /// Regenerate everything, store nothing (`--no-cache`, or a
    /// non-empty, non-`"0"` `PERFVEC_NO_CACHE`).
    Bypass,
}

impl CachePolicy {
    fn name(&self) -> &'static str {
        match self {
            CachePolicy::ReadWrite => "read_write",
            CachePolicy::Bypass => "bypass",
        }
    }
}

/// One fully-determined harness run.
///
/// Defaults reproduce the paper protocol of the experiment; every field
/// widens the scenario surface (march subsets, feature masks,
/// non-default seeds, explicit trace lengths, kind-specific
/// parameters).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Which experiment to run.
    pub kind: ExperimentKind,
    /// Trace-length / training-budget scale (never changes protocol).
    pub scale: Scale,
    /// Microarchitecture sampling seed (default: the population shared
    /// with the serve stack, [`DEFAULT_MARCH_SEED`]).
    pub seed: u64,
    /// Which feature columns the datasets carry.
    pub feature_mask: FeatureMask,
    /// Restrict the sampled population to these indices (dataset
    /// columns, march table rows). `None` = the full population.
    pub march_subset: Option<Vec<usize>>,
    /// Dataset cache policy.
    pub cache: CachePolicy,
    /// Override the experiment's default dataset trace length.
    pub trace_len: Option<u64>,
    /// Where to write the JSON report (`None` = don't write one; the
    /// `perfvec` CLI always sets a path).
    pub report_path: Option<PathBuf>,
    /// Kind-specific parameters (see
    /// [`ExperimentKind::allowed_params`]); insertion order preserved.
    pub params: Vec<(String, Json)>,
}

impl ExperimentSpec {
    /// The default spec for `kind`: what `perfvec run <kind>` runs with
    /// no flags.
    pub fn new(kind: ExperimentKind) -> ExperimentSpec {
        ExperimentSpec {
            kind,
            scale: Scale::Quick,
            seed: DEFAULT_MARCH_SEED,
            feature_mask: FeatureMask::Full,
            march_subset: None,
            cache: CachePolicy::default(),
            trace_len: None,
            report_path: None,
            params: Vec::new(),
        }
    }

    /// Build a spec from a parsed JSON config object. Unknown fields,
    /// unknown experiment names, bad scale/mask/cache strings, and
    /// params a kind doesn't accept are all hard errors.
    pub fn from_json(v: &Json) -> Result<ExperimentSpec, ConvertError> {
        const KNOWN: [&str; 9] = [
            "experiment",
            "scale",
            "seed",
            "features",
            "march_subset",
            "cache",
            "trace_len",
            "report",
            "params",
        ];
        let fields = v
            .as_obj()
            .ok_or_else(|| ConvertError::expected("a spec object", v))?;
        for (k, _) in fields {
            if !KNOWN.contains(&k.as_str()) {
                return Err(ConvertError::new(format!(
                    "unknown spec field {k:?} (known: {})",
                    KNOWN.join(", ")
                )));
            }
        }
        let kind_name: String = v.field_as("experiment")?;
        let kind = ExperimentKind::parse(&kind_name).ok_or_else(|| {
            ConvertError::new(format!(
                "unknown experiment {kind_name:?} (try `perfvec list`)"
            ))
        })?;
        let mut spec = ExperimentSpec::new(kind);
        if let Some(s) = v.opt_field_as::<String>("scale")? {
            spec.scale = parse_scale(&s).map_err(ConvertError::new)?;
        }
        if let Some(seed) = v.opt_field_as::<u64>("seed")? {
            spec.seed = seed;
        }
        if let Some(s) = v.opt_field_as::<String>("features")? {
            spec.feature_mask = parse_mask(&s).map_err(ConvertError::new)?;
        }
        spec.march_subset = v.opt_field_as::<Vec<usize>>("march_subset")?;
        if let Some(s) = v.opt_field_as::<String>("cache")? {
            spec.cache = match s.as_str() {
                "read_write" => CachePolicy::ReadWrite,
                "bypass" => CachePolicy::Bypass,
                other => {
                    return Err(ConvertError::new(format!(
                        "unknown cache policy {other:?} (read_write | bypass)"
                    )))
                }
            };
        }
        spec.trace_len = v.opt_field_as::<u64>("trace_len")?;
        spec.report_path = v.opt_field_as::<String>("report")?.map(PathBuf::from);
        if let Some(params) = v.get("params") {
            let fields = params
                .as_obj()
                .ok_or_else(|| ConvertError::expected("a params object", params))?;
            spec.params = fields.to_vec();
        }
        spec.validate().map_err(ConvertError::new)?;
        Ok(spec)
    }

    /// Reject inconsistent specs: out-of-range march indices, params
    /// the kind doesn't accept, and non-default values for fields the
    /// kind doesn't honor (see [`ExperimentKind::unsupported_fields`]).
    pub fn validate(&self) -> Result<(), String> {
        for field in self.kind.unsupported_fields() {
            let set = match *field {
                "seed" => self.seed != DEFAULT_MARCH_SEED,
                "features" => self.feature_mask != FeatureMask::Full,
                "march_subset" => self.march_subset.is_some(),
                "trace_len" => self.trace_len.is_some(),
                _ => unreachable!("unknown unsupported field {field}"),
            };
            if set {
                return Err(format!(
                    "experiment {:?} does not honor {field:?}; drop it from the spec",
                    self.kind.name()
                ));
            }
        }
        let allowed = self.kind.allowed_params();
        for (k, v) in &self.params {
            if !allowed.contains(&k.as_str()) {
                return Err(if allowed.is_empty() {
                    format!(
                        "experiment {:?} takes no params, got {k:?}",
                        self.kind.name()
                    )
                } else {
                    format!(
                        "unknown param {k:?} for {:?} (allowed: {})",
                        self.kind.name(),
                        allowed.join(", ")
                    )
                });
            }
            // Type-check up front: a bad value must fail before the
            // expensive dataset/training phases, not minutes in.
            let typed = match k.as_str() {
                "assert_speedup" | "max_overhead" => f64::from_json(v).map(|_| ()),
                "resume_smoke" => bool::from_json(v).map(|_| ()),
                "arch" | "workloads" | "program" | "programs" => String::from_json(v).map(|_| ()),
                _ => usize::from_json(v).map(|_| ()),
            };
            if let Err(e) = typed {
                return Err(format!("param {k:?}: {e}"));
            }
        }
        // Workload/program selections must resolve (known names,
        // readable + assemblable files) before the expensive phases.
        crate::programs::validate_params(self)?;
        if let Some(subset) = &self.march_subset {
            let k = training_population(self.seed).len();
            if subset.is_empty() {
                return Err("march_subset must not be empty".to_string());
            }
            if let Some(&bad) = subset.iter().find(|&&i| i >= k) {
                return Err(format!(
                    "march_subset index {bad} out of range (population has {k} machines)"
                ));
            }
        }
        Ok(())
    }

    /// The spec's JSON form (insertion-ordered; reports store it via
    /// [`Json::sorted`]). `from_json(to_json(spec)) == spec`.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("experiment", Json::Str(self.kind.name().to_string())),
            ("scale", Json::Str(scale_name(self.scale).to_string())),
            ("seed", self.seed.to_json()),
            (
                "features",
                Json::Str(mask_name(self.feature_mask).to_string()),
            ),
            ("march_subset", self.march_subset.to_json()),
            ("cache", Json::Str(self.cache.name().to_string())),
            ("trace_len", self.trace_len.to_json()),
            (
                "report",
                self.report_path
                    .as_ref()
                    .map(|p| p.display().to_string())
                    .to_json(),
            ),
            ("params", Json::Obj(self.params.clone())),
        ])
    }

    /// The dataset cache this spec's policy selects.
    pub fn dataset_cache(&self) -> DatasetCache {
        match self.cache {
            CachePolicy::Bypass => DatasetCache::disabled(),
            CachePolicy::ReadWrite => DatasetCache::at(crate::cache::default_root()),
        }
    }

    /// The sampled machine population this spec trains/evaluates on:
    /// `training_population(seed)`, restricted to `march_subset` when
    /// one is set.
    pub fn march_configs(&self) -> Vec<MicroArchConfig> {
        let population = training_population(self.seed);
        match &self.march_subset {
            None => population,
            Some(idx) => idx.iter().map(|&i| population[i].clone()).collect(),
        }
    }

    /// The dataset trace length: the explicit override, else `default`
    /// (each experiment passes its own default).
    pub fn trace_len_or(&self, default: u64) -> u64 {
        self.trace_len.unwrap_or(default)
    }

    /// A kind-specific numeric param, or `default` when absent.
    /// Present-but-unparseable is an error, never a silent default: a
    /// typo must not disable a gate such as `assert_speedup`.
    pub fn param_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.param(key) {
            None => Ok(default),
            Some(v) => f64::from_json(v).map_err(|e| format!("param {key:?}: {e}")),
        }
    }

    /// An integer param, or `default` when absent.
    pub fn param_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.param(key) {
            None => Ok(default),
            Some(v) => usize::from_json(v).map_err(|e| format!("param {key:?}: {e}")),
        }
    }

    /// A string param, or `default` when absent. Bare `--set key=value`
    /// values arrive as strings via [`parse_param_value`]'s fallback,
    /// so `--set arch=transformer` works unquoted.
    pub fn param_str(&self, key: &str, default: &str) -> Result<String, String> {
        match self.param(key) {
            None => Ok(default.to_string()),
            Some(v) => String::from_json(v).map_err(|e| format!("param {key:?}: {e}")),
        }
    }

    /// A boolean param, or `default` when absent.
    pub fn param_bool(&self, key: &str, default: bool) -> Result<bool, String> {
        match self.param(key) {
            None => Ok(default),
            Some(v) => bool::from_json(v).map_err(|e| format!("param {key:?}: {e}")),
        }
    }

    fn param(&self, key: &str) -> Option<&Json> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// `--set key=value` / flag-side param parsing: values parse as JSON
/// when they can (numbers, booleans, null, quoted strings) and fall
/// back to bare strings.
pub fn parse_param_value(raw: &str) -> Json {
    Json::parse(raw).unwrap_or_else(|_| Json::Str(raw.to_string()))
}

/// Parse a scale name (`quick` | `full`).
pub fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "quick" => Ok(Scale::Quick),
        "full" => Ok(Scale::Full),
        other => Err(format!("unknown scale {other:?} (quick | full)")),
    }
}

/// The stable name of a scale.
pub fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Quick => "quick",
        Scale::Full => "full",
    }
}

/// Parse a feature-mask name (`full` | `no_mem_branch`).
pub fn parse_mask(s: &str) -> Result<FeatureMask, String> {
    match s {
        "full" => Ok(FeatureMask::Full),
        "no_mem_branch" => Ok(FeatureMask::NoMemBranch),
        other => Err(format!(
            "unknown feature mask {other:?} (full | no_mem_branch)"
        )),
    }
}

/// The stable name of a feature mask.
pub fn mask_name(m: FeatureMask) -> &'static str {
    match m {
        FeatureMask::Full => "full",
        FeatureMask::NoMemBranch => "no_mem_branch",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for k in ExperimentKind::ALL {
            assert_eq!(ExperimentKind::parse(k.name()), Some(k), "{k:?}");
        }
        assert_eq!(ExperimentKind::parse("fig9"), None);
    }

    #[test]
    fn spec_json_round_trips() {
        let mut spec = ExperimentSpec::new(ExperimentKind::Custom);
        spec.scale = Scale::Full;
        spec.seed = 99;
        spec.feature_mask = FeatureMask::NoMemBranch;
        spec.march_subset = Some(vec![0, 3, 5]);
        spec.cache = CachePolicy::Bypass;
        spec.trace_len = Some(4_000);
        spec.report_path = Some(PathBuf::from("out/report.json"));
        spec.params = vec![("epochs".to_string(), Json::Num(2.0))];
        let back = ExperimentSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn unknown_fields_params_and_indices_are_loud() {
        let bad = Json::parse(r#"{"experiment":"fig3","scal":"quick"}"#).unwrap();
        assert!(ExperimentSpec::from_json(&bad)
            .unwrap_err()
            .to_string()
            .contains("scal"));

        let bad = Json::parse(r#"{"experiment":"nope"}"#).unwrap();
        assert!(ExperimentSpec::from_json(&bad)
            .unwrap_err()
            .to_string()
            .contains("nope"));

        let bad = Json::parse(r#"{"experiment":"fig3","params":{"batch":2}}"#).unwrap();
        assert!(ExperimentSpec::from_json(&bad)
            .unwrap_err()
            .to_string()
            .contains("batch"));

        let bad = Json::parse(r#"{"experiment":"custom","march_subset":[0,500]}"#).unwrap();
        assert!(ExperimentSpec::from_json(&bad)
            .unwrap_err()
            .to_string()
            .contains("500"));
    }

    #[test]
    fn unsupported_fields_are_rejected_per_kind() {
        // The machine-count sweeps index columns 0..77 and would crash
        // mid-run on a narrower population.
        let mut spec = ExperimentSpec::new(ExperimentKind::AblationData);
        spec.march_subset = Some(vec![0, 1]);
        assert!(spec.validate().unwrap_err().contains("march_subset"));

        // serve_bench would silently ignore these; the spec echo must
        // never claim a scenario that didn't run.
        let mut spec = ExperimentSpec::new(ExperimentKind::ServeBench);
        spec.seed = 7;
        assert!(spec.validate().unwrap_err().contains("seed"));

        let mut spec = ExperimentSpec::new(ExperimentKind::AblationFeatures);
        spec.feature_mask = FeatureMask::NoMemBranch;
        assert!(spec.validate().unwrap_err().contains("features"));

        // The same fields are fine where they are honored.
        let mut spec = ExperimentSpec::new(ExperimentKind::Fig3);
        spec.seed = 7;
        spec.march_subset = Some(vec![0, 1]);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn params_are_typed_and_defaulted() {
        let mut spec = ExperimentSpec::new(ExperimentKind::ServeBench);
        spec.params = vec![
            ("batch".to_string(), Json::Num(16.0)),
            ("assert_speedup".to_string(), Json::Str("fast".into())),
        ];
        assert_eq!(spec.param_usize("batch", 32), Ok(16));
        assert_eq!(spec.param_usize("workers", 4), Ok(4));
        assert!(spec.param_f64("assert_speedup", 0.0).is_err());
        // Bare `--set arch=transformer` values land as strings.
        spec.params
            .push(("arch".to_string(), parse_param_value("transformer,bilstm")));
        assert_eq!(
            spec.param_str("arch", "lstm"),
            Ok("transformer,bilstm".to_string())
        );
        assert_eq!(spec.param_str("missing", "lstm"), Ok("lstm".to_string()));
    }

    #[test]
    fn march_subset_selects_population_rows() {
        let mut spec = ExperimentSpec::new(ExperimentKind::Custom);
        let full = spec.march_configs();
        spec.march_subset = Some(vec![2, 0]);
        let sub = spec.march_configs();
        assert_eq!(sub.len(), 2);
        assert_eq!(sub[0].name, full[2].name);
        assert_eq!(sub[1].name, full[0].name);
    }
}

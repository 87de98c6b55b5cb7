//! Schema-versioned JSON experiment reports.
//!
//! Every `perfvec run` emits one machine-readable report alongside its
//! human-readable stdout: the experiment's metrics, per-phase wall
//! timings, dataset cache stats, the spec that produced it, and enough
//! version pins (schema, codec, generator, crate, git) for a consumer
//! to tell whether two reports are comparable. Reports are written pretty with
//! **recursively sorted keys** — the byte format is pinned by a golden
//! test, so downstream consumers cannot be broken silently.

use crate::cache::{CacheStats, GENERATOR_VERSION};
use crate::spec::ExperimentSpec;
use perfvec_json::{obj, Json, ToJson};
use perfvec_trace::binio::CODEC_VERSION;
use std::path::Path;
use std::time::Instant;

/// Version of the report schema itself. Bump on any breaking change to
/// the key set or value shapes (and update the golden test).
pub const SCHEMA_VERSION: u64 = 1;

/// An experiment report under construction: experiments record
/// metrics, phase timings, and cache stats as they go; [`Report::to_json`]
/// assembles the final document.
///
/// Phases partition the run: `Report::lap` closes the current phase at
/// each boundary, and [`Report::phase`] carves work it timed itself out
/// of the enclosing lap, so the phases sum to at most the wall time.
#[derive(Debug)]
pub struct Report {
    started: Instant,
    /// Where the current lap began.
    lap_start: Instant,
    /// Seconds recorded by [`Report::phase`] since `lap_start`.
    carved: f64,
    phases: Vec<(String, f64)>,
    metrics: Vec<(String, Json)>,
    cache: CacheStats,
    /// Best-effort git revision (overridable, e.g. by the golden test).
    pub git: Option<String>,
    /// Total wall seconds; `None` = measured from construction at
    /// render time.
    pub wall_seconds: Option<f64>,
}

impl Default for Report {
    fn default() -> Self {
        Report::new()
    }
}

impl Report {
    /// An empty report whose wall clock starts now.
    pub fn new() -> Report {
        let started = Instant::now();
        Report {
            started,
            lap_start: started,
            carved: 0.0,
            phases: Vec::new(),
            metrics: Vec::new(),
            cache: CacheStats::default(),
            git: git_revision(),
            wall_seconds: None,
        }
    }

    /// Close the current phase: record under `name` the wall time
    /// since the previous lap (or since the report started), minus any
    /// [`Report::phase`] recorded inside that span, and return those
    /// seconds. Repeated names accumulate.
    pub(crate) fn lap(&mut self, name: &str) -> f64 {
        let now = Instant::now();
        let secs = ((now - self.lap_start).as_secs_f64() - self.carved).max(0.0);
        self.lap_start = now;
        self.carved = 0.0;
        self.add(name, secs);
        secs
    }

    /// Record `secs` of work timed inside the current lap under `name`;
    /// that time leaves the enclosing lap. Repeated names accumulate.
    pub fn phase(&mut self, name: &str, secs: f64) {
        self.carved += secs;
        self.add(name, secs);
    }

    fn add(&mut self, name: &str, secs: f64) {
        if let Some(slot) = self.phases.iter_mut().find(|(n, _)| n == name) {
            slot.1 += secs;
        } else {
            self.phases.push((name.to_string(), secs));
        }
    }

    /// Record one metric. Last write wins for repeated keys.
    pub fn metric(&mut self, key: &str, value: Json) {
        if let Some(slot) = self.metrics.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.metrics.push((key.to_string(), value));
        }
    }

    /// [`Report::metric`] for the common numeric case.
    pub fn metric_f64(&mut self, key: &str, value: f64) {
        self.metric(key, Json::Num(value));
    }

    /// Fold a dataset batch's cache stats into the report.
    pub fn absorb_cache(&mut self, stats: CacheStats) {
        self.cache.absorb(stats);
    }

    /// Total wall seconds: [`Report::wall_seconds`] when pinned, else
    /// the time since the report started.
    pub(crate) fn elapsed(&self) -> f64 {
        self.wall_seconds
            .unwrap_or_else(|| self.started.elapsed().as_secs_f64())
    }

    /// The one human-readable timing line: total wall time, then each
    /// phase in the order it was first recorded.
    pub(crate) fn wall_time_line(&self) -> String {
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|(n, s)| format!("{n} {s:.1}s"))
            .collect();
        format!(
            "total wall time {:.1}s ({})",
            self.elapsed(),
            phases.join(", ")
        )
    }

    /// Assemble the schema-versioned document (recursively sorted
    /// keys).
    pub fn to_json(&self, spec: &ExperimentSpec) -> Json {
        let wall = self.elapsed();
        obj(vec![
            ("schema_version", SCHEMA_VERSION.to_json()),
            ("experiment", Json::Str(spec.kind.name().to_string())),
            ("spec", spec.to_json()),
            ("metrics", Json::Obj(self.metrics.clone())),
            (
                "phases",
                Json::Obj(
                    self.phases
                        .iter()
                        .map(|(n, s)| (n.clone(), Json::Num(*s)))
                        .collect(),
                ),
            ),
            (
                "cache",
                obj(vec![
                    ("enabled", self.cache.enabled.to_json()),
                    ("hits", (self.cache.hits as u64).to_json()),
                    ("misses", (self.cache.misses as u64).to_json()),
                    ("recovered", (self.cache.recovered as u64).to_json()),
                ]),
            ),
            (
                "versions",
                obj(vec![
                    ("codec", (CODEC_VERSION as u64).to_json()),
                    ("crate", Json::Str(env!("CARGO_PKG_VERSION").to_string())),
                    ("generator", (GENERATOR_VERSION as u64).to_json()),
                    ("git", self.git.to_json()),
                ]),
            ),
            ("wall_seconds", Json::Num(wall)),
        ])
        .sorted()
    }

    /// Render the on-disk byte form: pretty, sorted, trailing newline.
    pub fn render(&self, spec: &ExperimentSpec) -> String {
        let mut s = self.to_json(spec).pretty();
        s.push('\n');
        s
    }

    /// Write the report to `path`, creating parent directories.
    pub fn write(&self, path: &Path, spec: &ExperimentSpec) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.render(spec))
    }
}

/// Keys every valid report carries at the top level.
pub const REQUIRED_KEYS: [&str; 8] = [
    "cache",
    "experiment",
    "metrics",
    "phases",
    "schema_version",
    "spec",
    "versions",
    "wall_seconds",
];

/// Validate a parsed report document: schema version, required keys,
/// and basic shapes. Returns a one-line human summary on success —
/// what `perfvec report` prints and what CI asserts on.
pub fn validate(v: &Json) -> Result<String, String> {
    let version = v
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing or non-integer schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {version} (this build reads {SCHEMA_VERSION})"
        ));
    }
    for key in REQUIRED_KEYS {
        if v.get(key).is_none() {
            return Err(format!("missing required key {key:?}"));
        }
    }
    let experiment = v
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or("experiment is not a string")?;
    let metrics = v
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("metrics is not an object")?;
    let phases = v
        .get("phases")
        .and_then(Json::as_obj)
        .ok_or("phases is not an object")?;
    let wall = v
        .get("wall_seconds")
        .and_then(Json::as_f64)
        .ok_or("wall_seconds is not a number")?;
    let mut sum = 0.0;
    for (name, secs) in phases {
        sum += secs
            .as_f64()
            .filter(|s| s.is_finite() && *s >= 0.0)
            .ok_or_else(|| format!("phase {name:?} is not a finite, non-negative number"))?;
    }
    // Phases partition the run; 1 ms of slack absorbs clock rounding.
    if sum > wall + 1e-3 {
        return Err(format!(
            "phases sum to {sum:.3}s, past wall_seconds {wall:.3}s"
        ));
    }
    Ok(format!(
        "valid report: experiment {experiment}, schema v{version}, {} metrics ({}), {} phases, {wall:.1}s wall",
        metrics.len(),
        metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>().join(", "),
        phases.len(),
    ))
}

/// Best-effort git revision: read `.git/HEAD` (walking up from the
/// current directory) and resolve one level of ref indirection. No git
/// binary, no panic — `None` when anything is off.
pub fn git_revision() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            let rev = if let Some(refname) = head.strip_prefix("ref: ") {
                std::fs::read_to_string(git.join(refname))
                    .ok()?
                    .trim()
                    .to_string()
            } else {
                head.to_string()
            };
            return (rev.len() >= 7 && rev.bytes().all(|b| b.is_ascii_hexdigit())).then_some(rev);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExperimentKind, ExperimentSpec};

    fn sample() -> (Report, ExperimentSpec) {
        let mut r = Report::new();
        // Pin the lazy wall clock: two renders of the same report must
        // be byte-identical in tests.
        r.wall_seconds = Some(4.25);
        r.phase("datasets", 1.5);
        r.phase("train", 2.0);
        r.phase("datasets", 0.5);
        r.metric_f64("seen_mean_error", 0.05);
        r.metric("note", Json::Str("x".into()));
        r.metric_f64("seen_mean_error", 0.06);
        (r, ExperimentSpec::new(ExperimentKind::Fig3))
    }

    #[test]
    fn phases_accumulate_and_metrics_overwrite() {
        let (r, spec) = sample();
        let v = r.to_json(&spec);
        assert_eq!(
            v.get("phases").unwrap().get("datasets").unwrap().as_f64(),
            Some(2.0)
        );
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("seen_mean_error")
                .unwrap()
                .as_f64(),
            Some(0.06)
        );
    }

    #[test]
    fn rendered_reports_validate_and_round_trip() {
        let (r, spec) = sample();
        let text = r.render(&spec);
        let v = Json::parse(&text).unwrap();
        let summary = validate(&v).unwrap();
        assert!(summary.contains("experiment fig3"), "{summary}");
        assert_eq!(v, r.to_json(&spec));
    }

    #[test]
    fn validation_rejects_wrong_versions_and_missing_keys() {
        let (r, spec) = sample();
        let mut v = r.to_json(&spec);
        if let Json::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "metrics");
        }
        assert!(validate(&v).unwrap_err().contains("metrics"));
        let bad = Json::parse(r#"{"schema_version": 99}"#).unwrap();
        assert!(validate(&bad).unwrap_err().contains("99"));

        // Phases must be finite, non-negative seconds that fit inside
        // the wall time (4.25 s in `sample`).
        for (secs, want) in [
            (Json::Num(-0.5), "train"),
            (Json::Num(f64::INFINITY), "train"),
            (Json::Num(f64::NAN), "train"),
            (Json::Str("2".into()), "train"),
            (Json::Num(2.5), "past wall_seconds"),
        ] {
            let mut v = r.to_json(&spec);
            if let Json::Obj(fields) = &mut v {
                let phases = &mut fields.iter_mut().find(|(k, _)| k == "phases").unwrap().1;
                *phases = Json::Obj(vec![
                    ("datasets".to_string(), Json::Num(2.0)),
                    ("train".to_string(), secs),
                ]);
            }
            let err = validate(&v).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
    }

    #[test]
    fn a_lap_excludes_carved_phases_and_the_phases_sum_to_the_elapsed_total() {
        let nap = || std::thread::sleep(std::time::Duration::from_millis(10));
        let mut r = Report::new();
        nap();
        let t = Instant::now();
        nap();
        let carved = t.elapsed().as_secs_f64();
        r.phase("datasets", carved);
        nap();
        let train = r.lap("train");
        let at_lap = (r.lap_start - r.started).as_secs_f64();
        assert!(
            (train - (at_lap - carved)).abs() < 1e-9,
            "{train} {at_lap} {carved}"
        );
        assert!(train >= 0.02, "two naps outside the carve-out: {train}");
        nap();
        let eval = r.lap("eval");
        assert!(eval >= 0.01, "{eval}");
        let total = (r.lap_start - r.started).as_secs_f64();
        let sum: f64 = r.phases.iter().map(|(_, s)| s).sum();
        assert!(
            (sum - total).abs() < 1e-9,
            "phases {sum} vs elapsed {total}"
        );
        r.wall_seconds = Some(total);
        validate(&r.to_json(&ExperimentSpec::new(ExperimentKind::Fig3))).unwrap();
    }
}

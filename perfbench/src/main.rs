//! End-to-end and per-layer benchmark of the PerfVec workspace.
//!
//! ```text
//! perfbench --workload datagen|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets up and then drives three phases through the layers'
//! public functions: `datagen` (cold dataset generation and a warm
//! reload), `pipeline` (the fig3 protocol from a warm cache) and
//! `serve` (a closed HTTP loop), their passes interleaved over the
//! whole run. The workload names the phase that gets the largest share
//! of the `S` seconds; the other two get the rest, so every run reports
//! every metric. The last line of standard output
//! is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (from in-memory spans around each layer call) with
//! `--trace 1`. Correctness gates run in both; any failure exits 1.

mod datagen;
mod pipeline;
mod probe;
mod serve;
mod spans;
mod stats;

use perfvec_json::{obj, Json};
use perfvec_sim::sample::{training_population, DEFAULT_MARCH_SEED};
use spans::Tracer;
use stats::{median, quantile};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Set-up repetitions per run, the first before the phases and the
/// rest spread over the run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy)]
enum Workload {
    Datagen,
    Serve,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut work_dir = PathBuf::from(".bench_build/perfbench");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "datagen" => Workload::Datagen,
                    "serve" => Workload::Serve,
                    _ => return Err(bad()),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work_dir,
    })
}

/// Probe samples taken after every pass and every set-up.
const PROBES_PER_GAP: usize = 4;

/// Minimum passes per phase, whatever the time.
const MIN_PASSES: [usize; 3] = [2, 1, 2];

/// Each phase's share of `--seconds` (datagen, pipeline, serve): the
/// workload's own phase gets the most, `pipeline`, which is no
/// workload's own, 30 %, and the third a quarter.
fn shares(workload: Workload) -> [f64; 3] {
    match workload {
        Workload::Datagen => [0.45, 0.3, 0.25],
        Workload::Serve => [0.25, 0.3, 0.45],
    }
}

/// Correctness gates: checks attempted and failed.
#[derive(Default)]
pub struct Gates {
    pub attempted: u64,
    pub failed: u64,
}

impl Gates {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: gate failed: {}", what());
            }
        }
    }
}

/// Deterministic generator for the seeded inputs (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// This run's scratch directory, removed when the run ends.
pub struct WorkDir {
    root: PathBuf,
    next: AtomicU32,
}

impl WorkDir {
    fn create(base: &Path) -> Result<WorkDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let root = base.join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(WorkDir {
            root,
            next: AtomicU32::new(0),
        })
    }

    /// A new empty directory inside the run's scratch directory.
    pub fn fresh(&self, tag: &str) -> Result<PathBuf, String> {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let dir = self.root.join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count or definition note, printed beside the value.
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// Median of per-pass samples, noting how many there were and their
/// range.
fn med(name: &'static str, xs: &[f64], unit: &'static str) -> Metric {
    let v = median(xs).unwrap_or(f64::NAN);
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    metric(
        name,
        v,
        unit,
        format!("median of {}, range {lo:.6}..{hi:.6}", xs.len()),
    )
}

/// An exact quantile of raw samples, noting the sample count.
fn pct(name: &'static str, xs: &[f64], q: f64, unit: &'static str) -> Metric {
    let v = quantile(xs, q).unwrap_or(f64::NAN);
    metric(
        name,
        v,
        unit,
        format!("p{:.0} of {} samples", q * 100.0, xs.len()),
    )
}

/// Everything the three phases measured in one run.
struct Phases {
    setup_s: Vec<f64>,
    /// `VmHWM` after the first round, MB.
    peak_rss_mb: f64,
    probe: probe::Probe,
    datagen: datagen::Outcome,
    pipeline: pipeline::Outcome,
    serve: serve::Outcome,
    /// Each pass's phase and wall-clock window, µs since the tracer
    /// started.
    passes: Vec<(usize, f64, f64)>,
}

fn run_phases(
    args: &Args,
    tr: &Tracer,
    work: &WorkDir,
    gates: &mut Gates,
) -> Result<Phases, String> {
    let configs = training_population(DEFAULT_MARCH_SEED);
    let mut probe = probe::Probe::new();
    let probe_gap = |probe: &mut probe::Probe| (0..PROBES_PER_GAP).for_each(|_| probe.sample());
    let set_up = |gates: &mut Gates| {
        let t = Instant::now();
        let programs = datagen::setup(tr)?;
        let warm = pipeline::setup(work, &configs, gates)?;
        let served = serve::setup(tr, work, &programs, args.seed)?;
        Ok::<_, String>((t.elapsed().as_secs_f64(), (programs, warm, served)))
    };
    let (first_s, (programs, warm, mut served)) = set_up(gates)?;
    probe_gap(&mut probe);
    let mut setup_s = vec![first_s];

    // The phases' passes interleave, so each phase's samples spread over
    // the whole run: the host's speed swings within seconds, and a
    // phase run as one block would see only the spell it fell into.
    // A first round runs one pass of each phase in order, datagen first;
    // the peak memory is read after it, before the interleaving can
    // fragment the heap. After that the next pass always goes to the
    // phase that has used the least of its share.
    let mut dg = datagen::Datagen::new(tr, &programs, &configs);
    let mut pl = pipeline::Pipeline::new(tr, &warm, &configs);
    let mut sv = serve::Serve::new(tr, &mut served);
    let budget = shares(args.workload).map(|share| share * args.seconds);
    let (mut spent, mut count) = ([0.0f64; 3], [0usize; 3]);
    let mut peak_rss_mb = f64::NAN;
    let mut passes = Vec::new();
    loop {
        let next = count.iter().position(|&n| n == 0).or_else(|| {
            (0..3)
                .filter(|&i| count[i] < MIN_PASSES[i] || spent[i] < budget[i])
                .min_by(|&a, &b| (spent[a] / budget[a]).total_cmp(&(spent[b] / budget[b])))
        });
        let Some(i) = next else { break };
        let (from, t) = (tr.now_us(), Instant::now());
        match i {
            0 => dg.step(work, gates)?,
            1 => pl.step(gates),
            _ => sv.step(gates)?,
        }
        spent[i] += t.elapsed().as_secs_f64();
        count[i] += 1;
        passes.push((i, from, tr.now_us()));
        probe_gap(&mut probe);
        if passes.len() == 3 {
            peak_rss_mb = peak_rss();
        }
        // The set-up repeats (built, timed, dropped) each time the run
        // passes another 1 / SETUP_REPS of its time, so its samples
        // spread over the run like the phases'.
        let done = spent.iter().sum::<f64>() / budget.iter().sum::<f64>();
        if passes.len() >= 3
            && setup_s.len() < SETUP_REPS
            && done * SETUP_REPS as f64 >= setup_s.len() as f64
        {
            setup_s.push(set_up(gates)?.0);
            probe_gap(&mut probe);
        }
    }
    while setup_s.len() < SETUP_REPS {
        setup_s.push(set_up(gates)?.0);
        probe_gap(&mut probe);
    }
    let mut rng = Rng::new(args.seed);
    Ok(Phases {
        setup_s,
        peak_rss_mb,
        probe,
        datagen: dg.finish(&mut rng, gates),
        pipeline: pl.finish(&mut rng),
        serve: sv.finish(gates)?,
        passes,
    })
}

/// A timing metric at the nominal host speed: the measured value times
/// `by` (the run's host-speed index for times, its inverse for rates).
/// The note keeps the measured value.
fn at_nominal(mut m: Metric, by: f64) -> Metric {
    m.note = format!("{}; measured {:.6} x {by:.4}", m.note, m.value);
    m.value *= by;
    m
}

fn end_to_end(p: &Phases) -> Vec<Metric> {
    let (dg, pl, sv) = (&p.datagen, &p.pipeline, &p.serve);
    let time = p.probe.index();
    let rate = 1.0 / time;
    vec![
        at_nominal(med("setup_s", &p.setup_s, "s"), time),
        metric(
            "peak_rss_mb",
            p.peak_rss_mb,
            "MB",
            format!(
                "VmHWM after one pass of each phase; {:.1} at exit",
                peak_rss()
            ),
        ),
        at_nominal(
            med("datagen_minstr_per_s", &dg.minstr_per_s, "Minstr/s"),
            rate,
        ),
        at_nominal(med("warm_load_s", &dg.warm_load_s, "s"), time),
        at_nominal(med("pipeline_s", &pl.pipeline_s, "s"), time),
        at_nominal(
            med("train_windows_per_s", &pl.train_windows_per_s, "windows/s"),
            rate,
        ),
        at_nominal(
            med(
                "represent_kinstr_per_s",
                &pl.represent_kinstr_per_s,
                "kinstr/s",
            ),
            rate,
        ),
        metric(
            "seen_error_pct",
            pl.seen_error_pct,
            "%",
            "fig3 mean, seen programs",
        ),
        metric(
            "unseen_error_pct",
            pl.unseen_error_pct,
            "%",
            "fig3 mean, unseen programs",
        ),
        at_nominal(
            metric(
                "serve_rps",
                sv.completed as f64 / sv.loop_s,
                "1/s",
                format!(
                    "{} predictions in {:.2} s, {} sessions",
                    sv.completed, sv.loop_s, sv.sessions
                ),
            ),
            rate,
        ),
        at_nominal(pct("serve_miss_p50_ms", &sv.miss_ms, 0.5, "ms"), time),
        at_nominal(pct("serve_miss_p90_ms", &sv.miss_ms, 0.9, "ms"), time),
        at_nominal(pct("serve_hit_p50_ms", &sv.hit_ms, 0.5, "ms"), time),
        at_nominal(pct("serve_hit_p90_ms", &sv.hit_ms, 0.9, "ms"), time),
    ]
}

fn per_layer(tr: &Tracer, p: &Phases) -> Vec<Metric> {
    let layers = tr.layers();
    let stat = |name: &str| layers.get(name).copied().unwrap_or_default();
    let self_s = |name: &str| stat(name).self_s;
    let mean_us = |name: &str| {
        let s = stat(name);
        if s.count == 0 {
            f64::NAN
        } else {
            s.self_s * 1e6 / s.count as f64
        }
    };
    let (dg, pl, sv) = (&p.datagen, &p.pipeline, &p.serve);
    let gens = dg.reps() as f64;
    let passes = pl.pipeline_s.len() as f64;
    let per_gen = "per cold generation";
    let per_pass = "per pipeline pass";
    let ratio = |a: u64, b: u64| {
        if b == 0 {
            f64::NAN
        } else {
            a as f64 / b as f64
        }
    };

    let engine_miss = mean_us("serve.engine_miss");
    let coalesced = mean_us("compose.coalesced");
    let stage_sum = [
        stat("json.parse"),
        stat("serve.protocol"),
        stat("serve.feature_resolve"),
        stat("serve.engine_miss"),
        stat("serve.engine_hit"),
    ]
    .iter()
    .map(|s| s.self_s)
    .sum::<f64>();
    let requests = stat("serve.request");
    let replayed = sv.requests as f64;
    let transport =
        requests.total_s * 1e6 / requests.count.max(1) as f64 - stage_sum * 1e6 / replayed;

    let wall_us: f64 = p.passes.iter().map(|(_, a, b)| b - a).sum();
    let uncovered_us: f64 = p
        .passes
        .iter()
        .map(|&(_, a, b)| tr.uncovered_us(a, b))
        .sum();
    let phase_wall_s = wall_us * 1e-6;

    vec![
        metric("isa.emulate_s", self_s("isa.emulate") / gens, "s", per_gen),
        metric("isa.instructions", dg.instructions as f64, "count", per_gen),
        metric(
            "asm.assemble_s",
            self_s("asm.assemble") / SETUP_REPS as f64,
            "s",
            "per set-up",
        ),
        metric(
            "trace.features_s",
            self_s("trace.features") / gens,
            "s",
            per_gen,
        ),
        metric(
            "trace.binio_encode_s",
            self_s("trace.binio_encode") / gens,
            "s",
            per_gen,
        ),
        metric(
            "trace.binio_decode_s",
            self_s("trace.binio_decode") / gens,
            "s",
            "per warm reload",
        ),
        metric(
            "trace.bytes",
            dg.bytes as f64,
            "B",
            "encoded, per generation",
        ),
        metric(
            "sim.simulate_column_s",
            dg.lib_simulate_us as f64 * 1e-6 / gens,
            "s",
            "per cold generation, simulator's lockstep metrics",
        ),
        metric(
            "sim.cells",
            dg.lib_cells as f64 / gens,
            "count",
            "per cold generation, simulator's lockstep metrics",
        ),
        metric(
            "sim.instructions",
            dg.sim.instructions as f64,
            "count",
            per_gen,
        ),
        metric("sim.cycles", dg.sim.cycles as f64, "count", per_gen),
        metric(
            "sim.mispredicts",
            dg.sim.mispredicts as f64,
            "count",
            per_gen,
        ),
        metric("sim.l1d_misses", dg.sim.l1d_misses as f64, "count", per_gen),
        metric("sim.l2_misses", dg.sim.l2_misses as f64, "count", per_gen),
        metric(
            "cache.publish_s",
            self_s("cache.publish") / gens,
            "s",
            per_gen,
        ),
        metric(
            "cache.read_s",
            self_s("cache.read") / gens,
            "s",
            "per warm reload",
        ),
        metric("cache.hits", dg.hits as f64, "count", "datagen CacheStats"),
        metric(
            "cache.misses",
            dg.misses as f64,
            "count",
            "datagen CacheStats",
        ),
        metric(
            "cache.hit_ratio",
            ratio(dg.hits as u64, (dg.hits + dg.misses) as u64),
            "ratio",
            "datagen CacheStats",
        ),
        metric("train.steps", pl.steps as f64, "count", per_pass),
        pct("train.step_us_p50", &pl.replay_step_us, 0.5, "us"),
        pct("train.step_us_p90", &pl.replay_step_us, 0.9, "us"),
        med("train.validation_s", &pl.validation_s, "s"),
        metric(
            "ml.forward_batch_cached_us",
            mean_us("ml.forward_batch_cached"),
            "us",
            "replayed step",
        ),
        metric(
            "ml.backward_batch_us",
            mean_us("ml.backward_batch"),
            "us",
            "replayed step",
        ),
        metric("ml.adam_us", mean_us("ml.adam"), "us", "replayed step"),
        metric(
            "refit.s",
            self_s("refit.refit_march_table") / passes,
            "s",
            per_pass,
        ),
        metric("refit.windows", pl.refit_windows as f64, "count", per_pass),
        metric(
            "compose.represent_s",
            self_s("compose.program_representation") / passes,
            "s",
            per_pass,
        ),
        metric("compose.windows", pl.eval_windows as f64, "count", per_pass),
        metric("compose.coalesced_us", coalesced, "us", "per serve miss"),
        metric(
            "predict.eval_s",
            stat("predict.eval").total_s / passes,
            "s",
            per_pass,
        ),
        metric(
            "checkpoint.load_s",
            stat("checkpoint.load").total_s / stat("checkpoint.load").count.max(1) as f64,
            "s",
            "per load",
        ),
        metric("json.parse_us", mean_us("json.parse"), "us", "per request"),
        metric(
            "json.body_bytes",
            ratio(sv.body_bytes, sv.requests),
            "B",
            "per request",
        ),
        metric(
            "serve.protocol_us",
            mean_us("serve.protocol"),
            "us",
            "per request",
        ),
        metric(
            "serve.feature_resolve_us",
            mean_us("serve.feature_resolve"),
            "us",
            "per named miss",
        ),
        metric("serve.engine_miss_us", engine_miss, "us", "per miss"),
        metric(
            "serve.engine_hit_us",
            mean_us("serve.engine_hit"),
            "us",
            "per hit",
        ),
        metric(
            "serve.queue_wait_us",
            engine_miss - coalesced,
            "us",
            "engine miss minus coalesced forward",
        ),
        metric(
            "serve.transport_us",
            transport,
            "us",
            "client round trip minus server stages",
        ),
        metric(
            "serve.mean_batch",
            ratio(sv.batched_jobs, sv.batches),
            "jobs",
            "per engine batch",
        ),
        metric(
            "serve.rep_cache_hit_ratio",
            ratio(sv.rep_hits, sv.rep_hits + sv.rep_misses),
            "ratio",
            "engine counters",
        ),
        metric("serve.shed", sv.shed as f64, "count", "engine counters"),
        metric("serve.failed", sv.failed as f64, "count", "client side"),
        metric(
            "bench.trace_overhead_pct",
            100.0 * tr.bookkeeping_s() / phase_wall_s,
            "%",
            "recorder time / phase wall",
        ),
        metric(
            "bench.uncovered_pct",
            100.0 * uncovered_us / wall_us,
            "%",
            "phase wall outside top-level spans",
        ),
    ]
}

/// Process peak resident set (`VmHWM`), MB.
fn peak_rss() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn print_layers(tr: &Tracer, p: &Phases) {
    println!(
        "{:<34} {:>8} {:>12} {:>12}",
        "span", "count", "total s", "self s"
    );
    for (name, s) in tr.layers() {
        println!(
            "{name:<34} {:>8} {:>12.4} {:>12.4}",
            s.count, s.total_s, s.self_s
        );
    }
    println!(
        "serve.feature_cache_hit_ratio: not measured; the server's named-workload \
         feature cache is private and exposes no counters"
    );
    for (i, phase) in ["datagen", "pipeline", "serve"].iter().enumerate() {
        let mine = p.passes.iter().filter(|w| w.0 == i);
        let wall: f64 = mine.clone().map(|(_, a, b)| b - a).sum::<f64>() * 1e-6;
        let gap: f64 = mine.map(|&(_, a, b)| tr.uncovered_us(a, b)).sum::<f64>() * 1e-6;
        println!(
            "phase {phase:<9} wall {wall:>8.3} s, uncovered by top-level spans {gap:>7.3} s ({:.1}%)",
            100.0 * gap / wall
        );
    }
}

fn real_main() -> i32 {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload datagen|serve --seed N --seconds S --trace 0|1");
            return 2;
        }
    };
    perfvec_obs::log::set_level(perfvec_obs::Level::Warn);
    let work = match WorkDir::create(&args.work_dir) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let tr = Tracer::new(args.trace);
    let mut gates = Gates::default();
    let phases = match run_phases(&args, &tr, &work, &mut gates) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let metrics = if args.trace {
        print_layers(&tr, &phases);
        let path = args
            .work_dir
            .join(format!("spans-{:?}-{}.json", args.workload, args.seed).to_lowercase());
        match std::fs::write(&path, tr.to_json().to_string()) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: {}: {e}", path.display()),
        }
        per_layer(&tr, &phases)
    } else {
        end_to_end(&phases)
    };
    for m in &metrics {
        println!("{:<34} {:>16.6} {:<10} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "host speed index {:.4}: median of {} probe samples against {} ms",
        phases.probe.index(),
        phases.probe.samples(),
        probe::NOMINAL_S * 1e3
    );
    println!(
        "gates: {} attempted, {} failed",
        gates.attempted, gates.failed
    );
    let fields = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                Json::Num(m.value)
            } else {
                Json::Null
            };
            (
                m.name,
                obj(vec![("value", v), ("unit", Json::Str(m.unit.to_string()))]),
            )
        })
        .collect();
    let correct = gates.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{}",
        obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(gates.attempted as f64)),
            ("failed", Json::Num(gates.failed as f64)),
            ("metrics", obj(fields)),
        ])
    );
    if correct {
        0
    } else {
        1
    }
}

fn main() {
    std::process::exit(real_main());
}

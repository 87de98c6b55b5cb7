//! The throughput harnesses (`serve_bench`, `train_bench`, `sim_bench`,
//! `obs_overhead`). Each writes its `BENCH_*.json` perf-trajectory file
//! (all but `obs_overhead`); the spec report mirrors the same numbers.
//! Parity/regression failures return [`RunError`] with the line to
//! print before exiting nonzero.

use super::{datasets, RunError};
use crate::report::Report;
use crate::scale::Scale;
use crate::spec::ExperimentSpec;
use perfvec::checkpoint::encode;
use perfvec::foundation::{ArchKind, ArchSpec, Foundation};
use perfvec::trainer::{TrainConfig, TrainedFoundation};
use perfvec::{predict_total_tenths, program_representation, MarchTable};
use perfvec_json::{obj, Json};
use perfvec_ml::schedule::StepDecay;
use perfvec_obs::{info, warn, Histogram};
use perfvec_serve::registry::{LoadedModel, ModelRegistry};
use perfvec_serve::server::named_workload_features;
use perfvec_serve::{start, EngineConfig, PredictEngine, ServerConfig};
use perfvec_sim::reference::simulate_reference;
use perfvec_sim::sample::{
    predefined_configs, sample_configs, training_population, DEFAULT_MARCH_SEED, DEFAULT_POPULATION,
};
use perfvec_sim::{simulate, simulate_column, CoreKind, MicroArchConfig, SimResult};
use perfvec_trace::features::FeatureMask;
use perfvec_trace::ProgramData;
use perfvec_workloads::{suite, training_suite};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One HTTP round trip (panics on transport errors — bench style).
fn http(stream: &mut TcpStream, method: &str, path: &str, body: &str) -> (u16, Json) {
    perfvec_serve::client::roundtrip(stream, method, path, body).expect("http round trip")
}

/// The model width and context both throughput harnesses use at each
/// scale (full scale stays far below the paper's 256/255 so the gate
/// runs in CI time; the kernels under test are the same).
fn bench_scale_dims(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Quick => (16usize, 8usize),
        Scale::Full => (32, 12),
    }
}

/// The stable lowercase name of an architecture family (the `arch`
/// param vocabulary and the per-arch key in the BENCH JSONs).
fn arch_name(kind: ArchKind) -> &'static str {
    match kind {
        ArchKind::Linear => "linear",
        ArchKind::Mlp => "mlp",
        ArchKind::Lstm => "lstm",
        ArchKind::BiLstm => "bilstm",
        ArchKind::Gru => "gru",
        ArchKind::Transformer => "transformer",
    }
}

/// Parse the `arch` param: a comma-separated list of family names,
/// each instantiated as the Figure 6 two-layer spec at width `dim`.
/// Defaults to the paper's LSTM, so existing invocations measure
/// exactly what they always did.
fn parse_archs(spec: &ExperimentSpec, dim: usize, bench: &str) -> Result<Vec<ArchSpec>, RunError> {
    let raw = spec.param_str("arch", "lstm")?;
    raw.split(',')
        .map(|name| {
            let kind = match name.trim() {
                "linear" => ArchKind::Linear,
                "mlp" => ArchKind::Mlp,
                "lstm" => ArchKind::Lstm,
                "bilstm" => ArchKind::BiLstm,
                "gru" => ArchKind::Gru,
                "transformer" => ArchKind::Transformer,
                other => {
                    return Err(RunError(format!(
                        "[{bench}] unknown arch {other:?} \
                         (linear | mlp | lstm | bilstm | gru | transformer)"
                    )))
                }
            };
            Ok(ArchSpec {
                kind,
                layers: 2,
                dim,
            })
        })
        .collect()
}

/// Short model description, e.g. `LSTM-2-16 (c=8)`.
fn arch_desc(arch: ArchSpec, context: usize) -> String {
    format!("{} (c={context})", arch.build(context + 1, 42).describe())
}

/// The bench model: untrained but structurally real (training cost is
/// irrelevant to serving throughput — the forward pass is identical).
fn bench_model(arch: ArchSpec, context: usize) -> (ModelRegistry, Foundation, MarchTable) {
    let k = training_population(DEFAULT_MARCH_SEED).len();
    let offline_foundation = Foundation::new(arch, context, 0.1, 42);
    let offline_table = MarchTable::new(k, arch.dim, 7);
    let registry = ModelRegistry::new(vec![LoadedModel::from_parts(
        "default",
        Foundation::new(arch, context, 0.1, 42),
        arch,
        MarchTable::new(k, arch.dim, 7),
        DEFAULT_MARCH_SEED,
    )])
    .unwrap();
    (registry, offline_foundation, offline_table)
}

/// The request mix: workloads × trace-length jitter × march rows. Every
/// combination is a distinct program (different features), so with
/// `no_cache` the server does full representation work per request.
struct RequestMix {
    programs: Vec<&'static str>,
    base_len: u64,
    marches: usize,
}

impl RequestMix {
    fn body(&self, i: usize, no_cache: bool) -> String {
        let program = self.programs[i % self.programs.len()];
        let trace_len = self.base_len + 64 * ((i / self.programs.len()) % 4) as u64;
        let march = i % self.marches;
        format!(
            r#"{{"program":"{program}","trace_len":{trace_len},"march_index":{march},"no_cache":{no_cache}}}"#
        )
    }
}

struct PhaseResult {
    throughput_rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    mean_batch: f64,
    max_batch: u64,
}

/// Drive `requests` unique no-cache requests over `conns` keep-alive
/// connections against a fresh in-process server.
///
/// Latency quantiles come from one shared lock-free
/// [`perfvec_obs::Histogram`] that every client thread records into —
/// the same estimator `/metrics` exposes, with the bit-pinned bucket
/// and rank semantics documented in `perfvec_obs::histogram` (bucket
/// upper bounds, ≤12.5% relative error, capped at the observed max).
fn run_phase(
    label: &'static str,
    registry: ModelRegistry,
    engine: EngineConfig,
    conns: usize,
    requests: usize,
    mix: &Arc<RequestMix>,
) -> PhaseResult {
    let handle = start(
        registry,
        ServerConfig {
            port: 0,
            engine,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = handle.addr;
    let next = Arc::new(AtomicUsize::new(0));
    let latency_us = Arc::new(Histogram::new());
    let t0 = Instant::now();
    let threads: Vec<_> = (0..conns)
        .map(|_| {
            let next = Arc::clone(&next);
            let mix = Arc::clone(mix);
            let latency_us = Arc::clone(&latency_us);
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).expect("connect");
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= requests {
                        return;
                    }
                    // `no_cache:false` + a server with `cache_entries:0`:
                    // the representation is recomputed for every request
                    // (the rep cache is disabled server-side) while the
                    // feature cache still amortizes tracing, so the
                    // measurement isolates the forward-pass serving cost.
                    let body = mix.body(i, false);
                    let t = Instant::now();
                    let (status, resp) = http(&mut conn, "POST", "/v1/predict", &body);
                    latency_us.record(t.elapsed().as_micros() as u64);
                    assert_eq!(status, 200, "{label}: {resp}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let wall = t0.elapsed().as_secs_f64();
    let stats = handle.engine().stats();
    handle.shutdown();
    let lat = latency_us.summary();
    PhaseResult {
        throughput_rps: requests as f64 / wall,
        p50_ms: lat.p50 as f64 / 1e3,
        p95_ms: lat.p95 as f64 / 1e3,
        p99_ms: lat.p99 as f64 / 1e3,
        mean_batch: if stats.batcher.batches > 0 {
            stats.batcher.jobs as f64 / stats.batcher.batches as f64
        } else {
            0.0
        },
        max_batch: stats.batcher.max_batch,
    }
}

fn phase_json(r: &PhaseResult) -> Json {
    obj(vec![
        ("throughput_rps", Json::Num(r.throughput_rps)),
        ("p50_ms", Json::Num(r.p50_ms)),
        ("p95_ms", Json::Num(r.p95_ms)),
        ("p99_ms", Json::Num(r.p99_ms)),
        ("mean_batch", Json::Num(r.mean_batch)),
        ("max_batch", Json::Num(r.max_batch as f64)),
    ])
}

/// `serve_bench`: micro-batched vs unbatched serving throughput and
/// tail latency, with a bit-parity gate against the offline predictor.
/// `--set arch=transformer,bilstm,...` sweeps any subset of the model
/// zoo (default: the paper's LSTM); each architecture gets its own
/// parity gate, both load phases, and a per-arch entry in
/// `BENCH_serve.json`; the report's top-level metrics describe the
/// first arch.
pub fn serve_bench(spec: &ExperimentSpec, report: &mut Report) -> Result<(), RunError> {
    let scale = spec.scale;
    let (dim, context) = bench_scale_dims(scale);
    let batch = spec.param_usize("batch", 32)?;
    let default_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .min(4);
    let workers = spec.param_usize("workers", default_workers)?;
    let conns = spec.param_usize("conns", 16)?;
    let requests = spec.param_usize(
        "requests",
        match scale {
            Scale::Quick => 160,
            Scale::Full => 480,
        },
    )?;
    if batch < 8 {
        return Err(RunError(format!(
            "[serve_bench] batch {batch} below 8 defeats the point of the comparison"
        )));
    }
    let archs = parse_archs(spec, dim, "serve_bench")?;
    // `assert_speedup` turns a throughput regression into a hard
    // failure (CI uses a conservative floor so a serialized
    // forward-batch path cannot land silently). With several archs it
    // applies to every one of them.
    let min_speedup = spec.param_f64("assert_speedup", 0.0)?;

    let mix = Arc::new(RequestMix {
        programs: vec![
            "525.x264-like",
            "557.xz-like",
            "999.specrand-like",
            "508.namd-like",
        ],
        base_len: match scale {
            Scale::Quick => 1_500,
            Scale::Full => 4_000,
        },
        marches: training_population(DEFAULT_MARCH_SEED).len(),
    });

    let mut arch_entries: Vec<(String, Json)> = Vec::new();
    for arch in &archs {
        let name = arch_name(arch.kind);
        // ---- parity gate ---------------------------------------------
        let (registry, offline_foundation, offline_table) = bench_model(*arch, context);
        let model_desc = offline_foundation.describe();
        let handle = start(
            registry,
            ServerConfig {
                port: 0,
                engine: EngineConfig {
                    batch,
                    queue_depth: 1024,
                    workers,
                    cache_entries: 64,
                },
                ..ServerConfig::default()
            },
        )
        .expect("server start");
        let mut conn = TcpStream::connect(handle.addr).unwrap();
        let (program, trace_len, march) = ("999.specrand-like", 800u64, 5usize);
        let body =
            format!(r#"{{"program":"{program}","trace_len":{trace_len},"march_index":{march}}}"#);
        let (status, resp) = http(&mut conn, "POST", "/v1/predict", &body);
        assert_eq!(status, 200, "parity request failed: {resp}");
        let served = resp
            .get("predicted_bits")
            .and_then(Json::as_str)
            .and_then(perfvec_serve::protocol::f64_from_bits_hex)
            .unwrap();
        let feats = named_workload_features(program, trace_len).unwrap();
        let rep = program_representation(&offline_foundation, &feats);
        let offline = predict_total_tenths(
            &rep,
            offline_table.rep(march),
            offline_foundation.target_scale,
        );
        if served.to_bits() != offline.to_bits() {
            return Err(RunError(format!(
                "[serve_bench] PARITY FAILURE ({name}): served {served} vs offline {offline}"
            )));
        }
        info!(
            "serve_bench",
            "[serve_bench] {name}: parity ok — served == offline bit-for-bit ({offline} x 0.1ns)"
        );
        // Cache-hit fast path: repeat the identical request (cache on).
        let cache_reqs = 200usize;
        let t_cache = Instant::now();
        for _ in 0..cache_reqs {
            let (_, r) = http(&mut conn, "POST", "/v1/predict", &body);
            assert_eq!(r.get("cache_hit").and_then(Json::as_bool), Some(true));
        }
        let cache_rps = cache_reqs as f64 / t_cache.elapsed().as_secs_f64();
        info!(
            "serve_bench",
            "[serve_bench] {name}: cache-hit serving {cache_rps:.0} req/s \
             (O(1) repeated queries)"
        );
        handle.shutdown();
        report.lap("parity_gate");

        // ---- batched vs unbatched, same worker count -----------------
        info!(
            "serve_bench",
            "[serve_bench] {name}: measuring {requests} unique uncached requests, \
             {conns} connections, {workers} workers, {model_desc}"
        );
        let unbatched = run_phase(
            "unbatched",
            bench_model(*arch, context).0,
            EngineConfig {
                batch: 1,
                queue_depth: 1024,
                workers,
                cache_entries: 0,
            },
            conns,
            requests,
            &mix,
        );
        info!(
            "serve_bench",
            "[serve_bench] {name}: --batch 1 : {:7.1} req/s  p50 {:6.1}ms  p95 {:6.1}ms  \
             p99 {:6.1}ms",
            unbatched.throughput_rps,
            unbatched.p50_ms,
            unbatched.p95_ms,
            unbatched.p99_ms
        );
        let batched = run_phase(
            "batched",
            bench_model(*arch, context).0,
            EngineConfig {
                batch,
                queue_depth: 1024,
                workers,
                cache_entries: 0,
            },
            conns,
            requests,
            &mix,
        );
        info!(
            "serve_bench",
            "[serve_bench] {name}: --batch {batch:<2}: {:7.1} req/s  p50 {:6.1}ms  \
             p95 {:6.1}ms  p99 {:6.1}ms  (mean coalesce {:.1}, max {})",
            batched.throughput_rps,
            batched.p50_ms,
            batched.p95_ms,
            batched.p99_ms,
            batched.mean_batch,
            batched.max_batch
        );
        report.lap("load_phases");
        let speedup = batched.throughput_rps / unbatched.throughput_rps;
        println!(
            "serve_bench[{name}]: micro-batching speedup {speedup:.2}x ({:.1} -> {:.1} req/s, \
             batch {batch}, {workers} workers)",
            unbatched.throughput_rps, batched.throughput_rps
        );

        let entry = obj(vec![
            ("model", Json::Str(model_desc)),
            ("parity", Json::Str("bit-identical".into())),
            ("unbatched", phase_json(&unbatched)),
            ("batched", phase_json(&batched)),
            ("speedup", Json::Num(speedup)),
            ("cache_hit_rps", Json::Num(cache_rps)),
        ]);
        report.metric(&format!("{name}_speedup"), Json::Num(speedup));
        if arch_entries.is_empty() {
            report.metric_f64("speedup", speedup);
            report.metric_f64("cache_hit_rps", cache_rps);
            report.metric("parity", Json::Str("bit-identical".into()));
            report.metric("unbatched", phase_json(&unbatched));
            report.metric("batched", phase_json(&batched));
        }
        arch_entries.push((name.to_string(), entry));
        if speedup < 3.0 {
            warn!(
                "serve_bench",
                "[serve_bench] WARNING: {name} speedup {speedup:.2}x below the 3x target on \
                 this machine"
            );
        }
        if speedup < min_speedup {
            return Err(RunError(format!(
                "[serve_bench] FAIL: {name} speedup {speedup:.2}x below the asserted minimum \
                 {min_speedup}x"
            )));
        }
    }

    // ---- BENCH_serve.json --------------------------------------------
    // `archs` carries every swept architecture by name.
    let bench = obj(vec![
        ("scale", Json::Str(format!("{scale:?}").to_lowercase())),
        ("workers", Json::Num(workers as f64)),
        ("connections", Json::Num(conns as f64)),
        ("requests", Json::Num(requests as f64)),
        ("batch", Json::Num(batch as f64)),
        ("archs", Json::Obj(arch_entries)),
        ("wall_seconds", Json::Num(report.elapsed())),
    ]);
    std::fs::write("BENCH_serve.json", format!("{bench}\n")).expect("write BENCH_serve.json");
    info!("serve_bench", "[serve_bench] wrote BENCH_serve.json");
    Ok(())
}

fn bench_datasets(spec: &ExperimentSpec, report: &mut Report) -> Vec<ProgramData> {
    let configs = training_population(spec.seed);
    let workloads: Vec<_> = training_suite().into_iter().take(3).collect();
    let trace_len = spec.trace_len_or(match spec.scale {
        Scale::Quick => 6_000,
        Scale::Full => 20_000,
    });
    datasets(
        spec,
        report,
        &workloads,
        &configs,
        trace_len,
        FeatureMask::Full,
    )
}

fn bench_config(arch: ArchSpec, context: usize, batch: usize) -> TrainConfig {
    TrainConfig {
        arch,
        context,
        batch_size: batch,
        val_windows: 0,
        schedule: StepDecay {
            initial: 3e-3,
            gamma: 0.3,
            every: 10,
        },
        ..TrainConfig::default()
    }
}

fn checkpoint_bytes(trained: &TrainedFoundation, arch: ArchSpec) -> Vec<u8> {
    encode(&trained.foundation, arch, Some(&trained.march_table))
}

/// Snapshot → resume → byte-compare against an uninterrupted run.
fn resume_smoke(spec: &ExperimentSpec, report: &mut Report) -> Result<(), RunError> {
    let mut quick = spec.clone();
    quick.scale = Scale::Quick;
    let data = bench_datasets(&quick, report);
    let dir = std::env::temp_dir().join("perfvec_train_bench");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("resume_smoke.pfs");

    let (dim, context) = bench_scale_dims(Scale::Quick);
    let mut cfg = bench_config(ArchSpec::default_lstm(dim), context, 32);
    cfg.epochs = 4;
    cfg.windows_per_epoch = 320;
    cfg.val_windows = 200;
    let straight = crate::pipeline::train(&data, &cfg)?;

    let mut phase1 = cfg.clone();
    phase1.epochs = 2;
    phase1.snapshot = Some((2, snap.clone()));
    crate::pipeline::train(&data, &phase1)?;

    let mut phase2 = cfg.clone();
    phase2.resume_from = Some(snap.clone());
    let resumed = crate::pipeline::train(&data, &phase2)?;
    std::fs::remove_file(&snap).ok();

    let a = checkpoint_bytes(&straight, cfg.arch);
    let b = checkpoint_bytes(&resumed, cfg.arch);
    if a != b {
        return Err(RunError(
            "[train_bench] RESUME FAILURE: resumed checkpoint differs from straight run".into(),
        ));
    }
    if resumed.report.train_loss != straight.report.train_loss
        || resumed.report.val_loss != straight.report.val_loss
    {
        return Err(RunError(
            "[train_bench] RESUME FAILURE: loss history differs".into(),
        ));
    }
    report.lap("resume_smoke");
    println!(
        "train_bench: resume ok — snapshot at epoch 2/4 resumes to a byte-identical checkpoint \
         ({} bytes)",
        a.len()
    );
    report.metric("resume", Json::Str("byte-identical".into()));
    report.metric_f64("checkpoint_bytes", a.len() as f64);
    Ok(())
}

/// `train_bench`: batch-major vs scalar training throughput with a
/// byte-parity gate (or the `resume_smoke` mode's snapshot check).
/// `--set arch=transformer,bilstm,...` sweeps any subset of the model
/// zoo (default: the paper's LSTM); each architecture gets its own
/// byte-parity gate, both throughput runs, and a per-arch entry in
/// `BENCH_train.json`; the report's top-level metrics describe the
/// first arch.
pub fn train_bench(spec: &ExperimentSpec, report: &mut Report) -> Result<(), RunError> {
    if spec.param_bool("resume_smoke", false)? {
        return resume_smoke(spec, report);
    }

    let scale = spec.scale;
    let batch = spec.param_usize("batch", 32)?;
    let steps = spec.param_usize(
        "steps",
        match scale {
            Scale::Quick => 60,
            Scale::Full => 120,
        },
    )?;
    if batch < 8 {
        return Err(RunError(format!(
            "[train_bench] batch {batch} below 8 defeats the point of the comparison"
        )));
    }
    let (dim, context) = bench_scale_dims(scale);
    let archs = parse_archs(spec, dim, "train_bench")?;
    // `assert_speedup` turns a training-throughput regression into a
    // hard failure (CI floors this so a de-batched step cannot land
    // silently). With several archs it applies to every one of them.
    let min_speedup = spec.param_f64("assert_speedup", 0.0)?;
    let data = bench_datasets(spec, report);

    let windows = steps * batch;
    let mut arch_entries: Vec<(String, Json)> = Vec::new();
    for arch in &archs {
        let name = arch_name(arch.kind);
        let model_desc = arch_desc(*arch, context);
        // ---- parity gate ---------------------------------------------
        let mut parity_cfg = bench_config(*arch, context, 20);
        parity_cfg.epochs = 2;
        parity_cfg.windows_per_epoch = 200;
        parity_cfg.val_windows = 120;
        parity_cfg.batched = true;
        let pb = crate::pipeline::train(&data, &parity_cfg)?;
        parity_cfg.batched = false;
        let ps = crate::pipeline::train(&data, &parity_cfg)?;
        let (b_bytes, s_bytes) = (
            checkpoint_bytes(&pb, parity_cfg.arch),
            checkpoint_bytes(&ps, parity_cfg.arch),
        );
        if b_bytes != s_bytes {
            return Err(RunError(format!(
                "[train_bench] PARITY FAILURE ({name}): batched and scalar checkpoints differ"
            )));
        }
        info!(
            "train_bench",
            "[train_bench] {name}: parity ok — batched == scalar checkpoint byte-for-byte \
             ({} bytes)",
            b_bytes.len()
        );
        report.lap("parity_gate");

        // ---- batched vs scalar steps/sec at equal seeds --------------
        let mut cfg = bench_config(*arch, context, batch);
        cfg.epochs = 1;
        cfg.windows_per_epoch = windows;
        info!(
            "train_bench",
            "[train_bench] {name}: measuring {steps} gradient steps x batch {batch} windows, \
             {model_desc}, k={} machines",
            data[0].num_marches()
        );
        let mut sps = [0.0f64; 2];
        // The trainer's own per-step obs histogram: count, mean, and
        // bit-pinned p50/p95/p99 step times in microseconds, plus its
        // inside-the-step steps/s (excludes validation and setup).
        let mut step_us: [Option<Json>; 2] = [None, None];
        let mut inner_sps = [0.0f64; 2];
        for (slot, batched) in [(0usize, false), (1, true)] {
            cfg.batched = batched;
            let trained = crate::pipeline::train(&data, &cfg)?;
            sps[slot] = steps as f64 / trained.report.wall_seconds;
            step_us[slot] = Some(trained.report.step_time_us.to_json());
            inner_sps[slot] = trained.report.steps_per_sec;
            info!(
                "train_bench",
                "[train_bench] {name}: {}: {:7.2} steps/s ({:.2}s wall, final loss {:.4}, \
                 step p50 {}us p99 {}us)",
                if batched { "batched" } else { "scalar " },
                sps[slot],
                trained.report.wall_seconds,
                trained.report.train_loss.last().unwrap(),
                trained.report.step_time_us.p50,
                trained.report.step_time_us.p99
            );
        }
        report.lap("throughput");
        let speedup = sps[1] / sps[0];
        println!(
            "train_bench[{name}]: batch-major training speedup {speedup:.2}x ({:.1} -> {:.1} \
             steps/s, batch {batch})",
            sps[0], sps[1]
        );

        let entry = obj(vec![
            ("model", Json::Str(model_desc)),
            ("parity", Json::Str("byte-identical".into())),
            ("scalar_steps_per_sec", Json::Num(sps[0])),
            ("batched_steps_per_sec", Json::Num(sps[1])),
            ("speedup", Json::Num(speedup)),
            ("scalar_step_us", step_us[0].clone().expect("measured")),
            ("batched_step_us", step_us[1].clone().expect("measured")),
            ("scalar_steps_per_sec_inner", Json::Num(inner_sps[0])),
            ("batched_steps_per_sec_inner", Json::Num(inner_sps[1])),
        ]);
        report.metric(&format!("{name}_speedup"), Json::Num(speedup));
        if arch_entries.is_empty() {
            report.metric_f64("scalar_steps_per_sec", sps[0]);
            report.metric_f64("batched_steps_per_sec", sps[1]);
            report.metric_f64("speedup", speedup);
            report.metric("parity", Json::Str("byte-identical".into()));
            report.metric("batched_step_us", step_us[1].clone().expect("measured"));
        }
        arch_entries.push((name.to_string(), entry));
        if speedup < 1.5 {
            warn!(
                "train_bench",
                "[train_bench] WARNING: {name} speedup {speedup:.2}x below the 1.5x target on \
                 this machine"
            );
        }
        if speedup < min_speedup {
            return Err(RunError(format!(
                "[train_bench] FAIL: {name} speedup {speedup:.2}x below the asserted minimum \
                 {min_speedup}x"
            )));
        }
    }

    // ---- BENCH_train.json --------------------------------------------
    // `archs` carries every swept architecture by name.
    let bench = obj(vec![
        ("scale", Json::Str(format!("{scale:?}").to_lowercase())),
        ("marches", Json::Num(data[0].num_marches() as f64)),
        ("batch", Json::Num(batch as f64)),
        ("steps", Json::Num(steps as f64)),
        ("windows", Json::Num(windows as f64)),
        ("archs", Json::Obj(arch_entries)),
        ("wall_seconds", Json::Num(report.elapsed())),
    ]);
    std::fs::write("BENCH_train.json", format!("{bench}\n")).expect("write BENCH_train.json");
    info!("train_bench", "[train_bench] wrote BENCH_train.json");
    Ok(())
}

/// The machine list `sim_bench` sweeps. The default is the full
/// 77-machine training population at the shared seed — exactly the
/// grid the generation pipeline simulates, so the measured throughput
/// is the pipeline's. Fewer `marches` truncate to the predefined cores
/// first (a debugging aid); more extend with machines sampled at the
/// population's ~6:1 OoO:in-order mix.
fn sim_bench_configs(marches: usize) -> Vec<perfvec_sim::MicroArchConfig> {
    let mut configs = predefined_configs();
    let marches = marches.max(1);
    if marches <= configs.len() {
        configs.truncate(marches);
    } else {
        let extra = marches - configs.len();
        let n_inorder = extra / 7;
        configs.extend(sample_configs(
            DEFAULT_MARCH_SEED,
            extra - n_inorder,
            n_inorder,
        ));
    }
    configs
}

/// `sim_bench`: dense-array simulator throughput with a bit-identity
/// gate against the reference implementation (the seed's data
/// structures, kept verbatim in `perfvec_sim::reference`) over the full
/// workload suite. Writes `BENCH_sim.json`; `assert_speedup` turns a
/// kernel regression into a hard failure.
///
/// Measurement: every grid cell runs the fast path ([`simulate`]) and
/// then the reference, interleaved per cell; `rounds` repetitions, each
/// cell keeping its best time per implementation. Interleaving at cell
/// granularity (~1 ms) makes the ratio robust to the tens-of-percent
/// timing swings shared CI machines show over seconds; best-of-N
/// discards the slow outliers entirely. The first round also runs one
/// [`simulate_column`] per core kind and workload, as dataset
/// generation does, and checks every per-cell and column result
/// bit-for-bit against the reference.
pub fn sim_bench(spec: &ExperimentSpec, report: &mut Report) -> Result<(), RunError> {
    let scale = spec.scale;
    // Mirror the generation pipeline's trace lengths, so the measured
    // number is the cold-grid throughput dataset generation sees.
    let trace_len = spec.trace_len_or(scale.trace_len());
    let marches = spec.param_usize("marches", DEFAULT_POPULATION)?;
    let rounds = spec.param_usize("rounds", 3)?.max(1);
    let configs = sim_bench_configs(marches);
    let mut workloads = suite();
    // `programs=` appends external `.pasm` programs to the measured
    // suite, so adversarial off-grid kernels face the same throughput
    // and bit-identity gates as the builtins.
    workloads.extend(crate::programs::sim_bench_externals(spec).map_err(RunError)?);
    info!(
        "sim_bench",
        "[sim_bench] tracing {} workloads at {trace_len} instructions...",
        workloads.len()
    );
    let traces: Vec<_> = workloads.iter().map(|w| w.trace(trace_len)).collect();
    report.lap("traces");
    let grid = traces.len() * configs.len();
    let sim_insts: u64 = traces.iter().map(|t| t.len() as u64).sum::<u64>() * configs.len() as u64;

    info!(
        "sim_bench",
        "[sim_bench] simulating {} programs x {} machines (fast path vs reference), \
         best of {rounds} interleaved rounds...",
        traces.len(),
        configs.len()
    );
    // Machines grouped by core kind ([ooo, inorder]): the identity
    // columns run per kind, and the per-kind splits below reuse the
    // same grouping.
    let mut kind_idx: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for (ci, c) in configs.iter().enumerate() {
        kind_idx[usize::from(c.core != CoreKind::OutOfOrder)].push(ci);
    }
    let kind_cfgs: [Vec<MicroArchConfig>; 2] = kind_idx
        .each_ref()
        .map(|idx| idx.iter().map(|&ci| configs[ci].clone()).collect());
    // Warm every core kind present outside the timed region, and gate
    // the warmup itself on bit-identity so a cold-path divergence fails
    // loudly instead of silently warming the wrong code.
    for cfgs in &kind_cfgs {
        let Some(c) = cfgs.first() else { continue };
        let w = simulate(&traces[0], c);
        let r = simulate_reference(&traces[0], c);
        if !w.bits_identical(&r) {
            return Err(RunError(format!(
                "[sim_bench] IDENTITY FAILURE in warmup: {} diverges from the \
                 reference (flat {:?} vs reference {:?})",
                c.name, w.stats, r.stats
            )));
        }
    }
    let mut flat_best = vec![f64::MAX; grid];
    let mut ref_best = vec![f64::MAX; grid];
    // Per-grid-cell fast-path wall time (all rounds) and the summed
    // architectural counters from the first round — both observational,
    // recorded outside the simulated state.
    let flat_cell_us = Histogram::new();
    let mut counters = perfvec_sim::SimStats::default();
    for round in 0..rounds {
        for (wi, t) in traces.iter().enumerate() {
            // Round 0 also runs the workload's per-kind columns, kept
            // for the identity gate (their timings go to the column
            // metrics, not into the ratio).
            let mut col: Vec<Option<SimResult>> = (0..configs.len()).map(|_| None).collect();
            if round == 0 {
                for (idx, cfgs) in kind_idx.iter().zip(&kind_cfgs) {
                    for (r, &ci) in simulate_column(t, cfgs).into_iter().zip(idx) {
                        col[ci] = Some(r);
                    }
                }
            }
            for (ci, c) in configs.iter().enumerate() {
                let cell = ci * traces.len() + wi;
                let tf = Instant::now();
                let f = simulate(t, c);
                let dtf = tf.elapsed();
                flat_cell_us.record(dtf.as_micros() as u64);
                flat_best[cell] = flat_best[cell].min(dtf.as_secs_f64());
                let tr = Instant::now();
                let r = simulate_reference(t, c);
                ref_best[cell] = ref_best[cell].min(tr.elapsed().as_secs_f64());
                if round > 0 {
                    continue;
                }
                let l = col[ci].take().expect("a column simulated every cell");
                for (path, res) in [("per-cell", &f), ("column", &l)] {
                    if !res.bits_identical(&r) {
                        return Err(RunError(format!(
                            "[sim_bench] IDENTITY FAILURE: {} on {} ({path}) diverges from \
                             the reference (fast path {:?} vs reference {:?})",
                            workloads[wi].name, c.name, res.stats, r.stats
                        )));
                    }
                }
                let s = &f.stats;
                counters.cycles += s.cycles;
                counters.instructions += s.instructions;
                counters.l1i_misses += s.l1i_misses;
                counters.l1d_misses += s.l1d_misses;
                counters.l2_misses += s.l2_misses;
                counters.mispredicts += s.mispredicts;
                counters.branches += s.branches;
                counters.ifetch_accesses += s.ifetch_accesses;
                counters.data_accesses += s.data_accesses;
            }
        }
        if round == 0 {
            info!(
                "sim_bench",
                "[sim_bench] identity ok: {grid} grid points bit-identical to the reference \
                 (per cell and in columns)"
            );
        }
    }
    report.lap("bench");

    // Sums of the per-cell bests, overall and split by core kind.
    let mut kind_secs = [[0.0f64; 2]; 2]; // [ooo, inorder] x [flat, ref]
    for (k, idx) in kind_idx.iter().enumerate() {
        for &ci in idx {
            let cells = ci * traces.len()..(ci + 1) * traces.len();
            kind_secs[k][0] += flat_best[cells.clone()].iter().sum::<f64>();
            kind_secs[k][1] += ref_best[cells].iter().sum::<f64>();
        }
    }
    let flat_secs = kind_secs[0][0] + kind_secs[1][0];
    let ref_secs = kind_secs[0][1] + kind_secs[1][1];

    let minstr_s = sim_insts as f64 / flat_secs / 1e6;
    let ref_minstr_s = sim_insts as f64 / ref_secs / 1e6;
    let speedup = ref_secs / flat_secs;
    let ratio = |[flat, reference]: [f64; 2]| if flat > 0.0 { reference / flat } else { 1.0 };
    let [speedup_ooo, speedup_inorder] = kind_secs.map(ratio);
    println!(
        "sim_bench: flat kernels {speedup:.2}x over reference ({ref_minstr_s:.1} -> \
         {minstr_s:.1} Minstr/s per cell; OoO {speedup_ooo:.2}x, in-order \
         {speedup_inorder:.2}x; {grid} grid points x {trace_len} instrs, best of {rounds})"
    );

    // ---- BENCH_sim.json ------------------------------------------------
    // Column instrumentation (per-column decode/simulate wall time,
    // grid-cell throughput) accumulated by `perfvec-obs` across every
    // column this process ran.
    let column_metrics = perfvec_sim::lockstep::metrics();
    // Whole-grid architectural counters (first round; identical every
    // round by the bit-identity gate) — the cache/branch behavior the
    // measured throughput was measured under.
    let counters_json = obj(vec![
        ("cycles", Json::Num(counters.cycles as f64)),
        ("instructions", Json::Num(counters.instructions as f64)),
        ("ipc", Json::Num(counters.ipc())),
        ("l1i_misses", Json::Num(counters.l1i_misses as f64)),
        ("l1d_misses", Json::Num(counters.l1d_misses as f64)),
        ("l2_misses", Json::Num(counters.l2_misses as f64)),
        ("branches", Json::Num(counters.branches as f64)),
        ("mispredicts", Json::Num(counters.mispredicts as f64)),
        ("mispredict_rate", Json::Num(counters.mispredict_rate())),
        (
            "ifetch_accesses",
            Json::Num(counters.ifetch_accesses as f64),
        ),
        ("data_accesses", Json::Num(counters.data_accesses as f64)),
    ]);
    let bench = obj(vec![
        ("scale", Json::Str(format!("{scale:?}").to_lowercase())),
        ("trace_len", Json::Num(trace_len as f64)),
        ("workloads", Json::Num(traces.len() as f64)),
        ("marches", Json::Num(configs.len() as f64)),
        ("grid_points", Json::Num(grid as f64)),
        ("rounds", Json::Num(rounds as f64)),
        ("simulated_instructions", Json::Num(sim_insts as f64)),
        ("identity", Json::Str("bit-identical".into())),
        ("reference_seconds", Json::Num(ref_secs)),
        ("flat_seconds", Json::Num(flat_secs)),
        ("reference_minstr_per_sec", Json::Num(ref_minstr_s)),
        ("flat_minstr_per_sec", Json::Num(minstr_s)),
        ("speedup", Json::Num(speedup)),
        ("speedup_ooo", Json::Num(speedup_ooo)),
        ("speedup_inorder", Json::Num(speedup_inorder)),
        ("flat_cell_us", flat_cell_us.summary().to_json()),
        (
            "column_decode_us",
            column_metrics.column_decode_us.summary().to_json(),
        ),
        (
            "column_simulate_us",
            column_metrics.column_simulate_us.summary().to_json(),
        ),
        ("cells", Json::Num(column_metrics.cells.get() as f64)),
        (
            "cells_per_sec",
            Json::Num(column_metrics.cells_per_sec.get() as f64),
        ),
        ("counters", counters_json.clone()),
        ("wall_seconds", Json::Num(report.elapsed())),
    ]);
    std::fs::write("BENCH_sim.json", format!("{bench}\n")).expect("write BENCH_sim.json");
    info!("sim_bench", "[sim_bench] wrote BENCH_sim.json");
    report.metric_f64("flat_minstr_per_sec", minstr_s);
    report.metric_f64("reference_minstr_per_sec", ref_minstr_s);
    report.metric_f64("speedup", speedup);
    report.metric_f64("speedup_ooo", speedup_ooo);
    report.metric_f64("speedup_inorder", speedup_inorder);
    report.metric("identity", Json::Str("bit-identical".into()));
    report.metric("flat_cell_us", flat_cell_us.summary().to_json());
    report.metric(
        "column_simulate_us",
        column_metrics.column_simulate_us.summary().to_json(),
    );
    report.metric("counters", counters_json);

    if speedup < 2.0 {
        warn!(
            "sim_bench",
            "[sim_bench] WARNING: speedup {speedup:.2}x below the 2x target on this machine"
        );
    }
    // `assert_speedup` turns a simulator-kernel regression into a hard
    // failure (CI floors it so a de-flattened inner loop cannot land
    // silently).
    let min_speedup = spec.param_f64("assert_speedup", 0.0)?;
    if speedup < min_speedup {
        return Err(RunError(format!(
            "[sim_bench] FAIL: speedup {speedup:.2}x below the asserted minimum {min_speedup}x"
        )));
    }
    Ok(())
}

/// `obs_overhead`: proves the instrumentation tax on the serving hot
/// path. One in-process [`PredictEngine`] answers the same uncached
/// prediction stream with metrics recording enabled and with the
/// global obs switch off ([`perfvec_obs::set_enabled`]), interleaved
/// best-of-`rounds` so machine noise hits both modes alike; the run
/// fails when the metrics-on wall time exceeds metrics-off by more
/// than `max_overhead` (default 2%). Served bits are identical in both
/// modes — the switch gates only counter/histogram recording, never
/// the computation.
pub fn obs_overhead(spec: &ExperimentSpec, report: &mut Report) -> Result<(), RunError> {
    let (dim, context) = bench_scale_dims(spec.scale);
    let requests = spec.param_usize("requests", 240)?.max(1);
    let rounds = spec.param_usize("rounds", 3)?.max(1);
    let max_overhead = spec.param_f64("max_overhead", 0.02)?;
    let (registry, _, _) = bench_model(ArchSpec::default_lstm(dim), context);
    let engine = PredictEngine::new(
        Arc::new(registry),
        EngineConfig {
            batch: 16,
            queue_depth: 1024,
            workers: 2,
            cache_entries: 0,
        },
    );
    let k = training_population(DEFAULT_MARCH_SEED).len();
    let feats = Arc::new(named_workload_features("999.specrand-like", 1_000).unwrap());
    info!(
        "obs_overhead",
        "[obs_overhead] {requests} uncached engine predictions per mode, best of {rounds} \
         interleaved rounds, gate {:.1}%",
        max_overhead * 100.0
    );
    // Warm the worker pool, scratch buffers, and feature path outside
    // the timed region.
    engine
        .predict(None, Arc::clone(&feats), 0, true)
        .expect("warmup");
    let time_mode = |label: &str| -> f64 {
        let t = Instant::now();
        for i in 0..requests {
            engine
                .predict(None, Arc::clone(&feats), i % k, true)
                .expect(label);
        }
        t.elapsed().as_secs_f64()
    };
    let mut best = [f64::MAX; 2]; // [metrics off, metrics on]
    for _ in 0..rounds {
        perfvec_obs::set_enabled(true);
        best[1] = best[1].min(time_mode("metrics on"));
        perfvec_obs::set_enabled(false);
        best[0] = best[0].min(time_mode("metrics off"));
    }
    // Never leave the process with recording off: the switch is global.
    perfvec_obs::set_enabled(true);
    let (rps_off, rps_on) = (requests as f64 / best[0], requests as f64 / best[1]);
    let overhead = best[1] / best[0] - 1.0;
    println!(
        "obs_overhead: metrics overhead {:+.2}% (on {rps_on:.0} req/s vs off {rps_off:.0} req/s, \
         gate <= {:.1}%)",
        overhead * 100.0,
        max_overhead * 100.0
    );
    report.metric_f64("overhead", overhead);
    report.metric_f64("max_overhead", max_overhead);
    report.metric_f64("throughput_on_rps", rps_on);
    report.metric_f64("throughput_off_rps", rps_off);
    report.lap("measure");
    if overhead > max_overhead {
        return Err(RunError(format!(
            "[obs_overhead] FAIL: metrics-on overhead {:.2}% above the allowed {:.2}%",
            overhead * 100.0,
            max_overhead * 100.0
        )));
    }
    Ok(())
}

//! `perfvec` — the unified, declarative experiment CLI and the harness's
//! only binary.
//!
//! Every figure/table/ablation/bench experiment is an
//! [`ExperimentSpec`] that can be described by flags or loaded from a
//! JSON config file, and every run emits a schema-versioned JSON report
//! next to its human-readable output.
//!
//! ```text
//! perfvec run <experiment> [--scale quick|full] [--seed N]
//!             [--features full|no_mem_branch] [--march-subset 0,3,9..20]
//!             [--trace-len N] [--no-cache] [--report PATH]
//!             [--set key=value]...
//! perfvec run --config FILE        # one spec object, or an array (a sweep)
//! perfvec list                     # available experiments
//! perfvec report PATH              # validate + summarize an emitted report
//! perfvec probe HOST:PORT --ckpt PATH [--model NAME]
//!                                  # served == offline parity check
//! ```
//!
//! Unknown subcommands, unknown flags, and malformed values are hard
//! errors (exit 2): a typo must never silently run a default
//! experiment.

use perfvec::{predict_total_tenths, program_representation};
use perfvec_bench::report::validate;
use perfvec_bench::runner;
use perfvec_bench::spec::{
    parse_mask, parse_param_value, parse_scale, CachePolicy, ExperimentKind, ExperimentSpec,
};
use perfvec_json::Json;
use perfvec_serve::protocol::f64_from_bits_hex;
use perfvec_serve::server::named_workload_features;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
perfvec — declarative PerfVec experiment harness

USAGE:
    perfvec run <experiment> [flags]   run one experiment
    perfvec run --config FILE          run spec(s) from a JSON config file
    perfvec list                       list available experiments
    perfvec report PATH                validate + summarize a JSON report
    perfvec asm <action> ...           assemble/inspect/run .pasm programs
    perfvec probe HOST:PORT --ckpt PATH [--model NAME]
                                       check a running server against offline predict
    perfvec help                       show this message

RUN FLAGS:
    --scale quick|full            experiment scale            [default: quick]
    --seed N                      march sampling seed         [default: shared population seed]
    --features full|no_mem_branch feature mask                [default: full]
    --march-subset LIST           population indices, e.g. 0,3,9..20
    --trace-len N                 override the dataset trace length
    --no-cache                    bypass the on-disk dataset cache
    --report PATH                 report destination          [default: reports/<experiment>.json]
    --set key=value               kind-specific param (repeatable)

ASM ACTIONS:
    perfvec asm assemble FILE          assemble, print a summary
    perfvec asm disasm FILE            print the canonical disassembly
    perfvec asm run FILE [--max N]     execute + check ;; expect: directives
    perfvec asm stats FILE [--max N]   trace and print the class mix
    perfvec asm test PATH...           golden-run every .pasm under PATH

    Assembly errors exit 2 with line:column diagnostics; runtime traps
    and failed expectations exit 1. External programs also run through
    the pipeline: perfvec run custom --set program=FILE.pasm

CONFIG FILE:
    A spec object — {\"experiment\": \"fig3\", \"scale\": \"quick\", ...} — or an
    array of spec objects, run in order (a sweep). Fields: experiment,
    scale, seed, features, march_subset, cache, trace_len, report, params.
";

/// Loud exit: the message, a usage pointer, and exit code 2 — every
/// malformed input ends here, never in a silent default.
fn die(msg: &str) -> ! {
    eprintln!("perfvec: {msg}");
    eprintln!("run `perfvec help` for usage");
    std::process::exit(2);
}

fn main() -> ExitCode {
    perfvec_obs::log::init_default(perfvec_obs::Level::Info);
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("list") => cmd_list(),
        Some("report") => cmd_report(&args[1..]),
        Some("asm") => cmd_asm(&args[1..]),
        Some("probe") => cmd_probe(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => die(&format!(
            "unknown subcommand {other:?} (expected run | list | report | asm | probe | help)"
        )),
        None => die("missing subcommand (expected run | list | report | asm | probe | help)"),
    }
}

/// `perfvec asm` — the assembler front door. Assembly errors (including
/// unreadable files) exit 2 like every other malformed input; runtime
/// traps and failed `;; expect:` directives exit 1 like failed runs.
fn cmd_asm(args: &[String]) -> ExitCode {
    let Some(action) = args.first() else {
        die("asm needs an action (assemble | disasm | run | stats | test)");
    };
    let rest = &args[1..];
    // Shared flag parsing for the single-file actions: FILE [--max N].
    let file_and_max = || -> (String, u64) {
        let mut file = None;
        let mut max = 0u64;
        let mut it = rest.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--max" => {
                    let raw = it.next().unwrap_or_else(|| die("missing value for --max"));
                    max = raw
                        .parse()
                        .unwrap_or_else(|_| die(&format!("bad value {raw:?} for --max")));
                }
                other if other.starts_with('-') => die(&format!("unknown flag {other:?}")),
                path => {
                    if file.replace(path.to_string()).is_some() {
                        die(&format!("unexpected extra argument {path:?}"));
                    }
                }
            }
        }
        match file {
            Some(f) => (f, max),
            None => die("asm action needs a .pasm file"),
        }
    };
    let load = |path: &str| -> perfvec_bench::programs::ExternalSource {
        perfvec_bench::programs::load_external(path).unwrap_or_else(|e| die(&e))
    };
    match action.as_str() {
        "assemble" => {
            let (path, _) = file_and_max();
            let src = load(&path);
            let p = &src.ap.program;
            let data_bytes: usize = p.data.iter().map(|s| s.bytes.len()).sum();
            println!(
                "{}: {} instructions, {} data segment(s) ({data_bytes} bytes), entry {}, \
                 {} expectation(s)",
                p.name,
                p.insts.len(),
                p.data.len(),
                p.entry,
                src.ap.expects.len()
            );
            ExitCode::SUCCESS
        }
        "disasm" => {
            let (path, _) = file_and_max();
            let src = load(&path);
            print!("{}", perfvec_asm::disassemble(&src.ap.program));
            ExitCode::SUCCESS
        }
        "run" => {
            let (path, max) = file_and_max();
            let src = load(&path);
            let exec = perfvec_asm::execute(&src.ap, max);
            if let Some(trap) = &exec.trap {
                eprintln!(
                    "perfvec: {path}: {}",
                    perfvec_asm::trap_diagnostic(&src.ap, trap)
                );
                return ExitCode::FAILURE;
            }
            let failures = perfvec_asm::check_expects(&src.ap, &exec);
            for f in &failures {
                eprintln!("perfvec: {path}: {f}");
            }
            println!(
                "{}: {} instructions executed, halted={}, {} expectation(s) checked",
                src.ap.program.name,
                exec.executed,
                exec.halted,
                src.ap.expects.len()
            );
            if failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "stats" => {
            let (path, max) = file_and_max();
            let src = load(&path);
            let exec = perfvec_asm::execute(&src.ap, max);
            if let Some(trap) = &exec.trap {
                eprintln!(
                    "perfvec: {path}: {}",
                    perfvec_asm::trap_diagnostic(&src.ap, trap)
                );
                return ExitCode::FAILURE;
            }
            println!(
                "{}: {} instructions, halted={}",
                src.ap.program.name, exec.executed, exec.halted
            );
            let total = exec.executed.max(1) as f64;
            for class in perfvec_isa::OpClass::ALL {
                let n = exec.class_counts[class as usize];
                if n > 0 {
                    println!(
                        "  {:<8} {:>8}  {:>5.1}%",
                        perfvec_asm::harness::class_name(class),
                        n,
                        n as f64 / total * 100.0
                    );
                }
            }
            ExitCode::SUCCESS
        }
        "test" => {
            if rest.is_empty() {
                die("asm test needs at least one file or directory");
            }
            let mut files: Vec<String> = Vec::new();
            for arg in rest {
                let path = PathBuf::from(arg);
                if path.is_dir() {
                    let mut found: Vec<String> = std::fs::read_dir(&path)
                        .unwrap_or_else(|e| die(&format!("cannot read {arg}: {e}")))
                        .filter_map(|e| e.ok())
                        .map(|e| e.path())
                        .filter(|p| p.extension().is_some_and(|x| x == "pasm"))
                        .map(|p| p.display().to_string())
                        .collect();
                    found.sort();
                    if found.is_empty() {
                        die(&format!("no .pasm files under {arg}"));
                    }
                    files.extend(found);
                } else {
                    files.push(arg.clone());
                }
            }
            let mut failed = 0usize;
            for path in &files {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
                let stem = Path::new(path)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("external");
                match perfvec_asm::golden_check(&text, stem) {
                    Ok(summary) => println!("ok   {path}: {summary}"),
                    Err(e) => {
                        failed += 1;
                        println!("FAIL {path}");
                        for line in e.lines() {
                            println!("     {line}");
                        }
                    }
                }
            }
            println!(
                "asm test: {}/{} program(s) ok",
                files.len() - failed,
                files.len()
            );
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        other => die(&format!(
            "unknown asm action {other:?} (assemble | disasm | run | stats | test)"
        )),
    }
}

/// `perfvec probe` — a client for an already-running `serve` process:
/// connect (retrying while it starts), check `/healthz`, issue one
/// prediction, and require it bit-identical to the offline path
/// recomputed from the same checkpoint file.
fn cmd_probe(args: &[String]) -> ExitCode {
    let mut addr = None;
    let mut ckpt = None;
    let mut model = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(&format!("missing value for {flag}")))
        };
        match arg.as_str() {
            "--ckpt" => ckpt = Some(value("--ckpt")),
            "--model" => model = Some(value("--model")),
            other if other.starts_with('-') => die(&format!("unknown flag {other:?}")),
            raw => {
                let parsed: SocketAddr = raw
                    .parse()
                    .unwrap_or_else(|e| die(&format!("bad address {raw:?}: {e}")));
                if addr.replace(parsed).is_some() {
                    die(&format!("unexpected extra argument {raw:?}"));
                }
            }
        }
    }
    let Some(addr) = addr else {
        die("probe needs the server address HOST:PORT");
    };
    let Some(ckpt) = ckpt else {
        die("probe requires --ckpt PATH for the offline comparison");
    };
    match probe(addr, &ckpt, model.as_deref()) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            perfvec_obs::error!("probe", "[probe] {e}");
            ExitCode::FAILURE
        }
    }
}

/// The probe proper; returns the parity line on success.
fn probe(addr: SocketAddr, ckpt: &str, model: Option<&str>) -> Result<String, String> {
    let http = |conn: &mut TcpStream, method: &str, path: &str, body: &str| {
        perfvec_serve::client::roundtrip(conn, method, path, body)
            .map_err(|e| format!("{method} {path}: {e}"))
    };
    // The server may still be starting: retry the connect.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut conn = loop {
        match TcpStream::connect_timeout(&addr, Duration::from_secs(2)) {
            Ok(c) => break c,
            Err(e) if Instant::now() < deadline => {
                perfvec_obs::info!("probe", "[probe] waiting for server ({e})...");
                std::thread::sleep(Duration::from_millis(300));
            }
            Err(e) => return Err(format!("server never came up: {e}")),
        }
    };
    let (status, health) = http(&mut conn, "GET", "/healthz", "")?;
    if status != 200 {
        return Err(format!("healthz returned {status}: {health}"));
    }
    perfvec_obs::info!("probe", "[probe] healthz ok: {health}");

    // One prediction, compared bit-for-bit against the offline path
    // recomputed from the same checkpoint.
    let (program, trace_len, march) = ("999.specrand-like", 800u64, 3usize);
    let model_field = model
        .map(|m| format!(r#""model":"{m}","#))
        .unwrap_or_default();
    let body = format!(
        r#"{{{model_field}"program":"{program}","trace_len":{trace_len},"march_index":{march}}}"#
    );
    let (status, resp) = http(&mut conn, "POST", "/v1/predict", &body)?;
    if status != 200 {
        return Err(format!("predict returned {status}: {resp}"));
    }
    let served = resp
        .get("predicted_bits")
        .and_then(Json::as_str)
        .and_then(f64_from_bits_hex)
        .ok_or_else(|| format!("predict response carries no predicted_bits: {resp}"))?;

    let (foundation, _, table) = perfvec::checkpoint::load(Path::new(ckpt))
        .map_err(|e| format!("cannot load checkpoint {ckpt}: {e}"))?;
    let table = table.ok_or_else(|| format!("checkpoint {ckpt} carries no march table"))?;
    let feats = named_workload_features(program, trace_len)
        .ok_or_else(|| format!("unknown probe workload {program}"))?;
    let rep = program_representation(&foundation, &feats);
    let offline = predict_total_tenths(&rep, table.rep(march), foundation.target_scale);
    if served.to_bits() != offline.to_bits() {
        return Err(format!(
            "PARITY FAILURE: served {served} (0x{:016x}) vs offline {offline} (0x{:016x})",
            served.to_bits(),
            offline.to_bits()
        ));
    }
    Ok(format!(
        "[probe] parity ok: served == offline == {offline} x 0.1ns (bits 0x{:016x})",
        offline.to_bits()
    ))
}

fn cmd_list() -> ExitCode {
    println!("{:<18} DESCRIPTION", "EXPERIMENT");
    for kind in ExperimentKind::ALL {
        println!("{:<18} {}", kind.name(), kind.describe());
    }
    println!();
    println!("run one with: perfvec run <experiment> [flags]");
    ExitCode::SUCCESS
}

fn cmd_report(args: &[String]) -> ExitCode {
    let [path] = args else {
        die("report takes exactly one argument: the report path");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfvec: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfvec: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate(&parsed) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfvec: {path} is not a valid report: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Expand `0,3,9..20` into indices (`..` is half-open). Bounded well
/// above any real population so a typo'd range exits 2 instead of
/// materializing gigabytes of indices before `validate()` can reject
/// it.
fn parse_subset(raw: &str) -> Result<Vec<usize>, String> {
    const MAX_INDEX: usize = 10_000;
    let mut out = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        if let Some((lo, hi)) = part.split_once("..") {
            let lo: usize = lo
                .parse()
                .map_err(|_| format!("bad range start {lo:?} in {part:?}"))?;
            let hi: usize = hi
                .parse()
                .map_err(|_| format!("bad range end {hi:?} in {part:?}"))?;
            if hi <= lo {
                return Err(format!("empty range {part:?}"));
            }
            if hi > MAX_INDEX {
                return Err(format!(
                    "range end {hi} in {part:?} beyond any population (max {MAX_INDEX})"
                ));
            }
            out.extend(lo..hi);
        } else {
            out.push(part.parse().map_err(|_| format!("bad index {part:?}"))?);
        }
    }
    Ok(out)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut experiment: Option<ExperimentKind> = None;
    let mut config: Option<String> = None;
    let mut scale = None;
    let mut seed = None;
    let mut features = None;
    let mut subset = None;
    let mut trace_len = None;
    let mut no_cache = false;
    let mut report_path: Option<PathBuf> = None;
    let mut params: Vec<(String, Json)> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            match it.next() {
                Some(v) => v.clone(),
                None => die(&format!("missing value for {flag}")),
            }
        };
        match arg.as_str() {
            "--config" => config = Some(value("--config")),
            "--scale" => scale = Some(parse_scale(&value("--scale")).unwrap_or_else(|e| die(&e))),
            "--seed" => {
                let raw = value("--seed");
                seed = Some(
                    raw.parse::<u64>()
                        .unwrap_or_else(|_| die(&format!("bad value {raw:?} for --seed"))),
                );
            }
            "--features" => {
                features = Some(parse_mask(&value("--features")).unwrap_or_else(|e| die(&e)))
            }
            "--march-subset" => {
                subset = Some(parse_subset(&value("--march-subset")).unwrap_or_else(|e| die(&e)))
            }
            "--trace-len" => {
                let raw = value("--trace-len");
                trace_len = Some(
                    raw.parse::<u64>()
                        .unwrap_or_else(|_| die(&format!("bad value {raw:?} for --trace-len"))),
                );
            }
            "--no-cache" => no_cache = true,
            "--report" => report_path = Some(PathBuf::from(value("--report"))),
            "--set" => {
                let raw = value("--set");
                let Some((k, v)) = raw.split_once('=') else {
                    die(&format!("--set takes key=value, got {raw:?}"));
                };
                params.push((k.to_string(), parse_param_value(v)));
            }
            other if other.starts_with('-') => die(&format!("unknown flag {other:?}")),
            name => {
                if experiment.is_some() {
                    die(&format!("unexpected extra argument {name:?}"));
                }
                experiment = Some(ExperimentKind::parse(name).unwrap_or_else(|| {
                    die(&format!("unknown experiment {name:?} (see `perfvec list`)"))
                }));
            }
        }
    }

    // `PERFVEC_NO_CACHE` vetoes the cache for every spec of the run.
    let env_no_cache = perfvec_bench::cache::env_no_cache();

    let specs: Vec<ExperimentSpec> = match (config, experiment) {
        (Some(_), Some(_)) => {
            die("--config replaces the experiment name and per-run flags; pass one or the other")
        }
        (Some(path), None) => {
            if scale.is_some()
                || seed.is_some()
                || features.is_some()
                || subset.is_some()
                || trace_len.is_some()
                || no_cache
                || report_path.is_some()
                || !params.is_empty()
            {
                die("--config replaces the per-run flags; put the fields in the config file");
            }
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| die(&format!("cannot read config {path}: {e}")));
            let parsed = Json::parse(&text)
                .unwrap_or_else(|e| die(&format!("config {path} is not valid JSON: {e}")));
            let entries: Vec<&Json> = match &parsed {
                Json::Arr(items) => items.iter().collect(),
                single => vec![single],
            };
            if entries.is_empty() {
                die(&format!("config {path} is an empty sweep"));
            }
            let many = entries.len() > 1;
            entries
                .iter()
                .enumerate()
                .map(|(i, entry)| {
                    let mut spec = ExperimentSpec::from_json(entry)
                        .unwrap_or_else(|e| die(&format!("config {path} entry {i}: {e}")));
                    if env_no_cache {
                        spec.cache = CachePolicy::Bypass;
                    }
                    if spec.report_path.is_none() {
                        spec.report_path = Some(default_report_path(&spec, many.then_some(i)));
                    }
                    spec
                })
                .collect()
        }
        (None, Some(kind)) => {
            let mut spec = ExperimentSpec::new(kind);
            if let Some(s) = scale {
                spec.scale = s;
            }
            if let Some(s) = seed {
                spec.seed = s;
            }
            if let Some(m) = features {
                spec.feature_mask = m;
            }
            spec.march_subset = subset;
            spec.trace_len = trace_len;
            if no_cache || env_no_cache {
                spec.cache = CachePolicy::Bypass;
            }
            spec.params = params;
            spec.report_path =
                Some(report_path.unwrap_or_else(|| default_report_path(&spec, None)));
            spec.validate().unwrap_or_else(|e| die(&e));
            vec![spec]
        }
        (None, None) => die("run needs an experiment name or --config FILE"),
    };

    let total = specs.len();
    for (i, spec) in specs.iter().enumerate() {
        if total > 1 {
            perfvec_obs::info!(
                "perfvec",
                "[perfvec] run {}/{total}: {}",
                i + 1,
                spec.kind.name()
            );
        }
        if !runner::execute(spec) {
            if total > 1 {
                perfvec_obs::warn!(
                    "perfvec",
                    "[perfvec] sweep aborted at run {}/{total}",
                    i + 1
                );
            }
            return ExitCode::FAILURE;
        }
    }
    if total > 1 {
        perfvec_obs::info!(
            "perfvec",
            "[perfvec] sweep complete: {total}/{total} runs ok"
        );
    }
    ExitCode::SUCCESS
}

fn default_report_path(spec: &ExperimentSpec, sweep_index: Option<usize>) -> PathBuf {
    match sweep_index {
        Some(i) => PathBuf::from(format!("reports/{}-{i}.json", spec.kind.name())),
        None => PathBuf::from(format!("reports/{}.json", spec.kind.name())),
    }
}

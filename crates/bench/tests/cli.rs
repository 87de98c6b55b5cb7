//! Integration tests for the `perfvec` multi-call CLI: loud rejection
//! of unknown subcommands/flags/experiments and malformed values
//! (exit 2), `list`/`report` behavior, and an end-to-end config-file
//! sweep (custom march subset × feature mask).

use perfvec_json::Json;
use std::path::Path;
use std::process::{Command, Output};

fn perfvec() -> Command {
    Command::new(env!("CARGO_BIN_EXE_perfvec"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn unknown_subcommand_is_loud_and_exits_2() {
    let out = perfvec().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("frobnicate"), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("run | list | report"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn missing_subcommand_is_loud_and_exits_2() {
    let out = perfvec().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("missing subcommand"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn unknown_flag_is_loud_and_exits_2() {
    let out = perfvec()
        .args(["run", "fig3", "--scael", "quick"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--scael"), "{}", stderr(&out));
}

#[test]
fn unknown_experiment_is_loud_and_exits_2() {
    let out = perfvec().args(["run", "fig9"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("fig9"), "{}", stderr(&out));
}

#[test]
fn missing_flag_value_and_bad_values_exit_2() {
    let out = perfvec().args(["run", "fig3", "--scale"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("missing value"), "{}", stderr(&out));

    let out = perfvec()
        .args(["run", "fig3", "--seed", "pony"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("pony"), "{}", stderr(&out));

    let out = perfvec()
        .args(["run", "fig3", "--march-subset", "5..3"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("empty range"), "{}", stderr(&out));

    // An unknown scale is an error, never a silent fallback to quick.
    let out = perfvec()
        .args(["run", "fig3", "--scale", "bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("bogus"), "{}", stderr(&out));

    // `auto` is no scale: every scale shards generation adaptively.
    let out = perfvec()
        .args(["run", "fig3", "--scale", "auto"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("quick | full"), "{}", stderr(&out));
}

#[test]
fn probe_input_errors_exit_2_before_connecting() {
    for (args, needle) in [
        (&["probe", "127.0.0.1:7411"][..], "--ckpt"),
        (&["probe", "127.0.0.1:7411", "--ckpt"][..], "missing value"),
        (
            &["probe", "not-an-address", "--ckpt", "x.pfm"][..],
            "not-an-address",
        ),
        (
            &["probe", "127.0.0.1:7411", "--ckpt", "x.pfm", "--frob"][..],
            "--frob",
        ),
        (&["probe", "--ckpt", "x.pfm"][..], "HOST:PORT"),
    ] {
        let out = perfvec().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn params_are_validated_per_experiment() {
    // fig3 takes no params: a typo'd --set must not silently run.
    let out = perfvec()
        .args(["run", "fig3", "--set", "batch=16"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("batch"), "{}", stderr(&out));
}

#[test]
fn fields_an_experiment_ignores_are_rejected() {
    // serve_bench doesn't honor march_subset: running it anyway would
    // emit a report whose spec echo lies about what executed.
    let out = perfvec()
        .args(["run", "serve_bench", "--march-subset", "0,1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("march_subset"), "{}", stderr(&out));
}

#[test]
fn config_conflicts_with_per_run_flags() {
    let out = perfvec()
        .args(["run", "fig3", "--config", "x.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--config"), "{}", stderr(&out));
}

#[test]
fn list_names_every_experiment() {
    let out = perfvec().arg("list").output().unwrap();
    assert!(out.status.success());
    let text = stdout(&out);
    for name in [
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "table3",
        "table4",
        "ablation_data",
        "ablation_features",
        "train_opt",
        "tune_ridge",
        "serve_bench",
        "train_bench",
        "sim_bench",
        "custom",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(name)),
            "missing {name} in:\n{text}"
        );
    }
}

#[test]
fn report_subcommand_rejects_invalid_documents() {
    let dir = std::env::temp_dir().join(format!("perfvec_cli_report_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"schema_version\": 99}").unwrap();
    let out = perfvec()
        .args(["report", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("schema_version"), "{}", stderr(&out));

    let missing = dir.join("nope.json");
    let out = perfvec()
        .args(["report", missing.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    // Phases must be finite, non-negative seconds summing to at most
    // `wall_seconds`; the first document is the valid control.
    for (phases, want) in [
        (r#""datasets": 1.5, "train": 0.5"#, None),
        (r#""datasets": 1.5, "train": -0.5"#, Some("\"train\"")),
        (r#""datasets": 1.5, "train": 1e999"#, Some("\"train\"")),
        (
            r#""datasets": 1.5, "train": 0.6"#,
            Some("past wall_seconds"),
        ),
    ] {
        let doc = format!(
            r#"{{"cache": {{}}, "experiment": "fig3", "metrics": {{}}, "phases": {{{phases}}},
                "schema_version": 1, "spec": {{}}, "versions": {{}}, "wall_seconds": 2.0}}"#
        );
        std::fs::write(&bad, doc).unwrap();
        let out = perfvec()
            .args(["report", bad.to_str().unwrap()])
            .output()
            .unwrap();
        match want {
            None => assert!(out.status.success(), "{phases}: {}", stderr(&out)),
            Some(want) => {
                assert_eq!(out.status.code(), Some(1), "{phases}");
                assert!(stderr(&out).contains(want), "{phases}: {}", stderr(&out));
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance scenario: a config-file sweep over custom march
/// subsets × feature masks — a scenario surface no fixed per-figure
/// binary
/// exposes — runs end to end, and each run's report parses, validates,
/// and echoes its spec.
#[test]
fn config_file_sweep_runs_custom_scenarios() {
    let dir = std::env::temp_dir().join(format!("perfvec_cli_sweep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Two cells of a (march subset × feature mask) sweep, shrunk to
    // seconds via the custom kind's training params.
    let config = r#"[
      {
        "experiment": "custom",
        "scale": "quick",
        "march_subset": [0, 1, 2, 3],
        "features": "full",
        "trace_len": 600,
        "params": {"dim": 8, "context": 4, "epochs": 1,
                   "windows_per_epoch": 40, "val_windows": 16}
      },
      {
        "experiment": "custom",
        "scale": "quick",
        "march_subset": [0, 2, 4, 6],
        "features": "no_mem_branch",
        "trace_len": 600,
        "params": {"dim": 8, "context": 4, "epochs": 1,
                   "windows_per_epoch": 40, "val_windows": 16}
      }
    ]"#;
    let config_path = dir.join("sweep.json");
    std::fs::write(&config_path, config).unwrap();

    let out = perfvec()
        .args(["run", "--config", config_path.to_str().unwrap()])
        .current_dir(&dir)
        .env("PERFVEC_CACHE_DIR", dir.join("cache"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "sweep failed\nstdout:\n{}\nstderr:\n{}",
        stdout(&out),
        stderr(&out)
    );
    assert!(
        stderr(&out).contains("sweep complete: 2/2"),
        "{}",
        stderr(&out)
    );

    for (i, mask, subset) in [
        (0usize, "full", vec![0u64, 1, 2, 3]),
        (1, "no_mem_branch", vec![0, 2, 4, 6]),
    ] {
        let path = dir.join(format!("reports/custom-{i}.json"));
        let report = read_report(&path);
        assert_eq!(
            report.get("experiment").and_then(Json::as_str),
            Some("custom"),
            "{path:?}"
        );
        let spec = report.get("spec").expect("spec echo");
        assert_eq!(spec.get("features").and_then(Json::as_str), Some(mask));
        let echoed: Vec<u64> = spec
            .get("march_subset")
            .and_then(Json::as_arr)
            .expect("march_subset echoed")
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(echoed, subset);
        let metrics = report.get("metrics").expect("metrics");
        assert_eq!(metrics.get("marches").and_then(Json::as_f64), Some(4.0));
        for key in ["seen_mean_error", "unseen_mean_error", "rows"] {
            assert!(
                metrics.get(key).is_some(),
                "missing metric {key} in {path:?}"
            );
        }

        // Phases partition the run: the dataset stage always records
        // `datasets`, and every phase is finite seconds, the whole set
        // summing to at most the wall time.
        let phases = report.get("phases").and_then(Json::as_obj).expect("phases");
        assert!(
            phases.iter().any(|(name, _)| name == "datasets"),
            "no datasets phase in {path:?}"
        );
        let secs: Vec<f64> = phases.iter().map(|(_, s)| s.as_f64().unwrap()).collect();
        assert!(
            secs.iter().all(|s| s.is_finite() && *s >= 0.0),
            "{phases:?}"
        );
        let wall = report.get("wall_seconds").and_then(Json::as_f64).unwrap();
        assert!(secs.iter().sum::<f64>() <= wall, "{phases:?} past {wall}");

        // `perfvec report` accepts its own output.
        let out = perfvec()
            .args(["report", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", stderr(&out));
        assert!(stdout(&out).contains("valid report"), "{}", stdout(&out));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Read + parse + schema-validate one report file.
fn read_report(path: &Path) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"));
    let v = Json::parse(&text).unwrap_or_else(|e| panic!("{path:?} does not parse: {e}"));
    perfvec_bench::report::validate(&v)
        .unwrap_or_else(|e| panic!("{path:?} does not validate: {e}"));
    v
}

#[test]
fn unknown_workload_is_loud_and_exits_2() {
    let out = perfvec()
        .args(["run", "custom", "--set", "workloads=typo"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("unknown workload \"typo\""), "{err}");
    // The error must list what IS available, so the fix is copyable.
    for name in ["500.perlbench-like", "519.lbm-like", "999.specrand-like"] {
        assert!(err.contains(name), "missing {name} in: {err}");
    }
    assert!(err.contains(".pasm"), "should hint at program paths: {err}");
}

#[test]
fn malformed_program_is_loud_and_exits_2_with_position() {
    let dir = std::env::temp_dir().join(format!("perfvec_cli_badasm_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.pasm");
    std::fs::write(&bad, "li x1, #1\nbork x2\nhalt\n").unwrap();
    let out = perfvec()
        .args(["run", "custom", "--set"])
        .arg(format!("program={}", bad.display()))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("bad.pasm"), "{err}");
    assert!(err.contains("line 2:1"), "{err}");
    assert!(err.contains("unknown mnemonic `bork`"), "{err}");

    // Missing file: same loud convention.
    let out = perfvec()
        .args(["run", "custom", "--set", "program=nope.pasm"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("nope.pasm"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

/// A program that traps under emulation is rejected *before* dataset
/// generation, with the trap's pc, instruction index, and source line
/// carried all the way to the CLI (exit 1: valid input, runtime fault).
#[test]
fn trapping_program_reports_pc_index_and_source_line() {
    let program = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../programs/trap_bad_jump.pasm");
    let out = perfvec()
        .args(["run", "custom", "--set"])
        .arg(format!("program={}", program.display()))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("trap-bad-jump"), "{err}");
    assert!(err.contains("bad indirect jump target 0xc"), "{err}");
    assert!(err.contains("at pc 0x10004"), "{err}");
    assert!(err.contains("instruction index 1"), "{err}");
    assert!(err.contains("source line 15: `jr x1`"), "{err}");
}

#[test]
fn asm_subcommand_rejects_bad_usage_loudly() {
    let out = perfvec()
        .args(["asm", "frobnicate", "x.pasm"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("frobnicate"), "{}", stderr(&out));

    let out = perfvec()
        .args(["asm", "run", "nope.pasm"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("nope.pasm"), "{}", stderr(&out));
}

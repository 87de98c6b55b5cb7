//! End-to-end pipeline tests for externally-assembled programs: a
//! `.pasm` file flows through assemble → trace → content-addressed
//! dataset cache → training → prediction, bit-identically across runs,
//! and the cache key depends on the *encoded program*, never its name.

use std::path::{Path, PathBuf};
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

/// Path of a program in the repository's adversarial suite.
fn suite_program(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../programs")
        .join(file)
}

/// Run `perfvec run custom --set program=<path>` with quick training
/// params, an isolated cache root, and reports written under `dir`.
fn run_custom(dir: &Path, cache: &Path, program: &Path) -> Output {
    perfvec()
        .args([
            "run",
            "custom",
            "--scale",
            "quick",
            "--trace-len",
            "600",
            "--set",
        ])
        .arg(format!("program={}", program.display()))
        .args(["--set", "dim=8", "--set", "context=4", "--set", "epochs=1"])
        .args(["--set", "windows_per_epoch=40", "--set", "val_windows=16"])
        .current_dir(dir)
        .env("PERFVEC_CACHE_DIR", cache)
        .output()
        .unwrap()
}

fn external_dataset_bytes(cache: &Path) -> (String, Vec<u8>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("external-"))
        })
        .collect();
    assert_eq!(
        entries.len(),
        1,
        "expected exactly one external dataset entry, got {entries:?}"
    );
    let path = entries.pop().unwrap();
    let name = path.file_name().unwrap().to_str().unwrap().to_owned();
    (name, std::fs::read(&path).unwrap())
}

fn report_metrics(dir: &Path) -> (f64, f64) {
    let text = std::fs::read_to_string(dir.join("reports/custom.json")).unwrap();
    let v = perfvec_json::Json::parse(&text).unwrap();
    perfvec_bench::report::validate(&v).unwrap();
    let metrics = v.get("metrics").expect("metrics");
    let get = |k: &str| {
        metrics
            .get(k)
            .and_then(perfvec_json::Json::as_f64)
            .unwrap_or_else(|| panic!("missing metric {k}"))
    };
    (get("seen_mean_error"), get("unseen_mean_error"))
}

/// Cold runs in two independent cache roots produce byte-identical
/// dataset entries and identical error metrics; a warm re-run is all
/// cache hits; and a renamed copy of the program (different display
/// name, same encoded instructions) still hits the same entry because
/// the key is the content fingerprint, not the name.
#[test]
fn external_program_pipeline_is_deterministic_and_content_addressed() {
    let root = std::env::temp_dir().join(format!("perfvec_asm_pipeline_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let (dir_a, dir_b) = (root.join("a"), root.join("b"));
    std::fs::create_dir_all(&dir_a).unwrap();
    std::fs::create_dir_all(&dir_b).unwrap();
    let program = suite_program("pointer_chase.pasm");

    // Cold run in cache A.
    let out = run_custom(&dir_a, &dir_a.join("cache"), &program);
    assert!(
        out.status.success(),
        "cold run failed\nstdout:\n{}\nstderr:\n{}",
        stdout(&out),
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(err.contains("0 hits"), "cold run should miss: {err}");
    let (entry_a, bytes_a) = external_dataset_bytes(&dir_a.join("cache"));
    let metrics_a = report_metrics(&dir_a);

    // Independent cold run in cache B: bit-identical artifacts.
    let out = run_custom(&dir_b, &dir_b.join("cache"), &program);
    assert!(out.status.success(), "{}", stderr(&out));
    let (entry_b, bytes_b) = external_dataset_bytes(&dir_b.join("cache"));
    assert_eq!(entry_a, entry_b, "content key must be run-independent");
    assert_eq!(bytes_a, bytes_b, "dataset bytes must be bit-stable");
    assert_eq!(
        metrics_a,
        report_metrics(&dir_b),
        "metrics must be bit-stable"
    );

    // Warm re-run: every dataset comes from the cache.
    let out = run_custom(&dir_a, &dir_a.join("cache"), &program);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains(" 0 misses"), "warm run should not miss: {err}");

    // A renamed copy without the `.name` directive gets a different
    // display name (its file stem) but the same encoded program — the
    // cache must still hit.
    let src = std::fs::read_to_string(&program).unwrap();
    let renamed: String = src
        .lines()
        .filter(|l| !l.starts_with(".name"))
        .map(|l| format!("{l}\n"))
        .collect();
    let renamed_path = root.join("totally_different_name.pasm");
    std::fs::write(&renamed_path, renamed).unwrap();
    let out = run_custom(&dir_a, &dir_a.join("cache"), &renamed_path);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains(" 0 misses"),
        "renamed program must hit the content-keyed entry: {err}"
    );
    assert!(
        stdout(&out).contains("totally_different_name"),
        "report should use the new display name:\n{}",
        stdout(&out)
    );

    std::fs::remove_dir_all(&root).ok();
}

/// The golden runner accepts the whole adversarial suite.
#[test]
fn adversarial_suite_passes_golden_runner() {
    let programs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../programs");
    let out = perfvec()
        .arg("asm")
        .arg("test")
        .arg(&programs)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        stdout(&out),
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(text.contains("7/7 program(s) ok"), "{text}");
}

//! External `.pasm` program ingestion for the experiment harness.
//!
//! This is the bridge between [`perfvec_asm`] and the spec-driven
//! runner: the `custom` experiment's `workloads=` / `program=` params
//! (and `sim_bench`'s `programs=`) resolve here into a
//! [`Workload`] list that mixes built-in Table II kernels with
//! externally assembled programs. External workloads flow through the
//! same trace → features → simulate → cache pipeline as builtins; their
//! dataset cache entries are keyed by *program content*
//! ([`crate::cache::DatasetCache::entry_key_external`]), never by file
//! name.
//!
//! Resolution is loud: an unknown workload name or an unassemblable
//! file is an error that lists what *is* available, raised at spec
//! validation time (exit 2 from the CLI) — never a silently skipped
//! program. Emulator traps in an external program are runtime errors
//! (exit 1) with full source diagnostics ([`preflight`]).

use crate::spec::{ExperimentKind, ExperimentSpec};
use perfvec_asm::{assemble, AsmProgram};
use perfvec_workloads::{suite, SuiteRole, Workload};
use std::path::Path;

/// One external program with the source info needed for diagnostics.
pub struct ExternalSource {
    /// Path it was loaded from (as given).
    pub path: String,
    /// Assembled program, line map, run limit, and expectations.
    pub ap: AsmProgram,
}

/// The workload list a spec's params select, with external sources kept
/// alongside for trap diagnostics. `externals[i].0` indexes
/// `workloads`.
pub struct ResolvedSuite {
    /// Builtins and externals, dataset order.
    pub workloads: Vec<Workload>,
    /// External programs by workload index.
    pub externals: Vec<(usize, ExternalSource)>,
}

impl std::fmt::Debug for ResolvedSuite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedSuite")
            .field(
                "workloads",
                &self.workloads.iter().map(|w| &w.name).collect::<Vec<_>>(),
            )
            .field(
                "externals",
                &self
                    .externals
                    .iter()
                    .map(|(i, e)| (i, &e.path))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl ResolvedSuite {
    /// Whether this is exactly the built-in 17-workload suite.
    pub fn is_default_suite(&self) -> bool {
        self.externals.is_empty() && self.workloads.len() == suite().len()
    }
}

/// Comma-separated names of every built-in workload, for error
/// messages.
pub fn available_names() -> String {
    suite()
        .iter()
        .map(|w| w.name.clone())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Whether a workload token names a `.pasm` file rather than a built-in
/// kernel.
fn is_program_path(token: &str) -> bool {
    token.ends_with(".pasm") || token.contains('/') || token.contains('\\')
}

/// Read and assemble one `.pasm` file. Errors carry the path and the
/// assembler's line/column diagnostic.
pub fn load_external(path: &str) -> Result<ExternalSource, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let stem = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("external");
    let ap = assemble(&text, stem).map_err(|e| format!("{path}: {e}"))?;
    Ok(ExternalSource {
        path: path.to_string(),
        ap,
    })
}

/// Resolve the spec's workload selection:
///
/// * `workloads=<list>` — comma-separated built-in names (full or
///   partial) and/or `.pasm` paths; replaces the default suite.
/// * `program=<list>` — `.pasm` paths appended as held-out (Testing)
///   workloads on top of whatever `workloads` selected.
///
/// With neither param, the built-in Table II suite runs unchanged. The
/// result always contains at least one Training workload (the
/// foundation has to train on something); violations are errors.
pub fn resolve_suite(spec: &ExperimentSpec) -> Result<ResolvedSuite, String> {
    let mut workloads: Vec<Workload> = Vec::new();
    let mut externals: Vec<(usize, ExternalSource)> = Vec::new();
    let push_external = |workloads: &mut Vec<Workload>,
                         externals: &mut Vec<(usize, ExternalSource)>,
                         token: &str|
     -> Result<(), String> {
        let src = load_external(token)?;
        let w = Workload::external(src.ap.program.clone(), SuiteRole::Testing);
        externals.push((workloads.len(), src));
        workloads.push(w);
        Ok(())
    };

    let selection = spec.param_str("workloads", "")?;
    if selection.is_empty() {
        workloads = suite();
    } else {
        for token in selection
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
        {
            if is_program_path(token) {
                push_external(&mut workloads, &mut externals, token)?;
            } else {
                match perfvec_workloads::by_name(token) {
                    Some(w) => workloads.push(w),
                    None => {
                        return Err(format!(
                            "unknown workload {token:?} (available: {}; or pass a .pasm path)",
                            available_names()
                        ))
                    }
                }
            }
        }
    }

    let extra = spec.param_str("program", "")?;
    for token in extra.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        push_external(&mut workloads, &mut externals, token)?;
    }

    if workloads.is_empty() {
        return Err("workload selection is empty".to_string());
    }
    if !workloads.iter().any(|w| w.role == SuiteRole::Training) {
        let training: Vec<String> = suite()
            .iter()
            .filter(|w| w.role == SuiteRole::Training)
            .map(|w| w.name.clone())
            .collect();
        return Err(format!(
            "selection has no training workloads (external programs are held out); \
             include at least one of: {}",
            training.join(", ")
        ));
    }
    Ok(ResolvedSuite {
        workloads,
        externals,
    })
}

/// Spec-validation hook: params that name workloads or programs must
/// resolve before the expensive phases start, so a typo exits 2 from
/// the CLI instead of failing minutes in (or silently running the
/// default suite).
pub fn validate_params(spec: &ExperimentSpec) -> Result<(), String> {
    match spec.kind {
        ExperimentKind::Custom => resolve_suite(spec).map(|_| ()),
        ExperimentKind::SimBench => {
            let list = spec.param_str("programs", "")?;
            for token in list.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                load_external(token)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// The external programs `sim_bench`'s `programs=` param appends to the
/// built-in suite (already validated; errors only on a file changing
/// between validation and run).
pub fn sim_bench_externals(spec: &ExperimentSpec) -> Result<Vec<Workload>, String> {
    let list = spec.param_str("programs", "")?;
    let mut out = Vec::new();
    for token in list.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let src = load_external(token)?;
        out.push(Workload::external(
            src.ap.program.clone(),
            SuiteRole::Testing,
        ));
    }
    Ok(out)
}

/// Execute every external program once under the harness budget before
/// dataset generation, so a trapping program fails with its source
/// diagnostic (pc, instruction index, source line) instead of a panic
/// deep inside the pipeline. `trace_len` caps the run like dataset
/// generation will.
pub fn preflight(resolved: &ResolvedSuite, trace_len: u64) -> Result<(), String> {
    for (idx, src) in &resolved.externals {
        let exec = perfvec_asm::execute(&src.ap, trace_len);
        if let Some(trap) = &exec.trap {
            return Err(format!(
                "external program {} ({}): {}",
                resolved.workloads[*idx].name,
                src.path,
                perfvec_asm::trap_diagnostic(&src.ap, trap)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvec_json::Json;

    fn custom_spec(params: Vec<(&str, &str)>) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(ExperimentKind::Custom);
        spec.params = params
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::Str(v.to_string())))
            .collect();
        spec
    }

    #[test]
    fn default_resolution_is_the_builtin_suite() {
        let r = resolve_suite(&custom_spec(vec![])).unwrap();
        assert!(r.is_default_suite());
        assert_eq!(r.workloads.len(), 17);
    }

    #[test]
    fn unknown_workload_lists_available_names() {
        let err = resolve_suite(&custom_spec(vec![("workloads", "typo")])).unwrap_err();
        assert!(err.contains("unknown workload \"typo\""), "{err}");
        assert!(err.contains("505.mcf-like"), "{err}");
        assert!(err.contains(".pasm"), "{err}");
    }

    #[test]
    fn builtin_subset_resolves_by_partial_name() {
        let r = resolve_suite(&custom_spec(vec![("workloads", "mcf,specrand")])).unwrap();
        assert_eq!(r.workloads.len(), 2);
        assert!(r.externals.is_empty());
        assert_eq!(r.workloads[0].name, "505.mcf-like");
    }

    #[test]
    fn testing_only_selection_is_rejected() {
        let err = resolve_suite(&custom_spec(vec![("workloads", "mcf,lbm")])).unwrap_err();
        assert!(err.contains("no training workloads"), "{err}");
        assert!(err.contains("999.specrand-like"), "{err}");
    }

    #[test]
    fn missing_program_file_is_an_error() {
        let err =
            resolve_suite(&custom_spec(vec![("program", "/nonexistent/x.pasm")])).unwrap_err();
        assert!(err.contains("/nonexistent/x.pasm"), "{err}");
    }

    #[test]
    fn external_program_joins_the_suite_as_testing() {
        let dir = std::env::temp_dir().join(format!("pvasm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.pasm");
        std::fs::write(&path, "    li x1, #1\n    halt\n").unwrap();
        let spec = custom_spec(vec![("program", path.to_str().unwrap())]);
        let r = resolve_suite(&spec).unwrap();
        assert_eq!(r.workloads.len(), 18);
        assert_eq!(r.externals.len(), 1);
        let (idx, src) = &r.externals[0];
        assert_eq!(r.workloads[*idx].name, "tiny");
        assert_eq!(r.workloads[*idx].role, SuiteRole::Testing);
        assert!(src.path.ends_with("tiny.pasm"));
        preflight(&r, 1_000).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn preflight_reports_trap_with_source_line() {
        let dir = std::env::temp_dir().join(format!("pvasm-trap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("boom.pasm");
        std::fs::write(&path, "    li x1, #3\n    jr x1\n    halt\n").unwrap();
        let spec = custom_spec(vec![("program", path.to_str().unwrap())]);
        let r = resolve_suite(&spec).unwrap();
        let err = preflight(&r, 1_000).unwrap_err();
        assert!(err.contains("boom.pasm"), "{err}");
        assert!(err.contains("bad indirect jump target"), "{err}");
        assert!(err.contains("instruction index 1"), "{err}");
        assert!(err.contains("source line 2"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

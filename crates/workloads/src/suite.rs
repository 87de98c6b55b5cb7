//! The benchmark suite registry and the paper's train/test split
//! (Table II).

use crate::{kernels_fp, kernels_int};
use perfvec_isa::{EmuError, Emulator, Op, OpClass, Program, Trace};
use std::sync::Arc;

/// Whether a workload is integer- or floating-point-dominated (the
/// paper's INT/FP grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Integer-dominated.
    Int,
    /// Floating-point-dominated.
    Fp,
}

/// Table II role: used to train the foundation model or held out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteRole {
    /// In the training set.
    Training,
    /// Held out for the unseen-program experiments.
    Testing,
}

/// Where a workload's program comes from: the built-in kernel zoo or an
/// externally assembled [`Program`] (e.g. a `.pasm` file).
#[derive(Clone)]
enum WorkloadSource {
    /// Built-in kernel generator.
    Builtin(fn() -> Program),
    /// Externally supplied program (shared, immutable).
    External(Arc<Program>),
}

/// One registered workload.
#[derive(Clone)]
pub struct Workload {
    /// SPEC-style name (e.g. `505.mcf-like`) or, for external programs,
    /// the program's own name.
    pub name: String,
    /// INT or FP.
    pub kind: WorkloadKind,
    /// Table II role.
    pub role: SuiteRole,
    /// Program source.
    source: WorkloadSource,
}

impl Workload {
    /// Register a built-in kernel.
    fn builtin(
        name: &str,
        kind: WorkloadKind,
        role: SuiteRole,
        build: fn() -> Program,
    ) -> Workload {
        Workload {
            name: name.to_string(),
            kind,
            role,
            source: WorkloadSource::Builtin(build),
        }
    }

    /// Wrap an externally assembled [`Program`] as a workload. The
    /// INT/FP kind is inferred from the static instruction mix: any
    /// floating-point or SIMD instruction makes the workload FP.
    pub fn external(program: Program, role: SuiteRole) -> Workload {
        let fp = program.insts.iter().any(|i| {
            matches!(
                i.op.class(),
                OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv | OpClass::Simd
            ) || matches!(i.op, Op::Icvtf | Op::Fcvti)
        });
        Workload {
            name: program.name.clone(),
            kind: if fp {
                WorkloadKind::Fp
            } else {
                WorkloadKind::Int
            },
            role,
            source: WorkloadSource::External(Arc::new(program)),
        }
    }

    /// The workload's program (built fresh for builtins, shared for
    /// externals).
    pub fn program(&self) -> Arc<Program> {
        match &self.source {
            WorkloadSource::Builtin(build) => Arc::new(build()),
            WorkloadSource::External(p) => Arc::clone(p),
        }
    }

    /// The externally supplied program, if this workload wraps one.
    /// `None` for built-in kernels.
    pub fn external_program(&self) -> Option<&Arc<Program>> {
        match &self.source {
            WorkloadSource::Builtin(_) => None,
            WorkloadSource::External(p) => Some(p),
        }
    }

    /// Build the program and collect its dynamic trace, truncated to
    /// `max_instrs`. Unlike [`Workload::trace`] this surfaces emulator
    /// traps instead of panicking — external programs are untrusted.
    pub fn try_trace(&self, max_instrs: u64) -> Result<Trace, EmuError> {
        let program = self.program();
        Emulator::new(&program).run(max_instrs)
    }

    /// Build the program and collect its dynamic trace, truncated to
    /// `max_instrs` (the paper truncates SPEC runs at 100 M
    /// instructions; our kernels are scaled down accordingly).
    ///
    /// Panics on an emulator trap; use [`Workload::try_trace`] for
    /// untrusted external programs.
    pub fn trace(&self, max_instrs: u64) -> Trace {
        self.try_trace(max_instrs)
            .unwrap_or_else(|e| panic!("workload {} failed to execute: {e}", self.name))
    }
}

/// All 17 workloads, mirroring Table II of the paper.
pub fn suite() -> Vec<Workload> {
    use SuiteRole::*;
    use WorkloadKind::*;
    vec![
        // ---- training, INT ----
        Workload::builtin("525.x264-like", Int, Training, kernels_int::x264_like),
        Workload::builtin(
            "531.deepsjeng-like",
            Int,
            Training,
            kernels_int::deepsjeng_like,
        ),
        Workload::builtin(
            "548.exchange2-like",
            Int,
            Training,
            kernels_int::exchange2_like,
        ),
        Workload::builtin("557.xz-like", Int, Training, kernels_int::xz_like),
        Workload::builtin(
            "999.specrand-like",
            Int,
            Training,
            kernels_int::specrand_like,
        ),
        // ---- training, FP ----
        Workload::builtin("527.cam4-like", Fp, Training, kernels_fp::cam4_like),
        Workload::builtin("538.imagick-like", Fp, Training, kernels_fp::imagick_like),
        Workload::builtin("544.nab-like", Fp, Training, kernels_fp::nab_like),
        Workload::builtin(
            "549.fotonik3d-like",
            Fp,
            Training,
            kernels_fp::fotonik3d_like,
        ),
        // ---- testing, INT ----
        Workload::builtin(
            "500.perlbench-like",
            Int,
            Testing,
            kernels_int::perlbench_like,
        ),
        Workload::builtin("502.gcc-like", Int, Testing, kernels_int::gcc_like),
        Workload::builtin("505.mcf-like", Int, Testing, kernels_int::mcf_like),
        Workload::builtin(
            "523.xalancbmk-like",
            Int,
            Testing,
            kernels_int::xalancbmk_like,
        ),
        // ---- testing, FP ----
        Workload::builtin(
            "507.cactuBSSN-like",
            Fp,
            Testing,
            kernels_fp::cactubssn_like,
        ),
        Workload::builtin("508.namd-like", Fp, Testing, kernels_fp::namd_like),
        Workload::builtin("519.lbm-like", Fp, Testing, kernels_fp::lbm_like),
        Workload::builtin("521.wrf-like", Fp, Testing, kernels_fp::wrf_like),
    ]
}

/// The nine training workloads of Table II.
pub fn training_suite() -> Vec<Workload> {
    suite()
        .into_iter()
        .filter(|w| w.role == SuiteRole::Training)
        .collect()
}

/// The eight held-out testing workloads of Table II.
pub fn testing_suite() -> Vec<Workload> {
    suite()
        .into_iter()
        .filter(|w| w.role == SuiteRole::Testing)
        .collect()
}

/// Look up one workload by (full or partial) name.
pub fn by_name(name: &str) -> Option<Workload> {
    suite()
        .into_iter()
        .find(|w| w.name == name || w.name.contains(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvec_isa::OpClass;

    #[test]
    fn table_ii_counts() {
        assert_eq!(suite().len(), 17);
        assert_eq!(training_suite().len(), 9);
        assert_eq!(testing_suite().len(), 8);
        let fp = suite()
            .iter()
            .filter(|w| w.kind == WorkloadKind::Fp)
            .count();
        assert_eq!(fp, 8);
    }

    #[test]
    fn every_workload_produces_a_trace() {
        for w in suite() {
            let t = w.trace(20_000);
            assert!(
                t.len() >= 10_000,
                "{} produced only {} instructions",
                w.name,
                t.len()
            );
        }
    }

    #[test]
    fn traces_are_deterministic() {
        let a = by_name("505.mcf-like").unwrap().trace(5_000);
        let b = by_name("mcf").unwrap().trace(5_000);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn fp_workloads_execute_fp_work() {
        for w in suite().iter().filter(|w| w.kind == WorkloadKind::Fp) {
            let t = w.trace(20_000);
            let mix = t.class_mix();
            let fp_ops = mix[OpClass::FpAlu as usize]
                + mix[OpClass::FpMul as usize]
                + mix[OpClass::FpDiv as usize]
                + mix[OpClass::Simd as usize];
            assert!(
                fp_ops as f64 > 0.10 * t.len() as f64,
                "{}: fp fraction too low ({fp_ops}/{})",
                w.name,
                t.len()
            );
        }
    }

    #[test]
    fn int_workloads_avoid_fp_work() {
        for w in suite().iter().filter(|w| w.kind == WorkloadKind::Int) {
            let t = w.trace(20_000);
            let mix = t.class_mix();
            let fp_ops = mix[OpClass::FpAlu as usize]
                + mix[OpClass::FpMul as usize]
                + mix[OpClass::FpDiv as usize];
            assert!(fp_ops == 0, "{}: unexpected fp ops", w.name);
        }
    }

    #[test]
    fn memory_bound_kernels_touch_memory_often() {
        let t = by_name("mcf").unwrap().trace(20_000);
        assert!(
            t.mem_fraction() > 0.3,
            "mcf mem fraction {}",
            t.mem_fraction()
        );
        let t = by_name("lbm").unwrap().trace(30_000);
        assert!(
            t.mem_fraction() > 0.15,
            "lbm mem fraction {}",
            t.mem_fraction()
        );
    }

    #[test]
    fn interpreter_kernel_uses_indirect_branches() {
        let t = by_name("gcc").unwrap().trace(20_000);
        let indirect = t
            .records
            .iter()
            .filter(|r| t.program.insts[r.sidx as usize].op.is_indirect_branch())
            .count();
        assert!(
            indirect > 500,
            "gcc-like should dispatch indirectly, got {indirect}"
        );
    }

    #[test]
    fn recursive_kernel_calls_and_returns() {
        let t = by_name("exchange2").unwrap().trace(30_000);
        let calls = t
            .records
            .iter()
            .filter(|r| t.program.insts[r.sidx as usize].op.is_call())
            .count();
        assert!(
            calls > 200,
            "exchange2-like should recurse, got {calls} calls"
        );
    }

    #[test]
    fn workload_mixes_differ_between_programs() {
        // The suite must span diverse behaviours for generalization
        // claims to be meaningful: pairwise distance between
        // class-mix distributions should be substantial for at least
        // some pairs.
        let mixes: Vec<(String, Vec<f64>)> = suite()
            .iter()
            .map(|w| {
                let t = w.trace(15_000);
                let mix = t.class_mix();
                let total = t.len() as f64;
                (
                    w.name.to_string(),
                    mix.iter().map(|&c| c as f64 / total).collect(),
                )
            })
            .collect();
        let mut max_l1 = 0.0f64;
        for a in &mixes {
            for b in &mixes {
                let d: f64 = a.1.iter().zip(&b.1).map(|(x, y)| (x - y).abs()).sum();
                max_l1 = max_l1.max(d);
            }
        }
        assert!(
            max_l1 > 0.5,
            "suite lacks diversity, max L1 distance {max_l1}"
        );
    }
}

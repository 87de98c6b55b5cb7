//! Dataset generation: run workloads through the functional emulator,
//! extract microarchitecture-independent features, and simulate the
//! trace on every sampled microarchitecture to obtain per-instruction
//! incremental-latency targets (the paper's Section IV-C pipeline, with
//! `perfvec-sim` standing in for gem5).

use perfvec_isa::Trace;
use perfvec_ml::parallel::{in_parallel_worker, parallel_map};
use perfvec_sim::{simulate, simulate_column, MicroArchConfig};
use perfvec_trace::features::{extract_features, FeatureMask, Matrix};
use perfvec_trace::ProgramData;
use perfvec_workloads::{suite, SuiteRole};

/// Datasets for the whole Table II suite against one machine
/// population, split into the paper's 9 training / 8 testing programs.
pub struct SuiteData {
    /// Training programs (9) with their datasets.
    pub train: Vec<ProgramData>,
    /// Testing programs (8) with their datasets.
    pub test: Vec<ProgramData>,
}

impl SuiteData {
    /// Assemble per-program datasets, given in [`suite()`] order, into
    /// the Table II train/test split. Each dataset is routed by its
    /// suite role; order within each split follows the suite registry.
    ///
    /// Panics if `parts` does not line up with the suite (a logic
    /// error, not a data error: callers produce `parts` by iterating
    /// the suite).
    pub fn assemble(parts: Vec<ProgramData>) -> SuiteData {
        SuiteData::assemble_from(&suite(), parts)
    }

    /// Assemble per-program datasets against an explicit workload list
    /// (built-in subsets or suites mixing in external `.pasm`
    /// programs), routing each dataset by its workload's role.
    ///
    /// Panics if `parts` does not line up with `workloads` (a logic
    /// error: callers produce `parts` by iterating the same list).
    pub fn assemble_from(
        workloads: &[perfvec_workloads::Workload],
        parts: Vec<ProgramData>,
    ) -> SuiteData {
        assert_eq!(
            parts.len(),
            workloads.len(),
            "SuiteData::assemble_from: {} datasets for {} workloads",
            parts.len(),
            workloads.len()
        );
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (w, d) in workloads.iter().zip(parts) {
            debug_assert_eq!(w.name, d.name, "dataset out of workload order");
            match w.role {
                SuiteRole::Training => train.push(d),
                SuiteRole::Testing => test.push(d),
            }
        }
        SuiteData { train, test }
    }
}

/// Build one program's dataset: `n x 51` features plus `n x k`
/// incremental latencies (0.1 ns) for the `k` given microarchitectures.
///
/// The machine grid is simulated with the column simulator
/// ([`simulate_column`]): the trace is decoded once per chunk of
/// machines and each machine runs over that one buffer. Chunks of
/// distinct microarchitectures are independent and run in parallel when
/// this is the outermost parallel region; inside a program-parallel
/// generation worker (where nested parallelism degrades to sequential)
/// the whole column runs as one chunk. Per-cell results are
/// bit-identical either way, so chunking never affects dataset contents
/// or cache keys.
pub fn build_program_data(
    name: &str,
    trace: &Trace,
    configs: &[MicroArchConfig],
    mask: FeatureMask,
) -> ProgramData {
    let features = extract_features(trace, mask);
    let n = trace.len();
    let k = configs.len();
    let threads = if in_parallel_worker() {
        1
    } else {
        std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1)
    };
    let n_chunks = threads.clamp(1, k.max(1));
    // Contiguous chunk bounds covering 0..k (first `k % n_chunks`
    // chunks get one extra machine).
    let bounds: Vec<(usize, usize)> = (0..n_chunks)
        .map(|c| {
            let base = k / n_chunks;
            let extra = k % n_chunks;
            let start = c * base + c.min(extra);
            (start, start + base + usize::from(c < extra))
        })
        .collect();
    let columns: Vec<Vec<f32>> = parallel_map(n_chunks, |c| {
        let (lo, hi) = bounds[c];
        simulate_column(trace, &configs[lo..hi])
            .into_iter()
            .map(|r| r.inc_latency_tenths)
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let mut targets = Matrix::zeros(n, k);
    for (j, col) in columns.iter().enumerate() {
        debug_assert_eq!(col.len(), n);
        for (i, &v) in col.iter().enumerate() {
            targets.row_mut(i)[j] = v;
        }
    }
    ProgramData {
        name: name.to_string(),
        features,
        targets,
    }
}

/// Total simulated execution times (0.1 ns) per microarchitecture for a
/// trace — the evaluation ground truth.
pub fn ground_truth_times(trace: &Trace, configs: &[MicroArchConfig]) -> Vec<f64> {
    parallel_map(configs.len(), |j| simulate(trace, &configs[j]).total_tenths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfvec_sim::sample::predefined_configs;
    use perfvec_trace::NUM_FEATURES;
    use perfvec_workloads::by_name;

    #[test]
    fn dataset_dimensions_match_trace_and_configs() {
        let trace = by_name("specrand").unwrap().trace(2_000);
        let configs = predefined_configs();
        let d = build_program_data("t", &trace, &configs, FeatureMask::Full);
        assert_eq!(d.len(), trace.len());
        assert_eq!(d.features.cols, NUM_FEATURES);
        assert_eq!(d.num_marches(), configs.len());
    }

    #[test]
    fn target_columns_sum_to_ground_truth() {
        let trace = by_name("specrand").unwrap().trace(2_000);
        let configs = predefined_configs();
        let d = build_program_data("t", &trace, &configs, FeatureMask::Full);
        let truth = ground_truth_times(&trace, &configs);
        for (j, &t) in truth.iter().enumerate() {
            let sum = d.total_time(j);
            assert!(
                (sum - t).abs() < 1e-4 * t.max(1.0),
                "march {j}: column sum {sum} vs simulated total {t}"
            );
        }
    }

    #[test]
    fn assemble_splits_by_table_ii_role() {
        let parts: Vec<ProgramData> = perfvec_workloads::suite()
            .iter()
            .map(|w| ProgramData {
                name: w.name.to_string(),
                features: Matrix::zeros(0, 51),
                targets: Matrix::zeros(0, 0),
            })
            .collect();
        let s = SuiteData::assemble(parts);
        assert_eq!(s.train.len(), 9);
        assert_eq!(s.test.len(), 8);
        assert!(s.train.iter().all(|d| {
            perfvec_workloads::suite()
                .iter()
                .any(|w| w.name == d.name && w.role == perfvec_workloads::SuiteRole::Training)
        }));
    }

    #[test]
    fn lockstep_targets_match_per_cell_simulation() {
        // The chunked column simulator must produce exactly the bits the
        // per-cell path produces for every (instruction, machine) cell.
        let trace = by_name("specrand").unwrap().trace(1_500);
        let configs = predefined_configs();
        let d = build_program_data("t", &trace, &configs, FeatureMask::Full);
        for (j, c) in configs.iter().enumerate() {
            let r = simulate(&trace, c);
            for i in 0..trace.len() {
                assert_eq!(
                    d.targets.row(i)[j].to_bits(),
                    r.inc_latency_tenths[i].to_bits(),
                    "cell ({i}, {j}) diverged on {}",
                    c.name
                );
            }
        }
    }

    #[test]
    fn parallel_simulation_is_deterministic() {
        let trace = by_name("specrand").unwrap().trace(1_000);
        let configs = predefined_configs();
        let a = build_program_data("a", &trace, &configs, FeatureMask::Full);
        let b = build_program_data("b", &trace, &configs, FeatureMask::Full);
        assert_eq!(a.targets, b.targets);
    }
}

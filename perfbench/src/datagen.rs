//! The `datagen` phase: cold dataset generation into an empty cache,
//! then a warm reload of every entry.
//!
//! Both go through the library's own `workload_datasets`; the cache
//! counts and simulated cells come from the library's own counters.
//! Traced, each pass also makes the layer calls of a miss and a hit one
//! by one — emulate, features, `simulate_column`, publish, read, decode
//! — with a span each, and gates the result against the library's.

use crate::spans::Tracer;
use crate::{Gates, Rng, WorkDir};
use perfvec_bench::cache::{workload_datasets, DatasetCache};
use perfvec_bench::shard::ShardPlan;
use perfvec_ml::parallel::parallel_map;
use perfvec_sim::{lockstep, simulate, simulate_column, MicroArchConfig, SimStats};
use perfvec_trace::binio::{decode_program_data, encode_program_data};
use perfvec_trace::features::{extract_features, FeatureMask, Matrix};
use perfvec_trace::ProgramData;
use perfvec_workloads::{suite, SuiteRole, Workload};
use std::path::Path;
use std::time::Instant;

/// Instructions traced per program (half the `quick` scale's length).
pub const TRACE_LEN: u64 = 10_000;

/// The non-trapping adversarial programs of `programs/`.
pub const PASM_PROGRAMS: [&str; 6] = [
    "branch_5050",
    "branch_always",
    "dep_chain",
    "fence_stream",
    "pointer_chase",
    "stride_irregular",
];

/// Grid cells checked per run against the per-cell simulator.
const SAMPLED_CELLS: usize = 6;

/// The 17 builtins plus the assembled adversarial programs.
pub struct Programs {
    pub workloads: Vec<Workload>,
}

/// Assemble the adversarial programs (set-up work) and append them to
/// the builtin suite.
pub fn setup(tr: &Tracer) -> Result<Programs, String> {
    let mut workloads = suite();
    for name in PASM_PROGRAMS {
        let path = format!("programs/{name}.pasm");
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let asm = tr
            .span("asm.assemble", None, None, |_| {
                perfvec_asm::assemble(&src, name)
            })
            .map_err(|e| format!("{path}: {e}"))?;
        workloads.push(Workload::external(asm.program, SuiteRole::Testing));
    }
    Ok(Programs { workloads })
}

/// What one phase run measured.
#[derive(Default)]
pub struct Outcome {
    /// (traced instructions × machines) / cold wall time, per repetition.
    pub minstr_per_s: Vec<f64>,
    /// Full all-hits reload wall time, per repetition.
    pub warm_load_s: Vec<f64>,
    /// Traced instructions per cold generation.
    pub instructions: u64,
    /// Encoded dataset bytes per cold generation.
    pub bytes: u64,
    /// Cache hits and misses over the whole phase, as the library's
    /// `CacheStats` report them.
    pub hits: usize,
    pub misses: usize,
    /// Summed over the library's cold generations, from the simulator's
    /// own lockstep metrics: grid cells and µs inside `simulate_column`
    /// (column decode + machine stepping).
    pub lib_cells: u64,
    pub lib_simulate_us: u64,
    /// Simulator counters summed over one layer-by-layer grid (traced
    /// run only).
    pub sim: SimStats,
}

impl Outcome {
    pub fn reps(&self) -> usize {
        self.minstr_per_s.len()
    }
}

/// The phase's state across its passes.
pub struct Datagen<'a> {
    tr: &'a Tracer,
    ws: &'a [Workload],
    configs: &'a [MicroArchConfig],
    plan: ShardPlan,
    out: Outcome,
    last_cold: Vec<ProgramData>,
}

impl<'a> Datagen<'a> {
    pub fn new(tr: &'a Tracer, programs: &'a Programs, configs: &'a [MicroArchConfig]) -> Self {
        Datagen {
            tr,
            ws: &programs.workloads,
            configs,
            plan: ShardPlan::auto(TRACE_LEN, configs.len()),
            out: Outcome::default(),
            last_cold: Vec::new(),
        }
    }

    /// One pass: cold generation into a fresh cache, then a warm reload,
    /// both through `workload_datasets`. Traced, the pass then repeats
    /// the generation layer call by layer call (see [`layer_by_layer`]).
    pub fn step(&mut self, work: &WorkDir, gates: &mut Gates) -> Result<(), String> {
        let (tr, ws, configs, plan) = (self.tr, self.ws, self.configs, self.plan);
        let out = &mut self.out;
        let dir = work.fresh("datagen")?;
        let cache = DatasetCache::at(&dir);
        let library = |what: &'static str| {
            tr.span(what, None, None, |_| {
                workload_datasets(&cache, ws, TRACE_LEN, configs, FeatureMask::Full, plan)
            })
        };

        let m = lockstep::metrics();
        let sim_before = (m.cells.get(), column_us());
        let t = Instant::now();
        let (cold, s) = library("cache.workload_datasets_cold");
        let cold_s = t.elapsed().as_secs_f64();
        out.lib_cells += m.cells.get() - sim_before.0;
        out.lib_simulate_us += column_us() - sim_before.1;
        out.hits += s.hits;
        out.misses += s.misses;
        gates.check((s.hits, s.misses) == (0, ws.len()), || {
            format!(
                "cold generation into an empty cache: {} hits, {} misses",
                s.hits, s.misses
            )
        });

        let t = Instant::now();
        let (warm, s) = library("cache.workload_datasets_warm");
        out.warm_load_s.push(t.elapsed().as_secs_f64());
        out.hits += s.hits;
        out.misses += s.misses;
        gates.check((s.hits, s.misses) == (ws.len(), 0), || {
            format!("warm reload: {} hits, {} misses", s.hits, s.misses)
        });

        let instructions: u64 = cold.iter().map(|d| d.len() as u64).sum();
        out.instructions = instructions;
        out.minstr_per_s
            .push((instructions * configs.len() as u64) as f64 / cold_s / 1e6);

        // Warm must equal cold: the first pass compares the encoded
        // bytes, later ones the values.
        let first = out.reps() == 1;
        let mut bytes = 0;
        for (c, w) in cold.iter().zip(&warm) {
            if first {
                let (cb, wb) = (encode_program_data(c), encode_program_data(w));
                bytes += cb.len() as u64;
                gates.check(cb == wb, || {
                    format!("{}: warm bytes differ from cold", c.name)
                });
            } else {
                gates.check(same(c, w), || {
                    format!("{}: warm reload differs from cold", c.name)
                });
            }
        }
        if first {
            out.bytes = bytes;
        }
        if tr.on() {
            out.sim = layer_by_layer(tr, ws, configs, plan, &work.fresh("layers")?, &cold, gates)?;
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        self.last_cold = cold;
        Ok(())
    }

    /// Gate seeded grid cells of the last generation, then hand back
    /// what the passes measured.
    pub fn finish(self, rng: &mut Rng, gates: &mut Gates) -> Outcome {
        check_sampled_cells(self.ws, self.configs, &self.last_cold, rng, gates);
        self.out
    }
}

/// Microseconds the simulator's lockstep metrics have recorded inside
/// `simulate_column`, process-wide.
fn column_us() -> u64 {
    let m = lockstep::metrics();
    m.column_decode_us.sum() + m.column_simulate_us.sum()
}

/// Traced only: the layer calls `workload_datasets` makes on a miss and
/// on a hit, made one by one so each gets its own span — emulate,
/// features and `simulate_column` per program (programs in parallel, as
/// the library runs them), `DatasetCache::publish`, then read and
/// decode. Entries go to files of the benchmark's own naming in `dir`,
/// so this path does not depend on the cache's key scheme. Every
/// program must come out equal to the library's `cold` output and
/// survive the publish/read round trip. Returns the simulator counters
/// summed over the grid.
fn layer_by_layer(
    tr: &Tracer,
    ws: &[Workload],
    configs: &[MicroArchConfig],
    plan: ShardPlan,
    dir: &Path,
    cold: &[ProgramData],
    gates: &mut Gates,
) -> Result<SimStats, String> {
    let cache = DatasetCache::at(dir);
    let path = |i: usize| dir.join(format!("program-{i}.pvd"));
    let mut sim = SimStats::default();
    let mut data = Vec::with_capacity(ws.len());
    for wave in (0..ws.len())
        .collect::<Vec<_>>()
        .chunks(plan.max_in_flight.max(1))
    {
        let generated = parallel_map(wave.len(), |k| {
            let i = wave[k];
            let w = &ws[i];
            let trace = tr.span("isa.emulate", None, None, |_| w.trace(TRACE_LEN));
            let features = tr.span("trace.features", None, None, |_| {
                extract_features(&trace, FeatureMask::Full)
            });
            let results = tr.span("sim.simulate_column", None, None, |_| {
                simulate_column(&trace, configs)
            });
            let mut targets = Matrix::zeros(trace.len(), configs.len());
            let mut stats = SimStats::default();
            for (j, r) in results.iter().enumerate() {
                for (t, &v) in r.inc_latency_tenths.iter().enumerate() {
                    targets.row_mut(t)[j] = v;
                }
                add_stats(&mut stats, &r.stats);
            }
            let d = ProgramData {
                name: w.name.clone(),
                features,
                targets,
            };
            let published = tr.span("cache.publish", None, None, |_| cache.publish(&path(i), &d));
            (d, stats, published)
        });
        for (k, (d, s, published)) in generated.into_iter().enumerate() {
            published.map_err(|e| format!("{}: {e}", path(wave[k]).display()))?;
            add_stats(&mut sim, &s);
            data.push(d);
        }
    }
    for (i, (d, lib)) in data.iter().zip(cold).enumerate() {
        gates.check(same(d, lib), || {
            format!(
                "{}: layer-by-layer generation differs from workload_datasets",
                d.name
            )
        });
        let bytes = tr
            .span("cache.read", None, None, |_| std::fs::read(path(i)))
            .map_err(|e| format!("{}: {e}", path(i).display()))?;
        let back = tr
            .span("trace.binio_decode", None, None, |_| {
                decode_program_data(&bytes)
            })
            .map_err(|e| format!("{}: {e}", path(i).display()))?;
        let again = tr.span("trace.binio_encode", None, None, |_| {
            encode_program_data(&back)
        });
        gates.check(again == bytes, || {
            format!("{}: publish/read round trip changed the entry", d.name)
        });
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(sim)
}

fn same(a: &ProgramData, b: &ProgramData) -> bool {
    a.name == b.name && a.features == b.features && a.targets == b.targets
}

fn add_stats(acc: &mut SimStats, s: &SimStats) {
    acc.cycles += s.cycles;
    acc.instructions += s.instructions;
    acc.l1i_misses += s.l1i_misses;
    acc.l1d_misses += s.l1d_misses;
    acc.l2_misses += s.l2_misses;
    acc.mispredicts += s.mispredicts;
    acc.branches += s.branches;
    acc.ifetch_accesses += s.ifetch_accesses;
    acc.data_accesses += s.data_accesses;
}

/// Seeded grid cells must agree bit for bit between the per-cell
/// simulator and the column simulator that produced the datasets.
fn check_sampled_cells(
    ws: &[Workload],
    configs: &[MicroArchConfig],
    cold: &[ProgramData],
    rng: &mut Rng,
    gates: &mut Gates,
) {
    for _ in 0..SAMPLED_CELLS {
        let p = rng.below(ws.len());
        let j = rng.below(configs.len());
        let trace = ws[p].trace(TRACE_LEN);
        let cell = simulate(&trace, &configs[j]);
        let column = cold[p].targets.data.iter().skip(j).step_by(configs.len());
        let same = cell.inc_latency_tenths.len() == cold[p].len()
            && cell
                .inc_latency_tenths
                .iter()
                .zip(column)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        gates.check(same, || {
            format!(
                "{} on {}: simulate differs from simulate_column",
                ws[p].name, configs[j].name
            )
        });
    }
}

//! The `serve` phase: a closed loop of keep-alive HTTP connections, one
//! per core, against `perfvec_serve::server::start` on loopback.
//!
//! The traffic follows the repository's design-space-exploration caller
//! (`examples/design_space_exploration.rs`): one program is asked about
//! on the 16 machines of a 4 × 4 grid, so each program brings one miss
//! (a never-seen program: a named builtin at a unique `trace_len`,
//! traced server-side, or the inline feature matrix of an adversarial
//! program) and 15 hits (the same program on another machine row).
//! Trace lengths sit around the 800 instructions of `serve_bench`'s
//! probe. The plan runs in sessions; each session starts a fresh
//! server, so every planned miss is a real miss and one set of
//! precomputed answers serves every session.

use crate::datagen::Programs;
use crate::spans::Tracer;
use crate::{Gates, Rng, WorkDir};
use perfvec::checkpoint;
use perfvec::compose::{program_representation, program_representations_coalesced};
use perfvec::foundation::{ArchSpec, Foundation};
use perfvec::{predict_total_tenths, MarchTable};
use perfvec_json::Json;
use perfvec_ml::parallel::parallel_map;
use perfvec_serve::client::roundtrip;
use perfvec_serve::protocol::{f64_bits_hex, parse_predict_request, MarchSelector, ProgramSource};
use perfvec_serve::server::named_workload_features;
use perfvec_serve::{start, EngineConfig, ModelRegistry, ServerConfig, ServerHandle};
use perfvec_sim::sample::DEFAULT_MARCH_SEED;
use perfvec_trace::features::{extract_features, FeatureMask, Matrix};
use perfvec_workloads::suite;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Closed-loop clients: one per core of the reference container.
pub const CONNECTIONS: usize = 2;
/// Programs each connection asks about per session.
const PROGRAMS_PER_CONN: usize = 8;
/// Machines asked about per program: the 4 × 4 cache grid of the DSE
/// example, so one miss and 15 hits.
const GRID_POINTS: usize = 16;
/// Every fourth program is sent inline, the rest by name. Inline
/// requests carry the whole feature matrix, so their hits cost several
/// times a named hit; at one in four, the hit median sits among named
/// hits and the hit p90 among inline ones instead of on the boundary.
const INLINE_EVERY: usize = 4;
/// Program lengths, in instructions: `MIN_LEN + LEN_STEP * k` for the
/// k-th program of a session, 600 to 975 around `serve_bench`'s 800.
/// Distinct lengths make every miss a never-seen program; spreading
/// them keeps the miss latency distribution smooth, so its quantiles do
/// not jump between modes.
const MIN_LEN: usize = 600;
const LEN_STEP: usize = 25;
/// Machine rows of the served table (the training population).
const MARCHES: usize = 77;
/// Engine sizing: the default batch and queue, one worker per core.
const ENGINE: EngineConfig = EngineConfig {
    batch: 16,
    queue_depth: 256,
    workers: CONNECTIONS,
    cache_entries: 1024,
};

/// One never-seen program of the plan.
struct Program {
    /// `Some((name, trace_len))` for a named builtin, `None` for inline.
    named: Option<(String, u64)>,
    features: Arc<Matrix>,
}

/// One planned request.
pub struct Request {
    pub id: u64,
    body: String,
    program: usize,
    hit: bool,
    expect_bits: String,
}

/// Everything a session needs, built once per set-up.
pub struct Setup {
    ckpt: PathBuf,
    foundation: Foundation,
    programs: Vec<Program>,
    /// Per connection, per program: its miss, then its hits.
    plan: Vec<Vec<Vec<Request>>>,
    /// Draws each session's request order.
    order: Rng,
    /// The first session's server, started during set-up.
    server: Option<ServerHandle>,
}

/// Write and load the checkpoint, plan the requests, compute the
/// offline answers, and start the server (set-up work).
pub fn setup(
    tr: &Tracer,
    work: &WorkDir,
    adversarial: &Programs,
    seed: u64,
) -> Result<Setup, String> {
    // Seeded, untrained weights: a forward pass costs the same either way.
    let spec = ArchSpec::default_lstm(32);
    let foundation = Foundation::new(spec, 12, 1.0, seed);
    let table = MarchTable::new(MARCHES, spec.dim, seed ^ 0x7ab1e);
    let ckpt = work.fresh("serve")?.join("model.pfm");
    tr.span("checkpoint.save", None, None, |_| {
        checkpoint::save(&foundation, spec, Some(&table), &ckpt)
    })
    .map_err(|e| format!("{}: {e}", ckpt.display()))?;
    let registry = load_registry(tr, &ckpt)?;
    let model = registry.get(None).expect("one model registered");

    let mut rng = Rng::new(seed ^ 0x5e7e);
    let programs = plan_programs(tr, adversarial, &mut rng);
    let reps = tr.span("serve.offline_answers", None, None, |_| {
        parallel_map(programs.len(), |p| {
            program_representation(&model.foundation, &programs[p].features)
        })
    });
    // Each connection asks about its own programs, each on a seeded
    // grid of distinct machine rows: the first is the miss.
    let mut id = 0u64;
    let plan = programs
        .chunks(PROGRAMS_PER_CONN)
        .enumerate()
        .map(|(c, mine)| {
            mine.iter()
                .enumerate()
                .map(|(k, prog)| {
                    let p = c * PROGRAMS_PER_CONN + k;
                    let mut rows: Vec<usize> = (0..MARCHES).collect();
                    rng.shuffle(&mut rows);
                    rows[..GRID_POINTS]
                        .iter()
                        .enumerate()
                        .map(|(h, &row)| {
                            let pred = predict_total_tenths(
                                &reps[p],
                                model.table.rep(row),
                                model.foundation.target_scale,
                            );
                            id += 1;
                            Request {
                                id: id - 1,
                                body: body(prog, row),
                                program: p,
                                hit: h > 0,
                                expect_bits: f64_bits_hex(pred),
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let server = Some(start_server(registry)?);
    Ok(Setup {
        ckpt,
        foundation,
        programs,
        plan,
        order: Rng::new(seed ^ 0x0de7),
        server,
    })
}

fn load_registry(tr: &Tracer, ckpt: &std::path::Path) -> Result<ModelRegistry, String> {
    tr.span("checkpoint.load", None, None, |_| {
        ModelRegistry::load(
            &[("default".to_string(), ckpt.to_path_buf())],
            DEFAULT_MARCH_SEED,
        )
    })
    .map_err(|e| format!("{}: {e}", ckpt.display()))
}

fn start_server(registry: ModelRegistry) -> Result<ServerHandle, String> {
    start(
        registry,
        ServerConfig {
            host: IpAddr::V4(Ipv4Addr::LOCALHOST),
            port: 0,
            engine: ENGINE,
        },
    )
    .map_err(|e| format!("server start: {e}"))
}

/// The never-seen programs, connection-major, every `INLINE_EVERY`-th
/// one inline. The named builtins and the inline sources are a fixed
/// list and every program gets its own length from one fixed set, so
/// the work per session does not depend on the seed (tracing cost
/// differs a lot between builtins); the seed picks which program gets
/// which length.
fn plan_programs(tr: &Tracer, adversarial: &Programs, rng: &mut Rng) -> Vec<Program> {
    let total = CONNECTIONS * PROGRAMS_PER_CONN;
    let mut lens: Vec<usize> = (0..total).map(|k| MIN_LEN + LEN_STEP * k).collect();
    rng.shuffle(&mut lens);
    let max_len = MIN_LEN + LEN_STEP * total;
    let externals: Vec<Matrix> = adversarial
        .workloads
        .iter()
        .filter(|w| w.external_program().is_some())
        .map(|w| extract_features(&w.trace(max_len as u64), FeatureMask::Full))
        .collect();
    let builtins = suite();
    lens.iter()
        .enumerate()
        .map(|(k, &len)| {
            let inline = k / INLINE_EVERY;
            let named = k - inline;
            if k % INLINE_EVERY != INLINE_EVERY - 1 {
                let name = builtins[(2 * named) % builtins.len()].name.clone();
                let features = tr
                    .span("serve.offline_features", None, None, |_| {
                        named_workload_features(&name, len as u64)
                    })
                    .expect("builtin names resolve");
                Program {
                    named: Some((name, len as u64)),
                    features: Arc::new(features),
                }
            } else {
                let src = &externals[inline % externals.len()];
                let mut m = Matrix::zeros(len.min(src.rows), src.cols);
                m.data.copy_from_slice(&src.data[..m.rows * m.cols]);
                Program {
                    named: None,
                    features: Arc::new(m),
                }
            }
        })
        .collect()
}

fn body(p: &Program, row: usize) -> String {
    let mut fields = match &p.named {
        Some((name, len)) => vec![
            ("program", Json::Str(name.clone())),
            ("trace_len", Json::Num(*len as f64)),
        ],
        None => {
            let rows = (0..p.features.rows)
                .map(|i| {
                    Json::Arr(
                        p.features
                            .row(i)
                            .iter()
                            .map(|&v| Json::Num(f64::from(v)))
                            .collect(),
                    )
                })
                .collect();
            vec![("features", Json::Arr(rows))]
        }
    };
    fields.push(("march_index", Json::Num(row as f64)));
    perfvec_json::obj(fields).to_string()
}

/// What one phase run measured.
#[derive(Default)]
pub struct Outcome {
    /// Client-side latency of every miss and every hit, ms.
    pub miss_ms: Vec<f64>,
    pub hit_ms: Vec<f64>,
    /// Completed predictions and the loop wall time they took.
    pub completed: u64,
    pub loop_s: f64,
    pub sessions: u64,
    pub failed: u64,
    /// Engine counters summed over sessions.
    pub batches: u64,
    pub batched_jobs: u64,
    pub rep_hits: u64,
    pub rep_misses: u64,
    pub shed: u64,
    pub body_bytes: u64,
    pub requests: u64,
}

/// One connection's view of a session.
struct ConnRun {
    start: Instant,
    end: Instant,
    miss_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    failures: Vec<String>,
}

/// The phase's state across its sessions.
pub struct Serve<'a> {
    tr: &'a Tracer,
    setup: &'a mut Setup,
    out: Outcome,
}

impl<'a> Serve<'a> {
    pub fn new(tr: &'a Tracer, setup: &'a mut Setup) -> Self {
        Serve {
            tr,
            setup,
            out: Outcome::default(),
        }
    }

    /// One session: a fresh server answers the whole plan.
    pub fn step(&mut self, gates: &mut Gates) -> Result<(), String> {
        let (tr, out) = (self.tr, &mut self.out);
        let server = match self.setup.server.take() {
            Some(s) => s,
            None => start_server(load_registry(tr, &self.setup.ckpt)?)?,
        };
        let setup = &mut *self.setup;
        let orders: Vec<Vec<&Request>> = setup
            .plan
            .iter()
            .map(|asks| session_order(asks, &mut setup.order))
            .collect();
        let runs = session(tr, server.addr, &orders)?;
        let stats = server.engine().stats();
        server.shutdown();
        out.sessions += 1;
        out.batches += stats.batcher.batches;
        out.batched_jobs += stats.batcher.jobs;
        out.rep_hits += stats.cache.hits;
        out.rep_misses += stats.cache.misses;
        out.shed += stats.batcher.shed;
        let first = runs.iter().map(|r| r.start).min().expect("connections");
        let last = runs.iter().map(|r| r.end).max().expect("connections");
        out.loop_s += (last - first).as_secs_f64();
        for r in runs {
            let answered = (r.miss_ms.len() + r.hit_ms.len()) as u64;
            out.completed += answered;
            gates.attempted += answered;
            out.miss_ms.extend(r.miss_ms);
            out.hit_ms.extend(r.hit_ms);
            out.failed += r.failures.len() as u64;
            for f in r.failures {
                gates.check(false, || f);
            }
        }
        Ok(())
    }

    /// Count the plan's size and, traced, replay it stage by stage.
    pub fn finish(mut self, gates: &mut Gates) -> Result<Outcome, String> {
        for r in self.setup.plan.iter().flatten().flatten() {
            self.out.requests += 1;
            self.out.body_bytes += r.body.len() as u64;
        }
        if self.tr.on() {
            replay(self.tr, self.setup, gates)?;
        }
        Ok(self.out)
    }
}

/// One session's request order on one connection: a seeded interleaving
/// of the connection's programs in which each program's miss comes
/// first. Every session draws a new interleaving, so the two clients'
/// misses overlap differently from session to session instead of
/// locking into one pattern for a whole run.
fn session_order<'p>(asks: &'p [Vec<Request>], rng: &mut Rng) -> Vec<&'p Request> {
    let mut tokens: Vec<usize> = asks
        .iter()
        .enumerate()
        .flat_map(|(k, a)| std::iter::repeat_n(k, a.len()))
        .collect();
    rng.shuffle(&mut tokens);
    let mut next = vec![0; asks.len()];
    tokens
        .into_iter()
        .map(|k| {
            next[k] += 1;
            &asks[k][next[k] - 1]
        })
        .collect()
}

/// One closed-loop session: every connection sends its requests in
/// order, each after the previous reply.
fn session(tr: &Tracer, addr: SocketAddr, plan: &[Vec<&Request>]) -> Result<Vec<ConnRun>, String> {
    let barrier = Barrier::new(plan.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .iter()
            .map(|reqs| {
                let barrier = &barrier;
                s.spawn(move || drive(tr, addr, reqs, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn drive(
    tr: &Tracer,
    addr: SocketAddr,
    reqs: &[&Request],
    barrier: &Barrier,
) -> Result<ConnRun, String> {
    let connected = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"));
    // Every thread reaches the barrier, even one that failed to connect.
    let mut stream = match connected {
        Ok(mut s) => {
            // The first request on a connection waits for the accept loop;
            // a health check absorbs that before the clock starts.
            let warm = roundtrip(&mut s, "GET", "/healthz", "");
            barrier.wait();
            warm.map_err(|e| format!("healthz: {e}"))?;
            s
        }
        Err(e) => {
            barrier.wait();
            return Err(e);
        }
    };
    let mut run = ConnRun {
        start: Instant::now(),
        end: Instant::now(),
        miss_ms: Vec::new(),
        hit_ms: Vec::new(),
        failures: Vec::new(),
    };
    for r in reqs {
        let t0 = Instant::now();
        let reply = roundtrip(&mut stream, "POST", "/v1/predict", &r.body);
        let t1 = Instant::now();
        tr.record("serve.request", None, Some(r.id), t0, t1);
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        match reply {
            Ok((200, json)) => {
                let hit = json.get("cache_hit").and_then(Json::as_bool);
                let bits = json.get("predicted_bits").and_then(Json::as_str);
                if hit == Some(r.hit) && bits == Some(r.expect_bits.as_str()) {
                    if r.hit {
                        run.hit_ms.push(ms);
                    } else {
                        run.miss_ms.push(ms);
                    }
                } else {
                    run.failures.push(format!(
                        "request {}: cache_hit {hit:?} (planned {}), bits {bits:?} (offline {})",
                        r.id, r.hit, r.expect_bits
                    ));
                }
            }
            Ok((status, json)) => run
                .failures
                .push(format!("request {}: status {status}: {json}", r.id)),
            Err(e) => return Err(format!("request {}: {e}", r.id)),
        }
    }
    run.end = Instant::now();
    Ok(run)
}

/// Traced only: replay the plan once in process, one span per server
/// stage, each carrying the request's id. The server's own stages are
/// not visible from outside, so they are timed by calling the same
/// public functions the server calls, on a fresh engine.
fn replay(tr: &Tracer, setup: &Setup, gates: &mut Gates) -> Result<(), String> {
    let server = start_server(load_registry(tr, &setup.ckpt)?)?;
    let engine = Arc::clone(server.engine());
    for r in setup.plan.iter().flatten().flatten() {
        let req = Some(r.id);
        let json = tr
            .span("json.parse", None, req, |_| Json::parse(&r.body))
            .map_err(|e| format!("request {}: {e}", r.id))?;
        let parsed = tr
            .span("serve.protocol", None, req, |_| {
                parse_predict_request(&json)
            })
            .map_err(|e| format!("request {}: {e}", r.id))?;
        let row = match parsed.march {
            MarchSelector::Index(i) => i,
            MarchSelector::Config(_) => unreachable!("the plan addresses rows by index"),
        };
        let features = match parsed.source {
            ProgramSource::Inline(m) => Arc::new(m),
            ProgramSource::Named { name, trace_len } if !r.hit => Arc::new(
                tr.span("serve.feature_resolve", None, req, |_| {
                    named_workload_features(&name, trace_len)
                })
                .expect("builtin names resolve"),
            ),
            ProgramSource::Named { .. } => Arc::clone(&setup.programs[r.program].features),
        };
        let stage = if r.hit {
            "serve.engine_hit"
        } else {
            "serve.engine_miss"
        };
        let outcome = tr
            .span(stage, None, req, |_| {
                engine.predict(None, Arc::clone(&features), row, false)
            })
            .map_err(|e| format!("request {}: {e}", r.id))?;
        if !r.hit {
            tr.span("compose.coalesced", None, req, |_| {
                program_representations_coalesced(
                    &setup.foundation,
                    &[features.as_ref()],
                    ENGINE.batch,
                )
            });
        }
        gates.check(
            outcome.cache_hit == r.hit && f64_bits_hex(outcome.prediction_tenths) == r.expect_bits,
            || {
                format!(
                    "replayed request {} disagrees with the offline answer",
                    r.id
                )
            },
        );
    }
    drop(engine);
    server.shutdown();
    Ok(())
}

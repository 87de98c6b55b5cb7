//! The HTTP shell around [`PredictEngine`]: a `std::net` accept loop,
//! per-connection keep-alive handler threads, and the JSON API routes.
//!
//! | Route              | Meaning                                        |
//! |--------------------|------------------------------------------------|
//! | `GET /healthz`     | liveness + model names                         |
//! | `GET /v1/models`   | per-model architecture/table details           |
//! | `GET /v1/stats`    | request, batch, and cache counters             |
//! | `GET /metrics`     | Prometheus text exposition (version 0.0.4)     |
//! | `POST /v1/predict` | program features + march → predicted time      |

use crate::cache::BoundedCache;
use crate::engine::{EngineConfig, EngineError, PredictEngine};
use crate::http::{read_request, write_response, Request};
use crate::json::{obj, Json};
use crate::protocol::{
    f64_bits_hex, parse_predict_request, MarchSelector, PredictRequest, ProgramSource,
};
use crate::registry::ModelRegistry;
use perfvec_obs::{Counter, Histogram, Registry as ObsRegistry};
use perfvec_trace::features::{extract_features, FeatureMask, Matrix};
use perfvec_trace::fingerprint::Fingerprint;
use perfvec_workloads::by_name;
use std::io::{self, BufReader, BufWriter};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration (engine sizing + the listen address).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Listen address. Defaults to loopback — exposing the server
    /// beyond the local machine is an explicit decision
    /// (`--host 0.0.0.0` / `PERFVEC_SERVE_HOST`).
    pub host: IpAddr,
    /// TCP port (0 = ephemeral, the bound port is in
    /// [`ServerHandle::addr`]).
    pub port: u16,
    /// Engine sizing.
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            host: IpAddr::V4(Ipv4Addr::LOCALHOST),
            port: 7411,
            engine: EngineConfig::default(),
        }
    }
}

/// A running server; dropping it (or calling
/// [`ServerHandle::shutdown`]) stops the accept loop and joins the
/// worker pool.
pub struct ServerHandle {
    /// The bound address.
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    shared: Arc<ServerShared>,
}

/// Everything a connection handler needs: the engine plus the named-
/// workload feature cache (repeated named queries skip re-tracing, so a
/// representation-cache hit really is O(1) end to end).
pub struct ServerShared {
    engine: Arc<PredictEngine>,
    features: BoundedCache<Matrix>,
    routes: RouteObs,
}

/// Routes that get their own `route` label on the HTTP metric
/// families; anything else folds into `"other"` so unknown paths
/// cannot inflate series cardinality.
const LABELED_ROUTES: [&str; 5] = [
    "/healthz",
    "/v1/models",
    "/v1/stats",
    "/v1/predict",
    "/metrics",
];

/// Per-route request counter + latency histogram, pre-registered at
/// startup so the request path never takes the registry lock.
struct RouteObs {
    series: Vec<(&'static str, Arc<Counter>, Arc<Histogram>)>,
}

impl RouteObs {
    fn new(obs: &ObsRegistry) -> RouteObs {
        let mut series = Vec::new();
        for route in LABELED_ROUTES.into_iter().chain(["other"]) {
            series.push((
                route,
                obs.counter(
                    "perfvec_http_requests_total",
                    "HTTP requests handled, by route",
                    &[("route", route)],
                ),
                obs.histogram(
                    "perfvec_http_request_duration_us",
                    "HTTP request handling latency in microseconds, by route",
                    &[("route", route)],
                ),
            ));
        }
        RouteObs { series }
    }

    fn observe(&self, path: &str, micros: u64) {
        let label = if LABELED_ROUTES.contains(&path) {
            path
        } else {
            "other"
        };
        if let Some((_, reqs, lat)) = self.series.iter().find(|(r, ..)| *r == label) {
            reqs.inc();
            lat.record(micros);
        }
    }
}

impl ServerShared {
    /// The prediction engine.
    pub fn engine(&self) -> &Arc<PredictEngine> {
        &self.engine
    }
}

impl ServerHandle {
    /// Stop accepting connections and join the accept loop. In-flight
    /// connection handlers finish their current request and exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// The engine (for in-process clients and stats).
    pub fn engine(&self) -> &Arc<PredictEngine> {
        &self.shared.engine
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Bind, spin up the engine worker pool, and start accepting.
pub fn start(registry: ModelRegistry, cfg: ServerConfig) -> io::Result<ServerHandle> {
    let engine = Arc::new(PredictEngine::new(Arc::new(registry), cfg.engine));
    let routes = RouteObs::new(engine.obs());
    let shared = Arc::new(ServerShared {
        engine,
        features: BoundedCache::new(64),
        routes,
    });
    let listener = TcpListener::bind((cfg.host, cfg.port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::spawn(move || {
        while !accept_stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&accept_shared);
                    let stop = Arc::clone(&accept_stop);
                    std::thread::spawn(move || {
                        let _ = handle_connection(stream, &shared, &stop);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => break,
            }
        }
    });
    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
        shared,
    })
}

fn handle_connection(
    stream: TcpStream,
    shared: &Arc<ServerShared>,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    // Responses are small and written whole; Nagle + delayed-ACK
    // interplay would otherwise add ~40 ms stalls per request.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let req = match read_request(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => return Ok(()), // client closed
            // Only genuinely malformed input earns a 400. Transport
            // conditions — the idle keep-alive read timeout
            // (WouldBlock/TimedOut), resets — close silently: an
            // unsolicited error response would be read by the client
            // as the answer to its *next* pipelined request.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let body = error_json(&e.to_string());
                let _ =
                    write_response(&mut writer, 400, "application/json", body.as_bytes(), false);
                return Ok(());
            }
            Err(_) => return Ok(()),
        };
        let close = req.wants_close();
        let started = std::time::Instant::now();
        let (status, body, content_type) = route(&req, shared);
        shared
            .routes
            .observe(&req.path, started.elapsed().as_micros() as u64);
        write_response(&mut writer, status, content_type, body.as_bytes(), !close)?;
        if close {
            return Ok(());
        }
    }
}

fn error_json(msg: &str) -> String {
    obj(vec![("error", Json::Str(msg.to_string()))]).to_string()
}

const JSON_TYPE: &str = "application/json";

fn route(req: &Request, shared: &Arc<ServerShared>) -> (u16, String, &'static str) {
    let engine = &shared.engine;
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, healthz(engine), JSON_TYPE),
        ("GET", "/v1/models") => (200, models_json(engine), JSON_TYPE),
        ("GET", "/v1/stats") => (200, stats_json(engine), JSON_TYPE),
        ("GET", "/metrics") => (200, engine.obs().render(), perfvec_obs::prom::CONTENT_TYPE),
        ("POST", "/v1/predict") => {
            let (status, body) = predict_route(req, shared);
            (status, body, JSON_TYPE)
        }
        ("GET", "/v1/predict") => (405, error_json("use POST for /v1/predict"), JSON_TYPE),
        _ => (404, error_json("no such route"), JSON_TYPE),
    }
}

fn healthz(engine: &Arc<PredictEngine>) -> String {
    let names: Vec<Json> = engine
        .registry()
        .models()
        .iter()
        .map(|m| Json::Str(m.name.clone()))
        .collect();
    obj(vec![
        ("status", Json::Str("ok".into())),
        ("models", Json::Arr(names)),
    ])
    .to_string()
}

fn models_json(engine: &Arc<PredictEngine>) -> String {
    let models: Vec<Json> = engine
        .registry()
        .models()
        .iter()
        .map(|m| {
            obj(vec![
                ("name", Json::Str(m.name.clone())),
                ("arch", Json::Str(m.foundation.describe())),
                ("dim", Json::Num(m.foundation.dim() as f64)),
                ("context", Json::Num(m.foundation.context as f64)),
                ("marches", Json::Num(m.table.k as f64)),
                (
                    "march_configs_resolvable",
                    Json::Bool(!m.march_rows.is_empty()),
                ),
                ("params", Json::Num(m.foundation.model.num_params() as f64)),
            ])
        })
        .collect();
    obj(vec![("models", Json::Arr(models))]).to_string()
}

fn stats_json(engine: &Arc<PredictEngine>) -> String {
    let s = engine.stats();
    let mean_batch = if s.batcher.batches > 0 {
        s.batcher.jobs as f64 / s.batcher.batches as f64
    } else {
        0.0
    };
    let per_model: Vec<(&str, Json)> = s
        .per_model
        .iter()
        .map(|(name, n)| (name.as_str(), Json::Num(*n as f64)))
        .collect();
    // New fields append after the original eight: the CI probe and any
    // existing scraper read those by position/name unchanged.
    obj(vec![
        ("requests", Json::Num(s.requests as f64)),
        ("batches", Json::Num(s.batcher.batches as f64)),
        ("batched_jobs", Json::Num(s.batcher.jobs as f64)),
        ("mean_batch", Json::Num(mean_batch)),
        ("max_batch", Json::Num(s.batcher.max_batch as f64)),
        ("cache_hits", Json::Num(s.cache.hits as f64)),
        ("cache_misses", Json::Num(s.cache.misses as f64)),
        ("cache_entries", Json::Num(s.cache.entries as f64)),
        ("shed", Json::Num(s.batcher.shed as f64)),
        ("failed_batches", Json::Num(s.batcher.failed as f64)),
        ("queue_depth", Json::Num(s.batcher.queue_depth as f64)),
        ("uptime_secs", Json::Num(s.uptime_secs)),
        ("per_model", obj(per_model)),
    ])
    .to_string()
}

fn predict_route(req: &Request, shared: &Arc<ServerShared>) -> (u16, String) {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return (400, error_json("body is not valid utf-8")),
    };
    let body = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return (400, error_json(&format!("invalid json: {e}"))),
    };
    let parsed = match parse_predict_request(&body) {
        Ok(p) => p,
        Err(e) => return (400, error_json(&e)),
    };
    match answer_predict(shared, parsed) {
        Ok(json) => (200, json),
        Err((status, msg)) => (status, error_json(&msg)),
    }
}

/// Resolve sources/selectors and answer through the engine. Public so
/// in-process clients (tests, the load generator) can bypass HTTP.
pub fn answer_predict(
    shared: &Arc<ServerShared>,
    parsed: PredictRequest,
) -> Result<String, (u16, String)> {
    let engine = &shared.engine;
    let model = engine
        .registry()
        .get(parsed.model.as_deref())
        .ok_or_else(|| {
            (
                404,
                format!(
                    "unknown model {:?}",
                    parsed.model.as_deref().unwrap_or("<default>")
                ),
            )
        })?;
    let model_name = model.name.clone();
    let march_row = match &parsed.march {
        MarchSelector::Index(i) => *i,
        MarchSelector::Config(c) => model.row_for_config(c).ok_or((
            404,
            "march configuration not in this model's training population (use march_index \
             for fine-tuned or unknown machines)"
                .to_string(),
        ))?,
    };
    let (features, program) = match parsed.source {
        ProgramSource::Inline(m) => (Arc::new(m), None),
        ProgramSource::Named { name, trace_len } => {
            let workload =
                by_name(&name).ok_or_else(|| (404, format!("unknown workload {name:?}")))?;
            let key = named_features_key(&workload.name, trace_len);
            let cached = if parsed.no_cache {
                None
            } else {
                shared.features.get(key)
            };
            let features = match cached {
                Some(f) => f,
                None => {
                    let trace = workload.trace(trace_len);
                    let f = Arc::new(extract_features(&trace, FeatureMask::Full));
                    if !parsed.no_cache {
                        shared.features.insert(key, Arc::clone(&f));
                    }
                    f
                }
            };
            (features, Some((workload.name.to_string(), trace_len)))
        }
    };
    let rows = features.rows;
    let outcome = engine
        .predict(Some(&model_name), features, march_row, parsed.no_cache)
        .map_err(|e| match e {
            EngineError::Overloaded(se) => (503, se.to_string()),
            EngineError::UnknownModel(_) => (404, e.to_string()),
            EngineError::UnknownMarch(_) => (404, e.to_string()),
            EngineError::BadFeatures(_) => (400, e.to_string()),
            EngineError::NonFinite(_) => (422, e.to_string()),
            EngineError::Internal(_) => (500, e.to_string()),
        })?;
    let mut fields = vec![
        ("model", Json::Str(model_name)),
        ("march_index", Json::Num(march_row as f64)),
        ("instructions", Json::Num(rows as f64)),
        (
            "predicted_total_tenths_ns",
            Json::Num(outcome.prediction_tenths),
        ),
        (
            "predicted_bits",
            Json::Str(f64_bits_hex(outcome.prediction_tenths)),
        ),
        ("cache_hit", Json::Bool(outcome.cache_hit)),
        ("coalesced", Json::Num(outcome.coalesced as f64)),
    ];
    if let Some((name, trace_len)) = program {
        fields.insert(1, ("program", Json::Str(name)));
        fields.insert(2, ("trace_len", Json::Num(trace_len as f64)));
    }
    Ok(obj(fields).to_string())
}

fn named_features_key(name: &str, trace_len: u64) -> u64 {
    let mut h = Fingerprint::new();
    h.push_str("serve-feat");
    h.push_u32(1);
    h.push_str(name);
    h.push_u64(trace_len);
    h.finish()
}

/// Resolve a [`Matrix`] for a named suite workload (shared by clients
/// that want the offline comparison path).
pub fn named_workload_features(name: &str, trace_len: u64) -> Option<Matrix> {
    let w = by_name(name)?;
    Some(extract_features(&w.trace(trace_len), FeatureMask::Full))
}

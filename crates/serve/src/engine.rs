//! The prediction engine: registry + representation cache + the
//! micro-batching worker pool, independent of HTTP (the server is a
//! thin shell over this; tests and the load generator drive it
//! directly).
//!
//! ## Correctness contract
//!
//! A served prediction is **bit-identical** to the offline path
//! (`perfvec::program_representation` + `perfvec::predict`): batched
//! window forwards are bit-identical per sequence (see
//! `SeqModel::forward_windows`), and per-request sums replay the offline
//! chunk structure exactly (see [`perfvec::compose::SUM_CHUNK`]), so
//! neither the batch size, nor which requests happen to be coalesced
//! together, nor worker scheduling can change any result.

use crate::batcher::{BatchError, Batcher, BatcherConfig, BatcherObs, BatcherStats, SubmitError};
use crate::cache::{CacheStats, RepCache};
use crate::registry::{LoadedModel, ModelRegistry};
use perfvec::compose::program_representations_coalesced;
use perfvec::predict_total_tenths;
use perfvec_obs::{Counter, Histogram, Registry as ObsRegistry};
use perfvec_trace::features::Matrix;
use perfvec_trace::NUM_FEATURES;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Engine sizing (see [`BatcherConfig`] for queue semantics).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Max requests coalesced into one batched forward pass; also the
    /// window block size of that pass. `1` reproduces unbatched serving
    /// (the scalar `forward` path) exactly.
    pub batch: usize,
    /// Bounded queue depth (requests beyond it are shed with 503).
    pub queue_depth: usize,
    /// Worker threads.
    pub workers: usize,
    /// Representation-cache capacity in entries (0 disables).
    pub cache_entries: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            batch: 16,
            queue_depth: 256,
            workers: 2,
            cache_entries: 1024,
        }
    }
}

/// One answered prediction.
#[derive(Debug, Clone)]
pub struct PredictOutcome {
    /// Predicted total execution time in 0.1 ns units.
    pub prediction_tenths: f64,
    /// Whether the representation came from the cache.
    pub cache_hit: bool,
    /// Requests coalesced into the batch that computed the
    /// representation (0 for cache hits).
    pub coalesced: usize,
}

/// Request-level failures (the server maps these to HTTP statuses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// No such model.
    UnknownModel(String),
    /// March index out of range or unknown march configuration.
    UnknownMarch(String),
    /// Feature matrix malformed.
    BadFeatures(String),
    /// The prediction came out NaN or infinite (finite inputs whose
    /// representation or dot product with the machine row overflowed).
    NonFinite(String),
    /// Queue full / shutting down.
    Overloaded(SubmitError),
    /// The batch that carried the request failed (the server's fault).
    Internal(BatchError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownModel(m) => write!(f, "unknown model {m:?}"),
            EngineError::UnknownMarch(m) => write!(f, "{m}"),
            EngineError::BadFeatures(m) => write!(f, "{m}"),
            EngineError::NonFinite(m) => write!(f, "{m}"),
            EngineError::Overloaded(e) => write!(f, "{e}"),
            EngineError::Internal(e) => write!(f, "internal error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

struct RepJob {
    features: Arc<Matrix>,
    fingerprint: u64,
    cache: bool,
}

struct RepResult {
    rep: Arc<Vec<f32>>,
    coalesced: usize,
}

/// Aggregate serving counters.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Predictions answered.
    pub requests: u64,
    /// Batcher counters.
    pub batcher: BatcherStats,
    /// Representation-cache counters.
    pub cache: CacheStats,
    /// Seconds since the engine was constructed.
    pub uptime_secs: f64,
    /// Predictions answered per model, in registry order.
    pub per_model: Vec<(String, u64)>,
}

/// Per-model observability instruments, pre-registered at startup so
/// the predict hot path never touches the registry lock.
struct ModelObs {
    name: String,
    requests: Arc<Counter>,
    latency_us: Arc<Histogram>,
}

/// The engine. Cheap to share (`Arc` it); drop joins the worker pool.
pub struct PredictEngine {
    registry: Arc<ModelRegistry>,
    batcher: Batcher<String, RepJob, RepResult>,
    cache: Arc<RepCache>,
    requests: AtomicU64,
    started: Instant,
    obs: Arc<ObsRegistry>,
    model_obs: Vec<ModelObs>,
}

impl PredictEngine {
    /// Spin up the worker pool over a registry.
    pub fn new(registry: Arc<ModelRegistry>, cfg: EngineConfig) -> PredictEngine {
        let cache = Arc::new(RepCache::new(cfg.cache_entries));
        let batcher_cfg = BatcherConfig {
            batch: cfg.batch,
            queue_depth: cfg.queue_depth,
            workers: cfg.workers,
        };
        let obs = Arc::new(ObsRegistry::new());
        let batcher_obs = BatcherObs {
            queue_depth: obs.gauge(
                "perfvec_queue_depth",
                "Requests queued in the micro-batcher, not yet draining",
                &[],
            ),
            shed: obs.counter(
                "perfvec_shed_total",
                "Requests rejected because the bounded queue was full",
                &[],
            ),
            batch_size: obs.histogram(
                "perfvec_batch_size",
                "Coalesced jobs per executor invocation",
                &[],
            ),
            failed: obs.counter(
                "perfvec_engine_panics_total",
                "Batched forward passes that panicked or returned the wrong number of results",
                &[],
            ),
        };
        let model_obs = registry
            .models()
            .iter()
            .map(|m| ModelObs {
                name: m.name.clone(),
                requests: obs.counter(
                    "perfvec_engine_requests_total",
                    "Predictions answered by the engine",
                    &[("model", &m.name)],
                ),
                latency_us: obs.histogram(
                    "perfvec_engine_predict_duration_us",
                    "End-to-end engine predict latency in microseconds",
                    &[("model", &m.name)],
                ),
            })
            .collect();
        let exec_registry = Arc::clone(&registry);
        let exec_cache = Arc::clone(&cache);
        let block = cfg.batch;
        let exec = move |model: &String, jobs: Vec<RepJob>| {
            let m = exec_registry
                .get(Some(model))
                .expect("jobs are only submitted for registered models");
            let coalesced = jobs.len();
            let matrices: Vec<&Matrix> = jobs.iter().map(|j| j.features.as_ref()).collect();
            let reps = program_representations_coalesced(&m.foundation, &matrices, block);
            jobs.iter()
                .zip(reps)
                .map(|(job, rep)| {
                    let rep = Arc::new(rep);
                    if job.cache {
                        exec_cache.insert(job.fingerprint, Arc::clone(&rep));
                    }
                    RepResult { rep, coalesced }
                })
                .collect()
        };
        let batcher = Batcher::with_obs(batcher_cfg, batcher_obs, exec);
        PredictEngine {
            registry,
            batcher,
            cache,
            requests: AtomicU64::new(0),
            started: Instant::now(),
            obs,
            model_obs,
        }
    }

    /// The registry being served.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The engine's observability registry: batcher, per-model, and —
    /// for instruments registered by the server shell — per-route
    /// metric families. Rendered by `GET /metrics`.
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.obs
    }

    /// Answer one prediction: program features against table row
    /// `march_row` of `model`.
    pub fn predict(
        &self,
        model: Option<&str>,
        features: Arc<Matrix>,
        march_row: usize,
        no_cache: bool,
    ) -> Result<PredictOutcome, EngineError> {
        let m = self
            .registry
            .get(model)
            .ok_or_else(|| EngineError::UnknownModel(model.unwrap_or("<default>").into()))?;
        if march_row >= m.table.k {
            return Err(EngineError::UnknownMarch(format!(
                "march_index {march_row} out of range (table has {} rows)",
                m.table.k
            )));
        }
        if features.cols != NUM_FEATURES {
            return Err(EngineError::BadFeatures(format!(
                "feature matrix has {} columns; expected {NUM_FEATURES}",
                features.cols
            )));
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let mobs = self.model_obs.iter().find(|o| o.name == m.name);
        if let Some(o) = mobs {
            o.requests.inc();
        }
        let fp = crate::protocol::features_fingerprint(&m.name, &features);
        if !no_cache {
            if let Some(rep) = self.cache.get(fp) {
                let outcome = make_outcome(m, &rep, march_row, true, 0);
                if let Some(o) = mobs {
                    o.latency_us.record(started.elapsed().as_micros() as u64);
                }
                return outcome;
            }
        }
        let job = RepJob {
            features,
            fingerprint: fp,
            cache: !no_cache,
        };
        let ticket = self
            .batcher
            .submit(m.name.clone(), job)
            .map_err(EngineError::Overloaded)?;
        let result = ticket.wait().map_err(EngineError::Internal)?;
        if let Some(o) = mobs {
            o.latency_us.record(started.elapsed().as_micros() as u64);
        }
        make_outcome(m, &result.rep, march_row, false, result.coalesced)
    }

    /// Counters snapshot.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            requests: self.requests.load(Ordering::Relaxed),
            batcher: self.batcher.stats(),
            cache: self.cache.stats(),
            uptime_secs: self.started.elapsed().as_secs_f64(),
            per_model: self
                .model_obs
                .iter()
                .map(|o| (o.name.clone(), o.requests.get()))
                .collect(),
        }
    }
}

fn make_outcome(
    m: &LoadedModel,
    rep: &[f32],
    march_row: usize,
    cache_hit: bool,
    coalesced: usize,
) -> Result<PredictOutcome, EngineError> {
    let prediction_tenths =
        predict_total_tenths(rep, m.table.rep(march_row), m.foundation.target_scale);
    if !prediction_tenths.is_finite() {
        return Err(EngineError::NonFinite(format!(
            "prediction for march_index {march_row} is not finite ({prediction_tenths})"
        )));
    }
    Ok(PredictOutcome {
        prediction_tenths,
        cache_hit,
        coalesced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::LoadedModel;
    use perfvec::foundation::{ArchKind, ArchSpec, Foundation};
    use perfvec::{program_representation, MarchTable};

    fn toy_features(n: usize, salt: u32) -> Matrix {
        let mut m = Matrix::zeros(n, NUM_FEATURES);
        for i in 0..n {
            m.row_mut(i)[(i + salt as usize) % 11] = 1.0;
            m.row_mut(i)[45] = ((i as f32 + salt as f32) * 0.013).fract();
        }
        m
    }

    fn toy_engine(cfg: EngineConfig) -> PredictEngine {
        let spec = ArchSpec {
            kind: ArchKind::Lstm,
            layers: 2,
            dim: 8,
        };
        let model = LoadedModel::from_parts(
            "default",
            Foundation::new(spec, 3, 0.1, 42),
            spec,
            MarchTable::new(5, 8, 7),
            0,
        );
        PredictEngine::new(Arc::new(ModelRegistry::new(vec![model]).unwrap()), cfg)
    }

    fn offline(engine: &PredictEngine, feats: &Matrix, row: usize) -> f64 {
        let m = engine.registry().get(None).unwrap();
        let rep = program_representation(&m.foundation, feats);
        predict_total_tenths(&rep, m.table.rep(row), m.foundation.target_scale)
    }

    #[test]
    fn concurrent_predictions_match_offline_bits() {
        let engine = Arc::new(toy_engine(EngineConfig {
            batch: 8,
            queue_depth: 128,
            workers: 2,
            cache_entries: 0,
        }));
        let handles: Vec<_> = (0..12u32)
            .map(|i| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let feats = Arc::new(toy_features(30 + i as usize, i));
                    let row = (i as usize) % 5;
                    let got = engine
                        .predict(None, Arc::clone(&feats), row, false)
                        .unwrap();
                    (feats, row, got)
                })
            })
            .collect();
        for h in handles {
            let (feats, row, got) = h.join().unwrap();
            let want = offline(&engine, &feats, row);
            assert_eq!(
                got.prediction_tenths.to_bits(),
                want.to_bits(),
                "served {} vs offline {want}",
                got.prediction_tenths
            );
            assert!(!got.cache_hit);
        }
        assert_eq!(engine.stats().requests, 12);
    }

    #[test]
    fn repeated_queries_hit_the_representation_cache() {
        let engine = toy_engine(EngineConfig::default());
        let feats = Arc::new(toy_features(25, 1));
        let cold = engine.predict(None, Arc::clone(&feats), 2, false).unwrap();
        let warm = engine.predict(None, Arc::clone(&feats), 2, false).unwrap();
        assert!(!cold.cache_hit && warm.cache_hit);
        assert_eq!(
            cold.prediction_tenths.to_bits(),
            warm.prediction_tenths.to_bits()
        );
        // A different march against the same program is still a cache
        // hit (the representation is march-independent).
        let other = engine.predict(None, Arc::clone(&feats), 4, false).unwrap();
        assert!(other.cache_hit);
        // no_cache bypasses both read and write.
        let bypass = engine.predict(None, feats, 2, true).unwrap();
        assert!(!bypass.cache_hit);
        assert_eq!(
            bypass.prediction_tenths.to_bits(),
            cold.prediction_tenths.to_bits()
        );
    }

    #[test]
    fn request_validation_errors_are_clean() {
        let engine = toy_engine(EngineConfig::default());
        let feats = Arc::new(toy_features(5, 0));
        assert!(matches!(
            engine.predict(Some("missing"), Arc::clone(&feats), 0, false),
            Err(EngineError::UnknownModel(_))
        ));
        assert!(matches!(
            engine.predict(None, Arc::clone(&feats), 99, false),
            Err(EngineError::UnknownMarch(_))
        ));
        let bad = Arc::new(Matrix::zeros(3, 7));
        assert!(matches!(
            engine.predict(None, bad, 0, false),
            Err(EngineError::BadFeatures(_))
        ));
    }

    #[test]
    fn non_finite_predictions_are_typed_errors() {
        // Finite table rows whose dot product with the representation
        // overflows f32: row 0 matches its signs (+inf), row 1 has
        // ±f32::MAX halves that each overflow (inf - inf = NaN), row 2
        // stays finite.
        let (k, d) = (3, 8);
        let spec = ArchSpec {
            kind: ArchKind::Lstm,
            layers: 1,
            dim: d,
        };
        let foundation = Foundation::new(spec, 3, 0.1, 42);
        let feats = Arc::new(toy_features(40, 3));
        let rep = program_representation(&foundation, &feats);
        let mut rows = vec![0.5f32; k * d];
        for (c, &r) in rep.iter().enumerate() {
            rows[c] = f32::MAX.copysign(r);
            rows[d + c] = if c < d / 2 { rows[c] } else { -rows[c] };
        }
        let half = |cs: std::ops::Range<usize>| rep[cs].iter().map(|v| v.abs()).sum::<f32>();
        assert!(half(0..d / 2) > 1.0 && half(d / 2..d) > 1.0, "{rep:?}");
        let model = LoadedModel::from_parts(
            "default",
            foundation,
            spec,
            MarchTable::from_rows(k, d, rows),
            0,
        );
        let engine = PredictEngine::new(
            Arc::new(ModelRegistry::new(vec![model]).unwrap()),
            EngineConfig::default(),
        );
        for row in [0, 1] {
            // The miss and the cache hit that follows are both checked.
            for _ in 0..2 {
                let got = engine.predict(None, Arc::clone(&feats), row, false);
                assert!(
                    matches!(got, Err(EngineError::NonFinite(_))),
                    "row {row}: {got:?}"
                );
            }
        }
        let ok = engine.predict(None, feats, 2, false).unwrap();
        assert!(ok.cache_hit && ok.prediction_tenths.is_finite());
    }
}

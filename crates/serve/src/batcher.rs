//! The micro-batching engine: a bounded request queue drained by a
//! worker pool that coalesces up to `batch` queued jobs sharing a group
//! key (the target model) into one executor call.
//!
//! The engine is generic over job/result/key types and takes the batch
//! executor as a closure, so correctness properties (any arrival
//! interleaving ≡ sequential serving) can be tested directly against
//! deterministic executors, and the HTTP layer stays a thin shell.
//!
//! A batch whose executor panics, or returns the wrong number of
//! results, fails every ticket in it with a [`BatchError`]; the worker
//! survives and goes on to the next batch.
//!
//! Poisoned locks: a panic elsewhere in a worker (say, in a group key's
//! `PartialEq` while the queue is drained) unwinds with the queue mutex
//! held and poisons it. Every lock and wait recovers the guard
//! (`lock`, `wait`): the queue is only ever changed by whole
//! `push_back`/`pop_front` calls, so it is consistent whatever unwound.
//! A job taken off the queue that never gets a result fails its ticket
//! with [`BatchError::Panicked`] when it is dropped, and the worker
//! survives.

use perfvec_obs::{Counter, Gauge, Histogram};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Lock `m`, recovering the guard if a panic poisoned it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `cv`, recovering the guard if a panic poisoned its mutex.
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Sizing knobs for a [`Batcher`].
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Maximum jobs coalesced into one executor call.
    pub batch: usize,
    /// Maximum queued (not yet draining) jobs; submissions beyond this
    /// are rejected with [`SubmitError::QueueFull`] (load shedding).
    pub queue_depth: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            batch: 16,
            queue_depth: 256,
            workers: 2,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — shed load and retry later.
    QueueFull,
    /// The batcher is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "request queue full"),
            SubmitError::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an accepted job got no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// The executor panicked on the job's batch.
    Panicked,
    /// The executor returned a different number of results than jobs.
    WrongResultCount,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Panicked => write!(f, "batch executor panicked"),
            BatchError::WrongResultCount => {
                write!(f, "batch executor returned the wrong number of results")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// Aggregate counters (all monotonically increasing).
#[derive(Debug, Clone, Copy, Default)]
pub struct BatcherStats {
    /// Executor invocations so far.
    pub batches: u64,
    /// Jobs completed so far.
    pub jobs: u64,
    /// Largest coalesced batch observed.
    pub max_batch: u64,
    /// Submissions rejected with [`SubmitError::QueueFull`].
    pub shed: u64,
    /// Batches that failed (see [`BatchError`]).
    pub failed: u64,
    /// Jobs currently queued (not yet draining).
    pub queue_depth: u64,
}

/// Exported observability instruments for a [`Batcher`]. Pass
/// registry-backed instruments via [`Batcher::with_obs`] to surface
/// queue depth, shed count, and the batch-size distribution on
/// `/metrics`; the default instruments are unregistered (recording
/// still works, nothing renders them).
#[derive(Clone, Default)]
pub struct BatcherObs {
    /// Gauge tracking jobs currently queued.
    pub queue_depth: Arc<Gauge>,
    /// Counter of submissions shed with [`SubmitError::QueueFull`].
    pub shed: Arc<Counter>,
    /// Distribution of coalesced batch sizes.
    pub batch_size: Arc<Histogram>,
    /// Counter of batches whose executor panicked or returned the wrong
    /// number of results, or whose worker panicked draining them.
    pub failed: Arc<Counter>,
}

struct Slot<R> {
    result: Mutex<Option<Result<R, BatchError>>>,
    done: Condvar,
}

impl<R> Slot<R> {
    fn deliver(&self, r: Result<R, BatchError>) {
        *lock(&self.result) = Some(r);
        self.done.notify_all();
    }
}

/// The worker side of a [`Ticket`]: delivers exactly one result, and
/// [`BatchError::Panicked`] if it is dropped without one (a panic
/// unwound the worker that held it).
struct Promise<R>(Option<Arc<Slot<R>>>);

impl<R> Promise<R> {
    fn fulfil(mut self, r: Result<R, BatchError>) {
        if let Some(slot) = self.0.take() {
            slot.deliver(r);
        }
    }
}

impl<R> Drop for Promise<R> {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            slot.deliver(Err(BatchError::Panicked));
        }
    }
}

/// A claim on a submitted job's future result.
pub struct Ticket<R> {
    slot: Arc<Slot<R>>,
}

impl<R> Ticket<R> {
    /// Block until the worker pool delivers this job's result, or the
    /// error that failed its batch.
    pub fn wait(self) -> Result<R, BatchError> {
        let mut guard = lock(&self.slot.result);
        loop {
            if let Some(r) = guard.take() {
                return r;
            }
            guard = wait(&self.slot.done, guard);
        }
    }
}

struct Pending<K, J, R> {
    key: K,
    job: J,
    promise: Promise<R>,
}

struct Shared<K, J, R> {
    state: Mutex<QueueState<K, J, R>>,
    nonempty: Condvar,
    batches: AtomicU64,
    jobs: AtomicU64,
    max_batch: AtomicU64,
    shed: AtomicU64,
    failed: AtomicU64,
    obs: BatcherObs,
}

struct QueueState<K, J, R> {
    queue: VecDeque<Pending<K, J, R>>,
    shutdown: bool,
}

/// The engine itself; dropping it drains and joins the worker pool.
pub struct Batcher<K, J, R> {
    shared: Arc<Shared<K, J, R>>,
    cfg: BatcherConfig,
    workers: Vec<JoinHandle<()>>,
}

impl<K, J, R> Batcher<K, J, R>
where
    K: Eq + Clone + Send + 'static,
    J: Send + 'static,
    R: Send + 'static,
{
    /// Start `cfg.workers` threads around `exec`, which must return one
    /// result per job, in job order. Jobs passed to one `exec` call all
    /// share a group key. A panic in `exec`, or a result count that is
    /// not the job count, fails that batch's tickets with a
    /// [`BatchError`].
    pub fn new<F>(cfg: BatcherConfig, exec: F) -> Batcher<K, J, R>
    where
        F: Fn(&K, Vec<J>) -> Vec<R> + Send + Sync + 'static,
    {
        Self::with_obs(cfg, BatcherObs::default(), exec)
    }

    /// [`Batcher::new`] with registry-backed observability instruments.
    pub fn with_obs<F>(cfg: BatcherConfig, obs: BatcherObs, exec: F) -> Batcher<K, J, R>
    where
        F: Fn(&K, Vec<J>) -> Vec<R> + Send + Sync + 'static,
    {
        assert!(cfg.batch >= 1 && cfg.workers >= 1 && cfg.queue_depth >= 1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            nonempty: Condvar::new(),
            batches: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            obs,
        });
        let exec = Arc::new(exec);
        let workers = (0..cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let exec = Arc::clone(&exec);
                let batch = cfg.batch;
                std::thread::spawn(move || worker_loop(shared, exec, batch))
            })
            .collect();
        Batcher {
            shared,
            cfg,
            workers,
        }
    }

    /// Enqueue a job under a group key; returns a [`Ticket`] to wait on.
    pub fn submit(&self, key: K, job: J) -> Result<Ticket<R>, SubmitError> {
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        {
            let mut st = lock(&self.shared.state);
            if st.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if st.queue.len() >= self.cfg.queue_depth {
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                self.shared.obs.shed.inc();
                return Err(SubmitError::QueueFull);
            }
            st.queue.push_back(Pending {
                key,
                job,
                promise: Promise(Some(Arc::clone(&slot))),
            });
            // set() (not inc/dec) so the gauge self-heals if recording
            // was toggled off and back on mid-flight.
            self.shared.obs.queue_depth.set(st.queue.len() as i64);
        }
        self.shared.nonempty.notify_one();
        Ok(Ticket { slot })
    }

    /// Counters snapshot.
    pub fn stats(&self) -> BatcherStats {
        BatcherStats {
            batches: self.shared.batches.load(Ordering::Relaxed),
            jobs: self.shared.jobs.load(Ordering::Relaxed),
            max_batch: self.shared.max_batch.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            queue_depth: lock(&self.shared.state).queue.len() as u64,
        }
    }
}

impl<K, J, R> Drop for Batcher<K, J, R> {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.nonempty.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop<K, J, R, F>(shared: Arc<Shared<K, J, R>>, exec: Arc<F>, batch: usize)
where
    K: Eq,
    F: Fn(&K, Vec<J>) -> Vec<R>,
{
    loop {
        // A panic outside `exec` (say, in a key's `PartialEq` during the
        // drain) fails the jobs this worker holds, through their
        // promises, and the worker goes on.
        match catch_unwind(AssertUnwindSafe(|| serve_batch(&shared, &*exec, batch))) {
            Ok(true) => {}
            Ok(false) => return,
            Err(_) => {
                shared.failed.fetch_add(1, Ordering::Relaxed);
                shared.obs.failed.inc();
            }
        }
    }
}

/// Drain one batch and run it; `false` once the batcher shuts down with
/// an empty queue.
fn serve_batch<K, J, R, F>(shared: &Shared<K, J, R>, exec: &F, batch: usize) -> bool
where
    K: Eq,
    F: Fn(&K, Vec<J>) -> Vec<R>,
{
    // Drain up to `batch` jobs from the front while they share the
    // front job's key. Stopping at the first key mismatch keeps the
    // lock-held work O(batch) — the common single-model deployment
    // never scans — and keeps dispatch FIFO-fair across models
    // (same-key jobs parked behind another model's job wait for the
    // next drain rather than jumping it). The front job is taken before
    // any key is compared, so every drain makes progress even if
    // comparing keys panics.
    let drained: Vec<Pending<K, J, R>> = {
        let mut st = lock(&shared.state);
        loop {
            if !st.queue.is_empty() {
                break;
            }
            if st.shutdown {
                return false;
            }
            st = wait(&shared.nonempty, st);
        }
        let mut taken = Vec::with_capacity(batch.min(st.queue.len()));
        taken.extend(st.queue.pop_front());
        while taken.len() < batch && st.queue.front().is_some_and(|p| p.key == taken[0].key) {
            taken.extend(st.queue.pop_front());
        }
        shared.obs.queue_depth.set(st.queue.len() as i64);
        taken
    };

    let n = drained.len() as u64;
    let mut key = None;
    let (jobs, promises): (Vec<J>, Vec<Promise<R>>) = drained
        .into_iter()
        .map(|p| {
            key.get_or_insert(p.key);
            (p.job, p.promise)
        })
        .unzip();
    let key = key.expect("a drain takes the front job");
    // `exec` holds none of the batcher's locks, so unwinding out of
    // it leaves the queue and the counters consistent.
    let results = match catch_unwind(AssertUnwindSafe(|| exec(&key, jobs))) {
        Ok(r) if r.len() == promises.len() => Ok(r),
        Ok(_) => Err(BatchError::WrongResultCount),
        Err(_) => Err(BatchError::Panicked),
    };
    // Counters first: a client woken by a delivery below may read
    // stats() immediately, and completed work must already be visible
    // there.
    shared.batches.fetch_add(1, Ordering::Relaxed);
    shared.jobs.fetch_add(n, Ordering::Relaxed);
    shared.max_batch.fetch_max(n, Ordering::Relaxed);
    shared.obs.batch_size.record(n);
    match results {
        Ok(results) => {
            for (promise, r) in promises.into_iter().zip(results) {
                promise.fulfil(Ok(r));
            }
        }
        Err(e) => {
            shared.failed.fetch_add(1, Ordering::Relaxed);
            shared.obs.failed.inc();
            for promise in promises {
                promise.fulfil(Err(e));
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_batcher(cfg: BatcherConfig) -> Batcher<u32, u64, (u64, usize)> {
        // Result carries (job value, size of the batch it rode in) so
        // tests can observe coalescing.
        Batcher::new(cfg, |key, jobs: Vec<u64>| {
            let n = jobs.len();
            jobs.into_iter().map(|j| (j + u64::from(*key), n)).collect()
        })
    }

    #[test]
    fn single_job_round_trips() {
        let b = echo_batcher(BatcherConfig::default());
        let t = b.submit(7, 100).unwrap();
        assert_eq!(t.wait(), Ok((107, 1)));
    }

    #[test]
    fn many_jobs_all_complete_with_correct_results() {
        let b = Arc::new(echo_batcher(BatcherConfig {
            batch: 4,
            queue_depth: 1024,
            workers: 3,
        }));
        let handles: Vec<_> = (0..8)
            .map(|thread| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    (0..50u64)
                        .map(|i| {
                            let v = thread * 1000 + i;
                            (v, b.submit(1, v).unwrap().wait().unwrap().0)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (v, got) in h.join().unwrap() {
                assert_eq!(got, v + 1);
            }
        }
        let stats = b.stats();
        assert_eq!(stats.jobs, 400);
        assert!(stats.max_batch <= 4);
    }

    #[test]
    fn coalescing_respects_group_keys() {
        // Two keys interleaved: every executed batch must be
        // key-homogeneous, which the executor encodes into results.
        let b = Arc::new(echo_batcher(BatcherConfig {
            batch: 8,
            queue_depth: 1024,
            workers: 1,
        }));
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let key = (i % 2) as u32;
                    let t = b.submit(key, 10 + i).unwrap();
                    (key, i, t.wait().unwrap())
                })
            })
            .collect();
        for h in handles {
            let (key, i, (got, _)) = h.join().unwrap();
            assert_eq!(got, 10 + i + u64::from(key));
        }
    }

    #[test]
    fn full_queue_sheds_load() {
        // A blocked worker lets the queue fill: deliberately stall the
        // executor until allowed to proceed.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g2 = Arc::clone(&gate);
        let b: Batcher<u8, u8, u8> = Batcher::new(
            BatcherConfig {
                batch: 1,
                queue_depth: 2,
                workers: 1,
            },
            move |_, jobs| {
                let (lock, cv) = &*g2;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                jobs
            },
        );
        // One job occupies the worker; two fill the queue; the next is shed.
        let t0 = b.submit(0, 0).unwrap();
        // Wait until the worker has drained job 0 from the queue (it
        // then blocks inside the gated executor, holding no lock).
        while !b.shared.state.lock().unwrap().queue.is_empty() {
            std::thread::yield_now();
        }
        let t1 = b.submit(0, 1).unwrap();
        let t2 = b.submit(0, 2).unwrap();
        let shed = b.submit(0, 3);
        assert_eq!(shed.err(), Some(SubmitError::QueueFull));
        assert_eq!(b.stats().shed, 1);
        assert_eq!(b.stats().queue_depth, 2);
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        assert_eq!(t0.wait(), Ok(0));
        assert_eq!(t1.wait(), Ok(1));
        assert_eq!(t2.wait(), Ok(2));
    }

    type Gate = Arc<(Mutex<bool>, Condvar)>;

    /// A one-worker batcher whose executor waits at a gate, so jobs
    /// queued meanwhile drain as one batch once the gate opens.
    fn gated_batcher<F>(exec: F) -> (Batcher<u8, u32, u32>, Gate)
    where
        F: Fn(Vec<u32>) -> Vec<u32> + Send + Sync + 'static,
    {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g2 = Arc::clone(&gate);
        let b = Batcher::new(
            BatcherConfig {
                batch: 8,
                queue_depth: 64,
                workers: 1,
            },
            move |_, jobs| {
                let (lock, cv) = &*g2;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                drop(open);
                exec(jobs)
            },
        );
        (b, gate)
    }

    fn open(gate: &(Mutex<bool>, Condvar)) {
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
    }

    #[test]
    fn a_panicking_executor_fails_its_batch_and_the_worker_serves_on() {
        let (b, gate) = gated_batcher(|jobs| {
            assert!(!jobs.contains(&13), "injected executor panic");
            jobs.into_iter().map(|j| j * 2).collect()
        });
        // Job 0 occupies the worker at the gate; 1, 13 and 2 queue up
        // behind it and drain as one batch, which panics on 13.
        let t0 = b.submit(0, 0).unwrap();
        while !b.shared.state.lock().unwrap().queue.is_empty() {
            std::thread::yield_now();
        }
        let bad: Vec<_> = [1, 13, 2].map(|j| b.submit(0, j).unwrap()).into();
        open(&gate);
        assert_eq!(t0.wait(), Ok(0));
        for t in bad {
            assert_eq!(t.wait(), Err(BatchError::Panicked));
        }
        // Same single worker, next batch: served normally.
        assert_eq!(b.submit(0, 21).unwrap().wait(), Ok(42));
        assert_eq!(b.stats().failed, 1);
    }

    #[test]
    fn a_wrong_result_count_fails_the_batch() {
        let (b, gate) = gated_batcher(|mut jobs| {
            if jobs.len() > 1 {
                jobs.pop();
            }
            jobs
        });
        let t0 = b.submit(0, 5).unwrap();
        while !b.shared.state.lock().unwrap().queue.is_empty() {
            std::thread::yield_now();
        }
        let short: Vec<_> = [6, 7].map(|j| b.submit(0, j).unwrap()).into();
        open(&gate);
        assert_eq!(t0.wait(), Ok(5));
        for t in short {
            assert_eq!(t.wait(), Err(BatchError::WrongResultCount));
        }
        assert_eq!(b.submit(0, 8).unwrap().wait(), Ok(8));
        assert_eq!(b.stats().failed, 1);
    }

    /// A group key whose comparison panics once armed.
    #[derive(Clone)]
    struct TrapKey(Arc<std::sync::atomic::AtomicBool>);

    impl PartialEq for TrapKey {
        fn eq(&self, _: &TrapKey) -> bool {
            assert!(
                !self.0.swap(false, Ordering::SeqCst),
                "injected key comparison panic"
            );
            true
        }
    }

    impl Eq for TrapKey {}

    /// Wait for `t` on another thread, giving up after ten seconds (a
    /// ticket that never resolves fails the test instead of hanging it).
    fn wait_bounded<R: Send + 'static>(t: Ticket<R>) -> Result<R, BatchError> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(t.wait()));
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("ticket never resolved")
    }

    #[test]
    fn a_panicking_key_comparison_fails_only_the_drained_job_and_the_worker_serves_on() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g2 = Arc::clone(&gate);
        let b: Batcher<TrapKey, u32, u32> = Batcher::new(
            BatcherConfig {
                batch: 8,
                queue_depth: 64,
                workers: 1,
            },
            move |_, jobs| {
                let (lock, cv) = &*g2;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                jobs
            },
        );
        let trap = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let key = TrapKey(Arc::clone(&trap));
        // Job 0 occupies the worker at the gate; 1, 2 and 3 queue up.
        let t0 = b.submit(key.clone(), 0).unwrap();
        while !lock(&b.shared.state).queue.is_empty() {
            std::thread::yield_now();
        }
        let queued: Vec<_> = [1, 2, 3].map(|j| b.submit(key.clone(), j).unwrap()).into();
        // The next drain takes job 1, then panics comparing job 2's key
        // with the queue mutex held.
        trap.store(true, Ordering::SeqCst);
        open(&gate);
        assert_eq!(wait_bounded(t0), Ok(0));
        let got: Vec<_> = queued.into_iter().map(wait_bounded).collect();
        assert_eq!(got, [Err(BatchError::Panicked), Ok(2), Ok(3)]);
        // The poisoned queue lock is recovered: the same worker serves on.
        assert_eq!(wait_bounded(b.submit(key, 4).unwrap()), Ok(4));
        let stats = b.stats();
        assert_eq!((stats.failed, stats.jobs), (1, 4));
    }
}

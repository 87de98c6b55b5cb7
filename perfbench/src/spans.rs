//! In-memory span recorder for the traced run.
//!
//! A span is one call the benchmark makes into a layer: its name, start,
//! end, the span that caused it, and — for serve — the request it
//! belongs to. Spans stay in memory and are written out as JSON when the
//! run ends. With tracing off every call is a plain function call.

use perfvec_json::{obj, Json};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as the parent of its children.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<SpanId>,
    req: Option<u64>,
}

/// Where a layer's time went over the whole run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    /// Spans recorded under this name.
    pub count: u64,
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed durations minus the time child spans cover, seconds.
    pub self_s: f64,
}

/// The recorder. Shared by reference across threads.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    /// Time spent inside the recorder itself (the tracing overhead).
    bookkeeping_ns: AtomicU64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            bookkeeping_ns: AtomicU64::new(0),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Microseconds since the recorder was created.
    pub fn now_us(&self) -> f64 {
        self.at_us(Instant::now())
    }

    fn at_us(&self, t: Instant) -> f64 {
        t.duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`; `f` gets the span's id so it
    /// can parent the spans of the calls it makes.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: Option<u64>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let entered = Instant::now();
        let id = {
            let mut spans = self.spans.lock().expect("span lock poisoned");
            spans.push(Span {
                name,
                start_us: 0.0,
                end_us: 0.0,
                parent,
                req,
            });
            spans.len() - 1
        };
        let start = Instant::now();
        let out = f(Some(id));
        let end = Instant::now();
        {
            let mut spans = self.spans.lock().expect("span lock poisoned");
            spans[id].start_us = self.at_us(start);
            spans[id].end_us = self.at_us(end);
        }
        let spent = (start - entered) + end.elapsed();
        self.bookkeeping_ns
            .fetch_add(spent.as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Record an interval timed by the caller (a client round trip).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let entered = Instant::now();
        let span = Span {
            name,
            start_us: self.at_us(start),
            end_us: self.at_us(end),
            parent,
            req,
        };
        self.spans.lock().expect("span lock poisoned").push(span);
        self.bookkeeping_ns
            .fetch_add(entered.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Seconds spent inside the recorder.
    pub fn bookkeeping_s(&self) -> f64 {
        self.bookkeeping_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Count, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStat> {
        let spans = self.spans.lock().expect("span lock poisoned");
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children) {
            let dur = s.end_us - s.start_us;
            let covered = union_within(kids, s.start_us, s.end_us);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += dur * 1e-6;
            e.self_s += (dur - covered).max(0.0) * 1e-6;
        }
        out
    }

    /// Microseconds of `[from_us, to_us]` that no top-level span covers.
    pub fn uncovered_us(&self, from_us: f64, to_us: f64) -> f64 {
        let spans = self.spans.lock().expect("span lock poisoned");
        let top: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_us, s.end_us))
            .collect();
        (to_us - from_us) - union_within(top, from_us, to_us)
    }

    /// Every span as a JSON array (times in µs since the run started).
    pub fn to_json(&self) -> Json {
        let spans = self.spans.lock().expect("span lock poisoned");
        Json::Arr(
            spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj(vec![
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.to_string())),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("req", s.req.map_or(Json::Null, |r| Json::Num(r as f64))),
                    ])
                })
                .collect(),
        )
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let u = union_within(vec![(0.0, 4.0), (2.0, 6.0), (8.0, 20.0)], 1.0, 10.0);
        assert!((u - 7.0).abs() < 1e-12);
        assert_eq!(union_within(Vec::new(), 0.0, 5.0), 0.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", None, None, |id| {
            t.span("inner", id, None, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let layers = t.layers();
        let (outer, inner) = (layers["outer"], layers["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.self_s >= 0.019);
        assert!(outer.self_s < outer.total_s - 0.019);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, None, |id| id), None);
        assert!(t.layers().is_empty());
    }
}

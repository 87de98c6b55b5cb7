//! Named metric families with labels, rendered as Prometheus text.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::{Counter, Gauge, Histogram};

/// Kind of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Series {
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    series: Vec<Series>,
}

/// A set of metric families. Registration takes a lock; the returned
/// `Arc` instruments record lock-free, so hot paths never touch the
/// registry after setup.
///
/// `counter`/`gauge`/`histogram` are get-or-create on
/// `(name, labels)`: asking again with the same identity returns the
/// same instrument. Reusing a name with a different kind panics —
/// that is a programming error, not a runtime condition.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_create(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        assert!(valid_metric_name(name), "invalid metric name: {name}");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name: {k}");
        }
        let owned: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut fams = self.families.lock().expect("obs registry poisoned");
        let fam = match fams.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind,
                    "metric {name} registered as {} and {}",
                    f.kind.as_str(),
                    kind.as_str()
                );
                f
            }
            None => {
                fams.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                fams.last_mut().expect("just pushed")
            }
        };
        if let Some(s) = fam.series.iter().find(|s| s.labels == owned) {
            return s.instrument.clone();
        }
        let instrument = make();
        fam.series.push(Series {
            labels: owned,
            instrument: instrument.clone(),
        });
        instrument
    }

    /// Get or create a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_create(name, help, MetricKind::Counter, labels, || {
            Instrument::Counter(Arc::new(Counter::new()))
        }) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked by get_or_create"),
        }
    }

    /// Get or create a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_create(name, help, MetricKind::Gauge, labels, || {
            Instrument::Gauge(Arc::new(Gauge::new()))
        }) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked by get_or_create"),
        }
    }

    /// Get or create a histogram series.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.get_or_create(name, help, MetricKind::Histogram, labels, || {
            Instrument::Histogram(Arc::new(Histogram::new()))
        }) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("kind checked by get_or_create"),
        }
    }

    /// Render every family in Prometheus text exposition format
    /// (version 0.0.4). Families and series appear in registration
    /// order; histogram buckets are cumulative with a final `+Inf`.
    pub fn render(&self) -> String {
        let fams = self.families.lock().expect("obs registry poisoned");
        let mut out = String::new();
        for fam in fams.iter() {
            let _ = writeln!(out, "# HELP {} {}", fam.name, fam.help);
            let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind.as_str());
            for s in &fam.series {
                match &s.instrument {
                    Instrument::Counter(c) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            fam.name,
                            render_labels(&s.labels, None),
                            c.get()
                        );
                    }
                    Instrument::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            fam.name,
                            render_labels(&s.labels, None),
                            g.get()
                        );
                    }
                    Instrument::Histogram(h) => {
                        // Snapshot buckets once so cumulative counts,
                        // _count, and _sum agree within this render.
                        let mut snap: Vec<(u64, u64)> = Vec::new();
                        h.for_each_nonzero(|_, hi, c| snap.push((hi, c)));
                        let mut cum = 0u64;
                        for (hi, c) in &snap {
                            cum += c;
                            let le = format!("{hi}");
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                fam.name,
                                render_labels(&s.labels, Some(("le", &le))),
                                cum
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            fam.name,
                            render_labels(&s.labels, Some(("le", "+Inf"))),
                            cum
                        );
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            fam.name,
                            render_labels(&s.labels, None),
                            h.sum()
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            fam.name,
                            render_labels(&s.labels, None),
                            cum
                        );
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_instrument() {
        let r = Registry::new();
        let a = r.counter("reqs_total", "requests", &[("route", "/x")]);
        let b = r.counter("reqs_total", "requests", &[("route", "/x")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        let other = r.counter("reqs_total", "requests", &[("route", "/y")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _c = r.counter("thing", "help", &[]);
        let _g = r.gauge("thing", "help", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_panics() {
        let r = Registry::new();
        let _ = r.counter("9bad", "help", &[]);
    }

    #[test]
    fn render_counter_and_gauge() {
        let r = Registry::new();
        r.counter("c_total", "a counter", &[("k", "v\"q\\n")])
            .add(3);
        r.gauge("g_now", "a gauge", &[]).set(-2);
        let text = r.render();
        assert!(text.contains("# HELP c_total a counter"));
        assert!(text.contains("# TYPE c_total counter"));
        assert!(text.contains("c_total{k=\"v\\\"q\\\\n\"} 3"));
        assert!(text.contains("# TYPE g_now gauge"));
        assert!(text.contains("g_now -2"));
        crate::prom::validate(&text).expect("render passes validator");
    }

    #[test]
    fn render_histogram_is_cumulative() {
        let r = Registry::new();
        let h = r.histogram("lat_us", "latency", &[]);
        h.record(1);
        h.record(1);
        h.record(5);
        let text = r.render();
        assert!(text.contains("lat_us_bucket{le=\"1\"} 2"));
        assert!(text.contains("lat_us_bucket{le=\"5\"} 3"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_us_sum 7"));
        assert!(text.contains("lat_us_count 3"));
        crate::prom::validate(&text).expect("render passes validator");
    }
}

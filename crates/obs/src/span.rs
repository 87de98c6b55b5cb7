//! Lightweight span timers for phase profiling.

use std::time::Instant;

use crate::Histogram;

/// A started span: a name plus a wall-clock start time.
///
/// Spans are plain values (no global collector): finish one into a
/// number of seconds for a bench report phase, or record its duration
/// into a [`Histogram`] in microseconds. Either way a `debug`-level
/// log line is emitted so `PERFVEC_LOG=debug` traces phase timing.
#[derive(Debug)]
pub struct Span {
    name: String,
    start: Instant,
}

impl Span {
    /// Start a span now.
    pub fn start(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            start: Instant::now(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Seconds elapsed so far without consuming the span.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Microseconds elapsed so far without consuming the span.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Finish the span, log it at `debug`, and return elapsed seconds.
    pub fn finish(self) -> f64 {
        let secs = self.elapsed_secs();
        crate::debug!("obs", "span {} finished in {:.6}s", self.name, secs);
        secs
    }

    /// Finish the span into a histogram (microseconds); returns the
    /// recorded duration.
    pub fn record(self, hist: &Histogram) -> u64 {
        let us = self.elapsed_us();
        hist.record(us);
        crate::debug!("obs", "span {} finished in {}us", self.name, us);
        us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_measures_time() {
        let sp = Span::start("unit");
        assert_eq!(sp.name(), "unit");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let secs = sp.finish();
        assert!(secs >= 0.002, "span too short: {secs}");
    }

    #[test]
    fn span_records_into_histogram() {
        let h = Histogram::new();
        let sp = Span::start("hist");
        let us = sp.record(&h);
        assert_eq!(h.count(), 1);
        assert!(h.max() >= us.min(h.max()));
    }
}

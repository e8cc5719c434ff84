//! Toggleable stopwatch for hot-path stage timing.

use std::time::Instant;

use crate::histogram::Histogram;

/// A started-or-disabled stopwatch.
///
/// `Span::start(enabled)` reads the monotonic clock only when `enabled`
/// is true; a disabled span is a `None` and every observation on it is
/// a constant 0 with no clock read and no histogram touch. This is the
/// mechanism behind the layer toggles (`RouterConfig::with_metrics`
/// etc.): with the toggle off the instrumented code paths do no timing
/// work at all, which is what keeps the bitwise-equivalence suites
/// unperturbed and the overhead contract in `docs/OBSERVABILITY.md`
/// honest. The stream session's ingest stages are the exception: they
/// start their spans enabled on every batch, and every layer above
/// records those times instead of timing the call again.
#[derive(Debug, Clone, Copy)]
pub struct Span(Option<Instant>);

impl Span {
    /// Start timing if `enabled`, otherwise return an inert span.
    #[inline]
    pub fn start(enabled: bool) -> Self {
        Span(if enabled { Some(Instant::now()) } else { None })
    }

    /// A span that never records anything.
    #[inline]
    pub fn disabled() -> Self {
        Span(None)
    }

    /// Whether this span is live.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Nanoseconds since `start`, or 0 when disabled. Saturates at
    /// `u64::MAX` (≈584 years), which no real stage reaches.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        match self.0 {
            Some(t0) => u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            None => 0,
        }
    }

    /// Record the elapsed time into `hist` and return it. Disabled
    /// spans record nothing and return 0.
    #[inline]
    pub fn record(&self, hist: &Histogram) -> u64 {
        match self.0 {
            Some(_) => {
                let ns = self.elapsed_ns();
                hist.record(ns);
                ns
            }
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        let hist = Histogram::new();
        let span = Span::disabled();
        assert!(!span.enabled());
        assert_eq!(span.elapsed_ns(), 0);
        assert_eq!(span.record(&hist), 0);
        assert_eq!(hist.count(), 0);
    }

    #[test]
    fn enabled_span_records() {
        let hist = Histogram::new();
        let span = Span::start(true);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let ns = span.record(&hist);
        assert!(ns >= 1_000_000, "slept 1ms but measured {ns}ns");
        assert_eq!(hist.count(), 1);
        assert!(hist.snapshot().max >= 1_000_000);
    }
}

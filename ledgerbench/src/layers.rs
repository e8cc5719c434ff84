//! Per-layer metrics of a traced run, read from the server's `METRICS`
//! reply (wire, shard-queue and stream-stage histograms plus the
//! router-derived counters; catalog in `docs/OBSERVABILITY.md`) and from
//! the follower's registry (replication apply), summed over the rounds
//! of the run.

use std::collections::BTreeMap;

use corrfuse_net::wire::{WireMetric, WireMetricValue};

/// Frame types that belong to the round's set-up and bookkeeping, not
/// to its operations: the handshake, the follower's shard probe and
/// subscription, and the `METRICS` fetch itself. Replication `batch`
/// and `epoch_ack` frames are caused by the operations and count.
const NOT_OPS: [&str; 8] = [
    "hello",
    "hello_ok",
    "stats",
    "stats_ok",
    "subscribe",
    "subscribe_ok",
    "metrics",
    "metrics_ok",
];

/// Histogram `(count, sum)` and counter totals, summed over rounds.
#[derive(Default)]
pub struct Layers {
    histograms: BTreeMap<String, (u64, u64)>,
    counters: BTreeMap<String, u64>,
}

impl Layers {
    /// Add one round's `METRICS` reply.
    pub fn absorb(&mut self, metrics: &[WireMetric]) {
        for m in metrics {
            match &m.value {
                WireMetricValue::Histogram(h) => {
                    let slot = self.histograms.entry(m.name.clone()).or_default();
                    slot.0 += h.count;
                    slot.1 += h.sum;
                }
                WireMetricValue::Counter(v) => {
                    *self.counters.entry(m.name.clone()).or_default() += v;
                }
                WireMetricValue::Gauge(_) => {}
            }
        }
    }

    /// `(count, sum)` of one histogram.
    fn histogram(&self, name: &str) -> (u64, u64) {
        self.histograms.get(name).copied().unwrap_or_default()
    }

    /// `(count, sum)` over the per-frame-type series `<prefix><type>`,
    /// operation frames only.
    fn wire(&self, prefix: &str) -> (u64, u64) {
        self.histograms
            .iter()
            .filter_map(|(name, v)| {
                let label = name.strip_prefix(prefix)?;
                (!NOT_OPS.contains(&label)).then_some(*v)
            })
            .fold((0, 0), |a, v| (a.0 + v.0, a.1 + v.1))
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or_default()
    }

    fn ratio(&self, hits: &str, misses: &str) -> f64 {
        let (h, m) = (self.counter(hits), self.counter(misses));
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// The per-layer rows, `(name, value, unit)`, normalised per client
    /// operation; times are busy microseconds recorded in the layer.
    pub fn rows(&self, ops: usize) -> Vec<(&'static str, f64, &'static str)> {
        let per_op = |n: u64| n as f64 / ops.max(1) as f64;
        let us_per_op = |ns: u64| per_op(ns) / 1e3;
        let mut rows = vec![
            (
                "net_decode_us_per_op",
                us_per_op(self.wire("net_decode_ns_").1),
                "us",
            ),
            (
                "net_handle_us_per_op",
                us_per_op(self.wire("net_handle_ns_").1),
                "us",
            ),
            (
                "net_encode_us_per_op",
                us_per_op(self.wire("net_encode_ns_").1),
                "us",
            ),
            (
                "net_frames_per_op",
                per_op(self.wire("net_handle_ns_").0),
                "count",
            ),
        ];
        for (row, series) in TIMES {
            rows.push((row, us_per_op(self.histogram(series).1), "us"));
        }
        for (row, series) in COUNTS {
            rows.push((row, per_op(self.counter(series)), "count"));
        }
        for (row, hits, misses) in RATIOS {
            rows.push((row, self.ratio(hits, misses), "ratio"));
        }
        rows
    }
}

/// Stage histograms reported as busy time per operation: `(row, series)`.
const TIMES: [(&str, &str); 10] = [
    ("serve_queue_wait_us_per_op", "serve_queue_wait_ns"),
    ("serve_batch_assembly_us_per_op", "serve_batch_assembly_ns"),
    ("stream_ingest_us_per_op", "stream_ingest_ns"),
    ("stream_refit_model_us_per_op", "stream_refit_model_ns"),
    ("stream_refit_cluster_us_per_op", "stream_refit_cluster_ns"),
    ("stream_refit_full_us_per_op", "stream_refit_full_ns"),
    ("stream_rescore_us_per_op", "stream_rescore_ns"),
    ("stream_journal_us_per_op", "stream_journal_ns"),
    ("stream_sketch_us_per_op", "stream_sketch_ns"),
    ("replica_apply_us_per_op", "replica_apply_ns"),
];

/// Router-derived counters reported per operation: `(row, series)`.
const COUNTS: [(&str, &str); 7] = [
    ("serve_batches_per_op", "serve_batches"),
    ("serve_merged_batches_per_op", "serve_merged_batches"),
    ("stream_rescored_per_op", "serve_rescored"),
    ("stream_refits_model_per_op", "serve_refit_model"),
    ("stream_refits_cluster_per_op", "serve_refit_cluster"),
    ("stream_refits_full_per_op", "serve_refit_full"),
    ("replica_batches_applied_per_op", "replica_batches_applied"),
];

/// Hit ratios of the core caches: `(row, hits series, misses series)`.
/// The score-cache counters live as long as a shard's session, so the
/// ratio covers the seed scoring at set-up as well as the round.
const RATIOS: [(&str, &str, &str); 1] = [(
    "core_score_cache_hit_ratio",
    "serve_score_cache_hits",
    "serve_score_cache_misses",
)];

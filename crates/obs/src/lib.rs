//! # corrfuse-obs
//!
//! In-tree, zero-dependency observability for the corrfuse stack: a
//! lock-free [`Registry`] of named counters, gauges and log₂ latency
//! [`Histogram`]s, a [`Span`] stopwatch that compiles down to two
//! `Instant` reads when enabled and nothing when disabled, a bounded
//! [`TraceRing`] of recent batch traces, and a Prometheus-style text
//! exposition ([`export::render_text`]).
//!
//! The stack's layers (core → stream → serve → net) carry counter-style
//! stats since PR 3–6, but nothing measured *time*: there was no way to
//! see where a batch's latency goes — queue wait vs. refit vs. journal
//! fsync vs. wire. This crate supplies the primitives; the layers above
//! thread them through behind per-layer toggles
//! (`RouterConfig::with_metrics`, `ServerConfig::with_metrics`,
//! `FollowerConfig::with_metrics`), and `corrfuse-net`'s `METRICS` frame
//! carries a registry snapshot to remote operators. The stream session
//! times its own stages on every batch, toggle or not, and the layers
//! above record those times rather than timing the call again.
//! `docs/OBSERVABILITY.md` is the operator-facing catalog of every
//! metric and span stage.
//!
//! # Design constraints
//!
//! * **Hot-path safe.** All metric updates are relaxed atomic
//!   operations on fixed-size storage — no locks, no allocation, no
//!   syscalls. Handles are `Arc`s resolved once at wiring time, so the
//!   per-record cost is a few atomic adds.
//! * **Fixed memory.** A [`Histogram`] is 64 + 3 atomics regardless of
//!   how many values it absorbs; the [`Registry`] is a fixed-capacity
//!   insert-only table; the [`TraceRing`] overwrites its oldest entry.
//! * **Mergeable.** [`HistogramSnapshot::merged`] is associative and
//!   commutative (elementwise bucket sums, max of maxima), so per-shard
//!   histograms can be combined in any grouping without changing the
//!   result — the property the testkit suite pins.
//! * **Near-free when off.** A disabled [`Span`] records nothing and
//!   reads no clock; the instrumented layers skip every registry touch
//!   when their toggle is off, keeping the trust anchor's
//!   bitwise-equivalence suites byte-identical. The session's stage
//!   clock is the one span that is always on: a few clock reads per
//!   batch that no score ever reads.
//!
//! ## Quick start
//!
//! ```
//! use corrfuse_obs::{Registry, Span};
//!
//! let registry = Registry::new();
//! let batches = registry.counter("ingest_batches");
//! let latency = registry.histogram("ingest_ns");
//!
//! // Hot path: one counter bump + one histogram record per batch.
//! let span = Span::start(true);
//! // ... do the work ...
//! batches.inc();
//! span.record(&latency);
//!
//! let text = corrfuse_obs::export::render_text(&registry.snapshot());
//! assert!(text.contains("ingest_batches 1"));
//! assert!(text.contains("ingest_ns_count 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]
#![deny(missing_docs)]

pub mod export;
pub mod histogram;
pub mod registry;
pub mod span;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Counter, Gauge, MetricSample, MetricValue, Registry};
pub use span::Span;
pub use trace::{BatchTrace, TraceRing};

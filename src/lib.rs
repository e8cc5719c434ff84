//! # corrfuse
//!
//! Umbrella crate for the `corrfuse` workspace — a production-quality Rust
//! implementation of correlation-aware data fusion (truth discovery),
//! reproducing *"Fusing Data with Correlations"* (Pochampally, Das Sarma,
//! Dong, Meliou, Srivastava — SIGMOD 2014).
//!
//! Re-exports the four member crates:
//!
//! * [`core`] (`corrfuse-core`) — data model, quality estimation, the
//!   PrecRec and PrecRecCorr fusion models (exact / aggressive / elastic),
//!   and source clustering.
//! * [`stream`] (`corrfuse-stream`) — incremental ingestion: delta log,
//!   incremental fuser, observation-pattern table, micro-batching
//!   sessions, and the append-only journal.
//! * [`serve`] (`corrfuse-serve`) — the serving layer: a sharded
//!   multi-tenant session router with an async ingestion front door,
//!   backpressure, and per-shard journal rotation.
//! * [`net`] (`corrfuse-net`) — the network front door: the
//!   `corrfuse-net v1` wire protocol (length-prefixed CRC-checked
//!   frames carrying journal-codec event batches), a blocking TCP
//!   server owning a `ShardRouter`, and a pipelined reconnecting
//!   client. Spec in `docs/PROTOCOL.md`.
//! * [`replica`] (`corrfuse-replica`) — read-replica followers: one
//!   replication link per leader shard (`SUBSCRIBE`/`BATCH`/
//!   `EPOCH_ACK`), incremental apply with epoch sequencing, and
//!   bounded-staleness reads (`min_epoch` / `STALE`) served in process
//!   or through the read-only follower server.
//! * [`obs`] (`corrfuse-obs`) — zero-dependency observability: the
//!   lock-free metric registry, log₂ latency histograms, span timers
//!   and the bounded batch-trace ring. Catalog in
//!   `docs/OBSERVABILITY.md`.
//! * [`baselines`] (`corrfuse-baselines`) — UNION-K voting, 2-/3-Estimates,
//!   Cosine, the Latent Truth Model, and ACCU/AccuCopy.
//! * [`synth`] (`corrfuse-synth`) — the Figure 1 example, parametric
//!   correlated generators, and REVERB/RESTAURANT/BOOK replicas.
//! * [`eval`] (`corrfuse-eval`) — metrics (P/R/F1, PR/ROC curves, AUC),
//!   the method registry, and per-figure experiment runners.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![forbid(unsafe_code)]

pub use corrfuse_baselines as baselines;
pub use corrfuse_core as core;
pub use corrfuse_eval as eval;
pub use corrfuse_net as net;
pub use corrfuse_obs as obs;
pub use corrfuse_replica as replica;
pub use corrfuse_serve as serve;
pub use corrfuse_stream as stream;
pub use corrfuse_synth as synth;

/// Crate version of the umbrella package.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}

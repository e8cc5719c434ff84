//! # corrfuse-serve
//!
//! Sharded multi-tenant serving on top of `corrfuse-stream`: a shard
//! router with an asynchronous, non-blocking ingestion front door.
//!
//! A single synchronous [`corrfuse_stream::StreamSession`] per process
//! cannot serve heavy multi-user traffic: every producer waits on every
//! refit, one tenant's label burst stalls everyone, and one journal
//! grows without bound. This crate partitions the claim stream by
//! tenant into N independent shard sessions, each driven by its own
//! worker thread:
//!
//! ```text
//!  producers ──ingest(tenant, events)──▶ ShardRouter
//!                                          │  tenant.0 % N
//!              ┌───────────────────────────┼───────────────────────┐
//!              ▼                           ▼                       ▼
//!      bounded queue (shard 0)       bounded queue (1)    ...   queue (N-1)
//!       block / reject / timeout          │                       │
//!              ▼                           ▼                       ▼
//!       micro-batcher (no timer)     micro-batcher            micro-batcher
//!              ▼                           ▼                       ▼
//!       tenant-id translation        translation              translation
//!              ▼                           ▼                       ▼
//!       StreamSession::ingest        StreamSession            StreamSession
//!              ▼                           ▼                       ▼
//!       shard-0.journal  ⟲rotate     shard-1.journal         shard-(N-1).journal
//! ```
//!
//! * [`router::ShardRouter`] — the front door: route, enqueue, return.
//!   Backpressure is configurable ([`config::Backpressure`]: block /
//!   reject / timeout), as is the micro-batch size bound.
//! * [`tenant`] — tenants speak tenant-local ids; shards namespace them
//!   so co-tenants never collide. Translation is deterministic.
//! * `shard` (internal) — the worker loop: batch, translate, ingest,
//!   rotate the journal on size/age triggers, seal on shutdown.
//! * [`stats`] — per-shard + aggregate queue depths, batch sizes,
//!   ingest latency, flips, cache hit rates, rotations. With a
//!   [`corrfuse_obs::Registry`] on the config
//!   ([`RouterConfig::with_metrics`]), workers additionally record
//!   per-stage latency histograms and batch traces — the metric
//!   catalog lives in `docs/OBSERVABILITY.md`.
//! * [`replica`] — the leader side of read-replica replication: every
//!   committed batch is stamped with its shard **epoch** (batches
//!   committed since start) and fanned out to subscriber queues
//!   ([`ShardRouter::subscribe`]), reads accept a bounded-staleness
//!   floor ([`ShardRouter::scores_at`], typed [`ServeError::Stale`]
//!   when behind), and [`ShardRouter::snapshot_all`] takes a
//!   flush-fenced cross-shard export stamped with per-shard epochs.
//!   `corrfuse-replica` builds the follower process on top.
//! * [`migration`] — live tenant migration between shards with no
//!   ingest downtime: extract the tenant's self-contained slice via its
//!   [`TenantMap`], replay it into the target through the normal ingest
//!   path while the source keeps serving, buffer the cut-over window,
//!   and atomically repoint the route behind an epoch fence so reads
//!   never go backwards ([`ShardRouter::migrate_tenant`]). The
//!   queue-depth-driven [`migration::RebalancePolicy`] builds thread
//!   autosizing and migrate-when-hot on top
//!   ([`ShardRouter::rebalance`]).
//!
//! The subsystem inherits the workspace trust anchor (stated once in
//! `docs/ARCHITECTURE.md`), per shard: routed, micro-batched, compacted
//! ingestion produces scores **bitwise identical** to a from-scratch
//! `Fuser::fit + score_all` on the shard's accumulated dataset (pinned
//! by `tests/router_equivalence.rs` at the workspace root, over random
//! multi-tenant streams, shard counts, backpressure and fsync policies,
//! with mid-run journal rotations). This crate is the serving layer of
//! the stack (core → stream → **serve** → net); `corrfuse-net` puts a
//! wire protocol in front of the router for remote producers.
//!
//! ## Quick start
//!
//! ```
//! use corrfuse_core::fuser::{FuserConfig, Method};
//! use corrfuse_core::DatasetBuilder;
//! use corrfuse_serve::{RouterConfig, ShardRouter, TenantId};
//! use corrfuse_stream::Event;
//!
//! // One tiny labelled seed per tenant.
//! let seed = |flip: bool| {
//!     let mut b = DatasetBuilder::new();
//!     let (s, t1) = b.observe_named("A", "x", "p", "1");
//!     b.label(t1, true);
//!     let t2 = b.triple("y", "p", "2");
//!     b.observe(s, t2);
//!     b.label(t2, flip);
//!     b.build().unwrap()
//! };
//! let router = ShardRouter::new(
//!     FuserConfig::new(Method::PrecRec),
//!     RouterConfig::new(2),
//!     vec![(TenantId(0), seed(false)), (TenantId(1), seed(false))],
//! )
//! .unwrap();
//!
//! // Tenant 1 streams a claim; the call returns before the re-score.
//! router
//!     .ingest(
//!         TenantId(1),
//!         vec![
//!             Event::add_triple("z", "p", "3"),
//!             Event::claim(corrfuse_core::SourceId(0), corrfuse_core::TripleId(2)),
//!         ],
//!     )
//!     .unwrap();
//! router.flush().unwrap(); // read-your-writes
//! assert_eq!(router.scores(TenantId(1)).unwrap().len(), 3);
//! router.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]
#![deny(missing_docs)]

pub mod config;
pub mod error;
pub mod migration;
pub mod queue;
pub mod replica;
pub mod router;
mod shard;
pub mod stats;
pub mod tenant;

pub use config::{Backpressure, JournalConfig, ReplicationConfig, RouterConfig};
pub use error::{Result, ServeError};
pub use migration::{
    load_routes, resolve_route, store_routes, MigrationReport, MigrationStage, PersistedRoute,
    RebalanceAction, RebalancePolicy, RouteResolution,
};
pub use replica::{ReplicaBatch, Subscription, SubscriptionStart};
pub use router::{ShardRouter, ShardSnapshot};
pub use stats::{RouterAggregate, RouterStats, ShardMigrationStat, ShardQueueStat, ShardStats};
pub use tenant::{derive_tenant_maps, extend_tenant_maps, TenantId, TenantMap};

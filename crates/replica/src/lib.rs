//! # corrfuse-replica
//!
//! Read-replica followers for the corrfuse serving stack: each
//! [`Follower`] subscribes to every shard of a leader
//! [`corrfuse_net::Server`] over the `corrfuse-net v1` replication
//! frames (`SUBSCRIBE`/`BATCH`/`EPOCH_ACK` — spec in
//! `docs/PROTOCOL.md` §7), applies the leader's committed batches
//! through the incremental fusion path, and serves
//! `SCORES`/`DECISIONS`/`STATS` reads — in process, or over TCP through
//! the read-only [`FollowerServer`] — with a **bounded-staleness**
//! guarantee: a read carrying `min_epoch` waits for the shard to catch
//! up and otherwise reports the retryable `STALE` error.
//!
//! ```text
//!  producers ──▶ leader Server ──▶ ShardRouter ──▶ shard sessions
//!                    │ SUBSCRIBE/BATCH (one link per shard)
//!        ┌───────────┴───────────┐
//!        ▼                       ▼
//!   Follower (warm state)   Follower (warm state)
//!        ▲ SCORES/DECISIONS/STATS (min_epoch-gated)
//!     read clients
//! ```
//!
//! The workspace trust anchor extends across replication: a follower's
//! scores at epoch `e` are **bitwise identical** to a from-scratch
//! `Fuser::fit + score_all` on the leader shard's dataset at the same
//! epoch — across snapshot bootstrap, mid-stream reconnect, journal
//! rotation on the leader, and follower cold restart (pinned by
//! `tests/replica_equivalence.rs` at the workspace root).
//!
//! * [`follower`] — the [`Follower`]: per-shard replication links,
//!   epoch-sequenced apply, catch-up gating, optional follower-side
//!   journals for cold restart.
//! * [`server`] — the read-only [`FollowerServer`]: the leader's one
//!   server type ([`corrfuse_net::Server`]) with the [`Follower`] as
//!   its [`corrfuse_net::Service`], so followers get the leader's
//!   session machine, ACLs and `net_*` wire metrics (writes answer
//!   `FORBIDDEN`).
//! * [`config`] — [`FollowerConfig`].
//! * [`error`] — [`ReplicaError`].
//!
//! See `examples/replica_follower.rs` for a leader + two followers over
//! loopback.

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]
#![deny(missing_docs)]

pub mod config;
pub mod error;
pub mod follower;
pub mod server;

pub use config::FollowerConfig;
pub use error::{ReplicaError, Result};
pub use follower::{Follower, FollowerShardStats, FollowerStats, BOOTSTRAP_EPOCH};
pub use server::{spawn, FollowerServer, FollowerServerHandle};

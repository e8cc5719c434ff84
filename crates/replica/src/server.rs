//! The read-only TCP front door of a [`Follower`]: the leader's server
//! ([`corrfuse_net::Server`]) with the follower as its [`Service`], so
//! followers share the leader's session machine — HELLO negotiation,
//! chunking-blind framing, per-tenant ACLs
//! ([`corrfuse_net::ServerConfig::with_acl`]) and the `net_*` wire
//! metrics ([`corrfuse_net::ServerConfig::with_metrics`]).
//! `SCORES`/`DECISIONS`/`STATS` honour the `min_epoch`
//! bounded-staleness field (a shard still behind answers the retryable
//! `STALE` error); `INGEST`, `FLUSH` and `SUBSCRIBE` are refused with
//! `FORBIDDEN` — followers are read-only, and chained replication is
//! out of scope. `SHUTDOWN` is refused unless the config opts in,
//! exactly as on the leader.

use std::sync::Arc;
use std::thread::JoinHandle;

use corrfuse_net::error::code_of;
use corrfuse_net::wire::{WireMetric, WireShardStats, WireStats};
use corrfuse_net::{
    Conn, ErrorCode, NetError, Reply, Request, Response, Server, ServerHandle, Service,
};
use corrfuse_obs::{MetricSample, MetricValue};

use crate::error::{ReplicaError, Result};
use crate::follower::{Follower, FollowerStats};

/// A handle that can stop a running [`FollowerServer`] (the leader's
/// [`ServerHandle`]).
pub type FollowerServerHandle = ServerHandle;

/// The follower's read-only network front door: the one server type
/// with the [`Follower`] as its service; see the module docs. Bind
/// through this alias, `FollowerServer::bind(addr,
/// Arc::clone(&follower), config)`: the follower stays shared, so
/// in-process reads keep working next to the network traffic.
pub type FollowerServer = Server<Follower>;

/// The follower's requests: bounded-staleness reads; every write is
/// refused.
impl Service for Follower {
    fn handle(&self, request: Request, conn: &mut Conn) -> Reply {
        let response = match request {
            Request::Scores { tenant, min_epoch } => {
                conn.batches += 1;
                match self.scores_at(tenant, min_epoch.unwrap_or(0)) {
                    Ok(scores) => Response::ScoresOk { scores },
                    Err(e) => error_response(&e),
                }
            }
            Request::Decisions { tenant, min_epoch } => {
                conn.batches += 1;
                match self.decisions_at(tenant, min_epoch.unwrap_or(0)) {
                    Ok(decisions) => Response::DecisionsOk { decisions },
                    Err(e) => error_response(&e),
                }
            }
            Request::Stats { min_epoch } => match self.stats_at(min_epoch.unwrap_or(0)) {
                Ok(fs) => Response::StatsOk {
                    stats: wire_stats(&fs, conn),
                },
                Err(e) => error_response(&e),
            },
            Request::Metrics => metrics_response(self, conn),
            Request::Ingest { .. } | Request::Flush => Response::Error {
                code: ErrorCode::Forbidden,
                message: "followers are read-only; write to the leader".to_string(),
            },
            Request::Subscribe { .. } => Response::Error {
                code: ErrorCode::Forbidden,
                message: "chained replication is not supported; subscribe to the leader"
                    .to_string(),
            },
            other => return Reply::not_routed(&other),
        };
        Reply::Respond(response)
    }
}

fn error_response(e: &ReplicaError) -> Response {
    match e {
        ReplicaError::Serve(e) => Response::Error {
            code: code_of(e),
            message: e.to_string(),
        },
        other => Response::Error {
            code: ErrorCode::Internal,
            message: other.to_string(),
        },
    }
}

/// Project follower statistics onto the frozen wire `STATS` shape:
/// batches/events applied through replication stand in for the leader's
/// processed/ingested counters, queues are always empty (links apply
/// synchronously), and a follower shard is never poisoned — an apply
/// failure discards it for re-bootstrap instead. `conn_batches` counts
/// the reads answered on this connection.
fn wire_stats(fs: &FollowerStats, conn: &Conn) -> WireStats {
    WireStats {
        conn_frames: conn.frames,
        conn_batches: conn.batches,
        conn_events: 0,
        shards: fs
            .shards
            .iter()
            .map(|s| WireShardStats {
                shard: s.shard as u32,
                tenants: s.tenants as u32,
                processed_messages: s.batches_applied,
                ingested_events: s.events_applied,
                ingest_errors: s.apply_errors,
                queue_depth: 0,
                poisoned: false,
            })
            .collect(),
    }
}

/// The follower's `METRICS` reply: the server registry's snapshot (its
/// `net_*` wire series), the follower's own registry when it is a
/// different one, and always-present applied-epoch gauges mirroring the
/// leader's `serve_epoch_shard_<i>` under the
/// `replica_applied_epoch_shard_<i>` names.
fn metrics_response(follower: &Follower, conn: &Conn) -> Response {
    let mut samples = conn
        .registry
        .as_ref()
        .map(|r| r.snapshot())
        .unwrap_or_default();
    if let Some(own) = follower.metrics_registry() {
        if !conn.registry.as_ref().is_some_and(|r| Arc::ptr_eq(r, own)) {
            samples.extend(own.snapshot());
        }
    }
    for s in &follower.stats().shards {
        samples.push(MetricSample {
            name: format!("replica_applied_epoch_shard_{}", s.shard),
            value: MetricValue::Gauge(s.applied_epoch as i64),
        });
        samples.push(MetricSample {
            name: format!("replica_snapshots_shard_{}", s.shard),
            value: MetricValue::Counter(s.snapshots),
        });
    }
    samples.sort_by(|a, b| a.name.cmp(&b.name));
    Response::MetricsOk {
        metrics: WireMetric::from_samples(&samples),
    }
}

/// Run a [`FollowerServer`] on a background thread until it stops.
pub fn spawn(server: FollowerServer) -> Result<(FollowerServerHandle, JoinHandle<Result<()>>)> {
    let handle = server.handle()?;
    let join = std::thread::Builder::new()
        .name("corrfuse-replica-accept".to_string())
        .spawn(move || {
            server.run()?;
            Ok(())
        })
        .map_err(|e| ReplicaError::Net(NetError::Io(e.to_string())))?;
    Ok((handle, join))
}

//! # corrfuse-net
//!
//! The network front door for correlation-aware fusion: a versioned,
//! length-prefixed binary wire protocol plus a TCP [`Server`] and a
//! blocking [`Client`], so producers on other machines can ingest into
//! a [`corrfuse_serve::ShardRouter`] and query tenant scores remotely.
//!
//! ```text
//!  remote producer ──┐
//!  remote producer ──┤  TCP, `corrfuse-net v1` frames
//!  remote producer ──┴──▶ Server (one poll(2) loop, conns = fds)
//!                             │  Request::Ingest { tenant, events }
//!                             ▼
//!                         ShardRouter ──▶ shard StreamSessions ──▶ journals
//! ```
//!
//! * [`frame`] — the framing layer: magic + version + type + length +
//!   CRC-32, decodable from arbitrary bytes without panicking.
//! * [`wire`] — typed [`wire::Request`]/[`wire::Response`] messages
//!   over frames. The `INGEST` payload is the journal event codec
//!   ([`corrfuse_stream::codec`]) verbatim, so a captured wire stream
//!   is replayable as a journal.
//! * [`session`] — the sans-I/O session layer: a
//!   [`SessionStateMachine`] consuming arbitrary byte chunks and
//!   emitting writes and decoded requests, with no sockets, threads or
//!   clocks, so protocol behaviour is testable byte-at-a-time and
//!   shared verbatim by every server endpoint.
//! * [`transport`] — the in-tree readiness transport: a `poll(2)`
//!   [`Poller`] (registration, interest flags, wakeups) plus the
//!   partial-write [`WriteBuf`], so one thread can hold tens of
//!   thousands of idle connections as file descriptors.
//! * [`acl`] — per-tenant access control resolved from the optional
//!   HELLO credential; denials surface as typed `FORBIDDEN` errors.
//! * [`server`] — the one server type, [`Server`], and its loop
//!   ([`Server::run`]): a readiness reactor driving the session
//!   machine and answering requests through a [`Service`], the owned
//!   router on the leader or a read-only follower in
//!   `corrfuse-replica`. A `SUBSCRIBE` the service accepts becomes a
//!   replication link the server streams. Backpressure surfaces as
//!   retryable `BUSY` protocol errors, shard poisoning as fatal
//!   `SHARD_POISONED`.
//! * [`client`] — connect/retry, pipelined ingest with at-least-once
//!   in-order resend across reconnects, read-your-writes
//!   [`Client::flush`].
//! * [`error`] — [`NetError`] plus the protocol [`ErrorCode`]s.
//!
//! The normative byte-level specification lives in `docs/PROTOCOL.md`;
//! this crate is its reference implementation, and the network layer of
//! the stack described in `docs/ARCHITECTURE.md` (core → stream →
//! serve → **net**). The subsystem extends the workspace trust anchor
//! (stated once there) across the network: events ingested
//! through a real TCP loopback connection — including under mid-stream
//! client disconnect/reconnect — produce scores **bitwise identical**
//! to a from-scratch `Fuser::fit + score_all` on the accumulated
//! dataset (pinned by `tests/net_equivalence.rs` at the workspace
//! root).
//!
//! ## Quick start
//!
//! ```
//! use corrfuse_core::fuser::{FuserConfig, Method};
//! use corrfuse_core::DatasetBuilder;
//! use corrfuse_net::{Client, Server, ServerConfig};
//! use corrfuse_serve::{RouterConfig, ShardRouter, TenantId};
//! use corrfuse_stream::Event;
//!
//! // A one-tenant router behind a loopback server.
//! let mut b = DatasetBuilder::new();
//! let (s, t1) = b.observe_named("A", "x", "p", "1");
//! b.label(t1, true);
//! let t2 = b.triple("y", "p", "2");
//! b.observe(s, t2);
//! b.label(t2, false);
//! let router = ShardRouter::new(
//!     FuserConfig::new(Method::PrecRec),
//!     RouterConfig::new(1),
//!     vec![(TenantId(0), b.build().unwrap())],
//! )
//! .unwrap();
//! let server = Server::bind("127.0.0.1:0", router, ServerConfig::new()).unwrap();
//! let addr = server.local_addr().unwrap();
//! let (handle, join) = corrfuse_net::server::spawn(server).unwrap();
//!
//! // A remote producer streams a claim and reads its own write.
//! let mut client = Client::connect(addr.to_string()).unwrap();
//! client
//!     .ingest(
//!         TenantId(0),
//!         &[
//!             Event::add_triple("z", "p", "3"),
//!             Event::claim(corrfuse_core::SourceId(0), corrfuse_core::TripleId(2)),
//!         ],
//!     )
//!     .unwrap();
//! client.flush().unwrap(); // read-your-writes barrier
//! assert_eq!(client.scores(TenantId(0)).unwrap().len(), 3);
//!
//! handle.stop();
//! join.join().unwrap().unwrap();
//! ```

#![warn(rust_2018_idioms)]
#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod acl;
pub mod client;
pub mod crc;
pub mod error;
pub mod frame;
pub mod server;
pub mod session;
pub mod transport;
pub mod wire;

pub use acl::{Access, AclTable};
pub use client::{Client, ClientConfig};
pub use error::{ErrorCode, NetError, Result};
pub use frame::{Frame, FrameError, FrameType};
pub use server::{Conn, Reply, Server, ServerConfig, ServerHandle, Service};
pub use session::{Output, SessionConfig, SessionStateMachine};
pub use transport::{raise_nofile_limit, Event, FlushProgress, Interest, Poller, Token, WriteBuf};
pub use wire::{
    Request, Response, WireHistogram, WireMetric, WireMetricValue, WireShardStats, WireStats,
};

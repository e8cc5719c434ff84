//! The TCP server: one readiness loop ([`Server::run`]) holding every
//! connection as a file descriptor, driving one sans-I/O session state
//! machine per connection, and answering application requests through
//! a [`Service`]. [`Server`] is the one server type: the leader runs
//! `Server<ShardRouter>` (the default parameter), a follower
//! `Server<Follower>` from `corrfuse-replica`.
//!
//! ```text
//!  producers, readers ─TCP─▶ Server::run: one poll(2) thread,
//!                            10⁴ idle conns = fds (crate::transport)
//!                                          │ bytes
//!                                          ▼
//!                            SessionStateMachine (crate::session)
//!                              HELLO/ACL/framing/ordering
//!                                          │ Request
//!                                          ▼
//!                            ConnDriver: PING, SHUTDOWN, net_* spans
//!                                          │ Request
//!                                          ▼
//!                            Service::handle
//!               ┌──────────────────────────┴──────────────────────┐
//!      ShardRouter (leader)                       Follower (read-only,
//!      ingest/scores/decisions/flush/             corrfuse-replica)
//!      stats/metrics; SUBSCRIBE ─▶                scores/decisions/stats
//!      Reply::Replicate: the server streams
//!      the subscription off the loop
//! ```
//!
//! * Every endpoint runs this one loop, so wire behaviour — framing,
//!   ordering, ACLs, typed errors, `net_*` metrics — is the same on the
//!   leader and on a follower by construction.
//! * Fairness: level-triggered `poll(2)` wakeups with one bounded read
//!   per connection per turn — a flooding or dribbling connection costs
//!   one chunk a turn, never the whole turn.
//! * The cost of a single I/O thread: a request that blocks holds the
//!   turn for every connection. `FLUSH` waits while the shards apply
//!   what is queued (a shard worker batches only what already queued
//!   and never waits on a clock, so this is the apply time); under
//!   [`corrfuse_serve::Backpressure::Block`] an `INGEST` into a full
//!   shard queue waits for room (prefer `Reject`/`Timeout` or generous
//!   queues); a follower read carrying `min_epoch` waits up to the
//!   follower's catch-up timeout.
//! * A panic in [`Service::handle`] stays in its request: the loop
//!   answers it with [`ErrorCode::Internal`] and keeps serving that
//!   connection and every other.
//! * Slow *readers* never stall the loop: responses queue in a
//!   partial-write buffer ([`crate::transport::WriteBuf`]), and past a
//!   high-water mark the connection is neither read nor answered until
//!   the peer drains.
//! * Replication mode is the server's own: a service answers
//!   `SUBSCRIBE` with [`Reply::Replicate`], and the socket leaves the
//!   loop for a dedicated blocking thread pair that streams the
//!   subscription's batches and records each `EPOCH_ACK` on it
//!   ([`Subscription::ack`]).
//! * The [`Server`] **owns** its service through an `Arc`;
//!   [`Server::run`] runs until [`ServerHandle::stop`] fires or a remote
//!   `SHUTDOWN` is honoured, then hands the service back. The leader's
//!   [`Server::serve`] goes on to shut the router down gracefully and
//!   returns the final [`RouterStats`].
//! * An idle loop sleeps: `poll(2)` runs with no timeout. Besides the
//!   listener and the connections, the loop registers the read end of a
//!   doorbell, a `UnixStream` pair; [`ServerHandle::stop`] sets the
//!   stop flag and writes one byte to the other end, which wakes the
//!   loop even while its listener is parked at `max_connections`.
//! * Backpressure propagates as protocol-level `BUSY` errors: when the
//!   router's policy is `Reject`/`Timeout` a full shard queue turns
//!   into a retryable [`ErrorCode::Busy`] response. A poisoned shard
//!   answers with the **fatal** [`ErrorCode::ShardPoisoned`] so clients
//!   stop retrying.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use corrfuse_obs::{Counter, Gauge, Histogram, MetricSample, MetricValue, Registry, Span};
use corrfuse_serve::{RouterStats, ServeError, ShardRouter, Subscription, SubscriptionStart};

use crate::acl::AclTable;
use crate::error::{code_of, ErrorCode, NetError, Result};
use crate::frame::{Frame, FrameType};
use crate::session::{Output, SessionConfig, SessionStateMachine};
use crate::transport::{FlushProgress, Interest, Poller, Token, WriteBuf};
use crate::wire::{Request, Response, WireMetric, WireStats};

/// Read chunk size: bounds the work one connection gets per wakeup.
const READ_CHUNK: usize = 64 * 1024;

/// Write-buffer high-water mark: past this many queued response bytes
/// the connection is neither read nor answered until the peer drains,
/// so a client that queries but never reads cannot balloon server
/// memory.
const WRITE_HIGH_WATER: usize = 1 << 20;

/// The loop's registration token for the listener.
const LISTENER: Token = Token(0);

/// The loop's registration token for its [`Doorbell`].
const DOORBELL: Token = Token(1);

/// The token of connection slot 0 (slot `i` registers as
/// `FIRST_CONN + i`).
const FIRST_CONN: usize = 2;

/// Server configuration, the same for every [`Server`], leader or
/// follower.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently registered connections. Accepts pause at
    /// capacity; further connections queue in the OS accept backlog.
    pub max_connections: usize,
    /// Honour remote `SHUTDOWN` requests. Off by default: a production
    /// front door should only stop from its own process; the example
    /// pair and tests enable it so a client can end the run.
    pub accept_shutdown: bool,
    /// Metrics registry for wire-level instrumentation. When set,
    /// connection handlers record per-frame-type decode/handle/encode
    /// latency histograms (`net_decode_ns_<type>` etc. — catalog in
    /// `docs/OBSERVABILITY.md`), the loop exports its `net_reactor_*`
    /// series, and the `METRICS` reply carries the registry's full
    /// snapshot. `None` (the default) keeps the request loop free of
    /// clock reads; `METRICS` still answers with the service-derived
    /// series. Share the same registry with
    /// [`corrfuse_serve::RouterConfig::with_metrics`] to get the shard
    /// pipeline's stage histograms in the same snapshot.
    pub metrics: Option<Arc<Registry>>,
    /// Per-tenant ACL table enforced by the session layer on
    /// tenant-scoped requests and `SUBSCRIBE` (see [`crate::acl`]).
    /// `None` (the default) leaves the server open.
    pub acl: Option<Arc<AclTable>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            accept_shutdown: false,
            metrics: None,
            acl: None,
        }
    }
}

impl ServerConfig {
    /// The defaults: 64 connections, remote shutdown disabled, no ACL.
    pub fn new() -> ServerConfig {
        ServerConfig::default()
    }

    /// Set the connection bound.
    pub fn with_max_connections(mut self, n: usize) -> ServerConfig {
        self.max_connections = n;
        self
    }

    /// Allow clients to stop the server with a `SHUTDOWN` request.
    pub fn with_accept_shutdown(mut self, allow: bool) -> ServerConfig {
        self.accept_shutdown = allow;
        self
    }

    /// Record wire-level latency into `registry` and serve its snapshot
    /// through `METRICS` (see [`ServerConfig::metrics`]).
    pub fn with_metrics(mut self, registry: Arc<Registry>) -> ServerConfig {
        self.metrics = Some(registry);
        self
    }

    /// Enforce `acl` on tenant-scoped requests (see [`crate::acl`]).
    pub fn with_acl(mut self, acl: AclTable) -> ServerConfig {
        self.acl = Some(Arc::new(acl));
        self
    }
}

/// The session-layer slice of a server configuration.
fn session_config(config: &ServerConfig) -> SessionConfig {
    let mut sc = SessionConfig::new().with_accept_shutdown(config.accept_shutdown);
    if let Some(acl) = &config.acl {
        sc = sc.with_acl(Arc::clone(acl));
    }
    sc
}

/// A connection's session machine, timed when the server records
/// metrics.
fn new_session(config: &ServerConfig) -> SessionStateMachine {
    SessionStateMachine::new(session_config(config)).with_timing(config.metrics.is_some())
}

/// An endpoint's application logic: everything between a decoded
/// [`Request`] and the [`Reply`] handed back to the server.
///
/// [`Server::run`] answers `HELLO`, `EPOCH_ACK`, `PING` and `SHUTDOWN`
/// itself and routes every other request here, so a service only sees
/// `INGEST`, `SCORES`, `DECISIONS`, `FLUSH`, `STATS`, `METRICS` and
/// `SUBSCRIBE`. Requests run on the loop's one thread, in order per
/// connection; see the module docs for what blocking here costs. A
/// panic in [`Service::handle`] is caught: that request is answered
/// with [`ErrorCode::Internal`] and the loop serves on.
pub trait Service: Send + Sync + 'static {
    /// Answer one request arriving on `conn`.
    fn handle(&self, request: Request, conn: &mut Conn) -> Reply;
}

/// What a [`Service`] sees of the connection a request arrived on.
#[derive(Debug, Default)]
pub struct Conn {
    /// Frames decoded on this connection so far, the HELLO and this
    /// request included (`STATS` `conn_frames`).
    pub frames: u64,
    /// The service's per-connection work count (`STATS`
    /// `conn_batches`): ingest batches accepted on the leader, reads
    /// answered on a follower. Maintained by the service.
    pub batches: u64,
    /// Events ingested through this connection (`STATS`
    /// `conn_events`). Maintained by the service.
    pub events: u64,
    /// The server is stopping: refuse work that would outlive it.
    pub stopping: bool,
    /// The server's metrics registry ([`ServerConfig::metrics`]), whose
    /// snapshot heads a `METRICS` reply.
    pub registry: Option<Arc<Registry>>,
}

/// A [`Service`]'s answer to one request.
#[derive(Debug)]
pub enum Reply {
    /// Queue this response; the connection keeps serving.
    Respond(Response),
    /// A successful `SUBSCRIBE`: the connection leaves request/response
    /// mode for good. The server sends `SUBSCRIBE_OK` with `start`,
    /// streams `sub`'s batches and records each of the follower's
    /// `EPOCH_ACK`s for `shard` on `sub`, until the follower leaves or
    /// the subscription closes.
    Replicate {
        /// The subscribed shard.
        shard: usize,
        /// How the follower starts.
        start: SubscriptionStart,
        /// The live batch feed.
        sub: Subscription,
    },
}

impl Reply {
    /// The reply to a request [`Server::run`] answers before any
    /// service sees it (`HELLO`, `EPOCH_ACK`, `PING`, `SHUTDOWN`),
    /// should one ever be routed to a service: a typed `INTERNAL`
    /// error, never a panic.
    pub fn not_routed(request: &Request) -> Reply {
        Reply::Respond(Response::Error {
            code: ErrorCode::Internal,
            message: format!(
                "{} is answered by the connection driver",
                request.frame_type().label()
            ),
        })
    }
}

/// The loop's doorbell: a connected socket pair whose read end the loop
/// registers next to its listener. A ring writes one byte, so it wakes
/// the loop whatever the listener's state, parked at `max_connections`
/// included. Both ends live as long as the server or any handle, so a
/// ring never meets a closed peer.
#[derive(Debug)]
struct Doorbell {
    rx: UnixStream,
    tx: UnixStream,
}

impl Doorbell {
    fn new() -> std::io::Result<Doorbell> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Doorbell { rx, tx })
    }

    /// Wake the loop. A full socket buffer (`WouldBlock`) already holds
    /// a ring the loop has yet to drain.
    fn ring(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

/// A handle that can stop a running server from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    doorbell: Arc<Doorbell>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Ask the server to stop: no new connections are accepted, live
    /// connections are closed once the in-flight request finishes, and
    /// [`Server::run`] returns; the leader's [`Server::serve`] returns
    /// after the graceful router shutdown — every *accepted* ingest
    /// batch is applied and journaled before the final stats come back.
    /// Sets the stop flag, then rings the loop's doorbell, which wakes
    /// the loop out of its untimed `poll(2)` even while the listener is
    /// parked at capacity.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.doorbell.ring();
    }

    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// The network front door: a bound listener, its stop flag and
/// doorbell, and the [`Service`] it answers with; see the module docs.
#[derive(Debug)]
pub struct Server<S: Service = ShardRouter> {
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    doorbell: Arc<Doorbell>,
    service: Arc<S>,
    config: ServerConfig,
}

impl<S: Service> Server<S> {
    /// Bind to `addr` (use port 0 for an ephemeral port) and serve
    /// `service`: by value, or as an `Arc` shared with in-process
    /// callers. An `Arc` argument needs `S` named (`Server::<S>::bind`,
    /// or an alias such as `corrfuse_replica::FollowerServer`), as an
    /// `Arc<S>` converts into both `Arc<S>` and `Arc<Arc<S>>`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: impl Into<Arc<S>>,
        config: ServerConfig,
    ) -> Result<Server<S>> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            stop: Arc::new(AtomicBool::new(false)),
            doorbell: Arc::new(Doorbell::new()?),
            service: service.into(),
            config,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// A stop handle, safe to move to another thread.
    pub fn handle(&self) -> Result<ServerHandle> {
        Ok(ServerHandle {
            stop: Arc::clone(&self.stop),
            doorbell: Arc::clone(&self.doorbell),
            addr: self.local_addr()?,
        })
    }

    /// Serve connections until stopped. Blocking. One thread, every
    /// connection a registered fd; see the module docs. On stop,
    /// delivers what fits in a bounded blocking flush, closes every
    /// connection and joins the replication threads, then hands the
    /// service back.
    pub fn run(self) -> Result<Arc<S>> {
        let Server {
            listener,
            stop,
            doorbell,
            service,
            config,
        } = self;
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new();
        poller.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
        poller.register(doorbell.rx.as_raw_fd(), DOORBELL, Interest::READABLE)?;
        let metrics = config.metrics.as_ref().map(ReactorMetrics::new);
        let mut conns: Vec<Option<ReactorConn>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut events = Vec::new();
        let mut chunk = vec![0u8; READ_CHUNK];
        // Replicating connections run on dedicated blocking threads
        // (replication links are few; request traffic stays on the
        // loop). The socket clone force-closes them at stop.
        let mut taken: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
        let mut live: usize = 0;
        let mut accept_paused = false;

        while !stop.load(Ordering::SeqCst) {
            // No timeout: `ServerHandle::stop` rings the doorbell.
            poller.poll(&mut events, None)?;
            if let Some(m) = &metrics {
                m.wakeups.inc();
            }
            for &ev in &events {
                if ev.token == DOORBELL {
                    // Take the rings off; the loop condition reads the flag.
                    while matches!((&doorbell.rx).read(&mut chunk), Ok(n) if n > 0) {}
                    continue;
                }
                if ev.token == LISTENER {
                    accept_paused = accept_ready(
                        &listener,
                        &mut poller,
                        &mut conns,
                        &mut free,
                        &mut live,
                        &config,
                        &stop,
                        metrics.as_ref(),
                    );
                    continue;
                }
                let slot = ev.token.0 - FIRST_CONN;
                let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
                    continue;
                };
                let mut gone = ev.error;
                if !gone && (ev.readable || ev.hangup) && conn.interest.is_readable() {
                    // Fairness: one bounded read per wakeup. Leftover
                    // kernel bytes keep the fd level-triggered ready,
                    // so the next turn continues exactly here.
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => gone = true,
                        Ok(n) => conn.sm.feed(&chunk[..n]),
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => gone = true,
                    }
                }
                let mut replicate = None;
                while !gone {
                    match drive_conn(conn, &*service, &stop) {
                        Handled::Done => {}
                        Handled::StopServer => stop.store(true, Ordering::SeqCst),
                        subscribed @ Handled::Replicate { .. } => {
                            replicate = Some(subscribed);
                            break;
                        }
                    }
                    gone = !flush_and_rearm(conn, &mut poller, ev.token, metrics.as_ref());
                    // Answer on while the flush clears a high-water
                    // stall: the peer is draining.
                    if !(conn.sm.awaiting_response() && conn.wbuf.pending() < WRITE_HIGH_WATER) {
                        break;
                    }
                }
                if replicate.is_some() || gone {
                    poller.deregister(ev.token).ok();
                    // Dropping a closed conn closes the fd.
                    let conn = conns[slot].take().expect("live conn");
                    free.push(slot);
                    live -= 1;
                    if let Some(m) = &metrics {
                        m.registered.set(live as i64);
                    }
                    if let Some(Handled::Replicate { shard, start, sub }) = replicate {
                        taken.extend(take_over(conn, shard, start, sub));
                    }
                }
                if accept_paused && live < config.max_connections {
                    poller.reregister(LISTENER, Interest::READABLE).ok();
                    accept_paused = false;
                }
            }
        }
        drop(listener);
        // Wind down: deliver what fits in a bounded blocking flush
        // (SHUTDOWN_OK to the client that asked, tail responses), then
        // close everything.
        for mut conn in conns.into_iter().flatten() {
            conn.stream.set_nonblocking(false).ok();
            conn.stream
                .set_write_timeout(Some(Duration::from_millis(250)))
                .ok();
            let _ = conn.wbuf.flush_to(&mut conn.stream);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        for (_, socket) in &taken {
            let _ = socket.shutdown(std::net::Shutdown::Both);
        }
        for (h, _) in taken {
            let _ = h.join();
        }
        Ok(service)
    }
}

impl Server<ShardRouter> {
    /// The owned router (for in-process reads next to the network
    /// traffic).
    pub fn router(&self) -> &ShardRouter {
        &self.service
    }

    /// A shared handle to the owned router, for in-process operations
    /// that must outlive a borrow of the server — e.g. driving a live
    /// tenant migration ([`ShardRouter::migrate_tenant`]) or a
    /// rebalancer loop from another thread while [`spawn`] owns
    /// the server.
    pub fn router_handle(&self) -> Arc<ShardRouter> {
        Arc::clone(&self.service)
    }

    /// Serve until stopped ([`Server::run`]), then shut the router down
    /// gracefully (drain queues, seal journals) and return the final
    /// stats.
    pub fn serve(self) -> Result<RouterStats> {
        // Ours is the last Arc unless an embedder still holds a
        // `router_handle`.
        match Arc::try_unwrap(self.run()?) {
            Ok(router) => router.shutdown().map_err(serve_to_net),
            Err(_) => Err(NetError::Protocol(
                "router still shared after the server loop stopped".to_string(),
            )),
        }
    }
}

/// One loop-held connection: the non-blocking stream, its session
/// machine, per-connection driver state and the partial-write buffer.
struct ReactorConn {
    stream: TcpStream,
    sm: SessionStateMachine,
    driver: ConnDriver,
    wbuf: WriteBuf,
    closing: bool,
    interest: Interest,
}

/// The loop's own metric series (`docs/OBSERVABILITY.md`).
struct ReactorMetrics {
    wakeups: Arc<Counter>,
    registered: Arc<Gauge>,
    partial_writes: Arc<Counter>,
}

impl ReactorMetrics {
    fn new(registry: &Arc<Registry>) -> ReactorMetrics {
        ReactorMetrics {
            wakeups: registry.counter("net_reactor_wakeups"),
            registered: registry.gauge("net_reactor_registered_conns"),
            partial_writes: registry.counter("net_reactor_partial_writes"),
        }
    }
}

/// Drain the accept backlog into connection slots; returns whether
/// accepting is paused at the connection cap.
#[allow(clippy::too_many_arguments)]
fn accept_ready(
    listener: &TcpListener,
    poller: &mut Poller,
    conns: &mut Vec<Option<ReactorConn>>,
    free: &mut Vec<usize>,
    live: &mut usize,
    config: &ServerConfig,
    stop: &AtomicBool,
    metrics: Option<&ReactorMetrics>,
) -> bool {
    loop {
        if *live >= config.max_connections {
            // At capacity: park the listener (the backlog holds the
            // overflow) until a connection closes.
            poller.reregister(LISTENER, Interest::NONE).ok();
            return true;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stop.load(Ordering::SeqCst) {
                    // A client racing the stop; the main loop exits on
                    // its next check.
                    return false;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                stream.set_nodelay(true).ok();
                let slot = free.pop().unwrap_or_else(|| {
                    conns.push(None);
                    conns.len() - 1
                });
                if poller
                    .register(
                        stream.as_raw_fd(),
                        Token(slot + FIRST_CONN),
                        Interest::READABLE,
                    )
                    .is_err()
                {
                    free.push(slot);
                    continue; // dropping the stream refuses it
                }
                conns[slot] = Some(ReactorConn {
                    stream,
                    sm: new_session(config),
                    driver: ConnDriver::new(config),
                    wbuf: WriteBuf::new(),
                    closing: false,
                    interest: Interest::READABLE,
                });
                *live += 1;
                if let Some(m) = metrics {
                    m.registered.set(*live as i64);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // Transient accept errors (ECONNABORTED, EMFILE): give up
            // on this turn, the listener stays registered.
            Err(_) => return false,
        }
    }
}

/// Pump the session machine's outputs into the write buffer, answering
/// application requests inline — but take no further request while the
/// buffer sits at the high-water mark: an unanswered request keeps the
/// machine from decoding more, so a peer that queries without reading
/// pins at most one read chunk plus the mark.
fn drive_conn<S: Service>(conn: &mut ReactorConn, service: &S, stop: &AtomicBool) -> Handled {
    let mut result = Handled::Done;
    while !(conn.sm.awaiting_response() && conn.wbuf.pending() >= WRITE_HIGH_WATER) {
        let Some(out) = conn.sm.pop_output() else {
            break;
        };
        match out {
            Output::Write(bytes) => conn.wbuf.push(bytes),
            Output::Close => conn.closing = true,
            Output::App { request, decode_ns } => {
                match conn
                    .driver
                    .handle(&mut conn.sm, service, stop, request, decode_ns)
                {
                    Handled::Done => {}
                    Handled::StopServer => result = Handled::StopServer,
                    subscribed @ Handled::Replicate { .. } => return subscribed,
                }
            }
        }
    }
    result
}

/// Flush what the socket takes now and re-arm interest; returns `false`
/// when the connection should close (write error, or it finished
/// closing). Read interest is dropped past the write high-water mark —
/// backpressure against peers that query without reading.
fn flush_and_rearm(
    conn: &mut ReactorConn,
    poller: &mut Poller,
    token: Token,
    metrics: Option<&ReactorMetrics>,
) -> bool {
    match conn.wbuf.flush_to(&mut conn.stream) {
        Ok(FlushProgress::Done) => {}
        Ok(FlushProgress::Partial) => {
            if let Some(m) = metrics {
                m.partial_writes.inc();
            }
        }
        Err(_) => return false,
    }
    if conn.closing && conn.wbuf.is_empty() {
        return false;
    }
    let mut interest = Interest::NONE;
    if !conn.closing && conn.wbuf.pending() < WRITE_HIGH_WATER {
        interest = interest.with(Interest::READABLE);
    }
    if !conn.wbuf.is_empty() {
        interest = interest.with(Interest::WRITABLE);
    }
    if interest != conn.interest {
        if poller.reregister(token, interest).is_err() {
            return false;
        }
        conn.interest = interest;
    }
    true
}

/// Move a connection a [`Reply::Replicate`] answered off the loop onto
/// a dedicated blocking thread running [`replicate`]. Returns the join
/// handle and a socket clone for stop-time force-close.
fn take_over(
    mut conn: ReactorConn,
    shard: usize,
    start: SubscriptionStart,
    sub: Subscription,
) -> Option<(JoinHandle<()>, TcpStream)> {
    let leftover = conn.sm.detach();
    let socket = conn.stream.try_clone().ok()?;
    let join = std::thread::Builder::new()
        .name("corrfuse-net-repl".to_string())
        .spawn(move || {
            let mut stream = conn.stream;
            if stream.set_nonblocking(false).is_err() {
                return;
            }
            // Deliver any responses still queued from request mode
            // before replication writes its own.
            while !conn.wbuf.is_empty() {
                match conn.wbuf.flush_to(&mut stream) {
                    Ok(FlushProgress::Done) => break,
                    Ok(FlushProgress::Partial) => continue,
                    Err(_) => return,
                }
            }
            let _ = replicate(stream, leftover, shard, start, sub);
        })
        .ok()?;
    Some((join, socket))
}

fn serve_to_net(e: ServeError) -> NetError {
    NetError::Protocol(format!("router shutdown failed: {e}"))
}

/// Per-connection cache of the per-frame-type wire histograms
/// (`net_<stage>_ns_<type>`), so the request loop pays one map probe
/// per record instead of a registry lookup with its name formatting.
struct ConnSpans {
    registry: Arc<Registry>,
    cache: HashMap<(&'static str, FrameType), Arc<Histogram>>,
}

impl ConnSpans {
    fn record(&mut self, stage: &'static str, kind: FrameType, ns: u64) {
        let registry = &self.registry;
        self.cache
            .entry((stage, kind))
            .or_insert_with(|| registry.histogram(&format!("net_{stage}_ns_{}", kind.label())))
            .record(ns);
    }
}

/// What [`ConnDriver::handle`] tells the loop beyond "responded".
enum Handled {
    /// The response went through [`SessionStateMachine::respond`].
    Done,
    /// An honoured `SHUTDOWN`: its `SHUTDOWN_OK` is queued; stop the
    /// server once it is flushed.
    StopServer,
    /// The service answered with [`Reply::Replicate`]: the connection
    /// leaves the loop.
    Replicate {
        shard: usize,
        start: SubscriptionStart,
        sub: Subscription,
    },
}

/// Per-connection request handling: answers the session-level requests
/// itself, routes the rest to the [`Service`], and records the
/// per-frame-type wire histograms around both.
struct ConnDriver {
    conn: Conn,
    spans: Option<ConnSpans>,
}

impl ConnDriver {
    fn new(config: &ServerConfig) -> ConnDriver {
        ConnDriver {
            conn: Conn {
                registry: config.metrics.clone(),
                ..Conn::default()
            },
            spans: config.metrics.as_ref().map(|r| ConnSpans {
                registry: Arc::clone(r),
                cache: HashMap::new(),
            }),
        }
    }

    fn handle<S: Service>(
        &mut self,
        sm: &mut SessionStateMachine,
        service: &S,
        stop: &AtomicBool,
        request: Request,
        decode_ns: u64,
    ) -> Handled {
        let req_kind = request.frame_type();
        if let Some(sp) = self.spans.as_mut() {
            sp.record("decode", req_kind, decode_ns);
        }
        let handle_span = Span::start(self.spans.is_some());
        let mut outcome = Handled::Done;
        let reply = match request {
            // The session machine answers HELLO, EPOCH_ACK, gated
            // SHUTDOWN and ACL denials itself; mirror its messages
            // here so a future machine change cannot panic the server.
            Request::Hello { .. } => Reply::Respond(Response::Error {
                code: ErrorCode::Malformed,
                message: "HELLO is only valid as the first frame".to_string(),
            }),
            Request::EpochAck { .. } => Reply::Respond(Response::Error {
                code: ErrorCode::Malformed,
                message: "EPOCH_ACK is only valid in replication mode".to_string(),
            }),
            Request::Ping => Reply::Respond(Response::Pong),
            // The machine only forwards SHUTDOWN when the config
            // honours it.
            Request::Shutdown => {
                outcome = Handled::StopServer;
                Reply::Respond(Response::ShutdownOk)
            }
            request => {
                self.conn.frames = sm.frames();
                self.conn.stopping = stop.load(Ordering::SeqCst);
                // The loop is every connection's only thread: a panic in
                // the service is answered as INTERNAL on this request,
                // and this and every other connection keep being served.
                let conn = &mut self.conn;
                let handled = catch_unwind(AssertUnwindSafe(|| service.handle(request, conn)));
                handled.unwrap_or_else(|_| {
                    Reply::Respond(Response::Error {
                        code: ErrorCode::Internal,
                        message: format!("the {} handler panicked", req_kind.label()),
                    })
                })
            }
        };
        if let Some(sp) = self.spans.as_mut() {
            sp.record("handle", req_kind, handle_span.elapsed_ns());
        }
        let response = match reply {
            Reply::Respond(response) => response,
            Reply::Replicate { shard, start, sub } => {
                return Handled::Replicate { shard, start, sub }
            }
        };
        let (resp_kind, encode_ns) = sm.respond(response);
        if let Some(sp) = self.spans.as_mut() {
            sp.record("encode", resp_kind, encode_ns);
        }
        outcome
    }
}

/// The leader's requests: reads and writes against the router. A
/// successful `SUBSCRIBE` turns its connection into a replication link.
impl Service for ShardRouter {
    fn handle(&self, request: Request, conn: &mut Conn) -> Reply {
        let response = match request {
            Request::Ingest { .. } | Request::Subscribe { .. } if conn.stopping => {
                Response::Error {
                    code: ErrorCode::ShuttingDown,
                    message: "server is stopping".to_string(),
                }
            }
            Request::Ingest { tenant, events } => {
                let n = events.len() as u64;
                match self.ingest(tenant, events) {
                    Ok(()) => {
                        conn.batches += 1;
                        conn.events += n;
                        Response::IngestOk { seq: conn.batches }
                    }
                    Err(e) => error_response(&e),
                }
            }
            Request::Scores { tenant, min_epoch } => {
                match self.scores_at(tenant, min_epoch.unwrap_or(0)) {
                    Ok(scores) => Response::ScoresOk { scores },
                    Err(e) => error_response(&e),
                }
            }
            Request::Decisions { tenant, min_epoch } => {
                match self.decisions_at(tenant, min_epoch.unwrap_or(0)) {
                    Ok(decisions) => Response::DecisionsOk { decisions },
                    Err(e) => error_response(&e),
                }
            }
            Request::Flush => match self.flush() {
                Ok(()) => Response::FlushOk,
                Err(e) => error_response(&e),
            },
            // `min_epoch` is ignored on the leader: its stats are the
            // authoritative present. Followers gate on their applied
            // epoch before answering.
            Request::Stats { min_epoch: _ } => {
                let mut wire = WireStats::from_router(&self.stats());
                wire.conn_frames = conn.frames;
                wire.conn_batches = conn.batches;
                wire.conn_events = conn.events;
                Response::StatsOk { stats: wire }
            }
            Request::Metrics => metrics_response(conn.registry.as_ref(), self),
            Request::Subscribe { shard, from_epoch } => {
                match self.subscribe(shard as usize, from_epoch) {
                    Ok((start, sub)) => {
                        return Reply::Replicate {
                            shard: shard as usize,
                            start,
                            sub,
                        }
                    }
                    Err(e) => error_response(&e),
                }
            }
            other => return Reply::not_routed(&other),
        };
        Reply::Respond(response)
    }
}

/// The `METRICS` reply body: the registry snapshot (when the server has
/// one) plus router-derived series that are always present — the PR 5/6
/// joint-delta, lift-graph and cache counters the frozen `STATS` records
/// deliberately do not carry, and per-shard queue-pressure gauges.
fn metrics_response(registry: Option<&Arc<Registry>>, router: &ShardRouter) -> Response {
    let mut samples = registry.map(|r| r.snapshot()).unwrap_or_default();
    let stats = router.stats();
    let agg = stats.aggregate();
    let counter = |name: &str, v: u64| MetricSample {
        name: name.to_string(),
        value: MetricValue::Counter(v),
    };
    let gauge = |name: &str, v: i64| MetricSample {
        name: name.to_string(),
        value: MetricValue::Gauge(v),
    };
    samples.extend([
        counter("serve_batches", agg.batches),
        counter("serve_merged_batches", agg.merged_batches),
        counter("serve_ingested_events", agg.ingested_events),
        counter("serve_ingest_errors", agg.ingest_errors),
        counter("serve_rescored", agg.rescored),
        counter("serve_flips", agg.flips),
        counter("serve_refit_model", agg.refit_model),
        counter("serve_refit_cluster", agg.refit_cluster),
        counter("serve_refit_full", agg.refit_full),
        counter("serve_ingest_ns_none", agg.ingest_ns_none),
        counter("serve_ingest_ns_model", agg.ingest_ns_model),
        counter("serve_ingest_ns_cluster", agg.ingest_ns_cluster),
        counter("serve_ingest_ns_full", agg.ingest_ns_full),
        counter("serve_joint_delta_rows", agg.joint_delta.delta_rows),
        counter("serve_joint_rescans", agg.joint_delta.rescans),
        counter("serve_joint_invalidations", agg.joint_delta.invalidations),
        gauge(
            "serve_joint_memo_entries",
            agg.joint_delta.memo_entries as i64,
        ),
        counter("serve_joint_memo_evictions", agg.joint_delta.memo_evictions),
        gauge("serve_lift_pairs_exact", agg.lift.pairs_exact as i64),
        counter(
            "serve_lift_pairs_sketch_pruned",
            agg.lift.pairs_sketch_pruned,
        ),
        counter("serve_joint_cache_hits", agg.joint_cache.hits),
        counter("serve_joint_cache_misses", agg.joint_cache.misses),
        counter("serve_score_cache_hits", agg.score_cache.hits),
        counter("serve_score_cache_misses", agg.score_cache.misses),
        counter("serve_journal_rotations", agg.rotations),
        counter("serve_migrations_in", agg.migrations_in),
        counter("serve_migrations_out", agg.migrations_out),
        counter("serve_migrations_failed", agg.migrations_failed),
        gauge("serve_migrations_active", router.migrations_active() as i64),
        gauge("serve_scoring_threads", agg.scoring_threads as i64),
    ]);
    // Per-shard series, read off `RouterStats::shards`. Migration
    // traffic appears only for shards that had some. The lag gauge
    // counts only shards with a live subscriber — an idle tap is not
    // "behind", it has no follower to be behind.
    let mut lag: u64 = 0;
    for s in &stats.shards {
        let i = s.shard;
        if s.migrations_in + s.migrations_out + s.migrations_failed > 0 {
            for (way, v) in [
                ("in", s.migrations_in),
                ("out", s.migrations_out),
                ("failed", s.migrations_failed),
            ] {
                samples.push(counter(&format!("serve_migrations_{way}_shard_{i}"), v));
            }
        }
        for (series, v) in [
            ("serve_queue_depth", s.queue_depth as u64),
            ("serve_queue_high_water", s.max_queue_depth as u64),
            ("serve_epoch", s.epoch),
            ("replica_applied_epoch", s.replica_acked_epoch),
        ] {
            samples.push(gauge(&format!("{series}_shard_{i}"), v as i64));
        }
        if s.replica_subscribers > 0 {
            lag += s.epoch.saturating_sub(s.replica_acked_epoch);
        }
    }
    samples.push(gauge("replica_lag_batches", lag as i64));
    samples.sort_by(|a, b| a.name.cmp(&b.name));
    Response::MetricsOk {
        metrics: WireMetric::from_samples(&samples),
    }
}

fn error_response(e: &ServeError) -> Response {
    Response::Error {
        code: code_of(e),
        message: e.to_string(),
    }
}

/// Replication mode: after the `SUBSCRIBE_OK` goes out, a pusher thread
/// streams the subscription's `BATCH` frames over the write half while
/// this thread reads `EPOCH_ACK`s off the read half and records each on
/// the subscription (the one protocol state where the server sends
/// unsolicited frames — `docs/PROTOCOL.md` §7). `leftover` is whatever
/// the session machine had buffered past the SUBSCRIBE (a pipelined
/// ACK, typically) — it is replayed ahead of the socket. Any other
/// client frame is a protocol violation that ends the connection; the
/// follower resubscribes from its applied epoch.
fn replicate(
    stream: TcpStream,
    leftover: Vec<u8>,
    shard: usize,
    start: SubscriptionStart,
    sub: Subscription,
) -> Result<()> {
    let mut reader = std::io::Cursor::new(leftover).chain(stream.try_clone()?);
    let mut writer = stream;
    let frame = Response::SubscribeOk { start }.to_frame();
    if !frame.fits() {
        // A snapshot dataset past MAX_PAYLOAD cannot be bootstrapped
        // over this protocol version; report instead of wedging the
        // peer's decoder.
        let err = frame.oversize_error();
        Response::Error {
            code: ErrorCode::Internal,
            message: err.to_string(),
        }
        .to_frame()
        .write_to(&mut writer)?;
        writer.flush()?;
        return Err(NetError::Frame(err));
    }
    frame.write_to(&mut writer)?;
    writer.flush()?;
    // Shutdown story: the pusher blocks on the subscription with no
    // deadline and stops when it closes (the ack reader exited, the
    // router shut down, or the tap dropped a fallen-behind follower) or
    // on a write failure; it then shuts the socket down, which unblocks
    // the ack reader. The ack reader, when it exits, shuts the socket
    // down and closes the subscription, which wakes the pusher at once.
    // Neither thread can strand the other.
    let sub = Arc::new(sub);
    let push_sub = Arc::clone(&sub);
    let pusher = std::thread::Builder::new()
        .name("corrfuse-net-push".to_string())
        .spawn(move || {
            while let Some(b) = push_sub.recv() {
                let (_, bytes) = Response::Batch {
                    epoch: b.epoch,
                    text: b.text,
                }
                .encode();
                if writer
                    .write_all(&bytes)
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    break;
                }
            }
            let _ = writer.shutdown(std::net::Shutdown::Both);
        })?;
    let result = loop {
        match Frame::read_from(&mut reader) {
            Ok(Some(frame)) => match Request::from_frame(&frame) {
                Ok(Request::EpochAck { shard: s, epoch }) if s as usize == shard => {
                    sub.ack(epoch);
                }
                Ok(other) => {
                    break Err(NetError::Protocol(format!(
                        "{other:?} is not valid in replication mode"
                    )))
                }
                Err(e) => break Err(NetError::Frame(e)),
            },
            Ok(None) => break Ok(()), // follower left cleanly
            Err(e) => break Err(e),
        }
    };
    let _ = reader.get_ref().1.shutdown(std::net::Shutdown::Both);
    sub.close();
    let _ = pusher.join();
    result
}

/// Run a [`Server`] on a background thread. Returns the stop handle and
/// the join handle yielding the final router stats — the shape tests,
/// benches and embedders want.
pub fn spawn(server: Server) -> Result<(ServerHandle, JoinHandle<Result<RouterStats>>)> {
    let handle = server.handle()?;
    let join = std::thread::Builder::new()
        .name("corrfuse-net-accept".to_string())
        .spawn(move || server.serve())?;
    Ok((handle, join))
}

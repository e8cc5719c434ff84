//! The blocking [`Client`]: connect/retry, pipelined batch sends with
//! at-least-once resend across reconnects, and a read-your-writes
//! [`Client::flush`].
//!
//! # Delivery semantics
//!
//! Ingest is **pipelined**: [`Client::ingest`] writes the batch and
//! returns without waiting for the server's ack; acks drain lazily
//! (when the in-flight window fills) or explicitly via
//! [`Client::sync`] / [`Client::flush`]. Every unacknowledged batch is
//! retained, and on a connection failure the client re-dials (with
//! bounded, backed-off retries) and **resends all unacked batches in
//! their original order**. A batch the server had already applied is
//! then applied twice — which is safe, because ingest events are
//! idempotent *in order*: re-registering a source/triple is a no-op,
//! claim edges and labels are absorbing. At-least-once, FIFO-per-
//! connection delivery therefore preserves the trust anchor: the
//! accumulated dataset (and so every score, bit for bit) is identical
//! to what exactly-once delivery would have produced.
//!
//! The one hazard is **reordering**, which only the `BUSY` path can
//! introduce: a `BUSY` response means *that batch was rejected* while
//! later pipelined batches may have been accepted. The client retries
//! `BUSY` batches transparently (see [`ClientConfig::busy_backoff`]),
//! but a producer whose batches register new sources/triples should
//! either keep [`ClientConfig::max_in_flight`] at 1 when talking to a
//! `Reject`/`Timeout`-backpressure deployment, or rely on the default
//! `Block` policy, under which `BUSY` is never emitted and pipelining
//! is unconditionally order-safe. `docs/PROTOCOL.md` §Backpressure
//! spells out the contract.

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use corrfuse_serve::TenantId;
use corrfuse_stream::Event;

use crate::error::{ErrorCode, NetError, Result};
use crate::frame::{Frame, FrameError, VERSION};
use crate::wire::{Request, Response, WireStats};

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Connection attempts per dial (initial connect and every
    /// reconnect): 1 try plus `connect_retries` retries.
    pub connect_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub retry_backoff: Duration,
    /// Maximum unacknowledged pipelined ingest batches before a send
    /// first drains one ack. 1 disables pipelining (strictly
    /// synchronous, immune to `BUSY` reordering).
    pub max_in_flight: usize,
    /// How many times a `BUSY` rejection of one batch is retried before
    /// surfacing it to the caller.
    pub busy_retries: u32,
    /// Pause before resending a `BUSY` batch; doubles per retry.
    pub busy_backoff: Duration,
    /// Credential presented in every HELLO (initial dial and every
    /// reconnect). `None` (the default) connects unauthenticated —
    /// fine against an open server, `FORBIDDEN` on tenant-scoped
    /// requests against an ACL-configured one.
    pub credential: Option<String>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_retries: 4,
            retry_backoff: Duration::from_millis(25),
            max_in_flight: 64,
            busy_retries: 16,
            busy_backoff: Duration::from_millis(2),
            credential: None,
        }
    }
}

impl ClientConfig {
    /// The defaults: 4 reconnect retries from 25 ms, 64-batch pipeline,
    /// 16 `BUSY` retries from 2 ms.
    pub fn new() -> ClientConfig {
        ClientConfig::default()
    }

    /// Set the per-dial retry budget.
    pub fn with_connect_retries(mut self, retries: u32, backoff: Duration) -> ClientConfig {
        self.connect_retries = retries;
        self.retry_backoff = backoff;
        self
    }

    /// Set the pipelining window (1 = synchronous).
    pub fn with_max_in_flight(mut self, n: usize) -> ClientConfig {
        self.max_in_flight = n.max(1);
        self
    }

    /// Set the `BUSY` retry budget.
    pub fn with_busy_retries(mut self, retries: u32, backoff: Duration) -> ClientConfig {
        self.busy_retries = retries;
        self.busy_backoff = backoff;
        self
    }

    /// Present `credential` in every HELLO (see
    /// [`ClientConfig::credential`]).
    pub fn with_credential(mut self, credential: impl Into<String>) -> ClientConfig {
        self.credential = Some(credential.into());
        self
    }
}

/// One unacknowledged ingest batch: the encoded `INGEST` frame bytes,
/// kept verbatim for resend (encoding is deterministic and immutable,
/// so BUSY retries and reconnect resends rewrite the same bytes with no
/// re-encoding or event clones).
#[derive(Debug, Clone)]
struct Pending {
    bytes: Vec<u8>,
    busy_attempts: u32,
}

/// The blocking protocol client; see the module docs.
#[derive(Debug)]
pub struct Client {
    addr: String,
    config: ClientConfig,
    stream: Option<TcpStream>,
    /// Sent-but-unacked ingest batches, oldest first (responses arrive
    /// in request order, so the front is always the next ack's batch).
    in_flight: VecDeque<Pending>,
    /// Total reconnects performed (initial connect excluded).
    reconnects: u64,
    /// Total batches acknowledged by the server.
    acked: u64,
}

impl Client {
    /// Connect with the default configuration.
    pub fn connect(addr: impl Into<String>) -> Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connect with an explicit configuration (dial + HELLO handshake,
    /// with the configured retry/backoff).
    pub fn connect_with(addr: impl Into<String>, config: ClientConfig) -> Result<Client> {
        let mut client = Client {
            addr: addr.into(),
            config,
            stream: None,
            in_flight: VecDeque::new(),
            reconnects: 0,
            acked: 0,
        };
        client.dial()?;
        Ok(client)
    }

    /// The remote address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Reconnects performed so far (excluding the initial connect).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Ingest batches acknowledged by the server so far.
    pub fn acked_batches(&self) -> u64 {
        self.acked
    }

    /// Unacknowledged pipelined batches.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Dial (or re-dial), run the HELLO handshake and resend the
    /// unacked window, honouring the retry budget. Iterative — a write
    /// failure during the resend just burns one attempt.
    fn dial(&mut self) -> Result<()> {
        self.stream = None;
        let attempts = self.config.connect_retries + 1;
        let mut backoff = self.config.retry_backoff;
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            match self.try_dial() {
                Ok(mut stream) => match resend_window(&mut stream, &self.in_flight) {
                    Ok(()) => {
                        self.stream = Some(stream);
                        return Ok(());
                    }
                    Err(e) => last = e.to_string(),
                },
                // A typed server rejection (UNSUPPORTED_VERSION, ...)
                // is deterministic — retrying cannot succeed, and the
                // caller needs the code, not a flattened string.
                Err(e @ NetError::Remote { .. }) => return Err(e),
                Err(e) => last = e.to_string(),
            }
        }
        Err(NetError::RetriesExhausted { attempts, last })
    }

    fn try_dial(&self) -> Result<TcpStream> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true).ok();
        hello(&mut stream, self.config.credential.clone())?;
        Ok(stream)
    }

    /// Drop the connection (as a crashed network would), keeping the
    /// unacked pipeline. The next operation reconnects and resends —
    /// this is how tests and the examples force mid-stream reconnects.
    pub fn disconnect(&mut self) {
        self.stream = None;
    }

    /// Reconnect now: dial + handshake + resend of every unacked batch,
    /// in original order (see the module docs for why in-order
    /// duplicates are harmless). Called automatically by operations
    /// that hit a transport error.
    pub fn reconnect(&mut self) -> Result<()> {
        self.reconnects += 1;
        self.dial()
    }

    fn stream(&mut self) -> Result<&mut TcpStream> {
        if self.stream.is_none() {
            self.reconnect()?;
        }
        Ok(self.stream.as_mut().expect("connected stream"))
    }

    /// Append one batch to the unacked window and put it on the wire.
    /// A write failure routes through [`Client::reconnect`], whose
    /// window resend includes this batch (it is already queued).
    fn send_pending(&mut self, p: Pending) -> Result<()> {
        self.in_flight.push_back(p);
        if self.stream.is_none() {
            return self.reconnect();
        }
        let bytes = &self.in_flight.back().expect("just pushed").bytes;
        let stream = self.stream.as_mut().expect("connected stream");
        let written = stream.write_all(bytes).and_then(|()| stream.flush());
        match written {
            Ok(()) => Ok(()),
            Err(_) => self.reconnect(),
        }
    }

    /// Pipelined ingest: send one tenant-scoped batch, drain acks only
    /// when the in-flight window is full. Returns once the batch is on
    /// the wire (or queued for the in-progress reconnect) — call
    /// [`Client::sync`] or [`Client::flush`] to wait for
    /// acknowledgements.
    pub fn ingest(&mut self, tenant: TenantId, events: &[Event]) -> Result<()> {
        while self.in_flight.len() >= self.config.max_in_flight {
            self.drain_one_ack()?;
        }
        let frame = Request::ingest_frame(tenant, events);
        if !frame.fits() {
            // The peer's decoder is required to reject oversized
            // frames; refuse locally with the same typed error instead
            // of wedging the connection. Split the batch to proceed.
            return Err(NetError::Frame(frame.oversize_error()));
        }
        self.send_pending(Pending {
            bytes: frame.encode(),
            busy_attempts: 0,
        })
    }

    /// Wait for every pipelined batch to be acknowledged (retrying
    /// `BUSY` rejections and reconnecting on transport errors).
    pub fn sync(&mut self) -> Result<()> {
        while !self.in_flight.is_empty() {
            self.drain_one_ack()?;
        }
        Ok(())
    }

    /// Read one ack off the wire and resolve the oldest in-flight
    /// batch.
    fn drain_one_ack(&mut self) -> Result<()> {
        debug_assert!(!self.in_flight.is_empty());
        let response = {
            let stream = self.stream()?;
            match read_response(stream) {
                Ok(r) => r,
                Err(NetError::Io(_)) | Err(NetError::Frame(FrameError::Truncated { .. })) => {
                    // Connection died with acks outstanding — cleanly
                    // (EOF/reset surfaces as Io) or mid-frame (a torn
                    // response surfaces as Truncated): resend the
                    // window and try again.
                    self.reconnect()?;
                    return Ok(());
                }
                Err(e) => {
                    // Any other framing/protocol error leaves the byte
                    // stream possibly misaligned; discard it so the
                    // next operation re-dials and resends rather than
                    // reading garbage mid-frame forever.
                    self.stream = None;
                    return Err(e);
                }
            }
        };
        match response {
            Response::IngestOk { .. } => {
                self.in_flight.pop_front();
                self.acked += 1;
                Ok(())
            }
            Response::Error { code, message }
                if code == ErrorCode::Busy || code == ErrorCode::Migrating =>
            {
                // Both clear on their own: BUSY as the queue drains,
                // MIGRATING as the tenant's cut-over window closes (the
                // retry then lands on whichever shard serves the tenant).
                let mut p = self.in_flight.pop_front().expect("in-flight batch");
                if p.busy_attempts >= self.config.busy_retries {
                    // Out of retries: the batch is definitively not
                    // applied; surface it and keep the pipeline sane.
                    return Err(NetError::Remote { code, message });
                }
                let pause = self
                    .config
                    .busy_backoff
                    .saturating_mul(1u32 << p.busy_attempts.min(16));
                p.busy_attempts += 1;
                std::thread::sleep(pause);
                self.send_pending(p)
            }
            Response::Error { code, message } => {
                // A fatal rejection (poisoned shard, unknown tenant,
                // shutdown): the server answered — the batch is
                // resolved, just negatively. Drop it from the window so
                // later operations do not wait for a second response
                // that will never come.
                self.in_flight.pop_front();
                Err(NetError::Remote { code, message })
            }
            other => Err(NetError::Protocol(format!(
                "expected INGEST_OK, got {other:?}"
            ))),
        }
    }

    /// Read-your-writes barrier: drain every ack, then ask the server
    /// to apply everything accepted so far. After `flush()` returns,
    /// [`Client::scores`] observes every batch this client ingested.
    pub fn flush(&mut self) -> Result<()> {
        self.sync()?;
        match self.request(Request::Flush)? {
            Response::FlushOk => Ok(()),
            other => unexpected("FLUSH_OK", other),
        }
    }

    /// Posterior scores of `tenant`, in tenant-local `TripleId` order.
    /// The f64 bit patterns travel verbatim: remote reads are bitwise
    /// identical to in-process `ShardRouter::scores`.
    pub fn scores(&mut self, tenant: TenantId) -> Result<Vec<f64>> {
        self.sync()?;
        match self.request(Request::Scores {
            tenant,
            min_epoch: None,
        })? {
            Response::ScoresOk { scores } => Ok(scores),
            other => unexpected("SCORES_OK", other),
        }
    }

    /// Bounded-staleness scores: like [`Client::scores`], but the
    /// answering server (typically a read replica) must have reached
    /// `min_epoch` on the tenant's shard. A server that has not yet
    /// caught up answers with the **retryable** `STALE` error
    /// ([`ErrorCode::Stale`], surfaced as [`NetError::Remote`]) — back
    /// off and resend, or read from the leader.
    pub fn scores_at(&mut self, tenant: TenantId, min_epoch: u64) -> Result<Vec<f64>> {
        self.sync()?;
        match self.request(Request::Scores {
            tenant,
            min_epoch: Some(min_epoch),
        })? {
            Response::ScoresOk { scores } => Ok(scores),
            other => unexpected("SCORES_OK", other),
        }
    }

    /// Accept/reject decisions of `tenant` at the router threshold.
    pub fn decisions(&mut self, tenant: TenantId) -> Result<Vec<bool>> {
        self.sync()?;
        match self.request(Request::Decisions {
            tenant,
            min_epoch: None,
        })? {
            Response::DecisionsOk { decisions } => Ok(decisions),
            other => unexpected("DECISIONS_OK", other),
        }
    }

    /// Bounded-staleness decisions; see [`Client::scores_at`].
    pub fn decisions_at(&mut self, tenant: TenantId, min_epoch: u64) -> Result<Vec<bool>> {
        self.sync()?;
        match self.request(Request::Decisions {
            tenant,
            min_epoch: Some(min_epoch),
        })? {
            Response::DecisionsOk { decisions } => Ok(decisions),
            other => unexpected("DECISIONS_OK", other),
        }
    }

    /// Per-connection and per-shard statistics.
    pub fn stats(&mut self) -> Result<WireStats> {
        self.sync()?;
        match self.request(Request::Stats { min_epoch: None })? {
            Response::StatsOk { stats } => Ok(stats),
            other => unexpected("STATS_OK", other),
        }
    }

    /// Bounded-staleness statistics: every shard in the reply must have
    /// reached `min_epoch`; see [`Client::scores_at`]. The leader
    /// ignores the floor (its stats are never stale).
    pub fn stats_at(&mut self, min_epoch: u64) -> Result<WireStats> {
        self.sync()?;
        match self.request(Request::Stats {
            min_epoch: Some(min_epoch),
        })? {
            Response::StatsOk { stats } => Ok(stats),
            other => unexpected("STATS_OK", other),
        }
    }

    /// Self-describing metrics snapshot: the server's registered
    /// counters, gauges and latency histograms (when the server runs
    /// with a metrics registry) plus the always-present router-derived
    /// series. Entries are sorted by name; histograms convert to
    /// quantile-readable snapshots via
    /// [`crate::wire::WireHistogram::to_snapshot`].
    pub fn metrics(&mut self) -> Result<Vec<crate::wire::WireMetric>> {
        self.sync()?;
        match self.request(Request::Metrics)? {
            Response::MetricsOk { metrics } => Ok(metrics),
            other => unexpected("METRICS_OK", other),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        self.sync()?;
        match self.request(Request::Ping)? {
            Response::Pong => Ok(()),
            other => unexpected("PONG", other),
        }
    }

    /// Ask the server to shut down (only honoured when the server
    /// enables remote shutdown; otherwise a `FORBIDDEN` error).
    pub fn shutdown_server(&mut self) -> Result<()> {
        self.sync()?;
        match self.request(Request::Shutdown)? {
            Response::ShutdownOk => Ok(()),
            other => unexpected("SHUTDOWN_OK", other),
        }
    }

    /// Send one synchronous request and read its response (only valid
    /// with an empty pipeline; callers `sync()` first). `Error`
    /// responses surface as [`NetError::Remote`].
    fn request(&mut self, request: Request) -> Result<Response> {
        debug_assert!(self.in_flight.is_empty(), "sync() before request()");
        let frame = request.to_frame();
        // All synchronous requests are idempotent (queries, barriers,
        // probes), so a connection that died since the last operation
        // gets one transparent reconnect-and-retry; the dead stream is
        // always discarded so the *next* call re-dials too.
        for attempt in 0..2 {
            let stream = self.stream()?;
            let exchanged = frame
                .write_to(stream)
                .and_then(|()| Ok(stream.flush()?))
                .and_then(|()| read_response(stream));
            match exchanged {
                Ok(Response::Error { code, message }) => {
                    return Err(NetError::Remote { code, message })
                }
                Ok(other) => return Ok(other),
                Err(NetError::Io(_)) | Err(NetError::Frame(FrameError::Truncated { .. }))
                    if attempt == 0 =>
                {
                    self.stream = None;
                }
                Err(e) => {
                    self.stream = None;
                    return Err(e);
                }
            }
        }
        unreachable!("second attempt returns")
    }
}

fn unexpected<T>(wanted: &str, got: Response) -> Result<T> {
    Err(NetError::Protocol(format!(
        "expected {wanted}, got {got:?}"
    )))
}

/// Write every window batch to a fresh connection, oldest first (the
/// retained encoded bytes go out verbatim — no re-encoding).
fn resend_window(stream: &mut TcpStream, window: &VecDeque<Pending>) -> Result<()> {
    for p in window {
        stream.write_all(&p.bytes)?;
    }
    stream.flush()?;
    Ok(())
}

/// The `HELLO` exchange that opens every connection: offer exactly
/// [`VERSION`], present `credential` (`docs/PROTOCOL.md` §4.1), and
/// accept only a `HELLO_OK` for that version. A typed rejection
/// surfaces as [`NetError::Remote`].
pub fn hello(stream: &mut TcpStream, credential: Option<String>) -> Result<()> {
    Request::Hello {
        min_version: VERSION,
        max_version: VERSION,
        credential,
    }
    .to_frame()
    .write_to(stream)?;
    stream.flush()?;
    match read_response(stream)? {
        Response::HelloOk { version } if version == VERSION => Ok(()),
        Response::HelloOk { version } => Err(NetError::Protocol(format!(
            "server negotiated unknown version {version}"
        ))),
        Response::Error { code, message } => Err(NetError::Remote { code, message }),
        other => Err(NetError::Protocol(format!(
            "expected HELLO_OK, got {other:?}"
        ))),
    }
}

/// Read one response frame. A connection the server closed between
/// frames is an [`NetError::Io`].
pub fn read_response(stream: &mut TcpStream) -> Result<Response> {
    match Frame::read_from(stream)? {
        Some(frame) => Ok(Response::from_frame(&frame)?),
        None => Err(NetError::Io("connection closed by server".to_string())),
    }
}

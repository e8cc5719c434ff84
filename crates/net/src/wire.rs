//! The message layer: typed [`Request`]s and [`Response`]s over
//! [`Frame`]s.
//!
//! Every payload layout here is specified byte-for-byte in
//! `docs/PROTOCOL.md`. Integers are little-endian. The `INGEST` payload
//! embeds the journal event codec ([`corrfuse_stream::codec`]) as UTF-8
//! text — exactly one `+B`-terminated batch — which is what makes a
//! captured wire stream replayable as a journal: concatenate `INGEST`
//! payloads after a `#corrfuse-journal v1` snapshot prefix and the
//! result parses as a journal file.

use corrfuse_obs::{HistogramSnapshot, MetricSample, MetricValue, BUCKETS};
use corrfuse_serve::{RouterStats, SubscriptionStart, TenantId};
use corrfuse_stream::codec;
use corrfuse_stream::Event;

use crate::error::ErrorCode;
use crate::frame::{write_header, Frame, FrameError, FrameType, HEADER_LEN, VERSION};

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version negotiation; MUST be the first request on a connection.
    /// Carries the inclusive range of protocol versions the client
    /// speaks, plus an optional credential for per-tenant ACLs.
    Hello {
        /// Lowest version the client accepts.
        min_version: u8,
        /// Highest version the client accepts.
        max_version: u8,
        /// Optional bearer credential (`docs/PROTOCOL.md` §4.1): an
        /// optional trailing field on the wire, absent in pre-ACL
        /// encodings, so old clients decode as unauthenticated rather
        /// than malformed. At most `u16::MAX` UTF-8 bytes. Against an
        /// ACL-configured server a missing or unknown credential still
        /// gets `HELLO_OK`; the typed `FORBIDDEN` denial happens per
        /// tenant-scoped request ([`crate::acl`]).
        credential: Option<String>,
    },
    /// One event batch for one tenant.
    Ingest {
        /// The tenant the events belong to (tenant-local ids inside).
        tenant: TenantId,
        /// The batch, in application order.
        events: Vec<Event>,
    },
    /// Posterior scores of one tenant, in tenant-local `TripleId` order.
    Scores {
        /// The queried tenant.
        tenant: TenantId,
        /// Bounded-staleness floor: answer only from state that has
        /// reached this epoch on the tenant's shard, else reply
        /// `STALE`. `None` (the wire default — the field is an optional
        /// trailing u64, absent in pre-replication encodings) reads
        /// whatever is current. The leader is authoritative and always
        /// satisfies the floor it has reached; followers gate on their
        /// applied epoch.
        min_epoch: Option<u64>,
    },
    /// Accept/reject decisions of one tenant.
    Decisions {
        /// The queried tenant.
        tenant: TenantId,
        /// Bounded-staleness floor; see [`Request::Scores::min_epoch`].
        min_epoch: Option<u64>,
    },
    /// Read-your-writes barrier over the whole router.
    Flush,
    /// Per-connection and per-shard statistics.
    Stats {
        /// Bounded-staleness floor applied to **every** shard in the
        /// reply; see [`Request::Scores::min_epoch`]. The leader
        /// ignores it (its stats are never stale).
        min_epoch: Option<u64>,
    },
    /// Liveness probe.
    Ping,
    /// Ask the server to stop accepting and shut down (honoured only
    /// when the server enables remote shutdown).
    Shutdown,
    /// Self-describing metrics snapshot: named counters, gauges and
    /// latency histograms. Unlike [`Request::Stats`]' frozen
    /// fixed-width records, the reply's entries are length-prefixed
    /// and type-tagged, so servers can add metrics without a protocol
    /// rev.
    Metrics,
    /// Open a replication subscription on `shard`, resuming after
    /// `from_epoch` (0 for a fresh follower). On success the server
    /// answers [`Response::SubscribeOk`] and the connection enters
    /// replication mode: the server pushes [`Response::Batch`] frames,
    /// the client sends only [`Request::EpochAck`].
    Subscribe {
        /// The leader shard to replicate.
        shard: u32,
        /// The follower's applied epoch: replication resumes at
        /// `from_epoch + 1`.
        from_epoch: u64,
    },
    /// Replication mode only: every batch up to `epoch` is applied on
    /// the follower. Elicits no response; the leader uses it for lag
    /// accounting (`replica_applied_epoch_shard_*` gauges).
    EpochAck {
        /// The subscribed shard (must match the subscription).
        shard: u32,
        /// The follower's new applied epoch.
        epoch: u64,
    },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Hello accepted; `version` is the negotiated protocol version
    /// (both sides speak it for the rest of the connection).
    HelloOk {
        /// The negotiated version.
        version: u8,
    },
    /// Ingest batch accepted (enqueued; not necessarily applied yet —
    /// use `Flush` for read-your-writes).
    IngestOk {
        /// 1-based count of batches this connection has had accepted.
        seq: u64,
    },
    /// Scores reply.
    ScoresOk {
        /// Posteriors in tenant-local `TripleId` order (f64 bit
        /// patterns travel verbatim, so remote reads are bitwise equal
        /// to local ones).
        scores: Vec<f64>,
    },
    /// Decisions reply.
    DecisionsOk {
        /// Accept/reject per tenant-local triple.
        decisions: Vec<bool>,
    },
    /// Barrier reached: everything accepted before the `Flush` is
    /// applied.
    FlushOk,
    /// Statistics reply.
    StatsOk {
        /// Connection + shard counters.
        stats: WireStats,
    },
    /// Liveness reply.
    Pong,
    /// The server accepted the shutdown request and will stop.
    ShutdownOk,
    /// Metrics reply; entries sorted by name.
    MetricsOk {
        /// Every metric the server chose to expose.
        metrics: Vec<WireMetric>,
    },
    /// Subscription accepted; how the follower bootstraps. Every
    /// subsequent frame on the connection is a server-pushed
    /// [`Response::Batch`].
    SubscribeOk {
        /// Resume from the follower's own state, or rebuild from a
        /// snapshot (`docs/PROTOCOL.md` §5.11).
        start: SubscriptionStart,
    },
    /// One replicated batch (pushed unsolicited in replication mode).
    Batch {
        /// The shard epoch after this batch committed; consecutive
        /// `Batch` frames carry consecutive epochs.
        epoch: u64,
        /// The batch's shard-space events in the journal event codec
        /// (`corrfuse_stream::codec`): event lines plus the `+B`
        /// terminator, exactly the `INGEST` payload tail.
        text: String,
    },
    /// Typed failure; see [`ErrorCode`] for retryability.
    Error {
        /// The protocol error code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Statistics carried by [`Response::StatsOk`]: the serving connection's
/// own counters plus a per-shard view of the router.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames this connection has received (requests, post-handshake).
    pub conn_frames: u64,
    /// Ingest batches this connection has had accepted.
    pub conn_batches: u64,
    /// Events across those batches.
    pub conn_events: u64,
    /// Per-shard router counters, in shard order.
    pub shards: Vec<WireShardStats>,
}

/// One shard's counters as surfaced over the wire (a stable subset of
/// `corrfuse_serve::ShardStats`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireShardStats {
    /// Shard index.
    pub shard: u32,
    /// Tenants hosted.
    pub tenants: u32,
    /// Messages applied by the shard worker.
    pub processed_messages: u64,
    /// Events ingested into the shard session.
    pub ingested_events: u64,
    /// Messages dropped because translation or ingest failed.
    pub ingest_errors: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: u32,
    /// Whether the shard is poisoned (fatal; see
    /// [`ErrorCode::ShardPoisoned`]).
    pub poisoned: bool,
}

impl WireStats {
    /// Build the shard view from live router stats.
    pub fn from_router(router: &RouterStats) -> WireStats {
        WireStats {
            shards: router
                .shards
                .iter()
                .map(|s| WireShardStats {
                    shard: s.shard as u32,
                    tenants: s.tenants as u32,
                    processed_messages: s.processed_messages,
                    ingested_events: s.ingested_events,
                    ingest_errors: s.ingest_errors,
                    queue_depth: s.queue_depth as u32,
                    poisoned: s.poisoned,
                })
                .collect(),
            ..WireStats::default()
        }
    }
}

/// One named metric in a [`Response::MetricsOk`] payload.
///
/// On the wire each metric is a length-prefixed, type-tagged entry
/// (layout in `docs/PROTOCOL.md` §5.9): decoders skip entries whose tag
/// they don't know and ignore trailing bytes inside an entry, so
/// servers can ship new metric kinds — or extend existing ones — to old
/// clients without a protocol rev.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMetric {
    /// Registered metric name (catalog in `docs/OBSERVABILITY.md`).
    pub name: String,
    /// The metric's value.
    pub value: WireMetricValue,
}

/// The typed value of one [`WireMetric`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireMetricValue {
    /// Monotonic counter (wire tag 0).
    Counter(u64),
    /// Instantaneous signed gauge (wire tag 1).
    Gauge(i64),
    /// Log₂ latency histogram (wire tag 2).
    Histogram(WireHistogram),
}

/// A histogram as carried on the wire: totals plus the log₂ bucket
/// array (bucket semantics of [`corrfuse_obs::Histogram`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireHistogram {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Per-bucket counts; servers send [`BUCKETS`] buckets, decoders
    /// accept any length (forward compatibility).
    pub buckets: Vec<u64>,
}

impl WireHistogram {
    /// Convert to a [`HistogramSnapshot`] for quantile readout
    /// (`p50()`/`p99()` etc.); buckets beyond [`BUCKETS`] are dropped,
    /// missing ones read as empty.
    pub fn to_snapshot(&self) -> HistogramSnapshot {
        let mut s = HistogramSnapshot::empty();
        for (i, &b) in self.buckets.iter().take(BUCKETS).enumerate() {
            s.buckets[i] = b;
        }
        s.count = self.count;
        s.sum = self.sum;
        s.max = self.max;
        s
    }
}

impl WireMetric {
    /// Convert a registry snapshot into wire metrics, preserving order.
    pub fn from_samples(samples: &[MetricSample]) -> Vec<WireMetric> {
        samples
            .iter()
            .map(|s| WireMetric {
                name: s.name.clone(),
                value: match &s.value {
                    MetricValue::Counter(v) => WireMetricValue::Counter(*v),
                    MetricValue::Gauge(v) => WireMetricValue::Gauge(*v),
                    MetricValue::Histogram(h) => WireMetricValue::Histogram(WireHistogram {
                        count: h.count,
                        sum: h.sum,
                        max: h.max,
                        buckets: h.buckets.to_vec(),
                    }),
                },
            })
            .collect()
    }

    /// Convert wire metrics back into registry-shaped samples (for
    /// feeding [`corrfuse_obs::export::render_text`] client-side).
    pub fn to_samples(metrics: &[WireMetric]) -> Vec<MetricSample> {
        metrics
            .iter()
            .map(|m| MetricSample {
                name: m.name.clone(),
                value: match &m.value {
                    WireMetricValue::Counter(v) => MetricValue::Counter(*v),
                    WireMetricValue::Gauge(v) => MetricValue::Gauge(*v),
                    WireMetricValue::Histogram(h) => {
                        MetricValue::Histogram(Box::new(h.to_snapshot()))
                    }
                },
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Payload primitives
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(FrameError::BadPayload(format!(
                "payload ends inside {what} ({} of {} bytes left)",
                self.remaining(),
                n
            ))),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(
            self.take(2, what)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self, what: &str) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &str) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// Bytes not yet consumed: the most any declared count can cover,
    /// so decoders size their allocations by it, not by the count.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Whether the payload is exhausted — how optional trailing fields
    /// (the `min_epoch` staleness floor) detect their absence.
    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn finish(self, what: &str) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::BadPayload(format!(
                "{} trailing bytes after {what}",
                self.remaining()
            )))
        }
    }
}

fn utf8<'a>(bytes: &'a [u8], what: &str) -> Result<&'a str, FrameError> {
    std::str::from_utf8(bytes)
        .map_err(|e| FrameError::BadPayload(format!("{what} is not UTF-8: {e}")))
}

// ---------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------

impl Request {
    /// Build an `INGEST` frame from a borrowed batch (no event clone —
    /// the hot path for pipelining clients that keep the encoded bytes
    /// for resend).
    pub fn ingest_frame(tenant: TenantId, events: &[Event]) -> Frame {
        let mut payload = tenant.0.to_le_bytes().to_vec();
        payload.extend_from_slice(codec::encode_batch(events).as_bytes());
        Frame::new(FrameType::Ingest, payload)
    }

    /// The frame type this request encodes to — without encoding it
    /// (the session layer labels per-type latency series on the ingest
    /// hot path, where a throwaway `to_frame` would re-encode the whole
    /// batch).
    pub fn frame_type(&self) -> FrameType {
        match self {
            Request::Hello { .. } => FrameType::Hello,
            Request::Ingest { .. } => FrameType::Ingest,
            Request::Scores { .. } => FrameType::Scores,
            Request::Decisions { .. } => FrameType::Decisions,
            Request::Flush => FrameType::Flush,
            Request::Stats { .. } => FrameType::Stats,
            Request::Ping => FrameType::Ping,
            Request::Shutdown => FrameType::Shutdown,
            Request::Metrics => FrameType::Metrics,
            Request::Subscribe { .. } => FrameType::Subscribe,
            Request::EpochAck { .. } => FrameType::EpochAck,
        }
    }

    /// Encode the request as a frame.
    pub fn to_frame(&self) -> Frame {
        match self {
            Request::Hello {
                min_version,
                max_version,
                credential,
            } => {
                let mut payload = vec![*min_version, *max_version];
                if let Some(cred) = credential {
                    let bytes = cred.as_bytes();
                    let len =
                        u16::try_from(bytes.len()).expect("credential longer than 65535 bytes");
                    payload.extend_from_slice(&len.to_le_bytes());
                    payload.extend_from_slice(bytes);
                }
                Frame::new(FrameType::Hello, payload)
            }
            Request::Ingest { tenant, events } => Request::ingest_frame(*tenant, events),
            Request::Scores { tenant, min_epoch } => {
                let mut payload = tenant.0.to_le_bytes().to_vec();
                if let Some(e) = min_epoch {
                    payload.extend_from_slice(&e.to_le_bytes());
                }
                Frame::new(FrameType::Scores, payload)
            }
            Request::Decisions { tenant, min_epoch } => {
                let mut payload = tenant.0.to_le_bytes().to_vec();
                if let Some(e) = min_epoch {
                    payload.extend_from_slice(&e.to_le_bytes());
                }
                Frame::new(FrameType::Decisions, payload)
            }
            Request::Flush => Frame::new(FrameType::Flush, Vec::new()),
            Request::Stats { min_epoch } => Frame::new(
                FrameType::Stats,
                min_epoch.map_or_else(Vec::new, |e| e.to_le_bytes().to_vec()),
            ),
            Request::Ping => Frame::new(FrameType::Ping, Vec::new()),
            Request::Shutdown => Frame::new(FrameType::Shutdown, Vec::new()),
            Request::Metrics => Frame::new(FrameType::Metrics, Vec::new()),
            Request::Subscribe { shard, from_epoch } => {
                let mut payload = shard.to_le_bytes().to_vec();
                payload.extend_from_slice(&from_epoch.to_le_bytes());
                Frame::new(FrameType::Subscribe, payload)
            }
            Request::EpochAck { shard, epoch } => {
                let mut payload = shard.to_le_bytes().to_vec();
                payload.extend_from_slice(&epoch.to_le_bytes());
                Frame::new(FrameType::EpochAck, payload)
            }
        }
    }

    /// Decode a request frame. Response-typed frames are rejected.
    pub fn from_frame(frame: &Frame) -> Result<Request, FrameError> {
        let mut r = Reader::new(&frame.payload);
        match frame.kind {
            FrameType::Hello => {
                let min_version = r.u8("min_version")?;
                let max_version = r.u8("max_version")?;
                let credential = if r.at_end() {
                    None
                } else {
                    let len = r.u16("credential length")? as usize;
                    Some(utf8(r.take(len, "credential")?, "credential")?.to_string())
                };
                r.finish("HELLO")?;
                Ok(Request::Hello {
                    min_version,
                    max_version,
                    credential,
                })
            }
            FrameType::Ingest => {
                let tenant = TenantId(r.u32("tenant")?);
                let text = utf8(r.rest(), "INGEST event text")?;
                let events = codec::parse_batch(text)
                    .map_err(|e| FrameError::BadPayload(format!("INGEST event text: {e}")))?;
                Ok(Request::Ingest { tenant, events })
            }
            FrameType::Scores => {
                let tenant = TenantId(r.u32("tenant")?);
                let min_epoch = if r.at_end() {
                    None
                } else {
                    Some(r.u64("min_epoch")?)
                };
                r.finish("SCORES")?;
                Ok(Request::Scores { tenant, min_epoch })
            }
            FrameType::Decisions => {
                let tenant = TenantId(r.u32("tenant")?);
                let min_epoch = if r.at_end() {
                    None
                } else {
                    Some(r.u64("min_epoch")?)
                };
                r.finish("DECISIONS")?;
                Ok(Request::Decisions { tenant, min_epoch })
            }
            FrameType::Flush => {
                r.finish("FLUSH")?;
                Ok(Request::Flush)
            }
            FrameType::Stats => {
                let min_epoch = if r.at_end() {
                    None
                } else {
                    Some(r.u64("min_epoch")?)
                };
                r.finish("STATS")?;
                Ok(Request::Stats { min_epoch })
            }
            FrameType::Ping => {
                r.finish("PING")?;
                Ok(Request::Ping)
            }
            FrameType::Shutdown => {
                r.finish("SHUTDOWN")?;
                Ok(Request::Shutdown)
            }
            FrameType::Metrics => {
                r.finish("METRICS")?;
                Ok(Request::Metrics)
            }
            FrameType::Subscribe => {
                let shard = r.u32("shard")?;
                let from_epoch = r.u64("from_epoch")?;
                r.finish("SUBSCRIBE")?;
                Ok(Request::Subscribe { shard, from_epoch })
            }
            FrameType::EpochAck => {
                let shard = r.u32("shard")?;
                let epoch = r.u64("epoch")?;
                r.finish("EPOCH_ACK")?;
                Ok(Request::EpochAck { shard, epoch })
            }
            other => Err(FrameError::BadPayload(format!(
                "frame type {other:?} is not a request"
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------

impl Response {
    /// Encode the response as a frame.
    pub fn to_frame(&self) -> Frame {
        let mut payload = Vec::with_capacity(self.payload_len_hint());
        let kind = self.write_payload(&mut payload);
        Frame::new(kind, payload)
    }

    /// The frame type and wire bytes: `to_frame().encode()` in one buffer
    /// sized up front, without the payload's own allocation and copy.
    pub fn encode(&self) -> (FrameType, Vec<u8>) {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload_len_hint());
        out.resize(HEADER_LEN, 0);
        let kind = self.write_payload(&mut out);
        write_header(&mut out, VERSION, kind);
        (kind, out)
    }

    /// The payload length, exact for every variable-length payload but
    /// `METRICS_OK`'s (which grows as it encodes).
    fn payload_len_hint(&self) -> usize {
        match self {
            Response::ScoresOk { scores } => 4 + 8 * scores.len(),
            Response::DecisionsOk { decisions } => 4 + decisions.len(),
            Response::StatsOk { stats } => 28 + STATS_RECORD_LEN * stats.shards.len(),
            Response::SubscribeOk {
                start: SubscriptionStart::Snapshot { dataset, .. },
            } => 17 + dataset.len(),
            Response::Batch { text, .. } => 8 + text.len(),
            Response::Error { message, .. } => 2 + message.len(),
            _ => 8,
        }
    }

    /// Append the payload to `out`; returns the frame type.
    fn write_payload(&self, out: &mut Vec<u8>) -> FrameType {
        match self {
            Response::HelloOk { version } => {
                out.push(*version);
                FrameType::HelloOk
            }
            Response::IngestOk { seq } => {
                out.extend_from_slice(&seq.to_le_bytes());
                FrameType::IngestOk
            }
            Response::ScoresOk { scores } => {
                out.extend_from_slice(&(scores.len() as u32).to_le_bytes());
                out.extend(scores.iter().flat_map(|s| s.to_bits().to_le_bytes()));
                FrameType::ScoresOk
            }
            Response::DecisionsOk { decisions } => {
                out.extend_from_slice(&(decisions.len() as u32).to_le_bytes());
                out.extend(decisions.iter().map(|&d| d as u8));
                FrameType::DecisionsOk
            }
            Response::FlushOk => FrameType::FlushOk,
            Response::StatsOk { stats } => {
                out.extend_from_slice(&stats.conn_frames.to_le_bytes());
                out.extend_from_slice(&stats.conn_batches.to_le_bytes());
                out.extend_from_slice(&stats.conn_events.to_le_bytes());
                out.extend_from_slice(&(stats.shards.len() as u32).to_le_bytes());
                for s in &stats.shards {
                    out.extend_from_slice(&s.shard.to_le_bytes());
                    out.extend_from_slice(&s.tenants.to_le_bytes());
                    out.extend_from_slice(&s.processed_messages.to_le_bytes());
                    out.extend_from_slice(&s.ingested_events.to_le_bytes());
                    out.extend_from_slice(&s.ingest_errors.to_le_bytes());
                    out.extend_from_slice(&s.queue_depth.to_le_bytes());
                    out.push(s.poisoned as u8);
                }
                FrameType::StatsOk
            }
            Response::Pong => FrameType::Pong,
            Response::ShutdownOk => FrameType::ShutdownOk,
            Response::MetricsOk { metrics } => {
                out.extend_from_slice(&(metrics.len() as u32).to_le_bytes());
                for m in metrics {
                    encode_metric(out, m);
                }
                FrameType::MetricsOk
            }
            Response::SubscribeOk { start } => {
                match start {
                    SubscriptionStart::Resume => out.push(START_RESUME),
                    SubscriptionStart::Snapshot {
                        epoch,
                        dataset,
                        threshold,
                    } => {
                        out.push(START_SNAPSHOT);
                        out.extend_from_slice(&epoch.to_le_bytes());
                        out.extend_from_slice(&threshold.to_bits().to_le_bytes());
                        out.extend_from_slice(dataset.as_bytes());
                    }
                }
                FrameType::SubscribeOk
            }
            Response::Batch { epoch, text } => {
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(text.as_bytes());
                FrameType::Batch
            }
            Response::Error { code, message } => {
                out.extend_from_slice(&(*code as u16).to_le_bytes());
                out.extend_from_slice(message.as_bytes());
                FrameType::Error
            }
        }
    }

    /// Decode a response frame. Request-typed frames are rejected.
    pub fn from_frame(frame: &Frame) -> Result<Response, FrameError> {
        let mut r = Reader::new(&frame.payload);
        match frame.kind {
            FrameType::HelloOk => {
                let version = r.u8("version")?;
                r.finish("HELLO_OK")?;
                Ok(Response::HelloOk { version })
            }
            FrameType::IngestOk => {
                let seq = r.u64("seq")?;
                r.finish("INGEST_OK")?;
                Ok(Response::IngestOk { seq })
            }
            FrameType::ScoresOk => {
                let n = r.u32("score count")? as usize;
                // Take the declared bytes first, so a count the payload
                // cannot hold fails before anything is allocated.
                let bytes = r.take(n.saturating_mul(8), "scores")?;
                let scores = bytes
                    .chunks_exact(8)
                    .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
                    .collect();
                r.finish("SCORES_OK")?;
                Ok(Response::ScoresOk { scores })
            }
            FrameType::DecisionsOk => {
                let n = r.u32("decision count")? as usize;
                let bytes = r.take(n, "decisions")?;
                let mut decisions = Vec::with_capacity(n);
                for &b in bytes {
                    match b {
                        0 => decisions.push(false),
                        1 => decisions.push(true),
                        other => {
                            return Err(FrameError::BadPayload(format!(
                                "decision byte must be 0 or 1, got {other}"
                            )))
                        }
                    }
                }
                r.finish("DECISIONS_OK")?;
                Ok(Response::DecisionsOk { decisions })
            }
            FrameType::FlushOk => {
                r.finish("FLUSH_OK")?;
                Ok(Response::FlushOk)
            }
            FrameType::StatsOk => {
                let conn_frames = r.u64("conn_frames")?;
                let conn_batches = r.u64("conn_batches")?;
                let conn_events = r.u64("conn_events")?;
                let n = r.u32("shard count")? as usize;
                let mut shards = Vec::with_capacity(n.min(r.remaining() / STATS_RECORD_LEN));
                for _ in 0..n {
                    shards.push(WireShardStats {
                        shard: r.u32("shard")?,
                        tenants: r.u32("tenants")?,
                        processed_messages: r.u64("processed_messages")?,
                        ingested_events: r.u64("ingested_events")?,
                        ingest_errors: r.u64("ingest_errors")?,
                        queue_depth: r.u32("queue_depth")?,
                        poisoned: match r.u8("poisoned")? {
                            0 => false,
                            1 => true,
                            other => {
                                return Err(FrameError::BadPayload(format!(
                                    "poisoned byte must be 0 or 1, got {other}"
                                )))
                            }
                        },
                    });
                }
                r.finish("STATS_OK")?;
                Ok(Response::StatsOk {
                    stats: WireStats {
                        conn_frames,
                        conn_batches,
                        conn_events,
                        shards,
                    },
                })
            }
            FrameType::Pong => {
                r.finish("PONG")?;
                Ok(Response::Pong)
            }
            FrameType::ShutdownOk => {
                r.finish("SHUTDOWN_OK")?;
                Ok(Response::ShutdownOk)
            }
            FrameType::MetricsOk => {
                let metrics = decode_metrics(&mut r)?;
                r.finish("METRICS_OK")?;
                Ok(Response::MetricsOk { metrics })
            }
            FrameType::SubscribeOk => {
                let tag = r.u8("subscription start tag")?;
                let start = match tag {
                    START_RESUME => {
                        r.finish("SUBSCRIBE_OK")?;
                        SubscriptionStart::Resume
                    }
                    START_SNAPSHOT => {
                        let epoch = r.u64("snapshot epoch")?;
                        let threshold = f64::from_bits(r.u64("snapshot threshold")?);
                        let dataset = utf8(r.rest(), "snapshot dataset")?.to_string();
                        SubscriptionStart::Snapshot {
                            epoch,
                            dataset,
                            threshold,
                        }
                    }
                    other => {
                        return Err(FrameError::BadPayload(format!(
                            "subscription start tag must be 0 or 1, got {other}"
                        )))
                    }
                };
                Ok(Response::SubscribeOk { start })
            }
            FrameType::Batch => {
                let epoch = r.u64("batch epoch")?;
                let text = utf8(r.rest(), "batch event text")?.to_string();
                Ok(Response::Batch { epoch, text })
            }
            FrameType::Error => {
                let raw = r.u16("error code")?;
                let code = ErrorCode::from_code(raw)
                    .ok_or_else(|| FrameError::BadPayload(format!("unknown error code {raw}")))?;
                let message = utf8(r.rest(), "error message")?.to_string();
                Ok(Response::Error { code, message })
            }
            other => Err(FrameError::BadPayload(format!(
                "frame type {other:?} is not a response"
            ))),
        }
    }
}

/// Bytes of one `STATS_OK` shard record (`docs/PROTOCOL.md` §5.6).
const STATS_RECORD_LEN: usize = 37;

/// Wire tags for [`SubscriptionStart`] in a `SUBSCRIBE_OK` payload.
const START_RESUME: u8 = 0;
const START_SNAPSHOT: u8 = 1;

// ---------------------------------------------------------------------
// METRICS_OK entry codec
// ---------------------------------------------------------------------

/// Wire tags for metric entry kinds. Unknown tags are skipped by
/// decoders, which is what lets the payload grow without a protocol
/// rev.
const TAG_COUNTER: u8 = 0;
const TAG_GAUGE: u8 = 1;
const TAG_HISTOGRAM: u8 = 2;

fn encode_metric(payload: &mut Vec<u8>, m: &WireMetric) {
    // Entry body first, so the length prefix can be computed once.
    let mut body = (m.name.len() as u16).to_le_bytes().to_vec();
    body.extend_from_slice(m.name.as_bytes());
    match &m.value {
        WireMetricValue::Counter(v) => {
            body.push(TAG_COUNTER);
            body.extend_from_slice(&v.to_le_bytes());
        }
        WireMetricValue::Gauge(v) => {
            body.push(TAG_GAUGE);
            body.extend_from_slice(&v.to_le_bytes());
        }
        WireMetricValue::Histogram(h) => {
            body.push(TAG_HISTOGRAM);
            body.extend_from_slice(&h.count.to_le_bytes());
            body.extend_from_slice(&h.sum.to_le_bytes());
            body.extend_from_slice(&h.max.to_le_bytes());
            body.extend_from_slice(&(h.buckets.len() as u16).to_le_bytes());
            for b in &h.buckets {
                body.extend_from_slice(&b.to_le_bytes());
            }
        }
    }
    payload.extend_from_slice(&(body.len() as u32).to_le_bytes());
    payload.extend_from_slice(&body);
}

fn decode_metrics(r: &mut Reader<'_>) -> Result<Vec<WireMetric>, FrameError> {
    let n = r.u32("metric count")? as usize;
    let mut metrics = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let entry_len = r.u32("metric entry length")? as usize;
        let entry = r.take(entry_len, "metric entry")?;
        let mut e = Reader::new(entry);
        let name_len = e.u16("metric name length")? as usize;
        let name = utf8(e.take(name_len, "metric name")?, "metric name")?.to_string();
        let tag = e.u8("metric tag")?;
        // Trailing bytes inside an entry are deliberately tolerated
        // (no `finish()` here): a newer server may append fields to a
        // known kind, and `entry_len` already told us where it ends.
        let value = match tag {
            TAG_COUNTER => WireMetricValue::Counter(e.u64("counter value")?),
            TAG_GAUGE => WireMetricValue::Gauge(e.u64("gauge value")? as i64),
            TAG_HISTOGRAM => {
                let count = e.u64("histogram count")?;
                let sum = e.u64("histogram sum")?;
                let max = e.u64("histogram max")?;
                let nb = e.u16("bucket count")? as usize;
                let mut buckets = Vec::with_capacity(nb.min(1 << 10));
                for _ in 0..nb {
                    buckets.push(e.u64("bucket")?);
                }
                WireMetricValue::Histogram(WireHistogram {
                    count,
                    sum,
                    max,
                    buckets,
                })
            }
            // Unknown kind from a newer server: skip the whole entry.
            _ => continue,
        };
        metrics.push(WireMetric { name, value });
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfuse_core::dataset::SourceId;
    use corrfuse_core::TripleId;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello {
                min_version: 1,
                max_version: 1,
                credential: None,
            },
            Request::Hello {
                min_version: 1,
                max_version: 1,
                credential: Some("tenant-0-writer".to_string()),
            },
            Request::Hello {
                min_version: 1,
                max_version: 3,
                credential: Some(String::new()),
            },
            Request::Ingest {
                tenant: TenantId(7),
                events: vec![
                    Event::add_source("remote\tsource"),
                    Event::add_triple("x", "p", "1"),
                    Event::claim(SourceId(0), TripleId(0)),
                    Event::label(TripleId(0), true),
                ],
            },
            Request::Ingest {
                tenant: TenantId(0),
                events: Vec::new(),
            },
            Request::Scores {
                tenant: TenantId(3),
                min_epoch: None,
            },
            Request::Scores {
                tenant: TenantId(3),
                min_epoch: Some(17),
            },
            Request::Decisions {
                tenant: TenantId(3),
                min_epoch: None,
            },
            Request::Decisions {
                tenant: TenantId(3),
                min_epoch: Some(u64::MAX),
            },
            Request::Flush,
            Request::Stats { min_epoch: None },
            Request::Stats { min_epoch: Some(9) },
            Request::Ping,
            Request::Shutdown,
            Request::Metrics,
            Request::Subscribe {
                shard: 2,
                from_epoch: 0,
            },
            Request::Subscribe {
                shard: 0,
                from_epoch: 1234,
            },
            Request::EpochAck {
                shard: 2,
                epoch: 1235,
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::HelloOk { version: 1 },
            Response::IngestOk { seq: 42 },
            Response::ScoresOk {
                scores: vec![0.25, f64::MIN_POSITIVE, 1.0],
            },
            Response::DecisionsOk {
                decisions: vec![true, false, true],
            },
            Response::FlushOk,
            Response::StatsOk {
                stats: WireStats {
                    conn_frames: 10,
                    conn_batches: 4,
                    conn_events: 99,
                    shards: vec![
                        WireShardStats {
                            shard: 0,
                            tenants: 2,
                            processed_messages: 7,
                            ingested_events: 70,
                            ingest_errors: 1,
                            queue_depth: 3,
                            poisoned: false,
                        },
                        WireShardStats {
                            shard: 1,
                            poisoned: true,
                            ..WireShardStats::default()
                        },
                    ],
                },
            },
            Response::Pong,
            Response::ShutdownOk,
            Response::MetricsOk {
                metrics: Vec::new(),
            },
            Response::MetricsOk {
                metrics: vec![
                    WireMetric {
                        name: "serve_joint_delta_rows".to_string(),
                        value: WireMetricValue::Counter(1234),
                    },
                    WireMetric {
                        name: "serve_queue_depth_0".to_string(),
                        value: WireMetricValue::Gauge(-3),
                    },
                    WireMetric {
                        name: "stream_ingest_ns".to_string(),
                        value: WireMetricValue::Histogram(WireHistogram {
                            count: 5,
                            sum: 900,
                            max: 400,
                            buckets: vec![0, 1, 0, 2, 2],
                        }),
                    },
                ],
            },
            Response::SubscribeOk {
                start: SubscriptionStart::Resume,
            },
            Response::SubscribeOk {
                start: SubscriptionStart::Snapshot {
                    epoch: 41,
                    dataset: "#corrfuse v1\nS\tA\n".to_string(),
                    threshold: 0.5,
                },
            },
            Response::Batch {
                epoch: 42,
                text: "+C\t1\t2\n+B\n".to_string(),
            },
            Response::Error {
                code: ErrorCode::Busy,
                message: "shard 2 queue full".to_string(),
            },
            Response::Error {
                code: ErrorCode::Stale,
                message: "shard 0 is stale: at epoch 3, read demanded 5".to_string(),
            },
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for req in sample_requests() {
            let frame = req.to_frame();
            // Through the byte level too, not just the frame structs.
            let (decoded, _) = Frame::decode(&frame.encode()).unwrap();
            assert_eq!(Request::from_frame(&decoded).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in sample_responses() {
            let frame = resp.to_frame();
            let (decoded, _) = Frame::decode(&frame.encode()).unwrap();
            assert_eq!(Response::from_frame(&decoded).unwrap(), resp);
        }
    }

    #[test]
    fn scores_travel_bitwise() {
        // A 20-score reply, including values `==` cannot tell apart
        // (−0.0 from 0.0) or never finds equal (NaN, payload bits
        // included).
        let mut scores = vec![
            0.1 + 0.2,
            f64::EPSILON,
            1.0 - 1e-16,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 3.0, // subnormal
            f64::from_bits(0x7FF8_DEAD_BEEF_0001),
        ];
        scores.extend((0..12).map(|i| i as f64 / 11.0));
        let resp = Response::ScoresOk {
            scores: scores.clone(),
        };
        let frame = resp.to_frame();
        assert_eq!(frame.payload.len(), 4 + 8 * scores.len());
        match Response::from_frame(&frame).unwrap() {
            Response::ScoresOk { scores: back } => {
                assert_eq!(back.len(), scores.len());
                for (a, b) in back.iter().zip(&scores) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ingest_payload_is_journal_codec_text() {
        let req = Request::Ingest {
            tenant: TenantId(5),
            events: vec![Event::claim(SourceId(1), TripleId(2))],
        };
        let frame = req.to_frame();
        let text = std::str::from_utf8(&frame.payload[4..]).unwrap();
        assert_eq!(text, "+C\t1\t2\n+B\n");
    }

    #[test]
    fn batch_payload_is_epoch_then_journal_codec_text() {
        // The BATCH payload tail is the same codec text as INGEST's, so
        // a follower's apply path and the server's ingest path share one
        // parser.
        let resp = Response::Batch {
            epoch: 7,
            text: "+C\t1\t2\n+B\n".to_string(),
        };
        let frame = resp.to_frame();
        assert_eq!(&frame.payload[..8], &7u64.to_le_bytes());
        assert_eq!(
            std::str::from_utf8(&frame.payload[8..]).unwrap(),
            "+C\t1\t2\n+B\n"
        );
    }

    #[test]
    fn subscribe_payloads_are_the_spec_bytes() {
        // `docs/PROTOCOL.md` §4.6: the shard, then `from_epoch`, both
        // little-endian.
        let subscribe = Request::Subscribe {
            shard: 2,
            from_epoch: 0x0102_0304_0506_0708,
        }
        .to_frame();
        assert_eq!(subscribe.kind, FrameType::Subscribe);
        assert_eq!(subscribe.payload, [2, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1]);

        // §5.11: tag 0 (RESUME) and nothing after it.
        let resume = Response::SubscribeOk {
            start: SubscriptionStart::Resume,
        }
        .to_frame();
        assert_eq!(resume.kind, FrameType::SubscribeOk);
        assert_eq!(resume.payload, [0]);

        // Tag 1 (SNAPSHOT), the epoch, the threshold's bits
        // (0.5 = 0x3FE0_0000_0000_0000), both little-endian, then the
        // dataset as UTF-8.
        let snapshot = Response::SubscribeOk {
            start: SubscriptionStart::Snapshot {
                epoch: 0x0102_0304_0506_0708,
                dataset: "#corrfuse v1\nS\tA\n".to_string(),
                threshold: 0.5,
            },
        }
        .to_frame();
        let mut want = vec![1, 8, 7, 6, 5, 4, 3, 2, 1];
        want.extend([0, 0, 0, 0, 0, 0, 0xE0, 0x3F]);
        want.extend(b"#corrfuse v1\nS\tA\n");
        assert_eq!(snapshot.kind, FrameType::SubscribeOk);
        assert_eq!(snapshot.payload, want);
    }

    #[test]
    fn min_epoch_is_an_optional_trailing_field() {
        // Absent: the pre-replication 4-byte SCORES payload still
        // decodes (wire compatibility with older clients).
        let legacy = Frame::new(FrameType::Scores, 3u32.to_le_bytes().to_vec());
        assert_eq!(
            Request::from_frame(&legacy).unwrap(),
            Request::Scores {
                tenant: TenantId(3),
                min_epoch: None,
            }
        );
        // Present: 4 + 8 bytes.
        let req = Request::Scores {
            tenant: TenantId(3),
            min_epoch: Some(11),
        };
        assert_eq!(req.to_frame().payload.len(), 12);
        // STATS: empty or 8 bytes.
        assert_eq!(
            Request::Stats { min_epoch: None }.to_frame().payload.len(),
            0
        );
        assert_eq!(
            Request::from_frame(&Frame::new(FrameType::Stats, Vec::new())).unwrap(),
            Request::Stats { min_epoch: None }
        );
    }

    #[test]
    fn cross_kind_decoding_is_rejected() {
        let req_frame = Request::Ping.to_frame();
        assert!(Response::from_frame(&req_frame).is_err());
        let resp_frame = Response::Pong.to_frame();
        assert!(Request::from_frame(&resp_frame).is_err());
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        // Truncated tenant id.
        let bad = Frame::new(FrameType::Scores, vec![1, 2]);
        assert!(Request::from_frame(&bad).is_err());
        // Truncated min_epoch (5 bytes after the tenant id).
        let bad = Frame::new(FrameType::Scores, vec![0; 4 + 5]);
        assert!(Request::from_frame(&bad).is_err());
        // Truncated STATS min_epoch.
        let bad = Frame::new(FrameType::Stats, vec![0; 3]);
        assert!(Request::from_frame(&bad).is_err());
        // Truncated SUBSCRIBE and trailing garbage after EPOCH_ACK.
        let bad = Frame::new(FrameType::Subscribe, vec![0; 11]);
        assert!(Request::from_frame(&bad).is_err());
        let bad = Frame::new(FrameType::EpochAck, vec![0; 13]);
        assert!(Request::from_frame(&bad).is_err());
        // Unknown subscription start tag, and trailing bytes on Resume.
        let bad = Frame::new(FrameType::SubscribeOk, vec![7]);
        assert!(Response::from_frame(&bad).is_err());
        let bad = Frame::new(FrameType::SubscribeOk, vec![0, 1]);
        assert!(Response::from_frame(&bad).is_err());
        // Non-UTF-8 batch text.
        let mut payload = 5u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Response::from_frame(&Frame::new(FrameType::Batch, payload)).is_err());
        // Trailing garbage.
        let bad = Frame::new(FrameType::Flush, vec![0]);
        assert!(Request::from_frame(&bad).is_err());
        // Ingest without the +B terminator.
        let mut payload = 3u32.to_le_bytes().to_vec();
        payload.extend_from_slice(b"+C\t0\t0\n");
        assert!(Request::from_frame(&Frame::new(FrameType::Ingest, payload)).is_err());
        // Ingest with two batches.
        let mut payload = 3u32.to_le_bytes().to_vec();
        payload.extend_from_slice(b"+B\n+B\n");
        assert!(Request::from_frame(&Frame::new(FrameType::Ingest, payload)).is_err());
        // Non-UTF-8 ingest text.
        let mut payload = 3u32.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Request::from_frame(&Frame::new(FrameType::Ingest, payload)).is_err());
        // Unknown error code.
        let mut payload = 999u16.to_le_bytes().to_vec();
        payload.extend_from_slice(b"boom");
        assert!(Response::from_frame(&Frame::new(FrameType::Error, payload)).is_err());
        // Bad decision byte.
        let bad = Frame::new(FrameType::DecisionsOk, vec![1, 0, 0, 0, 7]);
        assert!(Response::from_frame(&bad).is_err());
        // A score count the payload cannot hold, and a trailing byte
        // after the declared scores.
        let mut payload = u32::MAX.to_le_bytes().to_vec();
        payload.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        let bad = Frame::new(FrameType::ScoresOk, payload);
        assert!(matches!(
            Response::from_frame(&bad),
            Err(FrameError::BadPayload(_))
        ));
        let mut payload = 1u32.to_le_bytes().to_vec();
        payload.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        payload.push(0);
        let bad = Frame::new(FrameType::ScoresOk, payload);
        assert!(matches!(
            Response::from_frame(&bad),
            Err(FrameError::BadPayload(_))
        ));
        // A shard count the payload cannot hold.
        let mut payload = vec![0; 24];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let bad = Frame::new(FrameType::StatsOk, payload);
        assert!(matches!(
            Response::from_frame(&bad),
            Err(FrameError::BadPayload(_))
        ));
    }

    /// Hand-encode one METRICS_OK entry (the layout under test).
    fn raw_entry(name: &str, tag: u8, body: &[u8]) -> Vec<u8> {
        let mut entry = (name.len() as u16).to_le_bytes().to_vec();
        entry.extend_from_slice(name.as_bytes());
        entry.push(tag);
        entry.extend_from_slice(body);
        let mut out = (entry.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&entry);
        out
    }

    #[test]
    fn metrics_decoder_skips_unknown_tags() {
        // A "newer server" payload: known counter, unknown tag 9 with an
        // opaque body, known gauge. The decoder must keep both known
        // entries and drop the middle one without erroring.
        let mut payload = 3u32.to_le_bytes().to_vec();
        payload.extend_from_slice(&raw_entry("a", 0, &7u64.to_le_bytes()));
        payload.extend_from_slice(&raw_entry("mystery", 9, &[1, 2, 3, 4, 5]));
        payload.extend_from_slice(&raw_entry("b", 1, &(-2i64).to_le_bytes()));
        let frame = Frame::new(FrameType::MetricsOk, payload);
        match Response::from_frame(&frame).unwrap() {
            Response::MetricsOk { metrics } => {
                assert_eq!(
                    metrics,
                    vec![
                        WireMetric {
                            name: "a".to_string(),
                            value: WireMetricValue::Counter(7),
                        },
                        WireMetric {
                            name: "b".to_string(),
                            value: WireMetricValue::Gauge(-2),
                        },
                    ]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn metrics_decoder_tolerates_trailing_entry_bytes() {
        // A known counter whose entry carries extra bytes after the
        // value — a newer server extending the kind. entry_len bounds
        // the skip, so decoding still succeeds.
        let mut body = 7u64.to_le_bytes().to_vec();
        body.extend_from_slice(b"future-field");
        let mut payload = 1u32.to_le_bytes().to_vec();
        payload.extend_from_slice(&raw_entry("a", 0, &body));
        let frame = Frame::new(FrameType::MetricsOk, payload);
        match Response::from_frame(&frame).unwrap() {
            Response::MetricsOk { metrics } => {
                assert_eq!(metrics[0].value, WireMetricValue::Counter(7));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn metrics_decoder_rejects_truncated_entries() {
        // entry_len pointing past the payload end is a typed error.
        let mut payload = 1u32.to_le_bytes().to_vec();
        payload.extend_from_slice(&99u32.to_le_bytes());
        payload.push(0);
        let frame = Frame::new(FrameType::MetricsOk, payload);
        assert!(Response::from_frame(&frame).is_err());
    }

    #[test]
    fn wire_histogram_converts_to_quantile_snapshot() {
        use corrfuse_obs::Histogram;
        let h = Histogram::new();
        for v in [3, 3, 900, 17, 0] {
            h.record(v);
        }
        let snap = h.snapshot();
        let wire = &WireMetric::from_samples(&[corrfuse_obs::MetricSample {
            name: "x".to_string(),
            value: corrfuse_obs::MetricValue::Histogram(Box::new(snap.clone())),
        }])[0];
        match &wire.value {
            WireMetricValue::Histogram(wh) => {
                // Round-trip through the wire shape preserves quantiles.
                let back = wh.to_snapshot();
                assert_eq!(back, snap);
                assert_eq!(back.p50(), snap.p50());
                assert_eq!(back.max, 900);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_codes_roundtrip_and_classify() {
        use corrfuse_serve::ServeError;
        for code in [
            ErrorCode::Malformed,
            ErrorCode::UnsupportedVersion,
            ErrorCode::UnknownTenant,
            ErrorCode::Busy,
            ErrorCode::ShardPoisoned,
            ErrorCode::ShuttingDown,
            ErrorCode::Forbidden,
            ErrorCode::Internal,
            ErrorCode::Stale,
            ErrorCode::Migrating,
        ] {
            assert_eq!(ErrorCode::from_code(code as u16), Some(code));
            // Busy clears as queues drain; Stale clears as the replica
            // catches up; Migrating clears as the cut-over window
            // closes. Everything else is deterministic.
            assert_eq!(
                code.is_retryable(),
                matches!(
                    code,
                    ErrorCode::Busy | ErrorCode::Stale | ErrorCode::Migrating
                )
            );
        }
        assert_eq!(ErrorCode::from_code(0), None);
        assert_eq!(
            crate::error::code_of(&ServeError::Backpressure { shard: 0, depth: 1 }),
            ErrorCode::Busy
        );
        assert_eq!(
            crate::error::code_of(&ServeError::ShardPoisoned {
                shard: 0,
                reason: "x".into()
            }),
            ErrorCode::ShardPoisoned
        );
        assert_eq!(
            crate::error::code_of(&ServeError::UnknownTenant(TenantId(1))),
            ErrorCode::UnknownTenant
        );
        assert_eq!(
            crate::error::code_of(&ServeError::ShuttingDown),
            ErrorCode::ShuttingDown
        );
        assert_eq!(
            crate::error::code_of(&ServeError::Stale {
                shard: 0,
                epoch: 3,
                min_epoch: 5
            }),
            ErrorCode::Stale
        );
        assert_eq!(
            crate::error::code_of(&ServeError::TenantMigrating {
                tenant: TenantId(3)
            }),
            ErrorCode::Migrating
        );
        assert_eq!(
            crate::error::code_of(&ServeError::InvalidConfig("x")),
            ErrorCode::Internal
        );
    }
}

//! The session layer: a pure, sans-I/O per-connection state machine.
//!
//! [`SessionStateMachine`] consumes arbitrary byte chunks
//! ([`SessionStateMachine::feed`]) and emits [`Output`]s — bytes to put
//! on the wire, application requests for the driver to answer, or a
//! close. It owns everything about a connection that is *protocol*, not
//! *transport*:
//!
//! * HELLO-first enforcement and version negotiation, including the
//!   credential capture and ACL resolution ([`crate::acl`]);
//! * incremental frame decoding over a buffer that grows only with
//!   bytes actually received (a declared-but-unsent 64 MiB payload pins
//!   nothing beyond what arrived — the slow-loris bound is structural);
//! * framing errors → typed `MALFORMED` + close (the stream may be
//!   mis-aligned), frame-aligned payload errors → `MALFORMED` + keep
//!   serving;
//! * per-tenant ACL denial with the typed `FORBIDDEN` code, answered
//!   without the request ever reaching the driver;
//! * protocol-state rules: repeated HELLO, `EPOCH_ACK` outside
//!   replication, `SHUTDOWN` against a server that disabled it.
//!
//! No sockets, no threads, no clocks: behaviour is a pure function of
//! the byte stream and the [`SessionConfig`], which is what lets the
//! byte-at-a-time property in `tests/codec_fuzz.rs` drive it with
//! random chunk splits and demand identical outputs. (A machine built
//! [`SessionStateMachine::with_timing`] reads the monotonic clock around
//! decode and encode for latency *attribution*; the readings never
//! influence behaviour.) Every server endpoint — the leader and each
//! read-only follower, all on the one `poll(2)` loop
//! ([`crate::server::Server::run`]) — drives this same machine,
//! which is what pins them to identical wire behaviour.
//!
//! Driver contract: after feeding bytes, pop outputs until `None`. A
//! [`Output::Write`] goes on the wire in order; an [`Output::App`] must
//! be answered with [`SessionStateMachine::respond`] before the machine
//! will decode further frames (that ordering is what keeps pipelined
//! responses in request order, and what lets a driver pause popping
//! while [`SessionStateMachine::awaiting_response`] holds — its write
//! backpressure); [`Output::Close`] means flush then close. A
//! successful `SUBSCRIBE` leaves request/response for good:
//! the driver calls [`SessionStateMachine::detach`] and takes over the
//! raw stream (plus any bytes the machine had already buffered).

use std::collections::VecDeque;
use std::sync::Arc;

use corrfuse_obs::Span;

use crate::acl::{Access, AclTable};
use crate::error::ErrorCode;
use crate::frame::{oversize, Frame, FrameError, FrameType, HEADER_LEN, VERSION};
use crate::wire::{Request, Response};

/// Session-layer policy, extracted from the server configuration.
#[derive(Debug, Clone, Default)]
pub struct SessionConfig {
    /// Honour remote `SHUTDOWN` requests (off by default).
    pub accept_shutdown: bool,
    /// Per-tenant ACL table; `None` leaves the server open.
    pub acl: Option<Arc<AclTable>>,
}

impl SessionConfig {
    /// The defaults: shutdown refused, no ACL.
    pub fn new() -> SessionConfig {
        SessionConfig::default()
    }

    /// Honour remote `SHUTDOWN` requests.
    pub fn with_accept_shutdown(mut self, allow: bool) -> SessionConfig {
        self.accept_shutdown = allow;
        self
    }

    /// Enforce `acl` on tenant-scoped requests and `SUBSCRIBE`.
    pub fn with_acl(mut self, acl: Arc<AclTable>) -> SessionConfig {
        self.acl = Some(acl);
        self
    }
}

/// One instruction from the session machine to its driver.
#[derive(Debug)]
pub enum Output {
    /// Put these bytes on the wire, in emission order.
    Write(Vec<u8>),
    /// An application request the driver must answer via
    /// [`SessionStateMachine::respond`]. The machine decodes no further
    /// frames until it is answered, so responses stay in request order.
    App {
        /// The decoded request.
        request: Request,
        /// Decode nanoseconds: the frame's CRC check and payload copy
        /// plus the request decode (0 unless the machine is timed).
        decode_ns: u64,
    },
    /// Flush pending writes, then close the connection.
    Close,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    AwaitHello,
    Ready,
    /// The driver took the stream over (replication hand-off).
    Detached,
    Closed,
}

/// The per-connection session state machine; see the module docs.
pub struct SessionStateMachine {
    config: SessionConfig,
    /// Time decode and encode ([`SessionStateMachine::with_timing`]).
    timed: bool,
    phase: Phase,
    buf: Vec<u8>,
    cursor: usize,
    out: VecDeque<Output>,
    /// The frame type of the App output awaiting [`respond`]
    /// (`respond` = [`SessionStateMachine::respond`]).
    pending_app: Option<FrameType>,
    /// Set when the pending App is an honoured `SHUTDOWN`: its response
    /// is the connection's last frame.
    close_after_respond: bool,
    frames: u64,
    access: Access,
    credential: Option<String>,
}

impl std::fmt::Debug for SessionStateMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionStateMachine")
            .field("phase", &self.phase)
            .field("buffered", &self.buffered())
            .field("frames", &self.frames)
            .field("pending_app", &self.pending_app)
            .finish()
    }
}

impl SessionStateMachine {
    /// A fresh session awaiting its HELLO.
    pub fn new(config: SessionConfig) -> SessionStateMachine {
        let access = if config.acl.is_some() {
            // Until the handshake resolves a credential, an ACL'd
            // server grants nothing.
            Access::Denied
        } else {
            Access::Open
        };
        SessionStateMachine {
            config,
            timed: false,
            phase: Phase::AwaitHello,
            buf: Vec::new(),
            cursor: 0,
            out: VecDeque::new(),
            pending_app: None,
            close_after_respond: false,
            frames: 0,
            access,
            credential: None,
        }
    }

    /// Time each decode and encode on the monotonic clock, for latency
    /// attribution: [`Output::App`]'s `decode_ns` and
    /// [`SessionStateMachine::respond`]'s encode nanoseconds. Untimed
    /// (the default), both are 0 and the machine reads no clock.
    pub fn with_timing(mut self, timed: bool) -> SessionStateMachine {
        self.timed = timed;
        self
    }

    /// Consume one chunk of received bytes (any split, including one
    /// byte at a time) and advance the machine.
    pub fn feed(&mut self, bytes: &[u8]) {
        if matches!(self.phase, Phase::Closed | Phase::Detached) {
            return;
        }
        self.buf.extend_from_slice(bytes);
        self.process();
    }

    /// The next driver instruction, if any.
    pub fn pop_output(&mut self) -> Option<Output> {
        self.out.pop_front()
    }

    /// Answer the pending [`Output::App`]. Encodes the response
    /// (substituting a typed `INTERNAL` error for anything past the
    /// payload cap, so an un-decodable frame never goes on the wire),
    /// queues it as a [`Output::Write`], and resumes decoding buffered
    /// frames. Returns the encoded frame's type and the encode
    /// nanoseconds, for the driver's wire histograms.
    pub fn respond(&mut self, response: Response) -> (FrameType, u64) {
        debug_assert!(self.pending_app.is_some(), "respond without a pending App");
        let (kind, ns) = self.push_response(&response);
        self.pending_app = None;
        if self.close_after_respond {
            self.out.push_back(Output::Close);
            self.phase = Phase::Closed;
        } else {
            self.process();
        }
        (kind, ns)
    }

    /// Leave request/response mode for good (replication hand-off): the
    /// driver owns the raw stream from here. Returns any bytes the
    /// machine had buffered beyond the last consumed frame — the driver
    /// must treat them as already received.
    pub fn detach(&mut self) -> Vec<u8> {
        self.phase = Phase::Detached;
        self.pending_app = None;
        let leftover = self.buf.split_off(self.cursor);
        self.buf.clear();
        self.cursor = 0;
        leftover
    }

    /// Frames decoded on this connection so far (including the HELLO
    /// and frames whose payload failed to decode).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Bytes currently buffered awaiting a complete frame. Grows only
    /// with bytes actually received — the slow-loris property pins
    /// `buffered() == bytes fed` while a frame is incomplete.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.cursor
    }

    /// The credential presented in the HELLO, if any.
    pub fn credential(&self) -> Option<&str> {
        self.credential.as_deref()
    }

    /// The connection's resolved ACL grant.
    pub fn access(&self) -> &Access {
        &self.access
    }

    /// Whether the machine has emitted [`Output::Close`] (no further
    /// input will be processed).
    pub fn is_closed(&self) -> bool {
        self.phase == Phase::Closed
    }

    /// Whether an [`Output::App`] is waiting for
    /// [`SessionStateMachine::respond`].
    pub fn awaiting_response(&self) -> bool {
        self.pending_app.is_some()
    }

    // -----------------------------------------------------------------
    // Internals
    // -----------------------------------------------------------------

    /// Decode as many buffered frames as the protocol allows right now:
    /// stops at an incomplete frame, at an unanswered App, or when the
    /// session closes.
    fn process(&mut self) {
        while self.pending_app.is_none() && matches!(self.phase, Phase::AwaitHello | Phase::Ready) {
            let avail = &self.buf[self.cursor..];
            if avail.is_empty() {
                break;
            }
            // Decode time starts before the frame's CRC check and
            // payload copy, as encode time ends after the reply's.
            let decode = Span::start(self.timed);
            match Frame::decode(avail) {
                Ok((frame, used)) => {
                    self.cursor += used;
                    self.frames += 1;
                    self.on_frame(&frame, decode);
                }
                Err(FrameError::Truncated { .. }) => break,
                Err(e) => {
                    // The stream may be mis-aligned after a framing
                    // error; answer and close rather than guess at a
                    // resync point.
                    self.push_error(ErrorCode::Malformed, e.to_string());
                    self.out.push_back(Output::Close);
                    self.phase = Phase::Closed;
                    break;
                }
            }
        }
        self.compact();
    }

    /// Handle one complete frame; `decode` was started before
    /// [`Frame::decode`].
    fn on_frame(&mut self, frame: &Frame, decode: Span) {
        let decoded = Request::from_frame(frame);
        let decode_ns = decode.elapsed_ns();
        match self.phase {
            Phase::AwaitHello => self.on_handshake(decoded),
            Phase::Ready => match decoded {
                Ok(request) => self.on_request(request, decode_ns),
                // Frame-aligned but undecodable payload: report and
                // keep serving.
                Err(e) => self.push_error(ErrorCode::Malformed, e.to_string()),
            },
            Phase::Detached | Phase::Closed => unreachable!("process() gates on phase"),
        }
    }

    fn on_handshake(&mut self, decoded: Result<Request, FrameError>) {
        match decoded {
            Ok(Request::Hello {
                min_version,
                max_version,
                credential,
            }) => {
                if min_version <= VERSION && VERSION <= max_version {
                    if let Some(acl) = &self.config.acl {
                        self.access = acl.resolve(credential.as_deref());
                    }
                    self.credential = credential;
                    self.push_response(&Response::HelloOk { version: VERSION });
                    self.phase = Phase::Ready;
                } else {
                    self.push_error(
                        ErrorCode::UnsupportedVersion,
                        format!(
                            "server speaks version {VERSION}, \
                             client offered {min_version}..={max_version}"
                        ),
                    );
                    self.out.push_back(Output::Close);
                    self.phase = Phase::Closed;
                }
            }
            Ok(_) | Err(_) => {
                self.push_error(
                    ErrorCode::Malformed,
                    "the first frame on a connection must be HELLO".to_string(),
                );
                self.out.push_back(Output::Close);
                self.phase = Phase::Closed;
            }
        }
    }

    fn on_request(&mut self, request: Request, decode_ns: u64) {
        match &request {
            Request::Hello { .. } => {
                self.push_error(
                    ErrorCode::Malformed,
                    "HELLO is only valid as the first frame".to_string(),
                );
                return;
            }
            Request::EpochAck { .. } => {
                self.push_error(
                    ErrorCode::Malformed,
                    "EPOCH_ACK is only valid in replication mode".to_string(),
                );
                return;
            }
            Request::Shutdown if !self.config.accept_shutdown => {
                self.push_error(
                    ErrorCode::Forbidden,
                    "remote shutdown is disabled on this server".to_string(),
                );
                return;
            }
            Request::Ingest { tenant, .. }
            | Request::Scores { tenant, .. }
            | Request::Decisions { tenant, .. }
                if !self.access.allows_tenant(*tenant) =>
            {
                self.push_error(
                    ErrorCode::Forbidden,
                    format!("credential does not grant access to tenant {}", tenant.0),
                );
                return;
            }
            Request::Subscribe { .. } if !self.access.allows_replication() => {
                self.push_error(
                    ErrorCode::Forbidden,
                    "credential does not grant replication (whole-shard access)".to_string(),
                );
                return;
            }
            _ => {}
        }
        if matches!(request, Request::Shutdown) {
            self.close_after_respond = true;
        }
        self.pending_app = Some(request.frame_type());
        self.out.push_back(Output::App { request, decode_ns });
    }

    /// Encode `response` into one buffer and queue it; the timing
    /// covers the CRC.
    fn push_response(&mut self, response: &Response) -> (FrameType, u64) {
        let encode = Span::start(self.timed);
        let (mut kind, mut bytes) = response.encode();
        if let Some(e) = oversize(bytes.len() - HEADER_LEN) {
            // Never put a frame on the wire the peer must reject (the
            // decoder enforces MAX_PAYLOAD); report the overflow as a
            // typed error instead.
            (kind, bytes) = Response::Error {
                code: ErrorCode::Internal,
                message: e.to_string(),
            }
            .encode();
        }
        let ns = encode.elapsed_ns();
        self.out.push_back(Output::Write(bytes));
        (kind, ns)
    }

    fn push_error(&mut self, code: ErrorCode, message: String) {
        self.push_response(&Response::Error { code, message });
    }

    /// Drop consumed bytes once they dominate the buffer, so decoding
    /// many frames from one connection stays linear, not quadratic.
    fn compact(&mut self) {
        if self.cursor > 0 && (self.cursor == self.buf.len() || self.cursor >= 64 * 1024) {
            self.buf.drain(..self.cursor);
            self.cursor = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfuse_serve::TenantId;

    fn hello_bytes(credential: Option<&str>) -> Vec<u8> {
        Request::Hello {
            min_version: VERSION,
            max_version: VERSION,
            credential: credential.map(str::to_string),
        }
        .to_frame()
        .encode()
    }

    fn drain(sm: &mut SessionStateMachine) -> Vec<Output> {
        std::iter::from_fn(|| sm.pop_output()).collect()
    }

    fn decode_writes(outputs: &[Output]) -> Vec<Response> {
        let mut bytes = Vec::new();
        for o in outputs {
            if let Output::Write(b) = o {
                bytes.extend_from_slice(b);
            }
        }
        let mut responses = Vec::new();
        let mut pos = 0;
        while pos < bytes.len() {
            let (frame, used) = Frame::decode(&bytes[pos..]).unwrap();
            responses.push(Response::from_frame(&frame).unwrap());
            pos += used;
        }
        responses
    }

    #[test]
    fn handshake_then_app_requests() {
        let mut sm = SessionStateMachine::new(SessionConfig::new());
        sm.feed(&hello_bytes(None));
        sm.feed(&Request::Ping.to_frame().encode());
        let hello_out = drain(&mut sm);
        assert_eq!(
            decode_writes(&hello_out),
            vec![Response::HelloOk { version: VERSION }]
        );
        assert!(matches!(
            hello_out.last(),
            Some(Output::App {
                request: Request::Ping,
                ..
            })
        ));
        assert!(sm.awaiting_response());
        sm.respond(Response::Pong);
        assert_eq!(decode_writes(&drain(&mut sm)), vec![Response::Pong]);
        assert_eq!(sm.frames(), 2);
    }

    #[test]
    fn apps_are_serialized_until_answered() {
        let mut sm = SessionStateMachine::new(SessionConfig::new());
        let mut bytes = hello_bytes(None);
        bytes.extend(Request::Ping.to_frame().encode());
        bytes.extend(Request::Flush.to_frame().encode());
        sm.feed(&bytes);
        let first = drain(&mut sm);
        assert!(
            matches!(
                first.last(),
                Some(Output::App {
                    request: Request::Ping,
                    ..
                })
            ),
            "second request must wait for the first response: {first:?}"
        );
        sm.respond(Response::Pong);
        let second = drain(&mut sm);
        assert!(matches!(
            second.last(),
            Some(Output::App {
                request: Request::Flush,
                ..
            })
        ));
        assert_eq!(decode_writes(&second), vec![Response::Pong]);
        sm.respond(Response::FlushOk);
        assert_eq!(decode_writes(&drain(&mut sm)), vec![Response::FlushOk]);
    }

    #[test]
    fn first_frame_must_be_hello() {
        let mut sm = SessionStateMachine::new(SessionConfig::new());
        sm.feed(&Request::Ping.to_frame().encode());
        let out = drain(&mut sm);
        assert!(matches!(out.last(), Some(Output::Close)));
        match decode_writes(&out).as_slice() {
            [Response::Error { code, .. }] => assert_eq!(*code, ErrorCode::Malformed),
            other => panic!("expected one error, got {other:?}"),
        }
        assert!(sm.is_closed());
    }

    #[test]
    fn version_mismatch_closes_with_typed_error() {
        let mut sm = SessionStateMachine::new(SessionConfig::new());
        sm.feed(
            &Request::Hello {
                min_version: 2,
                max_version: 9,
                credential: None,
            }
            .to_frame()
            .encode(),
        );
        let out = drain(&mut sm);
        match decode_writes(&out).as_slice() {
            [Response::Error { code, .. }] => assert_eq!(*code, ErrorCode::UnsupportedVersion),
            other => panic!("expected one error, got {other:?}"),
        }
        assert!(sm.is_closed());
    }

    #[test]
    fn framing_error_answers_then_closes() {
        let mut sm = SessionStateMachine::new(SessionConfig::new());
        sm.feed(&hello_bytes(None));
        drain(&mut sm);
        sm.feed(b"XXXXXXXXXXXXXXXXXX");
        let out = drain(&mut sm);
        assert!(matches!(out.last(), Some(Output::Close)));
        match decode_writes(&out).as_slice() {
            [Response::Error { code, .. }] => assert_eq!(*code, ErrorCode::Malformed),
            other => panic!("expected one error, got {other:?}"),
        }
    }

    #[test]
    fn partial_frame_pins_only_received_bytes() {
        let mut sm = SessionStateMachine::new(SessionConfig::new());
        sm.feed(&hello_bytes(None));
        drain(&mut sm);
        // A header declaring MAX_PAYLOAD, then silence: buffered() must
        // track exactly what was fed.
        let mut header = Vec::new();
        header.extend_from_slice(b"CRFN");
        header.push(VERSION);
        header.push(FrameType::Ingest as u8);
        header.extend_from_slice(&crate::frame::MAX_PAYLOAD.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        for (i, b) in header.iter().enumerate() {
            sm.feed(std::slice::from_ref(b));
            assert_eq!(sm.buffered(), i + 1);
        }
        assert!(
            drain(&mut sm).is_empty(),
            "no output for an unfinished frame"
        );
        sm.feed(&[0u8; 1024]);
        assert_eq!(sm.buffered(), header.len() + 1024);
    }

    #[test]
    fn acl_denies_tenant_scoped_requests_without_closing() {
        let acl = Arc::new(AclTable::new().allow("writer", [TenantId(0)]));
        let config = SessionConfig::new().with_acl(acl);

        // Wrong credential: HELLO_OK, then FORBIDDEN on every
        // tenant-scoped request, while PING still works.
        let mut sm = SessionStateMachine::new(config.clone());
        sm.feed(&hello_bytes(Some("intruder")));
        sm.feed(
            &Request::Scores {
                tenant: TenantId(0),
                min_epoch: None,
            }
            .to_frame()
            .encode(),
        );
        sm.feed(&Request::Ping.to_frame().encode());
        let out = drain(&mut sm);
        assert!(matches!(
            out.last(),
            Some(Output::App {
                request: Request::Ping,
                ..
            })
        ));
        sm.respond(Response::Pong);
        let mut all = out;
        all.extend(drain(&mut sm));
        let responses = decode_writes(&all);
        assert_eq!(responses[0], Response::HelloOk { version: VERSION });
        assert!(
            matches!(
                &responses[1],
                Response::Error {
                    code: ErrorCode::Forbidden,
                    ..
                }
            ),
            "{responses:?}"
        );
        assert_eq!(*responses.last().unwrap(), Response::Pong);

        // Right credential: the allowed tenant reaches the app, the
        // denied one does not, and replication is refused for a scoped
        // grant.
        let mut sm = SessionStateMachine::new(config);
        sm.feed(&hello_bytes(Some("writer")));
        sm.feed(
            &Request::Scores {
                tenant: TenantId(0),
                min_epoch: None,
            }
            .to_frame()
            .encode(),
        );
        let out = drain(&mut sm);
        assert!(matches!(
            out.last(),
            Some(Output::App {
                request: Request::Scores { .. },
                ..
            })
        ));
        sm.respond(Response::ScoresOk { scores: vec![] });
        sm.feed(
            &Request::Scores {
                tenant: TenantId(1),
                min_epoch: None,
            }
            .to_frame()
            .encode(),
        );
        sm.feed(
            &Request::Subscribe {
                shard: 0,
                from_epoch: 0,
            }
            .to_frame()
            .encode(),
        );
        let responses = decode_writes(&drain(&mut sm));
        let forbidden = responses
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Response::Error {
                        code: ErrorCode::Forbidden,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(
            forbidden, 2,
            "denied tenant + scoped SUBSCRIBE: {responses:?}"
        );
        assert!(!sm.is_closed());
    }

    #[test]
    fn shutdown_gating_and_close_after_response() {
        let mut sm = SessionStateMachine::new(SessionConfig::new());
        sm.feed(&hello_bytes(None));
        sm.feed(&Request::Shutdown.to_frame().encode());
        let responses = decode_writes(&drain(&mut sm));
        assert!(matches!(
            &responses[1],
            Response::Error {
                code: ErrorCode::Forbidden,
                ..
            }
        ));
        assert!(!sm.is_closed());

        let mut sm = SessionStateMachine::new(SessionConfig::new().with_accept_shutdown(true));
        sm.feed(&hello_bytes(None));
        sm.feed(&Request::Shutdown.to_frame().encode());
        let out = drain(&mut sm);
        assert!(matches!(
            out.last(),
            Some(Output::App {
                request: Request::Shutdown,
                ..
            })
        ));
        sm.respond(Response::ShutdownOk);
        let out = drain(&mut sm);
        assert!(matches!(out.last(), Some(Output::Close)));
        assert!(sm.is_closed());
    }

    #[test]
    fn detach_returns_unconsumed_bytes() {
        let mut sm = SessionStateMachine::new(SessionConfig::new());
        sm.feed(&hello_bytes(None));
        drain(&mut sm);
        let sub = Request::Subscribe {
            shard: 1,
            from_epoch: 4,
        }
        .to_frame()
        .encode();
        let ack = Request::EpochAck { shard: 1, epoch: 5 }.to_frame().encode();
        let mut bytes = sub;
        bytes.extend_from_slice(&ack);
        sm.feed(&bytes);
        assert!(matches!(
            drain(&mut sm).last(),
            Some(Output::App {
                request: Request::Subscribe { .. },
                ..
            })
        ));
        let leftover = sm.detach();
        assert_eq!(leftover, ack, "the pipelined ACK belongs to the driver now");
        sm.feed(b"ignored");
        assert!(drain(&mut sm).is_empty());
    }

    #[test]
    fn encode_is_byte_identical_to_the_frame_path() {
        let responses = [
            Response::ScoresOk {
                scores: vec![0.25, f64::NAN, -1.0],
            },
            Response::Batch {
                epoch: 9,
                text: "+C\t0\t1\n+B\n".to_string(),
            },
            Response::FlushOk,
            Response::Error {
                code: ErrorCode::Busy,
                message: "full".to_string(),
            },
        ];
        for r in responses {
            let (kind, bytes) = r.encode();
            let frame = r.to_frame();
            assert_eq!(kind, frame.kind);
            assert_eq!(bytes, frame.encode(), "{r:?}");
            // Sized up front: a buffer that grew would have doubled.
            assert!(bytes.capacity() <= bytes.len() + 8, "{r:?}");
        }
    }
}

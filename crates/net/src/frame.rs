//! The `corrfuse-net v1` framing layer: length-prefixed binary frames
//! with magic, version, type, payload length and a CRC-32 over the
//! payload.
//!
//! ```text
//! offset  size  field
//! 0       4     magic        "CRFN" (0x43 0x52 0x46 0x4E)
//! 4       1     version      0x01
//! 5       1     type         frame type code (see [`FrameType`])
//! 6       4     payload_len  u32 LE, <= MAX_PAYLOAD
//! 10      4     crc32        u32 LE, CRC-32 (IEEE) of the payload bytes
//! 14      ...   payload      payload_len bytes
//! ```
//!
//! The full normative specification — every type code, payload layout
//! and error code — lives in `docs/PROTOCOL.md`; this module is its
//! reference implementation. Decoding is total: any byte sequence
//! yields either a [`Frame`] or a typed [`FrameError`], never a panic
//! (pinned by the property test in `crates/net/tests/codec_fuzz.rs`).

use std::fmt;
use std::io::{Read, Write};

use crate::crc::crc32;

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"CRFN";

/// The one protocol version this implementation speaks.
pub const VERSION: u8 = 1;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 14;

/// Hard cap on payload length; larger declared lengths are rejected
/// up front, and the streaming reader additionally grows its buffer
/// one chunk ahead of the bytes actually received, so a corrupt or
/// hostile length prefix cannot force a huge buffer.
pub const MAX_PAYLOAD: u32 = 1 << 26; // 64 MiB

/// Chunk size for the streaming payload read: the most the payload
/// buffer runs ahead of the bytes received, which bounds memory on
/// declared-but-unsent payloads.
const PAYLOAD_CHUNK: usize = 64 * 1024;

/// Frame type codes. Requests use `0x01..=0x7F`, responses set the high
/// bit (`0x81..=0xFF`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameType {
    /// Version negotiation; MUST be the first frame on a connection.
    Hello = 0x01,
    /// One tenant-scoped event batch (journal-codec text payload).
    Ingest = 0x02,
    /// Query: posterior scores of one tenant.
    Scores = 0x03,
    /// Query: accept/reject decisions of one tenant.
    Decisions = 0x04,
    /// Read-your-writes barrier: apply everything accepted so far.
    Flush = 0x05,
    /// Query: per-connection + per-shard statistics.
    Stats = 0x06,
    /// Liveness probe.
    Ping = 0x07,
    /// Ask the server to stop (honoured only when enabled server-side).
    Shutdown = 0x08,
    /// Query: self-describing metrics snapshot (counters, gauges and
    /// latency histograms); the growable successor to the fixed-width
    /// [`FrameType::Stats`] records.
    Metrics = 0x09,
    /// Open a replication subscription on one shard. On success the
    /// connection leaves request/response and enters **replication
    /// mode** (see `docs/PROTOCOL.md` §7).
    Subscribe = 0x0A,
    /// Follower acknowledgement that every batch up to the carried
    /// epoch is applied. Replication mode only; elicits no response.
    EpochAck = 0x0B,

    /// Positive reply to [`FrameType::Hello`].
    HelloOk = 0x81,
    /// One ingest batch accepted.
    IngestOk = 0x82,
    /// Scores payload.
    ScoresOk = 0x83,
    /// Decisions payload.
    DecisionsOk = 0x84,
    /// Barrier reached.
    FlushOk = 0x85,
    /// Statistics payload.
    StatsOk = 0x86,
    /// Reply to [`FrameType::Ping`].
    Pong = 0x87,
    /// Server acknowledges it will stop.
    ShutdownOk = 0x88,
    /// Metrics payload (length-prefixed name/tag/value entries).
    MetricsOk = 0x89,
    /// Positive reply to [`FrameType::Subscribe`]: how the follower
    /// bootstraps (resume or dataset snapshot). Everything after it on
    /// the connection is server-pushed [`FrameType::Batch`] frames.
    SubscribeOk = 0x8A,
    /// One replicated batch, pushed leader → follower unsolicited
    /// (replication mode only).
    Batch = 0x8B,
    /// Typed error reply (`u16` code + UTF-8 message).
    Error = 0x8F,
}

impl FrameType {
    /// All frame types, for exhaustive round-trip tests.
    pub const ALL: [FrameType; 23] = [
        FrameType::Hello,
        FrameType::Ingest,
        FrameType::Scores,
        FrameType::Decisions,
        FrameType::Flush,
        FrameType::Stats,
        FrameType::Ping,
        FrameType::Shutdown,
        FrameType::Metrics,
        FrameType::Subscribe,
        FrameType::EpochAck,
        FrameType::HelloOk,
        FrameType::IngestOk,
        FrameType::ScoresOk,
        FrameType::DecisionsOk,
        FrameType::FlushOk,
        FrameType::StatsOk,
        FrameType::Pong,
        FrameType::ShutdownOk,
        FrameType::MetricsOk,
        FrameType::SubscribeOk,
        FrameType::Batch,
        FrameType::Error,
    ];

    /// Decode a type code.
    pub fn from_code(code: u8) -> Option<FrameType> {
        FrameType::ALL.into_iter().find(|t| *t as u8 == code)
    }

    /// True for response types (high bit set).
    pub fn is_response(self) -> bool {
        (self as u8) & 0x80 != 0
    }

    /// Lowercase snake-case name, used as the per-type suffix of the
    /// server's `net_decode_ns_*` / `net_handle_ns_*` /
    /// `net_encode_ns_*` metric series (see `docs/OBSERVABILITY.md`).
    pub fn label(self) -> &'static str {
        match self {
            FrameType::Hello => "hello",
            FrameType::Ingest => "ingest",
            FrameType::Scores => "scores",
            FrameType::Decisions => "decisions",
            FrameType::Flush => "flush",
            FrameType::Stats => "stats",
            FrameType::Ping => "ping",
            FrameType::Shutdown => "shutdown",
            FrameType::Metrics => "metrics",
            FrameType::Subscribe => "subscribe",
            FrameType::EpochAck => "epoch_ack",
            FrameType::HelloOk => "hello_ok",
            FrameType::IngestOk => "ingest_ok",
            FrameType::ScoresOk => "scores_ok",
            FrameType::DecisionsOk => "decisions_ok",
            FrameType::FlushOk => "flush_ok",
            FrameType::StatsOk => "stats_ok",
            FrameType::Pong => "pong",
            FrameType::ShutdownOk => "shutdown_ok",
            FrameType::MetricsOk => "metrics_ok",
            FrameType::SubscribeOk => "subscribe_ok",
            FrameType::Batch => "batch",
            FrameType::Error => "error",
        }
    }
}

/// A framing-layer violation. Everything the decoder can object to is a
/// variant here — decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The frame's version byte is not one this side speaks.
    UnsupportedVersion(u8),
    /// Unknown frame type code.
    UnknownType(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    PayloadTooLarge {
        /// Declared length.
        len: u32,
        /// The cap it violated.
        max: u32,
    },
    /// The buffer/stream ended before the declared frame did.
    Truncated {
        /// Bytes needed to finish the header or payload.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The payload's CRC-32 does not match the header's.
    CrcMismatch {
        /// CRC declared in the header.
        declared: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
    /// The frame was well-formed but its payload was not decodable as
    /// the message its type promises.
    BadPayload(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?} (expected \"CRFN\")"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::UnknownType(t) => write!(f, "unknown frame type 0x{t:02x}"),
            FrameError::PayloadTooLarge { len, max } => {
                write!(
                    f,
                    "declared payload length {len} exceeds the {max}-byte cap"
                )
            }
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            FrameError::CrcMismatch { declared, computed } => write!(
                f,
                "payload CRC mismatch: header says {declared:#010x}, payload is {computed:#010x}"
            ),
            FrameError::BadPayload(msg) => write!(f, "bad frame payload: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One wire frame: version, type, payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Protocol version this frame was encoded under.
    pub version: u8,
    /// The frame type.
    pub kind: FrameType,
    /// The raw payload bytes (message layout per type; see
    /// [`crate::wire`]).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A version-[`VERSION`] frame.
    pub fn new(kind: FrameType, payload: Vec<u8>) -> Frame {
        Frame {
            version: VERSION,
            kind,
            payload,
        }
    }

    /// Serialise the frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.resize(HEADER_LEN, 0);
        out.extend_from_slice(&self.payload);
        write_header(&mut out, self.version, self.kind);
        out
    }

    /// Whether this frame's payload fits the protocol cap. Encoders
    /// must refuse to put an oversized frame on the wire — the peer's
    /// decoder is required to reject it (see `docs/PROTOCOL.md` §2).
    pub fn fits(&self) -> bool {
        oversize(self.payload.len()).is_none()
    }

    /// The frame's [`FrameError::PayloadTooLarge`], for encoders that
    /// found [`Frame::fits`] false.
    pub fn oversize_error(&self) -> FrameError {
        FrameError::PayloadTooLarge {
            len: self.payload.len().min(u32::MAX as usize) as u32,
            max: MAX_PAYLOAD,
        }
    }

    /// Decode one frame from the front of `buf`. Returns the frame and
    /// the number of bytes consumed. Never panics on any input;
    /// incomplete input reports [`FrameError::Truncated`] with how many
    /// bytes are still needed, so a streaming caller can wait for more.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
        if buf.len() < HEADER_LEN {
            return Err(FrameError::Truncated {
                needed: HEADER_LEN,
                got: buf.len(),
            });
        }
        let header: &[u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().expect("header slice");
        let (version, kind, len, declared) = parse_header(header)?;
        let total = HEADER_LEN + len as usize;
        if buf.len() < total {
            return Err(FrameError::Truncated {
                needed: total,
                got: buf.len(),
            });
        }
        let payload = buf[HEADER_LEN..total].to_vec();
        let computed = crc32(&payload);
        if computed != declared {
            return Err(FrameError::CrcMismatch { declared, computed });
        }
        Ok((
            Frame {
                version,
                kind,
                payload,
            },
            total,
        ))
    }

    /// Blocking-read one frame from a stream. An EOF before the first
    /// header byte returns `Ok(None)` (clean close); an EOF anywhere
    /// else is an error.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Frame>, crate::error::NetError> {
        let mut header = [0u8; HEADER_LEN];
        let mut filled = 0;
        while filled < HEADER_LEN {
            match r.read(&mut header[filled..]) {
                Ok(0) => {
                    if filled == 0 {
                        return Ok(None);
                    }
                    return Err(FrameError::Truncated {
                        needed: HEADER_LEN,
                        got: filled,
                    }
                    .into());
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        // Validate the header fields before committing to the payload
        // read. The payload is read in place: before each read it grows
        // by at most one chunk (zeroing only those bytes), and after it
        // shrinks back to what arrived. It never runs more than one
        // chunk past the bytes received, so a hostile length prefix on a
        // stalled connection pins memory only in proportion to what it
        // has sent.
        let (version, kind, len, declared) = parse_header(&header)?;
        let len = len as usize;
        let mut payload = Vec::with_capacity(len.min(PAYLOAD_CHUNK));
        while payload.len() < len {
            let got = payload.len();
            payload.resize(got + (len - got).min(PAYLOAD_CHUNK), 0);
            match r.read(&mut payload[got..]) {
                Ok(0) => {
                    return Err(FrameError::Truncated {
                        needed: HEADER_LEN + len,
                        got: HEADER_LEN + got,
                    }
                    .into())
                }
                Ok(n) => payload.truncate(got + n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => payload.truncate(got),
                Err(e) => return Err(e.into()),
            }
        }
        let computed = crc32(&payload);
        if computed != declared {
            return Err(FrameError::CrcMismatch { declared, computed }.into());
        }
        Ok(Some(Frame {
            version,
            kind,
            payload,
        }))
    }

    /// Blocking-write the frame to a stream.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), crate::error::NetError> {
        w.write_all(&self.encode())?;
        Ok(())
    }
}

/// Fill in the header of `buf`: its first [`HEADER_LEN`] bytes are
/// reserved for it and the rest is the payload, so a frame is encoded in
/// one buffer.
pub(crate) fn write_header(buf: &mut [u8], version: u8, kind: FrameType) {
    let (header, payload) = buf.split_at_mut(HEADER_LEN);
    header[0..4].copy_from_slice(&MAGIC);
    header[4] = version;
    header[5] = kind as u8;
    header[6..10].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[10..14].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// The [`FrameError::PayloadTooLarge`] for a `len`-byte payload past
/// [`MAX_PAYLOAD`], for encoders that never built a [`Frame`].
pub(crate) fn oversize(len: usize) -> Option<FrameError> {
    (len as u64 > MAX_PAYLOAD as u64).then(|| FrameError::PayloadTooLarge {
        len: len.min(u32::MAX as usize) as u32,
        max: MAX_PAYLOAD,
    })
}

/// Validate a complete header and extract `(version, kind, payload_len,
/// declared_crc)`. The single source of header truth for the buffer
/// ([`Frame::decode`]) and streaming ([`Frame::read_from`]) paths, so
/// the two can never diverge on what they accept.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, FrameType, u32, u32), FrameError> {
    let magic: [u8; 4] = header[0..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = header[4];
    if version != VERSION {
        return Err(FrameError::UnsupportedVersion(version));
    }
    let kind = FrameType::from_code(header[5]).ok_or(FrameError::UnknownType(header[5]))?;
    let len = u32::from_le_bytes(header[6..10].try_into().expect("4-byte slice"));
    if len > MAX_PAYLOAD {
        return Err(FrameError::PayloadTooLarge {
            len,
            max: MAX_PAYLOAD,
        });
    }
    let declared = u32::from_le_bytes(header[10..14].try_into().expect("4-byte slice"));
    Ok((version, kind, len, declared))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_type() {
        for kind in FrameType::ALL {
            let frame = Frame::new(kind, vec![1, 2, 3, kind as u8]);
            let bytes = frame.encode();
            let (back, used) = Frame::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn request_response_split() {
        assert!(!FrameType::Ingest.is_response());
        assert!(FrameType::IngestOk.is_response());
        assert_eq!(FrameType::from_code(0x00), None);
        assert_eq!(FrameType::from_code(0x8F), Some(FrameType::Error));
    }

    #[test]
    fn corruption_is_detected() {
        let frame = Frame::new(FrameType::Ping, b"payload".to_vec());
        let good = frame.encode();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(Frame::decode(&bad), Err(FrameError::BadMagic(_))));

        let mut bad = good.clone();
        bad[4] = 9;
        assert!(matches!(
            Frame::decode(&bad),
            Err(FrameError::UnsupportedVersion(9))
        ));

        let mut bad = good.clone();
        bad[5] = 0x7E;
        assert!(matches!(
            Frame::decode(&bad),
            Err(FrameError::UnknownType(0x7E))
        ));

        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        assert!(matches!(
            Frame::decode(&bad),
            Err(FrameError::CrcMismatch { .. })
        ));

        assert!(matches!(
            Frame::decode(&good[..good.len() - 1]),
            Err(FrameError::Truncated { .. })
        ));
        assert!(matches!(
            Frame::decode(&good[..3]),
            Err(FrameError::Truncated { .. })
        ));

        let mut bad = good;
        bad[6..10].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            Frame::decode(&bad),
            Err(FrameError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let frames = vec![
            Frame::new(FrameType::Hello, vec![1, 1]),
            Frame::new(FrameType::Flush, Vec::new()),
        ];
        let mut buf = Vec::new();
        for f in &frames {
            f.write_to(&mut buf).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(Frame::read_from(&mut cursor).unwrap().unwrap(), frames[0]);
        assert_eq!(Frame::read_from(&mut cursor).unwrap().unwrap(), frames[1]);
        assert!(
            Frame::read_from(&mut cursor).unwrap().is_none(),
            "clean EOF"
        );
    }

    /// A frame declaring the maximum payload, then 10 payload bytes, an
    /// interrupted read and EOF: the reader reports exactly the bytes
    /// that arrived and never offers a read more than one chunk.
    #[test]
    fn declared_but_unsent_payload_reads_one_chunk_at_a_time() {
        struct Stalling {
            bytes: Vec<u8>,
            pos: usize,
            interrupted: bool,
            widest: usize,
        }
        impl Read for Stalling {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.widest = self.widest.max(buf.len());
                if self.pos == self.bytes.len() && !self.interrupted {
                    self.interrupted = true;
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                let n = buf.len().min(self.bytes.len() - self.pos);
                buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }

        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[VERSION, FrameType::Ingest as u8]);
        bytes.extend_from_slice(&MAX_PAYLOAD.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[7; 10]);
        let mut r = Stalling {
            bytes,
            pos: 0,
            interrupted: false,
            widest: 0,
        };
        match Frame::read_from(&mut r) {
            Err(crate::error::NetError::Frame(FrameError::Truncated { needed, got })) => {
                assert_eq!(got, HEADER_LEN + 10);
                assert_eq!(needed, HEADER_LEN + MAX_PAYLOAD as usize);
            }
            other => panic!("expected a truncated frame, got {other:?}"),
        }
        assert!(r.interrupted, "the interrupted read was retried");
        assert!(
            r.widest <= PAYLOAD_CHUNK,
            "a read was offered {} bytes",
            r.widest
        );
    }
}

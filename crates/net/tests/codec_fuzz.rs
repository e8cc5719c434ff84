//! Fuzz-style property tests for the wire codec: the decoder is total
//! (random bytes never panic, they produce typed errors), and
//! encode∘decode round-trips every frame and message type, including
//! under prefix truncation and single-bit corruption.

use corrfuse_core::dataset::SourceId;
use corrfuse_core::testkit::{run_cases, Gen};
use corrfuse_core::TripleId;
use corrfuse_net::wire::{WireHistogram, WireMetric, WireMetricValue, WireShardStats, WireStats};
use corrfuse_net::{
    AclTable, ErrorCode, Frame, FrameError, FrameType, Output, Request, Response, SessionConfig,
    SessionStateMachine,
};
use corrfuse_serve::TenantId;
use corrfuse_stream::Event;

fn random_bytes(g: &mut Gen, len: usize) -> Vec<u8> {
    (0..len).map(|_| g.u64_below(256) as u8).collect()
}

fn random_events(g: &mut Gen) -> Vec<Event> {
    let n = g.usize_in(0, 6);
    (0..n)
        .map(|_| match g.usize_in(0, 4) {
            0 => Event::add_source(format!("src-{}", g.u64_below(1000))),
            1 => Event::add_triple(
                format!("s\t{}", g.u64_below(50)),
                "p",
                format!("{}", g.u64_below(9)),
            ),
            2 => Event::claim(
                SourceId(g.u64_below(8) as u32),
                TripleId(g.u64_below(64) as u32),
            ),
            _ => Event::label(TripleId(g.u64_below(64) as u32), g.bool(0.5)),
        })
        .collect()
}

fn random_min_epoch(g: &mut Gen) -> Option<u64> {
    g.bool(0.5).then(|| g.u64_below(1 << 40))
}

fn random_credential(g: &mut Gen) -> Option<String> {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_.";
    g.bool(0.5).then(|| {
        let len = g.usize_in(0, 24);
        (0..len)
            .map(|_| CHARS[g.usize_in(0, CHARS.len() - 1)] as char)
            .collect()
    })
}

fn random_request(g: &mut Gen) -> Request {
    match g.usize_in(0, 11) {
        0 => Request::Hello {
            min_version: g.u64_below(4) as u8,
            max_version: g.u64_below(4) as u8,
            credential: random_credential(g),
        },
        1 => Request::Ingest {
            tenant: TenantId(g.u64_below(1000) as u32),
            events: random_events(g),
        },
        2 => Request::Scores {
            tenant: TenantId(g.u64_below(1000) as u32),
            min_epoch: random_min_epoch(g),
        },
        3 => Request::Decisions {
            tenant: TenantId(g.u64_below(1000) as u32),
            min_epoch: random_min_epoch(g),
        },
        4 => Request::Flush,
        5 => Request::Stats {
            min_epoch: random_min_epoch(g),
        },
        6 => Request::Ping,
        7 => Request::Metrics,
        8 => Request::Subscribe {
            shard: g.u64_below(16) as u32,
            from_epoch: g.u64_below(1 << 40),
        },
        9 => Request::EpochAck {
            shard: g.u64_below(16) as u32,
            epoch: g.u64_below(1 << 40),
        },
        _ => Request::Shutdown,
    }
}

fn random_metrics(g: &mut Gen) -> Vec<WireMetric> {
    (0..g.usize_in(0, 5))
        .map(|i| WireMetric {
            name: format!("metric_{i}_{}", g.u64_below(100)),
            value: match g.usize_in(0, 3) {
                0 => WireMetricValue::Counter(g.u64_below(u64::MAX)),
                1 => WireMetricValue::Gauge(g.u64_below(u64::MAX) as i64),
                _ => WireMetricValue::Histogram(WireHistogram {
                    count: g.u64_below(1 << 40),
                    sum: g.u64_below(1 << 50),
                    max: g.u64_below(1 << 40),
                    buckets: (0..g.usize_in(0, 64))
                        .map(|_| g.u64_below(1 << 30))
                        .collect(),
                }),
            },
        })
        .collect()
}

fn random_response(g: &mut Gen) -> Response {
    use corrfuse_serve::SubscriptionStart;
    match g.usize_in(0, 12) {
        0 => Response::HelloOk {
            version: g.u64_below(4) as u8,
        },
        1 => Response::IngestOk {
            seq: g.u64_below(u64::MAX),
        },
        2 => Response::ScoresOk {
            scores: {
                let n = g.usize_in(0, 8);
                g.vec_f64(n, 0.0, 1.0)
            },
        },
        3 => Response::DecisionsOk {
            decisions: (0..g.usize_in(0, 8)).map(|_| g.bool(0.5)).collect(),
        },
        4 => Response::FlushOk,
        5 => Response::StatsOk {
            stats: WireStats {
                conn_frames: g.u64_below(1 << 40),
                conn_batches: g.u64_below(1 << 30),
                conn_events: g.u64_below(1 << 40),
                shards: (0..g.usize_in(0, 4))
                    .map(|i| WireShardStats {
                        shard: i as u32,
                        tenants: g.u64_below(100) as u32,
                        processed_messages: g.u64_below(1 << 40),
                        ingested_events: g.u64_below(1 << 40),
                        ingest_errors: g.u64_below(1 << 20),
                        queue_depth: g.u64_below(1 << 16) as u32,
                        poisoned: g.bool(0.2),
                    })
                    .collect(),
            },
        },
        6 => Response::Pong,
        7 => Response::ShutdownOk,
        8 => Response::MetricsOk {
            metrics: random_metrics(g),
        },
        9 => Response::SubscribeOk {
            start: if g.bool(0.5) {
                SubscriptionStart::Resume
            } else {
                SubscriptionStart::Snapshot {
                    epoch: g.u64_below(1 << 40),
                    threshold: g.vec_f64(1, 0.0, 1.0)[0],
                    dataset: format!("#corrfuse v1\nS\tsrc-{}\n", g.u64_below(100)),
                }
            },
        },
        10 => Response::Batch {
            epoch: g.u64_below(1 << 40),
            text: corrfuse_stream::codec::encode_batch(&random_events(g)),
        },
        _ => Response::Error {
            code: ErrorCode::from_code(g.usize_in(1, 11) as u16).unwrap(),
            message: format!("error {}", g.u64_below(100)),
        },
    }
}

/// Random bytes never panic the frame decoder: every outcome is a
/// `Frame` or a typed `FrameError`. Messages decoded from surviving
/// frames also never panic.
#[test]
fn decoder_is_total_on_random_bytes() {
    run_cases("net_decoder_total", 300, |g| {
        let len = g.usize_in(0, 96);
        let buf = random_bytes(g, len);
        if let Ok((frame, used)) = Frame::decode(&buf) {
            assert!(used <= buf.len());
            // Message decoding over the surviving frame is total too.
            let _ = Request::from_frame(&frame);
            let _ = Response::from_frame(&frame);
        }
    });
}

/// Random bytes stamped with a valid header prefix (the adversarial
/// region is the length/CRC/payload) never panic either.
#[test]
fn decoder_is_total_on_magic_prefixed_bytes() {
    run_cases("net_decoder_magic_prefixed", 300, |g| {
        let len = g.usize_in(14, 80);
        let mut buf = random_bytes(g, len);
        buf[0..4].copy_from_slice(b"CRFN");
        if g.bool(0.8) {
            buf[4] = 1; // valid version
        }
        if g.bool(0.5) {
            // A known type code, so deeper fields get exercised.
            buf[5] = [
                0x01u8, 0x02, 0x03, 0x09, 0x0A, 0x0B, 0x82, 0x83, 0x86, 0x89, 0x8A, 0x8B, 0x8F,
            ][g.usize_in(0, 13)];
        }
        if let Ok((frame, _)) = Frame::decode(&buf) {
            let _ = Request::from_frame(&frame);
            let _ = Response::from_frame(&frame);
        }
    });
}

/// encode∘decode is the identity for every request and response,
/// through the byte level.
#[test]
fn messages_roundtrip_through_bytes() {
    run_cases("net_message_roundtrip", 150, |g| {
        let req = random_request(g);
        let bytes = req.to_frame().encode();
        let (frame, used) = Frame::decode(&bytes).expect("valid frame");
        assert_eq!(used, bytes.len());
        assert_eq!(Request::from_frame(&frame).expect("valid request"), req);

        let resp = random_response(g);
        let bytes = resp.to_frame().encode();
        let (frame, used) = Frame::decode(&bytes).expect("valid frame");
        assert_eq!(used, bytes.len());
        assert_eq!(Response::from_frame(&frame).expect("valid response"), resp);
    });
}

/// Every strict prefix of a valid frame reports `Truncated` (with the
/// bytes still needed), and any single corrupted byte yields a typed
/// error or — only when it hits don't-care payload bytes whose CRC
/// no longer matches — never a wrong frame.
#[test]
fn truncation_and_corruption_are_typed() {
    run_cases("net_truncation_corruption", 100, |g| {
        let req = random_request(g);
        let bytes = req.to_frame().encode();
        let cut = g.usize_in(0, bytes.len());
        match Frame::decode(&bytes[..cut]) {
            Err(FrameError::Truncated { needed, got }) => {
                assert_eq!(got, cut);
                assert!(needed > cut);
            }
            other => panic!("prefix of len {cut} decoded as {other:?}"),
        }

        // Flip one random byte: either the header check or the CRC
        // catches it — a flipped frame never decodes to the original.
        let mut corrupt = bytes.clone();
        let at = g.usize_in(0, corrupt.len());
        corrupt[at] ^= (1 + g.u64_below(255)) as u8;
        match Frame::decode(&corrupt) {
            Err(_) => {}
            Ok((frame, _)) => {
                assert_ne!(
                    frame.encode(),
                    bytes,
                    "corrupted byte {at} decoded back to the original"
                );
            }
        }
    });
}

/// A deterministic stand-in for the application layer, so the session
/// machine can be driven without a router: the response depends only on
/// the request, never on how the bytes were chunked.
fn canned_response(req: &Request) -> Response {
    match req {
        Request::Ingest { events, .. } => Response::IngestOk {
            seq: events.len() as u64,
        },
        Request::Scores { tenant, .. } => Response::ScoresOk {
            scores: vec![f64::from(tenant.0)],
        },
        Request::Decisions { .. } => Response::DecisionsOk {
            decisions: vec![true, false],
        },
        Request::Flush => Response::FlushOk,
        Request::Stats { .. } => Response::StatsOk {
            stats: WireStats {
                conn_frames: 1,
                conn_batches: 2,
                conn_events: 3,
                shards: vec![],
            },
        },
        Request::Ping => Response::Pong,
        Request::Metrics => Response::MetricsOk { metrics: vec![] },
        Request::Shutdown => Response::ShutdownOk,
        Request::Subscribe { shard, .. } => Response::Error {
            code: ErrorCode::Internal,
            message: format!("no shard {shard}"),
        },
        other => Response::Error {
            code: ErrorCode::Malformed,
            message: format!("{other:?}"),
        },
    }
}

/// Feed `bytes` into a fresh session machine in the given chunk sizes
/// (cycled; empty = one whole-buffer feed), answering every emitted App
/// with the canned response. Returns everything observable: the app
/// request sequence, the concatenated wire bytes, the frame count and
/// whether the session closed.
fn drive_session(
    config: SessionConfig,
    bytes: &[u8],
    splits: &[usize],
) -> (Vec<Request>, Vec<u8>, u64, bool) {
    let mut sm = SessionStateMachine::new(config);
    let mut apps = Vec::new();
    let mut wire = Vec::new();
    let mut pos = 0;
    let mut turn = 0;
    while pos < bytes.len() {
        let n = if splits.is_empty() {
            bytes.len() - pos
        } else {
            splits[turn % splits.len()].clamp(1, bytes.len() - pos)
        };
        turn += 1;
        sm.feed(&bytes[pos..pos + n]);
        pos += n;
        while let Some(out) = sm.pop_output() {
            match out {
                Output::Write(b) => wire.extend_from_slice(&b),
                Output::Close => {}
                Output::App { request, .. } => {
                    let resp = canned_response(&request);
                    apps.push(request);
                    sm.respond(resp);
                }
            }
        }
    }
    (apps, wire, sm.frames(), sm.is_closed())
}

/// The session machine is chunking-blind: a recorded byte stream fed
/// one byte (or any random split) at a time produces exactly the app
/// requests, wire bytes, frame count and close decision of a single
/// whole-buffer feed. This is the sans-I/O property both server back
/// ends lean on — the kernel may fragment however it likes.
#[test]
fn session_machine_is_chunking_blind() {
    run_cases("net_session_chunking", 150, |g| {
        // A recorded client stream: HELLO (occasionally bad), then a
        // burst of random requests, occasionally trailed by garbage.
        let mut bytes = Vec::new();
        if g.bool(0.85) {
            bytes.extend(
                Request::Hello {
                    min_version: 1,
                    max_version: g.usize_in(1, 2) as u8,
                    credential: random_credential(g),
                }
                .to_frame()
                .encode(),
            );
        }
        for _ in 0..g.usize_in(0, 6) {
            bytes.extend(random_request(g).to_frame().encode());
        }
        if g.bool(0.2) {
            let garbage_len = g.usize_in(1, 40);
            bytes.extend(random_bytes(g, garbage_len));
        }
        if bytes.is_empty() {
            return;
        }

        let mut config = SessionConfig::new().with_accept_shutdown(g.bool(0.5));
        if g.bool(0.4) {
            config = config.with_acl(std::sync::Arc::new(
                AclTable::new()
                    .allow_all("root")
                    .allow("writer", [TenantId(0), TenantId(1)]),
            ));
        }

        let whole = drive_session(config.clone(), &bytes, &[]);
        let splits: Vec<usize> = if g.bool(0.3) {
            vec![1] // strict byte-at-a-time
        } else {
            (0..g.usize_in(1, 8)).map(|_| g.usize_in(1, 9)).collect()
        };
        let chunked = drive_session(config, &bytes, &splits);
        assert_eq!(
            whole.0, chunked.0,
            "app sequence differs (splits {splits:?})"
        );
        assert_eq!(whole.1, chunked.1, "wire bytes differ (splits {splits:?})");
        assert_eq!(whole.2, chunked.2, "frame count differs");
        assert_eq!(whole.3, chunked.3, "close decision differs");
    });
}

/// The 23 frame types cover requests and responses disjointly, and
/// every code survives the `u8` round trip.
#[test]
fn frame_type_codes_are_stable() {
    for t in FrameType::ALL {
        assert_eq!(FrameType::from_code(t as u8), Some(t));
    }
    let requests = FrameType::ALL.iter().filter(|t| !t.is_response()).count();
    assert_eq!(requests, 11);
    assert_eq!(FrameType::ALL.len() - requests, 12);
}

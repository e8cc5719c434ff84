//! Integration tests for the TCP server/client pair over loopback:
//! handshake and version negotiation, the request surface, protocol
//! error codes (`BUSY` vs `SHARD_POISONED` in particular), remote
//! shutdown, and reconnect resend.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use corrfuse_core::dataset::{DatasetBuilder, SourceId};
use corrfuse_core::fuser::{FuserConfig, Method};
use corrfuse_core::TripleId;
use corrfuse_net::server::spawn;
use corrfuse_net::{
    Client, ClientConfig, ErrorCode, Frame, NetError, Request, Response, Server, ServerConfig,
};
use corrfuse_serve::{Backpressure, RouterConfig, ShardRouter, TenantId};
use corrfuse_stream::Event;

fn seed(flip: bool) -> corrfuse_core::dataset::Dataset {
    let mut b = DatasetBuilder::new();
    let (s, t1) = b.observe_named("A", "x", "p", "1");
    b.label(t1, true);
    let t2 = b.triple("y", "p", "2");
    b.observe(s, t2);
    b.label(t2, flip);
    b.build().unwrap()
}

fn router(n_shards: usize, tenants: &[u32], config: RouterConfig) -> ShardRouter {
    let seeds = tenants
        .iter()
        .map(|&t| (TenantId(t), seed(false)))
        .collect();
    ShardRouter::new(
        FuserConfig::new(Method::PrecRec),
        config.with_threshold(0.5),
        seeds,
    )
    .unwrap_or_else(|e| panic!("router over {n_shards} shards: {e}"))
}

#[test]
fn full_request_surface_over_loopback() {
    let server = Server::bind(
        "127.0.0.1:0",
        router(2, &[0, 1], RouterConfig::new(2)),
        ServerConfig::new(),
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (handle, join) = spawn(server).unwrap();

    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();

    // Ingest for both tenants, then read-your-writes.
    client
        .ingest(
            TenantId(0),
            &[
                Event::add_triple("z", "p", "3"),
                Event::claim(SourceId(0), TripleId(2)),
            ],
        )
        .unwrap();
    client
        .ingest(TenantId(1), &[Event::label(TripleId(1), true)])
        .unwrap();
    client.flush().unwrap();
    assert_eq!(client.acked_batches(), 2);

    let scores = client.scores(TenantId(0)).unwrap();
    assert_eq!(scores.len(), 3);
    let decisions = client.decisions(TenantId(0)).unwrap();
    assert_eq!(decisions.len(), 3);
    for (s, d) in scores.iter().zip(&decisions) {
        assert_eq!(*d, *s > 0.5, "decisions follow the threshold");
    }

    // Unknown tenant surfaces the typed code.
    match client.scores(TenantId(9)).unwrap_err() {
        NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::UnknownTenant),
        other => panic!("unexpected {other:?}"),
    }

    // Connection + shard stats.
    let stats = client.stats().unwrap();
    assert_eq!(stats.shards.len(), 2);
    assert_eq!(stats.conn_batches, 2);
    assert_eq!(stats.conn_events, 3);
    assert!(stats.conn_frames >= 6);
    assert_eq!(
        stats.shards.iter().map(|s| s.ingested_events).sum::<u64>(),
        3
    );
    assert!(stats.shards.iter().all(|s| !s.poisoned));

    // Shutdown is forbidden unless the server opted in.
    match client.shutdown_server().unwrap_err() {
        NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::Forbidden),
        other => panic!("unexpected {other:?}"),
    }

    handle.stop();
    let stats = join.join().unwrap().unwrap();
    assert_eq!(stats.aggregate().ingest_errors, 0);
}

#[test]
fn version_negotiation_and_handshake_violations() {
    let server = Server::bind(
        "127.0.0.1:0",
        router(1, &[0], RouterConfig::new(1)),
        ServerConfig::new(),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let (handle, join) = spawn(server).unwrap();

    // A client that only speaks a future version is refused.
    let mut raw = TcpStream::connect(addr).unwrap();
    Request::Hello {
        min_version: 2,
        max_version: 9,
        credential: None,
    }
    .to_frame()
    .write_to(&mut raw)
    .unwrap();
    raw.flush().unwrap();
    let frame = Frame::read_from(&mut raw).unwrap().unwrap();
    match Response::from_frame(&frame).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnsupportedVersion),
        other => panic!("unexpected {other:?}"),
    }

    // A first frame that is not HELLO is a malformed handshake.
    let mut raw = TcpStream::connect(addr).unwrap();
    Request::Ping.to_frame().write_to(&mut raw).unwrap();
    raw.flush().unwrap();
    let frame = Frame::read_from(&mut raw).unwrap().unwrap();
    match Response::from_frame(&frame).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("unexpected {other:?}"),
    }

    // A HELLO again mid-session is refused without killing the session.
    let mut client = Client::connect(addr.to_string()).unwrap();
    client.ping().unwrap();

    handle.stop();
    join.join().unwrap().unwrap();
}

#[test]
fn busy_surfaces_then_retries_recover() {
    // Tiny queue + Reject: a fat first batch keeps the worker busy while
    // follow-ups overflow the queue.
    let config = RouterConfig::new(1)
        .with_queue_capacity(1)
        .with_backpressure(Backpressure::Reject)
        .with_batching(1);
    let server = Server::bind("127.0.0.1:0", router(1, &[0], config), ServerConfig::new()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (handle, join) = spawn(server).unwrap();

    // No busy retries: the raw BUSY must reach the caller.
    let mut strict = Client::connect_with(
        &addr,
        ClientConfig::new()
            .with_busy_retries(0, Duration::ZERO)
            .with_max_in_flight(64),
    )
    .unwrap();
    let fat: Vec<Event> = std::iter::repeat_with(|| Event::claim(SourceId(0), TripleId(0)))
        .take(4000)
        .collect();
    strict.ingest(TenantId(0), &fat).unwrap();
    let mut saw_busy = false;
    for _ in 0..64 {
        strict
            .ingest(TenantId(0), &[Event::claim(SourceId(0), TripleId(1))])
            .unwrap();
    }
    match strict.sync() {
        Err(NetError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::Busy);
            saw_busy = true;
        }
        Ok(()) => {}
        Err(other) => panic!("unexpected {other:?}"),
    }
    assert!(saw_busy, "the flood should overflow the 1-slot queue");
    drop(strict);

    // A retrying client pushes the same flood through to completion.
    let mut retrying = Client::connect_with(
        &addr,
        ClientConfig::new()
            .with_busy_retries(1000, Duration::from_micros(200))
            .with_max_in_flight(1),
    )
    .unwrap();
    retrying.ingest(TenantId(0), &fat).unwrap();
    for _ in 0..32 {
        retrying
            .ingest(TenantId(0), &[Event::claim(SourceId(0), TripleId(1))])
            .unwrap();
    }
    retrying.flush().unwrap();
    assert_eq!(retrying.acked_batches(), 33);
    assert_eq!(retrying.scores(TenantId(0)).unwrap().len(), 2);

    handle.stop();
    join.join().unwrap().unwrap();
}

#[test]
fn shard_poisoning_maps_to_fatal_error_code() {
    // Empirical prior (alpha unpinned): relabelling the only true triple
    // to false degenerates the prior *after* the dataset mutated, which
    // poisons the shard.
    let mut fuser = FuserConfig::new(Method::PrecRec);
    fuser.alpha = None;
    let seeds = vec![(TenantId(0), seed(false)), (TenantId(1), seed(false))];
    let router = ShardRouter::new(fuser, RouterConfig::new(2), seeds).unwrap();
    let server = Server::bind("127.0.0.1:0", router, ServerConfig::new()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (handle, join) = spawn(server).unwrap();

    let mut client = Client::connect(&addr).unwrap();
    let healthy_before = client.scores(TenantId(1)).unwrap();
    client
        .ingest(TenantId(0), &[Event::label(TripleId(0), false)])
        .unwrap();
    client.flush().unwrap();

    // Ingest and queries against the poisoned shard carry the fatal
    // code — distinguishable from the retryable BUSY.
    client
        .ingest(TenantId(0), &[Event::claim(SourceId(0), TripleId(1))])
        .unwrap();
    match client.sync().unwrap_err() {
        NetError::Remote { code, message } => {
            assert_eq!(code, ErrorCode::ShardPoisoned);
            assert!(!code.is_retryable());
            assert!(message.contains("poisoned"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    match client.scores(TenantId(0)).unwrap_err() {
        NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::ShardPoisoned),
        other => panic!("unexpected {other:?}"),
    }

    // Stats expose the poisoned flag; the sibling shard still serves
    // bit-identical scores.
    let stats = client.stats().unwrap();
    assert!(stats.shards.iter().any(|s| s.poisoned));
    let healthy_after = client.scores(TenantId(1)).unwrap();
    for (a, b) in healthy_before.iter().zip(&healthy_after) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    handle.stop();
    join.join().unwrap().unwrap();
}

#[test]
fn remote_shutdown_when_enabled() {
    let server = Server::bind(
        "127.0.0.1:0",
        router(1, &[0], RouterConfig::new(1)),
        ServerConfig::new().with_accept_shutdown(true),
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (_handle, join) = spawn(server).unwrap();

    let mut client = Client::connect(&addr).unwrap();
    client
        .ingest(TenantId(0), &[Event::label(TripleId(1), true)])
        .unwrap();
    client.flush().unwrap();
    client.shutdown_server().unwrap();

    // The accepted batch was applied and the server wound down cleanly.
    let stats = join.join().unwrap().unwrap();
    let agg = stats.aggregate();
    assert_eq!(agg.ingest_errors, 0);
    assert_eq!(agg.ingested_events, 1);

    // New connections are refused (the listener is gone).
    assert!(Client::connect_with(
        &addr,
        ClientConfig::new().with_connect_retries(0, Duration::from_millis(1)),
    )
    .is_err());
}

#[test]
fn query_path_discards_dead_streams_and_redials() {
    // Regression: a transport error on the synchronous request path
    // must discard the dead stream and attempt a reconnect — a
    // read-only client (no ingest traffic to trigger the pipeline's
    // reconnect) would otherwise be wedged on the dead socket forever,
    // never exercising its connect retries.
    let server = Server::bind(
        "127.0.0.1:0",
        router(1, &[0], RouterConfig::new(1)),
        ServerConfig::new(),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let (handle, join) = spawn(server).unwrap();
    let mut client = Client::connect_with(
        addr.to_string(),
        ClientConfig::new().with_connect_retries(1, Duration::from_millis(5)),
    )
    .unwrap();
    client.ping().unwrap();

    // Kill the server under the connected client: the socket is dead
    // and the port is no longer listening.
    handle.stop();
    join.join().unwrap().unwrap();

    // The query must notice the dead stream and re-dial (surfacing the
    // typed retry exhaustion, not the raw socket error), and the next
    // call must re-dial again rather than reuse the dead socket.
    for _ in 0..2 {
        match client.scores(TenantId(0)).unwrap_err() {
            NetError::RetriesExhausted { attempts, .. } => assert_eq!(attempts, 2),
            other => panic!("expected retry exhaustion, got {other:?}"),
        }
    }
    assert!(client.reconnects() >= 2, "each failed query re-dials");
}

#[test]
fn stop_lands_with_idle_connections_at_capacity() {
    // Regression: with `max_connections` held by an idle connection the
    // reactor parks its listener, so no new connection can reach the
    // loop. `stop()` must still bring `serve()` down: it rings the
    // endpoint's doorbell, which the loop polls even while the listener
    // is parked, and the loop closes the idle connection on its way out.
    let server = Server::bind(
        "127.0.0.1:0",
        router(1, &[0], RouterConfig::new(1)),
        ServerConfig::new().with_max_connections(1),
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (handle, join) = spawn(server).unwrap();

    let mut idle = Client::connect(&addr).unwrap();
    idle.ping().unwrap(); // fully established, now parked in a read
    handle.stop();
    let stats = join.join().unwrap().unwrap();
    assert_eq!(stats.aggregate().ingest_errors, 0);
}

#[test]
fn reconnect_resends_unacked_batches() {
    let server = Server::bind(
        "127.0.0.1:0",
        router(1, &[0], RouterConfig::new(1)),
        ServerConfig::new(),
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (handle, join) = spawn(server).unwrap();

    let mut client = Client::connect(&addr).unwrap();
    // Queue several pipelined batches, then yank the connection before
    // draining a single ack.
    client
        .ingest(
            TenantId(0),
            &[
                Event::add_triple("z", "p", "3"),
                Event::claim(SourceId(0), TripleId(2)),
            ],
        )
        .unwrap();
    client
        .ingest(TenantId(0), &[Event::label(TripleId(2), true)])
        .unwrap();
    client.disconnect();
    assert_eq!(client.in_flight(), 2);

    // The next barrier reconnects, resends both in order, and drains.
    client.flush().unwrap();
    assert_eq!(client.reconnects(), 1);
    assert_eq!(client.in_flight(), 0);
    let scores = client.scores(TenantId(0)).unwrap();
    assert_eq!(scores.len(), 3);

    handle.stop();
    let stats = join.join().unwrap().unwrap();
    // At-least-once: the server may have applied the first delivery and
    // the resend; duplicates must not error.
    assert_eq!(stats.aggregate().ingest_errors, 0);
}

#[test]
fn metrics_over_loopback() {
    use corrfuse_net::{WireMetric, WireMetricValue};
    use corrfuse_obs::Registry;
    use std::sync::Arc;

    // One registry shared by the router workers (stage histograms,
    // traces) and the server handlers (per-frame-type wire histograms).
    let registry = Arc::new(Registry::new());
    let server = Server::bind(
        "127.0.0.1:0",
        router(
            2,
            &[0, 1],
            RouterConfig::new(2).with_metrics(Arc::clone(&registry)),
        ),
        ServerConfig::new().with_metrics(Arc::clone(&registry)),
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (handle, join) = spawn(server).unwrap();

    let mut client = Client::connect(&addr).unwrap();
    for round in 0..4u32 {
        client
            .ingest(
                TenantId(round % 2),
                &[
                    Event::add_triple("z", "p", format!("{round}")),
                    Event::claim(SourceId(0), TripleId(2 + round / 2)),
                ],
            )
            .unwrap();
    }
    client.flush().unwrap();

    let metrics = client.metrics().unwrap();
    assert!(!metrics.is_empty());
    assert!(
        metrics.windows(2).all(|w| w[0].name <= w[1].name),
        "METRICS entries arrive sorted by name"
    );
    let find = |name: &str| -> &WireMetric {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
    };

    // Router-derived series are always present, including the PR 5/6
    // serve-side-only stats the frozen STATS records cannot carry.
    match find("serve_ingested_events").value {
        WireMetricValue::Counter(v) => assert_eq!(v, 8),
        ref other => panic!("unexpected {other:?}"),
    }
    for name in [
        "serve_joint_delta_rows",
        "serve_joint_rescans",
        "serve_joint_memo_evictions",
        "serve_lift_pairs_sketch_pruned",
    ] {
        assert!(matches!(find(name).value, WireMetricValue::Counter(_)));
    }
    for shard in 0..2 {
        assert!(matches!(
            find(&format!("serve_queue_depth_shard_{shard}")).value,
            WireMetricValue::Gauge(_)
        ));
        assert!(matches!(
            find(&format!("serve_queue_high_water_shard_{shard}")).value,
            WireMetricValue::Gauge(_)
        ));
    }

    // Shard-pipeline stage histograms (router registry): the flush
    // barrier guarantees the batches were applied, so the ingest stage
    // has recorded and its quantiles read out.
    match &find("stream_ingest_ns").value {
        WireMetricValue::Histogram(h) => {
            assert!(h.count >= 1, "ingest histogram recorded");
            let snap = h.to_snapshot();
            assert!(snap.p50() <= snap.p99());
            assert!(snap.p99() <= snap.max);
            assert!(snap.max > 0);
        }
        other => panic!("unexpected {other:?}"),
    }

    // Wire-level per-frame-type histograms (server registry): the four
    // ingest requests each recorded a decode and a handle.
    for name in ["net_decode_ns_ingest", "net_handle_ns_ingest"] {
        match &find(name).value {
            WireMetricValue::Histogram(h) => assert!(h.count >= 4, "{name} count {}", h.count),
            other => panic!("unexpected {other:?}"),
        }
    }

    handle.stop();
    join.join().unwrap().unwrap();
}

#[test]
fn metrics_without_registry_still_answers() {
    let server = Server::bind(
        "127.0.0.1:0",
        router(1, &[0], RouterConfig::new(1)),
        ServerConfig::new(),
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (handle, join) = spawn(server).unwrap();

    let mut client = Client::connect(&addr).unwrap();
    let metrics = client.metrics().unwrap();
    // No registry anywhere: only the router-derived series, still a
    // valid non-empty reply.
    assert!(metrics.iter().any(|m| m.name == "serve_batches"));
    assert!(!metrics.iter().any(|m| m.name.starts_with("net_")));

    handle.stop();
    join.join().unwrap().unwrap();
}

//! Integration tests for the server's readiness reactor: the full
//! request surface, slow-loris robustness (a dribbling or stalled
//! connection never starves the others and pins no memory beyond the
//! bytes it actually sent), write backpressure against a client that
//! queries without reading, per-tenant ACL enforcement — including
//! that a mixed-tenant client hitting a denied tenant cannot poison its
//! allowed-tenant pipeline — that a panicking request takes down
//! neither its connection nor the loop, and that an idle loop sleeps
//! until it is stopped.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use corrfuse_core::dataset::{DatasetBuilder, SourceId};
use corrfuse_core::fuser::{FuserConfig, Method};
use corrfuse_core::TripleId;
use corrfuse_net::server::spawn;
use corrfuse_net::{
    AclTable, Client, ClientConfig, Conn, ErrorCode, Frame, NetError, Reply, Request, Response,
    Server, ServerConfig, Service,
};
use corrfuse_obs::Registry;
use corrfuse_serve::{RouterConfig, ShardRouter, TenantId};
use corrfuse_stream::Event;

fn seed() -> corrfuse_core::dataset::Dataset {
    let mut b = DatasetBuilder::new();
    let (s, t1) = b.observe_named("A", "x", "p", "1");
    b.label(t1, true);
    let t2 = b.triple("y", "p", "2");
    b.observe(s, t2);
    b.label(t2, false);
    b.build().unwrap()
}

fn router(tenants: &[u32]) -> ShardRouter {
    let seeds = tenants.iter().map(|&t| (TenantId(t), seed())).collect();
    ShardRouter::new(
        FuserConfig::new(Method::PrecRec),
        RouterConfig::new(tenants.len()).with_threshold(0.5),
        seeds,
    )
    .unwrap()
}

fn read_response(stream: &mut TcpStream) -> Response {
    let frame = Frame::read_from(stream).unwrap().expect("peer closed");
    Response::from_frame(&frame).unwrap()
}

fn raw_hello(stream: &mut TcpStream, credential: Option<&str>) -> Response {
    Request::Hello {
        min_version: 1,
        max_version: 1,
        credential: credential.map(str::to_string),
    }
    .to_frame()
    .write_to(stream)
    .unwrap();
    stream.flush().unwrap();
    read_response(stream)
}

/// The reactor serves the full request surface: ingest,
/// read-your-writes flush, scores/decisions, stats, ping, typed errors,
/// remote shutdown.
#[test]
fn reactor_serves_full_request_surface() {
    let server = Server::bind(
        "127.0.0.1:0",
        router(&[0, 1]),
        ServerConfig::new().with_accept_shutdown(true),
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (_handle, join) = spawn(server).unwrap();

    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();
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
    for (s, d) in scores.iter().zip(&decisions) {
        assert_eq!(*d, *s > 0.5);
    }
    match client.scores(TenantId(9)).unwrap_err() {
        NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::UnknownTenant),
        other => panic!("unexpected {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.conn_batches, 2);
    assert_eq!(stats.conn_events, 3);

    // Remote shutdown stops the reactor and yields the final stats.
    client.shutdown_server().unwrap();
    let stats = join.join().unwrap().unwrap();
    assert_eq!(stats.aggregate().ingest_errors, 0);
    assert_eq!(stats.aggregate().ingested_events, 3);
}

/// Slow-loris robustness: connections that dribble one byte at a time —
/// or declare a 64 MiB payload and stall mid-frame — keep their session
/// buffers bounded by the bytes actually received, and never starve a
/// well-behaved client sharing the one reactor thread.
#[test]
fn slow_loris_never_starves_the_reactor() {
    let server = Server::bind("127.0.0.1:0", router(&[0]), ServerConfig::new()).unwrap();
    let addr = server.local_addr().unwrap();
    let (handle, join) = spawn(server).unwrap();

    // Staller: completes the handshake, then sends only the header of
    // an INGEST frame declaring the maximum payload — and goes silent.
    let mut staller = TcpStream::connect(addr).unwrap();
    assert!(matches!(
        raw_hello(&mut staller, None),
        Response::HelloOk { .. }
    ));
    let mut header = Vec::new();
    header.extend_from_slice(b"CRFN");
    header.push(1); // version
    header.push(0x02); // INGEST
    header.extend_from_slice(&corrfuse_net::frame::MAX_PAYLOAD.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    staller.write_all(&header).unwrap();
    staller.flush().unwrap();

    // Dribblers: a full PING request delivered one byte per write.
    let dribblers: Vec<_> = (0..4)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            assert!(matches!(raw_hello(&mut s, None), Response::HelloOk { .. }));
            s
        })
        .collect();
    let ping = Request::Ping.to_frame().encode();
    let driblet = std::thread::spawn(move || {
        let mut dribblers = dribblers;
        for i in 0..ping.len() {
            for s in &mut dribblers {
                s.write_all(&ping[i..i + 1]).unwrap();
                s.flush().unwrap();
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        for s in &mut dribblers {
            assert!(matches!(read_response(s), Response::Pong));
        }
    });

    // Meanwhile a well-behaved client must make full round trips.
    let mut client = Client::connect(addr.to_string()).unwrap();
    for _ in 0..20 {
        client
            .ingest(TenantId(0), &[Event::label(TripleId(0), true)])
            .unwrap();
        client.flush().unwrap();
        assert_eq!(client.scores(TenantId(0)).unwrap().len(), 2);
    }
    driblet.join().unwrap();

    drop(staller);
    handle.stop();
    let stats = join.join().unwrap().unwrap();
    assert_eq!(stats.aggregate().ingest_errors, 0);
}

/// ACL enforcement: missing or wrong credentials get `FORBIDDEN` on
/// every tenant-scoped request (the connection keeps serving), the
/// right credential round-trips, a scoped credential cannot
/// `SUBSCRIBE`, and a mixed-tenant client hitting a denied tenant
/// cannot poison its allowed-tenant pipeline —
/// the allowed tenant's scores stay bitwise identical to a control
/// server that only ever saw the allowed traffic.
#[test]
fn acl_is_enforced_per_tenant() {
    let acl = AclTable::new()
        .allow("writer-0", [TenantId(0)])
        .allow_all("root");
    let server = Server::bind(
        "127.0.0.1:0",
        router(&[0, 1]),
        ServerConfig::new().with_acl(acl),
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (handle, join) = spawn(server).unwrap();

    // Control: an open server that only ever receives the allowed
    // traffic; the ACL'd server's allowed tenant must match it
    // bitwise.
    let control = Server::bind("127.0.0.1:0", router(&[0, 1]), ServerConfig::new()).unwrap();
    let control_addr = control.local_addr().unwrap().to_string();
    let (control_handle, control_join) = spawn(control).unwrap();

    // Missing and wrong credentials: HELLO_OK, then FORBIDDEN on
    // every tenant-scoped request; PING (unscoped) still works.
    for config in [
        ClientConfig::new(),
        ClientConfig::new().with_credential("intruder"),
    ] {
        let mut denied = Client::connect_with(&addr, config).unwrap();
        denied.ping().unwrap();
        for tenant in [0u32, 1] {
            match denied.scores(TenantId(tenant)).unwrap_err() {
                NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::Forbidden),
                other => panic!("unexpected {other:?}"),
            }
            match denied.decisions(TenantId(tenant)).unwrap_err() {
                NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::Forbidden),
                other => panic!("unexpected {other:?}"),
            }
            denied
                .ingest(TenantId(tenant), &[Event::label(TripleId(0), true)])
                .unwrap();
            match denied.sync().unwrap_err() {
                NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::Forbidden),
                other => panic!("unexpected {other:?}"),
            }
        }
        // The connection is still alive after every denial.
        denied.ping().unwrap();
    }

    // A scoped credential cannot subscribe (whole-shard access).
    let mut raw = TcpStream::connect(&addr).unwrap();
    assert!(matches!(
        raw_hello(&mut raw, Some("writer-0")),
        Response::HelloOk { .. }
    ));
    Request::Subscribe {
        shard: 0,
        from_epoch: 0,
    }
    .to_frame()
    .write_to(&mut raw)
    .unwrap();
    raw.flush().unwrap();
    match read_response(&mut raw) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Forbidden),
        other => panic!("unexpected {other:?}"),
    }
    drop(raw);

    // Mixed-tenant client: allowed tenant round-trips, denied
    // tenant is refused, and the denial does not perturb the
    // allowed pipeline.
    let mut writer =
        Client::connect_with(&addr, ClientConfig::new().with_credential("writer-0")).unwrap();
    let mut control_client = Client::connect(&control_addr).unwrap();
    let batches: [&[Event]; 3] = [
        &[
            Event::add_triple("z", "p", "3"),
            Event::claim(SourceId(0), TripleId(2)),
        ],
        &[Event::label(TripleId(2), true)],
        &[Event::claim(SourceId(0), TripleId(1))],
    ];
    for (i, batch) in batches.iter().enumerate() {
        writer.ingest(TenantId(0), batch).unwrap();
        control_client.ingest(TenantId(0), batch).unwrap();
        if i == 1 {
            // Interleave a denied-tenant batch mid-pipeline.
            writer
                .ingest(TenantId(1), &[Event::label(TripleId(0), false)])
                .unwrap();
            match writer.sync().unwrap_err() {
                NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::Forbidden),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    writer.flush().unwrap();
    control_client.flush().unwrap();
    let scores = writer.scores(TenantId(0)).unwrap();
    let control_scores = control_client.scores(TenantId(0)).unwrap();
    assert_eq!(
        scores, control_scores,
        "denied-tenant traffic perturbed the allowed pipeline"
    );
    // The denied tenant never received the batch.
    match writer.scores(TenantId(1)).unwrap_err() {
        NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::Forbidden),
        other => panic!("unexpected {other:?}"),
    }

    handle.stop();
    control_handle.stop();
    let stats = join.join().unwrap().unwrap();
    let control_stats = control_join.join().unwrap().unwrap();
    assert_eq!(
        stats.aggregate().ingested_events,
        control_stats.aggregate().ingested_events,
        "denied batches must never reach the router"
    );
}

/// Write backpressure is per request, not per read: a client pipelines
/// 3000 `SCORES` requests (one ~54 KB write, a single read chunk on the
/// server) for two large tenants and never reads. The reactor must stop
/// answering once its write buffer reaches the high-water mark, so only
/// what fits in that buffer plus the kernel socket buffers is ever
/// answered — not all 3000 responses (~110 MiB) queued in memory. Once
/// the client reads, every response arrives, in request order and
/// bitwise equal to the in-process scores.
#[test]
fn unread_responses_stop_the_reactor_answering() {
    use corrfuse_obs::Registry;
    use std::io::BufReader;
    use std::sync::Arc;
    use std::time::Instant;

    let big = |n_triples: usize| {
        let mut b = DatasetBuilder::new();
        let s = b.source("A");
        for i in 0..n_triples {
            let t = b.triple(format!("x{i}"), "p", "1");
            b.observe(s, t);
            if i % 7 == 0 {
                b.label(t, i % 2 == 0);
            }
        }
        b.build().unwrap()
    };
    let sizes = [5000usize, 4000];
    let router = ShardRouter::new(
        FuserConfig::new(Method::PrecRec),
        RouterConfig::new(1),
        sizes
            .iter()
            .enumerate()
            .map(|(t, &n)| (TenantId(t as u32), big(n)))
            .collect(),
    )
    .unwrap();
    let registry = Arc::new(Registry::new());
    let server = Server::bind(
        "127.0.0.1:0",
        router,
        ServerConfig::new().with_metrics(Arc::clone(&registry)),
    )
    .unwrap();
    let expected: Vec<Vec<f64>> = (0..sizes.len() as u32)
        .map(|t| server.router().scores(TenantId(t)).unwrap())
        .collect();
    for (scores, &n) in expected.iter().zip(&sizes) {
        assert_eq!(scores.len(), n);
    }
    let largest_response = expected
        .iter()
        .map(|s| {
            Response::ScoresOk { scores: s.clone() }
                .to_frame()
                .encode()
                .len()
        })
        .max()
        .unwrap();
    let addr = server.local_addr().unwrap();
    let (handle, join) = spawn(server).unwrap();

    let n_requests = 3000;
    let tenant_of = |i: usize| (i % sizes.len()) as u32;
    let mut stream = TcpStream::connect(addr).unwrap();
    assert!(matches!(
        raw_hello(&mut stream, None),
        Response::HelloOk { .. }
    ));
    let mut pipeline = Vec::new();
    for i in 0..n_requests {
        pipeline.extend(
            Request::Scores {
                tenant: TenantId(tenant_of(i)),
                min_epoch: None,
            }
            .to_frame()
            .encode(),
        );
    }
    stream.write_all(&pipeline).unwrap();
    stream.flush().unwrap();

    // Let the server answer all it will while nothing is read: wait
    // until the handled count is non-zero and holds still for half a
    // second.
    let handled = registry.histogram("net_handle_ns_scores");
    let deadline = Instant::now() + Duration::from_secs(30);
    let (mut last, mut still) = (0, 0);
    while still < 5 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(100));
        let now = handled.count();
        if now == last && now > 0 {
            still += 1;
        } else {
            (last, still) = (now, 0);
        }
    }
    let answered = handled.count();
    eprintln!("{answered} of {n_requests} answered while the client did not read");
    assert!(
        answered > 0,
        "the reactor must answer up to its high-water mark"
    );
    assert!(
        answered as usize * largest_response <= 16 << 20,
        "{answered} of {n_requests} responses (~{} MiB) answered for a client \
         that never reads",
        (answered as usize * largest_response) >> 20
    );

    // The client drains: every response arrives, in order, bitwise.
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for i in 0..n_requests {
        let frame = Frame::read_from(&mut reader).unwrap().expect("peer closed");
        match Response::from_frame(&frame).unwrap() {
            Response::ScoresOk { scores } => {
                let want = &expected[tenant_of(i) as usize];
                assert_eq!(scores.len(), want.len(), "response {i} out of order");
                for (a, b) in scores.iter().zip(want) {
                    assert_eq!(a.to_bits(), b.to_bits(), "response {i} diverged");
                }
            }
            other => panic!("response {i}: unexpected {other:?}"),
        }
    }
    assert_eq!(handled.count(), n_requests as u64);
    drop(reader);
    drop(stream);

    handle.stop();
    join.join().unwrap().unwrap();
}

/// The leader's service, except that `SCORES` on one tenant panics —
/// as a read does when it unwraps a lock a crashed shard poisoned.
struct PanicsOnScores {
    router: ShardRouter,
    tenant: TenantId,
}

impl Service for PanicsOnScores {
    fn handle(&self, request: Request, conn: &mut Conn) -> Reply {
        if matches!(&request, Request::Scores { tenant, .. } if *tenant == self.tenant) {
            panic!("scores of tenant {} failed", self.tenant.0);
        }
        self.router.handle(request, conn)
    }
}

/// A panic in `Service::handle` is answered with `INTERNAL` on its own
/// request. The same connection's next request, and a connection opened
/// before the panic, are still answered, and the loop stops cleanly.
#[test]
fn a_panicking_request_is_answered_and_the_loop_serves_on() {
    let service = PanicsOnScores {
        router: router(&[0, 1]),
        tenant: TenantId(1),
    };
    let server = Server::bind("127.0.0.1:0", service, ServerConfig::new()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run());

    let mut bystander = Client::connect(&addr).unwrap();
    bystander.ping().unwrap();
    let mut client = Client::connect(&addr).unwrap();
    match client.scores(TenantId(1)).unwrap_err() {
        NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::Internal),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(client.scores(TenantId(0)).unwrap().len(), 2);
    assert_eq!(bystander.scores(TenantId(0)).unwrap().len(), 2);
    bystander.ping().unwrap();

    handle.stop();
    join.join()
        .expect("the loop thread")
        .expect("serve returns Ok");
}

/// The loop polls with no timeout: an endpoint with no traffic records
/// no wake-up after its first turns, and `stop()` still lands at once,
/// through the doorbell rather than a tick.
#[test]
fn an_idle_endpoint_sleeps_until_stopped() {
    let registry = Arc::new(Registry::new());
    let server = Server::bind(
        "127.0.0.1:0",
        router(&[0]),
        ServerConfig::new().with_metrics(Arc::clone(&registry)),
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (handle, join) = spawn(server).unwrap();

    // The PONG proves the loop has taken its turns and counted them; the
    // connection then stays open and silent.
    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();
    let wakeups = registry.counter("net_reactor_wakeups");
    let turns = wakeups.get();
    assert!(turns > 0, "the loop counts its turns");
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(wakeups.get(), turns, "an idle loop woke up");

    let stopping = Instant::now();
    handle.stop();
    join.join().unwrap().unwrap();
    let took = stopping.elapsed();
    assert!(took < Duration::from_secs(1), "stop took {took:?}");
    drop(client);
}

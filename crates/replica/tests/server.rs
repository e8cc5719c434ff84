//! The follower endpoint runs the leader's server loop, so it has the
//! leader's robustness: a slow-loris staller and byte-dribblers never
//! starve a well-behaved reader (whose scores stay bitwise the
//! leader's), writes and `SUBSCRIBE` bounce with `FORBIDDEN` while the
//! connection keeps serving, and a per-tenant ACL holds on the follower
//! exactly as on the leader.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use corrfuse_core::dataset::{DatasetBuilder, SourceId};
use corrfuse_core::fuser::{FuserConfig, Method};
use corrfuse_core::TripleId;
use corrfuse_net::server::spawn;
use corrfuse_net::{
    AclTable, Client, ClientConfig, ErrorCode, Frame, NetError, Request, Response, Server,
    ServerConfig, ServerHandle,
};
use corrfuse_replica::{spawn as spawn_follower, Follower, FollowerConfig, FollowerServer};
use corrfuse_serve::{ReplicationConfig, RouterConfig, RouterStats, ShardRouter, TenantId};
use corrfuse_stream::Event;

const TENANTS: [u32; 2] = [0, 1];

fn seed() -> corrfuse_core::dataset::Dataset {
    let mut b = DatasetBuilder::new();
    let (s, t1) = b.observe_named("A", "x", "p", "1");
    b.label(t1, true);
    let t2 = b.triple("y", "p", "2");
    b.observe(s, t2);
    b.label(t2, false);
    b.build().unwrap()
}

fn read_response(stream: &mut TcpStream) -> Response {
    let frame = Frame::read_from(stream).unwrap().expect("peer closed");
    Response::from_frame(&frame).unwrap()
}

fn raw_hello(stream: &mut TcpStream) {
    Request::Hello {
        min_version: 1,
        max_version: 1,
        credential: None,
    }
    .to_frame()
    .write_to(stream)
    .unwrap();
    stream.flush().unwrap();
    assert!(matches!(read_response(stream), Response::HelloOk { .. }));
}

fn assert_bitwise(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: score count");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}, triple {i}: {a} vs {b}");
    }
}

fn assert_forbidden<T: std::fmt::Debug>(result: Result<T, NetError>) {
    match result {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Forbidden),
        other => panic!("expected FORBIDDEN, got {other:?}"),
    }
}

/// A running follower server: its address, stop handle and join handle.
type FollowerEndpoint = (
    String,
    ServerHandle,
    JoinHandle<corrfuse_replica::Result<()>>,
);

/// A leader with two tenants on two shards and some replicated traffic,
/// a follower caught up to the leader's epochs, and the leader's scores
/// to compare against.
struct Cluster {
    leader: (ServerHandle, JoinHandle<corrfuse_net::Result<RouterStats>>),
    follower: Arc<Follower>,
    leader_scores: Vec<Vec<f64>>,
}

impl Cluster {
    fn start() -> Cluster {
        let config = FuserConfig::new(Method::PrecRec);
        let router = ShardRouter::new(
            config.clone(),
            RouterConfig::new(2)
                .with_threshold(0.5)
                .with_replication(ReplicationConfig::new()),
            TENANTS.iter().map(|&t| (TenantId(t), seed())).collect(),
        )
        .unwrap();
        let server = Server::bind("127.0.0.1:0", router, ServerConfig::new()).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let router = server.router_handle();
        let leader = spawn(server).unwrap();
        let follower = Arc::new(
            Follower::connect(
                &addr,
                FollowerConfig::new(config).with_catchup_timeout(Duration::from_secs(10)),
            )
            .unwrap(),
        );

        let mut client = Client::connect(&addr).unwrap();
        for &t in &TENANTS {
            client
                .ingest(
                    TenantId(t),
                    &[
                        Event::add_triple("z", "p", "3"),
                        Event::claim(SourceId(0), TripleId(2)),
                    ],
                )
                .unwrap();
            client
                .ingest(TenantId(t), &[Event::label(TripleId(2), true)])
                .unwrap();
        }
        client.flush().unwrap();
        let leader_scores: Vec<Vec<f64>> = TENANTS
            .iter()
            .map(|&t| client.scores(TenantId(t)).unwrap())
            .collect();
        let epochs: Vec<u64> = router.stats().shards.iter().map(|s| s.epoch).collect();
        drop(router); // the leader's graceful stop needs the last reference
        for (&t, want) in TENANTS.iter().zip(&leader_scores) {
            let shard = follower.shard_of(TenantId(t));
            let caught_up = follower.scores_at(TenantId(t), epochs[shard]).unwrap();
            assert_bitwise(&caught_up, want, "in-process follower read");
        }
        Cluster {
            leader,
            follower,
            leader_scores,
        }
    }

    /// Serve the follower over TCP with `config`.
    fn follower_endpoint(&self, config: ServerConfig) -> FollowerEndpoint {
        let fserver =
            FollowerServer::bind("127.0.0.1:0", Arc::clone(&self.follower), config).unwrap();
        let addr = fserver.local_addr().unwrap().to_string();
        let (handle, join) = spawn_follower(fserver).unwrap();
        (addr, handle, join)
    }

    fn stop(self) {
        self.follower.shutdown();
        let (handle, join) = self.leader;
        handle.stop();
        let stats = join.join().unwrap().unwrap();
        assert_eq!(stats.aggregate().ingest_errors, 0);
    }
}

/// A staller declaring a `MAX_PAYLOAD` frame then going silent and four
/// byte-dribblers share the follower's server thread with a reader; the
/// reader's round trips all complete with the leader's scores, and the
/// dribbled `SCORES` requests are answered bitwise too. Writes, `FLUSH`
/// and `SUBSCRIBE` are refused with `FORBIDDEN` on connections that keep
/// serving afterwards.
#[test]
fn follower_endpoint_survives_slow_loris_and_refuses_writes() {
    let cluster = Cluster::start();
    let (addr, handle, join) = cluster.follower_endpoint(ServerConfig::new());

    // Staller: handshakes, then sends only the header of a frame
    // declaring the maximum payload — and goes silent.
    let mut staller = TcpStream::connect(&addr).unwrap();
    raw_hello(&mut staller);
    let mut header = Vec::new();
    header.extend_from_slice(b"CRFN");
    header.push(1); // version
    header.push(0x03); // SCORES
    header.extend_from_slice(&corrfuse_net::frame::MAX_PAYLOAD.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    staller.write_all(&header).unwrap();
    staller.flush().unwrap();

    // Dribblers: a full SCORES request delivered one byte per write.
    let dribblers: Vec<_> = (0..4)
        .map(|_| {
            let mut s = TcpStream::connect(&addr).unwrap();
            s.set_nodelay(true).unwrap();
            raw_hello(&mut s);
            s
        })
        .collect();
    let request = Request::Scores {
        tenant: TenantId(0),
        min_epoch: None,
    }
    .to_frame()
    .encode();
    let want = cluster.leader_scores[0].clone();
    let driblet = std::thread::spawn(move || {
        let mut dribblers = dribblers;
        for i in 0..request.len() {
            for s in &mut dribblers {
                s.write_all(&request[i..i + 1]).unwrap();
                s.flush().unwrap();
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        for s in &mut dribblers {
            match read_response(s) {
                Response::ScoresOk { scores } => assert_bitwise(&scores, &want, "dribbled read"),
                other => panic!("unexpected {other:?}"),
            }
        }
    });

    // Meanwhile a well-behaved reader makes full round trips.
    let mut reader = Client::connect(&addr).unwrap();
    for _ in 0..20 {
        for (&t, want) in TENANTS.iter().zip(&cluster.leader_scores) {
            assert_bitwise(&reader.scores(TenantId(t)).unwrap(), want, "wire read");
        }
    }
    driblet.join().unwrap();

    // Read-only: INGEST and FLUSH bounce, and the connection serves on.
    reader
        .ingest(TenantId(0), &[Event::label(TripleId(0), false)])
        .unwrap();
    assert_forbidden(reader.sync());
    assert_forbidden(reader.flush());
    assert_bitwise(
        &reader.scores(TenantId(0)).unwrap(),
        &cluster.leader_scores[0],
        "read after refused writes",
    );
    assert_eq!(
        reader.reconnects(),
        0,
        "refusals must not drop the connection"
    );

    // No chained replication: SUBSCRIBE bounces, the connection serves on.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw_hello(&mut raw);
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
    Request::Ping.to_frame().write_to(&mut raw).unwrap();
    raw.flush().unwrap();
    assert!(matches!(read_response(&mut raw), Response::Pong));

    drop((staller, raw, reader));
    handle.stop();
    join.join().unwrap().unwrap();
    cluster.stop();
}

/// The follower endpoint enforces a per-tenant ACL like the leader's: a
/// credential scoped to tenant 0 reads tenant 0 bitwise and gets
/// `FORBIDDEN` for tenant 1 on a connection that keeps serving; no
/// credential reads nothing.
#[test]
fn follower_endpoint_enforces_acls() {
    let cluster = Cluster::start();
    let acl = AclTable::new().allow("reader-0", [TenantId(0)]);
    let (addr, handle, join) = cluster.follower_endpoint(ServerConfig::new().with_acl(acl));

    let mut scoped =
        Client::connect_with(&addr, ClientConfig::new().with_credential("reader-0")).unwrap();
    assert_bitwise(
        &scoped.scores(TenantId(0)).unwrap(),
        &cluster.leader_scores[0],
        "granted tenant",
    );
    assert_forbidden(scoped.scores(TenantId(1)));
    assert_forbidden(scoped.decisions(TenantId(1)));
    assert_eq!(scoped.decisions(TenantId(0)).unwrap().len(), 3);
    assert_eq!(
        scoped.reconnects(),
        0,
        "denials must not drop the connection"
    );

    let mut anonymous = Client::connect(&addr).unwrap();
    anonymous.ping().unwrap();
    for &t in &TENANTS {
        assert_forbidden(anonymous.scores(TenantId(t)));
    }

    drop((scoped, anonymous));
    handle.stop();
    join.join().unwrap().unwrap();
    cluster.stop();
}

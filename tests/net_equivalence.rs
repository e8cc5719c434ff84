//! The network subsystem's trust anchor, as a property over random
//! remote-producer workloads: events ingested through **real TCP
//! loopback connections** — any shard count, pipelined clients, forced
//! mid-stream disconnect/reconnects with at-least-once resend, random
//! backpressure, journal rotation — produce per-shard state whose
//! scores are **bitwise identical** to a from-scratch
//! `Fuser::fit + score_all` on the accumulated dataset, and the
//! tenant-scoped scores read back *over the wire* are bitwise identical
//! to that same fit.
//!
//! The server is one readiness reactor; the idle-scale test holds 10⁴
//! idle connections on it while producers ingest, so the equivalence
//! (reactor == from-scratch fit) is pinned bitwise at the wire under
//! idle load too.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use corrfuse::core::fuser::{Fuser, FuserConfig, Method};
use corrfuse::core::testkit::{run_cases, Gen};
use corrfuse::net::server::spawn;
use corrfuse::net::{
    raise_nofile_limit, Client, ClientConfig, Frame, Request, Response, Server, ServerConfig,
};
use corrfuse::serve::tenant::NAMESPACE_SEP;
use corrfuse::serve::{Backpressure, JournalConfig, RouterConfig, ShardRouter, TenantId};
use corrfuse::stream::StreamSession;
use corrfuse::synth::{remote_producer_scripts, MultiTenantSpec, ProducerAction, RemoteSpec};

fn random_method(g: &mut Gen) -> Method {
    match g.usize_in(0, 3) {
        0 => Method::PrecRec,
        1 => Method::Exact,
        _ => Method::Aggressive,
    }
}

#[test]
fn tcp_loopback_ingestion_equals_batch_fit() {
    let dir = std::env::temp_dir().join(format!("corrfuse-net-eq-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    run_cases("net_equivalence", 4, |g| {
        let case_dir = dir.join(format!("case-{}", g.usize_in(0, usize::MAX / 2)));
        std::fs::create_dir_all(&case_dir).unwrap();
        let n_tenants = g.usize_in(2, 5);
        let spec = RemoteSpec {
            tenants: MultiTenantSpec {
                n_tenants,
                triples_largest: g.usize_in(80, 130),
                skew: g.f64_in(0.0, 1.5),
                n_sources: g.usize_in(3, 5),
                batches_largest: g.usize_in(3, 6),
                label_fraction: g.f64_in(0.0, 0.5),
                seed: g.usize_in(0, usize::MAX / 2) as u64,
            },
            n_producers: g.usize_in(1, 4),
            reconnect_every: if g.bool(0.7) {
                Some(g.usize_in(1, 4))
            } else {
                None
            },
        };
        let workload = remote_producer_scripts(&spec).expect("workload generates");
        eprintln!(
            "case: {} tenants, {} producers, {} events, reconnect_every {:?}",
            n_tenants,
            spec.n_producers,
            workload.n_events(),
            spec.reconnect_every,
        );
        let config = FuserConfig::new(random_method(g));
        let n_shards = g.usize_in(1, n_tenants);
        // Either lossless blocking backpressure with deep pipelining, or
        // a rejecting policy with a strictly-ordered (1 in-flight)
        // retrying client — the two order-safe deployment shapes the
        // protocol documents.
        let (backpressure, client_config) = if g.bool(0.5) {
            (
                Backpressure::Block,
                ClientConfig::new().with_max_in_flight(g.usize_in(2, 32)),
            )
        } else {
            (
                if g.bool(0.5) {
                    Backpressure::Reject
                } else {
                    Backpressure::Timeout(Duration::from_millis(g.usize_in(1, 5) as u64))
                },
                ClientConfig::new()
                    .with_max_in_flight(1)
                    .with_busy_retries(10_000, Duration::from_micros(200)),
            )
        };
        let router_cfg = RouterConfig::new(n_shards)
            .with_queue_capacity(g.usize_in(1, 64))
            .with_backpressure(backpressure)
            .with_batching(g.usize_in(1, 256))
            .with_journal(
                JournalConfig::new(&case_dir).with_rotate_max_batches(g.usize_in(1, 4) as u64),
            );
        let seeds = workload
            .seeds
            .iter()
            .map(|(t, ds)| (TenantId(*t), ds.clone()))
            .collect();
        let router =
            ShardRouter::new(config.clone(), router_cfg, seeds).expect("router constructs");
        let server =
            Server::bind("127.0.0.1:0", router, ServerConfig::new()).expect("server binds");
        let addr = server.local_addr().expect("bound addr").to_string();
        let (handle, join) = spawn(server).expect("server spawns");

        // One real TCP client per producer, each replaying its script —
        // disconnects included — then flushing (read-your-writes).
        std::thread::scope(|scope| {
            for script in &workload.scripts {
                let addr = addr.clone();
                let client_config = client_config.clone();
                scope.spawn(move || {
                    let mut client =
                        Client::connect_with(&addr, client_config).expect("producer connects");
                    for action in &script.actions {
                        match action {
                            ProducerAction::Send { tenant, events } => {
                                client
                                    .ingest(TenantId(*tenant), events)
                                    .expect("pipelined ingest accepted");
                            }
                            ProducerAction::Reconnect => client.disconnect(),
                        }
                    }
                    client.flush().expect("producer flush");
                    if script.n_reconnects() > 0 {
                        assert!(
                            client.reconnects() >= script.n_reconnects() as u64,
                            "forced disconnects must really reconnect"
                        );
                    }
                });
            }
        });

        // Read every tenant's scores back over the wire.
        let mut reader = Client::connect(&addr).expect("reader connects");
        reader.flush().expect("global barrier");
        let wire_scores: Vec<(u32, Vec<f64>)> = workload
            .seeds
            .iter()
            .map(|(t, _)| (*t, reader.scores(TenantId(*t)).expect("tenant scores")))
            .collect();
        drop(reader);

        handle.stop();
        let stats = join.join().expect("accept thread").expect("graceful stop");
        let agg = stats.aggregate();
        assert_eq!(agg.ingest_errors, 0, "{:?}", agg.last_error);

        // Per shard: the journal replays to the accumulated dataset; a
        // from-scratch fit on it must match the shard's served state
        // bitwise — and the scores each tenant read over TCP must be
        // that same fit, filtered to the tenant's namespace.
        for shard in 0..n_shards {
            let journal = JournalConfig::new(&case_dir).shard_path(shard);
            let restored =
                StreamSession::restore(config.clone(), &journal).expect("journal restores");
            let ds = restored.dataset();
            let fresh = Fuser::fit(&config, ds, ds.gold().expect("shard gold"))
                .expect("fresh fit succeeds");
            let fresh_scores = fresh.score_all(ds).expect("fresh scoring");
            for (i, (a, b)) in restored.scores().iter().zip(&fresh_scores).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "shard {shard}, triple {i}: replayed {a} vs batch fit {b}"
                );
            }
            for (tenant, over_wire) in &wire_scores {
                if *tenant as usize % n_shards != shard {
                    continue;
                }
                // Tenant-local triple order is registration order, which
                // is shard-id order filtered to the tenant's namespace.
                let prefix = format!("{tenant}{NAMESPACE_SEP}");
                let expected: Vec<f64> = ds
                    .triples()
                    .filter(|t| ds.triple(*t).subject.starts_with(&prefix))
                    .map(|t| fresh_scores[t.index()])
                    .collect();
                assert_eq!(
                    over_wire.len(),
                    expected.len(),
                    "tenant {tenant} triple count over the wire"
                );
                for (i, (a, b)) in over_wire.iter().zip(&expected).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "tenant {tenant}, local triple {i}: wire {a} vs batch fit {b}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&case_dir).ok();
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// The raw HELLO handshake for a bare idle connection.
fn raw_handshake(stream: &mut TcpStream) {
    Request::Hello {
        min_version: 1,
        max_version: 1,
        credential: None,
    }
    .to_frame()
    .write_to(stream)
    .expect("hello");
    stream.flush().expect("hello flush");
    let frame = Frame::read_from(stream).expect("hello response").unwrap();
    match Response::from_frame(&frame).expect("hello decodes") {
        Response::HelloOk { .. } => {}
        other => panic!("expected HELLO_OK, got {other:?}"),
    }
}

/// Idle scale: one reactor thread holds 10⁴ idle connections (file
/// descriptors, not threads) while 8 producers ingest; the scores read
/// over the wire are bitwise identical to a from-scratch
/// `Fuser::fit + score_all` on the accumulated (journal-replayed)
/// dataset — and the idle connections are still being served
/// afterwards. `CORRFUSE_QUICK` shrinks the fleet for smoke tiers.
#[test]
fn reactor_idle_scale_matches_batch_fit() {
    let quick = std::env::var("CORRFUSE_QUICK").is_ok();
    let target_idle: usize = if quick { 2_000 } else { 10_000 };
    // Each loopback connection costs two fds (client + server end);
    // keep headroom for journals, producers and the test harness.
    let effective = raise_nofile_limit((target_idle * 2 + 512) as u64);
    let n_idle = target_idle.min((effective.saturating_sub(512) / 2) as usize);
    eprintln!("idle-scale: {n_idle} idle connections (nofile limit {effective})");

    let spec = RemoteSpec {
        tenants: MultiTenantSpec {
            n_tenants: 4,
            triples_largest: 100,
            skew: 0.7,
            n_sources: 4,
            batches_largest: 4,
            label_fraction: 0.3,
            seed: 4242,
        },
        n_producers: 8,
        reconnect_every: None,
    };
    let workload = remote_producer_scripts(&spec).expect("workload generates");
    let config = FuserConfig::new(Method::PrecRec);
    let n_shards = 2;
    let dir = std::env::temp_dir().join(format!("corrfuse-idle-scale-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let run = |n_idle: usize, journal_dir: &std::path::Path| {
        std::fs::create_dir_all(journal_dir).unwrap();
        let router_cfg = RouterConfig::new(n_shards)
            .with_threshold(0.5)
            .with_batching(64)
            .with_journal(JournalConfig::new(journal_dir));
        let seeds = workload
            .seeds
            .iter()
            .map(|(t, ds)| (TenantId(*t), ds.clone()))
            .collect();
        let router = ShardRouter::new(config.clone(), router_cfg, seeds).expect("router");
        let server = Server::bind(
            "127.0.0.1:0",
            router,
            ServerConfig::new().with_max_connections(n_idle + 64),
        )
        .expect("server binds");
        let addr = server.local_addr().expect("addr");
        let (handle, join) = spawn(server).expect("server spawns");

        // The idle fleet: fully handshaken connections that then just
        // sit there. Connected from a few threads so the single-core
        // host overlaps client and reactor work.
        let n_threads = 8;
        let mut idle: Vec<TcpStream> = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..n_threads)
                .map(|i| {
                    let quota = n_idle / n_threads + usize::from(i < n_idle % n_threads);
                    scope.spawn(move || {
                        (0..quota)
                            .map(|_| {
                                let mut s = TcpStream::connect(addr).expect("idle connect");
                                raw_handshake(&mut s);
                                s
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            joins.into_iter().flat_map(|j| j.join().unwrap()).collect()
        });
        assert_eq!(idle.len(), n_idle);

        // 8 active producers ingest through the same server while the
        // idle fleet sits registered.
        std::thread::scope(|scope| {
            for script in &workload.scripts {
                let addr = addr.to_string();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("producer connects");
                    for action in &script.actions {
                        match action {
                            ProducerAction::Send { tenant, events } => {
                                client.ingest(TenantId(*tenant), events).expect("ingest");
                            }
                            ProducerAction::Reconnect => client.disconnect(),
                        }
                    }
                    client.flush().expect("producer flush");
                });
            }
        });

        let mut reader = Client::connect(addr.to_string()).expect("reader connects");
        reader.flush().expect("barrier");
        let wire_scores: Vec<(u32, Vec<f64>)> = workload
            .seeds
            .iter()
            .map(|(t, _)| (*t, reader.scores(TenantId(*t)).expect("scores")))
            .collect();
        drop(reader);

        // The idle fleet is still served after all that traffic: a
        // sample of connections must still round-trip a PING.
        let ping = Request::Ping.to_frame().encode();
        for s in idle.iter_mut().step_by((n_idle / 64).max(1)) {
            s.write_all(&ping).expect("idle ping");
            s.flush().expect("idle ping flush");
            let frame = Frame::read_from(s).expect("idle pong").unwrap();
            match Response::from_frame(&frame).expect("idle pong decodes") {
                Response::Pong => {}
                other => panic!("expected PONG on an idle connection, got {other:?}"),
            }
        }
        drop(idle);

        handle.stop();
        let stats = join.join().expect("serve thread").expect("graceful stop");
        assert_eq!(stats.aggregate().ingest_errors, 0);
        wire_scores
    };

    let journal_dir = dir.join("reactor");
    let reactor_scores = run(n_idle, &journal_dir);

    // The reactor-served state equals a from-scratch
    // `Fuser::fit + score_all` on the accumulated dataset.
    for shard in 0..n_shards {
        let journal = JournalConfig::new(&journal_dir).shard_path(shard);
        let restored = StreamSession::restore(config.clone(), &journal).expect("journal restores");
        let ds = restored.dataset();
        let fresh = Fuser::fit(&config, ds, ds.gold().expect("shard gold")).expect("fresh fit");
        let fresh_scores = fresh.score_all(ds).expect("fresh scoring");
        for (tenant, over_wire) in &reactor_scores {
            if *tenant as usize % n_shards != shard {
                continue;
            }
            let prefix = format!("{tenant}{NAMESPACE_SEP}");
            let expected: Vec<f64> = ds
                .triples()
                .filter(|t| ds.triple(*t).subject.starts_with(&prefix))
                .map(|t| fresh_scores[t.index()])
                .collect();
            assert_eq!(over_wire.len(), expected.len(), "tenant {tenant} count");
            for (i, (a, b)) in over_wire.iter().zip(&expected).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "tenant {tenant}, local triple {i}: wire {a} vs batch fit {b}"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

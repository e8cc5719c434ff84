//! A follower tailing a leader whose one server thread is busy: a
//! producer pipelines hundreds of `INGEST`s behind one `FLUSH`, so the
//! loop that streams the follower's batches spends the burst answering
//! requests and then waiting out the flush. The default subscriber
//! queue absorbs what commits meanwhile: the follower keeps its first
//! subscription on every shard, never re-bootstraps, and ends bitwise
//! equal to the leader. Its acknowledgements reach the leader: the
//! leader's METRICS report every shard acked through its epoch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use corrfuse_core::dataset::{DatasetBuilder, SourceId};
use corrfuse_core::fuser::{FuserConfig, Method};
use corrfuse_core::TripleId;
use corrfuse_net::server::spawn;
use corrfuse_net::wire::{WireMetric, WireMetricValue};
use corrfuse_net::{Client, ClientConfig, Server, ServerConfig};
use corrfuse_replica::{Follower, FollowerConfig};
use corrfuse_serve::{ReplicationConfig, RouterConfig, ShardRouter, TenantId};
use corrfuse_stream::Event;

const TENANTS: u32 = 4;
const SHARDS: usize = 2;
const INGESTS_PER_TENANT: u32 = 300;

/// The value of the gauge `name` in a METRICS reply.
fn gauge(metrics: &[WireMetric], name: &str) -> u64 {
    match metrics.iter().find(|m| m.name == name).map(|m| &m.value) {
        Some(WireMetricValue::Gauge(v)) => *v as u64,
        other => panic!("{name}: {other:?}"),
    }
}

fn seed() -> corrfuse_core::dataset::Dataset {
    let mut b = DatasetBuilder::new();
    let (s, t1) = b.observe_named("A", "x", "p", "1");
    b.label(t1, true);
    let t2 = b.triple("y", "p", "2");
    b.observe(s, t2);
    b.label(t2, false);
    b.build().unwrap()
}

#[test]
fn a_follower_keeps_its_subscription_through_a_pipelined_burst() {
    let config = FuserConfig::new(Method::PrecRec);
    let seeds = (0..TENANTS).map(|t| (TenantId(t), seed())).collect();
    let router = ShardRouter::new(
        config.clone(),
        RouterConfig::new(SHARDS)
            .with_threshold(0.5)
            .with_replication(ReplicationConfig::new()),
        seeds,
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", router, ServerConfig::new()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (handle, join) = spawn(server).unwrap();

    let follower = Arc::new(
        Follower::connect(
            &addr,
            FollowerConfig::new(config).with_catchup_timeout(Duration::from_secs(20)),
        )
        .unwrap(),
    );
    follower.stats_at(0).expect("every shard bootstraps");

    let mut client =
        Client::connect_with(&addr, ClientConfig::new().with_max_in_flight(256)).unwrap();
    for k in 0..INGESTS_PER_TENANT {
        for t in 0..TENANTS {
            let events = [
                Event::add_triple(format!("s{k}"), "p", "o"),
                Event::claim(SourceId(0), TripleId(2 + k)),
            ];
            client.ingest(TenantId(t), &events).unwrap();
        }
    }
    client.flush().unwrap();

    let metrics = client.metrics().unwrap();
    let leader_epoch = |shard: usize| gauge(&metrics, &format!("serve_epoch_shard_{shard}"));
    let targets: Vec<u64> = (0..SHARDS).map(leader_epoch).collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while follower.applied_epochs() != targets {
        assert!(
            Instant::now() < deadline,
            "follower at {:?}, leader at {targets:?}",
            follower.applied_epochs()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for s in follower.stats().shards {
        assert_eq!(s.subscriptions, 1, "shard {} resubscribed", s.shard);
        assert_eq!(s.snapshots, 1, "shard {} re-bootstrapped", s.shard);
    }
    for t in 0..TENANTS {
        let leader = client.scores(TenantId(t)).unwrap();
        let replica = follower.scores(TenantId(t)).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&replica), bits(&leader), "tenant {t}");
    }
    // The follower acknowledges each applied epoch: the leader's ack
    // marks reach its shard epochs, and it reports no lag.
    loop {
        let metrics = client.metrics().unwrap();
        let series = |prefix: &str| -> Vec<u64> {
            (0..SHARDS)
                .map(|i| gauge(&metrics, &format!("{prefix}_shard_{i}")))
                .collect()
        };
        let (acked, epochs) = (series("replica_applied_epoch"), series("serve_epoch"));
        let lag = gauge(&metrics, "replica_lag_batches");
        if acked == epochs && lag == 0 {
            assert_eq!(epochs, targets);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "leader saw acks {acked:?}, epochs {epochs:?}, lag {lag}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    drop(client);
    follower.shutdown();
    handle.stop();
    join.join().unwrap().unwrap();
}

//! Read-replica walkthrough: a leader `ShardRouter` behind the
//! `corrfuse-net` TCP server, two `corrfuse-replica` followers tailing
//! it over loopback replication links, and bounded-staleness reads
//! (`min_epoch`) answered by the followers — in process and through the
//! read-only follower server.
//!
//! ```sh
//! cargo run --release --example replica_follower
//! ```
//!
//! Everything runs in one process over ephemeral loopback ports; the
//! example prints the leader's epoch/lag gauges and each follower's
//! replication counters on the way out.

use std::sync::Arc;
use std::time::{Duration, Instant};

use corrfuse::core::fuser::{FuserConfig, Method};
use corrfuse::net::server::spawn;
use corrfuse::net::wire::WireMetricValue;
use corrfuse::net::{Client, Server, ServerConfig};
use corrfuse::obs::Registry;
use corrfuse::replica::{spawn as spawn_follower, Follower, FollowerConfig, FollowerServer};
use corrfuse::serve::{ReplicationConfig, RouterConfig, ShardRouter, TenantId};
use corrfuse::synth::{multi_tenant_events, MultiTenantSpec};

fn main() {
    // == Leader: three tenants on two shards, replication tap enabled ==
    let spec = MultiTenantSpec::new(3, 200, 2026);
    let stream = multi_tenant_events(&spec).expect("workload generates");
    let config = FuserConfig::new(Method::Exact);
    let leader_metrics = Arc::new(Registry::new());
    let router = ShardRouter::new(
        config.clone(),
        RouterConfig::new(2)
            .with_replication(ReplicationConfig::new())
            .with_metrics(Arc::clone(&leader_metrics)),
        stream
            .seeds
            .iter()
            .map(|(t, ds)| (TenantId(*t), ds.clone()))
            .collect(),
    )
    .expect("router constructs");
    let server = Server::bind("127.0.0.1:0", router, ServerConfig::new()).expect("leader binds");
    let addr = server.local_addr().expect("bound address").to_string();
    let (handle, join) = spawn(server).expect("leader spawns");
    println!("leader listening on {addr}");

    // == Two followers, each with its own metric registry ==
    let follower_config = |registry: &Arc<Registry>| {
        FollowerConfig::new(config.clone())
            .with_catchup_timeout(Duration::from_secs(5))
            .with_metrics(Arc::clone(registry))
    };
    let registries = [Arc::new(Registry::new()), Arc::new(Registry::new())];
    let followers: Vec<Arc<Follower>> = registries
        .iter()
        .map(|r| Arc::new(Follower::connect(&addr, follower_config(r)).expect("follower connects")))
        .collect();
    println!(
        "2 followers tailing {} shards each over loopback replication links",
        followers[0].n_shards()
    );

    // == Stream the workload into the leader ==
    let mut client = Client::connect(&addr).expect("ingest client connects");
    for (tenant, events) in &stream.messages {
        client
            .ingest(TenantId(*tenant), events)
            .expect("leader ingest");
    }
    client.flush().expect("read-your-writes barrier");

    // The leader's epoch gauges tell readers how fresh "fresh" is.
    let epochs: Vec<u64> = {
        let metrics = client.metrics().expect("leader metrics");
        (0..followers[0].n_shards())
            .map(|s| {
                let name = format!("serve_epoch_shard_{s}");
                metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| match m.value {
                        WireMetricValue::Gauge(v) => v as u64,
                        _ => unreachable!("epoch gauges are gauges"),
                    })
                    .expect("leader exports epoch gauges")
            })
            .collect()
    };
    println!("leader shard epochs after ingest: {epochs:?}");

    // == Bounded-staleness reads: demand exactly the leader's epoch ==
    // `scores_at` blocks (up to the catch-up timeout) until the
    // follower's replication link has applied that epoch, then answers
    // from local state — bitwise the leader's scores.
    let t0 = Instant::now();
    for (i, follower) in followers.iter().enumerate() {
        for (tenant, _) in &stream.seeds {
            let shard = follower.shard_of(TenantId(*tenant));
            let scores = follower
                .scores_at(TenantId(*tenant), epochs[shard])
                .expect("bounded-staleness read");
            println!(
                "follower {i}: tenant {tenant} at epoch >= {}: {} scores",
                epochs[shard],
                scores.len()
            );
        }
    }
    println!("all reads caught up in {:?}", t0.elapsed());

    // == The same reads over the wire, through the follower server ==
    // (the leader's server loop; sharing the follower's registry puts
    // the wire series next to its replication series)
    let fserver = FollowerServer::bind(
        "127.0.0.1:0",
        Arc::clone(&followers[0]),
        ServerConfig::new().with_metrics(Arc::clone(&registries[0])),
    )
    .expect("follower server binds");
    let faddr = fserver.local_addr().expect("follower address").to_string();
    let (fhandle, fjoin) = spawn_follower(fserver).expect("follower server spawns");
    let mut reader = Client::connect(&faddr).expect("wire reader connects");
    let (tenant, _) = stream.seeds[0];
    let shard = followers[0].shard_of(TenantId(tenant));
    let wire_scores = reader
        .scores_at(TenantId(tenant), epochs[shard])
        .expect("wire bounded-staleness read");
    println!(
        "follower server at {faddr}: tenant {tenant} read {} scores over the wire",
        wire_scores.len()
    );
    let wire_series = reader
        .metrics()
        .expect("follower metrics")
        .into_iter()
        .filter(|m| m.name.starts_with("net_"))
        .map(|m| m.name)
        .collect::<Vec<_>>();
    assert!(
        wire_series.iter().any(|n| n == "net_handle_ns_scores"),
        "the follower endpoint records wire latency: {wire_series:?}"
    );
    println!("follower server METRICS: {wire_series:?}");
    drop(reader);

    // == Observability: leader lag gauge, follower replication counters ==
    let lag = client
        .metrics()
        .expect("leader metrics")
        .into_iter()
        .find(|m| m.name == "replica_lag_batches")
        .expect("leader exports the lag gauge");
    println!("leader {}: {:?}", lag.name, lag.value);
    for (i, follower) in followers.iter().enumerate() {
        let stats = follower.stats();
        for s in &stats.shards {
            println!(
                "follower {i} shard {}: epoch {}, {} batches / {} events applied, \
                 {} subscriptions, {} snapshots",
                s.shard,
                s.applied_epoch,
                s.batches_applied,
                s.events_applied,
                s.subscriptions,
                s.snapshots,
            );
        }
    }
    drop(client);

    // == Orderly teardown ==
    fhandle.stop();
    fjoin
        .join()
        .expect("follower accept thread")
        .expect("follower server stops");
    for follower in &followers {
        follower.shutdown();
    }
    handle.stop();
    join.join()
        .expect("leader accept thread")
        .expect("leader stops");
    println!("leader and followers stopped cleanly");
}

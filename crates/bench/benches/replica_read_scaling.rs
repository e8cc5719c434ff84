//! Read-replica scaling: `SCORES` read throughput against a single
//! leader versus the same leader with two caught-up followers answering
//! reads from their own replicated state.
//!
//! Setup (outside the timed loop): build the leader with the
//! replication tap enabled, stream the 8-tenant workload in, connect
//! two followers and wait until their applied epochs reach the
//! leader's. One iteration then fires a fixed budget of tenant score
//! reads from concurrent TCP readers. Three variants:
//!
//! * `leader_only` — every reader on the leader: the baseline
//!   aggregate. Each endpoint answers its readers on one server thread
//!   (`corrfuse_net::server`), so concurrent readers of one endpoint
//!   queue behind each other rather than running in parallel.
//! * `leader_plus_2_followers` — the same readers and read budget
//!   spread across the three serving endpoints. On a multi-core host
//!   this is the direct wall-clock demonstration of read scaling; on a
//!   single-core host all endpoints time-share one CPU and the number
//!   stays flat (it still checks the replicated path adds no
//!   per-request cost).
//! * `follower_single_endpoint` — every reader on one follower: a
//!   replica's standalone service rate. Fleet read capacity — the
//!   scale-out headline when each replica runs on its own machine — is
//!   `leader_only + 2 x follower_single_endpoint` reads/s; that derived
//!   ratio (>= 1.5x the leader alone) is what BENCH_PR8.json records,
//!   together with this machine's core count.

use std::sync::Arc;
use std::time::{Duration, Instant};

use corrfuse_bench::harness::Criterion;
use corrfuse_bench::{criterion_group, criterion_main};
use corrfuse_core::fuser::{FuserConfig, Method};
use corrfuse_net::server::spawn;
use corrfuse_net::wire::WireMetricValue;
use corrfuse_net::{Client, Server, ServerConfig};
use corrfuse_replica::{
    spawn as spawn_follower, Follower, FollowerConfig, FollowerServer, FollowerServerHandle,
};
use corrfuse_serve::{ReplicationConfig, RouterConfig, ShardRouter, TenantId};
use corrfuse_synth::{multi_tenant_events, MultiTenantSpec, MultiTenantStream};

const N_TENANTS: usize = 8;
const N_SHARDS: usize = 2;
const N_READERS: usize = 12;

fn workload() -> MultiTenantStream {
    let spec = MultiTenantSpec {
        n_tenants: N_TENANTS,
        // Large tenants on purpose: a score read gathers the whole
        // tenant under the shard-core lock, and the bench needs that
        // hold time (not the loopback round-trip) to be the bottleneck.
        triples_largest: if corrfuse_bench::quick() {
            1_500
        } else {
            6_000
        },
        skew: 1.0,
        n_sources: 4,
        batches_largest: 8,
        label_fraction: 0.3,
        seed: 888,
    };
    multi_tenant_events(&spec).unwrap()
}

fn reads_per_iter() -> usize {
    if corrfuse_bench::quick() {
        600
    } else {
        4_800
    }
}

/// A serving topology: the leader plus any caught-up follower servers,
/// with everything needed to tear it down again.
struct Topology {
    leader_addr: String,
    follower_addrs: Vec<String>,
    followers: Vec<Arc<Follower>>,
    follower_handles: Vec<FollowerServerHandle>,
    follower_joins: Vec<std::thread::JoinHandle<corrfuse_replica::Result<()>>>,
    leader_handle: corrfuse_net::server::ServerHandle,
    leader_join: std::thread::JoinHandle<corrfuse_net::Result<corrfuse_serve::RouterStats>>,
}

fn build_topology(stream: &MultiTenantStream, n_followers: usize) -> Topology {
    let config = FuserConfig::new(Method::Exact);
    let router = ShardRouter::new(
        config.clone(),
        RouterConfig::new(N_SHARDS)
            .with_batching(128)
            .with_replication(ReplicationConfig::new()),
        stream
            .seeds
            .iter()
            .map(|(t, ds)| (TenantId(*t), ds.clone()))
            .collect(),
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", router, ServerConfig::new()).unwrap();
    let leader_addr = server.local_addr().unwrap().to_string();
    let (leader_handle, leader_join) = spawn(server).unwrap();

    // Fill the leader, then read its per-shard epochs off the gauges.
    let mut client = Client::connect(&leader_addr).unwrap();
    for (tenant, events) in &stream.messages {
        client.ingest(TenantId(*tenant), events).unwrap();
    }
    client.flush().unwrap();
    let metrics = client.metrics().unwrap();
    let targets: Vec<u64> = (0..N_SHARDS)
        .map(|s| {
            let name = format!("serve_epoch_shard_{s}");
            match metrics.iter().find(|m| m.name == name).unwrap().value {
                WireMetricValue::Gauge(v) => v as u64,
                _ => unreachable!("epoch gauges are gauges"),
            }
        })
        .collect();
    drop(client);

    let mut followers = Vec::new();
    let mut follower_addrs = Vec::new();
    let mut follower_handles = Vec::new();
    let mut follower_joins = Vec::new();
    for _ in 0..n_followers {
        let follower = Arc::new(
            Follower::connect(
                &leader_addr,
                FollowerConfig::new(config.clone()).with_catchup_timeout(Duration::from_secs(10)),
            )
            .unwrap(),
        );
        let deadline = Instant::now() + Duration::from_secs(20);
        while follower
            .applied_epochs()
            .iter()
            .zip(&targets)
            .any(|(a, t)| a < t)
        {
            assert!(Instant::now() < deadline, "follower never caught up");
            std::thread::sleep(Duration::from_millis(2));
        }
        let fserver =
            FollowerServer::bind("127.0.0.1:0", Arc::clone(&follower), ServerConfig::new())
                .unwrap();
        follower_addrs.push(fserver.local_addr().unwrap().to_string());
        let (h, j) = spawn_follower(fserver).unwrap();
        followers.push(follower);
        follower_handles.push(h);
        follower_joins.push(j);
    }
    Topology {
        leader_addr,
        follower_addrs,
        followers,
        follower_handles,
        follower_joins,
        leader_handle,
        leader_join,
    }
}

impl Topology {
    /// Serving endpoints, leader first.
    fn endpoints(&self) -> Vec<&str> {
        std::iter::once(self.leader_addr.as_str())
            .chain(self.follower_addrs.iter().map(String::as_str))
            .collect()
    }

    fn teardown(self) {
        for h in &self.follower_handles {
            h.stop();
        }
        for j in self.follower_joins {
            j.join().unwrap().unwrap();
        }
        for f in &self.followers {
            f.shutdown();
        }
        self.leader_handle.stop();
        self.leader_join.join().unwrap().unwrap();
    }
}

/// Fire `total` tenant score reads from `N_READERS` concurrent TCP
/// readers spread round-robin over `endpoints`. Returns events read, so
/// the work can't be optimised away.
fn run_reads(endpoints: &[&str], tenants: usize, total: usize) -> u64 {
    let per_reader = total / N_READERS;
    let counts: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N_READERS)
            .map(|r| {
                let addr = endpoints[r % endpoints.len()].to_string();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    let mut read = 0u64;
                    for i in 0..per_reader {
                        let tenant = TenantId(((r + i) % tenants) as u32);
                        read += client.scores(tenant).unwrap().len() as u64;
                    }
                    read
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    counts.iter().sum()
}

fn bench_replica_reads(c: &mut Criterion) {
    let stream = workload();
    eprintln!(
        "  workload: {} tenants over {} shards, {} events; {} readers x {} reads/iter",
        N_TENANTS,
        N_SHARDS,
        stream.n_events(),
        N_READERS,
        reads_per_iter() / N_READERS,
    );
    let mut group = c.benchmark_group("replica_read_scaling");
    group.sample_size(5);

    let leader_only = build_topology(&stream, 0);
    let endpoints = leader_only.endpoints();
    group.bench_function("leader_only", |b| {
        b.iter(|| run_reads(&endpoints, N_TENANTS, reads_per_iter()))
    });
    drop(endpoints);
    leader_only.teardown();

    let replicated = build_topology(&stream, 2);
    let endpoints = replicated.endpoints();
    group.bench_function("leader_plus_2_followers", |b| {
        b.iter(|| run_reads(&endpoints, N_TENANTS, reads_per_iter()))
    });
    let one_follower = [endpoints[1]];
    group.bench_function("follower_single_endpoint", |b| {
        b.iter(|| run_reads(&one_follower, N_TENANTS, reads_per_iter()))
    });
    drop(endpoints);
    replicated.teardown();

    group.finish();
}

criterion_group!(benches, bench_replica_reads);
criterion_main!(benches);

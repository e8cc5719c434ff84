//! Network front-door throughput: TCP loopback ingestion versus the
//! in-process router, over the skewed 8-tenant stream.
//!
//! One iteration runs the whole pipeline: construct the router
//! (per-shard seed fits), ingest every message, flush, shut down.
//! `direct` calls `ShardRouter::ingest` in-process (the PR3 baseline);
//! the `tcp_*` variants put the `corrfuse-net` server in front and
//! stream the same messages through real loopback connections —
//! framing, CRC, journal-codec encode/decode and syscalls included —
//! with producers partitioned by `tenant % n_clients`, each pipelining
//! up to 64 batches.
//!
//! The acceptance bar is sanity, not parity: the wire adds per-batch
//! overhead, so `tcp_4_clients` must stay within a small constant
//! factor of `direct` (see BENCH_PR4.json for recorded numbers), and
//! multi-client TCP must not be slower than single-client TCP.

use corrfuse_bench::harness::Criterion;
use corrfuse_bench::{criterion_group, criterion_main};
use corrfuse_core::fuser::{FuserConfig, Method};
use corrfuse_net::server::spawn;
use corrfuse_net::{Client, ClientConfig, Server, ServerConfig};
use corrfuse_serve::{RouterConfig, ShardRouter, TenantId};
use corrfuse_synth::{multi_tenant_events, MultiTenantSpec, MultiTenantStream};

const N_TENANTS: usize = 8;
const N_SHARDS: usize = 4;

fn workload() -> MultiTenantStream {
    let spec = MultiTenantSpec {
        n_tenants: N_TENANTS,
        triples_largest: if corrfuse_bench::quick() { 120 } else { 600 },
        skew: 1.0,
        n_sources: 4,
        batches_largest: 8,
        label_fraction: 0.3,
        seed: 777,
    };
    multi_tenant_events(&spec).unwrap()
}

fn build_router(stream: &MultiTenantStream) -> ShardRouter {
    ShardRouter::new(
        FuserConfig::new(Method::Exact),
        RouterConfig::new(N_SHARDS).with_batching(128),
        stream
            .seeds
            .iter()
            .map(|(t, ds)| (TenantId(*t), ds.clone()))
            .collect(),
    )
    .unwrap()
}

fn run_direct(stream: &MultiTenantStream) -> u64 {
    let router = build_router(stream);
    for (tenant, events) in &stream.messages {
        router.ingest(TenantId(*tenant), events.clone()).unwrap();
    }
    router.flush().unwrap();
    let stats = router.shutdown().unwrap();
    let agg = stats.aggregate();
    assert_eq!(agg.ingest_errors, 0, "{:?}", agg.last_error);
    agg.ingested_events
}

fn run_tcp(stream: &MultiTenantStream, n_clients: usize) -> u64 {
    let server = Server::bind("127.0.0.1:0", build_router(stream), ServerConfig::new()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (handle, join) = spawn(server).unwrap();
    std::thread::scope(|scope| {
        for c in 0..n_clients {
            let addr = addr.clone();
            let messages = &stream.messages;
            scope.spawn(move || {
                let mut client =
                    Client::connect_with(&addr, ClientConfig::new().with_max_in_flight(64))
                        .unwrap();
                for (tenant, events) in messages {
                    if *tenant as usize % n_clients == c {
                        client.ingest(TenantId(*tenant), events).unwrap();
                    }
                }
                client.flush().unwrap();
            });
        }
    });
    handle.stop();
    let stats = join.join().unwrap().unwrap();
    let agg = stats.aggregate();
    assert_eq!(agg.ingest_errors, 0, "{:?}", agg.last_error);
    agg.ingested_events
}

fn bench_net(c: &mut Criterion) {
    let stream = workload();
    eprintln!(
        "  workload: {} tenants over {} shards, {} messages, {} events",
        N_TENANTS,
        N_SHARDS,
        stream.messages.len(),
        stream.n_events()
    );
    let mut group = c.benchmark_group("net_throughput");
    group.sample_size(5);
    group.bench_function("direct", |b| b.iter(|| run_direct(&stream)));
    for n_clients in [1usize, 4] {
        group.bench_function(&format!("tcp_{n_clients}_clients"), |b| {
            b.iter(|| run_tcp(&stream, n_clients))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_net);
criterion_main!(benches);

//! Reactor scaling: ingest throughput with and without an idle
//! connection fleet, and the cost of holding one.
//!
//! * `reactor_4_clients` — the same 4-producer loopback ingest as
//!   `net_throughput`.
//! * `reactor_4_clients_idle_fleet` — the same ingest while the reactor
//!   additionally holds a fleet of idle, handshaken connections (2 000,
//!   or 300 under `CORRFUSE_QUICK`): the price active traffic pays for
//!   registered-but-silent peers is the per-wakeup `poll(2)` scan.
//! * `idle_hold_reactor` — establish + ping + tear down a fleet of idle
//!   connections (512, or 128 under `CORRFUSE_QUICK`): the footprint
//!   axis, one file descriptor and a slab slot per connection.
//!
//! Recorded numbers live in BENCH_PR10.json.

use std::io::Write as _;
use std::net::TcpStream;

use corrfuse_bench::harness::Criterion;
use corrfuse_bench::{criterion_group, criterion_main};
use corrfuse_core::fuser::{FuserConfig, Method};
use corrfuse_net::server::spawn;
use corrfuse_net::{
    raise_nofile_limit, Client, ClientConfig, Frame, Request, Response, Server, ServerConfig,
};
use corrfuse_serve::{RouterConfig, ShardRouter, TenantId};
use corrfuse_synth::{multi_tenant_events, MultiTenantSpec, MultiTenantStream};

const N_TENANTS: usize = 8;
const N_SHARDS: usize = 4;
const N_CLIENTS: usize = 4;

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

fn idle_connect(addr: &std::net::SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    Request::Hello {
        min_version: 1,
        max_version: 1,
        credential: None,
    }
    .to_frame()
    .write_to(&mut s)
    .unwrap();
    s.flush().unwrap();
    let frame = Frame::read_from(&mut s).unwrap().unwrap();
    assert!(matches!(
        Response::from_frame(&frame),
        Ok(Response::HelloOk { .. })
    ));
    s
}

/// One full ingest run: construct, stream through `n_clients` loopback
/// producers while `n_idle` handshaken connections sit registered,
/// flush, shut down. Returns ingested events for the throughput line.
fn run_ingest(stream: &MultiTenantStream, n_idle: usize) -> u64 {
    let server = Server::bind(
        "127.0.0.1:0",
        build_router(stream),
        ServerConfig::new().with_max_connections(n_idle + 32),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let (handle, join) = spawn(server).unwrap();
    let idle: Vec<TcpStream> = (0..n_idle).map(|_| idle_connect(&addr)).collect();
    std::thread::scope(|scope| {
        for c in 0..N_CLIENTS {
            let addr = addr.to_string();
            let messages = &stream.messages;
            scope.spawn(move || {
                let mut client =
                    Client::connect_with(&addr, ClientConfig::new().with_max_in_flight(64))
                        .unwrap();
                for (tenant, events) in messages {
                    if *tenant as usize % N_CLIENTS == c {
                        client.ingest(TenantId(*tenant), events).unwrap();
                    }
                }
                client.flush().unwrap();
            });
        }
    });
    drop(idle);
    handle.stop();
    let stats = join.join().unwrap().unwrap();
    let agg = stats.aggregate();
    assert_eq!(agg.ingest_errors, 0, "{:?}", agg.last_error);
    agg.ingested_events
}

/// Establish a fleet of idle connections, prove each is live with one
/// PING round trip, and tear the fleet down.
fn run_idle_hold(stream: &MultiTenantStream, n_idle: usize) -> usize {
    let server = Server::bind(
        "127.0.0.1:0",
        build_router(stream),
        ServerConfig::new().with_max_connections(n_idle + 8),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let (handle, join) = spawn(server).unwrap();
    let mut idle: Vec<TcpStream> = (0..n_idle).map(|_| idle_connect(&addr)).collect();
    let ping = Request::Ping.to_frame().encode();
    for s in &mut idle {
        s.write_all(&ping).unwrap();
        s.flush().unwrap();
        let frame = Frame::read_from(s).unwrap().unwrap();
        assert!(matches!(Response::from_frame(&frame), Ok(Response::Pong)));
    }
    let held = idle.len();
    drop(idle);
    handle.stop();
    join.join().unwrap().unwrap();
    held
}

fn bench_reactor(c: &mut Criterion) {
    let stream = workload();
    let fleet = if corrfuse_bench::quick() { 300 } else { 2_000 };
    let hold = if corrfuse_bench::quick() { 128 } else { 512 };
    raise_nofile_limit((fleet * 2 + 512) as u64);
    eprintln!(
        "  workload: {} tenants over {} shards, {} messages, {} events; idle fleet {}, hold {}",
        N_TENANTS,
        N_SHARDS,
        stream.messages.len(),
        stream.n_events(),
        fleet,
        hold
    );
    let mut group = c.benchmark_group("reactor_idle_scale");
    group.sample_size(5);
    group.bench_function("reactor_4_clients", |b| b.iter(|| run_ingest(&stream, 0)));
    group.bench_function("reactor_4_clients_idle_fleet", |b| {
        b.iter(|| run_ingest(&stream, fleet))
    });
    group.bench_function("idle_hold_reactor", |b| {
        b.iter(|| run_idle_hold(&stream, hold))
    });
    group.finish();
}

criterion_group!(benches, bench_reactor);
criterion_main!(benches);

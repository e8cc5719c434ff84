//! Router throughput: multi-shard ingest scaling over the
//! single-session baseline.
//!
//! The workload is a skewed 8-tenant event stream (Zipf tenant sizes,
//! ~30% labels, interleaved arrival). One iteration runs the whole
//! serving pipeline: construct the router (per-shard seed fits), ingest
//! every message through the async front door, and flush.
//!
//! `shards_1` is the single-session baseline: all eight tenants share
//! one `StreamSession` behind one worker. `shards_4` / `shards_8` split
//! them across independent sessions. Sharding wins even on one core
//! because the expensive deltas — label batches forcing a model
//! refresh, new sources forcing a full refit — cost O(shard dataset),
//! not O(total dataset): a hot tenant's refit no longer rescans every
//! cold tenant's triples. On multi-core hardware the shard workers also
//! run genuinely in parallel.
//!
//! The acceptance bar for the subsystem is `shards_4 <= shards_1` (no
//! regression from routing) with visible improvement on this workload;
//! see BENCH_PR3.json for the recorded numbers.

use corrfuse_bench::harness::Criterion;
use corrfuse_bench::{criterion_group, criterion_main};
use corrfuse_core::fuser::{FuserConfig, Method};
use corrfuse_serve::{RouterConfig, ShardRouter, TenantId};
use corrfuse_synth::{multi_tenant_events, MultiTenantSpec, MultiTenantStream};

const N_TENANTS: usize = 8;

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

fn run_pipeline(stream: &MultiTenantStream, n_shards: usize) -> u64 {
    let router = ShardRouter::new(
        FuserConfig::new(Method::Exact),
        RouterConfig::new(n_shards).with_batching(128),
        stream
            .seeds
            .iter()
            .map(|(t, ds)| (TenantId(*t), ds.clone()))
            .collect(),
    )
    .unwrap();
    for (tenant, events) in &stream.messages {
        router.ingest(TenantId(*tenant), events.clone()).unwrap();
    }
    router.flush().unwrap();
    let stats = router.shutdown().unwrap();
    let agg = stats.aggregate();
    assert_eq!(agg.ingest_errors, 0, "{:?}", agg.last_error);
    agg.ingested_events
}

fn bench_router(c: &mut Criterion) {
    let stream = workload();
    eprintln!(
        "  workload: {} tenants, {} messages, {} events",
        N_TENANTS,
        stream.messages.len(),
        stream.n_events()
    );
    let mut group = c.benchmark_group("router_throughput");
    group.sample_size(5);
    for n_shards in [1usize, 4, 8] {
        group.bench_function(&format!("shards_{n_shards}"), |b| {
            b.iter(|| run_pipeline(&stream, n_shards))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_router);
criterion_main!(benches);

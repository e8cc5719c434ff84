//! Observability overhead guard: the two-shard router pipeline with
//! `RouterConfig::with_metrics` off (the default) and on, plus the raw
//! cost of the histogram record primitive everything funnels into.
//!
//! The contract (docs/OBSERVABILITY.md §7): a metrics registry adds
//! only histogram records, queue-wait clock reads and a trace push per
//! batch, and must cost ≤3% on the router pipeline. The session's stage
//! clock is not toggled: every batch reads it, with or without a
//! registry, so it is on both sides of the pair. Run with
//! `CORRFUSE_BENCH_JSON=<file>` to record the comparison.

use std::sync::Arc;

use corrfuse_bench::harness::{black_box, Criterion};
use corrfuse_bench::{criterion_group, criterion_main};
use corrfuse_core::fuser::{FuserConfig, Method};
use corrfuse_obs::{Histogram, Registry};
use corrfuse_serve::{RouterConfig, ShardRouter, TenantId};

fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);

    // The full serving pipeline with and without a metrics registry:
    // `RouterConfig::with_metrics` turns on shard-stage histograms and
    // batch traces at once. Same skewed multi-tenant workload as
    // `router_throughput`.
    let stream = {
        let spec = corrfuse_synth::MultiTenantSpec {
            n_tenants: 8,
            triples_largest: if corrfuse_bench::quick() { 120 } else { 600 },
            skew: 1.0,
            n_sources: 4,
            batches_largest: 8,
            label_fraction: 0.3,
            seed: 777,
        };
        corrfuse_synth::multi_tenant_events(&spec).unwrap()
    };
    for (id, metrics) in [
        ("router_shards_2_metrics_off", false),
        ("router_shards_2_metrics_on", true),
    ] {
        group.bench_function(id, |b| {
            b.iter(|| {
                let mut config = RouterConfig::new(2).with_batching(128);
                if metrics {
                    config = config.with_metrics(Arc::new(Registry::new()));
                }
                let router = ShardRouter::new(
                    FuserConfig::new(Method::Exact),
                    config,
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
                stats.aggregate().ingested_events
            })
        });
    }

    // The primitive every recorded stage funnels into: one relaxed-atomic
    // histogram record. This is the per-stage marginal cost floor.
    let hist = Histogram::new();
    let mut v = 0u64;
    group.bench_function("histogram_record", |b| {
        b.iter(|| {
            v = v.wrapping_add(977);
            hist.record(black_box(v & 0xFFFF));
        })
    });
    eprintln!(
        "  histogram_record: {} observations, p50 {} ns",
        hist.count(),
        hist.snapshot().p50(),
    );
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);

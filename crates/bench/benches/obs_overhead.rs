//! Observability overhead guard: identical ingest workloads with
//! instrumentation off (the default) and on, plus the raw cost of the
//! histogram record primitive everything funnels into.
//!
//! Pairs: a stationary label-flip session workload under
//! `FuserConfig::spans` (the contract number — every iteration costs
//! the same, so the comparison is clean), the minting-claims fast path
//! under the same toggle (noisier; session grows), and the full
//! two-shard router pipeline under `RouterConfig::with_metrics`.
//!
//! The contract (docs/OBSERVABILITY.md): enabling spans adds only
//! clock reads around pipeline stages and a `StageTimings` copy onto
//! each outcome, and must cost ≤3% on the stream/router throughput
//! workloads. Run with `CORRFUSE_BENCH_JSON=BENCH_PR7.json` to record
//! the comparison.

use std::sync::Arc;

use corrfuse_bench::harness::{black_box, Criterion};
use corrfuse_bench::{criterion_group, criterion_main};
use corrfuse_core::dataset::{Dataset, DatasetBuilder, SourceId};
use corrfuse_core::engine::ScoringEngine;
use corrfuse_core::fuser::{FuserConfig, Method};
use corrfuse_core::rng::StdRng;
use corrfuse_core::triple::TripleId;
use corrfuse_obs::{Histogram, Registry};
use corrfuse_serve::{RouterConfig, ShardRouter, TenantId};
use corrfuse_stream::{Event, StreamSession};

const N_SOURCES: usize = 8;

/// Same world shape as `stream_throughput`: claims everywhere, labels on
/// every other triple, so both sessions run the identical fast path.
fn universe(n_triples: usize) -> Dataset {
    let spec = corrfuse_synth::SynthSpec::uniform(N_SOURCES, 0.8, 0.5, n_triples, 0.5, 4242);
    let full = corrfuse_synth::generate(&spec).unwrap();
    let gold = full.gold().unwrap();
    let mut b = DatasetBuilder::new();
    for s in full.sources() {
        b.source(full.source_name(s));
    }
    for t in full.triples() {
        let triple = full.triple(t);
        let id = b.triple(
            triple.subject.clone(),
            triple.predicate.clone(),
            triple.object.clone(),
        );
        for s in full.providers(t).iter_ones() {
            b.observe(SourceId(s as u32), id);
        }
        if t.index() % 2 == 0 {
            b.label(id, gold.get(t).unwrap());
        }
    }
    b.build().unwrap()
}

fn bench_obs_overhead(c: &mut Criterion) {
    let n = if corrfuse_bench::quick() { 400 } else { 2000 };
    let ds = universe(n);

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);

    // A *stationary* ingest workload, spans off then on (the two ids
    // differ only in the `FuserConfig::spans` toggle): every iteration
    // flips the same 4 gold labels, forcing the identical model refresh
    // + rescore each time. Labels are not absorbing, so the session
    // does not grow and samples stay comparable — a minting-claims
    // workload here drowns the span cost in allocator growth noise.
    for (id, spans) in [
        ("ingest_labels_flip_spans_off", false),
        ("ingest_labels_flip_spans_on", true),
    ] {
        let config = FuserConfig::new(Method::Exact).with_spans(spans);
        let mut session =
            StreamSession::with_engine(config, ds.clone(), ScoringEngine::serial()).unwrap();
        let mut parity = false;
        group.bench_function(id, |b| {
            b.iter(|| {
                parity = !parity;
                let batch: Vec<Event> = (0..4)
                    .map(|k| Event::label(TripleId(2 * k), (k % 2 == 0) == parity))
                    .collect();
                session.ingest(&batch).unwrap()
            })
        });
    }

    // The claims fast path, same toggle: the minting micro-batch
    // workload of `stream_throughput`. The session grows across
    // iterations, so this pair is noisier than the label flips —
    // compare minima, and treat the stationary pair above as the
    // contract number.
    for (id, spans) in [
        ("ingest_claims_spans_off", false),
        ("ingest_claims_spans_on", true),
    ] {
        let config = FuserConfig::new(Method::Exact).with_spans(spans);
        let mut session =
            StreamSession::with_engine(config, ds.clone(), ScoringEngine::serial()).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let mut minted = 0usize;
        group.bench_function(id, |b| {
            b.iter(|| {
                let base = session.dataset().n_triples();
                let mut batch = Vec::with_capacity(8 * 4);
                for k in 0..8 {
                    batch.push(Event::add_triple(
                        "live",
                        "attr",
                        format!("v{}", minted + k),
                    ));
                    let t = TripleId((base + k) as u32);
                    let s0 = rng.gen_range(0..N_SOURCES);
                    for off in 0..3 {
                        batch.push(Event::claim(
                            SourceId(((s0 + off * 3) % N_SOURCES) as u32),
                            t,
                        ));
                    }
                }
                minted += 8;
                session.ingest(&batch).unwrap()
            })
        });
    }

    // The full serving pipeline with and without a metrics registry:
    // `RouterConfig::with_metrics` turns on shard-stage histograms,
    // batch traces and per-session spans all at once. Same skewed
    // multi-tenant workload as `router_throughput`.
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

    // The primitive every enabled span funnels into: one relaxed-atomic
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

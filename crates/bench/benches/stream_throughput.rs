//! Streaming throughput: incremental ingest vs. naive refit.
//!
//! The workload is a synthetic 8-source world, half of it labelled, fused
//! with the exact correlated solver. Three costs are measured per delta:
//!
//! * `naive_refit_score_all` — what a non-incremental deployment pays for
//!   *any* delta: `Fuser::fit` + `score_all` over the whole dataset;
//! * `ingest_claims_8x3` — the fast path: a micro-batch of 8 new
//!   unlabelled triples with 3 claims each (no model refresh, only the
//!   new triples re-score);
//! * `ingest_labels_4` — the model path: 4 label events per batch (the
//!   quality model refreshes from maintained counters and every live
//!   observation pattern re-scores once).
//!
//! The acceptance bar for the subsystem is `naive_refit_score_all /
//! ingest_claims_8x3 >= 5` on this workload; in practice the gap is
//! orders of magnitude. Note the ingest benches mutate their session, so
//! the claims session grows over the run — growth only adds unlabelled
//! triples, which the fast path never revisits.

use corrfuse_bench::harness::Criterion;
use corrfuse_bench::{criterion_group, criterion_main};
use corrfuse_core::dataset::{Dataset, DatasetBuilder, SourceId};
use corrfuse_core::engine::ScoringEngine;
use corrfuse_core::fuser::{Fuser, FuserConfig, Method};
use corrfuse_core::rng::StdRng;
use corrfuse_core::triple::TripleId;
use corrfuse_stream::{Event, StreamSession};

const N_SOURCES: usize = 8;

/// An 8-source world with claims for every triple but labels for only
/// every other one, so the label bench has unlabelled triples to consume.
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

fn bench_stream(c: &mut Criterion) {
    let n = if corrfuse_bench::quick() { 600 } else { 4000 };
    let ds = universe(n);
    let config = FuserConfig::new(Method::Exact);
    let gold = ds.gold().unwrap().clone();

    let mut group = c.benchmark_group("stream_throughput");
    group.sample_size(10);

    // Baseline: the O(dataset) cost every delta pays without streaming.
    group.bench_function("naive_refit_score_all", |b| {
        b.iter(|| {
            let fuser = Fuser::fit(&config, &ds, &gold).unwrap();
            fuser.score_all(&ds).unwrap()
        })
    });

    // Fast path: new unlabelled triples with claims.
    let mut claims_session =
        StreamSession::with_engine(config.clone(), ds.clone(), ScoringEngine::serial()).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let mut minted = 0usize;
    group.bench_function("ingest_claims_8x3", |b| {
        b.iter(|| {
            let base = claims_session.dataset().n_triples();
            let mut batch = Vec::with_capacity(8 * 4);
            for k in 0..8 {
                batch.push(Event::add_triple(
                    "live",
                    "attr",
                    format!("v{}", minted + k),
                ));
                let t = TripleId((base + k) as u32);
                // Three distinct sources (stride 3 is coprime with 8).
                let s0 = rng.gen_range(0..N_SOURCES);
                for off in 0..3 {
                    batch.push(Event::claim(
                        SourceId(((s0 + off * 3) % N_SOURCES) as u32),
                        t,
                    ));
                }
            }
            minted += 8;
            claims_session.ingest(&batch).unwrap()
        })
    });
    eprintln!(
        "  ingest_claims_8x3: session grew to {} triples, patterns {:.1}% hits",
        claims_session.dataset().n_triples(),
        100.0 * claims_session.score_cache_stats().hit_rate(),
    );

    // Model path: label previously-unlabelled triples (wrapping around by
    // flipping the label, so every batch really changes the model).
    let unlabelled: Vec<TripleId> = ds.triples().filter(|&t| gold.get(t).is_none()).collect();
    let mut label_session =
        StreamSession::with_engine(config.clone(), ds.clone(), ScoringEngine::serial()).unwrap();
    let mut cursor = 0usize;
    group.bench_function("ingest_labels_4", |b| {
        b.iter(|| {
            let mut batch = Vec::with_capacity(4);
            for k in 0..4 {
                let i = cursor + k;
                let truth = (i / unlabelled.len()).is_multiple_of(2);
                batch.push(Event::label(unlabelled[i % unlabelled.len()], truth));
            }
            cursor += 4;
            label_session.ingest(&batch).unwrap()
        })
    });
    eprintln!(
        "  ingest_labels_4: patterns {:.1}% hits, joint memo {:.1}% hits",
        100.0 * label_session.score_cache_stats().hit_rate(),
        100.0 * label_session.joint_cache_stats().hit_rate(),
    );
    group.finish();
}

criterion_group!(benches, bench_stream);
criterion_main!(benches);

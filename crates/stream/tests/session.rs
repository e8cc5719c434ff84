//! Integration tests for the streaming subsystem: refit levels, the
//! incremental-vs-batch equivalence invariant on hand-built streams, and
//! journal persistence.

use corrfuse_core::dataset::{Dataset, DatasetBuilder, Domain, SourceId};
use corrfuse_core::engine::ScoringEngine;
use corrfuse_core::fuser::{ClusterStrategy, Fuser, FuserConfig, Method};
use corrfuse_core::triple::TripleId;
use corrfuse_stream::{replay, Event, FsyncPolicy, RefitLevel, ScoredDelta, StreamSession};

/// The paper's Figure 1 seed (5 sources, 10 labelled triples).
fn figure1() -> Dataset {
    let mut b = DatasetBuilder::new();
    let sources: Vec<_> = (1..=5).map(|i| b.source(format!("S{i}"))).collect();
    let rows: [(&str, bool, &[usize]); 10] = [
        ("t1", true, &[1, 2, 4, 5]),
        ("t2", false, &[1, 2]),
        ("t3", true, &[3]),
        ("t4", true, &[2, 3, 4, 5]),
        ("t5", false, &[2, 3]),
        ("t6", true, &[1, 4, 5]),
        ("t7", true, &[1, 2, 3]),
        ("t8", false, &[1, 2, 4, 5]),
        ("t9", false, &[1, 2, 4, 5]),
        ("t10", true, &[1, 3, 4, 5]),
    ];
    for (name, truth, provs) in rows {
        let t = b.triple("Obama", "fact", name);
        for &p in provs {
            b.observe(sources[p - 1], t);
        }
        b.label(t, truth);
    }
    b.build().unwrap()
}

/// Ingest `batch` and record it in `fed`, the test's own copy of every
/// event the session applied.
fn ingest(session: &mut StreamSession, fed: &mut Vec<Event>, batch: &[Event]) -> ScoredDelta {
    let delta = session.ingest(batch).unwrap();
    fed.extend_from_slice(batch);
    delta
}

/// Assert the equivalence invariant: the session's scores are bitwise
/// identical to a from-scratch fit on `seed` plus the events the test
/// fed it.
fn assert_equivalent(session: &StreamSession, seed: &Dataset, fed: &[Event]) {
    let accumulated = replay::accumulate(seed, fed).unwrap();
    let fresh = Fuser::fit(session.config(), &accumulated, accumulated.gold().unwrap()).unwrap();
    let batch_scores = fresh.score_all(&accumulated).unwrap();
    let inc_scores = session.scores();
    assert_eq!(batch_scores.len(), inc_scores.len());
    for (i, (a, b)) in inc_scores.iter().zip(&batch_scores).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "triple {i}: incremental {a} vs batch {b}"
        );
    }
}

#[test]
fn claims_on_unlabelled_triples_take_the_fast_path() {
    let seed = figure1();
    let mut session = StreamSession::new(FuserConfig::new(Method::Exact), seed.clone()).unwrap();
    let mut fed = Vec::new();
    let delta = ingest(
        &mut session,
        &mut fed,
        &[
            Event::add_triple("Obama", "fact", "t11"),
            Event::claim(SourceId(0), TripleId(10)),
            Event::claim(SourceId(3), TripleId(10)),
            Event::claim(SourceId(4), TripleId(10)),
        ],
    );
    assert_eq!(delta.refit, RefitLevel::None);
    assert_eq!(delta.rescored.len(), 1);
    assert_eq!(delta.rescored[0].triple, TripleId(10));
    assert_eq!(delta.rescored[0].before, None);
    assert!(delta.flips.is_empty(), "new triples are not flips");
    assert_equivalent(&session, &seed, &fed);
}

#[test]
fn labels_force_a_model_refit_and_stay_equivalent() {
    let seed = figure1();
    for method in [
        Method::Exact,
        Method::Aggressive,
        Method::Elastic(2),
        Method::PrecRec,
    ] {
        let mut session = StreamSession::new(FuserConfig::new(method), seed.clone()).unwrap();
        let mut fed = Vec::new();
        // A labelled triple arrives: claims + a label in one batch.
        let delta = ingest(
            &mut session,
            &mut fed,
            &[
                Event::add_triple("Obama", "fact", "t11"),
                Event::claim(SourceId(1), TripleId(10)),
                Event::claim(SourceId(2), TripleId(10)),
                Event::label(TripleId(10), true),
            ],
        );
        assert_eq!(delta.refit, RefitLevel::Model, "{method:?}");
        assert_eq!(delta.rescored.len(), 11, "{method:?}: all triples rescored");
        assert_equivalent(&session, &seed, &fed);

        // A claim touching an already-labelled triple also refits.
        let delta = ingest(
            &mut session,
            &mut fed,
            &[Event::claim(SourceId(3), TripleId(1))],
        );
        assert_eq!(delta.refit, RefitLevel::Model, "{method:?}");
        assert_equivalent(&session, &seed, &fed);

        // A relabel (flip) is absorbed incrementally too.
        let delta = ingest(&mut session, &mut fed, &[Event::label(TripleId(10), false)]);
        assert_eq!(delta.refit, RefitLevel::Model, "{method:?}");
        assert_equivalent(&session, &seed, &fed);
    }
}

#[test]
fn new_sources_fall_back_to_a_full_refit() {
    let seed = figure1();
    let mut session = StreamSession::new(FuserConfig::new(Method::Exact), seed.clone()).unwrap();
    let mut fed = Vec::new();
    let delta = ingest(
        &mut session,
        &mut fed,
        &[
            Event::add_source("S6"),
            Event::add_triple("Obama", "fact", "t11"),
            Event::claim(SourceId(5), TripleId(10)),
            Event::label(TripleId(10), true),
        ],
    );
    assert_eq!(delta.refit, RefitLevel::Full);
    assert_equivalent(&session, &seed, &fed);
    // The new source participates in later batches incrementally.
    let delta = ingest(
        &mut session,
        &mut fed,
        &[
            Event::add_triple("Obama", "fact", "t12"),
            Event::claim(SourceId(5), TripleId(11)),
        ],
    );
    assert_eq!(delta.refit, RefitLevel::None);
    assert_equivalent(&session, &seed, &fed);
}

#[test]
fn duplicate_events_are_no_ops() {
    let seed = figure1();
    let mut session = StreamSession::new(FuserConfig::new(Method::Exact), seed.clone()).unwrap();
    let mut fed = Vec::new();
    let delta = ingest(
        &mut session,
        &mut fed,
        &[
            Event::add_source("S1"),                  // existing name
            Event::add_triple("Obama", "fact", "t1"), // existing triple
            Event::claim(SourceId(0), TripleId(0)),   // existing claim
            Event::label(TripleId(0), true),          // same label
        ],
    );
    assert_eq!(delta.refit, RefitLevel::None);
    assert!(delta.rescored.is_empty());
    assert_equivalent(&session, &seed, &fed);
}

#[test]
fn cross_domain_claims_rescore_the_rescoped_domain() {
    // Two domains; source "books" initially covers only domain 1. Its
    // first claim into domain 2 puts every domain-2 triple in its scope.
    let mut b = DatasetBuilder::new();
    let books = b.source("books");
    let bios = b.source("bios");
    let t0 = b.triple("b1", "author", "X");
    let t1 = b.triple("p1", "born", "1960");
    let t2 = b.triple("p2", "born", "1970");
    b.set_domain(t0, Domain(1));
    b.set_domain(t1, Domain(2));
    b.set_domain(t2, Domain(2));
    b.observe(books, t0);
    b.observe(bios, t1);
    b.observe(bios, t2);
    b.label(t0, true);
    b.label(t1, true);
    b.label(t2, false);
    let seed = b.build().unwrap();

    let mut session = StreamSession::new(
        FuserConfig::new(Method::Exact).with_strategy(ClusterStrategy::SingleCluster),
        seed.clone(),
    )
    .unwrap();
    let mut fed = Vec::new();
    // New domain-2 triple claimed by `books`: scope expansion → labelled
    // domain-2 triples enter its recall denominator → model refit.
    let delta = ingest(
        &mut session,
        &mut fed,
        &[
            Event::add_triple_in("p3", "born", "1980", Domain(2)),
            Event::claim(SourceId(0), TripleId(3)),
        ],
    );
    assert_eq!(delta.refit, RefitLevel::Model);
    assert_equivalent(&session, &seed, &fed);
}

#[test]
fn scope_expansion_without_labels_stays_on_the_fast_path() {
    // Domain 3 has only unlabelled triples, so a source expanding into it
    // changes scope masks but no estimator count: the whole domain is
    // re-scored without touching the model.
    let mut b = DatasetBuilder::new();
    let s0 = b.source("A");
    let s1 = b.source("B");
    let t0 = b.triple("x", "p", "1");
    let t1 = b.triple("y", "p", "2");
    b.observe(s0, t0);
    b.observe(s1, t0);
    b.observe(s0, t1);
    b.label(t0, true);
    b.label(t1, false);
    let t2 = b.triple("z", "q", "3");
    b.set_domain(t2, Domain(3));
    b.observe(s0, t2);
    let seed = b.build().unwrap();

    let mut session = StreamSession::new(FuserConfig::new(Method::PrecRec), seed.clone()).unwrap();
    let mut fed = Vec::new();
    let delta = ingest(
        &mut session,
        &mut fed,
        &[
            Event::add_triple_in("w", "q", "4", Domain(3)),
            Event::claim(SourceId(1), TripleId(3)),
        ],
    );
    assert_eq!(delta.refit, RefitLevel::None);
    // Both domain-3 triples re-score: t3 is new, t2 gained an in-scope
    // non-provider.
    let rescored: Vec<TripleId> = delta.rescored.iter().map(|st| st.triple).collect();
    assert!(rescored.contains(&TripleId(2)));
    assert!(rescored.contains(&TripleId(3)));
    assert_equivalent(&session, &seed, &fed);
}

#[test]
fn flips_are_reported_with_before_and_after() {
    let seed = figure1();
    // Under PrecRec, t8 (= TripleId(7)) starts accepted (Example 3.3).
    let mut session = StreamSession::new(FuserConfig::new(Method::PrecRec), seed.clone()).unwrap();
    let mut fed = Vec::new();
    assert!(session.scores()[7] > 0.5);
    // Label enough of the providers' output false that their estimated
    // quality drops and t8 is rejected: add false labelled triples
    // provided by S1, S2, S4, S5.
    let mut events = Vec::new();
    for k in 0..4u32 {
        events.push(Event::add_triple("Obama", "fact", format!("junk{k}")));
        let t = TripleId(10 + k);
        for s in [0u32, 1, 3, 4] {
            events.push(Event::claim(SourceId(s), t));
        }
        events.push(Event::label(t, false));
    }
    let delta = ingest(&mut session, &mut fed, &events);
    assert_eq!(delta.refit, RefitLevel::Model);
    assert!(
        delta
            .flips
            .iter()
            .any(|st| st.triple == TripleId(7) && st.before.unwrap() > 0.5 && st.after <= 0.5),
        "t8 should flip to rejected; flips: {:?}",
        delta.flips
    );
    assert_equivalent(&session, &seed, &fed);
}

/// A commit that refits returns every triple, in `TripleId` order, each
/// with the score it had before the commit; a commit that refits nothing
/// returns only the triples it touched.
#[test]
fn a_refit_commit_returns_every_triple_and_a_plain_one_its_touched() {
    let seed = figure1();
    let mut session = StreamSession::new(FuserConfig::new(Method::Exact), seed.clone()).unwrap();
    let mut fed = Vec::new();
    let triples = |delta: &ScoredDelta| -> Vec<TripleId> {
        delta.rescored.iter().map(|r| r.triple).collect()
    };

    // t11 = {S1,S4} and t12 = {S3}, both unlabelled: no refit.
    let delta = ingest(
        &mut session,
        &mut fed,
        &[
            Event::add_triple("Obama", "fact", "t11"),
            Event::claim(SourceId(0), TripleId(10)),
            Event::claim(SourceId(3), TripleId(10)),
            Event::add_triple("Obama", "fact", "t12"),
            Event::claim(SourceId(2), TripleId(11)),
        ],
    );
    assert_eq!(delta.refit, RefitLevel::None);
    assert_eq!(triples(&delta), [TripleId(10), TripleId(11)]);
    assert!(delta.rescored.iter().all(|r| r.before.is_none()));

    // S2 moves t11 to {S1,S2,S4}, and t12 gets a label: a model refit.
    let before = session.scores().to_vec();
    let delta = ingest(
        &mut session,
        &mut fed,
        &[
            Event::claim(SourceId(1), TripleId(10)),
            Event::label(TripleId(11), true),
        ],
    );
    assert_eq!(delta.refit, RefitLevel::Model);
    assert_eq!(triples(&delta), (0..12).map(TripleId).collect::<Vec<_>>());
    for (r, (b, a)) in delta
        .rescored
        .iter()
        .zip(before.iter().zip(session.scores()))
    {
        assert_eq!(
            r.before.map(f64::to_bits),
            Some(b.to_bits()),
            "{}",
            r.triple
        );
        assert_eq!(r.after.to_bits(), a.to_bits(), "{}", r.triple);
    }
    // Nine live patterns (t1, t8 and t9 share one, t12 shares t3's),
    // each solved once.
    assert_eq!((delta.cache.hits, delta.cache.misses), (0, 9));
    assert_equivalent(&session, &seed, &fed);

    // S5 moves t11 onto t1's pattern, whose score is current.
    let before = session.scores()[10];
    let delta = ingest(
        &mut session,
        &mut fed,
        &[Event::claim(SourceId(4), TripleId(10))],
    );
    assert_eq!(delta.refit, RefitLevel::None);
    assert_eq!(triples(&delta), [TripleId(10)]);
    assert_eq!(
        delta.rescored[0].before.map(f64::to_bits),
        Some(before.to_bits())
    );
    assert_eq!((delta.cache.hits, delta.cache.misses), (1, 0));
    assert_equivalent(&session, &seed, &fed);
}

#[test]
fn bad_batches_are_rejected_without_mutating_the_session() {
    let seed = figure1();
    let mut session = StreamSession::new(FuserConfig::new(Method::Exact), seed).unwrap();
    let before_scores: Vec<u64> = session.scores().iter().map(|s| s.to_bits()).collect();

    // A new triple with no claim in its batch.
    let err = session
        .ingest(&[Event::add_triple("Obama", "fact", "orphan")])
        .unwrap_err();
    assert!(err.to_string().contains("no providing source"), "{err}");

    // Unknown ids — even midway through an otherwise-valid batch.
    for bad in [
        Event::claim(SourceId(99), TripleId(0)),
        Event::claim(SourceId(0), TripleId(99)),
        Event::label(TripleId(99), true),
    ] {
        let batch = [
            Event::add_triple("Obama", "fact", "fine"),
            Event::claim(SourceId(0), TripleId(10)),
            bad,
        ];
        assert!(session.ingest(&batch).is_err());
    }

    // Atomicity: nothing leaked into the session from any failed batch.
    assert_eq!(session.dataset().n_triples(), 10);
    assert_eq!(session.dataset().n_sources(), 5);
    assert_eq!(session.epoch(), 0);
    let after_scores: Vec<u64> = session.scores().iter().map(|s| s.to_bits()).collect();
    assert_eq!(before_scores, after_scores);

    // Ids introduced by the batch itself do resolve during validation.
    session
        .ingest(&[
            Event::add_source("S6"),
            Event::add_triple("Obama", "fact", "fresh"),
            Event::claim(SourceId(5), TripleId(10)),
        ])
        .unwrap();
    assert_eq!(session.dataset().n_triples(), 11);
}

#[test]
fn score_cache_serves_repeated_patterns() {
    let seed = figure1();
    let mut session = StreamSession::new(FuserConfig::new(Method::Exact), seed.clone()).unwrap();
    let mut fed = Vec::new();
    // Two new triples with the *same* provider pattern: one engine
    // computation, one cache hit.
    let delta = ingest(
        &mut session,
        &mut fed,
        &[
            Event::add_triple("Obama", "fact", "t11"),
            Event::claim(SourceId(0), TripleId(10)),
            Event::claim(SourceId(3), TripleId(10)),
        ],
    );
    assert_eq!(delta.cache.misses, 1);
    let delta = ingest(
        &mut session,
        &mut fed,
        &[
            Event::add_triple("Obama", "fact", "t12"),
            Event::claim(SourceId(0), TripleId(11)),
            Event::claim(SourceId(3), TripleId(11)),
        ],
    );
    assert_eq!((delta.cache.hits, delta.cache.misses), (1, 0));
    // Both triples carry the identical score.
    assert_eq!(
        session.scores()[10].to_bits(),
        session.scores()[11].to_bits()
    );
    assert_equivalent(&session, &seed, &fed);
}

#[test]
fn journal_roundtrip_restores_an_equivalent_session() {
    let dir = std::env::temp_dir().join("corrfuse-stream-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.journal");

    let seed = figure1();
    let config = FuserConfig::new(Method::Exact);
    let mut session =
        StreamSession::with_engine(config.clone(), seed.clone(), ScoringEngine::serial()).unwrap();
    session.journal_to(&path, FsyncPolicy::Never).unwrap();
    session
        .ingest(&[
            Event::add_triple("Obama", "fact", "t11"),
            Event::claim(SourceId(2), TripleId(10)),
        ])
        .unwrap();
    session
        .ingest(&[
            Event::add_source("S6"),
            Event::add_triple("Obama", "fact", "t12"),
            Event::claim(SourceId(5), TripleId(11)),
            Event::label(TripleId(11), true),
        ])
        .unwrap();

    let restored = StreamSession::restore(config.clone(), &path).unwrap();
    assert_eq!(
        restored.dataset().n_triples(),
        session.dataset().n_triples()
    );
    assert_eq!(
        restored.dataset().n_sources(),
        session.dataset().n_sources()
    );
    assert_eq!(restored.epoch(), 2);
    for (a, b) in restored.scores().iter().zip(session.scores()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    // The restored session keeps appending to the same journal.
    let mut restored = restored;
    restored
        .ingest(&[
            Event::add_triple("Obama", "fact", "t13"),
            Event::claim(SourceId(0), TripleId(12)),
        ])
        .unwrap();
    let again = StreamSession::restore(config, &path).unwrap();
    assert_eq!(again.dataset().n_triples(), 13);
    for (a, b) in again.scores().iter().zip(restored.scores()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn parallel_and_serial_sessions_agree_bitwise() {
    let seed = figure1();
    let config = FuserConfig::new(Method::Exact);
    let mut serial =
        StreamSession::with_engine(config.clone(), seed.clone(), ScoringEngine::serial()).unwrap();
    let mut parallel =
        StreamSession::with_engine(config, seed, ScoringEngine::with_threads(4)).unwrap();
    let batch = vec![
        Event::add_triple("Obama", "fact", "t11"),
        Event::claim(SourceId(1), TripleId(10)),
        Event::label(TripleId(10), false),
    ];
    serial.ingest(&batch).unwrap();
    parallel.ingest(&batch).unwrap();
    for (a, b) in serial.scores().iter().zip(parallel.scores()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

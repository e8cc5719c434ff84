//! Integration tests for the shard router: tenant isolation, per-shard
//! equivalence, journal rotation, retention, backpressure accounting,
//! failure containment, and graceful shutdown.

use std::path::PathBuf;

use corrfuse_core::dataset::{Dataset, SourceId};
use corrfuse_core::engine::ScoringEngine;
use corrfuse_core::fuser::{Fuser, FuserConfig, Method};
use corrfuse_serve::{
    Backpressure, JournalConfig, RouterConfig, ServeError, ShardRouter, TenantId,
};
use corrfuse_stream::{Event, FsyncPolicy, LogRetention, StreamSession};
use corrfuse_synth::{multi_tenant_events, MultiTenantSpec, MultiTenantStream};

fn stream(n_tenants: usize, seed: u64) -> MultiTenantStream {
    multi_tenant_events(&MultiTenantSpec::new(n_tenants, 120, seed)).unwrap()
}

/// Wrap the generator's plain `u32` tenant ids for the router.
fn seeds_of(s: &MultiTenantStream) -> Vec<(TenantId, Dataset)> {
    s.seeds
        .iter()
        .map(|(t, ds)| (TenantId(*t), ds.clone()))
        .collect()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("corrfuse-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Replay a dataset as a self-contained event stream (how a brand-new
/// tenant introduces itself to the router).
fn dataset_to_events(ds: &Dataset) -> Vec<Event> {
    let mut events = Vec::new();
    for s in ds.sources() {
        events.push(Event::add_source(ds.source_name(s)));
    }
    for t in ds.triples() {
        events.push(Event::AddTriple {
            triple: ds.triple(t).clone(),
            domain: ds.domain(t),
        });
        for s in ds.providers(t).iter_ones() {
            events.push(Event::claim(SourceId(s as u32), t));
        }
        if let Some(truth) = ds.gold().and_then(|g| g.get(t)) {
            events.push(Event::label(t, truth));
        }
    }
    events
}

/// Under a pinned prior and the independence model, a routed tenant's
/// scores are bitwise identical to a solo session over the same stream:
/// namespacing keeps co-tenants out of each other's scopes, so nothing
/// about sharing a shard leaks into the posterior.
#[test]
fn routed_tenant_scores_match_solo_sessions() {
    let s = stream(4, 11);
    let config = FuserConfig::new(Method::PrecRec).with_alpha(0.5);
    let router = ShardRouter::new(
        config.clone(),
        RouterConfig::new(2).with_batching(64),
        seeds_of(&s),
    )
    .unwrap();
    for (tenant, events) in &s.messages {
        router.ingest(TenantId(*tenant), events.clone()).unwrap();
    }
    router.flush().unwrap();
    for (tenant, seed) in &s.seeds {
        let mut solo =
            StreamSession::with_engine(config.clone(), seed.clone(), ScoringEngine::serial())
                .unwrap();
        for events in s.tenant_messages(*tenant) {
            solo.ingest(events).unwrap();
        }
        let routed = router.scores(TenantId(*tenant)).unwrap();
        assert_eq!(routed.len(), solo.scores().len(), "tenant {tenant}");
        for (i, (a, b)) in routed.iter().zip(solo.scores()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "tenant {tenant}, triple {i}: routed {a} vs solo {b}"
            );
        }
        let decisions = router.decisions(TenantId(*tenant)).unwrap();
        assert_eq!(decisions, solo.decisions());
    }
    assert_eq!(router.tenants().len(), 4);
    let stats = router.shutdown().unwrap();
    let agg = stats.aggregate();
    assert_eq!(agg.ingest_errors, 0, "{:?}", agg.last_error);
    assert_eq!(agg.processed_messages, s.messages.len() as u64);
}

/// The trust anchor, deterministically: routed + journaled + rotated
/// ingestion per shard is bitwise identical to a fresh fit on the
/// shard's accumulated dataset, and the rotated journal restores to the
/// same state.
#[test]
fn shard_scores_match_fresh_fit_and_journal_restores() {
    let dir = tmpdir("equiv");
    let s = stream(5, 23);
    let config = FuserConfig::new(Method::Exact);
    let router = ShardRouter::new(
        config.clone(),
        RouterConfig::new(3)
            // One message per micro-batch so the rotation trigger (every
            // 3 appended batches) fires on every shard.
            .with_batching(1)
            .with_journal(
                JournalConfig::new(&dir)
                    .with_fsync(FsyncPolicy::EveryBatch)
                    .with_rotate_max_batches(3),
            )
            .with_retention(LogRetention::LastBatches(1)),
        seeds_of(&s),
    )
    .unwrap();
    for (tenant, events) in &s.messages {
        router.ingest(TenantId(*tenant), events.clone()).unwrap();
    }
    router.flush().unwrap();
    let mut snapshots = Vec::new();
    for shard in 0..router.n_shards() {
        let snap = router.shard_snapshot(shard).unwrap();
        let fresh = Fuser::fit(&config, &snap.dataset, snap.dataset.gold().unwrap()).unwrap();
        let scores = fresh.score_all(&snap.dataset).unwrap();
        for (i, (a, b)) in snap.scores.iter().zip(&scores).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "shard {shard}, triple {i}: routed {a} vs fresh {b}"
            );
        }
        snapshots.push(snap);
    }
    let stats = router.shutdown().unwrap();
    let agg = stats.aggregate();
    assert_eq!(agg.ingest_errors, 0, "{:?}", agg.last_error);
    assert!(agg.rotations > 0, "rotation never triggered");
    assert!(agg.log_dropped_events > 0, "retention never truncated");
    // Sealed journals restore every shard to its exact final state.
    for snap in snapshots {
        let restored = StreamSession::restore(config.clone(), snap.journal_path.unwrap()).unwrap();
        assert_eq!(restored.dataset().n_triples(), snap.dataset.n_triples());
        for (a, b) in restored.scores().iter().zip(&snap.scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A tenant that was never seeded can join purely through the ingest
/// path: its stream carries its own sources, claims and labels.
#[test]
fn new_tenant_joins_mid_run() {
    let s = stream(2, 31);
    let config = FuserConfig::new(Method::Exact);
    let router = ShardRouter::new(config.clone(), RouterConfig::new(2), seeds_of(&s)).unwrap();
    // Tenant 7 routes to shard 1; introduce it as one self-contained
    // message replaying a labelled world, then stream its updates.
    let world = stream(1, 99).seeds.remove(0).1;
    let newcomer = TenantId(7);
    router.ingest(newcomer, dataset_to_events(&world)).unwrap();
    for (tenant, events) in &s.messages {
        router.ingest(TenantId(*tenant), events.clone()).unwrap();
    }
    router.flush().unwrap();
    assert_eq!(router.shard_of(newcomer), 1);
    let scores = router.scores(newcomer).unwrap();
    assert_eq!(scores.len(), world.n_triples());
    assert!(scores.iter().all(|p| p.is_finite()));
    assert!(router.tenants().contains(&newcomer));
    // The host shard still satisfies the trust anchor.
    let snap = router.shard_snapshot(1).unwrap();
    let fresh = Fuser::fit(&config, &snap.dataset, snap.dataset.gold().unwrap()).unwrap();
    for (a, b) in snap
        .scores
        .iter()
        .zip(&fresh.score_all(&snap.dataset).unwrap())
    {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let stats = router.shutdown().unwrap();
    assert_eq!(stats.aggregate().ingest_errors, 0);
}

/// A malformed message is dropped and counted; co-tenants of the same
/// shard are unaffected whether or not the batcher merged them (the
/// merged case is pinned deterministically by the shard unit tests).
#[test]
fn bad_messages_are_contained() {
    let s = stream(2, 47);
    let config = FuserConfig::new(Method::PrecRec).with_alpha(0.5);
    let router = ShardRouter::new(
        config,
        RouterConfig::new(1).with_batching(512),
        seeds_of(&s),
    )
    .unwrap();
    let t0_triples = router.scores(TenantId(0)).unwrap().len();
    // Tenant 0 references a triple id it never registered...
    router
        .ingest(
            TenantId(0),
            vec![Event::claim(
                SourceId(0),
                corrfuse_core::TripleId(9_999_999),
            )],
        )
        .unwrap();
    // ...while tenant 1 sends a perfectly good update.
    let good: Vec<Event> = s.tenant_messages(1).next().unwrap().to_vec();
    let good_events = good.len();
    router.ingest(TenantId(1), good).unwrap();
    router.flush().unwrap();
    let stats = router.stats();
    assert_eq!(stats.shards[0].ingest_errors, 1);
    let err = stats.shards[0].last_error.clone().unwrap();
    assert!(err.contains("tenant-0"), "unexpected error: {err}");
    assert_eq!(stats.shards[0].processed_messages, 2);
    assert!(stats.shards[0].ingested_events >= good_events as u64);
    // Tenant 0 lost nothing but the bad message; tenant 1 advanced.
    assert_eq!(router.scores(TenantId(0)).unwrap().len(), t0_triples);
    router.shutdown().unwrap();
}

/// Reject backpressure: every message is either applied or visibly
/// rejected — accounting always balances.
#[test]
fn reject_backpressure_accounting_balances() {
    let s = stream(3, 53);
    let router = ShardRouter::new(
        FuserConfig::new(Method::PrecRec).with_alpha(0.5),
        RouterConfig::new(1)
            .with_queue_capacity(1)
            .with_backpressure(Backpressure::Reject),
        seeds_of(&s),
    )
    .unwrap();
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for (tenant, events) in &s.messages {
        match router.ingest(TenantId(*tenant), events.clone()) {
            Ok(()) => accepted += 1,
            Err(ServeError::Backpressure { shard: 0, .. }) => rejected += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    router.flush().unwrap();
    let stats = router.shutdown().unwrap();
    let agg = stats.aggregate();
    assert_eq!(agg.enqueued_messages, accepted);
    assert_eq!(agg.processed_messages, accepted);
    assert_eq!(agg.rejected_messages, rejected);
    assert_eq!(accepted + rejected, s.messages.len() as u64);
}

/// Shutdown without an explicit flush still drains the queues and seals
/// journals; nothing accepted is lost.
#[test]
fn shutdown_drains_and_seals() {
    let dir = tmpdir("shutdown");
    let s = stream(3, 61);
    let config = FuserConfig::new(Method::PrecRec).with_alpha(0.5);
    let router = ShardRouter::new(
        config.clone(),
        RouterConfig::new(2).with_journal(JournalConfig::new(&dir).with_fsync(FsyncPolicy::Always)),
        seeds_of(&s),
    )
    .unwrap();
    for (tenant, events) in &s.messages {
        router.ingest(TenantId(*tenant), events.clone()).unwrap();
    }
    let stats = router.shutdown().unwrap();
    let agg = stats.aggregate();
    assert_eq!(agg.processed_messages, s.messages.len() as u64);
    assert_eq!(agg.ingest_errors, 0, "{:?}", agg.last_error);
    assert_eq!(agg.queue_depth, 0);
    for shard in 0..2 {
        let restored =
            StreamSession::restore(config.clone(), dir.join(format!("shard-{shard}.journal")))
                .unwrap();
        let fresh = Fuser::fit(
            &config,
            restored.dataset(),
            restored.dataset().gold().unwrap(),
        )
        .unwrap();
        for (a, b) in restored
            .scores()
            .iter()
            .zip(&fresh.score_all(restored.dataset()).unwrap())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A post-validation ingest error (here: a relabel that degenerates the
/// empirical prior, surfacing *after* the dataset mutated) poisons the
/// shard: it stops applying, further ingest and queries fail with the
/// dedicated non-retryable `ShardPoisoned` variant, the last consistent
/// state stays readable through `shard_snapshot`, and other shards are
/// untouched.
#[test]
fn post_mutation_errors_poison_only_their_shard() {
    use corrfuse_core::dataset::DatasetBuilder;
    use corrfuse_core::TripleId;
    let seed = || {
        let mut b = DatasetBuilder::new();
        let (s, t1) = b.observe_named("A", "x", "p", "1");
        b.label(t1, true);
        let t2 = b.triple("y", "p", "2");
        b.observe(s, t2);
        b.label(t2, false);
        b.build().unwrap()
    };
    // Empirical prior (no pinned alpha): relabelling the only true
    // triple to false makes alpha degenerate during the model refresh.
    let mut config = FuserConfig::new(Method::PrecRec);
    config.alpha = None;
    let router = ShardRouter::new(
        config,
        RouterConfig::new(2),
        vec![(TenantId(0), seed()), (TenantId(1), seed())],
    )
    .unwrap();
    let before = router.scores(TenantId(0)).unwrap();
    router
        .ingest(TenantId(0), vec![Event::label(TripleId(0), false)])
        .unwrap();
    router.flush().unwrap();
    let stats = router.stats();
    assert!(stats.shards[0].poisoned, "{:?}", stats.shards[0].last_error);
    assert_eq!(stats.shards[0].ingest_errors, 1);
    assert!(stats.aggregate().poisoned);
    // Further front-door ingest is refused with the dedicated,
    // non-retryable variant (not a generic backpressure/queue error)...
    let err = router
        .ingest(TenantId(0), vec![Event::claim(SourceId(0), TripleId(1))])
        .unwrap_err();
    assert!(
        matches!(err, ServeError::ShardPoisoned { shard: 0, .. }),
        "{err:?}"
    );
    // ...and so are tenant queries: a poisoned shard never silently
    // serves state of unknown freshness.
    let err = router.scores(TenantId(0)).unwrap_err();
    assert!(
        matches!(err, ServeError::ShardPoisoned { shard: 0, .. }),
        "{err:?}"
    );
    assert!(router.decisions(TenantId(0)).is_err());
    // An unknown tenant routed to the poisoned shard is still the
    // caller's bug — UnknownTenant takes precedence over the shard's
    // poisoning.
    assert_eq!(
        router.scores(TenantId(2)).unwrap_err(),
        ServeError::UnknownTenant(TenantId(2))
    );
    // The explicit operator read still exposes the last consistent
    // state (the scores as of the final successful batch).
    let snap = router.shard_snapshot(0).unwrap();
    assert_eq!(snap.scores, before);
    // The sibling shard is unaffected.
    router
        .ingest(TenantId(1), vec![Event::claim(SourceId(0), TripleId(1))])
        .unwrap();
    router.flush().unwrap();
    assert!(router.scores(TenantId(1)).is_ok());
    let stats = router.shutdown().unwrap();
    assert!(!stats.shards[1].poisoned);
    assert_eq!(stats.shards[1].ingest_errors, 0);
}

/// Queue-depth-driven rebalancing is score-neutral: swapping a shard's
/// scoring engine (thread autosizing) and migrating its hottest tenant
/// both reproduce bitwise the solo-session scores, because parallel
/// scoring partitions deterministically and migration is idempotent
/// replay. Plain `Vec` reordering of work must never leak into results.
#[test]
fn rebalancing_is_score_neutral() {
    use corrfuse_serve::{RebalanceAction, RebalancePolicy};
    let s = stream(4, 83);
    let config = FuserConfig::new(Method::PrecRec).with_alpha(0.5);
    let router = ShardRouter::new(
        config.clone(),
        RouterConfig::new(2).with_batching(8),
        seeds_of(&s),
    )
    .unwrap();
    let half = s.messages.len() / 2;
    for (tenant, events) in &s.messages[..half] {
        router.ingest(TenantId(*tenant), events.clone()).unwrap();
    }
    // A hair-trigger policy: any observed queue depth counts as hot, so
    // the pass autosizes threads (and may migrate) deterministically
    // from whatever high-water marks the ingest above left behind.
    let policy = RebalancePolicy::new()
        .with_hot_high_water(1)
        .with_max_shard_threads(3)
        .with_migrate_min_imbalance(1);
    let actions = router.rebalance(&policy).unwrap();
    // Every emitted thread action is live on its shard engine.
    let stats = router.stats();
    for action in &actions {
        if let RebalanceAction::SetShardThreads { shard, threads } = action {
            assert_eq!(stats.shards[*shard].scoring_threads, *threads);
        }
    }
    // A second pass is a fixpoint for threads: nothing new to resize
    // (high-water marks only grow, and the sizes already match).
    let again = router.rebalance(&policy).unwrap();
    assert!(
        !again
            .iter()
            .any(|a| matches!(a, RebalanceAction::SetShardThreads { .. })),
        "second pass resized threads again: {again:?}"
    );
    for (tenant, events) in &s.messages[half..] {
        router.ingest(TenantId(*tenant), events.clone()).unwrap();
    }
    router.flush().unwrap();
    // Score-neutrality: every tenant still matches its solo twin.
    for (tenant, seed) in &s.seeds {
        let mut solo =
            StreamSession::with_engine(config.clone(), seed.clone(), ScoringEngine::serial())
                .unwrap();
        for events in s.tenant_messages(*tenant) {
            solo.ingest(events).unwrap();
        }
        let routed = router.scores(TenantId(*tenant)).unwrap();
        for (i, (a, b)) in routed.iter().zip(solo.scores()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "tenant {tenant}, triple {i} after rebalance"
            );
        }
    }
    let stats = router.shutdown().unwrap();
    assert_eq!(stats.aggregate().ingest_errors, 0);
}

/// Construction-time validation: unseeded shards, duplicate tenants and
/// unknown-tenant queries all fail loudly.
#[test]
fn construction_and_query_errors() {
    let s = stream(2, 71);
    // 3 shards but tenants {0, 1}: shard 2 has no seed.
    let err = ShardRouter::new(
        FuserConfig::new(Method::PrecRec),
        RouterConfig::new(3),
        seeds_of(&s),
    )
    .unwrap_err();
    assert_eq!(err, ServeError::ShardSeedMissing { shard: 2 });
    // Duplicate tenant seeds.
    let mut dup = seeds_of(&s);
    dup.push(dup[0].clone());
    let err =
        ShardRouter::new(FuserConfig::new(Method::PrecRec), RouterConfig::new(1), dup).unwrap_err();
    assert!(matches!(err, ServeError::InvalidConfig(_)));
    // Unknown tenant queries.
    let router = ShardRouter::new(
        FuserConfig::new(Method::PrecRec),
        RouterConfig::new(2),
        seeds_of(&s),
    )
    .unwrap();
    assert_eq!(
        router.scores(TenantId(5)).unwrap_err(),
        ServeError::UnknownTenant(TenantId(5))
    );
    assert!(router.shard_snapshot(9).is_err());
    router.shutdown().unwrap();
}

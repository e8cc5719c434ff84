//! Crash-recovery property test: kill a shard mid-batch by truncating
//! its journal at an *arbitrary byte*, restore via replay, and assert
//! bitwise score equality with a fresh fit on the pre-crash accumulated
//! dataset.
//!
//! The journal's crash contract: every write ends in a newline, so a
//! tear can only damage the final line, which recovery drops. Truncation
//! inside the seed snapshot is unrecoverable and must fail loudly; any
//! truncation at or after the `#events` marker must recover to a
//! well-formed prefix of what was written.

use std::path::Path;

use corrfuse_core::fuser::{Fuser, FuserConfig, Method};
use corrfuse_core::testkit::run_cases;
use corrfuse_serve::{
    derive_tenant_maps, load_routes, resolve_route, JournalConfig, MigrationStage, RouteResolution,
    RouterConfig, ServeError, ShardRouter, TenantId,
};
use corrfuse_stream::{journal, Event, FsyncPolicy, StreamSession};
use corrfuse_synth::{multi_tenant_events, MultiTenantSpec};

/// Build a router over a multi-tenant stream, run it to completion with
/// journaling, and return each shard's journal contents (post-seal).
fn journaled_shards(dir: &Path, config: &FuserConfig) -> Vec<Vec<u8>> {
    let s = multi_tenant_events(&MultiTenantSpec::new(3, 100, 17)).unwrap();
    let seeds = s
        .seeds
        .iter()
        .map(|(t, ds)| (TenantId(*t), ds.clone()))
        .collect();
    let router = ShardRouter::new(
        config.clone(),
        RouterConfig::new(2)
            .with_batching(1)
            .with_journal(JournalConfig::new(dir).with_fsync(FsyncPolicy::EveryBatch)),
        seeds,
    )
    .unwrap();
    for (tenant, events) in &s.messages {
        router.ingest(TenantId(*tenant), events.clone()).unwrap();
    }
    let stats = router.shutdown().unwrap();
    assert_eq!(stats.aggregate().ingest_errors, 0);
    (0..2)
        .map(|i| std::fs::read(dir.join(format!("shard-{i}.journal"))).unwrap())
        .collect()
}

#[test]
fn truncated_journals_recover_to_a_consistent_prefix() {
    let dir = std::env::temp_dir().join(format!("corrfuse-recovery-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let config = FuserConfig::new(Method::Exact);
    let journals = journaled_shards(&dir, &config);

    // Per journal: the full event list and the byte offset after which
    // the seed snapshot is intact (end of the `#events` marker line).
    let full: Vec<(Vec<Event>, usize)> = journals
        .iter()
        .map(|bytes| {
            let text = std::str::from_utf8(bytes).unwrap();
            let batches = journal::recover(text).unwrap().batches;
            let marker = "#events\n";
            let seed_end = text.find(marker).unwrap() + marker.len();
            (batches.concat(), seed_end)
        })
        .collect();

    run_cases("journal_crash_recovery", 24, |g| {
        let which = g.usize_in(0, journals.len() - 1);
        let bytes = &journals[which];
        let (full_events, seed_end) = &full[which];
        let cut = g.usize_in(0, bytes.len());
        let path = dir.join(format!("crash-{which}.journal"));
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let result = StreamSession::recover(config.clone(), &path, FsyncPolicy::Never);
        if cut < *seed_end {
            // The seed snapshot itself is damaged: recovery must refuse,
            // not hallucinate a session.
            assert!(result.is_err(), "cut {cut} inside seed (< {seed_end})");
            return;
        }
        let (session, report) = result.expect("recovery succeeds past the seed section");
        // The file was trimmed back to a well-formed prefix: all of it
        // is committed now, and it agrees with the session.
        let text = std::fs::read_to_string(&path).unwrap();
        let committed = journal::recover(&text).unwrap();
        assert_eq!(committed.good_len, text.len() as u64);
        let batches = committed.batches;
        assert_eq!(batches.len(), report.batches_replayed);
        // Recovery keeps the file through its last whole `+B` line (or
        // the `#events` line), so a cut that dropped nothing fell on a
        // newline; a cut inside a batch drops the whole batch.
        let on_boundary = bytes[..cut].last() == Some(&b'\n');
        if report.dropped_bytes == 0 {
            assert!(on_boundary, "cut {cut} dropped nothing off a torn line");
        }

        // Recovered events are a prefix of what was written (a torn
        // numeric field must never be misread as a different event).
        let recovered: Vec<Event> = batches.concat();
        assert!(
            recovered.len() <= full_events.len() && recovered[..] == full_events[..recovered.len()],
            "recovered events must be a written prefix"
        );

        // The trust anchor on the pre-crash accumulated dataset: replayed
        // scores are bitwise identical to a from-scratch fit.
        let fresh = Fuser::fit(
            &config,
            session.dataset(),
            session.dataset().gold().expect("seeds carry gold"),
        )
        .unwrap();
        let scores = fresh.score_all(session.dataset()).unwrap();
        for (i, (a, b)) in session.scores().iter().zip(&scores).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "cut {cut}, triple {i}: recovered {a} vs fresh {b}"
            );
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Appending after a recovery resumes a valid journal: the next restore
/// sees the recovered prefix plus the new batch.
#[test]
fn recovered_journals_accept_new_batches() {
    let dir = std::env::temp_dir().join(format!("corrfuse-recovery-app-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let config = FuserConfig::new(Method::PrecRec).with_alpha(0.5);
    let bytes = journaled_shards(&dir, &config).remove(0);
    // Tear mid-way through the event section.
    let marker_end = {
        let text = std::str::from_utf8(&bytes).unwrap();
        text.find("#events\n").unwrap() + "#events\n".len()
    };
    let cut = marker_end + (bytes.len() - marker_end) * 2 / 3;
    let path = dir.join("resume.journal");
    std::fs::write(&path, &bytes[..cut]).unwrap();

    let (mut session, _) = StreamSession::recover(config.clone(), &path, FsyncPolicy::Always)
        .expect("recovery past the seed succeeds");
    let before_batches = journal::recover(&std::fs::read_to_string(&path).unwrap())
        .unwrap()
        .batches
        .len();
    // A fresh claim on an existing pair is always valid input.
    session
        .ingest(&[Event::claim(
            corrfuse_core::SourceId(0),
            corrfuse_core::TripleId(0),
        )])
        .unwrap();
    session.seal_journal().unwrap();
    let restored = StreamSession::restore(config, &path).unwrap();
    assert_eq!(
        restored.epoch(),
        before_batches as u64 + 1,
        "appended batch is visible to the next restore"
    );
    for (a, b) in restored.scores().iter().zip(session.scores()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash recovery with an in-flight migration commit on disk: truncate
/// the *target* shard's journal at an arbitrary byte and resolve the
/// persisted route against the recovered epoch. The outcome must be
/// all-or-nothing — either the fence is covered and the target serves a
/// complete tenant view (cut over), or the route is discarded and the
/// untouched source still serves the tenant in full (rolled back).
/// There is no cut at which the tenant's state is split across shards.
#[test]
fn in_flight_migration_recovery_never_splits_the_route() {
    let dir = std::env::temp_dir().join(format!("corrfuse-recovery-mig-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let config = FuserConfig::new(Method::PrecRec).with_alpha(0.5);
    let s = multi_tenant_events(&MultiTenantSpec::new(3, 100, 29)).unwrap();
    let seeds = s
        .seeds
        .iter()
        .map(|(t, ds)| (TenantId(*t), ds.clone()))
        .collect();
    let router = ShardRouter::new(
        config.clone(),
        RouterConfig::new(2)
            .with_batching(1)
            .with_journal(JournalConfig::new(&dir).with_fsync(FsyncPolicy::EveryBatch)),
        seeds,
    )
    .unwrap();
    let half = s.messages.len() / 2;
    for (tenant, events) in &s.messages[..half] {
        router.ingest(TenantId(*tenant), events.clone()).unwrap();
    }
    router.flush().unwrap();
    let mover = TenantId(0);
    let source = router.shard_of(mover);
    let target = (source + 1) % 2;
    let premigration_triples = router.scores(mover).unwrap().len();
    let report = router.migrate_tenant(mover, target).unwrap();
    assert_eq!(report.from, source);
    assert_eq!(report.to, target);
    for (tenant, events) in &s.messages[half..] {
        router.ingest(TenantId(*tenant), events.clone()).unwrap();
    }
    router.shutdown().unwrap();

    let routes = load_routes(&dir).unwrap();
    let route = *routes
        .iter()
        .find(|r| r.tenant == mover)
        .expect("committed migration persisted a route");
    assert_eq!(route.shard, target);
    assert_eq!(route.fence, report.fence);

    let target_bytes = std::fs::read(dir.join(format!("shard-{target}.journal"))).unwrap();
    let source_bytes = std::fs::read(dir.join(format!("shard-{source}.journal"))).unwrap();
    let seed_end = {
        let text = std::str::from_utf8(&target_bytes).unwrap();
        text.find("#events\n").unwrap() + "#events\n".len()
    };
    // The source journal is intact in every scenario below; restore it
    // once. The source keeps the tenant's full pre-migration state (maps
    // are never removed at commit), so rollback always has a home.
    let source_path = dir.join("crash-source.journal");
    std::fs::write(&source_path, &source_bytes).unwrap();
    let source_session = StreamSession::restore(config.clone(), &source_path).unwrap();
    let source_maps = derive_tenant_maps(source_session.dataset());
    assert_eq!(
        source_maps.get(&mover).map(|m| m.n_triples()),
        Some(premigration_triples),
        "source keeps the tenant's complete pre-migration view"
    );

    let mut cut_over = 0usize;
    let mut rolled_back = 0usize;
    run_cases("migration_crash_recovery", 24, |g| {
        let cut = g.usize_in(seed_end, target_bytes.len() + 1);
        let path = dir.join("crash-target.journal");
        std::fs::write(&path, &target_bytes[..cut]).unwrap();
        let (session, _) = StreamSession::recover(config.clone(), &path, FsyncPolicy::Never)
            .expect("recovery past the seed succeeds");
        match resolve_route(&route, session.epoch()) {
            RouteResolution::CutOver => {
                cut_over += 1;
                // The fence is covered: the slice and the cut-over delta
                // are fully applied, so the target holds at least the
                // tenant's complete pre-migration view.
                let maps = derive_tenant_maps(session.dataset());
                let n = maps.get(&mover).map(|m| m.n_triples()).unwrap_or(0);
                assert!(
                    n >= premigration_triples,
                    "cut {cut}: target serves {n} of {premigration_triples} triples"
                );
                // And the recovered prefix still satisfies the trust
                // anchor, translated slice batch included.
                let fresh = Fuser::fit(
                    &config,
                    session.dataset(),
                    session.dataset().gold().expect("seeds carry gold"),
                )
                .unwrap();
                for (a, b) in session
                    .scores()
                    .iter()
                    .zip(&fresh.score_all(session.dataset()).unwrap())
                {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            RouteResolution::RollBack => {
                rolled_back += 1;
                // The fence is not covered: the route is discarded and
                // the tenant falls back to the source, which (asserted
                // above) serves its complete pre-migration view.
                assert!(session.epoch() < route.fence);
            }
        }
    });
    // The arbitrary cuts must have landed on both sides of the fence,
    // or the property was only half exercised.
    assert!(cut_over > 0, "no cut ever reached the fence");
    assert!(rolled_back > 0, "no cut ever fell short of the fence");
    std::fs::remove_dir_all(&dir).ok();
}

/// A migration that crash-aborts before commit leaves no trace a
/// restart could misread: no route is persisted, the source still
/// serves the tenant bitwise unchanged, and ingest keeps flowing.
#[test]
fn chaos_aborted_migration_persists_no_route() {
    let dir = std::env::temp_dir().join(format!("corrfuse-recovery-abort-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let config = FuserConfig::new(Method::PrecRec).with_alpha(0.5);
    let s = multi_tenant_events(&MultiTenantSpec::new(2, 80, 37)).unwrap();
    let seeds = s
        .seeds
        .iter()
        .map(|(t, ds)| (TenantId(*t), ds.clone()))
        .collect();
    let router = ShardRouter::new(
        config.clone(),
        RouterConfig::new(2)
            .with_journal(JournalConfig::new(&dir).with_fsync(FsyncPolicy::EveryBatch)),
        seeds,
    )
    .unwrap();
    let half = s.messages.len() / 2;
    for (tenant, events) in &s.messages[..half] {
        router.ingest(TenantId(*tenant), events.clone()).unwrap();
    }
    router.flush().unwrap();
    let mover = TenantId(0);
    let source = router.shard_of(mover);
    let target = (source + 1) % 2;
    let before = router.scores(mover).unwrap();
    for stage in [
        MigrationStage::Planning,
        MigrationStage::BulkReplay,
        MigrationStage::CutOver,
        MigrationStage::Commit,
    ] {
        let err = router
            .migrate_tenant_chaos(mover, target, stage)
            .unwrap_err();
        assert!(
            matches!(err, ServeError::MigrationFailed { tenant, stage: at, .. }
                if tenant == mover && at == stage),
            "stage {stage}: {err:?}"
        );
        // Rolled back: the tenant is served by the source, unchanged.
        assert_eq!(router.shard_of(mover), source);
        let after = router.scores(mover).unwrap();
        assert_eq!(after.len(), before.len());
        for (a, b) in after.iter().zip(&before) {
            assert_eq!(a.to_bits(), b.to_bits(), "stage {stage} moved a score");
        }
        // And no route was persisted for a restart to trip over.
        assert!(
            load_routes(&dir).unwrap().is_empty(),
            "stage {stage} leaked a persisted route"
        );
    }
    // Ingest still flows, and a real migration still succeeds afterwards.
    for (tenant, events) in &s.messages[half..] {
        router.ingest(TenantId(*tenant), events.clone()).unwrap();
    }
    router.flush().unwrap();
    router.migrate_tenant(mover, target).unwrap();
    assert_eq!(router.shard_of(mover), target);
    assert_eq!(load_routes(&dir).unwrap().len(), 1);
    let stats = router.shutdown().unwrap();
    assert_eq!(stats.aggregate().ingest_errors, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A migration's fence batch is all-or-nothing under recovery. Build a
/// target journal whose last batch, the fence, carries new triples,
/// their claims and a label, and cut it at every line boundary inside
/// that batch: every cut that resolves to `CutOver` must hold every
/// fence event, and every `RollBack` must sit below the fence. A batch
/// whose `+B` line was lost is never replayed, however much of it
/// survived.
#[test]
fn every_line_cut_of_a_fence_batch_cuts_over_whole_or_rolls_back() {
    let dir = std::env::temp_dir().join(format!("corrfuse-recovery-fence-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let config = FuserConfig::new(Method::PrecRec).with_alpha(0.5);
    let mut b = corrfuse_core::DatasetBuilder::new();
    let (a, t0) = b.observe_named("A", "x", "p", "1");
    let s_b = b.source("B");
    b.observe(s_b, t0);
    b.label(t0, true);
    let t1 = b.triple("y", "p", "2");
    b.observe(a, t1);
    b.label(t1, false);
    let path = dir.join("target.journal");
    let mut target = StreamSession::new(config.clone(), b.build().unwrap()).unwrap();
    target.journal_to(&path, FsyncPolicy::Never).unwrap();
    target.ingest(&[Event::claim(s_b, t1)]).unwrap();
    let (t2, t3) = (corrfuse_core::TripleId(2), corrfuse_core::TripleId(3));
    let fence_batch = [
        Event::add_triple("z", "p", "3"),
        Event::add_triple("w", "p", "4"),
        Event::claim(a, t2),
        Event::claim(s_b, t2),
        Event::claim(s_b, t3),
        Event::label(t3, false),
    ];
    target.ingest(&fence_batch).unwrap();
    target.seal_journal().unwrap();
    let route = corrfuse_serve::PersistedRoute {
        tenant: TenantId(0),
        shard: 1,
        fence: target.epoch(),
    };
    let whole = corrfuse_core::io::to_string(target.dataset());

    // Every line boundary from the end of the batch before the fence to
    // the end of the fence's `+B` line.
    let bytes = std::fs::read(&path).unwrap();
    let fence_start = bytes.len() - corrfuse_stream::codec::encode_batch(&fence_batch).len();
    let cuts: Vec<usize> = (fence_start..=bytes.len())
        .filter(|&cut| bytes[cut - 1] == b'\n')
        .collect();
    assert_eq!(cuts.len(), fence_batch.len() + 2);
    let mut cut_over = 0;
    for cut in cuts {
        let cut_path = dir.join("cut.journal");
        std::fs::write(&cut_path, &bytes[..cut]).unwrap();
        let (session, _) = StreamSession::recover(config.clone(), &cut_path, FsyncPolicy::Never)
            .expect("recovery past the seed succeeds");
        match resolve_route(&route, session.epoch()) {
            RouteResolution::CutOver => {
                cut_over += 1;
                assert_eq!(
                    corrfuse_core::io::to_string(session.dataset()),
                    whole,
                    "cut {cut} cut over without every fence event"
                );
            }
            RouteResolution::RollBack => assert!(session.epoch() < route.fence),
        }
    }
    assert_eq!(cut_over, 1, "only the whole fence batch reaches the fence");
    std::fs::remove_dir_all(&dir).ok();
}

//! The live-migration subsystem's trust anchor, as a property over
//! random chaos schedules: a tenant bounced between shards — while its
//! co-tenants keep ingesting **over real TCP loopback**, migrations run
//! concurrently with the write path, chaos aborts crash migrations at
//! every abortable stage, journals rotate mid-stream, and duplicate
//! bursts replay already-applied messages — ends with scores and
//! decisions **bitwise identical** to a never-migrated solo twin fed
//! the same event stream, both read in process and over the wire.
//! Crash-aborted migrations must roll back cleanly (the tenant's scores
//! are untouched) and committed ones must be visible in the per-shard
//! migration counters.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

use corrfuse::core::engine::ScoringEngine;
use corrfuse::core::fuser::{FuserConfig, Method};
use corrfuse::core::testkit::run_cases;
use corrfuse::net::server::spawn;
use corrfuse::net::{Client, Server, ServerConfig};
use corrfuse::serve::{
    JournalConfig, MigrationReport, MigrationStage, RouterConfig, ServeError, ShardRouter, TenantId,
};
use corrfuse::stream::StreamSession;
use corrfuse::synth::{migration_scenario, MigrationFault, MigrationScenarioSpec, MultiTenantSpec};

/// The tenant the chaos schedule keeps bouncing between shards.
const HOT: TenantId = TenantId(0);

fn join_migration(pending: &mut Option<JoinHandle<MigrationReport>>, successes: &mut u64) {
    if let Some(h) = pending.take() {
        let report = h.join().expect("migration thread");
        assert_eq!(report.tenant, HOT);
        *successes += 1;
    }
}

/// Assert the served scores of `tenant` are bitwise the twin's.
fn assert_bitwise(what: &str, tenant: TenantId, served: &[f64], twin: &[f64]) {
    assert_eq!(served.len(), twin.len(), "{what}: tenant {tenant} length");
    for (i, (a, b)) in served.iter().zip(twin).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: tenant {tenant}, triple {i}: served {a} vs twin {b}"
        );
    }
}

#[test]
fn migrated_tenant_equals_never_migrated_twin() {
    let dir = std::env::temp_dir().join(format!("corrfuse-migration-eq-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    run_cases("migration_equivalence", 3, |g| {
        let case_dir = dir.join(format!("case-{}", g.usize_in(0, usize::MAX / 2)));
        let n_tenants = g.usize_in(2, 5);
        let spec = MigrationScenarioSpec {
            tenants: MultiTenantSpec {
                n_tenants,
                triples_largest: g.usize_in(80, 130),
                skew: g.f64_in(0.0, 1.5),
                n_sources: g.usize_in(3, 5),
                batches_largest: g.usize_in(3, 6),
                label_fraction: g.f64_in(0.0, 0.5),
                seed: g.usize_in(0, usize::MAX / 2) as u64,
            },
            n_migrations: g.usize_in(2, 5),
            n_crashes: g.usize_in(1, 4),
            n_rotations: g.usize_in(1, 3),
            n_bursts: g.usize_in(1, 3),
            seed: g.usize_in(0, usize::MAX / 2) as u64,
        };
        let scenario = migration_scenario(&spec).expect("scenario generates");
        // The pinned empirical prior keeps co-tenants statistically
        // decoupled, so a routed tenant is comparable to a solo twin.
        let config = FuserConfig::new(Method::PrecRec).with_alpha(0.5);
        // Every shard needs a seed tenant; at least two shards so the
        // hot tenant always has somewhere to go.
        let n_shards = g.usize_in(2, n_tenants.min(4) + 1);
        let journaling = g.bool(0.6);
        let mut router_cfg = RouterConfig::new(n_shards).with_batching(g.usize_in(1, 64));
        if journaling {
            std::fs::create_dir_all(&case_dir).unwrap();
            // Aggressive rotation so journal compaction keeps landing
            // around migration commits and route persistence.
            router_cfg = router_cfg.with_journal(
                JournalConfig::new(&case_dir).with_rotate_max_batches(g.usize_in(2, 5) as u64),
            );
        }
        let seeds: Vec<(TenantId, _)> = scenario
            .stream
            .seeds
            .iter()
            .map(|(t, ds)| (TenantId(*t), ds.clone()))
            .collect();
        eprintln!(
            "case: {} tenants, {} shards, {} messages, journal {}, faults {:?}",
            n_tenants,
            n_shards,
            scenario.stream.messages.len(),
            journaling,
            scenario.faults,
        );

        // Never-migrated twins: one solo serial session per tenant, fed
        // the identical event stream.
        let mut twins: HashMap<u32, StreamSession> = scenario
            .stream
            .seeds
            .iter()
            .map(|(t, ds)| {
                let solo =
                    StreamSession::with_engine(config.clone(), ds.clone(), ScoringEngine::serial())
                        .expect("twin constructs");
                (*t, solo)
            })
            .collect();

        let router =
            ShardRouter::new(config.clone(), router_cfg, seeds).expect("router constructs");
        let server = Server::bind("127.0.0.1:0", router, ServerConfig::new()).expect("binds");
        let addr = server.local_addr().expect("bound addr").to_string();
        let router = server.router_handle();
        let (handle, join) = spawn(server).expect("server spawns");
        let mut client = Client::connect(&addr).expect("client connects");

        let mut pending: Option<JoinHandle<MigrationReport>> = None;
        let mut successes = 0u64;
        let mut crashes = 0u64;
        for (i, (tenant, events)) in scenario.stream.messages.iter().enumerate() {
            client.ingest(TenantId(*tenant), events).expect("ingest");
            twins.get_mut(tenant).unwrap().ingest(events).expect("twin");
            match scenario.fault_after(i) {
                Some(MigrationFault::Migrate) => {
                    // One migration at a time: the router rejects a
                    // concurrent second attempt by design.
                    join_migration(&mut pending, &mut successes);
                    let to = (router.shard_of(HOT) + 1) % n_shards;
                    let r = Arc::clone(&router);
                    // Live: the migration races the ingest that follows.
                    pending = Some(std::thread::spawn(move || {
                        r.migrate_tenant(HOT, to).expect("live migration")
                    }));
                }
                Some(MigrationFault::CrashedMigrate(stage)) => {
                    join_migration(&mut pending, &mut successes);
                    let to = (router.shard_of(HOT) + 1) % n_shards;
                    let stage = match stage {
                        0 => MigrationStage::Planning,
                        1 => MigrationStage::BulkReplay,
                        _ => MigrationStage::CutOver,
                    };
                    let err = router.migrate_tenant_chaos(HOT, to, stage).unwrap_err();
                    assert!(
                        matches!(err, ServeError::MigrationFailed { tenant, stage: at, .. }
                            if tenant == HOT && at == stage),
                        "expected rollback at {stage}, got {err:?}"
                    );
                    crashes += 1;
                    // Rolled back cleanly: the tenant's scores are
                    // bitwise what the twin computes at this point.
                    client.flush().expect("post-crash flush");
                    assert_bitwise(
                        "post-crash",
                        HOT,
                        &router.scores(HOT).expect("post-crash scores"),
                        twins[&HOT.0].scores(),
                    );
                }
                Some(MigrationFault::RotateJournals) => {
                    // A flush barrier forces buffered batches through the
                    // rotation check while migrations are in flight.
                    client.flush().expect("rotation flush");
                }
                Some(MigrationFault::IngestBurst) => {
                    // Replay recent messages verbatim on both sides;
                    // idempotent ingest must keep the states identical
                    // whichever shard the duplicates now land on.
                    let k = g.usize_in(1, 4).min(i + 1);
                    for (t, ev) in &scenario.stream.messages[i + 1 - k..=i] {
                        client.ingest(TenantId(*t), ev).expect("burst ingest");
                        twins.get_mut(t).unwrap().ingest(ev).expect("twin burst");
                    }
                }
                None => {}
            }
        }
        join_migration(&mut pending, &mut successes);
        client.flush().expect("final flush");

        // Every tenant — migrated or not — serves its twin's exact
        // state, in process and over the wire.
        for (tenant, _) in &scenario.stream.seeds {
            let tenant = TenantId(*tenant);
            let twin = &twins[&tenant.0];
            let served = router.scores(tenant).expect("in-process scores");
            let wire = client.scores(tenant).expect("wire scores");
            assert_bitwise("in-process", tenant, &served, twin.scores());
            assert_bitwise("wire", tenant, &wire, twin.scores());
            assert_eq!(
                router.decisions(tenant).expect("in-process decisions"),
                twin.decisions(),
                "tenant {tenant} decisions"
            );
            assert_eq!(
                client.decisions(tenant).expect("wire decisions"),
                twin.decisions(),
                "tenant {tenant} wire decisions"
            );
        }

        // The migration ledger balances: every commit moved the tenant
        // in somewhere and out somewhere, every chaos abort failed once.
        let stats = router.stats();
        let agg = stats.aggregate();
        assert_eq!(agg.migrations_in, successes, "commits in");
        assert_eq!(agg.migrations_out, successes, "commits out");
        assert_eq!(agg.migrations_failed, crashes, "rollbacks");
        let per_shard = stats.shards.iter().fold((0, 0, 0), |(i, o, f), s| {
            (
                i + s.migrations_in,
                o + s.migrations_out,
                f + s.migrations_failed,
            )
        });
        assert_eq!(
            per_shard,
            (successes, successes, crashes),
            "per-shard ledger"
        );

        drop(client);
        // The server reclaims sole ownership of the router at stop.
        drop(router);
        handle.stop();
        let stats = join.join().expect("accept thread").expect("server stops");
        assert_eq!(stats.aggregate().ingest_errors, 0);
        std::fs::remove_dir_all(&case_dir).ok();
    });
    std::fs::remove_dir_all(&dir).ok();
}

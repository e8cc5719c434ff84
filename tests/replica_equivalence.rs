//! The replication subsystem's trust anchor, as a property over random
//! fault schedules: a read-replica follower fed through **real TCP
//! loopback replication links** — snapshot bootstraps, resumes, forced
//! link disconnects, leader journal rotation under active taps, and
//! follower cold restarts from its own journals — converges to per-shard
//! state whose scores are **bitwise identical** to a from-scratch
//! `Fuser::fit + score_all` on the leader's accumulated dataset at the
//! same epoch, both read in process and over the wire through the
//! read-only follower server; reads demanding epochs beyond the leader's
//! head fail with the typed retryable `STALE` error.

use std::sync::Arc;
use std::time::{Duration, Instant};

use corrfuse::core::fuser::{Fuser, FuserConfig, Method};
use corrfuse::core::testkit::{run_cases, Gen};
use corrfuse::net::error::ErrorCode;
use corrfuse::net::server::spawn;
use corrfuse::net::{Client, NetError, Server, ServerConfig};
use corrfuse::replica::{
    spawn as spawn_follower, Follower, FollowerConfig, FollowerServer, ReplicaError,
};
use corrfuse::serve::tenant::NAMESPACE_SEP;
use corrfuse::serve::{
    Backpressure, JournalConfig, ReplicationConfig, RouterConfig, ServeError, ShardRouter, TenantId,
};
use corrfuse::stream::{FsyncPolicy, StreamSession};
use corrfuse::synth::{follower_scenario, Fault, FollowerScenarioSpec, MultiTenantSpec};

fn random_method(g: &mut Gen) -> Method {
    match g.usize_in(0, 3) {
        0 => Method::PrecRec,
        1 => Method::Exact,
        _ => Method::Aggressive,
    }
}

/// Block until every shard's applied epoch reaches `targets`.
fn await_catchup(follower: &Follower, targets: &[u64]) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let applied = follower.applied_epochs();
        if applied.iter().zip(targets).all(|(a, t)| a >= t) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "follower never caught up: applied {applied:?}, leader {targets:?}, stats {:?}",
            follower.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn follower_reads_equal_leader_fit() {
    let dir = std::env::temp_dir().join(format!("corrfuse-replica-eq-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    run_cases("replica_equivalence", 3, |g| {
        let case_dir = dir.join(format!("case-{}", g.usize_in(0, usize::MAX / 2)));
        let leader_dir = case_dir.join("leader");
        std::fs::create_dir_all(&leader_dir).unwrap();
        let n_tenants = g.usize_in(2, 5);
        let spec = FollowerScenarioSpec {
            tenants: MultiTenantSpec {
                n_tenants,
                triples_largest: g.usize_in(80, 130),
                skew: g.f64_in(0.0, 1.5),
                n_sources: g.usize_in(3, 5),
                batches_largest: g.usize_in(3, 6),
                label_fraction: g.f64_in(0.0, 0.5),
                seed: g.usize_in(0, usize::MAX / 2) as u64,
            },
            n_disconnects: g.usize_in(1, 3),
            n_rotations: g.usize_in(1, 2),
            n_restarts: g.usize_in(0, 2),
            seed: g.usize_in(0, usize::MAX / 2) as u64,
        };
        let scenario = follower_scenario(&spec).expect("scenario generates");
        let config = FuserConfig::new(random_method(g));
        let threshold = g.f64_in(0.3, 0.7);
        let n_shards = g.usize_in(1, n_tenants);
        // Aggressive leader rotation so journal compaction keeps landing
        // mid-subscription (the satellite regression for
        // `JournalWriter::rotate` under live replication taps), and a
        // sometimes-tiny backlog so disconnected links genuinely fall
        // off the tail and re-bootstrap from a snapshot.
        let replication = if g.bool(0.5) {
            ReplicationConfig::new()
                .with_backlog_batches(g.usize_in(1, 4))
                .with_subscriber_capacity(g.usize_in(2, 8))
        } else {
            ReplicationConfig::new()
        };
        let router_cfg = RouterConfig::new(n_shards)
            .with_backpressure(Backpressure::Block)
            .with_batching(g.usize_in(1, 128))
            .with_threshold(threshold)
            .with_journal(
                JournalConfig::new(&leader_dir).with_rotate_max_batches(g.usize_in(1, 3) as u64),
            )
            .with_replication(replication);
        let seeds = scenario
            .stream
            .seeds
            .iter()
            .map(|(t, ds)| (TenantId(*t), ds.clone()))
            .collect();
        let router =
            ShardRouter::new(config.clone(), router_cfg, seeds).expect("router constructs");
        let server =
            Server::bind("127.0.0.1:0", router, ServerConfig::new()).expect("leader binds");
        let addr = server.local_addr().expect("bound addr").to_string();
        let (handle, join) = spawn(server).expect("leader spawns");

        let journal_dir = g.bool(0.7).then(|| case_dir.join("follower"));
        let follower_config = || {
            let mut cfg = FollowerConfig::new(config.clone())
                .with_catchup_timeout(Duration::from_millis(200))
                .with_reconnect_backoff(Duration::from_millis(2));
            if let Some(d) = &journal_dir {
                cfg = cfg.with_journal_dir(d, FsyncPolicy::Never);
            }
            cfg
        };
        // Sometimes the follower watches from the seed epoch, sometimes
        // it joins mid-stream and must bootstrap from a live snapshot.
        let connect_at = if g.bool(0.5) {
            0
        } else {
            g.usize_in(1, scenario.stream.messages.len())
        };
        eprintln!(
            "case: {} tenants, {} shards, {} messages, faults {:?}, journal {}, connect_at {}",
            n_tenants,
            n_shards,
            scenario.stream.messages.len(),
            scenario.faults,
            journal_dir.is_some(),
            connect_at,
        );

        let mut client = Client::connect(&addr).expect("ingest client connects");
        let mut follower: Option<Follower> = None;
        for (i, (tenant, events)) in scenario.stream.messages.iter().enumerate() {
            if i == connect_at {
                follower =
                    Some(Follower::connect(&addr, follower_config()).expect("follower connects"));
            }
            client
                .ingest(TenantId(*tenant), events)
                .expect("leader ingest");
            match scenario.fault_after(i) {
                Some(Fault::Disconnect) => {
                    if let Some(f) = &follower {
                        f.disconnect_all();
                    }
                }
                Some(Fault::RotateJournal) => {
                    // A flush barrier forces every buffered batch through
                    // commit + the rotation check while the taps are live.
                    client.flush().expect("rotation flush");
                }
                Some(Fault::ColdRestart) if follower.take().is_some() => {
                    // Drop sealed the journals; the successor recovers
                    // from them (or re-snapshots when it keeps none).
                    follower = Some(
                        Follower::connect(&addr, follower_config()).expect("follower restarts"),
                    );
                }
                Some(Fault::ColdRestart) | None => {}
            }
        }
        let follower = follower.unwrap_or_else(|| {
            Follower::connect(&addr, follower_config()).expect("follower connects")
        });
        client.flush().expect("final flush");

        // The leader is quiescent now: replay its journals for the
        // per-shard target epochs and the from-scratch reference fits.
        let mut targets = Vec::with_capacity(n_shards);
        let mut references = Vec::with_capacity(n_shards);
        for shard in 0..n_shards {
            let journal = JournalConfig::new(&leader_dir).shard_path(shard);
            let restored =
                StreamSession::restore(config.clone(), &journal).expect("leader journal restores");
            let ds = restored.dataset().clone();
            let fresh = Fuser::fit(&config, &ds, ds.gold().expect("shard gold"))
                .expect("fresh fit succeeds");
            let scores = fresh.score_all(&ds).expect("fresh scoring");
            targets.push(restored.epoch());
            references.push((ds, scores));
        }
        await_catchup(&follower, &targets);
        let stats = follower.stats();
        assert_eq!(stats.applied_epochs(), targets, "applied == leader epochs");

        // In-process reads: every tenant's scores and decisions must be
        // bitwise the reference fit, filtered to the tenant's namespace.
        let follower = Arc::new(follower);
        let fserver =
            FollowerServer::bind("127.0.0.1:0", Arc::clone(&follower), ServerConfig::new())
                .expect("follower server binds");
        let faddr = fserver.local_addr().expect("follower addr").to_string();
        let (fhandle, fjoin) = spawn_follower(fserver).expect("follower server spawns");
        let mut reader = Client::connect(&faddr).expect("wire reader connects");
        for (tenant, _) in &scenario.stream.seeds {
            let shard = *tenant as usize % n_shards;
            let (ds, ref_scores) = &references[shard];
            let prefix = format!("{tenant}{NAMESPACE_SEP}");
            let expected: Vec<f64> = ds
                .triples()
                .filter(|t| ds.triple(*t).subject.starts_with(&prefix))
                .map(|t| ref_scores[t.index()])
                .collect();
            let local = follower
                .scores_at(TenantId(*tenant), targets[shard])
                .expect("in-process scores");
            let wire = reader
                .scores_at(TenantId(*tenant), targets[shard])
                .expect("wire scores");
            assert_eq!(local.len(), expected.len(), "tenant {tenant} triple count");
            for (i, ((a, b), c)) in local.iter().zip(&expected).zip(&wire).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "tenant {tenant}, local triple {i}: follower {a} vs leader fit {b}"
                );
                assert_eq!(a.to_bits(), c.to_bits(), "wire read diverged");
            }
            // At the leader's random threshold, which the follower
            // took from its snapshot or from its own journal.
            let decisions = follower
                .decisions(TenantId(*tenant))
                .expect("in-process decisions");
            let expected_decisions: Vec<bool> = expected.iter().map(|s| *s > threshold).collect();
            assert_eq!(decisions, expected_decisions, "tenant {tenant} decisions");
        }

        // Bounded staleness: demanding an epoch beyond the leader's head
        // fails typed and retryable, in process and over the wire.
        let (first_tenant, _) = scenario.stream.seeds[0];
        let too_new = targets[first_tenant as usize % n_shards] + 1_000;
        match follower.scores_at(TenantId(first_tenant), too_new) {
            Err(ReplicaError::Serve(ServeError::Stale {
                epoch, min_epoch, ..
            })) => {
                assert_eq!(epoch, targets[first_tenant as usize % n_shards]);
                assert_eq!(min_epoch, too_new);
            }
            other => panic!("expected STALE, got {other:?}"),
        }
        match reader.scores_at(TenantId(first_tenant), too_new) {
            Err(NetError::Remote { code, .. }) => {
                assert_eq!(code, ErrorCode::Stale);
                assert!(code.is_retryable());
            }
            other => panic!("expected wire STALE, got {other:?}"),
        }

        // The follower is read-only: writes bounce with a typed error.
        let some_events = &scenario.stream.messages[0].1;
        match reader
            .ingest(TenantId(first_tenant), some_events)
            .and_then(|_| reader.flush())
        {
            Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Forbidden),
            other => panic!("expected FORBIDDEN on follower write, got {other:?}"),
        }
        drop(reader);
        drop(client);

        fhandle.stop();
        fjoin
            .join()
            .expect("follower accept thread")
            .expect("follower stops");
        follower.shutdown();
        handle.stop();
        let stats = join
            .join()
            .expect("leader accept thread")
            .expect("leader stops");
        assert_eq!(stats.aggregate().ingest_errors, 0);
        std::fs::remove_dir_all(&case_dir).ok();
    });
    std::fs::remove_dir_all(&dir).ok();
}

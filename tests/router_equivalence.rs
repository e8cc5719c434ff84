//! The serving subsystem's trust anchor, as a property over random
//! multi-tenant event streams: for any shard count, backpressure policy
//! and fsync policy, with mid-run journal rotations, the routed,
//! micro-batched, compacted ingestion path yields per-shard scores
//! **bitwise identical** to a from-scratch `Fuser::fit + score_all` on
//! each shard's accumulated dataset — and each shard's rotated journal
//! restores to exactly that state.

use std::time::Duration;

use corrfuse::core::fuser::{Fuser, FuserConfig, Method};
use corrfuse::core::testkit::{run_cases, Gen};
use corrfuse::serve::{
    Backpressure, JournalConfig, RouterConfig, ServeError, ShardRouter, TenantId,
};
use corrfuse::stream::{FsyncPolicy, StreamSession};
use corrfuse::synth::{multi_tenant_events, MultiTenantSpec};

fn random_method(g: &mut Gen) -> Method {
    match g.usize_in(0, 3) {
        0 => Method::PrecRec,
        1 => Method::Exact,
        2 => Method::Aggressive,
        _ => Method::Elastic(g.usize_in(0, 2)),
    }
}

fn random_backpressure(g: &mut Gen) -> Backpressure {
    match g.usize_in(0, 2) {
        0 => Backpressure::Block,
        1 => Backpressure::Reject,
        _ => Backpressure::Timeout(Duration::from_millis(g.usize_in(1, 20) as u64)),
    }
}

fn random_fsync(g: &mut Gen) -> FsyncPolicy {
    match g.usize_in(0, 2) {
        0 => FsyncPolicy::Always,
        1 => FsyncPolicy::EveryBatch,
        _ => FsyncPolicy::Never,
    }
}

#[test]
fn routed_shards_equal_batch_fit_on_random_multi_tenant_streams() {
    let dir = std::env::temp_dir().join(format!("corrfuse-router-eq-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    run_cases("router_equivalence", 6, |g| {
        let case_dir = dir.join(format!("case-{}", g.usize_in(0, usize::MAX / 2)));
        std::fs::create_dir_all(&case_dir).unwrap();
        let n_tenants = g.usize_in(2, 5);
        let spec = MultiTenantSpec {
            n_tenants,
            triples_largest: g.usize_in(80, 140),
            skew: g.f64_in(0.0, 1.5),
            n_sources: g.usize_in(3, 5),
            batches_largest: g.usize_in(3, 6),
            label_fraction: g.f64_in(0.0, 0.6),
            seed: g.usize_in(0, usize::MAX / 2) as u64,
        };
        let s = multi_tenant_events(&spec).expect("stream generation succeeds");
        let config = FuserConfig::new(random_method(g));
        // Any shard count up to one-per-tenant; dense ids keep every
        // shard seeded under modulo routing.
        let n_shards = g.usize_in(1, n_tenants);
        // With single-message batches every shard sees one ingest batch
        // per message, so any rotate-every-1..3 trigger fires; merged
        // batching can coalesce a shard's whole backlog, so only
        // rotate-every-1 is guaranteed to fire there.
        let (batch_events, rotate_batches) = if g.bool(0.5) {
            (1, g.usize_in(1, 3) as u64)
        } else {
            (g.usize_in(32, 256), 1)
        };
        let router_cfg = RouterConfig::new(n_shards)
            .with_queue_capacity(g.usize_in(1, 64))
            .with_backpressure(random_backpressure(g))
            .with_batching(batch_events)
            .with_journal(
                JournalConfig::new(&case_dir)
                    .with_fsync(random_fsync(g))
                    .with_rotate_max_batches(rotate_batches),
            )
            .with_shard_threads(if g.bool(0.3) { 3 } else { 1 });
        let seeds = s
            .seeds
            .iter()
            .map(|(t, ds)| (TenantId(*t), ds.clone()))
            .collect();
        let router =
            ShardRouter::new(config.clone(), router_cfg, seeds).expect("router constructs");
        for (tenant, events) in &s.messages {
            // Under Reject/Timeout a full queue refuses the message;
            // retry until the worker catches up so the whole stream is
            // applied (what a real producer would do).
            loop {
                match router.ingest(TenantId(*tenant), events.clone()) {
                    Ok(()) => break,
                    Err(ServeError::Backpressure { .. }) => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("unexpected ingest error: {e}"),
                }
            }
        }
        router.flush().expect("flush succeeds");

        let mut snapshots = Vec::new();
        for shard in 0..router.n_shards() {
            let snap = router.shard_snapshot(shard).expect("snapshot");
            let fresh = Fuser::fit(
                &config,
                &snap.dataset,
                snap.dataset.gold().expect("shard seeds carry gold"),
            )
            .expect("fresh fit succeeds");
            let scores = fresh.score_all(&snap.dataset).expect("fresh scoring");
            assert_eq!(snap.scores.len(), scores.len(), "shard {shard}");
            for (i, (a, b)) in snap.scores.iter().zip(&scores).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "shard {shard}, triple {i}: routed {a} vs batch {b}"
                );
            }
            snapshots.push(snap);
        }
        let stats = router.shutdown().expect("graceful shutdown");
        let agg = stats.aggregate();
        assert_eq!(agg.ingest_errors, 0, "{:?}", agg.last_error);
        assert!(
            agg.rotations > 0,
            "acceptance requires at least one mid-run journal rotation"
        );
        // The rotated, sealed journals restore every shard bit-for-bit.
        for snap in snapshots {
            let restored = StreamSession::restore(
                config.clone(),
                snap.journal_path.as_ref().expect("journaling enabled"),
            )
            .expect("journal restores");
            assert_eq!(restored.dataset().n_triples(), snap.dataset.n_triples());
            for (i, (a, b)) in restored.scores().iter().zip(&snap.scores).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "shard {}, triple {i}: restored {a} vs live {b}",
                    snap.shard
                );
            }
        }
        std::fs::remove_dir_all(&case_dir).ok();
    });
    std::fs::remove_dir_all(&dir).ok();
}

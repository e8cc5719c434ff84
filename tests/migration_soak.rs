//! Migration soak: bounce a tenant back and forth between two shards
//! many times, with co-tenant ingest interleaved between every hop, and
//! assert the tenant ends bitwise identical to a never-migrated twin.
//! Repeated round trips are the adversarial part — every hop replays
//! the tenant through translation on a shard that already holds a stale
//! residue of it from the previous visit, so idempotent replay and
//! prefix-consistent residual maps get exercised dozens of times.
//!
//! Set `CORRFUSE_QUICK=1` to run a shortened schedule (CI smoke tier).

use corrfuse::core::engine::ScoringEngine;
use corrfuse::core::fuser::{FuserConfig, Method};
use corrfuse::serve::{RouterConfig, ShardRouter, TenantId};
use corrfuse::stream::StreamSession;
use corrfuse::synth::{multi_tenant_events, MultiTenantSpec};

#[test]
fn repeated_migrations_stay_bitwise_stable() {
    let quick = std::env::var("CORRFUSE_QUICK").is_ok();
    let hops = if quick { 6 } else { 40 };
    let s = multi_tenant_events(&MultiTenantSpec::new(3, 110, 41)).unwrap();
    let config = FuserConfig::new(Method::PrecRec).with_alpha(0.5);
    let seeds = s
        .seeds
        .iter()
        .map(|(t, ds)| (TenantId(*t), ds.clone()))
        .collect();
    let router = ShardRouter::new(
        config.clone(),
        RouterConfig::new(2).with_batching(16),
        seeds,
    )
    .unwrap();
    let mut twins: Vec<StreamSession> = s
        .seeds
        .iter()
        .map(|(_, ds)| {
            StreamSession::with_engine(config.clone(), ds.clone(), ScoringEngine::serial()).unwrap()
        })
        .collect();
    let hot = TenantId(0);
    let home = router.shard_of(hot);

    // Interleave: a slice of the workload, then a hop, repeatedly,
    // wrapping around the message list so ingest never dries up.
    let per_hop = (s.messages.len() / hops).max(1);
    let mut next = 0usize;
    for hop in 0..hops {
        for _ in 0..per_hop {
            if next < s.messages.len() {
                let (tenant, events) = &s.messages[next];
                router.ingest(TenantId(*tenant), events.clone()).unwrap();
                twins[*tenant as usize].ingest(events).unwrap();
                next += 1;
            }
        }
        let from = router.shard_of(hot);
        let to = (from + 1) % 2;
        let report = router.migrate_tenant(hot, to).unwrap();
        assert_eq!(report.from, from, "hop {hop}");
        assert_eq!(report.to, to, "hop {hop}");
        assert_eq!(router.shard_of(hot), to, "hop {hop}");
    }
    for (tenant, events) in &s.messages[next..] {
        router.ingest(TenantId(*tenant), events.clone()).unwrap();
        twins[*tenant as usize].ingest(events).unwrap();
    }
    router.flush().unwrap();

    for (tenant, _) in &s.seeds {
        let tenant = TenantId(*tenant);
        let served = router.scores(tenant).unwrap();
        let twin = &twins[tenant.0 as usize];
        assert_eq!(served.len(), twin.scores().len(), "tenant {tenant}");
        for (i, (a, b)) in served.iter().zip(twin.scores()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "tenant {tenant}, triple {i} after {hops} hops: {a} vs {b}"
            );
        }
        assert_eq!(router.decisions(tenant).unwrap(), twin.decisions());
    }
    // An even number of hops returns the tenant home; odd leaves it on
    // the neighbour. Either way the counters balance exactly.
    assert_eq!(router.shard_of(hot), (home + hops) % 2);
    let agg = router.stats().aggregate();
    assert_eq!(agg.migrations_in, hops as u64);
    assert_eq!(agg.migrations_out, hops as u64);
    assert_eq!(agg.migrations_failed, 0);
    let stats = router.shutdown().unwrap();
    assert_eq!(stats.aggregate().ingest_errors, 0);
}

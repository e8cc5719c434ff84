//! Property tests pinning `TenantMap` slice extraction — the foundation
//! live migration is built on. A tenant's slice, replayed standalone
//! from an empty dataset, must reconstruct exactly the tenant's view of
//! the merged shard: same triples in the same tenant-local order, same
//! claims, same labels, and therefore (under a pinned prior) bitwise
//! identical scores.

use corrfuse_core::dataset::{Dataset, DatasetBuilder};
use corrfuse_core::fuser::{Fuser, FuserConfig, Method};
use corrfuse_core::testkit::run_cases;
use corrfuse_serve::{RouterConfig, ShardRouter, TenantId};
use corrfuse_stream::replay;
use corrfuse_synth::{multi_tenant_events, MultiTenantSpec, MultiTenantStream};

fn seeds_of(s: &MultiTenantStream) -> Vec<(TenantId, Dataset)> {
    s.seeds
        .iter()
        .map(|(t, ds)| (TenantId(*t), ds.clone()))
        .collect()
}

/// Score the tenant's standalone replay of its own slice: accumulate
/// the events over an empty dataset, then run a from-scratch fit — the
/// same trust anchor the shard itself is pinned to.
fn standalone_scores(config: &FuserConfig, slice: &[corrfuse_stream::Event]) -> Vec<f64> {
    let empty = DatasetBuilder::new().build().unwrap();
    let ds = replay::accumulate(&empty, slice).unwrap();
    let fuser = Fuser::fit(config, &ds, ds.gold().unwrap()).unwrap();
    fuser.score_all(&ds).unwrap()
}

/// For every tenant sharing a shard with others, the extracted slice
/// replays standalone to bitwise the same scores the router serves —
/// namespacing loses nothing and leaks nothing. The pinned alpha keeps
/// co-tenants statistically decoupled so the comparison is exact.
#[test]
fn slice_replays_standalone_to_the_served_scores() {
    run_cases("serve_slice_standalone", 4, |g| {
        let n_tenants = g.usize_in(2, 6);
        let n_shards = g.usize_in(1, 3);
        let seed = g.u64_below(1 << 32);
        let s = multi_tenant_events(&MultiTenantSpec::new(n_tenants, 100, seed)).unwrap();
        let config = FuserConfig::new(Method::PrecRec).with_alpha(0.5);
        let router = ShardRouter::new(
            config.clone(),
            RouterConfig::new(n_shards).with_batching(32),
            seeds_of(&s),
        )
        .unwrap();
        for (tenant, events) in &s.messages {
            router.ingest(TenantId(*tenant), events.clone()).unwrap();
        }
        router.flush().unwrap();
        for (tenant, _) in &s.seeds {
            let tenant = TenantId(*tenant);
            let slice = router.tenant_slice(tenant).unwrap();
            let standalone = standalone_scores(&config, &slice);
            let served = router.scores(tenant).unwrap();
            assert_eq!(standalone.len(), served.len(), "tenant {tenant}");
            for (i, (a, b)) in standalone.iter().zip(&served).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "tenant {tenant}, triple {i}: standalone {a} vs served {b}"
                );
            }
        }
        router.shutdown().unwrap();
    });
}

/// Slice extraction survives migration: after a tenant moves shards
/// (its state now reconstructed on the target via translated replay),
/// the slice taken from the *target* still replays standalone to the
/// served scores — translation records every id and domain allocation
/// the next extraction needs.
#[test]
fn slice_extraction_survives_migration() {
    run_cases("serve_slice_after_migration", 3, |g| {
        let n_tenants = g.usize_in(2, 5);
        let seed = g.u64_below(1 << 32);
        let s = multi_tenant_events(&MultiTenantSpec::new(n_tenants, 80, seed)).unwrap();
        let config = FuserConfig::new(Method::PrecRec).with_alpha(0.5);
        let router = ShardRouter::new(
            config.clone(),
            RouterConfig::new(2).with_batching(32),
            seeds_of(&s),
        )
        .unwrap();
        // Ingest the first half, migrate a random tenant, ingest the rest.
        let half = s.messages.len() / 2;
        for (tenant, events) in &s.messages[..half] {
            router.ingest(TenantId(*tenant), events.clone()).unwrap();
        }
        let mover = TenantId(g.usize_in(0, n_tenants) as u32);
        let target = (router.shard_of(mover) + 1) % 2;
        router.migrate_tenant(mover, target).unwrap();
        assert_eq!(router.shard_of(mover), target);
        for (tenant, events) in &s.messages[half..] {
            router.ingest(TenantId(*tenant), events.clone()).unwrap();
        }
        router.flush().unwrap();
        for (tenant, _) in &s.seeds {
            let tenant = TenantId(*tenant);
            let slice = router.tenant_slice(tenant).unwrap();
            let standalone = standalone_scores(&config, &slice);
            let served = router.scores(tenant).unwrap();
            for (i, (a, b)) in standalone.iter().zip(&served).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "tenant {tenant}, triple {i}: standalone {a} vs served {b}"
                );
            }
        }
        router.shutdown().unwrap();
    });
}

//! Live tenant migration walkthrough: move a tenant between shards
//! with no ingest downtime, watch the migration ledger, survive a
//! chaos-aborted attempt, and let the queue-depth-driven rebalancer
//! plan the next moves.
//!
//! Run with: `cargo run --example tenant_migration`

use corrfuse::core::fuser::{FuserConfig, Method};
use corrfuse::serve::{
    load_routes, JournalConfig, MigrationStage, RebalancePolicy, RouterConfig, ShardRouter,
    TenantId,
};
use corrfuse::synth::{multi_tenant_events, MultiTenantSpec};

fn main() {
    // Three tenants over two shards; tenant 0 (the largest under the
    // default skew) is the one we'll move.
    let stream = multi_tenant_events(&MultiTenantSpec::new(3, 200, 7)).expect("workload");
    let dir = std::env::temp_dir().join("corrfuse-migration-example");
    std::fs::remove_dir_all(&dir).ok();
    let config = FuserConfig::new(Method::PrecRec).with_alpha(0.5);
    let router = ShardRouter::new(
        config,
        RouterConfig::new(2)
            .with_batching(32)
            .with_journal(JournalConfig::new(&dir).with_rotate_max_batches(8)),
        stream
            .seeds
            .iter()
            .map(|(t, ds)| (TenantId(*t), ds.clone()))
            .collect(),
    )
    .expect("router constructs");

    let hot = TenantId(0);
    let half = stream.messages.len() / 2;
    for (tenant, events) in &stream.messages[..half] {
        router
            .ingest(TenantId(*tenant), events.clone())
            .expect("ingest");
    }
    let before = router.scores(hot).expect("tenant served");
    println!(
        "tenant {hot}: {} triples on shard {}",
        before.len(),
        router.shard_of(hot)
    );

    // A chaos-aborted attempt first: the crash hook kills the migration
    // right before commit. The rollback is total — the tenant never
    // leaves its source shard, and no route is persisted for a restart
    // to trip over.
    let target = (router.shard_of(hot) + 1) % 2;
    let err = router
        .migrate_tenant_chaos(hot, target, MigrationStage::CutOver)
        .expect_err("chaos abort");
    println!("\nchaos attempt: {err}");
    println!(
        "after rollback: still on shard {}, persisted routes: {:?}",
        router.shard_of(hot),
        load_routes(&dir).expect("routes readable"),
    );

    // The real move. The source keeps serving during the bulk replay;
    // ingest arriving inside the cut-over window is buffered and
    // re-applied on the target before the route flips at the epoch
    // fence, so reads never go backwards.
    let report = router.migrate_tenant(hot, target).expect("migration");
    println!(
        "\nmigrated {hot}: shard {} -> {} at epoch fence {}, \
         {} bulk + {} delta events, {} messages buffered in the window",
        report.from,
        report.to,
        report.fence,
        report.bulk_events,
        report.delta_events,
        report.buffered_messages,
    );
    println!(
        "persisted route: {:?}",
        load_routes(&dir).expect("routes readable")
    );

    // No downtime: the second half of the workload flows straight
    // through, now routed to the new home.
    for (tenant, events) in &stream.messages[half..] {
        router
            .ingest(TenantId(*tenant), events.clone())
            .expect("ingest");
    }
    router.flush().expect("drained");
    let after = router.scores(hot).expect("tenant served");
    println!(
        "tenant {hot}: {} triples now on shard {}",
        after.len(),
        router.shard_of(hot)
    );

    // The migration ledger, per shard and in aggregate.
    let stats = router.stats();
    let agg = stats.aggregate();
    println!("\n== migration ledger ==");
    for s in &stats.shards {
        println!(
            "shard {}: {} in, {} out, {} failed",
            s.shard, s.migrations_in, s.migrations_out, s.migrations_failed
        );
    }
    println!(
        "totals: {} in, {} out, {} failed",
        agg.migrations_in, agg.migrations_out, agg.migrations_failed
    );

    // The rebalancer reads the same stats: thread autosizing for hot
    // shards, and a migrate-when-hot plan once the imbalance is real.
    let policy = RebalancePolicy::new()
        .with_hot_high_water(4)
        .with_max_shard_threads(4)
        .with_migrate_min_imbalance(8);
    let actions = router.rebalance(&policy).expect("rebalance pass");
    println!("\nrebalancer actions: {actions:?}");

    router.shutdown().expect("graceful shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

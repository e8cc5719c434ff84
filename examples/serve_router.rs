//! Serving-layer walkthrough: route three tenants across two shards
//! with an async front door, journaling with rotation, live stats, and
//! a crash-recovery finale.
//!
//! Run with: `cargo run --example serve_router`

use corrfuse::core::fuser::{FuserConfig, Method};
use corrfuse::serve::{JournalConfig, RouterConfig, ShardRouter, TenantId};
use corrfuse::stream::{FsyncPolicy, StreamSession};
use corrfuse::synth::{multi_tenant_events, MultiTenantSpec};

fn main() {
    // A skewed three-tenant world: tenant 0 is heavy, 1 and 2 are light.
    // Each tenant's stream is self-contained, with tenant-local ids —
    // exactly what an ingestion API would receive from separate users.
    let spec = MultiTenantSpec::new(3, 240, 2024);
    let stream = multi_tenant_events(&spec).expect("workload generates");
    println!(
        "workload    : {} tenants, {} interleaved messages, {} events",
        stream.seeds.len(),
        stream.messages.len(),
        stream.n_events()
    );

    let dir = std::env::temp_dir().join("corrfuse-serve-example");
    std::fs::remove_dir_all(&dir).ok();

    // Two shards: tenants 0 and 2 share shard 0, tenant 1 gets shard 1.
    // Journals rotate (compact to a fresh snapshot) every 4 batches; the
    // journal is each shard's durable history.
    let config = FuserConfig::new(Method::Exact);
    let router = ShardRouter::new(
        config.clone(),
        RouterConfig::new(2).with_batching(64).with_journal(
            JournalConfig::new(&dir)
                .with_fsync(FsyncPolicy::EveryBatch)
                .with_rotate_max_batches(4),
        ),
        stream
            .seeds
            .iter()
            .map(|(t, ds)| (TenantId(*t), ds.clone()))
            .collect(),
    )
    .expect("router constructs");
    for (tenant, seed) in &stream.seeds {
        println!(
            "  tenant {tenant}: {} seed triples -> shard {}",
            seed.n_triples(),
            router.shard_of(TenantId(*tenant))
        );
    }

    // The front door: enqueue and return. Producers never wait for a
    // refit; the shard workers batch, translate and ingest behind it.
    for (tenant, events) in &stream.messages {
        router
            .ingest(TenantId(*tenant), events.clone())
            .expect("message accepted");
    }
    router.flush().expect("drained"); // read-your-writes barrier

    println!("\n== per-shard stats ==");
    let stats = router.stats();
    for s in &stats.shards {
        println!(
            "shard {}: {} tenants, {} msgs -> {} batches (mean {:.1} ev/batch), \
             {} rescored, {} flips, {} rotations, journal {} B, \
             pattern {:.0}% hits, max queue depth {}",
            s.shard,
            s.tenants,
            s.processed_messages,
            s.batches,
            s.mean_batch_events(),
            s.rescored,
            s.flips,
            s.rotations,
            s.journal_bytes.unwrap_or(0),
            100.0 * s.score_cache.hit_rate(),
            s.max_queue_depth,
        );
    }
    let agg = stats.aggregate();
    println!(
        "aggregate: {} events in {} batches, mean ingest {:.1} µs/batch",
        agg.ingested_events,
        agg.batches,
        agg.mean_ingest_ns() / 1_000.0,
    );

    // Per-tenant reads come back in tenant-local id order.
    println!("\n== tenant queries ==");
    for (tenant, _) in &stream.seeds {
        let decisions = router.decisions(TenantId(*tenant)).expect("tenant known");
        let accepted = decisions.iter().filter(|&&d| d).count();
        println!(
            "tenant {tenant}: {} triples, {accepted} accepted at threshold {}",
            decisions.len(),
            router.config().threshold,
        );
    }

    // Graceful shutdown: drain queues, seal journals, join workers.
    let shard0_journal = dir.join("shard-0.journal");
    router.shutdown().expect("graceful shutdown");

    // The sealed, rotated journal restores the shard bit-for-bit; the
    // crash-tolerant path also survives a torn tail (here: none).
    let (restored, report) = StreamSession::recover(config, &shard0_journal, FsyncPolicy::Never)
        .expect("journal recovers");
    println!(
        "\nrestored shard 0 from its journal: {} triples, {} batches replayed, torn tail: {}",
        restored.dataset().n_triples(),
        report.batches_replayed,
        report.torn,
    );
    std::fs::remove_dir_all(&dir).ok();
}

//! Per-shard and aggregate serving statistics.

use corrfuse_core::cluster::LiftGraphStats;
use corrfuse_core::joint::{CacheStats, JointDeltaStats};

/// A point-in-time snapshot of one shard's counters.
///
/// Producer-side counters (`enqueued_messages`, `rejected_messages`) are
/// maintained by the router front door; everything else is maintained by
/// the shard worker under its core lock, so a snapshot never shows a
/// half-applied batch.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Tenants hosted (seeded + joined mid-run).
    pub tenants: usize,
    /// Messages accepted into the queue.
    pub enqueued_messages: u64,
    /// Messages refused by backpressure (`Reject` / `Timeout`).
    pub rejected_messages: u64,
    /// Messages applied by the worker.
    pub processed_messages: u64,
    /// Translated events ingested into the shard session.
    pub ingested_events: u64,
    /// `StreamSession::ingest` calls (micro-batches).
    pub batches: u64,
    /// Micro-batches that coalesced more than one queued message.
    pub merged_batches: u64,
    /// Messages dropped: failed translation or ingest, or a poisoned shard.
    pub ingest_errors: u64,
    /// Human-readable description of the most recent error.
    pub last_error: Option<String>,
    /// A post-validation error left the shard session in an undefined
    /// state: it stopped applying messages, and ingest/queries against
    /// it fail with the typed `ServeError::ShardPoisoned` (protocol
    /// error `SHARD_POISONED` over the wire). The last consistent state
    /// stays readable via `ShardRouter::shard_snapshot`; rebuild the
    /// shard from its journal to recover.
    pub poisoned: bool,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Queue high-water mark since start.
    pub max_queue_depth: usize,
    /// Largest single micro-batch, in events.
    pub max_batch_events: u64,
    /// Total wall time spent inside `ingest`, in nanoseconds.
    pub total_ingest_ns: u64,
    /// Slowest single micro-batch, in nanoseconds.
    pub max_ingest_ns: u64,
    /// `total_ingest_ns` attributed to fast-path batches
    /// (`RefitLevel::None`). The four `ingest_ns_*` counters partition
    /// `total_ingest_ns`, so slow ingests are attributable to their
    /// refit level without enabling span tracing.
    pub ingest_ns_none: u64,
    /// `total_ingest_ns` attributed to `RefitLevel::Model` batches.
    pub ingest_ns_model: u64,
    /// `total_ingest_ns` attributed to `RefitLevel::Cluster` batches.
    pub ingest_ns_cluster: u64,
    /// `total_ingest_ns` attributed to `RefitLevel::Full` batches.
    pub ingest_ns_full: u64,
    /// Triples re-scored across all batches.
    pub rescored: u64,
    /// Decision flips across all batches.
    pub flips: u64,
    /// Batches that refreshed the quality model from maintained counters
    /// (`RefitLevel::Model`). Batches minus the three refit counters is
    /// the fast path (`RefitLevel::None`).
    pub refit_model: u64,
    /// Batches that re-derived the data-driven clustering from the
    /// maintained lift graph and refitted only changed clusters
    /// (`RefitLevel::Cluster`).
    pub refit_cluster: u64,
    /// Batches that fell back to a full `Fuser::fit`
    /// (`RefitLevel::Full`; source-set changes).
    pub refit_full: u64,
    /// Cluster units kept across `Cluster`-level re-clusterings (their
    /// joints were maintained incrementally all along).
    pub cluster_units_reused: u64,
    /// Cluster units refitted because re-clustering changed their
    /// membership.
    pub cluster_units_rebuilt: u64,
    /// Joint-rate memo counters of the shard session's cluster joints.
    pub joint_cache: CacheStats,
    /// Incremental-maintenance counters of the cluster joints: row
    /// deltas absorbed in place vs. full row rescans paid. A healthy
    /// shard shows `delta_rows` growing while `rescans` trails the
    /// number of distinct subsets queried. Counters restart when a full
    /// refit rebuilds the joints.
    pub joint_delta: JointDeltaStats,
    /// Lift-graph occupancy of the shard session: exact pairs tracked
    /// in the sparse graph, and candidate pairs the sketch tier declined
    /// to admit. Zero unless the shard's clustering is data-driven.
    /// Serve-side only — the fixed-width STATS wire records predate
    /// these counters (see docs/PROTOCOL.md).
    pub lift: LiftGraphStats,
    /// Journal rotations (compactions) performed.
    pub rotations: u64,
    /// Current journal size in bytes, if journaling.
    pub journal_bytes: Option<u64>,
    /// Cumulative observation-pattern hit/miss counters of the shard
    /// session.
    pub score_cache: CacheStats,
    /// Triples accumulated in the shard session.
    pub n_triples: usize,
    /// Sources accumulated in the shard session.
    pub n_sources: usize,
    /// The shard's replication epoch: batches committed into the shard
    /// session since start (one increment per applied micro-batch).
    /// Surfaced over the wire as the `serve_epoch_shard_<i>` METRICS
    /// gauge. Aggregates as a **maximum** — summing epochs across
    /// independent shards would be meaningless.
    pub epoch: u64,
    /// Highest epoch any replication follower has acknowledged applying
    /// for this shard (0 before the first ack; monotonic). `epoch -
    /// replica_acked_epoch` is the shard's replication lag in batches;
    /// surfaced as `replica_applied_epoch_shard_<i>` /
    /// `replica_lag_batches`. Aggregates as a maximum, like `epoch`.
    pub replica_acked_epoch: u64,
    /// Live replication subscriber queues on this shard's tap (0 when
    /// replication is disabled). Sums across shards.
    pub replica_subscribers: usize,
    /// Live migrations committed **into** this shard: tenants it gained.
    pub migrations_in: u64,
    /// Live migrations committed **out of** this shard: tenants it
    /// handed off (it may retain an inert namespaced residue of them;
    /// see `crate::migration`).
    pub migrations_out: u64,
    /// Migrations that failed and rolled back with this shard as the
    /// source — the tenant stayed here, unchanged.
    pub migrations_failed: u64,
    /// Scoring threads the shard session's engine is currently sized to
    /// (resized live by `crate::migration::RebalancePolicy` autosizing;
    /// bitwise-neutral). Sums across shards: the router's total scoring
    /// parallelism.
    pub scoring_threads: usize,
}

impl ShardStats {
    /// Mean events per micro-batch.
    pub fn mean_batch_events(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.ingested_events as f64 / self.batches as f64
        }
    }

    /// Mean `ingest` wall time per micro-batch, in nanoseconds.
    pub fn mean_ingest_ns(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.total_ingest_ns as f64 / self.batches as f64
        }
    }
}

/// One shard's queue pressure, preserved through aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardQueueStat {
    /// Shard index.
    pub shard: usize,
    /// Queue depth at snapshot time.
    pub depth: usize,
    /// Queue high-water mark since start.
    pub high_water: usize,
}

/// One shard's migration traffic, preserved through aggregation: the
/// summed totals say how many migrations happened, but rebalancing
/// diagnostics need to know *which* shards are shedding or absorbing
/// tenants and where rollbacks cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMigrationStat {
    /// Shard index.
    pub shard: usize,
    /// Migrations committed into this shard.
    pub migrations_in: u64,
    /// Migrations committed out of this shard.
    pub migrations_out: u64,
    /// Migrations rolled back with this shard as the source.
    pub migrations_failed: u64,
}

/// Aggregated router counters plus the per-shard queue detail that a
/// single summed/maxed row cannot carry.
///
/// The workspace-wide maxima in [`RouterAggregate::totals`] say *how
/// hot* the hottest queue got but not *which* shard it was, or whether
/// the pressure was one skewed shard or uniform load —
/// [`RouterAggregate::queue`] keeps that, as groundwork for
/// queue-depth-driven rebalancing (ROADMAP item 4). Migration counters
/// have the same shape ([`RouterAggregate::migrations`]): a summed
/// `migrations_in` cannot say which shard is absorbing the fleet.
///
/// Derefs to [`ShardStats`] (the totals row), so existing callers of
/// [`RouterStats::aggregate`] keep reading summed counters field-for-
/// field unchanged.
#[derive(Debug, Clone)]
pub struct RouterAggregate {
    /// Summed/maxed counters across shards (`shard` holds the shard
    /// count; see [`RouterStats::aggregate`] for the folding rules).
    pub totals: ShardStats,
    /// Per-shard queue depth and high-water mark, in shard order.
    pub queue: Vec<ShardQueueStat>,
    /// Per-shard migration traffic, in shard order.
    pub migrations: Vec<ShardMigrationStat>,
}

impl std::ops::Deref for RouterAggregate {
    type Target = ShardStats;

    fn deref(&self) -> &ShardStats {
        &self.totals
    }
}

impl RouterAggregate {
    /// The shard whose queue high-water mark is largest (ties resolve
    /// to the lowest shard index); `None` with no shards.
    pub fn hottest_shard(&self) -> Option<ShardQueueStat> {
        self.queue
            .iter()
            .copied()
            .max_by(|a, b| a.high_water.cmp(&b.high_water).then(b.shard.cmp(&a.shard)))
    }
}

/// Stats for every shard plus aggregate views.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
}

impl RouterStats {
    /// Fold the per-shard counters into one aggregate row, keeping the
    /// per-shard queue detail alongside. In the totals, `shard` is the
    /// shard count, `queue_depth`/`max_queue_depth`/`epoch`/
    /// `replica_acked_epoch` are maxima, `last_error` is the first one
    /// found; everything else sums.
    pub fn aggregate(&self) -> RouterAggregate {
        let mut agg = ShardStats {
            shard: self.shards.len(),
            ..ShardStats::default()
        };
        let mut queue = Vec::with_capacity(self.shards.len());
        let mut migrations = Vec::with_capacity(self.shards.len());
        for s in &self.shards {
            queue.push(ShardQueueStat {
                shard: s.shard,
                depth: s.queue_depth,
                high_water: s.max_queue_depth,
            });
            migrations.push(ShardMigrationStat {
                shard: s.shard,
                migrations_in: s.migrations_in,
                migrations_out: s.migrations_out,
                migrations_failed: s.migrations_failed,
            });
            agg.tenants += s.tenants;
            agg.enqueued_messages += s.enqueued_messages;
            agg.rejected_messages += s.rejected_messages;
            agg.processed_messages += s.processed_messages;
            agg.ingested_events += s.ingested_events;
            agg.batches += s.batches;
            agg.merged_batches += s.merged_batches;
            agg.ingest_errors += s.ingest_errors;
            if agg.last_error.is_none() {
                agg.last_error.clone_from(&s.last_error);
            }
            agg.poisoned |= s.poisoned;
            agg.queue_depth = agg.queue_depth.max(s.queue_depth);
            agg.max_queue_depth = agg.max_queue_depth.max(s.max_queue_depth);
            agg.max_batch_events = agg.max_batch_events.max(s.max_batch_events);
            agg.total_ingest_ns += s.total_ingest_ns;
            agg.max_ingest_ns = agg.max_ingest_ns.max(s.max_ingest_ns);
            agg.ingest_ns_none += s.ingest_ns_none;
            agg.ingest_ns_model += s.ingest_ns_model;
            agg.ingest_ns_cluster += s.ingest_ns_cluster;
            agg.ingest_ns_full += s.ingest_ns_full;
            agg.rescored += s.rescored;
            agg.flips += s.flips;
            agg.refit_model += s.refit_model;
            agg.refit_cluster += s.refit_cluster;
            agg.refit_full += s.refit_full;
            agg.cluster_units_reused += s.cluster_units_reused;
            agg.cluster_units_rebuilt += s.cluster_units_rebuilt;
            agg.joint_cache = agg.joint_cache.merged(s.joint_cache);
            agg.joint_delta = agg.joint_delta.merged(s.joint_delta);
            agg.lift = agg.lift.merged(s.lift);
            agg.rotations += s.rotations;
            if let Some(b) = s.journal_bytes {
                *agg.journal_bytes.get_or_insert(0) += b;
            }
            agg.score_cache = agg.score_cache.merged(s.score_cache);
            agg.n_triples += s.n_triples;
            agg.n_sources += s.n_sources;
            agg.epoch = agg.epoch.max(s.epoch);
            agg.replica_acked_epoch = agg.replica_acked_epoch.max(s.replica_acked_epoch);
            agg.replica_subscribers += s.replica_subscribers;
            agg.migrations_in += s.migrations_in;
            agg.migrations_out += s.migrations_out;
            agg.migrations_failed += s.migrations_failed;
            agg.scoring_threads += s.scoring_threads;
        }
        RouterAggregate {
            totals: agg,
            queue,
            migrations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_sums_and_maxes() {
        let stats = RouterStats {
            shards: vec![
                ShardStats {
                    shard: 0,
                    tenants: 2,
                    enqueued_messages: 10,
                    processed_messages: 10,
                    ingested_events: 100,
                    batches: 4,
                    queue_depth: 1,
                    max_queue_depth: 5,
                    max_ingest_ns: 50,
                    total_ingest_ns: 100,
                    ingest_ns_none: 40,
                    ingest_ns_model: 50,
                    ingest_ns_cluster: 10,
                    journal_bytes: Some(1000),
                    refit_model: 2,
                    refit_cluster: 1,
                    cluster_units_reused: 3,
                    joint_delta: JointDeltaStats {
                        delta_rows: 7,
                        rescans: 2,
                        invalidations: 0,
                        memo_entries: 5,
                        memo_evictions: 1,
                    },
                    lift: LiftGraphStats {
                        pairs_exact: 4,
                        pairs_sketch_pruned: 10,
                    },
                    epoch: 9,
                    replica_acked_epoch: 7,
                    replica_subscribers: 2,
                    ..ShardStats::default()
                },
                ShardStats {
                    shard: 1,
                    tenants: 1,
                    enqueued_messages: 3,
                    processed_messages: 3,
                    ingested_events: 20,
                    batches: 1,
                    queue_depth: 4,
                    max_queue_depth: 4,
                    max_ingest_ns: 80,
                    total_ingest_ns: 80,
                    ingest_ns_model: 30,
                    ingest_ns_full: 50,
                    journal_bytes: Some(500),
                    last_error: Some("boom".into()),
                    refit_model: 1,
                    refit_full: 1,
                    cluster_units_rebuilt: 2,
                    joint_delta: JointDeltaStats {
                        delta_rows: 1,
                        rescans: 4,
                        invalidations: 1,
                        memo_entries: 3,
                        memo_evictions: 2,
                    },
                    lift: LiftGraphStats {
                        pairs_exact: 6,
                        pairs_sketch_pruned: 30,
                    },
                    epoch: 4,
                    replica_acked_epoch: 4,
                    replica_subscribers: 1,
                    ..ShardStats::default()
                },
            ],
        };
        let agg = stats.aggregate();
        assert_eq!(agg.shard, 2);
        assert_eq!(agg.tenants, 3);
        assert_eq!(agg.enqueued_messages, 13);
        assert_eq!(agg.ingested_events, 120);
        assert_eq!(agg.queue_depth, 4);
        assert_eq!(agg.max_queue_depth, 5);
        assert_eq!(agg.max_ingest_ns, 80);
        assert_eq!(
            (
                agg.ingest_ns_none,
                agg.ingest_ns_model,
                agg.ingest_ns_cluster,
                agg.ingest_ns_full
            ),
            (40, 80, 10, 50)
        );
        assert_eq!(agg.journal_bytes, Some(1500));
        assert_eq!(agg.last_error.as_deref(), Some("boom"));
        assert_eq!(
            (agg.refit_model, agg.refit_cluster, agg.refit_full),
            (3, 1, 1)
        );
        assert_eq!(agg.cluster_units_reused, 3);
        assert_eq!(agg.cluster_units_rebuilt, 2);
        assert_eq!(
            agg.joint_delta,
            JointDeltaStats {
                delta_rows: 8,
                rescans: 6,
                invalidations: 1,
                memo_entries: 8,
                memo_evictions: 3,
            }
        );
        assert_eq!(
            agg.lift,
            LiftGraphStats {
                pairs_exact: 10,
                pairs_sketch_pruned: 40,
            }
        );
        // Epochs fold as maxima (each shard counts its own stream);
        // subscriber counts sum.
        assert_eq!(agg.epoch, 9);
        assert_eq!(agg.replica_acked_epoch, 7);
        assert_eq!(agg.replica_subscribers, 3);
        assert!((agg.mean_batch_events() - 24.0).abs() < 1e-9);
        assert!((agg.mean_ingest_ns() - 36.0).abs() < 1e-9);
        assert_eq!(ShardStats::default().mean_batch_events(), 0.0);
        assert_eq!(ShardStats::default().mean_ingest_ns(), 0.0);

        // The aggregate keeps the per-shard queue detail the summed row
        // can't carry: shard 1 had the deeper standing queue, shard 0
        // the higher high-water mark.
        assert_eq!(
            agg.queue,
            vec![
                ShardQueueStat {
                    shard: 0,
                    depth: 1,
                    high_water: 5,
                },
                ShardQueueStat {
                    shard: 1,
                    depth: 4,
                    high_water: 4,
                },
            ]
        );
        assert_eq!(agg.hottest_shard().map(|q| q.shard), Some(0));
    }

    #[test]
    fn aggregate_keeps_per_shard_migration_detail() {
        // Same bug class as the queue high-water fix: summed totals
        // cannot say which shard sheds and which absorbs. Shard 0 sent
        // two tenants away (one attempt rolled back), shard 1 received
        // both; the flattened row would read 2/2/1 and lose direction.
        let stats = RouterStats {
            shards: vec![
                ShardStats {
                    shard: 0,
                    migrations_out: 2,
                    migrations_failed: 1,
                    scoring_threads: 1,
                    ..ShardStats::default()
                },
                ShardStats {
                    shard: 1,
                    migrations_in: 2,
                    scoring_threads: 3,
                    ..ShardStats::default()
                },
            ],
        };
        let agg = stats.aggregate();
        assert_eq!(
            (agg.migrations_in, agg.migrations_out, agg.migrations_failed),
            (2, 2, 1)
        );
        assert_eq!(agg.scoring_threads, 4);
        assert_eq!(
            agg.migrations,
            vec![
                ShardMigrationStat {
                    shard: 0,
                    migrations_in: 0,
                    migrations_out: 2,
                    migrations_failed: 1,
                },
                ShardMigrationStat {
                    shard: 1,
                    migrations_in: 2,
                    migrations_out: 0,
                    migrations_failed: 0,
                },
            ]
        );
    }

    #[test]
    fn hottest_shard_handles_edge_cases() {
        assert!(RouterStats::default().aggregate().hottest_shard().is_none());
        // Ties resolve to the lowest shard index.
        let tied = RouterStats {
            shards: vec![
                ShardStats {
                    shard: 0,
                    max_queue_depth: 7,
                    ..ShardStats::default()
                },
                ShardStats {
                    shard: 1,
                    max_queue_depth: 7,
                    ..ShardStats::default()
                },
            ],
        };
        assert_eq!(tied.aggregate().hottest_shard().map(|q| q.shard), Some(0));
    }
}

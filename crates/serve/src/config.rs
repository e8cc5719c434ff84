//! Router configuration: sharding, backpressure, micro-batch size,
//! journaling and rotation knobs.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use corrfuse_obs::Registry;
use corrfuse_stream::FsyncPolicy;

use crate::error::{Result, ServeError};

/// What a producer experiences when its shard's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block until the worker frees a slot (lossless, producer slows to
    /// the shard's pace).
    Block,
    /// Fail immediately with [`ServeError::Backpressure`]; the producer
    /// decides whether to retry, shed, or spill.
    Reject,
    /// Block up to the given duration, then fail with
    /// [`ServeError::Backpressure`].
    Timeout(Duration),
}

/// Per-shard journaling (durability) configuration.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding one `shard-<i>.journal` file per shard.
    pub dir: PathBuf,
    /// Durability policy for snapshot and batch writes.
    pub fsync: FsyncPolicy,
    /// Rotate (compact) a shard's journal once it exceeds this many
    /// bytes.
    pub rotate_max_bytes: Option<u64>,
    /// Rotate after this many appended batches since the last snapshot.
    pub rotate_max_batches: Option<u64>,
}

impl JournalConfig {
    /// Journal into `dir` with no fsyncing and no rotation.
    pub fn new(dir: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Never,
            rotate_max_bytes: None,
            rotate_max_batches: None,
        }
    }

    /// Set the durability policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> JournalConfig {
        self.fsync = fsync;
        self
    }

    /// Rotate once the journal file exceeds `bytes`.
    pub fn with_rotate_max_bytes(mut self, bytes: u64) -> JournalConfig {
        self.rotate_max_bytes = Some(bytes);
        self
    }

    /// Rotate after `batches` appended batches since the last snapshot.
    pub fn with_rotate_max_batches(mut self, batches: u64) -> JournalConfig {
        self.rotate_max_batches = Some(batches);
        self
    }

    /// The journal path of one shard.
    pub fn shard_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard}.journal"))
    }
}

/// Leader-side replication tap configuration.
///
/// The tap keeps, per shard, a bounded in-memory backlog of committed
/// batches (in the shared `corrfuse_stream::codec` text encoding, one
/// entry per epoch) plus a list of subscriber queues. A follower whose
/// requested resume epoch is still covered by the backlog gets the
/// missing suffix; one that has fallen further behind gets a fresh
/// dataset snapshot at the current epoch. Subscriber queues are pushed
/// with reject-on-full semantics: a follower that cannot keep up has its
/// queue closed and must resubscribe, so a slow follower can never stall
/// or bloat the leader.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Committed batches retained per shard for resume-from-epoch
    /// subscriptions. Followers behind by more than this bootstrap from
    /// a snapshot instead.
    pub backlog_batches: usize,
    /// Capacity of each subscriber's batch queue, in batches. A full
    /// queue disconnects that subscriber (it resubscribes and, if still
    /// behind the backlog, resnapshots).
    pub subscriber_capacity: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig::new()
    }
}

impl ReplicationConfig {
    /// Defaults: 1024-batch backlog per shard, 256-batch subscriber
    /// queues.
    pub fn new() -> ReplicationConfig {
        ReplicationConfig {
            backlog_batches: 1024,
            subscriber_capacity: 256,
        }
    }

    /// Set the per-shard resume backlog, in batches.
    pub fn with_backlog_batches(mut self, batches: usize) -> ReplicationConfig {
        self.backlog_batches = batches;
        self
    }

    /// Set each subscriber queue's capacity, in batches.
    pub fn with_subscriber_capacity(mut self, batches: usize) -> ReplicationConfig {
        self.subscriber_capacity = batches;
        self
    }
}

/// Full configuration of a [`crate::ShardRouter`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Number of shards (worker threads / sessions).
    pub n_shards: usize,
    /// Per-shard ingest queue capacity, in messages.
    pub queue_capacity: usize,
    /// Producer-side policy when a queue is full.
    pub backpressure: Backpressure,
    /// A worker stops adding already-queued messages to its micro-batch
    /// once the batch holds at least this many events; it never waits
    /// for more to arrive.
    pub max_batch_events: usize,
    /// Optional per-shard journaling (with rotation and fsync policy).
    pub journal: Option<JournalConfig>,
    /// Decision threshold for every shard session.
    pub threshold: f64,
    /// Scoring threads per shard session. Default 1: the shards
    /// themselves are the parallelism; raise it for few-shard deployments
    /// on wide machines.
    pub shard_threads: usize,
    /// Observability registry. When set, shard workers record queue
    /// wait, batch assembly, per-[`corrfuse_stream::RefitLevel`] refit,
    /// rescore, sketch and journal latencies into named histograms (see
    /// `docs/OBSERVABILITY.md`), push per-batch traces into the
    /// registry's trace ring, and each shard session runs with
    /// `FuserConfig::spans` on. `None` (the default) records nothing —
    /// no clock reads beyond the always-on per-ingest totals.
    pub metrics: Option<Arc<Registry>>,
    /// Leader-side replication tap. When set, every shard records its
    /// committed batches into a bounded backlog and accepts follower
    /// subscriptions via [`crate::ShardRouter::subscribe`]. `None` (the
    /// default) records nothing — no per-batch encoding cost.
    pub replication: Option<ReplicationConfig>,
}

impl RouterConfig {
    /// Defaults: bounded queue of 1024 messages, blocking backpressure,
    /// micro-batches of up to 256 events, no journaling, threshold 0.5,
    /// serial per-shard scoring.
    pub fn new(n_shards: usize) -> RouterConfig {
        RouterConfig {
            n_shards,
            queue_capacity: 1024,
            backpressure: Backpressure::Block,
            max_batch_events: 256,
            journal: None,
            threshold: 0.5,
            shard_threads: 1,
            metrics: None,
            replication: None,
        }
    }

    /// Set the queue capacity (messages).
    pub fn with_queue_capacity(mut self, capacity: usize) -> RouterConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Set the backpressure policy.
    pub fn with_backpressure(mut self, policy: Backpressure) -> RouterConfig {
        self.backpressure = policy;
        self
    }

    /// Set the micro-batch size bound, in events.
    pub fn with_batching(mut self, max_events: usize) -> RouterConfig {
        self.max_batch_events = max_events;
        self
    }

    /// Enable per-shard journaling.
    pub fn with_journal(mut self, journal: JournalConfig) -> RouterConfig {
        self.journal = Some(journal);
        self
    }

    /// Set the decision threshold.
    pub fn with_threshold(mut self, threshold: f64) -> RouterConfig {
        self.threshold = threshold;
        self
    }

    /// Set the per-shard scoring thread count.
    pub fn with_shard_threads(mut self, threads: usize) -> RouterConfig {
        self.shard_threads = threads;
        self
    }

    /// Record shard latencies and batch traces into `registry`.
    pub fn with_metrics(mut self, registry: Arc<Registry>) -> RouterConfig {
        self.metrics = Some(registry);
        self
    }

    /// Enable the leader-side replication tap.
    pub fn with_replication(mut self, replication: ReplicationConfig) -> RouterConfig {
        self.replication = Some(replication);
        self
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.n_shards == 0 {
            return Err(ServeError::InvalidConfig("n_shards must be >= 1"));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig("queue_capacity must be >= 1"));
        }
        if self.max_batch_events == 0 {
            return Err(ServeError::InvalidConfig("max_batch_events must be >= 1"));
        }
        if !(self.threshold.is_finite() && (0.0..=1.0).contains(&self.threshold)) {
            return Err(ServeError::InvalidConfig("threshold must be in [0, 1]"));
        }
        if let Some(r) = &self.replication {
            if r.subscriber_capacity == 0 {
                return Err(ServeError::InvalidConfig(
                    "replication subscriber_capacity must be >= 1",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(RouterConfig::new(4).validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(RouterConfig::new(0).validate().is_err());
        assert!(RouterConfig::new(1)
            .with_queue_capacity(0)
            .validate()
            .is_err());
        assert!(RouterConfig::new(1).with_batching(0).validate().is_err());
        assert!(RouterConfig::new(1).with_threshold(1.5).validate().is_err());
        assert!(RouterConfig::new(1)
            .with_threshold(f64::NAN)
            .validate()
            .is_err());
        assert!(RouterConfig::new(1)
            .with_replication(ReplicationConfig::new().with_subscriber_capacity(0))
            .validate()
            .is_err());
        assert!(
            RouterConfig::new(1)
                .with_replication(ReplicationConfig::new().with_backlog_batches(0))
                .validate()
                .is_ok(),
            "a zero backlog is legal: every resubscribe snapshots"
        );
    }

    #[test]
    fn journal_paths_are_per_shard() {
        let j = JournalConfig::new("/tmp/j")
            .with_fsync(FsyncPolicy::EveryBatch)
            .with_rotate_max_bytes(1 << 20)
            .with_rotate_max_batches(100);
        assert_eq!(j.shard_path(3), PathBuf::from("/tmp/j/shard-3.journal"));
        assert_eq!(j.fsync, FsyncPolicy::EveryBatch);
        assert_eq!(j.rotate_max_bytes, Some(1 << 20));
        assert_eq!(j.rotate_max_batches, Some(100));
    }
}

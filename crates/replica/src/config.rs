//! Follower configuration.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use corrfuse_core::fuser::FuserConfig;
use corrfuse_obs::Registry;
use corrfuse_stream::FsyncPolicy;

/// Configuration of a [`crate::Follower`].
///
/// The fuser configuration **must match the leader's** — the trust
/// anchor (follower scores bitwise identical to the leader at the same
/// epoch) holds because both sides run the same model over the same
/// accumulated dataset; a config mismatch silently breaks it. The
/// decision threshold is not configured here: each shard takes the
/// leader's from its snapshot, and after a cold restart from its own
/// journal, which recorded it.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// The fusion model configuration, identical to the leader's.
    pub fuser: FuserConfig,
    /// How long a bounded-staleness read (`min_epoch`) waits for the
    /// shard to catch up before answering with the retryable
    /// [`corrfuse_serve::ServeError::Stale`].
    pub catchup_timeout: Duration,
    /// Backoff before re-dialing a failed leader link; doubles per
    /// consecutive failure, capped at 20× the base, and resets on the
    /// first applied batch.
    pub reconnect_backoff: Duration,
    /// Follower-side durability: when set, each shard journals its
    /// applied state to `<dir>/shard-<i>.journal`, and a restarted
    /// follower recovers from those files and resubscribes from its
    /// applied epoch instead of re-bootstrapping a full snapshot.
    pub journal_dir: Option<PathBuf>,
    /// Durability policy for the follower-side journals.
    pub fsync: FsyncPolicy,
    /// Metrics registry: when set, the follower records the
    /// `replica_apply_ns` batch-apply histogram and the
    /// `replica_batches_applied` / `replica_resubscribes` /
    /// `replica_snapshots` counters (catalog in
    /// `docs/OBSERVABILITY.md`), and a [`crate::FollowerServer`] serving
    /// this follower includes the registry snapshot in `METRICS`.
    pub metrics: Option<Arc<Registry>>,
}

impl FollowerConfig {
    /// Defaults around `fuser`: 2 s catch-up timeout, 10 ms reconnect
    /// backoff, no journal, no metrics.
    pub fn new(fuser: FuserConfig) -> FollowerConfig {
        FollowerConfig {
            fuser,
            catchup_timeout: Duration::from_secs(2),
            reconnect_backoff: Duration::from_millis(10),
            journal_dir: None,
            fsync: FsyncPolicy::Never,
            metrics: None,
        }
    }

    /// Set the bounded-staleness catch-up timeout.
    pub fn with_catchup_timeout(mut self, timeout: Duration) -> FollowerConfig {
        self.catchup_timeout = timeout;
        self
    }

    /// Set the reconnect backoff base.
    pub fn with_reconnect_backoff(mut self, backoff: Duration) -> FollowerConfig {
        self.reconnect_backoff = backoff;
        self
    }

    /// Journal applied state under `dir` with the given durability
    /// policy (see [`FollowerConfig::journal_dir`]).
    pub fn with_journal_dir(
        mut self,
        dir: impl Into<PathBuf>,
        fsync: FsyncPolicy,
    ) -> FollowerConfig {
        self.journal_dir = Some(dir.into());
        self.fsync = fsync;
        self
    }

    /// Record replication metrics into `registry`.
    pub fn with_metrics(mut self, registry: Arc<Registry>) -> FollowerConfig {
        self.metrics = Some(registry);
        self
    }
}

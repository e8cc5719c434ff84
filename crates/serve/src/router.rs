//! [`ShardRouter`]: the multi-tenant front door.
//!
//! Construction partitions the seeded tenants across `n_shards` by
//! `tenant.0 % n_shards`, merges each shard's seeds into one namespaced
//! dataset, fits a [`StreamSession`] per shard and spawns its worker
//! thread. [`ShardRouter::ingest`] then routes tenant messages to the
//! owning shard's bounded queue and returns without waiting for the
//! refit — the configured [`crate::config::Backpressure`] policy decides
//! what happens when a shard falls behind.
//!
//! # Consistency model
//!
//! * Per shard, reads are snapshot-consistent: a worker applies a whole
//!   micro-batch under the shard lock, so [`ShardRouter::scores`] /
//!   [`ShardRouter::shard_snapshot`] observe batch boundaries only.
//! * Across shards there is no global ordering — shards are independent
//!   sessions by design.
//! * [`ShardRouter::flush`] waits until every message accepted so far
//!   has been applied, which makes read-your-writes explicit.
//! * [`ShardRouter::shutdown`] closes the queues, drains them, seals
//!   every journal and joins the workers.
//!
//! # Statistical coupling between co-tenants
//!
//! Sharing a shard session is *id-safe* (namespacing keeps sources,
//! triples and domains disjoint) but not *statistically inert*: the
//! empirical prior `alpha` is estimated over all of the shard's labels,
//! and data-driven clustering draws cluster boundaries over all of the
//! shard's sources. Pin `alpha` in the [`FuserConfig`] to decouple the
//! prior; give every tenant its own shard for full statistical
//! isolation. The per-shard trust anchor is unconditional either way:
//! each shard's scores are bitwise identical to a from-scratch
//! `Fuser::fit + score_all` on that shard's accumulated dataset.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

use corrfuse_core::dataset::{Dataset, DatasetBuilder, Domain};
use corrfuse_core::engine::ScoringEngine;
use corrfuse_core::error::{FusionError, Result as CoreResult};
use corrfuse_core::fuser::FuserConfig;
use corrfuse_stream::{Event, StreamSession};

use crate::config::RouterConfig;
use crate::error::{Result, ServeError};
use crate::migration::{
    extract_slice, store_routes, MigrationReport, MigrationStage, PersistedRoute, RebalanceAction,
    RebalancePolicy, RouteState,
};
use crate::queue::{PushError, Queue};
use crate::replica::{ReplicaTap, Subscription, SubscriptionStart};
use crate::shard::{
    run_worker, Msg, PoisonCell, Progress, ShardCore, ShardHandle, ShardSpans, WorkerParams,
};
use crate::stats::{RouterStats, ShardStats};
use crate::tenant::{scoped_source_name, scoped_triple, TenantId, TenantMap};

/// A snapshot-consistent copy of one shard's state.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// The shard's accumulated (namespaced) dataset.
    pub dataset: Dataset,
    /// Posterior per shard triple, in shard `TripleId` order.
    pub scores: Vec<f64>,
    /// Accept/reject decisions at the shard threshold.
    pub decisions: Vec<bool>,
    /// Tenants hosted by the shard, ascending.
    pub tenants: Vec<TenantId>,
    /// The shard's journal path, if journaling.
    pub journal_path: Option<PathBuf>,
    /// The shard's replication epoch at snapshot time: the number of
    /// batches committed into the shard session. Two snapshots of the
    /// same shard at the same epoch are identical.
    pub epoch: u64,
}

/// The sharded multi-tenant session router; see the module docs.
#[derive(Debug)]
pub struct ShardRouter {
    config: RouterConfig,
    shards: Vec<ShardHandle>,
    workers: Vec<Option<JoinHandle<()>>>,
    /// Dynamic per-tenant routes overriding the static `tenant % N`
    /// placement; written only by migration state transitions, read by
    /// every ingest/query. Ingest resolves **and enqueues** under the
    /// read lock, so a transition (write lock) can never slip between
    /// routing a message and its enqueue — whatever state a message was
    /// routed under, the migration's subsequent source flush covers it.
    routes: RwLock<HashMap<TenantId, RouteState>>,
}

impl ShardRouter {
    /// Build the router: partition `seeds` across shards, fit one
    /// session per shard, spawn the workers.
    ///
    /// Every shard must receive at least one seeded tenant (a session
    /// cannot exist without a labelled seed); tenants may also join
    /// later, purely through [`ShardRouter::ingest`], as long as their
    /// stream carries its own sources, claims and labels. Explicit scope
    /// *overrides* on seed datasets are not preserved — shard sessions
    /// use the builder's provision-inferred scopes, mirroring
    /// `corrfuse_stream::replay`.
    pub fn new(
        mut fuser: FuserConfig,
        config: RouterConfig,
        seeds: Vec<(TenantId, Dataset)>,
    ) -> Result<ShardRouter> {
        config.validate()?;
        // A metrics registry implies per-stage timing: the shard
        // sessions collect their stage breakdowns so the worker has
        // something to record. (`spans` alone, without a registry,
        // only surfaces timings on each `ScoredDelta`.)
        if config.metrics.is_some() {
            fuser.spans = true;
        }
        let n = config.n_shards;
        let mut seen: HashSet<TenantId> = HashSet::new();
        for (t, _) in &seeds {
            if !seen.insert(*t) {
                return Err(ServeError::InvalidConfig("duplicate tenant in seeds"));
            }
        }
        let mut per_shard: Vec<Vec<(TenantId, Dataset)>> = (0..n).map(|_| Vec::new()).collect();
        for (t, ds) in seeds {
            per_shard[t.0 as usize % n].push((t, ds));
        }
        if let Some(j) = &config.journal {
            std::fs::create_dir_all(&j.dir).map_err(FusionError::from)?;
        }
        let mut shards = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for (i, shard_seeds) in per_shard.into_iter().enumerate() {
            if shard_seeds.is_empty() {
                return Err(ServeError::ShardSeedMissing { shard: i });
            }
            let (ds, tenants, next_domain) = merge_seeds(&shard_seeds)?;
            let engine = if config.shard_threads > 1 {
                ScoringEngine::with_threads(config.shard_threads)
            } else {
                ScoringEngine::serial()
            };
            let mut session = StreamSession::with_engine(fuser.clone(), ds, engine)
                .map_err(ServeError::Fusion)?
                .with_threshold(config.threshold);
            if let Some(j) = &config.journal {
                session
                    .journal_to(j.shard_path(i), j.fsync)
                    .map_err(ServeError::Fusion)?;
            }
            let stats = ShardStats {
                shard: i,
                tenants: tenants.len(),
                n_sources: session.dataset().n_sources(),
                n_triples: session.dataset().n_triples(),
                journal_bytes: session.journal_bytes(),
                ..ShardStats::default()
            };
            let poison = Arc::new(PoisonCell::new());
            let core = Arc::new(Mutex::new(ShardCore {
                session,
                tenants,
                next_domain,
                stats,
                batches_since_rotation: 0,
                poison: Arc::clone(&poison),
                tap: config.replication.clone().map(|r| ReplicaTap::new(r, 0)),
            }));
            let queue = Arc::new(Queue::new(config.queue_capacity));
            let progress = Arc::new(Progress::default());
            let params = WorkerParams {
                queue: Arc::clone(&queue),
                core: Arc::clone(&core),
                progress: Arc::clone(&progress),
                max_batch_events: config.max_batch_events,
                journal: config.journal.clone(),
                spans: config
                    .metrics
                    .as_ref()
                    .map(|r| Arc::new(ShardSpans::new(Arc::clone(r), i))),
            };
            let join = std::thread::Builder::new()
                .name(format!("corrfuse-shard-{i}"))
                .spawn(move || run_worker(params))
                .map_err(FusionError::from)?;
            shards.push(ShardHandle {
                queue,
                core,
                progress,
                poison,
                enqueued: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                acked_epoch: AtomicU64::new(0),
            });
            workers.push(Some(join));
        }
        Ok(ShardRouter {
            config,
            shards,
            workers,
            routes: RwLock::new(HashMap::new()),
        })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.config.n_shards
    }

    /// The router configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// The shard currently serving a tenant: its dynamic route if it was
    /// ever migrated ([`ShardRouter::migrate_tenant`]), else the static
    /// `tenant.0 % n_shards` placement.
    pub fn shard_of(&self, tenant: TenantId) -> usize {
        let routes = self.routes.read().expect("route table lock");
        match routes.get(&tenant) {
            Some(r) => r.serving(),
            None => tenant.0 as usize % self.config.n_shards,
        }
    }

    /// Whether `shard` is the one serving `tenant` under `routes`.
    fn serves(
        &self,
        routes: &HashMap<TenantId, RouteState>,
        tenant: TenantId,
        shard: usize,
    ) -> bool {
        match routes.get(&tenant) {
            Some(r) => r.serving() == shard,
            None => tenant.0 as usize % self.config.n_shards == shard,
        }
    }

    /// Enqueue one tenant message (a micro-batch of tenant-local events)
    /// for asynchronous ingestion. Returns as soon as the message is
    /// accepted; under backpressure the configured policy decides
    /// between blocking, rejecting and timing out.
    ///
    /// A poisoned shard refuses the message up front with the
    /// **non-retryable** [`ServeError::ShardPoisoned`] — unlike
    /// [`ServeError::Backpressure`], retrying cannot succeed; the shard
    /// must be rebuilt from its journal. (Messages already queued when
    /// the shard poisons are dropped by the worker and counted in
    /// [`crate::ShardStats::ingest_errors`].)
    ///
    /// During a tenant's cut-over window
    /// ([`ShardRouter::migrate_tenant`]) the message is buffered and
    /// drained into the new shard at commit; if the window's bounded
    /// buffer (the queue capacity) fills, the call fails with the
    /// **retryable** [`ServeError::TenantMigrating`] (`MIGRATING` over
    /// the wire) — the window closes within one flush of the target.
    pub fn ingest(&self, tenant: TenantId, events: Vec<Event>) -> Result<()> {
        let enqueued_at = self.config.metrics.is_some().then(std::time::Instant::now);
        let msg = Msg {
            tenant,
            events,
            enqueued_at,
        };
        {
            let routes = self.routes.read().expect("route table lock");
            match routes.get(&tenant) {
                Some(RouteState::CutOver { .. }) => {} // fall through to the write path
                Some(r) => return self.push_to(r.serving(), msg),
                None => return self.push_to(tenant.0 as usize % self.config.n_shards, msg),
            }
        }
        // Cut-over window: buffering mutates the route entry, so
        // re-resolve under the write lock (the window may have closed or
        // rolled back between the two lock acquisitions).
        let mut routes = self.routes.write().expect("route table lock");
        match routes.get_mut(&tenant) {
            Some(RouteState::CutOver { buffer, .. }) => {
                if buffer.len() >= self.config.queue_capacity {
                    return Err(ServeError::TenantMigrating { tenant });
                }
                buffer.push(msg);
                Ok(())
            }
            Some(r) => {
                let shard = r.serving();
                self.push_to(shard, msg)
            }
            None => self.push_to(tenant.0 as usize % self.config.n_shards, msg),
        }
    }

    /// Enqueue one message on a specific shard: poison check, push under
    /// the configured backpressure, bump the front-door counters. Called
    /// with the route lock held (read or write) so routing and enqueue
    /// are atomic with respect to migration state transitions.
    fn push_to(&self, shard: usize, msg: Msg) -> Result<()> {
        let h = &self.shards[shard];
        if let Some(reason) = h.poison.get() {
            return Err(ServeError::ShardPoisoned {
                shard,
                reason: reason.clone(),
            });
        }
        match h.queue.push(msg, self.config.backpressure) {
            Ok(()) => {
                h.enqueued.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
            Err(PushError::Full) => {
                h.rejected.fetch_add(1, Ordering::SeqCst);
                Err(ServeError::Backpressure {
                    shard,
                    depth: h.queue.depth(),
                })
            }
            Err(PushError::Closed) => Err(ServeError::ShuttingDown),
        }
    }

    /// Wait until every message accepted so far has been applied (then
    /// reads see those writes). Fails if a shard worker died first.
    pub fn flush(&self) -> Result<()> {
        for i in 0..self.shards.len() {
            self.flush_shard(i)?;
        }
        Ok(())
    }

    /// [`ShardRouter::flush`] for a single shard.
    fn flush_shard(&self, shard: usize) -> Result<()> {
        let h = &self.shards[shard];
        let target = h.enqueued.load(Ordering::SeqCst);
        let dead = || {
            self.workers[shard]
                .as_ref()
                .is_none_or(JoinHandle::is_finished)
        };
        if !h.progress.wait_for(target, dead) {
            return Err(ServeError::ShardPanicked { shard });
        }
        Ok(())
    }

    /// Current posterior per tenant-local triple, in the tenant's own
    /// `TripleId` order (snapshot-consistent per-shard read).
    ///
    /// Queries against a poisoned shard fail with
    /// [`ServeError::ShardPoisoned`] rather than silently serving state
    /// of unknown freshness; use [`ShardRouter::shard_snapshot`] to read
    /// the shard's last consistent state explicitly.
    pub fn scores(&self, tenant: TenantId) -> Result<Vec<f64>> {
        self.with_tenant_at(tenant, None, |core, map| {
            let scores = core.session.scores();
            map.triples.iter().map(|&t| scores[t.index()]).collect()
        })
    }

    /// [`ShardRouter::scores`] with a bounded-staleness floor: fails
    /// with the retryable [`ServeError::Stale`] unless the tenant's
    /// shard has committed at least `min_epoch` batches. The same
    /// `min_epoch` travels to replication followers over the wire, so a
    /// reader can take a leader epoch fence (e.g. from
    /// [`ShardRouter::snapshot_all`]) and demand reads at least that
    /// fresh from any replica.
    pub fn scores_at(&self, tenant: TenantId, min_epoch: u64) -> Result<Vec<f64>> {
        self.with_tenant_at(tenant, Some(min_epoch), |core, map| {
            let scores = core.session.scores();
            map.triples.iter().map(|&t| scores[t.index()]).collect()
        })
    }

    /// Accept/reject decisions per tenant-local triple at the router
    /// threshold. Fails with [`ServeError::ShardPoisoned`] on a poisoned
    /// shard; see [`ShardRouter::scores`].
    pub fn decisions(&self, tenant: TenantId) -> Result<Vec<bool>> {
        let threshold = self.config.threshold;
        self.with_tenant_at(tenant, None, |core, map| {
            let scores = core.session.scores();
            map.triples
                .iter()
                .map(|&t| scores[t.index()] > threshold)
                .collect()
        })
    }

    /// [`ShardRouter::decisions`] with a bounded-staleness floor; see
    /// [`ShardRouter::scores_at`].
    pub fn decisions_at(&self, tenant: TenantId, min_epoch: u64) -> Result<Vec<bool>> {
        let threshold = self.config.threshold;
        self.with_tenant_at(tenant, Some(min_epoch), |core, map| {
            let scores = core.session.scores();
            map.triples
                .iter()
                .map(|&t| scores[t.index()] > threshold)
                .collect()
        })
    }

    fn with_tenant_at<R>(
        &self,
        tenant: TenantId,
        min_epoch: Option<u64>,
        f: impl FnOnce(&ShardCore, &TenantMap) -> R,
    ) -> Result<R> {
        // Route-aware resolution. A migrated tenant's route carries its
        // commit-time epoch **fence**: reads against the new shard
        // demand at least that epoch, so no read can ever observe a
        // state older than what the old shard served before the
        // repoint — and since the target was flushed past the fence
        // before the route flipped, the floor never spuriously trips.
        let (shard, fence) = {
            let routes = self.routes.read().expect("route table lock");
            match routes.get(&tenant) {
                Some(RouteState::Moved { shard, fence }) => (*shard, Some(*fence)),
                Some(r) => (r.serving(), None),
                None => (tenant.0 as usize % self.config.n_shards, None),
            }
        };
        let min_epoch = match (min_epoch, fence) {
            (Some(m), Some(f)) => Some(m.max(f)),
            (m, f) => m.or(f),
        };
        let h = &self.shards[shard];
        let core = h.core.lock().expect("shard core lock");
        // Membership first (an unknown tenant is the caller's bug, not
        // the shard's — reporting ShardPoisoned for it would send the
        // operator on a pointless rebuild), then the poison check,
        // *under the lock* so a query racing the poisoning batch can
        // never observe half-mutated session state.
        let Some(map) = core.tenants.get(&tenant) else {
            return Err(ServeError::UnknownTenant(tenant));
        };
        if let Some(reason) = h.poison.get() {
            return Err(ServeError::ShardPoisoned {
                shard,
                reason: reason.clone(),
            });
        }
        if let Some(min) = min_epoch {
            let epoch = core.session.epoch();
            if epoch < min {
                return Err(ServeError::Stale {
                    shard,
                    epoch,
                    min_epoch: min,
                });
            }
        }
        Ok(f(&core, map))
    }

    /// All tenants currently hosted, ascending. Deduplicated: a migrated
    /// tenant's old shard keeps an inert namespaced residue of it (see
    /// [`crate::migration`]), but the tenant is listed once.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut set: HashSet<TenantId> = HashSet::new();
        for h in &self.shards {
            set.extend(h.core.lock().expect("shard core lock").tenants.keys());
        }
        let mut out: Vec<TenantId> = set.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// A snapshot-consistent copy of one shard's dataset, scores and
    /// decisions (clones under the shard lock).
    ///
    /// This read deliberately works on a **poisoned** shard too: it is
    /// the operator's window onto the shard's last consistent state
    /// (the worker stops applying the moment it poisons, so the copy is
    /// the state as of the last successful batch) and the starting
    /// point for rebuilding the shard from its journal.
    pub fn shard_snapshot(&self, shard: usize) -> Result<ShardSnapshot> {
        let h = self
            .shards
            .get(shard)
            .ok_or(ServeError::InvalidConfig("shard index out of range"))?;
        let routes = self.routes.read().expect("route table lock");
        let core = h.core.lock().expect("shard core lock");
        // A migrated-away tenant's residue stays in the dataset (that is
        // what keeps re-migration idempotent) but the tenant is no
        // longer *served* here, so it is not listed.
        let mut tenants: Vec<TenantId> = core
            .tenants
            .keys()
            .copied()
            .filter(|t| self.serves(&routes, *t, shard))
            .collect();
        tenants.sort_unstable();
        Ok(ShardSnapshot {
            shard,
            dataset: core.session.dataset().clone(),
            scores: core.session.scores().to_vec(),
            decisions: core.session.decisions(),
            tenants,
            journal_path: self.config.journal.as_ref().map(|j| j.shard_path(shard)),
            epoch: core.session.epoch(),
        })
    }

    /// A cross-shard snapshot read behind an epoch fence: flush every
    /// shard (so each one has applied every message accepted before this
    /// call), then snapshot each shard in turn. The returned snapshots
    /// carry their shard epochs — together they form a consistent fence:
    /// any reader, on the leader or on a follower, that demands
    /// `min_epoch >= snapshot.epoch` per shard observes a state at least
    /// as fresh as this export. There is still no cross-shard *ordering*
    /// (shards are independent sessions by design); the fence pins a
    /// "nothing accepted before the call is missing" frontier, which is
    /// what a consistent multi-tenant export needs.
    pub fn snapshot_all(&self) -> Result<Vec<ShardSnapshot>> {
        self.flush()?;
        (0..self.config.n_shards)
            .map(|i| self.shard_snapshot(i))
            .collect()
    }

    /// Each shard's current replication epoch, in shard order.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|h| h.core.lock().expect("shard core lock").session.epoch())
            .collect()
    }

    /// Subscribe to a shard's committed-batch stream, resuming after
    /// `from_epoch` — the epoch the subscriber has fully applied. A
    /// brand-new follower holds no state at all (not even the epoch-0
    /// seed dataset), so it passes the bootstrap sentinel `u64::MAX`,
    /// which can never be covered and always forces a snapshot start.
    /// Returns how the
    /// subscription starts — [`SubscriptionStart::Resume`] when the
    /// tap's backlog still covers the gap (the missing suffix is already
    /// queued), else [`SubscriptionStart::Snapshot`] at the current
    /// epoch — plus the live [`Subscription`]. Registration is atomic
    /// with the captured state (both happen under the shard lock), so
    /// the subscriber sees every epoch exactly once, even across a
    /// concurrent journal rotation.
    ///
    /// Fails with [`ServeError::InvalidConfig`] unless the router was
    /// built with [`RouterConfig::with_replication`], and with
    /// [`ServeError::ShardPoisoned`] on a poisoned shard (its epoch
    /// stream is frozen; rebuild it first).
    pub fn subscribe(
        &self,
        shard: usize,
        from_epoch: u64,
    ) -> Result<(SubscriptionStart, Subscription)> {
        let h = self
            .shards
            .get(shard)
            .ok_or(ServeError::InvalidConfig("shard index out of range"))?;
        let mut core = h.core.lock().expect("shard core lock");
        if let Some(reason) = h.poison.get() {
            return Err(ServeError::ShardPoisoned {
                shard,
                reason: reason.clone(),
            });
        }
        let ShardCore { session, tap, .. } = &mut *core;
        let Some(tap) = tap.as_mut() else {
            return Err(ServeError::InvalidConfig(
                "replication is not enabled on this router",
            ));
        };
        let epoch = session.epoch();
        Ok(tap.subscribe(from_epoch, epoch, || {
            (
                corrfuse_core::io::to_string(session.dataset()),
                session.threshold(),
            )
        }))
    }

    /// Record a follower's acknowledgement that it has applied `shard`'s
    /// stream through `epoch`. Monotonic (a late or duplicate ack never
    /// regresses the mark); feeds [`ShardStats::replica_acked_epoch`]
    /// and the `replica_*` metrics gauges.
    pub fn record_ack(&self, shard: usize, epoch: u64) -> Result<()> {
        let h = self
            .shards
            .get(shard)
            .ok_or(ServeError::InvalidConfig("shard index out of range"))?;
        h.acked_epoch.fetch_max(epoch, Ordering::SeqCst);
        Ok(())
    }

    /// Per-shard and aggregate statistics.
    pub fn stats(&self) -> RouterStats {
        let routes = self.routes.read().expect("route table lock");
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let core = h.core.lock().expect("shard core lock");
                let mut s = core.stats.clone();
                s.queue_depth = h.queue.depth();
                s.max_queue_depth = h.queue.max_depth();
                s.enqueued_messages = h.enqueued.load(Ordering::SeqCst);
                s.rejected_messages = h.rejected.load(Ordering::SeqCst);
                s.tenants = core
                    .tenants
                    .keys()
                    .filter(|t| self.serves(&routes, **t, i))
                    .count();
                s.scoring_threads = core.session.engine().threads();
                s.journal_bytes = core.session.journal_bytes();
                s.n_sources = core.session.dataset().n_sources();
                s.n_triples = core.session.dataset().n_triples();
                s.score_cache = core.session.score_cache_stats();
                s.joint_cache = core.session.joint_cache_stats();
                s.joint_delta = core.session.joint_delta_stats();
                s.lift = core.session.lift_stats();
                s.poisoned = core.poison.get().is_some();
                s.epoch = core.session.epoch();
                s.replica_acked_epoch = h.acked_epoch.load(Ordering::SeqCst);
                s.replica_subscribers = core.tap.as_ref().map_or(0, ReplicaTap::n_subscribers);
                s
            })
            .collect();
        RouterStats { shards }
    }

    /// A tenant's self-contained journal slice: its full accumulated
    /// state re-expressed as tenant-local events (sources, triples with
    /// domains, claims, labels, all in tenant-local registration order),
    /// replayable standalone or into any shard as one batch. Flushes the
    /// serving shard first, so the slice covers every message accepted
    /// before this call. Don't race this with a migration of the same
    /// tenant — the serving shard may change under it.
    pub fn tenant_slice(&self, tenant: TenantId) -> Result<Vec<Event>> {
        let shard = self.shard_of(tenant);
        self.flush_shard(shard)?;
        self.slice_from(shard, tenant)
    }

    fn slice_from(&self, shard: usize, tenant: TenantId) -> Result<Vec<Event>> {
        let h = &self.shards[shard];
        let core = h.core.lock().expect("shard core lock");
        let Some(map) = core.tenants.get(&tenant) else {
            return Err(ServeError::UnknownTenant(tenant));
        };
        if let Some(reason) = h.poison.get() {
            return Err(ServeError::ShardPoisoned {
                shard,
                reason: reason.clone(),
            });
        }
        Ok(extract_slice(core.session.dataset(), map))
    }

    /// Live-migrate `tenant` onto shard `to` with **no ingest
    /// downtime**; see [`crate::migration`] for the state machine and
    /// the epoch-fence argument.
    ///
    /// The source keeps serving ingest and reads through the bulk
    /// replay; only the cut-over window (one source flush + one delta
    /// replay long) buffers the tenant's new ingest, and co-tenants are
    /// never touched at all. On any failure the migration rolls back
    /// completely — route restored, buffered ingest re-queued at the
    /// source in arrival order — and the typed
    /// [`ServeError::MigrationFailed`] reports the failed stage. A
    /// concurrent second migration of the same tenant fails with the
    /// retryable [`ServeError::TenantMigrating`].
    ///
    /// Back-and-forth migrations converge: replay is idempotent (known
    /// sources/triples are skipped, claims are absorbing, labels
    /// re-apply to their final state), and a shard's residual
    /// [`TenantMap`] of a migrated-away tenant stays prefix-consistent,
    /// so returning to a previous home is just another replay.
    pub fn migrate_tenant(&self, tenant: TenantId, to: usize) -> Result<MigrationReport> {
        self.migrate_inner(tenant, to, None)
    }

    /// Chaos hook for fault-injection tests: run the migration state
    /// machine but fail deliberately right after `abort_after`
    /// completes, exercising the rollback path exactly as a real fault
    /// at that stage would. Always returns
    /// [`ServeError::MigrationFailed`] (aborting "after"
    /// [`MigrationStage::Commit`] is meaningless — commit is the atomic
    /// flip — so that stage aborts just before it).
    pub fn migrate_tenant_chaos(
        &self,
        tenant: TenantId,
        to: usize,
        abort_after: MigrationStage,
    ) -> Result<MigrationReport> {
        self.migrate_inner(tenant, to, Some(abort_after))
    }

    fn migrate_inner(
        &self,
        tenant: TenantId,
        to: usize,
        abort_after: Option<MigrationStage>,
    ) -> Result<MigrationReport> {
        // ---- Planning: validate, then claim the tenant's route entry
        // (the in-flight marker doubles as the concurrency guard).
        if to >= self.config.n_shards {
            return Err(ServeError::InvalidConfig(
                "migration target shard out of range",
            ));
        }
        let (from, prior) = {
            let mut routes = self.routes.write().expect("route table lock");
            let (from, prior) = match routes.get(&tenant) {
                Some(RouteState::Moved { shard, fence }) => (*shard, Some((*shard, *fence))),
                Some(_) => return Err(ServeError::TenantMigrating { tenant }),
                None => (tenant.0 as usize % self.config.n_shards, None),
            };
            if from == to {
                return Err(ServeError::InvalidConfig(
                    "tenant already lives on the target shard",
                ));
            }
            for shard in [from, to] {
                if let Some(reason) = self.shards[shard].poison.get() {
                    return Err(ServeError::ShardPoisoned {
                        shard,
                        reason: reason.clone(),
                    });
                }
            }
            if !self.shards[from]
                .core
                .lock()
                .expect("shard core lock")
                .tenants
                .contains_key(&tenant)
            {
                return Err(ServeError::UnknownTenant(tenant));
            }
            routes.insert(tenant, RouteState::Migrating { from });
            (from, prior)
        };
        if let Some(reg) = &self.config.metrics {
            reg.gauge("serve_migrations_active").add(1);
        }
        if abort_after == Some(MigrationStage::Planning) {
            return Err(self.roll_back(
                tenant,
                from,
                prior,
                MigrationStage::Planning,
                "chaos: aborted after planning".into(),
            ));
        }
        // ---- Bulk replay, while the source keeps serving ingest and
        // reads. The copy may be stale by whatever lands during it —
        // replay is idempotent, so the cut-over pass simply re-sends
        // everything and only the delta is new.
        let bulk_events = match self.replay_into(tenant, from, to) {
            Ok(n) => n,
            Err(e) => {
                return Err(self.roll_back(
                    tenant,
                    from,
                    prior,
                    MigrationStage::BulkReplay,
                    e.to_string(),
                ))
            }
        };
        if abort_after == Some(MigrationStage::BulkReplay) {
            return Err(self.roll_back(
                tenant,
                from,
                prior,
                MigrationStage::BulkReplay,
                "chaos: aborted after bulk replay".into(),
            ));
        }
        // ---- Cut-over: the tenant's new ingest buffers on the route
        // entry while the source drains and its final state replays into
        // the target. Reads still resolve at the (complete) source.
        self.routes.write().expect("route table lock").insert(
            tenant,
            RouteState::CutOver {
                from,
                buffer: Vec::new(),
            },
        );
        let delta_events = match self.replay_into(tenant, from, to) {
            Ok(n) => n,
            Err(e) => {
                return Err(self.roll_back(
                    tenant,
                    from,
                    prior,
                    MigrationStage::CutOver,
                    e.to_string(),
                ))
            }
        };
        // The fence: the target's epoch now that it provably holds
        // everything the source ever absorbed for this tenant.
        let fence = self.shards[to]
            .core
            .lock()
            .expect("shard core lock")
            .session
            .epoch();
        if abort_after == Some(MigrationStage::CutOver)
            || abort_after == Some(MigrationStage::Commit)
        {
            let stage = abort_after.unwrap_or(MigrationStage::CutOver);
            return Err(self.roll_back(
                tenant,
                from,
                prior,
                stage,
                format!("chaos: aborted during {stage}"),
            ));
        }
        // ---- Commit: persist the fence, drain the window into the
        // target, flip the route — all under the route write lock, so no
        // ingest can interleave with the repoint and the buffered window
        // lands ahead of any post-commit message (labels are
        // last-write-wins; order matters).
        let buffered_messages = {
            let mut routes = self.routes.write().expect("route table lock");
            if let Some(j) = &self.config.journal {
                let mut persisted: Vec<PersistedRoute> = routes
                    .iter()
                    .filter_map(|(t, r)| match r {
                        RouteState::Moved { shard, fence } => Some(PersistedRoute {
                            tenant: *t,
                            shard: *shard,
                            fence: *fence,
                        }),
                        _ => None,
                    })
                    .collect();
                persisted.push(PersistedRoute {
                    tenant,
                    shard: to,
                    fence,
                });
                persisted.sort_unstable_by_key(|r| r.tenant);
                // The file is written *before* the in-memory flip and
                // *after* the target journal holds the full slice:
                // recovery resolving this route against the recovered
                // target epoch (`migration::resolve_route`) either
                // proves the cut-over or rolls back to the source —
                // never a split route.
                if let Err(e) = store_routes(&j.dir, &persisted) {
                    drop(routes);
                    return Err(self.roll_back(
                        tenant,
                        from,
                        prior,
                        MigrationStage::Commit,
                        e.to_string(),
                    ));
                }
            }
            let buffer = match routes.insert(tenant, RouteState::Moved { shard: to, fence }) {
                Some(RouteState::CutOver { buffer, .. }) => buffer,
                _ => Vec::new(),
            };
            let n = buffer.len();
            for msg in buffer {
                if let Err(e) = self.push_to(to, msg) {
                    // Past the atomic flip; a drain failure (the target
                    // closing mid-shutdown) drops the message exactly
                    // like any shutdown race, and is counted as such.
                    let mut core = self.shards[to].core.lock().expect("shard core lock");
                    core.stats.ingest_errors += 1;
                    core.stats.last_error = Some(format!("cut-over drain failed: {e}"));
                }
            }
            n
        };
        self.flush_shard(to)?;
        self.shards[from]
            .core
            .lock()
            .expect("shard core lock")
            .stats
            .migrations_out += 1;
        self.shards[to]
            .core
            .lock()
            .expect("shard core lock")
            .stats
            .migrations_in += 1;
        if let Some(reg) = &self.config.metrics {
            reg.counter("serve_migrations_total").inc();
            reg.gauge("serve_migrations_active").add(-1);
        }
        Ok(MigrationReport {
            tenant,
            from,
            to,
            fence,
            bulk_events,
            delta_events,
            buffered_messages,
        })
    }

    /// One replay pass of the migration: flush the source, extract the
    /// tenant's slice, enqueue it on the target as one ordinary message
    /// (the worker's idempotent translation absorbs whatever the target
    /// already holds), flush the target, and verify it actually applied.
    /// Returns the slice's event count.
    fn replay_into(&self, tenant: TenantId, from: usize, to: usize) -> Result<usize> {
        self.flush_shard(from)?;
        let slice = self.slice_from(from, tenant)?;
        let n = slice.len();
        let errors_before = self.shards[to]
            .core
            .lock()
            .expect("shard core lock")
            .stats
            .ingest_errors;
        let enqueued_at = self.config.metrics.is_some().then(std::time::Instant::now);
        self.push_to(
            to,
            Msg {
                tenant,
                events: slice,
                enqueued_at,
            },
        )?;
        self.flush_shard(to)?;
        let core = self.shards[to].core.lock().expect("shard core lock");
        if let Some(reason) = core.poison.get() {
            return Err(ServeError::ShardPoisoned {
                shard: to,
                reason: reason.clone(),
            });
        }
        if core.stats.ingest_errors > errors_before {
            return Err(ServeError::Fusion(FusionError::Io(format!(
                "target shard {to} refused the replayed slice: {}",
                core.stats.last_error.clone().unwrap_or_default()
            ))));
        }
        Ok(n)
    }

    /// Undo a failed migration: restore the route (drop the in-flight
    /// entry, or re-point a previously-migrated tenant back at its prior
    /// home), re-queue any cut-over-buffered ingest at the source in
    /// arrival order, count the failure. The tenant never stopped being
    /// served by the source; the target keeps an inert namespaced
    /// residue that a retry's idempotent replay absorbs. Returns the
    /// typed error for the caller to propagate.
    fn roll_back(
        &self,
        tenant: TenantId,
        from: usize,
        prior: Option<(usize, u64)>,
        stage: MigrationStage,
        reason: String,
    ) -> ServeError {
        let mut routes = self.routes.write().expect("route table lock");
        let removed = match prior {
            Some((shard, fence)) => routes.insert(tenant, RouteState::Moved { shard, fence }),
            None => routes.remove(&tenant),
        };
        if let Some(RouteState::CutOver { buffer, .. }) = removed {
            // Drain back into the source while the write lock still
            // excludes new ingest, preserving arrival order.
            for msg in buffer {
                if let Err(e) = self.push_to(from, msg) {
                    let mut core = self.shards[from].core.lock().expect("shard core lock");
                    core.stats.ingest_errors += 1;
                    core.stats.last_error = Some(format!("rollback re-queue failed: {e}"));
                }
            }
        }
        drop(routes);
        self.shards[from]
            .core
            .lock()
            .expect("shard core lock")
            .stats
            .migrations_failed += 1;
        if let Some(reg) = &self.config.metrics {
            reg.counter("serve_migrations_failed_total").inc();
            reg.gauge("serve_migrations_active").add(-1);
        }
        ServeError::MigrationFailed {
            tenant,
            stage,
            reason,
        }
    }

    /// Resize one shard session's scoring engine, live. Bitwise-neutral:
    /// the engine spawns scoped threads per scoring call and holds no
    /// state between batches, and parallel scoring is bitwise identical
    /// to serial, so this changes throughput only — never a score.
    pub fn set_shard_threads(&self, shard: usize, threads: usize) -> Result<()> {
        let h = self
            .shards
            .get(shard)
            .ok_or(ServeError::InvalidConfig("shard index out of range"))?;
        let engine = if threads > 1 {
            ScoringEngine::with_threads(threads)
        } else {
            ScoringEngine::serial()
        };
        h.core
            .lock()
            .expect("shard core lock")
            .session
            .set_engine(engine);
        Ok(())
    }

    /// One rebalance pass: snapshot the stats and tenant placement, let
    /// `policy` decide ([`RebalancePolicy::plan`]), execute the actions
    /// (thread resizes first, then at most one live migration). Returns
    /// the executed actions; a failed migration surfaces as its typed
    /// error. Call this periodically from an operator loop.
    pub fn rebalance(&self, policy: &RebalancePolicy) -> Result<Vec<RebalanceAction>> {
        let stats = self.stats();
        let placement = self.placement();
        let actions = policy.plan(&stats, &placement);
        for a in &actions {
            match *a {
                RebalanceAction::SetShardThreads { shard, threads } => {
                    self.set_shard_threads(shard, threads)?;
                }
                RebalanceAction::MigrateTenant { tenant, to, .. } => {
                    self.migrate_tenant(tenant, to)?;
                }
            }
        }
        Ok(actions)
    }

    /// `placement()[shard]` lists the `(tenant, n_triples)` pairs served
    /// by each shard, tenants ascending.
    fn placement(&self) -> Vec<Vec<(TenantId, usize)>> {
        let routes = self.routes.read().expect("route table lock");
        let mut out: Vec<Vec<(TenantId, usize)>> =
            (0..self.config.n_shards).map(|_| Vec::new()).collect();
        for (i, h) in self.shards.iter().enumerate() {
            let core = h.core.lock().expect("shard core lock");
            let mut served: Vec<(TenantId, usize)> = core
                .tenants
                .iter()
                .filter(|(t, _)| self.serves(&routes, **t, i))
                .map(|(t, m)| (*t, m.n_triples()))
                .collect();
            served.sort_unstable_by_key(|(t, _)| *t);
            out[i] = served;
        }
        out
    }

    /// Graceful shutdown: refuse new messages, drain every queue, seal
    /// every journal, join the workers. Returns the final statistics.
    pub fn shutdown(mut self) -> Result<RouterStats> {
        self.close_and_join()?;
        Ok(self.stats())
    }

    fn close_and_join(&mut self) -> Result<()> {
        for h in &self.shards {
            h.queue.close();
        }
        let mut panicked = None;
        for (i, w) in self.workers.iter_mut().enumerate() {
            if let Some(join) = w.take() {
                if join.join().is_err() {
                    panicked = Some(i);
                }
            }
        }
        match panicked {
            Some(shard) => Err(ServeError::ShardPanicked { shard }),
            None => Ok(()),
        }
    }
}

impl Drop for ShardRouter {
    /// Dropping without [`ShardRouter::shutdown`] still drains and seals
    /// (panics in workers are swallowed here; use `shutdown` to observe
    /// them).
    fn drop(&mut self) {
        let _ = self.close_and_join();
    }
}

/// Merge one shard's seeded tenants into a single namespaced dataset,
/// building each tenant's id map along the way.
pub(crate) fn merge_seeds(
    seeds: &[(TenantId, Dataset)],
) -> CoreResult<(Dataset, HashMap<TenantId, TenantMap>, u32)> {
    let mut b = DatasetBuilder::new();
    let mut tenants: HashMap<TenantId, TenantMap> = HashMap::new();
    let mut next_domain = 0u32;
    for (tenant, ds) in seeds {
        let mut map = TenantMap::default();
        for s in ds.sources() {
            map.sources
                .push(b.source(scoped_source_name(*tenant, ds.source_name(s))));
        }
        for t in ds.triples() {
            let scoped = scoped_triple(*tenant, ds.triple(t));
            let id = b.triple(scoped.subject, scoped.predicate, scoped.object);
            let shard_domain = *map.domains.entry(ds.domain(t)).or_insert_with(|| {
                let d = Domain(next_domain);
                next_domain += 1;
                d
            });
            b.set_domain(id, shard_domain);
            if let Some(truth) = ds.gold().and_then(|g| g.get(t)) {
                b.label(id, truth);
            }
            map.triples.push(id);
        }
        for s in ds.sources() {
            for &t in ds.output(s) {
                b.observe(map.sources[s.index()], map.triples[t.index()]);
            }
        }
        tenants.insert(*tenant, map);
    }
    Ok((b.build()?, tenants, next_domain))
}

//! [`ShardRouter`]: the multi-tenant front door.
//!
//! Construction partitions the seeded tenants across `n_shards` by
//! [`TenantId::home_shard`], merges each shard's seeds into one namespaced
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
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;

use corrfuse_core::dataset::{Dataset, DatasetBuilder, Domain};
use corrfuse_core::engine::ScoringEngine;
use corrfuse_core::error::{FusionError, Result as CoreResult};
use corrfuse_core::fuser::FuserConfig;
use corrfuse_obs::Span;
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
    lock_core, run_worker, Msg, PoisonCell, ShardCore, ShardHandle, ShardSpans, WorkerParams,
};
use crate::stats::{RouterStats, ShardStats};
use crate::tenant::{scoped_source_name, scoped_triple, TenantId, TenantMap};

/// The dynamic routes: one entry per tenant whose route a migration
/// claimed or committed.
type Routes = HashMap<TenantId, RouteState>;

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
    /// Dynamic per-tenant routes overriding the static placement
    /// ([`TenantId::home_shard`]); written only by migration state
    /// transitions, read by every ingest/query. Ingest resolves **and
    /// enqueues** under the read lock, so a transition (write lock) can
    /// never slip between routing a message and its enqueue — whatever
    /// state a message was routed under, the migration's subsequent
    /// source flush covers it.
    routes: RwLock<Routes>,
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
        fuser: FuserConfig,
        config: RouterConfig,
        seeds: Vec<(TenantId, Dataset)>,
    ) -> Result<ShardRouter> {
        config.validate()?;
        let n = config.n_shards;
        let mut seen: HashSet<TenantId> = HashSet::new();
        for (t, _) in &seeds {
            if !seen.insert(*t) {
                return Err(ServeError::InvalidConfig("duplicate tenant in seeds"));
            }
        }
        let mut per_shard: Vec<Vec<(TenantId, Dataset)>> = (0..n).map(|_| Vec::new()).collect();
        for (t, ds) in seeds {
            per_shard[t.home_shard(n)].push((t, ds));
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
            let mut session = StreamSession::new(fuser.clone(), ds)
                .map_err(ServeError::Fusion)?
                .with_threshold(config.threshold);
            if let Some(j) = &config.journal {
                session
                    .journal_to(j.shard_path(i), j.fsync)
                    .map_err(ServeError::Fusion)?;
            }
            let poison = Arc::new(PoisonCell::new());
            let core = Arc::new(Mutex::new(ShardCore {
                session,
                tenants,
                next_domain,
                stats: ShardStats {
                    shard: i,
                    ..ShardStats::default()
                },
                batches_since_rotation: 0,
                poison: Arc::clone(&poison),
                tap: config.replication.clone().map(|r| ReplicaTap::new(r, 0)),
            }));
            let queue = Arc::new(Queue::new(config.queue_capacity));
            let params = WorkerParams {
                queue: Arc::clone(&queue),
                core: Arc::clone(&core),
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
                poison,
                acked_epoch: Arc::default(),
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

    /// Lock one shard's core through [`lock_core`], which states its
    /// poison policy.
    fn core(&self, shard: usize) -> MutexGuard<'_, ShardCore> {
        lock_core(&self.shards[shard].core)
    }

    /// Read the route table. A poisoned lock panics, as `lock_core` does.
    fn routes(&self) -> RwLockReadGuard<'_, Routes> {
        self.routes.read().expect("route table lock")
    }

    /// Write the route table. A poisoned lock panics, as `lock_core` does.
    fn routes_mut(&self) -> RwLockWriteGuard<'_, Routes> {
        self.routes.write().expect("route table lock")
    }

    /// The shard serving `tenant` under `routes`, and the epoch fence
    /// reads there demand: its route entry's while it has one, else its
    /// static home with no fence.
    fn serving(&self, routes: &Routes, tenant: TenantId) -> (usize, Option<u64>) {
        match routes.get(&tenant) {
            Some(route) => route.serving(),
            None => (tenant.home_shard(self.config.n_shards), None),
        }
    }

    /// `shard`'s handle, or [`ServeError::InvalidConfig`] for an index
    /// out of range.
    fn handle(&self, shard: usize) -> Result<&ShardHandle> {
        self.shards
            .get(shard)
            .ok_or(ServeError::InvalidConfig("shard index out of range"))
    }

    /// Refuse with [`ServeError::ShardPoisoned`] if `shard` is poisoned.
    fn unpoisoned(&self, shard: usize) -> Result<()> {
        match self.shards[shard].poison.get() {
            Some(reason) => Err(ServeError::ShardPoisoned {
                shard,
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    /// The shard currently serving a tenant: its dynamic route if it was
    /// ever migrated ([`ShardRouter::migrate_tenant`]), else its static
    /// placement, [`TenantId::home_shard`].
    pub fn shard_of(&self, tenant: TenantId) -> usize {
        self.serving(&self.routes(), tenant).0
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
    /// [`crate::ShardStats::ingest_errors`].) A shard whose worker died
    /// refuses it with the equally fatal [`ServeError::ShardPanicked`].
    ///
    /// During a tenant's cut-over window
    /// ([`ShardRouter::migrate_tenant`]) the message is buffered and
    /// drained into the new shard at commit; if the window's bounded
    /// buffer (the queue capacity) fills, the call fails with the
    /// **retryable** [`ServeError::TenantMigrating`] (`MIGRATING` over
    /// the wire) — the window closes within one flush of the target.
    pub fn ingest(&self, tenant: TenantId, events: Vec<Event>) -> Result<()> {
        let msg = Msg {
            tenant,
            events,
            queued: Span::start(self.config.metrics.is_some()),
        };
        {
            let routes = self.routes();
            if !matches!(routes.get(&tenant), Some(RouteState::CutOver { .. })) {
                return self.push_to(self.serving(&routes, tenant).0, msg);
            }
        }
        // Cut-over window: buffering mutates the route entry, so
        // re-resolve under the write lock (the window may have closed or
        // rolled back between the two lock acquisitions).
        let mut routes = self.routes_mut();
        if let Some(RouteState::CutOver { buffer, .. }) = routes.get_mut(&tenant) {
            if buffer.len() >= self.config.queue_capacity {
                return Err(ServeError::TenantMigrating { tenant });
            }
            buffer.push(msg);
            return Ok(());
        }
        self.push_to(self.serving(&routes, tenant).0, msg)
    }

    /// Enqueue one message on a specific shard: poison check, then push
    /// under the configured backpressure (the queue counts it accepted or
    /// refused). A shard whose worker died refuses it with
    /// [`ServeError::ShardPanicked`]: its abandoned queue takes no push.
    /// Called with the route lock held (read or write) so routing and
    /// enqueue are atomic with respect to migration state transitions.
    fn push_to(&self, shard: usize, msg: Msg) -> Result<()> {
        self.unpoisoned(shard)?;
        let queue = &self.shards[shard].queue;
        match queue.push(msg, self.config.backpressure) {
            Ok(()) => Ok(()),
            Err(PushError::Full) => Err(ServeError::Backpressure {
                shard,
                depth: queue.counts().depth,
            }),
            Err(PushError::Closed) => Err(ServeError::ShuttingDown),
            Err(PushError::Abandoned) => Err(ServeError::ShardPanicked { shard }),
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

    /// [`ShardRouter::flush`] for a single shard: join its queue, which
    /// wakes short if the worker died.
    fn flush_shard(&self, shard: usize) -> Result<()> {
        if self.shards[shard].queue.join() {
            Ok(())
        } else {
            Err(ServeError::ShardPanicked { shard })
        }
    }

    /// Current posterior per tenant-local triple, in the tenant's own
    /// `TripleId` order (snapshot-consistent per-shard read).
    ///
    /// Queries against a poisoned shard fail with
    /// [`ServeError::ShardPoisoned`] rather than silently serving state
    /// of unknown freshness; use [`ShardRouter::shard_snapshot`] to read
    /// the shard's last consistent state explicitly.
    pub fn scores(&self, tenant: TenantId) -> Result<Vec<f64>> {
        self.scores_at(tenant, 0)
    }

    /// [`ShardRouter::scores`] with a bounded-staleness floor: fails
    /// with the retryable [`ServeError::Stale`] unless the tenant's
    /// shard has committed at least `min_epoch` batches (0: no floor).
    /// The same `min_epoch` travels to replication followers over the
    /// wire, so a reader can take a leader epoch fence (e.g. from
    /// [`ShardRouter::snapshot_all`]) and demand reads at least that
    /// fresh from any replica.
    pub fn scores_at(&self, tenant: TenantId, min_epoch: u64) -> Result<Vec<f64>> {
        self.with_tenant_at(tenant, min_epoch, |core, map| {
            map.project(core.session.scores(), |p| p)
        })
    }

    /// Accept/reject decisions per tenant-local triple at the shard
    /// session's threshold. Fails with [`ServeError::ShardPoisoned`] on a
    /// poisoned shard; see [`ShardRouter::scores`].
    pub fn decisions(&self, tenant: TenantId) -> Result<Vec<bool>> {
        self.decisions_at(tenant, 0)
    }

    /// [`ShardRouter::decisions`] with a bounded-staleness floor; see
    /// [`ShardRouter::scores_at`].
    pub fn decisions_at(&self, tenant: TenantId, min_epoch: u64) -> Result<Vec<bool>> {
        self.with_tenant_at(tenant, min_epoch, |core, map| {
            let threshold = core.session.threshold();
            map.project(core.session.scores(), |p| p > threshold)
        })
    }

    fn with_tenant_at<R>(
        &self,
        tenant: TenantId,
        min_epoch: u64,
        f: impl FnOnce(&ShardCore, &TenantMap) -> R,
    ) -> Result<R> {
        // Route-aware resolution. A migrated tenant's route carries its
        // commit-time epoch **fence**: reads against the new shard
        // demand at least that epoch, so no read can ever observe a
        // state older than what the old shard served before the
        // repoint — and since the target was flushed past the fence
        // before the route flipped, the floor never spuriously trips.
        let (shard, fence) = self.serving(&self.routes(), tenant);
        // The stricter floor wins; 0 is no floor.
        let min_epoch = min_epoch.max(fence.unwrap_or(0));
        let core = self.core(shard);
        // Membership first (an unknown tenant is the caller's bug, not
        // the shard's — reporting ShardPoisoned for it would send the
        // operator on a pointless rebuild), then the poison check,
        // *under the lock* so a query racing the poisoning batch can
        // never observe half-mutated session state.
        let Some(map) = core.tenants.get(&tenant) else {
            return Err(ServeError::UnknownTenant(tenant));
        };
        self.unpoisoned(shard)?;
        let epoch = core.session.epoch();
        if epoch < min_epoch {
            return Err(ServeError::Stale {
                shard,
                epoch,
                min_epoch,
            });
        }
        Ok(f(&core, map))
    }

    /// All tenants currently hosted, ascending. Deduplicated: a migrated
    /// tenant's old shard keeps an inert namespaced residue of it (see
    /// [`crate::migration`]), but the tenant is listed once.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut set: HashSet<TenantId> = HashSet::new();
        for shard in 0..self.shards.len() {
            set.extend(self.core(shard).tenants.keys());
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
        self.handle(shard)?;
        let routes = self.routes();
        let core = self.core(shard);
        // A migrated-away tenant's residue stays in the dataset (that is
        // what keeps re-migration idempotent) but the tenant is no
        // longer *served* here, so it is not listed.
        let mut tenants: Vec<TenantId> = core
            .tenants
            .keys()
            .copied()
            .filter(|t| self.serving(&routes, *t).0 == shard)
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
        (0..self.shards.len())
            .map(|shard| self.core(shard).session.epoch())
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
    /// concurrent journal rotation. Every subscription of a shard
    /// acknowledges ([`Subscription::ack`]) into the shard's one ack
    /// mark, which [`ShardStats::replica_acked_epoch`] reads.
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
        let acked = Arc::clone(&self.handle(shard)?.acked_epoch);
        let mut core = self.core(shard);
        self.unpoisoned(shard)?;
        let ShardCore { session, tap, .. } = &mut *core;
        let Some(tap) = tap.as_mut() else {
            return Err(ServeError::InvalidConfig(
                "replication is not enabled on this router",
            ));
        };
        let epoch = session.epoch();
        let (start, sub) = tap.subscribe(from_epoch, epoch, || {
            (
                corrfuse_core::io::to_string(session.dataset()),
                session.threshold(),
            )
        });
        Ok((start, sub.with_ack_mark(acked)))
    }

    /// Per-shard and aggregate statistics.
    pub fn stats(&self) -> RouterStats {
        let routes = self.routes();
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let core = self.core(i);
                let mut s = core.stats.clone();
                let queued = h.queue.counts();
                s.enqueued_messages = queued.accepted;
                s.rejected_messages = queued.refused;
                s.processed_messages = queued.done;
                s.queue_depth = queued.depth;
                s.max_queue_depth = queued.max_depth;
                s.tenants = core
                    .tenants
                    .keys()
                    .filter(|t| self.serving(&routes, **t).0 == i)
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

    /// Tenant migrations in flight: route entries claimed, not committed.
    pub fn migrations_active(&self) -> usize {
        self.routes()
            .values()
            .filter(|r| !matches!(r, RouteState::Moved { .. }))
            .count()
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
        let core = self.core(shard);
        let Some(map) = core.tenants.get(&tenant) else {
            return Err(ServeError::UnknownTenant(tenant));
        };
        self.unpoisoned(shard)?;
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
        let (from, prior_fence) = self.claim_route(tenant, to)?;
        let report = self
            .move_tenant(tenant, from, to, abort_after)
            .map_err(|(stage, reason)| self.roll_back(tenant, from, prior_fence, stage, reason))?;
        // Past the flip the tenant lives on `to`: nothing rolls back.
        self.flush_shard(to)?;
        self.core(from).stats.migrations_out += 1;
        self.core(to).stats.migrations_in += 1;
        Ok(report)
    }

    /// Planning: validate the move, then claim the tenant's route entry
    /// (the in-flight marker doubles as the concurrency guard). Returns
    /// the source shard and, for a tenant that moved before, the fence of
    /// the route the claim replaced.
    fn claim_route(&self, tenant: TenantId, to: usize) -> Result<(usize, Option<u64>)> {
        if to >= self.config.n_shards {
            return Err(ServeError::InvalidConfig(
                "migration target shard out of range",
            ));
        }
        let mut routes = self.routes_mut();
        if matches!(
            routes.get(&tenant),
            Some(RouteState::Migrating { .. } | RouteState::CutOver { .. })
        ) {
            return Err(ServeError::TenantMigrating { tenant });
        }
        let (from, fence) = self.serving(&routes, tenant);
        if from == to {
            return Err(ServeError::InvalidConfig(
                "tenant already lives on the target shard",
            ));
        }
        for shard in [from, to] {
            self.unpoisoned(shard)?;
        }
        if !self.core(from).tenants.contains_key(&tenant) {
            return Err(ServeError::UnknownTenant(tenant));
        }
        routes.insert(tenant, RouteState::Migrating { from });
        Ok((from, fence))
    }

    /// Bulk replay, cut-over and commit, from the claimed route entry to
    /// the flipped route. A failure names its stage; the caller rolls
    /// back. The chaos hook fails right after `abort_after` completes.
    fn move_tenant(
        &self,
        tenant: TenantId,
        from: usize,
        to: usize,
        abort_after: Option<MigrationStage>,
    ) -> std::result::Result<MigrationReport, (MigrationStage, String)> {
        let chaos = |stage: MigrationStage, when: &str| match abort_after {
            Some(abort) if abort == stage => Err((stage, format!("chaos: aborted {when}"))),
            _ => Ok(()),
        };
        // Tags a stage's error for the rollback.
        let at = |stage: MigrationStage| move |e: ServeError| (stage, e.to_string());
        chaos(MigrationStage::Planning, "after planning")?;
        // ---- Bulk replay, while the source keeps serving ingest and
        // reads. The copy may be stale by whatever lands during it —
        // replay is idempotent, so the cut-over pass simply re-sends
        // everything and only the delta is new.
        let bulk_events = self
            .replay_into(tenant, from, to)
            .map_err(at(MigrationStage::BulkReplay))?;
        chaos(MigrationStage::BulkReplay, "after bulk replay")?;
        // ---- Cut-over: the tenant's new ingest buffers on the route
        // entry while the source drains and its final state replays into
        // the target. Reads still resolve at the (complete) source.
        self.routes_mut().insert(
            tenant,
            RouteState::CutOver {
                from,
                buffer: Vec::new(),
            },
        );
        let delta_events = self
            .replay_into(tenant, from, to)
            .map_err(at(MigrationStage::CutOver))?;
        // The fence: the target's epoch now that it provably holds
        // everything the source ever absorbed for this tenant.
        let fence = self.core(to).session.epoch();
        // Commit is the atomic flip, so its chaos point is just before it.
        chaos(MigrationStage::CutOver, "during cut-over")?;
        chaos(MigrationStage::Commit, "during commit")?;
        let buffered_messages = self
            .commit_route(tenant, to, fence)
            .map_err(at(MigrationStage::Commit))?;
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

    /// Commit: persist the fence, flip the route and drain the cut-over
    /// window into the target, all under the route write lock, so no
    /// ingest can interleave with the repoint and the buffered window
    /// lands ahead of any post-commit message (labels are
    /// last-write-wins; order matters). A failed persist returns before
    /// the flip and releases the lock. Returns the window's length.
    fn commit_route(&self, tenant: TenantId, to: usize, fence: u64) -> Result<usize> {
        let mut routes = self.routes_mut();
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
            store_routes(&j.dir, &persisted)?;
        }
        match routes.insert(tenant, RouteState::Moved { shard: to, fence }) {
            Some(RouteState::CutOver { buffer, .. }) => {
                Ok(self.drain_window(to, buffer, "cut-over drain"))
            }
            _ => Ok(0),
        }
    }

    /// Queue a cut-over window on `shard` in arrival order. The caller
    /// holds the route write lock, so no new ingest of the tenant
    /// interleaves. A message the shard refuses (it is closing
    /// mid-shutdown) is dropped like any shutdown race and counted as an
    /// ingest error there. Returns the window's length.
    fn drain_window(&self, shard: usize, window: Vec<Msg>, what: &str) -> usize {
        let n = window.len();
        for msg in window {
            if let Err(e) = self.push_to(shard, msg) {
                let mut core = self.core(shard);
                core.stats.ingest_errors += 1;
                core.stats.last_error = Some(format!("{what} failed: {e}"));
            }
        }
        n
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
        let errors_before = self.core(to).stats.ingest_errors;
        self.push_to(
            to,
            Msg {
                tenant,
                events: slice,
                queued: Span::start(self.config.metrics.is_some()),
            },
        )?;
        self.flush_shard(to)?;
        let core = self.core(to);
        self.unpoisoned(to)?;
        if core.stats.ingest_errors > errors_before {
            return Err(ServeError::Fusion(FusionError::Io(format!(
                "target shard {to} refused the replayed slice: {}",
                core.stats.last_error.clone().unwrap_or_default()
            ))));
        }
        Ok(n)
    }

    /// Undo a failed migration, the one rollback of every stage: restore
    /// the route (drop the in-flight entry, or re-point a
    /// previously-migrated tenant back at `from` behind its
    /// `prior_fence`), re-queue any cut-over-buffered ingest at the
    /// source in arrival order, count the failure. The tenant never
    /// stopped being served by the source; the target keeps an inert
    /// namespaced residue that a retry's idempotent replay absorbs.
    /// Returns the typed error for the caller to propagate.
    fn roll_back(
        &self,
        tenant: TenantId,
        from: usize,
        prior_fence: Option<u64>,
        stage: MigrationStage,
        reason: String,
    ) -> ServeError {
        let mut routes = self.routes_mut();
        let removed = match prior_fence {
            Some(fence) => routes.insert(tenant, RouteState::Moved { shard: from, fence }),
            None => routes.remove(&tenant),
        };
        if let Some(RouteState::CutOver { buffer, .. }) = removed {
            // Drain back into the source while the write lock still
            // excludes new ingest, preserving arrival order.
            self.drain_window(from, buffer, "rollback re-queue");
        }
        drop(routes);
        self.core(from).stats.migrations_failed += 1;
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
        self.handle(shard)?;
        self.core(shard)
            .session
            .set_engine(ScoringEngine::with_threads(threads));
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
        let routes = self.routes();
        (0..self.shards.len())
            .map(|i| {
                let core = self.core(i);
                let mut served: Vec<(TenantId, usize)> = core
                    .tenants
                    .iter()
                    .filter(|(t, _)| self.serving(&routes, **t).0 == i)
                    .map(|(t, m)| (*t, m.n_triples()))
                    .collect();
                served.sort_unstable_by_key(|(t, _)| *t);
                served
            })
            .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use corrfuse_core::dataset::SourceId;
    use corrfuse_core::fuser::{Fuser, Method};
    use corrfuse_core::triple::TripleId;

    /// Two sources and two labelled triples.
    fn seed() -> Dataset {
        let mut b = DatasetBuilder::new();
        let (s0, t0) = b.observe_named("S0", "x", "p", "0");
        let s1 = b.source("S1");
        let t1 = b.triple("x", "p", "1");
        b.observe(s0, t1);
        b.observe(s1, t1);
        b.label(t0, true);
        b.label(t1, false);
        b.build().unwrap()
    }

    /// A rollback re-queues the cut-over window at the source in arrival
    /// order. The window's second message labels the triple its first
    /// one adds: re-queued in reverse, the label would fail translation;
    /// dropped, the triple would be missing from the scores.
    #[test]
    fn a_rolled_back_cut_over_requeues_its_window_in_arrival_order() {
        let config = FuserConfig::new(Method::PrecRec);
        let (tenant, source) = (TenantId(0), 0);
        let seeds = vec![(tenant, seed()), (TenantId(1), seed())];
        let router = ShardRouter::new(config.clone(), RouterConfig::new(2), seeds).unwrap();
        assert_eq!(router.shard_of(tenant), source);
        let added = vec![
            Event::add_triple("y", "p", "2"),
            Event::claim(SourceId(1), TripleId(2)),
        ];
        let labelled = vec![Event::label(TripleId(2), true)];
        let buffer = [&added, &labelled]
            .map(|events| Msg {
                tenant,
                events: events.clone(),
                queued: Span::disabled(),
            })
            .into();
        router.routes_mut().insert(
            tenant,
            RouteState::CutOver {
                from: source,
                buffer,
            },
        );

        let err = router.roll_back(tenant, source, None, MigrationStage::CutOver, "test".into());
        assert!(matches!(
            err,
            ServeError::MigrationFailed {
                stage: MigrationStage::CutOver,
                ..
            }
        ));
        router.flush().unwrap();

        assert!(router.routes().is_empty(), "the route is static again");
        let stats = &router.stats().shards[source];
        assert_eq!(stats.ingest_errors, 0, "{:?}", stats.last_error);
        assert_eq!(stats.migrations_failed, 1);
        let mut solo = StreamSession::new(config.clone(), seed()).unwrap();
        solo.ingest(&added).unwrap();
        solo.ingest(&labelled).unwrap();
        let ds = solo.dataset();
        let fresh = Fuser::fit(&config, ds, ds.gold().unwrap()).unwrap();
        let expected = fresh.score_all(ds).unwrap();
        let scores = router.scores(tenant).unwrap();
        assert_eq!(scores.len(), 3);
        for (i, (a, b)) in scores.iter().zip(&expected).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "triple {i}: routed {a} vs fresh {b}"
            );
        }
    }

    /// A worker that dies outside a batch apply wakes the flush waiting
    /// on it, which reports the dead shard; a sibling shard serves on.
    /// A flush that would wait forever fails at the receive's timeout.
    #[test]
    fn a_flush_reports_a_dead_worker_and_the_sibling_serves_on() {
        let config = FuserConfig::new(Method::PrecRec);
        let seeds = vec![(TenantId(0), seed()), (TenantId(1), seed())];
        let router = Arc::new(ShardRouter::new(config, RouterConfig::new(2), seeds).unwrap());
        let grow = || {
            vec![
                Event::add_triple("y", "p", "2"),
                Event::claim(SourceId(1), TripleId(2)),
            ]
        };
        // Poison shard 0's core lock; its worker dies at its next lock.
        let poisoner = {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                let _core = router.core(0);
                panic!("poisoning shard 0's core lock");
            })
        };
        assert!(poisoner.join().is_err());
        router.ingest(TenantId(0), grow()).unwrap();

        let (tx, rx) = std::sync::mpsc::channel();
        {
            let router = Arc::clone(&router);
            std::thread::spawn(move || tx.send(router.flush()));
        }
        let flushed = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert!(
            matches!(flushed, Ok(Err(ServeError::ShardPanicked { shard: 0 }))),
            "{flushed:?}"
        );

        router.ingest(TenantId(1), grow()).unwrap();
        router.flush_shard(1).unwrap();
        assert_eq!(router.scores(TenantId(1)).unwrap().len(), 3);
    }

    /// A shard whose worker died refuses ingest as `ShardPanicked`
    /// instead of accepting messages nothing will apply. Its queue holds
    /// one message under the default `Block` policy, so a second
    /// accepted push would hold the caller for good: the ingests run on
    /// a helper thread, each awaited behind a receive timeout.
    #[test]
    fn a_dead_shard_refuses_ingest() {
        let config = FuserConfig::new(Method::PrecRec);
        let seeds = vec![(TenantId(0), seed()), (TenantId(1), seed())];
        let router_config = RouterConfig::new(2).with_queue_capacity(1);
        let router = Arc::new(ShardRouter::new(config, router_config, seeds).unwrap());
        let grow = || {
            vec![
                Event::add_triple("y", "p", "2"),
                Event::claim(SourceId(1), TripleId(2)),
            ]
        };
        // Poison shard 0's core lock; one message kills its worker.
        let poisoner = {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                let _core = router.core(0);
                panic!("poisoning shard 0's core lock");
            })
        };
        assert!(poisoner.join().is_err());
        router.ingest(TenantId(0), grow()).unwrap();
        let flushed = router.flush();
        assert!(
            matches!(flushed, Err(ServeError::ShardPanicked { shard: 0 })),
            "{flushed:?}"
        );

        let (tx, rx) = std::sync::mpsc::channel();
        {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                for _ in 0..3 {
                    if tx.send(router.ingest(TenantId(0), grow())).is_err() {
                        break;
                    }
                }
            });
        }
        for i in 0..3 {
            let ingested = rx.recv_timeout(std::time::Duration::from_secs(10));
            assert!(
                matches!(ingested, Ok(Err(ServeError::ShardPanicked { shard: 0 }))),
                "ingest {i} into the dead shard: {ingested:?}"
            );
        }
    }
}

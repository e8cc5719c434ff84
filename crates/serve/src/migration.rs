//! Live tenant migration between shards, and the queue-depth-driven
//! rebalancer policy built on top of it.
//!
//! # Why migration is a replay
//!
//! Routing assigns each tenant a shard; a hot tenant therefore pins a
//! hot shard. Moving a tenant means moving *state*, and the fusion
//! semantics make that cheap to do exactly: scores depend only on the
//! accumulated dataset (claims are sets, labels are last-write-wins),
//! and a tenant's [`crate::TenantMap`] makes its slice of a shard
//! self-contained — positional local ids, namespaced names, private
//! domains. So a migration is: extract the tenant's slice as ordinary
//! tenant-local events, replay it into the target shard through the
//! normal ingest path, and repoint the route. Replay is *idempotent*
//! (known sources/triples are skipped by translation, claims and labels
//! are absorbing), which is what makes crash retries and repeated
//! back-and-forth migrations converge instead of compounding.
//!
//! # The state machine
//!
//! ```text
//!             ┌────────────┐ slice + replay  ┌────────────┐
//!  (static) ─▶│ BulkReplay │────────────────▶│  CutOver   │─▶ Commit ─▶ Moved
//!             └────────────┘  source serves  └────────────┘   (fence)
//!                   │          ingest+reads        │ ingest buffers,
//!                   │                              │ reads at source
//!                   ▼ any failure                  ▼ any failure
//!                rollback (route entry removed, buffer re-queued
//!                at the source; target keeps inert residue)
//! ```
//!
//! Stages are [`MigrationStage`]; a failure at any pre-commit stage
//! rolls back completely — the tenant never stops being served, and a
//! rolled-back target shard merely holds inert namespaced residue that
//! the next attempt's idempotent replay absorbs.
//!
//! # The epoch fence
//!
//! Commit records the target shard's epoch *after* the cut-over delta
//! was applied and flushed — the **fence**. The route flips to
//! `Moved { shard, fence }` atomically under the route-table lock, and
//! every read routed to the target from then on demands
//! `min_epoch >= fence`. Since the target absorbed, before the fence
//! epoch, a superset of everything the source ever served, no read can
//! observe an older state than any pre-migration read: reads never go
//! backwards across the repoint. The same fence is persisted next to
//! the shard journals ([`store_routes`] / [`load_routes`]) so crash
//! recovery can decide, per tenant, whether the on-disk target is
//! complete ([`resolve_route`]): a recovered target epoch at or past
//! the fence proves the whole slice (and delta) is in the target
//! journal; anything less rolls back to the source, whose journal is
//! complete by construction. Either way the tenant resolves to exactly
//! one shard — never a split route.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

use corrfuse_core::dataset::{Dataset, Domain, SourceId};
use corrfuse_core::error::FusionError;
use corrfuse_core::triple::TripleId;
use corrfuse_stream::{journal, Event};

use crate::error::{Result, ServeError};
use crate::shard::Msg;
use crate::stats::RouterStats;
use crate::tenant::{unscoped, TenantId, TenantMap};

/// Where a migration stands (or where it failed); carried by
/// [`ServeError::MigrationFailed`] and used as the chaos-injection
/// coordinate by `ShardRouter::migrate_tenant_chaos`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationStage {
    /// Validating the request and claiming the tenant's route entry.
    Planning,
    /// Extracting the tenant's slice and replaying it into the target
    /// while the source keeps serving ingest and reads.
    BulkReplay,
    /// The cut-over window: new ingest buffers, the source is flushed
    /// and its final delta replays into the target.
    CutOver,
    /// Persisting the fence and atomically repointing the route.
    Commit,
}

impl fmt::Display for MigrationStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MigrationStage::Planning => "planning",
            MigrationStage::BulkReplay => "bulk-replay",
            MigrationStage::CutOver => "cut-over",
            MigrationStage::Commit => "commit",
        })
    }
}

/// What a completed migration did.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The migrated tenant.
    pub tenant: TenantId,
    /// The shard that served the tenant before.
    pub from: usize,
    /// The shard serving the tenant now.
    pub to: usize,
    /// The epoch fence: reads routed to the target demand at least this
    /// epoch, so they can never observe a pre-migration state.
    pub fence: u64,
    /// Events in the bulk slice replayed while the source kept serving.
    pub bulk_events: usize,
    /// Events in the cut-over delta (the slice re-extracted after the
    /// window closed; idempotent replay absorbs the overlap).
    pub delta_events: usize,
    /// Ingest messages buffered during the cut-over window and drained
    /// into the target at commit.
    pub buffered_messages: usize,
}

/// One tenant's dynamic route, overriding the static
/// `tenant.0 % n_shards` placement. Absence means static routing.
#[derive(Debug)]
pub(crate) enum RouteState {
    /// Bulk replay in flight: the source still serves ingest and reads.
    Migrating {
        /// The serving (source) shard.
        from: usize,
    },
    /// Cut-over window: ingest buffers here (bounded by the queue
    /// capacity), reads still resolve at the source.
    CutOver {
        /// The serving (source) shard.
        from: usize,
        /// Messages accepted during the window, drained into the target
        /// at commit (or back into the source on rollback).
        buffer: Vec<Msg>,
    },
    /// Committed: the tenant is served by `shard`; reads demand at
    /// least epoch `fence` there.
    Moved {
        /// The serving shard.
        shard: usize,
        /// Minimum epoch for reads against the new shard.
        fence: u64,
    },
}

impl RouteState {
    /// The shard currently serving the tenant's reads.
    pub(crate) fn serving(&self) -> usize {
        match self {
            RouteState::Migrating { from } | RouteState::CutOver { from, .. } => *from,
            RouteState::Moved { shard, .. } => *shard,
        }
    }
}

/// Re-express a tenant's slice of a shard dataset as tenant-local
/// events, in tenant-local registration order — sources, then triples
/// (each with its tenant-local domain), then claims in per-source
/// arrival order, then labels. The result replays standalone (local id
/// `k` is assigned to the `k`-th registration, i.e. the identity) or
/// into any shard through the normal translating ingest path, as **one
/// batch** (ingest validation requires a new triple's first claim in
/// the same batch, and the slice carries every claim).
///
/// Invariant (leader maps only): every shard domain of the tenant's
/// triples appears in `map.domains` — merge-seed and translation both
/// record the allocation — so the inversion below is total; derived
/// follower maps (empty `domains`) are not valid inputs.
pub(crate) fn extract_slice(ds: &Dataset, map: &TenantMap) -> Vec<Event> {
    let mut events = Vec::with_capacity(map.sources.len() + 3 * map.triples.len());
    for &s in &map.sources {
        events.push(Event::add_source(unscoped(ds.source_name(s))));
    }
    let local_domain: HashMap<Domain, Domain> = map
        .domains
        .iter()
        .map(|(local, shard)| (*shard, *local))
        .collect();
    let local_triple: HashMap<TripleId, TripleId> = map
        .triples
        .iter()
        .enumerate()
        .map(|(k, &t)| (t, TripleId(k as u32)))
        .collect();
    for &t in &map.triples {
        let triple = ds.triple(t);
        events.push(Event::add_triple_in(
            unscoped(&triple.subject),
            triple.predicate.clone(),
            triple.object.clone(),
            local_domain[&ds.domain(t)],
        ));
    }
    for (k, &s) in map.sources.iter().enumerate() {
        for t in ds.output(s) {
            if let Some(&local) = local_triple.get(t) {
                events.push(Event::claim(SourceId(k as u32), local));
            }
        }
    }
    if let Some(gold) = ds.gold() {
        for (k, &t) in map.triples.iter().enumerate() {
            if let Some(truth) = gold.get(t) {
                events.push(Event::label(TripleId(k as u32), truth));
            }
        }
    }
    events
}

/// File (inside the journal directory) recording committed routes, one
/// per migrated tenant. Written atomically at every commit, after the
/// target journal holds everything up to the fence.
pub const ROUTES_FILE: &str = "routes.tsv";

/// A committed route as persisted next to the shard journals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistedRoute {
    /// The migrated tenant.
    pub tenant: TenantId,
    /// The shard serving it.
    pub shard: usize,
    /// The commit-time epoch fence (see the module docs).
    pub fence: u64,
}

/// The routes-file path inside a journal directory.
pub fn routes_path(dir: &Path) -> PathBuf {
    dir.join(ROUTES_FILE)
}

/// Load the committed routes persisted in `dir`. A missing file means
/// no tenant was ever migrated: `Ok(vec![])`.
pub fn load_routes(dir: &Path) -> Result<Vec<PersistedRoute>> {
    let path = routes_path(dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(ServeError::Fusion(FusionError::from(e))),
    };
    let mut lines = text.lines();
    if lines.next() != Some("#corrfuse-routes v1") {
        return Err(bad_routes("missing #corrfuse-routes v1 header"));
    }
    let mut routes = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let mut f = line.split('\t');
        let (Some(t), Some(s), Some(e), None) = (f.next(), f.next(), f.next(), f.next()) else {
            return Err(bad_routes("route line is not tenant\\tshard\\tfence"));
        };
        let (Ok(tenant), Ok(shard), Ok(fence)) = (t.parse(), s.parse(), e.parse()) else {
            return Err(bad_routes("unparseable route field"));
        };
        routes.push(PersistedRoute {
            tenant: TenantId(tenant),
            shard,
            fence,
        });
    }
    Ok(routes)
}

/// Atomically persist the committed routes into `dir` (write a
/// temporary file, fsync, rename over [`ROUTES_FILE`], fsync `dir`).
/// The caller sequences this *after* the target journal is flushed
/// through the fence, so the file never points at a shard that does not
/// hold the data.
pub fn store_routes(dir: &Path, routes: &[PersistedRoute]) -> Result<()> {
    let mut text = String::from("#corrfuse-routes v1\n");
    for r in routes {
        text.push_str(&format!("{}\t{}\t{}\n", r.tenant.0, r.shard, r.fence));
    }
    let tmp = dir.join(format!("{ROUTES_FILE}.tmp"));
    let path = routes_path(dir);
    let write = || -> std::io::Result<()> {
        std::fs::write(&tmp, &text)?;
        std::fs::File::open(&tmp)?.sync_all()?;
        std::fs::rename(&tmp, &path)?;
        journal::sync_parent_dir(&path)
    };
    write().map_err(|e| ServeError::Fusion(FusionError::from(e)))
}

fn bad_routes(what: &str) -> ServeError {
    ServeError::Fusion(FusionError::Io(format!("corrupt routes file: {what}")))
}

/// How crash recovery resolves one persisted route; see
/// [`resolve_route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteResolution {
    /// The recovered target shard reached the fence: it provably holds
    /// the complete slice and delta — the migration stands; serve the
    /// tenant from the route's shard.
    CutOver,
    /// The recovered target shard fell short of the fence (its journal
    /// tail was torn past repair): the migration is void; serve the
    /// tenant from its previous shard, whose journal is complete by
    /// construction, and drop the route entry.
    RollBack,
}

/// Decide one tenant's post-crash route: compare the epoch a recovered
/// target shard actually reached (`StreamSession::recover`) against the
/// persisted fence. The fence was recorded only after the target
/// flushed the full slice and cut-over delta, so reaching it proves the
/// journal holds everything; falling short proves the tail was lost.
/// Both answers name exactly one serving shard — a tenant is never
/// split across shards, whatever byte the crash tore the journal at.
pub fn resolve_route(route: &PersistedRoute, recovered_target_epoch: u64) -> RouteResolution {
    if recovered_target_epoch >= route.fence {
        RouteResolution::CutOver
    } else {
        RouteResolution::RollBack
    }
}

/// One step a rebalance pass decided on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceAction {
    /// Resize a shard session's scoring engine (bitwise-neutral; see
    /// `corrfuse_stream::StreamSession::set_engine`).
    SetShardThreads {
        /// The shard to resize.
        shard: usize,
        /// The new scoring thread count.
        threads: usize,
    },
    /// Live-migrate a tenant off a hot shard onto the coldest one.
    MigrateTenant {
        /// The tenant to move.
        tenant: TenantId,
        /// Its current (hot) shard.
        from: usize,
        /// The destination (cold) shard.
        to: usize,
    },
}

/// The queue-depth-driven rebalancing policy: scale a pressured shard's
/// scoring threads up first (cheap, instant, bitwise-neutral), and when
/// pressure is both high and *imbalanced* — one shard much hotter than
/// the coldest — migrate the hot shard's largest tenant over.
///
/// [`RebalancePolicy::plan`] is pure over a [`RouterStats`] snapshot
/// plus the tenant placement, so the trigger logic is unit-testable
/// without a router; `ShardRouter::rebalance` gathers the inputs and
/// executes the plan.
#[derive(Debug, Clone)]
pub struct RebalancePolicy {
    /// Queue high-water mark at which a shard counts as hot: threads
    /// scale as `1 + high_water / hot_high_water` (capped), and no
    /// migration triggers below it.
    pub hot_high_water: usize,
    /// Ceiling on per-shard scoring threads.
    pub max_shard_threads: usize,
    /// Minimum high-water gap between the hottest and coldest shard
    /// before a migration is worth its replay cost.
    pub migrate_min_imbalance: usize,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        RebalancePolicy::new()
    }
}

impl RebalancePolicy {
    /// Defaults: hot at a high-water of 64 messages, at most 4 threads
    /// per shard, migrate on an imbalance of 64.
    pub fn new() -> RebalancePolicy {
        RebalancePolicy {
            hot_high_water: 64,
            max_shard_threads: 4,
            migrate_min_imbalance: 64,
        }
    }

    /// Set the hot threshold (minimum 1).
    pub fn with_hot_high_water(mut self, messages: usize) -> RebalancePolicy {
        self.hot_high_water = messages.max(1);
        self
    }

    /// Set the per-shard thread ceiling (minimum 1).
    pub fn with_max_shard_threads(mut self, threads: usize) -> RebalancePolicy {
        self.max_shard_threads = threads.max(1);
        self
    }

    /// Set the migration imbalance threshold.
    pub fn with_migrate_min_imbalance(mut self, messages: usize) -> RebalancePolicy {
        self.migrate_min_imbalance = messages;
        self
    }

    /// Decide actions from a stats snapshot and the current placement
    /// (`placement[shard]` lists `(tenant, n_triples)` served there).
    ///
    /// Thread autosizing emits one [`RebalanceAction::SetShardThreads`]
    /// per shard whose desired size differs from its current one; the
    /// migrate-when-hot trigger emits at most one
    /// [`RebalanceAction::MigrateTenant`] per pass (move, remeasure,
    /// move again — migrations are too heavy to batch on one stale
    /// snapshot). It picks the hottest shard's largest tenant (ties to
    /// the lowest tenant id) and skips single-tenant shards, which a
    /// migration could only move, not shrink.
    pub fn plan(
        &self,
        stats: &RouterStats,
        placement: &[Vec<(TenantId, usize)>],
    ) -> Vec<RebalanceAction> {
        let mut actions = Vec::new();
        for s in &stats.shards {
            let desired = if s.max_queue_depth >= self.hot_high_water {
                (1 + s.max_queue_depth / self.hot_high_water).min(self.max_shard_threads)
            } else {
                1
            };
            if desired != s.scoring_threads {
                actions.push(RebalanceAction::SetShardThreads {
                    shard: s.shard,
                    threads: desired,
                });
            }
        }
        let hottest = stats
            .shards
            .iter()
            .max_by(|a, b| (a.max_queue_depth.cmp(&b.max_queue_depth)).then(b.shard.cmp(&a.shard)))
            .map(|s| (s.shard, s.max_queue_depth));
        let coldest = stats
            .shards
            .iter()
            .min_by_key(|s| (s.max_queue_depth, s.shard))
            .map(|s| (s.shard, s.max_queue_depth));
        if let (Some((hot, hot_hw)), Some((cold, cold_hw))) = (hottest, coldest) {
            if hot != cold
                && hot_hw >= self.hot_high_water
                && hot_hw - cold_hw >= self.migrate_min_imbalance
            {
                let tenants = placement.get(hot).map_or(&[][..], Vec::as_slice);
                if tenants.len() > 1 {
                    if let Some(&(tenant, _)) = tenants
                        .iter()
                        .max_by_key(|(t, n)| (*n, std::cmp::Reverse(t.0)))
                    {
                        actions.push(RebalanceAction::MigrateTenant {
                            tenant,
                            from: hot,
                            to: cold,
                        });
                    }
                }
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ShardStats;

    fn shard(i: usize, high_water: usize, threads: usize) -> ShardStats {
        ShardStats {
            shard: i,
            max_queue_depth: high_water,
            scoring_threads: threads,
            ..ShardStats::default()
        }
    }

    #[test]
    fn routes_file_round_trips_and_tolerates_absence() {
        let dir = std::env::temp_dir().join(format!("corrfuse-routes-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(load_routes(&dir).unwrap(), vec![]);
        let routes = vec![
            PersistedRoute {
                tenant: TenantId(3),
                shard: 1,
                fence: 42,
            },
            PersistedRoute {
                tenant: TenantId(0),
                shard: 2,
                fence: 7,
            },
        ];
        store_routes(&dir, &routes).unwrap();
        assert_eq!(load_routes(&dir).unwrap(), routes);
        // Rewrites replace atomically (no append, no tmp residue).
        store_routes(&dir, &routes[..1]).unwrap();
        assert_eq!(load_routes(&dir).unwrap(), routes[..1]);
        assert!(!routes_path(&dir).with_extension("tsv.tmp").exists());
        std::fs::write(routes_path(&dir), "not a routes file\n").unwrap();
        assert!(load_routes(&dir).is_err());
        std::fs::write(routes_path(&dir), "#corrfuse-routes v1\n1\t2\n").unwrap();
        assert!(load_routes(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fence_resolution_is_exact() {
        let route = PersistedRoute {
            tenant: TenantId(1),
            shard: 1,
            fence: 10,
        };
        assert_eq!(resolve_route(&route, 9), RouteResolution::RollBack);
        assert_eq!(resolve_route(&route, 10), RouteResolution::CutOver);
        assert_eq!(resolve_route(&route, 11), RouteResolution::CutOver);
    }

    #[test]
    fn plan_autosizes_threads_from_queue_pressure() {
        let policy = RebalancePolicy::new()
            .with_hot_high_water(10)
            .with_max_shard_threads(3)
            .with_migrate_min_imbalance(usize::MAX);
        let stats = RouterStats {
            shards: vec![shard(0, 0, 1), shard(1, 25, 1), shard(2, 500, 1)],
        };
        let actions = policy.plan(&stats, &[vec![], vec![], vec![]]);
        assert_eq!(
            actions,
            vec![
                RebalanceAction::SetShardThreads {
                    shard: 1,
                    threads: 3
                },
                RebalanceAction::SetShardThreads {
                    shard: 2,
                    threads: 3
                },
            ]
        );
        // Idle shards scale back down once pressure passes.
        let stats = RouterStats {
            shards: vec![shard(0, 0, 3)],
        };
        assert_eq!(
            policy.plan(&stats, &[vec![]]),
            vec![RebalanceAction::SetShardThreads {
                shard: 0,
                threads: 1
            }]
        );
        // A shard already at its desired size emits nothing.
        let stats = RouterStats {
            shards: vec![shard(0, 25, 3)],
        };
        assert_eq!(policy.plan(&stats, &[vec![]]), vec![]);
    }

    #[test]
    fn plan_migrates_largest_tenant_off_the_hottest_shard() {
        let policy = RebalancePolicy::new()
            .with_hot_high_water(10)
            .with_max_shard_threads(1)
            .with_migrate_min_imbalance(20);
        let stats = RouterStats {
            shards: vec![shard(0, 50, 1), shard(1, 5, 1)],
        };
        let placement = vec![
            vec![(TenantId(0), 100), (TenantId(2), 400), (TenantId(4), 400)],
            vec![(TenantId(1), 10)],
        ];
        assert_eq!(
            policy.plan(&stats, &placement),
            vec![RebalanceAction::MigrateTenant {
                tenant: TenantId(2),
                from: 0,
                to: 1
            }]
        );
        // Below the imbalance threshold: no migration.
        let mild = RouterStats {
            shards: vec![shard(0, 50, 1), shard(1, 40, 1)],
        };
        assert_eq!(policy.plan(&mild, &placement), vec![]);
        // A single-tenant hot shard cannot be shrunk by migration.
        let lonely = vec![vec![(TenantId(0), 500)], vec![(TenantId(1), 10)]];
        assert_eq!(policy.plan(&stats, &lonely), vec![]);
        // One shard: nothing to migrate to.
        let solo = RouterStats {
            shards: vec![shard(0, 500, 1)],
        };
        assert_eq!(policy.plan(&solo, &[lonely[0].clone()]), vec![]);
    }

    #[test]
    fn stage_names_render() {
        for (stage, name) in [
            (MigrationStage::Planning, "planning"),
            (MigrationStage::BulkReplay, "bulk-replay"),
            (MigrationStage::CutOver, "cut-over"),
            (MigrationStage::Commit, "commit"),
        ] {
            assert_eq!(stage.to_string(), name);
        }
    }
}

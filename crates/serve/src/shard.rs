//! Per-shard state and the worker loop: bounded queue → work-conserving
//! micro-batcher → tenant-id translation → [`StreamSession::ingest`] →
//! journal rotation.
//!
//! A shard owns one [`StreamSession`] plus the [`TenantMap`]s of every
//! tenant routed to it, all behind one mutex ([`ShardCore`]). The worker
//! thread applies a whole micro-batch under that lock, which is what
//! makes router reads snapshot-consistent: a query never observes a
//! half-applied batch. A micro-batch is the popped message plus what
//! already queued behind it: the worker never waits on a clock, so
//! batches merge only under backlog (group commit without a timer).
//!
//! # Failure containment
//!
//! Translation errors (a tenant referencing an id it never registered)
//! and ingest validation errors (a new triple without a claim) are
//! detected before any session state mutates. When a *merged*
//! micro-batch fails, the worker retries its messages individually so
//! one malformed message cannot take innocent co-tenants down with it;
//! the bad message is dropped and counted in
//! [`ShardStats::ingest_errors`]. Errors that surface *after* state may
//! have mutated (a model refresh failing on a degenerate prior, journal
//! I/O) poison the shard instead: it stops applying, refuses further
//! front-door calls with the typed
//! [`crate::ServeError::ShardPoisoned`], and reports
//! [`ShardStats::poisoned`]; the last consistent state stays readable
//! through [`crate::ShardRouter::shard_snapshot`] so an operator can
//! rebuild the shard from its journal. A panic while applying a batch
//! poisons the shard the same way: the worker catches it with the core
//! lock held, so the lock itself stays usable, though the snapshot may
//! then hold part of that batch. A worker that dies anywhere else
//! abandons its queue as it unwinds, so a flush of the shard reports
//! [`crate::ServeError::ShardPanicked`] instead of waiting. Journal
//! rotation runs outside the batch path; a rotation failure is recorded
//! but neither retries the batch nor poisons the shard.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use corrfuse_core::dataset::{Dataset, Domain, SourceId};
use corrfuse_core::error::{FusionError, Result as CoreResult};
use corrfuse_core::triple::{Triple, TripleId};
use corrfuse_obs::{Histogram, Registry, Span};
use corrfuse_stream::{Event, RefitLevel, StreamSession};

use crate::config::JournalConfig;
use crate::queue::Queue;
use crate::replica::ReplicaTap;
use crate::stats::ShardStats;
use crate::tenant::{scoped_source_name, scoped_triple, TenantId, TenantMap};

/// One routed message: a tenant's micro-batch of tenant-local events.
#[derive(Debug)]
pub(crate) struct Msg {
    pub tenant: TenantId,
    pub events: Vec<Event>,
    /// Started at the front-door enqueue, read at the worker's pop;
    /// live only when the router records metrics, so the unobserved
    /// path never reads the clock.
    pub queued: Span,
}

/// Pre-resolved metric handles for one shard worker. Built once at
/// router start from [`crate::RouterConfig::metrics`], so the hot path
/// records into `Arc<Histogram>`s without any registry lookup. Metric
/// names are the catalog in `docs/OBSERVABILITY.md`; histograms are
/// shared across shards (one series per stage, per-shard attribution
/// comes from the trace ring's labels and `ShardStats`).
#[derive(Debug)]
pub(crate) struct ShardSpans {
    pub registry: Arc<Registry>,
    /// Trace-ring label, `shard-<i>`.
    pub label: String,
    /// Front-door enqueue → worker pop, per message.
    pub queue_wait: Arc<Histogram>,
    /// First pop → already-queued messages drained, per batch.
    pub assembly: Arc<Histogram>,
    /// Session apply, rescore and journal time, per batch.
    pub ingest: Arc<Histogram>,
    /// Refit stage on `RefitLevel::Model` batches.
    pub refit_model: Arc<Histogram>,
    /// Refit stage on `RefitLevel::Cluster` batches.
    pub refit_cluster: Arc<Histogram>,
    /// Refit stage on `RefitLevel::Full` batches.
    pub refit_full: Arc<Histogram>,
    /// Re-scoring stage (observation patterns solved through the engine).
    pub rescore: Arc<Histogram>,
    /// Lift-sketch admission / candidate-rescan stage.
    pub sketch: Arc<Histogram>,
    /// Journal append + fsync, per batch (journaling shards only).
    pub journal: Arc<Histogram>,
}

impl ShardSpans {
    pub fn new(registry: Arc<Registry>, shard: usize) -> ShardSpans {
        ShardSpans {
            label: format!("shard-{shard}"),
            queue_wait: registry.histogram("serve_queue_wait_ns"),
            assembly: registry.histogram("serve_batch_assembly_ns"),
            ingest: registry.histogram("stream_ingest_ns"),
            refit_model: registry.histogram("stream_refit_model_ns"),
            refit_cluster: registry.histogram("stream_refit_cluster_ns"),
            refit_full: registry.histogram("stream_refit_full_ns"),
            rescore: registry.histogram("stream_rescore_ns"),
            sketch: registry.histogram("stream_sketch_ns"),
            journal: registry.histogram("stream_journal_ns"),
            registry,
        }
    }
}

/// Permanent poison marker of one shard, shared between the worker
/// (which sets it once, under the core lock) and the router front door
/// (which checks it lock-free so ingest and queries can refuse with
/// [`crate::ServeError::ShardPoisoned`] without waiting behind a batch
/// apply).
pub(crate) type PoisonCell = OnceLock<String>;

/// The lockable state of one shard.
#[derive(Debug)]
pub(crate) struct ShardCore {
    pub session: StreamSession,
    pub tenants: HashMap<TenantId, TenantMap>,
    /// Next shard-global domain to allocate for a tenant-local domain.
    pub next_domain: u32,
    pub stats: ShardStats,
    /// Batches appended to the journal since the last rotation.
    pub batches_since_rotation: u64,
    /// Set when a post-validation ingest error (model refresh, journal
    /// I/O) left the session in an undefined state. A poisoned shard
    /// stops applying messages — racing messages already queued are
    /// dropped and counted as errors, new front-door calls are refused
    /// with a typed [`crate::ServeError::ShardPoisoned`] — and its
    /// last consistent state stays readable through
    /// [`crate::ShardRouter::shard_snapshot`]; rebuild it from the
    /// journal to recover.
    pub poison: Arc<PoisonCell>,
    /// Leader-side replication tap; `Some` only when the router runs
    /// with [`crate::RouterConfig::replication`]. Published to under
    /// this same lock right after the session commits a batch, so
    /// subscribers see exactly the committed epoch sequence.
    pub tap: Option<ReplicaTap>,
}

/// Lock one shard's core. A poisoned lock panics. The shard worker
/// catches a panicking batch apply without poisoning this lock
/// ([`contain_panic`]), so only a panic in another holder (a read, a
/// stats pass, a migration step) poisons it.
pub(crate) fn lock_core(core: &Mutex<ShardCore>) -> MutexGuard<'_, ShardCore> {
    core.lock().expect("shard core lock")
}

/// The router-side handle of one shard.
#[derive(Debug)]
pub(crate) struct ShardHandle {
    /// The shard's queue, its message ledger and its flush barrier.
    pub queue: Arc<Queue<Msg>>,
    pub core: Arc<Mutex<ShardCore>>,
    /// Lock-free view of the shard's poison marker (shared with
    /// [`ShardCore::poison`]).
    pub poison: Arc<PoisonCell>,
    /// The shard's one ack mark: the highest epoch any follower has
    /// acknowledged applying (0 before the first ack), raised through
    /// each [`crate::Subscription::ack`]. Shard epoch minus this is the
    /// shard's replication lag in batches.
    pub acked_epoch: Arc<AtomicU64>,
}

/// Everything a worker thread needs.
pub(crate) struct WorkerParams {
    pub queue: Arc<Queue<Msg>>,
    pub core: Arc<Mutex<ShardCore>>,
    pub max_batch_events: usize,
    pub journal: Option<JournalConfig>,
    /// Metric handles; `Some` only when the router records metrics.
    pub spans: Option<Arc<ShardSpans>>,
}

/// The shard worker loop. Blocks for one message, adds the messages
/// already queued behind it until the batch holds `max_batch_events`
/// events, applies the batch under the core lock, reports the messages
/// done to the queue, and seals the journal on exit (queue closed and
/// drained). However it ends, returning or unwinding, it abandons the
/// queue, so every flush waiting on this shard wakes.
pub(crate) fn run_worker(p: WorkerParams) {
    let _abandon = Abandon(&p.queue);
    let spans = p.spans.as_deref();
    while let Some(first) = p.queue.pop() {
        let assembly = Span::start(spans.is_some());
        if let Some(sp) = spans {
            first.queued.record(&sp.queue_wait);
        }
        let mut n_events = first.events.len();
        let mut msgs = vec![first];
        // The drain never waits: an empty queue ends it (and a closed one
        // ends the loop at the next pop).
        while n_events < p.max_batch_events {
            let Some(m) = p.queue.try_pop() else {
                break;
            };
            if let Some(sp) = spans {
                m.queued.record(&sp.queue_wait);
            }
            n_events += m.events.len();
            msgs.push(m);
        }
        if let Some(sp) = spans {
            assembly.record(&sp.assembly);
        }
        contain_panic(&mut lock_core(&p.core), msgs.len(), |core| {
            apply_batch(core, &msgs, p.journal.as_ref(), spans);
        });
        p.queue.done(msgs.len() as u64);
    }
    let mut core = lock_core(&p.core);
    if let Err(e) = core.session.seal_journal() {
        core.stats.last_error = Some(format!("journal seal failed: {e}"));
    }
    if let Some(tap) = &mut core.tap {
        // Followers drain what is buffered, then observe the close and
        // know the leader is gone.
        tap.close();
    }
}

/// Abandons the worker's queue when dropped. The queue lock is never
/// poisoned (see `queue`), so this cannot panic while a dying worker
/// unwinds.
struct Abandon<'a>(&'a Queue<Msg>);

impl Drop for Abandon<'_> {
    fn drop(&mut self) {
        self.0.abandon();
    }
}

/// Apply one worker micro-batch, then (separately) consider journal
/// rotation. A merged batch whose *input* is bad is retried message by
/// message; a poisoned shard applies nothing and counts every message as
/// an error. Rotation failures are recorded but never retried and never
/// conflated with batch failures — the journal is merely still large.
pub(crate) fn apply_batch(
    core: &mut ShardCore,
    msgs: &[Msg],
    journal: Option<&JournalConfig>,
    spans: Option<&ShardSpans>,
) {
    if msgs.is_empty() {
        return;
    }
    if core.poison.get().is_some() {
        refuse_poisoned(core, msgs.len());
        return;
    }
    match try_apply(core, msgs, spans) {
        Ok(()) => {}
        Err(_) if msgs.len() > 1 && core.poison.get().is_none() => {
            // The merged pre-validation failed on some message's input;
            // retry individually so innocent co-tenants aren't dropped.
            for m in msgs {
                if core.poison.get().is_some() {
                    refuse_poisoned(core, 1);
                    continue;
                }
                if let Err(e) = try_apply(core, std::slice::from_ref(m), spans) {
                    record_error(core, m.tenant, &e);
                }
            }
        }
        Err(e) => record_error(core, msgs[0].tenant, &e),
    }
    if let Err(e) = maybe_rotate(core, journal) {
        core.stats.last_error = Some(format!("journal rotation failed: {e}"));
    }
}

/// Run one batch `apply` on the locked core with a panic contained to
/// this shard. The caller holds the guard outside the closure, so an
/// unwinding apply never poisons the core lock: the panic poisons the
/// shard instead (its message becomes the [`PoisonCell`] reason) and
/// the batch's `n_msgs` messages count as dropped. The worker then
/// serves on as for any poisoned shard: it refuses what is queued,
/// flushes complete, and reads answer [`crate::ServeError::ShardPoisoned`].
fn contain_panic(core: &mut ShardCore, n_msgs: usize, apply: impl FnOnce(&mut ShardCore)) {
    let Err(payload) = catch_unwind(AssertUnwindSafe(|| apply(&mut *core))) else {
        return;
    };
    let message = payload
        .downcast_ref::<&str>()
        .map(|m| (*m).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    let _ = core.poison.set(format!("batch apply panicked: {message}"));
    refuse_poisoned(core, n_msgs);
}

fn record_error(core: &mut ShardCore, tenant: TenantId, e: &FusionError) {
    core.stats.ingest_errors += 1;
    core.stats.last_error = Some(format!("{tenant}: {e}"));
}

fn refuse_poisoned(core: &mut ShardCore, n_msgs: usize) {
    core.stats.ingest_errors += n_msgs as u64;
    core.stats.last_error = Some(format!(
        "shard poisoned, message dropped: {}",
        core.poison.get().map(String::as_str).unwrap_or("unknown")
    ));
}

/// Input errors are detected before any session state mutates (the
/// translation layer plus `IncrementalFuser::validate_batch`); they are
/// safe to drop and move on from. Any *other* ingest error surfaced
/// after the dataset may have advanced (model refresh, journal I/O)
/// leaves the session in an undefined state — the shard must stop
/// applying (see [`ShardCore::poisoned`]).
fn is_input_error(e: &FusionError) -> bool {
    matches!(
        e,
        FusionError::UnknownSource(_)
            | FusionError::TripleOutOfRange(_)
            | FusionError::UnobservedTriple(_)
    )
}

/// Translate + ingest one batch, committing tenant-map growth only once
/// the shard dataset actually absorbed it.
fn try_apply(core: &mut ShardCore, msgs: &[Msg], spans: Option<&ShardSpans>) -> CoreResult<()> {
    let ShardCore {
        session,
        tenants,
        next_domain,
        stats,
        batches_since_rotation,
        poison,
        tap,
    } = core;
    let tr = translate(tenants, session.dataset(), *next_domain, msgs)?;
    let dims_before = (session.dataset().n_sources(), session.dataset().n_triples());
    let result = session.ingest(&tr.events);
    let dims_after = (session.dataset().n_sources(), session.dataset().n_triples());
    // Input errors are detected before any mutation, so a failed ingest
    // normally discards the pending maps with the batch. The exception is
    // an error *after* the dataset advanced (e.g. a journal I/O failure):
    // then the maps must advance too or the tenants' ids would detach
    // from the shard's.
    if result.is_ok() || dims_after != dims_before {
        *next_domain = tr.next_domain;
        for (tenant, delta) in tr.pending {
            let map = tenants.entry(tenant).or_default();
            map.sources.extend(delta.sources);
            map.triples.extend(delta.triples);
            map.domains.extend(delta.domains);
        }
    }
    let delta = match result {
        Ok(delta) => delta,
        Err(e) => {
            if !is_input_error(&e) {
                let _ = poison.set(e.to_string());
            }
            return Err(e);
        }
    };
    // The session's own clock: apply and rescore, then the journal.
    let ns = delta.elapsed_ns + delta.journal_ns;
    if let Some(tap) = tap {
        // Publish under the same lock that committed the batch: the
        // session's post-commit epoch stamps it, and subscription
        // registration (also under this lock) can never race a batch
        // into both the snapshot and the queue.
        tap.publish(session.epoch(), &tr.events);
    }
    stats.batches += 1;
    if msgs.len() > 1 {
        stats.merged_batches += 1;
    }
    stats.ingested_events += tr.events.len() as u64;
    stats.max_batch_events = stats.max_batch_events.max(tr.events.len() as u64);
    stats.max_ingest_ns = stats.max_ingest_ns.max(ns);
    stats.rescored += delta.rescored.len() as u64;
    stats.flips += delta.flips.len() as u64;
    match delta.refit {
        RefitLevel::None => stats.ingest_ns_none += ns,
        RefitLevel::Model => {
            stats.refit_model += 1;
            stats.ingest_ns_model += ns;
        }
        RefitLevel::Cluster => {
            stats.refit_cluster += 1;
            stats.ingest_ns_cluster += ns;
        }
        RefitLevel::Full => {
            stats.refit_full += 1;
            stats.ingest_ns_full += ns;
        }
    }
    if let Some(r) = delta.reconcile {
        stats.cluster_units_reused += r.reused as u64;
        stats.cluster_units_rebuilt += r.rebuilt as u64;
    }
    if let Some(sp) = spans {
        sp.ingest.record(ns);
        if delta.journal_ns > 0 {
            sp.journal.record(delta.journal_ns);
        }
        let st = delta.stages;
        match delta.refit {
            RefitLevel::None => {}
            RefitLevel::Model => sp.refit_model.record(st.refit_ns),
            RefitLevel::Cluster => sp.refit_cluster.record(st.refit_ns),
            RefitLevel::Full => sp.refit_full.record(st.refit_ns),
        }
        sp.rescore.record(st.rescore_ns);
        sp.sketch.record(st.sketch_ns);
        sp.registry.traces().push(
            &sp.label,
            ns,
            vec![
                ("sketch".to_string(), st.sketch_ns),
                ("refit".to_string(), st.refit_ns),
                ("rescore".to_string(), st.rescore_ns),
                ("journal".to_string(), delta.journal_ns),
            ],
        );
    }
    *batches_since_rotation += 1;
    Ok(())
}

fn maybe_rotate(core: &mut ShardCore, journal: Option<&JournalConfig>) -> CoreResult<()> {
    let due = journal
        .and_then(|cfg| cfg.rotate_max_batches)
        .is_some_and(|max| core.batches_since_rotation >= max);
    if due && core.session.journal_bytes().is_some() {
        core.session.rotate_journal()?;
        core.stats.rotations += 1;
        core.batches_since_rotation = 0;
    }
    Ok(())
}

/// Owned result of translating queued messages against a core snapshot:
/// the shard-space events plus the tenant-map growth to commit on
/// success.
struct Translated {
    events: Vec<Event>,
    pending: HashMap<TenantId, TenantMap>,
    next_domain: u32,
}

/// Rewrite tenant-local events into the shard session's id spaces. Pure
/// with respect to the core (returns owned growth), so a failed batch
/// leaves no trace.
fn translate(
    tenants: &HashMap<TenantId, TenantMap>,
    ds: &Dataset,
    mut next_domain: u32,
    msgs: &[Msg],
) -> CoreResult<Translated> {
    let mut events = Vec::new();
    let mut pending: HashMap<TenantId, TenantMap> = HashMap::new();
    // Content introduced earlier in this same (possibly merged) batch,
    // which the session has not interned yet.
    let mut batch_names: HashMap<String, SourceId> = HashMap::new();
    let mut batch_triples: HashMap<Triple, TripleId> = HashMap::new();
    let mut n_sources = ds.n_sources();
    let mut n_triples = ds.n_triples();
    for msg in msgs {
        let tenant = msg.tenant;
        for ev in &msg.events {
            match ev {
                Event::AddSource { name } => {
                    let scoped = scoped_source_name(tenant, name);
                    let known =
                        ds.source_by_name(&scoped).is_some() || batch_names.contains_key(&scoped);
                    if !known {
                        let id = SourceId(n_sources as u32);
                        n_sources += 1;
                        batch_names.insert(scoped.clone(), id);
                        pending.entry(tenant).or_default().sources.push(id);
                        events.push(Event::AddSource { name: scoped });
                    }
                }
                Event::AddTriple { triple, domain } => {
                    let scoped = scoped_triple(tenant, triple);
                    let known =
                        ds.triple_id(&scoped).is_some() || batch_triples.contains_key(&scoped);
                    if !known {
                        let id = TripleId(n_triples as u32);
                        n_triples += 1;
                        let shard_domain =
                            domain_of(tenants, &mut pending, &mut next_domain, tenant, *domain);
                        batch_triples.insert(scoped.clone(), id);
                        pending.entry(tenant).or_default().triples.push(id);
                        events.push(Event::AddTriple {
                            triple: scoped,
                            domain: shard_domain,
                        });
                    }
                }
                Event::Claim { source, triple } => {
                    let s = lookup_source(tenants, &pending, tenant, *source).ok_or_else(|| {
                        FusionError::UnknownSource(format!("{tenant} local {source}"))
                    })?;
                    let t = lookup_triple(tenants, &pending, tenant, *triple)
                        .ok_or(FusionError::TripleOutOfRange(triple.index()))?;
                    events.push(Event::Claim {
                        source: s,
                        triple: t,
                    });
                }
                Event::Label { triple, truth } => {
                    let t = lookup_triple(tenants, &pending, tenant, *triple)
                        .ok_or(FusionError::TripleOutOfRange(triple.index()))?;
                    events.push(Event::Label {
                        triple: t,
                        truth: *truth,
                    });
                }
            }
        }
    }
    Ok(Translated {
        events,
        pending,
        next_domain,
    })
}

/// Resolve a tenant-local source id: the committed map first, then the
/// ids this batch is introducing.
fn lookup_source(
    tenants: &HashMap<TenantId, TenantMap>,
    pending: &HashMap<TenantId, TenantMap>,
    tenant: TenantId,
    local: SourceId,
) -> Option<SourceId> {
    let committed = tenants.get(&tenant).map_or(&[][..], |m| &m.sources[..]);
    if let Some(&id) = committed.get(local.index()) {
        return Some(id);
    }
    pending
        .get(&tenant)?
        .sources
        .get(local.index() - committed.len())
        .copied()
}

/// Resolve a tenant-local triple id; see [`lookup_source`].
fn lookup_triple(
    tenants: &HashMap<TenantId, TenantMap>,
    pending: &HashMap<TenantId, TenantMap>,
    tenant: TenantId,
    local: TripleId,
) -> Option<TripleId> {
    let committed = tenants.get(&tenant).map_or(&[][..], |m| &m.triples[..]);
    if let Some(&id) = committed.get(local.index()) {
        return Some(id);
    }
    pending
        .get(&tenant)?
        .triples
        .get(local.index() - committed.len())
        .copied()
}

/// Resolve (or allocate) the shard-global domain of a tenant-local
/// domain.
fn domain_of(
    tenants: &HashMap<TenantId, TenantMap>,
    pending: &mut HashMap<TenantId, TenantMap>,
    next_domain: &mut u32,
    tenant: TenantId,
    local: Domain,
) -> Domain {
    if let Some(&d) = tenants.get(&tenant).and_then(|m| m.domains.get(&local)) {
        return d;
    }
    let pend = pending.entry(tenant).or_default();
    if let Some(&d) = pend.domains.get(&local) {
        return d;
    }
    let d = Domain(*next_domain);
    *next_domain += 1;
    pend.domains.insert(local, d);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Backpressure;
    use crate::router::merge_seeds;
    use corrfuse_core::dataset::DatasetBuilder;
    use corrfuse_core::engine::ScoringEngine;
    use corrfuse_core::fuser::{FuserConfig, Method};

    /// A tenant seed: source 0 claims one true and one false triple.
    fn seed() -> Dataset {
        let mut b = DatasetBuilder::new();
        let (s, t1) = b.observe_named("A", "x", "p", "1");
        b.label(t1, true);
        let t2 = b.triple("y", "p", "2");
        b.observe(s, t2);
        b.label(t2, false);
        b.build().unwrap()
    }

    /// Two events: tenant-local triple `local` (2 onwards) claimed by
    /// source 0.
    fn grow(tenant: u32, local: u32) -> Msg {
        let events = vec![
            Event::add_triple("z", "p", local.to_string()),
            Event::claim(SourceId(0), TripleId(local)),
        ];
        msg(tenant, events)
    }

    fn msg(tenant: u32, events: Vec<Event>) -> Msg {
        Msg {
            tenant: TenantId(tenant),
            events,
            queued: Span::disabled(),
        }
    }

    /// A two-tenant shard core over [`seed`].
    fn two_tenant_core() -> ShardCore {
        let (ds, tenants, next_domain) =
            merge_seeds(&[(TenantId(0), seed()), (TenantId(1), seed())]).unwrap();
        let config = FuserConfig::new(Method::PrecRec).with_alpha(0.5);
        ShardCore {
            session: StreamSession::with_engine(config, ds, ScoringEngine::serial()).unwrap(),
            tenants,
            next_domain,
            stats: ShardStats::default(),
            batches_since_rotation: 0,
            poison: Arc::default(),
            tap: None,
        }
    }

    /// Run a worker over a two-tenant shard whose queue was filled with
    /// `msgs` and closed before the worker started, so every message is
    /// already queued at its first pop; returns the core it left and the
    /// queue's done count.
    fn run_queued(msgs: Vec<Msg>, max_batch_events: usize) -> (ShardCore, u64) {
        let core = Arc::new(Mutex::new(two_tenant_core()));
        let queue = Arc::new(Queue::new(msgs.len()));
        for m in msgs {
            queue.push(m, Backpressure::Reject).unwrap();
        }
        queue.close();
        run_worker(WorkerParams {
            queue: Arc::clone(&queue),
            core: Arc::clone(&core),
            max_batch_events,
            journal: None,
            spans: None,
        });
        let core = Arc::try_unwrap(core).unwrap().into_inner().unwrap();
        (core, queue.counts().done)
    }

    #[test]
    fn queued_messages_apply_as_one_batch() {
        let (core, done) = run_queued(vec![grow(0, 2), grow(1, 2), grow(0, 3)], 256);
        assert_eq!(core.stats.batches, 1);
        assert_eq!(core.stats.merged_batches, 1);
        assert_eq!(done, 3);
        assert_eq!(core.session.dataset().n_triples(), 4 + 3);
    }

    #[test]
    fn max_batch_events_splits_a_backlog() {
        // Two events per message: a batch stops after its second message.
        let msgs = (2..7).map(|local| grow(0, local)).collect();
        let (core, done) = run_queued(msgs, 4);
        assert_eq!(core.stats.batches, 3);
        assert_eq!(core.stats.merged_batches, 2);
        assert_eq!(core.stats.max_batch_events, 4);
        assert_eq!(done, 5);
    }

    #[test]
    fn merged_failure_retries_and_drops_only_the_bad_message() {
        let bad = msg(0, vec![Event::claim(SourceId(0), TripleId(9_999_999))]);
        let (core, done) = run_queued(vec![bad, grow(1, 2)], 256);
        assert_eq!(core.stats.ingest_errors, 1);
        let err = core.stats.last_error.as_deref().unwrap_or_default();
        assert!(err.contains("tenant-0"), "unexpected error: {err}");
        assert_eq!(core.stats.batches, 1);
        assert_eq!(done, 2);
        assert_eq!(core.tenants[&TenantId(0)].triples.len(), 2);
        assert_eq!(core.tenants[&TenantId(1)].triples.len(), 3);
        assert!(core.poison.get().is_none());
    }

    #[test]
    fn a_panicking_apply_poisons_the_shard_not_its_lock() {
        let core = Mutex::new(two_tenant_core());
        {
            let mut guard = core.lock().unwrap();
            contain_panic(&mut guard, 2, |_| panic!("apply blew up"));
        }
        let mut guard = core.lock().expect("the core lock is not poisoned");
        let reason = guard.poison.get().expect("the shard is poisoned");
        assert!(
            reason.contains("apply blew up"),
            "unexpected reason: {reason}"
        );
        assert_eq!(guard.stats.ingest_errors, 2);

        // The next message is refused and counted, and nothing applies.
        apply_batch(&mut guard, &[grow(0, 2)], None, None);
        assert_eq!(guard.stats.ingest_errors, 3);
        let err = guard.stats.last_error.as_deref().unwrap_or_default();
        assert!(err.contains("shard poisoned"), "unexpected error: {err}");
        assert_eq!(guard.session.dataset().n_triples(), 4);
        assert_eq!(guard.stats.batches, 0);
    }
}

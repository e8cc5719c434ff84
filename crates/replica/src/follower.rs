//! The [`Follower`]: one replication link per leader shard, applying
//! the leader's committed-batch stream through the incremental path and
//! serving bounded-staleness reads from the resulting warm state.
//!
//! ```text
//!  leader Server ── SUBSCRIBE_OK ──▶ link thread (one per shard)
//!        │                              │ BATCH{epoch, codec text}
//!        │◀─── EPOCH_ACK{shard,epoch} ──┤
//!        │                              ▼
//!        │                    StreamSession::ingest (delta path)
//!        │                              │ epoch advances, Condvar wakes
//!        │                              ▼
//!        └─ reads stay on the leader   scores_at / decisions_at / stats_at
//! ```
//!
//! Each link dials the leader, handshakes `HELLO`, and subscribes with
//! `from_epoch` = the epoch this follower has fully applied — or the
//! [`BOOTSTRAP_EPOCH`] sentinel when it holds no state, which always
//! forces a snapshot start. Batches must arrive in exact epoch sequence
//! (`applied + 1`); any gap or duplicate is a protocol violation that
//! drops the link, and the next dial resubscribes from the applied
//! epoch. A follower that fell behind the leader's backlog is
//! disconnected by the tap and bootstraps again from a fresh snapshot.
//! Every transition is crash-shaped: state is only ever "snapshot at
//! epoch e, plus the batches e+1..=k applied in order", which is exactly
//! the state the trust anchor pins bitwise against a from-scratch
//! `Fuser::fit + score_all` on the leader's dataset.

use std::collections::HashMap;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use corrfuse_core::error::FusionError;
use corrfuse_net::client::{hello, read_response};
use corrfuse_net::{Client, ClientConfig, Frame, NetError, Request, Response};
use corrfuse_obs::{Counter, Histogram};
use corrfuse_serve::{
    derive_tenant_maps, extend_tenant_maps, ServeError, SubscriptionStart, TenantId, TenantMap,
};
use corrfuse_stream::StreamSession;

use crate::config::FollowerConfig;
use crate::error::{ReplicaError, Result};

/// The `from_epoch` sentinel a follower with no local state sends in
/// `SUBSCRIBE`: it can never be covered by the leader's backlog, so the
/// leader always answers with a snapshot start. (`from_epoch = 0` would
/// instead claim the follower already holds the leader's epoch-0 seed
/// state, which a brand-new follower does not.)
pub const BOOTSTRAP_EPOCH: u64 = u64::MAX;

/// One shard's replicated state and apply-side counters.
#[derive(Debug, Default)]
struct ShardState {
    /// The replica session: `None` until the first snapshot bootstrap
    /// (or journal recovery) lands. Reads against a session-less shard
    /// wait, then report `STALE` at epoch 0.
    session: Option<StreamSession>,
    /// Tenant views derived from the (namespaced) shard dataset,
    /// extended incrementally as batches register new sources/triples.
    maps: HashMap<TenantId, TenantMap>,
    batches_applied: u64,
    events_applied: u64,
    apply_errors: u64,
    /// Successfully established subscriptions on this shard's link.
    subscriptions: u64,
    /// Snapshot bootstraps performed (0 when every link resumed).
    snapshots: u64,
}

impl ShardState {
    fn epoch(&self) -> u64 {
        self.session.as_ref().map_or(0, StreamSession::epoch)
    }
}

/// One shard's slot: state + catch-up signal + the live link socket
/// (kept so shutdown and the [`Follower::disconnect_all`] test hook can
/// unblock a link parked in a read).
#[derive(Debug)]
struct Slot {
    state: Mutex<ShardState>,
    caught_up: Condvar,
    conn: Mutex<Option<TcpStream>>,
}

impl Slot {
    /// Lock the shard's state. A poisoned lock panics. A panicking batch
    /// apply leaves it unpoisoned (`contain_apply`), so only a panic in
    /// another holder poisons it.
    fn state(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock().expect("shard state lock")
    }

    /// Lock the live link socket. A poisoned lock panics, as in `state`.
    fn conn(&self) -> MutexGuard<'_, Option<TcpStream>> {
        self.conn.lock().expect("conn lock")
    }
}

/// Replication counters shared by every link thread (present only when
/// the follower runs with a metrics registry).
#[derive(Debug)]
struct LinkMetrics {
    apply_ns: Arc<Histogram>,
    batches: Arc<Counter>,
    resubscribes: Arc<Counter>,
    snapshots: Arc<Counter>,
}

#[derive(Debug)]
struct Shared {
    addr: String,
    config: FollowerConfig,
    slots: Vec<Slot>,
    metrics: Option<LinkMetrics>,
    stop: AtomicBool,
}

/// Per-shard follower statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowerShardStats {
    /// The shard index (matching the leader's).
    pub shard: usize,
    /// The epoch this follower has fully applied on the shard.
    pub applied_epoch: u64,
    /// Tenants visible in the replicated shard dataset.
    pub tenants: usize,
    /// Batches applied through the incremental path.
    pub batches_applied: u64,
    /// Events inside those batches.
    pub events_applied: u64,
    /// Batches that failed to apply, and follower journals that would
    /// not open at a cold restart (each discards the shard state and
    /// forces a fresh snapshot bootstrap).
    pub apply_errors: u64,
    /// Subscriptions established (1 = the initial link never broke).
    pub subscriptions: u64,
    /// Snapshot bootstraps performed.
    pub snapshots: u64,
}

/// Follower-wide statistics: one entry per shard, in shard order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowerStats {
    /// Per-shard entries.
    pub shards: Vec<FollowerShardStats>,
}

impl FollowerStats {
    /// Each shard's applied epoch, in shard order.
    pub fn applied_epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.applied_epoch).collect()
    }
}

/// A read replica of one leader; see the module docs.
#[derive(Debug)]
pub struct Follower {
    shared: Arc<Shared>,
    links: Mutex<Vec<JoinHandle<()>>>,
}

impl Follower {
    /// Connect to a leader: probe its shard count over a throwaway
    /// `STATS` exchange, recover any follower-side journals from
    /// [`FollowerConfig::journal_dir`], and start one replication link
    /// per shard. A journal that does not decode or replay counts one
    /// apply error, and its shard bootstraps from a snapshot, which
    /// rewrites the file. Returns immediately; reads gate on catch-up via
    /// `min_epoch` (or poll [`Follower::applied_epochs`]).
    pub fn connect(addr: impl Into<String>, config: FollowerConfig) -> Result<Follower> {
        let addr = addr.into();
        let probe = ClientConfig::new().with_connect_retries(0, Duration::ZERO);
        let n_shards = Client::connect_with(&addr, probe)?.stats()?.shards.len();
        if n_shards == 0 {
            return Err(ReplicaError::Protocol(
                "leader reports zero shards".to_string(),
            ));
        }
        if let Some(dir) = &config.journal_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| NetError::Io(format!("create journal dir: {e}")))?;
        }
        let mut slots = Vec::with_capacity(n_shards);
        for shard in 0..n_shards {
            let mut state = ShardState::default();
            if let Some(dir) = &config.journal_dir {
                let path = journal_path(dir, shard);
                if path.exists() {
                    // Cold restart: rebuild from the local journal and
                    // resubscribe from the recovered epoch instead of
                    // pulling a full snapshot again. A journal that will
                    // not decode or replay counts as a failed apply: the
                    // shard starts without a session, so its link
                    // bootstraps and rewrites the file. An I/O error
                    // stays fatal, as the rewrite needs the same file.
                    match StreamSession::recover(config.fuser.clone(), &path, config.fsync) {
                        Ok((session, _)) => {
                            state.maps = derive_tenant_maps(session.dataset());
                            state.session = Some(session);
                        }
                        Err(e @ FusionError::Io(_)) => return Err(e.into()),
                        Err(_) => state.apply_errors += 1,
                    }
                }
            }
            slots.push(Slot {
                state: Mutex::new(state),
                caught_up: Condvar::new(),
                conn: Mutex::new(None),
            });
        }
        let metrics = config.metrics.as_ref().map(|r| LinkMetrics {
            apply_ns: r.histogram("replica_apply_ns"),
            batches: r.counter("replica_batches_applied"),
            resubscribes: r.counter("replica_resubscribes"),
            snapshots: r.counter("replica_snapshots"),
        });
        let shared = Arc::new(Shared {
            addr,
            config,
            slots,
            metrics,
            stop: AtomicBool::new(false),
        });
        let links = (0..n_shards)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("corrfuse-replica-{shard}"))
                    .spawn(move || run_link_loop(&shared, shard))
                    .map_err(|e| ReplicaError::Net(NetError::Io(e.to_string())))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Follower {
            shared,
            links: Mutex::new(links),
        })
    }

    /// The leader's address.
    pub fn addr(&self) -> &str {
        &self.shared.addr
    }

    /// Number of shards replicated (the leader's shard count).
    pub fn n_shards(&self) -> usize {
        self.shared.slots.len()
    }

    /// The shard a read of `tenant` goes to: its static placement,
    /// [`TenantId::home_shard`]. A follower does not see migrations, so
    /// this is the leader's
    /// [`corrfuse_serve::ShardRouter::shard_of`] only for a tenant that
    /// was never migrated.
    pub fn shard_of(&self, tenant: TenantId) -> usize {
        tenant.home_shard(self.n_shards())
    }

    /// Each shard's fully-applied epoch, in shard order.
    pub fn applied_epochs(&self) -> Vec<u64> {
        self.shared
            .slots
            .iter()
            .map(|s| s.state().epoch())
            .collect()
    }

    /// Per-shard replication statistics.
    pub fn stats(&self) -> FollowerStats {
        let shards = self
            .shared
            .slots
            .iter()
            .enumerate()
            .map(|(shard, slot)| {
                let st = slot.state();
                FollowerShardStats {
                    shard,
                    applied_epoch: st.epoch(),
                    tenants: st.maps.len(),
                    batches_applied: st.batches_applied,
                    events_applied: st.events_applied,
                    apply_errors: st.apply_errors,
                    subscriptions: st.subscriptions,
                    snapshots: st.snapshots,
                }
            })
            .collect();
        FollowerStats { shards }
    }

    /// Posterior scores of `tenant` in tenant-local `TripleId` order,
    /// from whatever epoch the replica has applied (no staleness bound).
    pub fn scores(&self, tenant: TenantId) -> Result<Vec<f64>> {
        self.scores_at(tenant, 0)
    }

    /// Bounded-staleness scores: waits up to
    /// [`FollowerConfig::catchup_timeout`] for the tenant's shard to
    /// reach `min_epoch`, then answers bitwise identically to the leader
    /// at that epoch; a shard still behind reports the retryable
    /// [`ServeError::Stale`].
    pub fn scores_at(&self, tenant: TenantId, min_epoch: u64) -> Result<Vec<f64>> {
        self.with_tenant_at(tenant, min_epoch, |session, map| {
            map.project(session.scores(), |p| p)
        })
    }

    /// Accept/reject decisions of `tenant` at the leader's threshold,
    /// which the shard took from its snapshot or its journal.
    pub fn decisions(&self, tenant: TenantId) -> Result<Vec<bool>> {
        self.decisions_at(tenant, 0)
    }

    /// Bounded-staleness decisions; see [`Follower::scores_at`].
    pub fn decisions_at(&self, tenant: TenantId, min_epoch: u64) -> Result<Vec<bool>> {
        self.with_tenant_at(tenant, min_epoch, |session, map| {
            let threshold = session.threshold();
            map.project(session.scores(), |p| p > threshold)
        })
    }

    /// Every tenant read, as on the leader: the tenant's shard, caught
    /// up to `min_epoch` (0: no floor), read under its state lock.
    fn with_tenant_at<R>(
        &self,
        tenant: TenantId,
        min_epoch: u64,
        f: impl FnOnce(&StreamSession, &TenantMap) -> R,
    ) -> Result<R> {
        let st = self.state_at(self.shard_of(tenant), min_epoch)?;
        let map = st
            .maps
            .get(&tenant)
            .ok_or(ServeError::UnknownTenant(tenant))?;
        Ok(f(st.session.as_ref().expect("caught-up session"), map))
    }

    /// Follower statistics once **every** shard has reached `min_epoch`
    /// (waiting like [`Follower::scores_at`]); the first shard still
    /// behind reports [`ServeError::Stale`].
    pub fn stats_at(&self, min_epoch: u64) -> Result<FollowerStats> {
        for shard in 0..self.n_shards() {
            drop(self.state_at(shard, min_epoch)?);
        }
        Ok(self.stats())
    }

    /// The metrics registry this follower records into, if any.
    pub fn metrics_registry(&self) -> Option<&Arc<corrfuse_obs::Registry>> {
        self.shared.config.metrics.as_ref()
    }

    /// Test hook: sever every live leader link (as a flaky network
    /// would). Links notice, re-dial, and resubscribe from their applied
    /// epochs; replicated state is untouched.
    pub fn disconnect_all(&self) {
        for slot in &self.shared.slots {
            if let Some(conn) = slot.conn().take() {
                let _ = conn.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Stop every link, seal the follower-side journals and join the
    /// threads. Replicated state remains readable through this handle
    /// until drop.
    pub fn shutdown(&self) {
        self.stop_and_join();
    }

    /// Wait (with the catch-up timeout) for `shard` to hold a session at
    /// `min_epoch` or later, and return the locked state.
    fn state_at(&self, shard: usize, min_epoch: u64) -> Result<MutexGuard<'_, ShardState>> {
        let slot = &self.shared.slots[shard];
        let deadline = Instant::now() + self.shared.config.catchup_timeout;
        let mut st = slot.state();
        loop {
            if st.session.is_some() && st.epoch() >= min_epoch {
                return Ok(st);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ServeError::Stale {
                    shard,
                    epoch: st.epoch(),
                    min_epoch,
                }
                .into());
            }
            let (guard, _) = slot
                .caught_up
                .wait_timeout(st, deadline - now)
                .expect("shard state lock");
            st = guard;
        }
    }

    fn stop_and_join(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.disconnect_all();
        for link in self.links.lock().expect("links lock").drain(..) {
            let _ = link.join();
        }
        for slot in &self.shared.slots {
            let mut st = slot.state();
            if let Some(session) = st.session.as_mut() {
                let _ = session.seal_journal();
            }
        }
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn journal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.journal"))
}

/// The link thread: dial–subscribe–apply until stopped, with doubling
/// (capped) backoff between failed links and a reset on progress.
fn run_link_loop(shared: &Shared, shard: usize) {
    let base = shared
        .config
        .reconnect_backoff
        .max(Duration::from_millis(1));
    let cap = base.saturating_mul(20);
    let mut backoff = base;
    while !shared.stop.load(Ordering::SeqCst) {
        let applied = run_link(shared, shard).unwrap_or(0);
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if applied > 0 {
            backoff = base;
        }
        // Sliced sleep so a stop lands promptly even mid-backoff.
        let until = Instant::now() + backoff;
        while Instant::now() < until && !shared.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5).min(backoff));
        }
        backoff = (backoff * 2).min(cap);
    }
}

/// One link: connect, and keep the socket where shutdown and
/// [`Follower::disconnect_all`] can sever it from the start (a leader
/// that accepts and never answers would otherwise park the link in the
/// handshake for good), then run it until the connection ends. Returns
/// the number of batches applied on this link.
fn run_link(shared: &Shared, shard: usize) -> Result<u64> {
    let slot = &shared.slots[shard];
    let mut stream = TcpStream::connect(&shared.addr)?;
    stream.set_nodelay(true).ok();
    *slot.conn() = Some(stream.try_clone().map_err(NetError::from)?);
    let result = link(shared, shard, &mut stream);
    slot.conn().take();
    result
}

/// Handshake, subscribe from the applied epoch (or bootstrap), then
/// apply `BATCH` frames and acknowledge each applied epoch, until the
/// connection ends. Past the handshake it reads frames itself, not
/// through [`Client`]: the leader pushes `BATCH` frames unasked.
fn link(shared: &Shared, shard: usize, stream: &mut TcpStream) -> Result<u64> {
    use std::io::Write as _;
    let slot = &shared.slots[shard];
    // A stop that landed before the socket was kept found none to sever.
    if shared.stop.load(Ordering::SeqCst) {
        return Ok(0);
    }
    hello(stream, None)?;
    let from_epoch = match &slot.state().session {
        Some(session) => session.epoch(),
        None => BOOTSTRAP_EPOCH,
    };
    Request::Subscribe {
        shard: shard as u32,
        from_epoch,
    }
    .to_frame()
    .write_to(stream)?;
    stream.flush()?;
    match read_response(stream)? {
        Response::SubscribeOk {
            start: SubscriptionStart::Resume,
        } => {
            if from_epoch == BOOTSTRAP_EPOCH {
                return Err(ReplicaError::Protocol(
                    "leader resumed a subscription the follower has no state for".to_string(),
                ));
            }
        }
        Response::SubscribeOk {
            start:
                SubscriptionStart::Snapshot {
                    epoch,
                    dataset,
                    threshold,
                },
        } => bootstrap(shared, shard, epoch, threshold, &dataset)?,
        Response::Error { code, message } => return Err(NetError::Remote { code, message }.into()),
        other => {
            return Err(ReplicaError::Protocol(format!(
                "expected SUBSCRIBE_OK, got {other:?}"
            )))
        }
    }
    {
        let mut st = slot.state();
        st.subscriptions += 1;
        if st.subscriptions > 1 {
            if let Some(m) = &shared.metrics {
                m.resubscribes.inc();
            }
        }
    }
    let mut applied = 0u64;
    loop {
        match Frame::read_from(stream) {
            Ok(Some(frame)) => match Response::from_frame(&frame).map_err(NetError::Frame) {
                Ok(Response::Batch { epoch, text }) => {
                    if let Err(e) = apply_batch(shared, shard, epoch, &text) {
                        break Err(e);
                    }
                    applied += 1;
                    let acked = Request::EpochAck {
                        shard: shard as u32,
                        epoch,
                    }
                    .to_frame()
                    .write_to(stream)
                    .and_then(|()| Ok(stream.flush()?));
                    if let Err(e) = acked {
                        break Err(e.into());
                    }
                }
                Ok(other) => {
                    break Err(ReplicaError::Protocol(format!(
                        "expected BATCH, got {other:?}"
                    )))
                }
                Err(e) => break Err(e.into()),
            },
            // Clean close: leader shutdown, or the tap dropped this
            // subscriber for falling behind. Resubscribe.
            Ok(None) => break Ok(applied),
            Err(e) => break Err(e.into()),
        }
    }
}

/// Replace `shard`'s state with a leader snapshot at `epoch`.
fn bootstrap(
    shared: &Shared,
    shard: usize,
    epoch: u64,
    threshold: f64,
    dataset_text: &str,
) -> Result<()> {
    let dataset = corrfuse_core::io::from_str(dataset_text)
        .map_err(|e| ReplicaError::Protocol(format!("undecodable snapshot dataset: {e}")))?;
    let mut session = StreamSession::new(shared.config.fuser.clone(), dataset)?
        .with_threshold(threshold)
        .with_epoch(epoch);
    if let Some(dir) = &shared.config.journal_dir {
        session.journal_to(journal_path(dir, shard), shared.config.fsync)?;
    }
    let maps = derive_tenant_maps(session.dataset());
    let slot = &shared.slots[shard];
    let mut st = slot.state();
    st.session = Some(session);
    st.maps = maps;
    st.snapshots += 1;
    if let Some(m) = &shared.metrics {
        m.snapshots.inc();
    }
    slot.caught_up.notify_all();
    Ok(())
}

/// Apply one `BATCH` frame: decode the codec text, check the epoch is
/// exactly the next in sequence, run the incremental ingest, extend the
/// tenant maps with whatever the batch registered, and wake readers.
fn apply_batch(shared: &Shared, shard: usize, epoch: u64, text: &str) -> Result<()> {
    let events = corrfuse_stream::codec::parse_batch(text)
        .map_err(|e| ReplicaError::Protocol(format!("undecodable BATCH payload: {e}")))?;
    let slot = &shared.slots[shard];
    let mut st = slot.state();
    let Some(session) = st.session.as_ref() else {
        return Err(ReplicaError::Protocol(
            "BATCH received before any snapshot bootstrap".to_string(),
        ));
    };
    let expected = session.epoch() + 1;
    if epoch != expected {
        return Err(ReplicaError::Protocol(format!(
            "BATCH epoch {epoch} out of sequence (expected {expected})"
        )));
    }
    let before_sources = session.dataset().n_sources();
    let before_triples = session.dataset().n_triples();
    let delta = contain_apply(&mut st, shard, |session| Ok(session.ingest(&events)?))?;
    if let Some(m) = &shared.metrics {
        m.apply_ns.record(delta.elapsed_ns + delta.journal_ns);
        m.batches.inc();
    }
    let ShardState { session, maps, .. } = &mut *st;
    let dataset = session.as_ref().expect("session present").dataset();
    extend_tenant_maps(maps, dataset, before_sources, before_triples);
    st.batches_applied += 1;
    st.events_applied += events.len() as u64;
    slot.caught_up.notify_all();
    Ok(())
}

/// Run `apply` on `st`'s session with the state guard held outside it,
/// as the leader's shard worker does: a panic is caught before it
/// unwinds past the guard, so the state lock is never poisoned. A panic
/// counts as an apply error.
fn contain_apply<T>(
    st: &mut ShardState,
    shard: usize,
    apply: impl FnOnce(&mut StreamSession) -> Result<T>,
) -> Result<T> {
    let session = st.session.as_mut().expect("session present");
    let outcome = catch_unwind(AssertUnwindSafe(|| apply(session)))
        .unwrap_or_else(|_| Err(ServeError::ShardPanicked { shard }.into()));
    if outcome.is_err() {
        // A batch the leader committed failed to apply here: the
        // replica has diverged (or its journal died). Discard the shard
        // and let the next link bootstrap a fresh snapshot.
        st.session = None;
        st.maps.clear();
        st.apply_errors += 1;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;

    use corrfuse_core::fuser::{FuserConfig, Method};
    use corrfuse_net::frame::VERSION;
    use corrfuse_net::wire::{WireShardStats, WireStats};

    /// A leader that answers the shard probe, then accepts the link and
    /// never says a word (as one parked at its connection limit would
    /// leave it in the accept backlog): `shutdown` must still return,
    /// severing the link parked in its handshake read.
    #[test]
    fn shutdown_severs_a_link_parked_in_the_handshake() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (parked, link_parked) = mpsc::channel();
        let leader = std::thread::spawn(move || {
            let (mut probe, _) = listener.accept().unwrap();
            let shard = WireShardStats {
                shard: 0,
                tenants: 0,
                processed_messages: 0,
                ingested_events: 0,
                ingest_errors: 0,
                queue_depth: 0,
                poisoned: false,
            };
            let answers = [
                Response::HelloOk { version: VERSION },
                Response::StatsOk {
                    stats: WireStats {
                        conn_frames: 2,
                        conn_batches: 0,
                        conn_events: 0,
                        shards: vec![shard],
                    },
                },
            ];
            for answer in answers {
                Frame::read_from(&mut probe).unwrap();
                answer.to_frame().write_to(&mut probe).unwrap();
            }
            let (mut silent, _) = listener.accept().unwrap();
            Frame::read_from(&mut silent)
                .unwrap()
                .expect("the link's HELLO");
            parked.send(()).unwrap();
            // Silent until the link goes away.
            let _ = std::io::copy(&mut silent, &mut std::io::sink());
        });
        let follower = Follower::connect(
            &addr,
            FollowerConfig::new(FuserConfig::new(Method::PrecRec)),
        )
        .unwrap();
        link_parked
            .recv_timeout(Duration::from_secs(10))
            .expect("the link dials");
        let (done, stopped) = mpsc::channel();
        std::thread::spawn(move || {
            follower.shutdown();
            done.send(()).unwrap();
        });
        stopped
            .recv_timeout(Duration::from_secs(10))
            .expect("shutdown returns while the leader stays silent");
        leader.join().unwrap();
    }

    /// A panic in a batch apply stays in the apply: the state lock is not
    /// poisoned, and the shard drops its session, so that the next link
    /// bootstraps from a snapshot, and counts one apply error.
    #[test]
    fn a_panicking_apply_drops_the_session_not_the_lock() {
        let mut b = corrfuse_core::DatasetBuilder::new();
        let (s0, t0) = b.observe_named("S0", "x", "p", "0");
        let t1 = b.triple("x", "p", "1");
        b.observe(s0, t1);
        b.label(t0, true);
        b.label(t1, false);
        let session = StreamSession::new(FuserConfig::new(Method::Exact), b.build().unwrap());
        let state = Mutex::new(ShardState {
            session: Some(session.unwrap()),
            ..ShardState::default()
        });
        {
            let mut st = state.lock().expect("the state lock is not poisoned");
            let outcome: Result<()> = contain_apply(&mut st, 3, |_| panic!("apply blew up"));
            assert!(
                matches!(
                    outcome,
                    Err(ReplicaError::Serve(ServeError::ShardPanicked { shard: 3 }))
                ),
                "unexpected outcome: {outcome:?}"
            );
        }
        assert!(!state.is_poisoned());
        let st = state.lock().expect("the state lock is not poisoned");
        assert!(st.session.is_none());
        assert_eq!(st.apply_errors, 1);
    }
}

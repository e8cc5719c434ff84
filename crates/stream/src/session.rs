//! [`StreamSession`]: the micro-batching front end over
//! [`IncrementalFuser`], with decision tracking and journal persistence.

use std::path::Path;

use corrfuse_core::cluster::LiftGraphStats;
use corrfuse_core::dataset::Dataset;
use corrfuse_core::engine::ScoringEngine;
use corrfuse_core::error::Result;
use corrfuse_core::fuser::{ClusterReconcile, Fuser, FuserConfig};
use corrfuse_core::joint::{CacheStats, JointDeltaStats};
use corrfuse_obs::Span;

use crate::event::Event;
use crate::incremental::{IncrementalFuser, RefitLevel, ScoredTriple, StageTimings};
use crate::journal::{FsyncPolicy, JournalWriter};

/// What one ingested batch changed, from the caller's point of view:
/// the outcome of [`StreamSession::ingest`] and of
/// [`IncrementalFuser::ingest`], which has no threshold and no journal
/// and so leaves `flips` empty and `journal_ns` 0.
#[derive(Debug, Clone)]
pub struct ScoredDelta {
    /// How much of the model the batch forced to be rebuilt.
    pub refit: RefitLevel,
    /// Every re-scored triple with before/after posteriors.
    pub rescored: Vec<ScoredTriple>,
    /// The subset of `rescored` whose accept/reject decision flipped at
    /// the session threshold (new triples have no prior decision and are
    /// never flips).
    pub flips: Vec<ScoredTriple>,
    /// Observation-pattern hits/misses of this batch: each distinct
    /// dirtied pattern counts once, a hit if its score was current, a
    /// miss if it was solved.
    pub cache: CacheStats,
    /// On a [`RefitLevel::Cluster`] batch, how many cluster units the
    /// re-clustering reused vs. refitted.
    pub reconcile: Option<ClusterReconcile>,
    /// End-to-end apply+rescore time in nanoseconds (always measured,
    /// journal append excluded) — attribute it via `refit`.
    pub elapsed_ns: u64,
    /// Journal append + fsync time in nanoseconds; 0 when the session
    /// isn't journaling.
    pub journal_ns: u64,
    /// Per-stage breakdown of `elapsed_ns`.
    pub stages: StageTimings,
}

/// A live fusion session: seed snapshot + stream of micro-batches.
///
/// ```
/// use corrfuse_core::fuser::{FuserConfig, Method};
/// use corrfuse_core::DatasetBuilder;
/// use corrfuse_stream::{Event, StreamSession};
///
/// let mut b = DatasetBuilder::new();
/// let (s, t) = b.observe_named("A", "x", "p", "1");
/// b.label(t, true);
/// let t2 = b.triple("y", "p", "2");
/// b.observe(s, t2);
/// b.label(t2, false);
/// let mut session =
///     StreamSession::new(FuserConfig::new(Method::PrecRec), b.build().unwrap()).unwrap();
/// let delta = session
///     .ingest(&[Event::add_triple("z", "p", "3"), Event::claim(s, corrfuse_core::TripleId(2))])
///     .unwrap();
/// assert_eq!(delta.rescored.len(), 1);
/// ```
#[derive(Debug)]
pub struct StreamSession {
    inc: IncrementalFuser,
    engine: ScoringEngine,
    journal: Option<JournalWriter>,
    threshold: f64,
    /// Replication epoch: the number of batches committed into this
    /// session since epoch 0, counting batches replayed from a journal
    /// (restore/recover resume at `base_epoch + replayed`). Two sessions
    /// at the same epoch that started from the same epoch-stamped seed
    /// hold bitwise-identical state.
    epoch: u64,
}

/// What [`StreamSession::recover`] found in a journal.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// Bytes trimmed off the journal file to end it at its last commit
    /// record: a torn line, or events whose `+B` line never landed.
    /// They were never replayed. 0 when the journal ended on a commit.
    pub dropped_bytes: u64,
    /// Committed batches replayed: each was closed by a whole `+B` line.
    pub batches_replayed: usize,
}

impl StreamSession {
    /// Open a session on a seed snapshot with the serial scoring engine
    /// ([`StreamSession::with_engine`] picks another). Parallel and
    /// serial scoring are bitwise identical, so the choice is purely
    /// about throughput.
    pub fn new(config: FuserConfig, seed: Dataset) -> Result<StreamSession> {
        Self::with_engine(config, seed, ScoringEngine::serial())
    }

    /// Open a session with an explicit scoring engine.
    pub fn with_engine(
        config: FuserConfig,
        seed: Dataset,
        engine: ScoringEngine,
    ) -> Result<StreamSession> {
        let inc = IncrementalFuser::fit(config, seed, &engine)?;
        Ok(StreamSession {
            inc,
            engine,
            journal: None,
            threshold: crate::journal::DEFAULT_THRESHOLD,
            epoch: 0,
        })
    }

    /// Override the decision threshold (default 0.5, the paper's
    /// setting). The session's journal records it, so a session
    /// recovered from that journal decides at the same threshold.
    pub fn with_threshold(mut self, threshold: f64) -> StreamSession {
        self.threshold = threshold;
        self
    }

    /// Override the base epoch (default 0). Used when the seed dataset
    /// is itself a snapshot taken at a known epoch — e.g. a replication
    /// follower bootstrapping from a leader snapshot at epoch `e` — so
    /// this session's epoch numbering continues the leader's.
    pub fn with_epoch(mut self, epoch: u64) -> StreamSession {
        self.epoch = epoch;
        self
    }

    /// Restore a session from a `#corrfuse-journal v1` file and keep
    /// appending to it without explicit fsyncing:
    /// [`StreamSession::recover`] under [`FsyncPolicy::Never`].
    pub fn restore(config: FuserConfig, path: impl AsRef<Path>) -> Result<StreamSession> {
        Ok(Self::recover(config, path, FsyncPolicy::Never)?.0)
    }

    /// Open a session from a `#corrfuse-journal v1` file: rebuild the
    /// seed, replay every committed batch through the incremental path,
    /// truncate the file to its committed prefix, and resume appending
    /// with the given durability policy. The session takes its epoch and
    /// decision threshold from the journal.
    ///
    /// A batch is committed once its `+B` line is whole
    /// ([`crate::codec`]'s commit rule), so the session's epoch always
    /// counts whole batches. A crash mid-append (a killed shard worker,
    /// power loss) can leave a torn line or events whose `+B` never
    /// landed; they are dropped, not replayed, and recovery writes
    /// nothing to the journal but that truncation. A journal cut inside
    /// its seed snapshot, or whose committed batches do not decode or
    /// replay, is an error.
    pub fn recover(
        config: FuserConfig,
        path: impl AsRef<Path>,
        fsync: FsyncPolicy,
    ) -> Result<(StreamSession, RecoveryReport)> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)?;
        let recovered = crate::journal::recover(&text)?;
        let mut session =
            StreamSession::new(config, recovered.seed)?.with_threshold(recovered.threshold);
        for batch in &recovered.batches {
            session.inc.ingest(batch, &session.engine)?;
        }
        session.epoch = recovered.base_epoch + recovered.batches.len() as u64;
        let dropped_bytes = text.len() as u64 - recovered.good_len;
        if dropped_bytes > 0 {
            let f = std::fs::OpenOptions::new().write(true).open(path)?;
            f.set_len(recovered.good_len)?;
            f.sync_all()?;
        }
        session.journal = Some(JournalWriter::append(path, fsync)?);
        let report = RecoveryReport {
            dropped_bytes,
            batches_replayed: recovered.batches.len(),
        };
        Ok((session, report))
    }

    /// Start journaling to `path` under the durability policy `fsync`.
    /// Writes a snapshot of the *current* accumulated dataset as the
    /// journal's seed (compacting any batches ingested so far) and
    /// appends every subsequent batch. The snapshot is stamped with the
    /// session's current epoch and threshold, so a restore resumes epoch
    /// numbering where this session stands now and decides as it does.
    pub fn journal_to(&mut self, path: impl AsRef<Path>, fsync: FsyncPolicy) -> Result<()> {
        self.journal = Some(JournalWriter::create(
            path,
            self.inc.dataset(),
            fsync,
            self.epoch,
            self.threshold,
        )?);
        Ok(())
    }

    /// Compact the active journal in place: atomically rewrite it as a
    /// snapshot of the current accumulated dataset (no events), then
    /// resume appending. Bounds journal growth on long-running sessions;
    /// returns the new journal size in bytes.
    ///
    /// The compacted snapshot is stamped with the session's current
    /// epoch and threshold, so restore/recover — and any replication
    /// follower bootstrapping from the rotated file — resume epoch
    /// numbering rather than restarting it at zero.
    pub fn rotate_journal(&mut self) -> Result<u64> {
        let Some(journal) = &mut self.journal else {
            return Err(corrfuse_core::error::FusionError::Io(
                "rotate_journal called with no active journal".to_string(),
            ));
        };
        journal.rotate(self.inc.dataset(), self.epoch, self.threshold)
    }

    /// Size in bytes of the active journal, if journaling.
    pub fn journal_bytes(&self) -> Option<u64> {
        self.journal.as_ref().map(JournalWriter::bytes)
    }

    /// Force the active journal to stable storage (graceful shutdown),
    /// regardless of its running [`FsyncPolicy`]. No-op without a
    /// journal.
    pub fn seal_journal(&mut self) -> Result<()> {
        match &mut self.journal {
            Some(journal) => journal.seal(),
            None => Ok(()),
        }
    }

    /// Apply one micro-batch: mutate the dataset, refresh the dirtied
    /// model layers, re-score the dirtied triples, journal the batch, and
    /// report what changed.
    ///
    /// Input errors (bad ids, an unclaimed new triple) are detected
    /// before any state mutates, so an `Err` from them leaves the
    /// session — and its journal — untouched. The batch is journalled
    /// only after it was applied and scored; if the journal append itself
    /// fails (an I/O problem), the in-memory session has already advanced
    /// — call [`StreamSession::journal_to`] to re-snapshot onto healthy
    /// storage.
    ///
    /// ```
    /// use corrfuse_core::fuser::{FuserConfig, Method};
    /// use corrfuse_core::{DatasetBuilder, SourceId, TripleId};
    /// use corrfuse_stream::{Event, RefitLevel, StreamSession};
    ///
    /// let mut b = DatasetBuilder::new();
    /// let (s, t1) = b.observe_named("A", "x", "p", "1");
    /// b.label(t1, true);
    /// let t2 = b.triple("y", "p", "2");
    /// b.observe(s, t2);
    /// b.label(t2, false);
    /// let mut session =
    ///     StreamSession::new(FuserConfig::new(Method::PrecRec), b.build().unwrap()).unwrap();
    ///
    /// // A new claimed triple: the fast path — no model refit, one
    /// // triple re-scored, no decision flips.
    /// let delta = session
    ///     .ingest(&[Event::add_triple("z", "p", "3"), Event::claim(s, TripleId(2))])
    ///     .unwrap();
    /// assert_eq!(delta.refit, RefitLevel::None);
    /// assert_eq!(delta.rescored.len(), 1);
    /// assert!(delta.flips.is_empty());
    ///
    /// // A label refreshes the quality model and re-scores everything.
    /// let delta = session.ingest(&[Event::label(TripleId(2), true)]).unwrap();
    /// assert_eq!(delta.refit, RefitLevel::Model);
    /// assert_eq!(session.scores().len(), 3);
    ///
    /// // Input errors never mutate: the bad batch is fully rejected.
    /// assert!(session.ingest(&[Event::claim(SourceId(9), TripleId(0))]).is_err());
    /// assert_eq!(session.dataset().n_triples(), 3);
    /// ```
    pub fn ingest(&mut self, batch: &[Event]) -> Result<ScoredDelta> {
        let mut delta = self.inc.ingest(batch, &self.engine)?;
        self.epoch += 1;
        if let Some(journal) = &mut self.journal {
            let journal_span = Span::start(true);
            journal.append_batch(batch)?;
            delta.journal_ns = journal_span.elapsed_ns();
        }
        delta.flips = delta
            .rescored
            .iter()
            .filter(|st| {
                st.before
                    .is_some_and(|b| (b > self.threshold) != (st.after > self.threshold))
            })
            .copied()
            .collect();
        Ok(delta)
    }

    /// The scoring engine driving batch re-scores.
    pub fn engine(&self) -> &ScoringEngine {
        &self.engine
    }

    /// Swap the scoring engine. Safe at any batch boundary: the engine
    /// spawns scoped threads per scoring call and holds no state between
    /// batches, and parallel and serial scoring are bitwise identical,
    /// so resizing mid-stream never changes a score — it only changes
    /// throughput. This is what shard-thread autosizing builds on.
    pub fn set_engine(&mut self, engine: ScoringEngine) {
        self.engine = engine;
    }

    /// The accumulated dataset.
    pub fn dataset(&self) -> &Dataset {
        self.inc.dataset()
    }

    /// The currently fitted model.
    pub fn fuser(&self) -> &Fuser {
        self.inc.fuser()
    }

    /// The fit configuration.
    pub fn config(&self) -> &FuserConfig {
        self.inc.config()
    }

    /// Current posterior per triple, in `TripleId` order.
    pub fn scores(&self) -> &[f64] {
        self.inc.scores()
    }

    /// Accept/reject decisions at the session threshold.
    pub fn decisions(&self) -> Vec<bool> {
        self.inc
            .scores()
            .iter()
            .map(|&p| p > self.threshold)
            .collect()
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The session's replication epoch: batches committed since epoch 0,
    /// including batches replayed from the journal at restore/recover.
    /// Increments once per successful [`StreamSession::ingest`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative observation-pattern hit/miss counters (see
    /// [`IncrementalFuser::score_cache_stats`]).
    pub fn score_cache_stats(&self) -> CacheStats {
        self.inc.score_cache_stats()
    }

    /// Cumulative joint-rate memo counters across cluster joints.
    pub fn joint_cache_stats(&self) -> CacheStats {
        self.inc.joint_cache_stats()
    }

    /// Cumulative incremental-maintenance counters across cluster joints
    /// (row deltas absorbed in place vs. full row rescans). Counters
    /// restart when a full refit rebuilds the joints.
    pub fn joint_delta_stats(&self) -> JointDeltaStats {
        self.inc.joint_delta_stats()
    }

    /// Lift-graph occupancy counters (exact pairs tracked, sketch-pruned
    /// pairs). Zero when clustering is not data-driven.
    pub fn lift_stats(&self) -> LiftGraphStats {
        self.inc.lift_stats()
    }
}

//! # corrfuse-stream
//!
//! Incremental ingestion and online re-scoring for correlation-aware data
//! fusion.
//!
//! The core crate models fusion over a static `(S, O)` snapshot: fit a
//! [`corrfuse_core::Fuser`] on labelled data, score every triple. A
//! production system serves continuous traffic — sources keep emitting
//! claims, labels trickle in from curators — and refitting the whole
//! model per update is O(dataset) when a delta touches a handful of
//! triples. This crate wraps the core with an online lifecycle:
//!
//! * [`event::Event`] — one ingest event: a new source, a new triple,
//!   a new claim/provider edge, or a new gold label;
//! * [`codec`] — the line-oriented event encoding shared by journal
//!   files and `corrfuse-net` wire frames, so a captured wire stream is
//!   replayable as a journal;
//! * [`incremental::IncrementalFuser`] — applies deltas by updating only
//!   the affected per-source quality counts and per-cluster
//!   [`corrfuse_core::EmpiricalJoint`] rows (whose memoised subset
//!   counts are delta-updated in place, never invalidated), maintains
//!   the pairwise-lift graph under data-driven clustering so a label
//!   that re-partitions the sources refits only the changed clusters
//!   ([`RefitLevel::Cluster`]), and falls back to a full refit only when
//!   the source set changes. It keeps each triple's observation pattern
//!   `(domain, provider set)` as state, so a rescore solves each distinct
//!   stale pattern once, and each distinct cluster factor once;
//! * [`session::StreamSession`] — the micro-batching front end:
//!   `ingest(batch) -> ScoredDelta` reports which triples were re-scored
//!   and which flipped decision;
//! * [`journal`] — `#corrfuse-journal v1`, an append-only extension of
//!   the `corrfuse_core::io` TSV dialect that persists a session as a
//!   seed snapshot plus its event batches, so it can be restored and
//!   replayed. Journals carry an [`journal::FsyncPolicy`], rotate in
//!   place (atomic snapshot compaction, [`StreamSession::rotate_journal`])
//!   so they do not grow without bound, and recover from arbitrary-byte
//!   truncation ([`StreamSession::recover`] trims the torn tail). The
//!   journal is a session's only record of its history. Snapshots may
//!   carry an `#epoch <n>` stamp so a session's replication epoch
//!   ([`StreamSession::epoch`], one increment per committed batch)
//!   survives restore, recovery and rotation — the ordering backbone of
//!   `corrfuse-replica` followers.
//!
//! The subsystem inherits the workspace trust anchor (stated once in
//! `docs/ARCHITECTURE.md`), enforced here by unit and property tests:
//! after any replayed event stream, the incremental scores are
//! **bitwise identical** to a from-scratch `Fuser::fit` + `score_all`
//! on the accumulated dataset. This crate is the streaming layer of the
//! stack (core → **stream** → serve → net).
//!
//! ## Quick start
//!
//! ```
//! use corrfuse_core::fuser::{FuserConfig, Method};
//! use corrfuse_core::DatasetBuilder;
//! use corrfuse_stream::{Event, StreamSession};
//!
//! // Seed: two sources, two labelled triples.
//! let mut b = DatasetBuilder::new();
//! let (s1, t1) = b.observe_named("A", "Obama", "profession", "president");
//! let s2 = b.source("B");
//! b.observe(s2, t1);
//! let t2 = b.triple("Obama", "died", "1982");
//! b.observe(s1, t2);
//! b.label(t1, true);
//! b.label(t2, false);
//!
//! let mut session = StreamSession::new(
//!     FuserConfig::new(Method::PrecRec),
//!     b.build().unwrap(),
//! )
//! .unwrap();
//!
//! // A new (unlabelled) triple arrives with claims from both sources:
//! // the fast path — no model refit, one triple re-scored.
//! let delta = session
//!     .ingest(&[
//!         Event::add_triple("Obama", "spouse", "Michelle"),
//!         Event::claim(s1, corrfuse_core::TripleId(2)),
//!         Event::claim(s2, corrfuse_core::TripleId(2)),
//!     ])
//!     .unwrap();
//! assert_eq!(delta.rescored.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]
#![deny(missing_docs)]

pub mod codec;
pub mod event;
pub mod incremental;
pub mod journal;
pub mod replay;
pub mod session;

pub use event::Event;
pub use incremental::{IncrementalFuser, IngestOutcome, RefitLevel, ScoredTriple, StageTimings};
pub use journal::{FsyncPolicy, JournalWriter};
pub use session::{RecoveryReport, ScoredDelta, StreamSession};

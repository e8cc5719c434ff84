//! [`IncrementalFuser`]: apply ingest deltas to a fitted model and
//! re-score only what changed.
//!
//! # How a batch is absorbed
//!
//! The fitted state of a [`Fuser`] factors into three layers with very
//! different update costs, and each event type dirties the cheapest layer
//! that covers it:
//!
//! 1. **Nothing** — a claim on an *unlabelled* triple changes no
//!    estimator count and no joint row. Only that triple's own posterior
//!    moves: re-score it, done. This is the dominant event type in a
//!    stream and the fast path the whole subsystem exists for.
//! 2. **Quality model** — a label (or a claim touching a labelled
//!    triple) shifts per-source counts and per-cluster joint rows. The
//!    estimator's counts are maintained incrementally, so the refresh is
//!    O(sources) for the PrecRec model plus O(changed rows) for the
//!    joints — their memo caches are invalidated per cluster, not
//!    rebuilt — and every live observation pattern is re-scored once.
//! 3. **Clustering** — under data-driven clustering (`Auto` over more
//!    sources than the cluster cap) a label or scope change can move the
//!    pairwise lifts enough to re-partition the sources. The lift-graph
//!    counts are maintained incrementally
//!    ([`corrfuse_core::cluster::LiftGraph`]); when the re-derived
//!    partition actually differs, only the clusters whose membership
//!    changed are refitted ([`Fuser::reconcile_clustering`]) — unchanged
//!    clusters keep their incrementally-maintained joints.
//! 4. **Everything** — a new source changes model dimensionality (and
//!    the pair universe of the lift graph), so the incremental path
//!    falls back to a full [`Fuser::fit`].
//!
//! # Observation patterns
//!
//! Under one fitted model a triple's posterior is a pure function of its
//! observation pattern `(domain, providers)`, and streams hold far fewer
//! patterns than triples. So each triple carries a pattern id into a
//! table of the live patterns, each with its live count and current
//! score. A claim moves its triple to another pattern (an emptied pattern
//! leaves the table and its id is reused). A scope expansion marks its
//! domain's patterns stale, a model or cluster refit marks them all, and
//! a full refit (wider provider sets) rebuilds the table. A rescore
//! solves each stale pattern of the dirtied triples once
//! ([`Fuser::score_patterns`]), then gathers per-triple scores. After a
//! model or cluster refit it places only the touched triples and takes
//! the stale patterns from one scan of the table.
//!
//! # Equivalence invariant
//!
//! Every maintained count is an integer and every refreshed parameter is
//! recomputed by the same floating-point expressions `Fuser::fit` uses
//! ([`quality_from_counts`], [`Fuser::refresh_quality`],
//! [`Fuser::rebuild_cluster_solvers`]), so after any batch the scores are
//! **bitwise identical** to a from-scratch fit on the accumulated
//! dataset. `tests/streaming_equivalence.rs` enforces this property over
//! random event streams.
//!
//! # Scope semantics
//!
//! New claims extend a source's scope by provision, exactly like
//! [`corrfuse_core::DatasetBuilder`]'s default inference. Seeds that used
//! explicit scope *overrides* keep them for their original domains, but a
//! source claiming into a brand-new domain still joins that domain's
//! scope — there is no override event.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

use corrfuse_core::bits::BitSet;
use corrfuse_core::cluster::{Clustering, LiftGraph, LiftGraphStats};
use corrfuse_core::dataset::{Dataset, Domain, SourceId};
use corrfuse_core::engine::ScoringEngine;
use corrfuse_core::error::{FusionError, Result};
use corrfuse_core::fuser::{ClusterReconcile, ClusterStrategy, Fuser, FuserConfig};
use corrfuse_core::joint::{CacheStats, JointDeltaStats};
use corrfuse_core::quality::{quality_from_counts, SourceQuality};
use corrfuse_core::triple::TripleId;
use corrfuse_obs::Span;

use crate::event::Event;

/// How much of the fitted model one batch forced to be rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RefitLevel {
    /// Claims on unlabelled triples only: the model is untouched and only
    /// the touched triples (plus any re-scoped domain) were re-scored.
    None,
    /// Per-source counts or joint rows changed: quality model and solvers
    /// were refreshed from maintained counters and every live pattern
    /// re-scored once.
    Model,
    /// The pairwise lifts moved enough to change the data-driven
    /// clustering: the partition was re-derived from the maintained
    /// lift-graph counts and only clusters whose membership changed were
    /// refitted (the rest keep their incrementally-maintained joints);
    /// quality model refreshed and every live pattern re-scored once.
    Cluster,
    /// The source set changed: full `Fuser::fit` fallback.
    Full,
}

/// One re-scored triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredTriple {
    /// The triple.
    pub triple: TripleId,
    /// Its score before the batch; `None` for triples new in this batch.
    pub before: Option<f64>,
    /// Its score after the batch.
    pub after: f64,
}

/// Per-stage wall-clock breakdown of one ingest, measured on every batch
/// (see `docs/OBSERVABILITY.md` for the stage map). Stages don't sum to
/// the outcome's `elapsed_ns`: event application and bookkeeping run
/// between them untimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Lift-sketch admission / candidate rescan time.
    pub sketch_ns: u64,
    /// Model/cluster/full refit time (0 on a [`RefitLevel::None`] batch).
    pub refit_ns: u64,
    /// Re-scoring time through the engine.
    pub rescore_ns: u64,
}

/// What one [`IncrementalFuser::ingest`] call did.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// The refit level the batch forced.
    pub refit: RefitLevel,
    /// Every triple whose score was recomputed, with before/after values.
    pub rescored: Vec<ScoredTriple>,
    /// Pattern hits/misses of this batch: each distinct dirtied pattern
    /// counts once, a hit if its score was current, a miss if it was
    /// solved.
    pub cache: CacheStats,
    /// On a [`RefitLevel::Cluster`] batch, how many cluster units were
    /// reused vs. refitted by the re-clustering.
    pub reconcile: Option<ClusterReconcile>,
    /// End-to-end ingest time in nanoseconds, so callers can attribute
    /// slow ingests to their [`RefitLevel`].
    pub elapsed_ns: u64,
    /// Per-stage breakdown, read off the same clock as `elapsed_ns`.
    pub stages: StageTimings,
}

/// Dirt accumulated while applying one batch of events.
#[derive(Debug, Default)]
struct Dirt {
    /// Triples whose own observation pattern changed.
    touched: BTreeSet<TripleId>,
    /// Quality counts or joint rows changed.
    model: bool,
    /// Source set changed.
    full: bool,
    /// Triples introduced by this batch (must end it with >= 1 claim).
    new_triples: Vec<TripleId>,
}

/// One live observation pattern.
#[derive(Debug)]
struct Pattern {
    key: (Domain, BitSet),
    /// Triples carrying this pattern.
    live: usize,
    /// Posterior under the current model; `None` while stale.
    score: Option<f64>,
}

/// The live observation patterns and each triple's place among them
/// (see the module docs).
#[derive(Debug, Default)]
struct PatternTable {
    /// Pattern id of each triple, in [`TripleId`] order; `None` until
    /// the triple is first placed.
    of: Vec<Option<u32>>,
    /// Patterns by id. A slot with `live == 0` is free and in `free`.
    slots: Vec<Pattern>,
    index: HashMap<(Domain, BitSet), u32>,
    free: Vec<u32>,
    /// Cumulative hits/misses (see [`IngestOutcome::cache`]).
    stats: CacheStats,
}

impl PatternTable {
    /// Put `t` under the pattern it has in `ds`, moving it there if its
    /// providers changed, and return that pattern's id.
    fn place(&mut self, ds: &Dataset, t: TripleId) -> u32 {
        let (domain, providers) = (ds.domain(t), ds.providers(t));
        if let Some(old) = self.of[t.index()] {
            let pattern = &mut self.slots[old as usize];
            if pattern.key.0 == domain && pattern.key.1 == *providers {
                return old;
            }
            pattern.live -= 1;
            if pattern.live == 0 {
                self.index.remove(&self.slots[old as usize].key);
                self.free.push(old);
            }
        }
        let id = match self.index.entry((domain, providers.clone())) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = self.free.pop().unwrap_or(self.slots.len() as u32);
                let pattern = Pattern {
                    key: e.key().clone(),
                    live: 0,
                    score: None,
                };
                match self.slots.get_mut(id as usize) {
                    Some(slot) => *slot = pattern,
                    None => self.slots.push(pattern),
                }
                *e.insert(id)
            }
        };
        self.slots[id as usize].live += 1;
        self.of[t.index()] = Some(id);
        id
    }

    /// Mark the live patterns of `domain` (of every domain when `None`)
    /// stale.
    fn mark_stale(&mut self, domain: Option<Domain>) {
        for pattern in &mut self.slots {
            if pattern.live > 0 && domain.is_none_or(|d| d == pattern.key.0) {
                pattern.score = None;
            }
        }
    }
}

/// A [`Fuser`] that stays fitted under ingest deltas. See module docs.
#[derive(Debug)]
pub struct IncrementalFuser {
    config: FuserConfig,
    ds: Dataset,
    fuser: Fuser,
    /// Per-source estimator counts (see [`quality_from_counts`]).
    tp: Vec<usize>,
    fp: Vec<usize>,
    scope_true: Vec<usize>,
    /// Gold totals for the empirical prior.
    n_true: usize,
    n_false: usize,
    /// Joint-row index of each labelled triple (rows are shared across
    /// clusters: every cluster's `EmpiricalJoint` stores the same
    /// labelled triples in the same order).
    row_of: HashMap<TripleId, usize>,
    /// The labelled triples in row (label-arrival) order — the inverse of
    /// `row_of`, handed to `Fuser::reconcile_clustering` so freshly built
    /// cluster joints keep consistent row indices.
    labelled_order: Vec<(TripleId, bool)>,
    /// Maintained pairwise-lift counts; `Some` exactly when the
    /// clustering is data-driven (`Auto` over more sources than the
    /// cluster cap), rebuilt whenever the full-refit path runs.
    lift: Option<LiftGraph>,
    /// Per-domain triple index, for scope-expansion invalidation.
    triples_by_domain: HashMap<Domain, Vec<TripleId>>,
    labelled_by_domain: HashMap<Domain, Vec<TripleId>>,
    true_by_domain: HashMap<Domain, usize>,
    /// Current posterior per triple.
    scores: Vec<f64>,
    patterns: PatternTable,
}

impl IncrementalFuser {
    /// Fit on a seed snapshot (which must carry gold labels — the paper's
    /// training protocol) and score every triple once.
    pub fn fit(config: FuserConfig, seed: Dataset, engine: &ScoringEngine) -> Result<Self> {
        let gold = seed.require_gold()?.clone();
        let fuser = Fuser::fit(&config, &seed, &gold)?;
        let mut inc = IncrementalFuser {
            config,
            scores: vec![f64::NAN; seed.n_triples()],
            ds: seed,
            fuser,
            tp: Vec::new(),
            fp: Vec::new(),
            scope_true: Vec::new(),
            n_true: 0,
            n_false: 0,
            row_of: HashMap::new(),
            labelled_order: Vec::new(),
            lift: None,
            triples_by_domain: HashMap::new(),
            labelled_by_domain: HashMap::new(),
            true_by_domain: HashMap::new(),
            patterns: PatternTable::default(),
        };
        inc.rebuild_index_state();
        let all: Vec<TripleId> = inc.ds.triples().collect();
        inc.rescore(&all, false, engine)?;
        Ok(inc)
    }

    /// The accumulated dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.ds
    }

    /// The currently fitted model.
    pub fn fuser(&self) -> &Fuser {
        &self.fuser
    }

    /// The fit configuration.
    pub fn config(&self) -> &FuserConfig {
        &self.config
    }

    /// Current posterior per triple, in [`TripleId`] order.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Cumulative pattern hit/miss counters (see [`IngestOutcome::cache`]).
    pub fn score_cache_stats(&self) -> CacheStats {
        self.patterns.stats
    }

    /// Cumulative joint-rate memo counters, aggregated over all cluster
    /// joints of the current model.
    pub fn joint_cache_stats(&self) -> CacheStats {
        (0..self.fuser.n_cluster_units())
            .filter_map(|i| self.fuser.cluster_joint(i))
            .fold(CacheStats::default(), |acc, j| acc.merged(j.cache_stats()))
    }

    /// Cumulative incremental-maintenance counters (row deltas absorbed
    /// in place vs. full rescans), aggregated over all cluster joints of
    /// the current model. Counters restart when a full refit rebuilds the
    /// joints.
    pub fn joint_delta_stats(&self) -> JointDeltaStats {
        (0..self.fuser.n_cluster_units())
            .filter_map(|i| self.fuser.cluster_joint(i))
            .fold(JointDeltaStats::default(), |acc, j| {
                acc.merged(j.delta_stats())
            })
    }

    /// Lift-graph occupancy counters (exact pairs tracked, pairs the
    /// sketch tier declined to admit). Zero when clustering is not
    /// data-driven — there is no maintained lift graph then.
    pub fn lift_stats(&self) -> LiftGraphStats {
        self.lift.as_ref().map(LiftGraph::stats).unwrap_or_default()
    }

    /// Apply one batch of events, refresh exactly the dirtied model
    /// layers, and re-score the dirtied triples through `engine`.
    ///
    /// # Atomicity
    ///
    /// The batch is validated up front (`validate_batch`), so
    /// input errors — unknown source/triple ids, a new triple without a
    /// claim — are reported *before* any state mutates: an `Err` from bad
    /// input leaves the session exactly as it was. Errors arising later,
    /// in the model-refresh stage (e.g. a degenerate empirical prior
    /// after a relabel), surface after the dataset has already absorbed
    /// the batch; treat the session as poisoned then and rebuild it from
    /// the journal or a snapshot.
    pub fn ingest(&mut self, batch: &[Event], engine: &ScoringEngine) -> Result<IngestOutcome> {
        let total_span = Span::start(true);
        self.validate_batch(batch)?;
        let stats_before = self.patterns.stats;
        let dirt = self.apply(batch)?;
        // Under data-driven clustering, re-derive the partition from the
        // maintained lift counts — but only when a count actually moved,
        // and refit only if the partition differs. (Scope expansions can
        // move pair counts without dirtying the quality model, so this
        // check is independent of `dirt.model`.)
        let sketch_span = Span::start(true);
        let mut new_clustering: Option<Clustering> = None;
        if !dirt.full {
            if let Some(lift) = &mut self.lift {
                if lift.take_changed() {
                    lift.admit_candidates(&self.ds);
                    let derived = lift.clustering();
                    if derived != *self.fuser.clustering() {
                        new_clustering = Some(derived);
                    }
                }
            }
        }
        let sketch_ns = sketch_span.elapsed_ns();
        let refit = if dirt.full {
            RefitLevel::Full
        } else if new_clustering.is_some() {
            RefitLevel::Cluster
        } else if dirt.model {
            RefitLevel::Model
        } else {
            RefitLevel::None
        };
        let mut reconcile = None;
        let refit_span = Span::start(true);
        match refit {
            RefitLevel::Full => {
                let gold = self.ds.require_gold()?.clone();
                self.fuser = Fuser::fit(&self.config, &self.ds, &gold)?;
                self.rebuild_index_state();
            }
            RefitLevel::Cluster => {
                self.refresh_quality()?;
                let derived = new_clustering
                    .take()
                    .expect("cluster refit has a partition");
                reconcile = Some(self.fuser.reconcile_clustering(
                    &self.ds,
                    derived,
                    &self.labelled_order,
                )?);
                self.fuser.rebuild_cluster_solvers();
                self.patterns.mark_stale(None);
            }
            RefitLevel::Model => {
                self.refresh_quality()?;
                self.fuser.rebuild_cluster_solvers();
                self.patterns.mark_stale(None);
            }
            RefitLevel::None => {}
        }
        let refit_ns = refit_span.elapsed_ns();
        let rescore_span = Span::start(true);
        let rescored = match refit {
            RefitLevel::Full => {
                let all: Vec<TripleId> = self.ds.triples().collect();
                self.rescore(&all, false, engine)?
            }
            _ => {
                let touched: Vec<TripleId> = dirt.touched.iter().copied().collect();
                self.rescore(&touched, refit != RefitLevel::None, engine)?
            }
        };
        let rescore_ns = rescore_span.elapsed_ns();
        let stats_after = self.patterns.stats;
        Ok(IngestOutcome {
            refit,
            rescored,
            cache: CacheStats {
                hits: stats_after.hits - stats_before.hits,
                misses: stats_after.misses - stats_before.misses,
            },
            reconcile,
            elapsed_ns: total_span.elapsed_ns(),
            stages: StageTimings {
                sketch_ns,
                refit_ns,
                rescore_ns,
            },
        })
    }

    /// Refresh the PrecRec model and every cluster joint's prior from the
    /// maintained per-source counts, exactly as `Fuser::fit` would
    /// recompute them.
    fn refresh_quality(&mut self) -> Result<()> {
        let qualities: Vec<SourceQuality> = (0..self.ds.n_sources())
            .map(|s| quality_from_counts(self.tp[s], self.fp[s], self.scope_true[s], 0.0))
            .collect();
        let alpha = self.alpha_now()?;
        self.fuser.refresh_quality(qualities, alpha)
    }

    /// Is the clustering derived from the labelled data itself? `Auto`
    /// over more sources than the cluster cap re-clusters on lift
    /// changes, so such sessions maintain a [`LiftGraph`] and reconcile
    /// the partition whenever its counts move.
    fn clustering_is_data_driven(&self) -> bool {
        matches!(self.config.strategy, ClusterStrategy::Auto)
            && self.config.method.uses_correlations()
            && self.ds.n_sources() > self.config.cluster.max_cluster_size.min(64)
    }

    /// The prior `Fuser::fit` would use right now.
    fn alpha_now(&self) -> Result<f64> {
        match self.config.alpha {
            Some(a) => Ok(a),
            // Mirrors `GoldLabels::empirical_alpha` on maintained totals.
            None if self.n_true == 0 => Err(FusionError::DegenerateTraining("true")),
            None if self.n_false == 0 => Err(FusionError::DegenerateTraining("false")),
            None => Ok(self.n_true as f64 / (self.n_true + self.n_false) as f64),
        }
    }

    /// Recompute every maintained index from the dataset (initial fit and
    /// full-refit fallback).
    fn rebuild_index_state(&mut self) {
        let n = self.ds.n_sources();
        self.tp = vec![0; n];
        self.fp = vec![0; n];
        self.scope_true = vec![0; n];
        self.n_true = 0;
        self.n_false = 0;
        self.row_of.clear();
        self.labelled_order.clear();
        self.lift = None;
        self.triples_by_domain.clear();
        self.labelled_by_domain.clear();
        self.true_by_domain.clear();
        // The pattern counters are cumulative: they survive the rebuild.
        self.patterns = PatternTable {
            of: vec![None; self.ds.n_triples()],
            stats: self.patterns.stats,
            ..PatternTable::default()
        };
        let triples: Vec<TripleId> = self.ds.triples().collect();
        for &t in &triples {
            self.triples_by_domain
                .entry(self.ds.domain(t))
                .or_default()
                .push(t);
        }
        let Some(gold) = self.ds.gold().cloned() else {
            return;
        };
        for (row, (t, truth)) in gold.iter_labelled().enumerate() {
            self.row_of.insert(t, row);
            self.labelled_order.push((t, truth));
            let d = self.ds.domain(t);
            self.labelled_by_domain.entry(d).or_default().push(t);
            if truth {
                *self.true_by_domain.entry(d).or_default() += 1;
            }
            self.count_label(t, truth, 1);
        }
        if self.clustering_is_data_driven() {
            self.lift = Some(LiftGraph::build(&self.ds, &gold, &self.config.cluster));
        }
    }

    /// Reject a batch before touching any state: every referenced id must
    /// resolve (counting the sources/triples the batch itself introduces)
    /// and every introduced triple must be claimed within the batch (the
    /// builder invariant: no triple without an observation set). After
    /// this passes, [`Self::apply`] cannot fail on input.
    fn validate_batch(&self, batch: &[Event]) -> Result<()> {
        let mut n_sources = self.ds.n_sources();
        let mut n_triples = self.ds.n_triples();
        let mut new_names: Vec<&str> = Vec::new();
        let mut new_triples: Vec<(usize, &corrfuse_core::Triple)> = Vec::new();
        let mut claimed: BTreeSet<usize> = BTreeSet::new();
        for ev in batch {
            match ev {
                Event::AddSource { name } => {
                    if self.ds.source_by_name(name).is_none() && !new_names.contains(&name.as_str())
                    {
                        new_names.push(name);
                        n_sources += 1;
                    }
                }
                Event::AddTriple { triple, .. } => {
                    if self.ds.triple_id(triple).is_none()
                        && !new_triples.iter().any(|(_, t)| *t == triple)
                    {
                        new_triples.push((n_triples, triple));
                        n_triples += 1;
                    }
                }
                Event::Claim { source, triple } => {
                    if source.index() >= n_sources {
                        return Err(FusionError::UnknownSource(format!("{source}")));
                    }
                    if triple.index() >= n_triples {
                        return Err(FusionError::TripleOutOfRange(triple.index()));
                    }
                    claimed.insert(triple.index());
                }
                Event::Label { triple, .. } => {
                    if triple.index() >= n_triples {
                        return Err(FusionError::TripleOutOfRange(triple.index()));
                    }
                }
            }
        }
        for (id, _) in &new_triples {
            if !claimed.contains(id) {
                return Err(FusionError::UnobservedTriple(*id));
            }
        }
        Ok(())
    }

    /// Apply a batch without re-scoring, accumulating dirt. Input errors
    /// were already ruled out by [`Self::validate_batch`]; the residual
    /// checks here are defence in depth.
    fn apply(&mut self, batch: &[Event]) -> Result<Dirt> {
        let mut dirt = Dirt::default();
        for ev in batch {
            self.apply_event(ev, &mut dirt)?;
        }
        for &t in &dirt.new_triples {
            if self.ds.providers(t).is_empty() {
                return Err(FusionError::UnobservedTriple(t.index()));
            }
        }
        Ok(dirt)
    }

    fn apply_event(&mut self, ev: &Event, dirt: &mut Dirt) -> Result<()> {
        match ev {
            Event::AddSource { name } => {
                if self.ds.source_by_name(name).is_none() {
                    self.ds.add_source(name.clone());
                    // Keep the counter vectors indexable for later events
                    // in this batch; the full-refit fallback recomputes
                    // them from scratch afterwards anyway.
                    self.tp.push(0);
                    self.fp.push(0);
                    self.scope_true.push(0);
                    dirt.full = true;
                }
            }
            Event::AddTriple { triple, domain } => {
                if self.ds.triple_id(triple).is_none() {
                    let t = self.ds.add_triple(triple.clone(), *domain);
                    self.triples_by_domain.entry(*domain).or_default().push(t);
                    self.scores.push(f64::NAN);
                    self.patterns.of.push(None);
                    dirt.new_triples.push(t);
                    dirt.touched.insert(t);
                }
            }
            Event::Claim { source, triple } => self.apply_claim(*source, *triple, dirt)?,
            Event::Label { triple, truth } => self.apply_label(*triple, *truth, dirt)?,
        }
        Ok(())
    }

    fn apply_claim(&mut self, s: SourceId, t: TripleId, dirt: &mut Dirt) -> Result<()> {
        let outcome = self.ds.observe(s, t)?;
        if !outcome.newly_provided {
            return Ok(());
        }
        dirt.touched.insert(t);
        let d = self.ds.domain(t);
        // One clone serves both the lift updates and `refresh_rows`
        // below (scope expansion touches the same labelled triples).
        let labelled_in_domain = if outcome.scope_expanded {
            self.labelled_by_domain.get(&d).cloned().unwrap_or_default()
        } else {
            Vec::new()
        };
        // Maintain the pairwise-lift counts (data-driven clustering
        // only). A batch that already forced a full refit skips this:
        // the graph is rebuilt from scratch afterwards, and new sources
        // may have outgrown its pair universe.
        if !dirt.full {
            if let Some(mut lift) = self.lift.take() {
                let truth_of = |inc: &Self, x: TripleId| inc.ds.gold().and_then(|g| g.get(x));
                if outcome.scope_expanded {
                    // Every labelled triple of `d` now counts `s` in its
                    // pairwise scope intersections; the claimed triple's
                    // own provision rides along in the same update.
                    for &x in &labelled_in_domain {
                        let truth = truth_of(self, x).expect("labelled_by_domain is labelled");
                        lift.source_entered_scope(&self.ds, s, x, truth);
                    }
                } else if let Some(truth) = truth_of(self, t) {
                    lift.source_provided(&self.ds, s, t, truth);
                }
                self.lift = Some(lift);
            }
        }
        if outcome.scope_expanded {
            // Every triple in `d` gains an in-scope non-provider: their
            // scope masks (and scores) change even though their provider
            // sets do not.
            if let Some(ts) = self.triples_by_domain.get(&d) {
                dirt.touched.extend(ts.iter().copied());
            }
            self.patterns.mark_stale(Some(d));
            // Newly in-scope labelled-true triples enter the source's
            // recall denominator (the freshly claimed triple included, if
            // labelled true — its tp contribution is counted below).
            let gained = self.true_by_domain.get(&d).copied().unwrap_or(0);
            if gained > 0 {
                self.scope_true[s.index()] += gained;
                dirt.model = true;
            }
            // The scope bit of every labelled row in `d` flips for any
            // cluster containing this source.
            if self.refresh_rows(&labelled_in_domain)? {
                dirt.model = true;
            }
        }
        if let Some(truth) = self.ds.gold().and_then(|g| g.get(t)) {
            if truth {
                // After `observe`, the source's scope covers `d`, so the
                // in-scope check only guards exotic scope-override seeds.
                if self.ds.in_scope(s, t) {
                    self.tp[s.index()] += 1;
                }
            } else {
                self.fp[s.index()] += 1;
            }
            dirt.model = true;
            self.refresh_rows(&[t])?;
        }
        Ok(())
    }

    fn apply_label(&mut self, t: TripleId, truth: bool, dirt: &mut Dirt) -> Result<()> {
        let prev = self.ds.set_label(t, truth)?;
        if prev == Some(truth) {
            return Ok(());
        }
        dirt.model = true;
        // Labels leave providers and scopes untouched, so the lift-graph
        // delta is a polarity swap of this one triple's contribution.
        // (Skipped once a full refit is pending — the graph is rebuilt.)
        if !dirt.full {
            if let Some(mut lift) = self.lift.take() {
                lift.relabel(&self.ds, t, prev, truth);
                self.lift = Some(lift);
            }
        }
        let d = self.ds.domain(t);
        match prev {
            None => {
                self.count_label(t, truth, 1);
                if truth {
                    *self.true_by_domain.entry(d).or_default() += 1;
                }
                self.labelled_by_domain.entry(d).or_default().push(t);
                // Append the new row to every cluster joint, in
                // label-arrival order (the estimates are order-free sums).
                let row = self.row_of.len();
                self.row_of.insert(t, row);
                self.labelled_order.push((t, truth));
                for i in 0..self.fuser.n_cluster_units() {
                    let Some(joint) = self.fuser.cluster_joint(i) else {
                        continue;
                    };
                    let (prov, scope) = joint.project_pattern(&self.ds, t);
                    self.fuser
                        .cluster_joint_mut(i)
                        .expect("joint checked above")
                        .push_row(prov, scope, truth);
                }
            }
            Some(old) => {
                // A relabel: retract the old contribution, add the new.
                self.labelled_order[self.row_of[&t]].1 = truth;
                self.count_label(t, old, -1);
                if old {
                    *self.true_by_domain.entry(d).or_default() -= 1;
                }
                self.count_label(t, truth, 1);
                if truth {
                    *self.true_by_domain.entry(d).or_default() += 1;
                }
                self.refresh_rows(&[t])?;
            }
        }
        Ok(())
    }

    /// Add (`delta = 1`) or retract (`delta = -1`) one labelled triple's
    /// contribution to the estimator counts, mirroring
    /// [`corrfuse_core::quality::QualityEstimator::estimate`]'s loops.
    fn count_label(&mut self, t: TripleId, truth: bool, delta: isize) {
        fn bump(v: &mut usize, delta: isize) {
            *v = v
                .checked_add_signed(delta)
                .expect("estimator count underflow");
        }
        if truth {
            bump(&mut self.n_true, delta);
            for s in 0..self.ds.n_sources() {
                if self.ds.in_scope(SourceId(s as u32), t) {
                    bump(&mut self.scope_true[s], delta);
                    if self.ds.provides(SourceId(s as u32), t) {
                        bump(&mut self.tp[s], delta);
                    }
                }
            }
        } else {
            bump(&mut self.n_false, delta);
            let providers: Vec<usize> = self.ds.providers(t).iter_ones().collect();
            for s in providers {
                bump(&mut self.fp[s], delta);
            }
        }
    }

    /// Recompute the joint rows of the given labelled triples from live
    /// dataset state, in every cluster. Unlabelled triples are skipped.
    /// Returns whether any row actually changed (which invalidated that
    /// cluster's memo caches).
    fn refresh_rows(&mut self, triples: &[TripleId]) -> Result<bool> {
        let mut changed = false;
        for i in 0..self.fuser.n_cluster_units() {
            if self.fuser.cluster_joint(i).is_none() {
                continue;
            }
            for &t in triples {
                let Some(&row) = self.row_of.get(&t) else {
                    continue;
                };
                let truth = self
                    .ds
                    .gold()
                    .and_then(|g| g.get(t))
                    .expect("indexed row for unlabelled triple");
                let joint = self.fuser.cluster_joint(i).expect("joint checked above");
                let (prov, scope) = joint.project_pattern(&self.ds, t);
                if joint.row(row) != (prov, scope, truth) {
                    self.fuser
                        .cluster_joint_mut(i)
                        .expect("joint checked above")
                        .set_row(row, prov, scope, truth)?;
                    changed = true;
                }
            }
        }
        Ok(changed)
    }

    /// Re-score triples: place each `touched` one under its pattern,
    /// solve each distinct stale pattern once through the engine
    /// (parallel output is bitwise identical to serial), then gather
    /// per-triple scores. A model or cluster refit (`walk`) left every
    /// live pattern stale and can have moved only the touched triples:
    /// it takes the patterns from one scan of the table and gathers every
    /// triple, in [`TripleId`] order. Rescored triples and pattern counts
    /// equal those of placing every triple.
    fn rescore(
        &mut self,
        touched: &[TripleId],
        walk: bool,
        engine: &ScoringEngine,
    ) -> Result<Vec<ScoredTriple>> {
        let table = &mut self.patterns;
        let ids: Vec<u32> = touched.iter().map(|&t| table.place(&self.ds, t)).collect();
        let mut stale = if walk {
            let live = (0u32..).zip(&table.slots).filter(|(_, p)| p.live > 0);
            let mut all = Vec::with_capacity(table.slots.len());
            all.extend(live.map(|(id, _)| id));
            all
        } else {
            let mut distinct = ids.clone();
            distinct.sort_unstable();
            distinct.dedup();
            distinct
        };
        let dirtied = stale.len();
        stale.retain(|&id| table.slots[id as usize].score.is_none());
        table.stats.hits += (dirtied - stale.len()) as u64;
        table.stats.misses += stale.len() as u64;
        let keys: Vec<(Domain, &BitSet)> = stale
            .iter()
            .map(|&id| {
                let (domain, providers) = &table.slots[id as usize].key;
                (*domain, providers)
            })
            .collect();
        let values = self.fuser.score_patterns(&self.ds, &keys, engine)?;
        for (&id, value) in stale.iter().zip(values) {
            table.slots[id as usize].score = Some(value);
        }
        let scores = &mut self.scores;
        let gather = |(t, id): (TripleId, u32)| {
            let after = table.slots[id as usize]
                .score
                .expect("dirtied pattern solved");
            let before = std::mem::replace(&mut scores[t.index()], after);
            ScoredTriple {
                triple: t,
                before: if before.is_nan() { None } else { Some(before) },
                after,
            }
        };
        Ok(if walk {
            let placed = table.of.iter().map(|id| id.expect("placed"));
            (0u32..).map(TripleId).zip(placed).map(gather).collect()
        } else {
            touched.iter().copied().zip(ids).map(gather).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfuse_core::dataset::DatasetBuilder;
    use corrfuse_core::fuser::Method;

    const LABELLED: Domain = Domain(0);
    const OPEN: Domain = Domain(1);

    /// Two domains over sources S0–S2. Domain 0 holds the labels; domain 1
    /// holds unlabelled triples in patterns {S0,S1} (twice), {S0} and
    /// {S1}. S2 never provides in domain 1, so it is out of its scope.
    fn two_domains() -> IncrementalFuser {
        let mut b = DatasetBuilder::new();
        let s: Vec<SourceId> = (0..3).map(|i| b.source(format!("S{i}"))).collect();
        let rows: [(Domain, &[usize], Option<bool>); 8] = [
            (LABELLED, &[0, 1], Some(true)),
            (LABELLED, &[0], Some(false)),
            (LABELLED, &[1, 2], Some(true)),
            (LABELLED, &[2], Some(false)),
            (OPEN, &[0, 1], None),
            (OPEN, &[0, 1], None),
            (OPEN, &[0], None),
            (OPEN, &[1], None),
        ];
        for (i, (domain, providers, label)) in rows.into_iter().enumerate() {
            let t = b.triple("x", "p", format!("{i}"));
            b.set_domain(t, domain);
            for &p in providers {
                b.observe(s[p], t);
            }
            if let Some(truth) = label {
                b.label(t, truth);
            }
        }
        let config = FuserConfig::new(Method::Exact);
        IncrementalFuser::fit(config, b.build().unwrap(), &ScoringEngine::serial()).unwrap()
    }

    fn pattern_id(inc: &IncrementalFuser, domain: Domain, providers: &[usize]) -> Option<u32> {
        let key = (domain, BitSet::from_indices(3, providers.iter().copied()));
        inc.patterns.index.get(&key).copied()
    }

    fn live_patterns(inc: &IncrementalFuser, domain: Domain) -> usize {
        let slots = &inc.patterns.slots;
        slots
            .iter()
            .filter(|p| p.live > 0 && p.key.0 == domain)
            .count()
    }

    fn assert_fresh(inc: &IncrementalFuser) {
        let ds = inc.dataset();
        let fresh = Fuser::fit(inc.config(), ds, ds.gold().unwrap()).unwrap();
        for (t, want) in fresh.score_all(ds).unwrap().into_iter().enumerate() {
            assert_eq!(inc.scores()[t].to_bits(), want.to_bits(), "t{t}");
        }
    }

    #[test]
    fn claim_moves_a_triple_and_an_emptied_pattern_leaves() {
        let mut inc = two_domains();
        let engine = ScoringEngine::serial();
        let pair = pattern_id(&inc, OPEN, &[0, 1]).unwrap();
        let single = pattern_id(&inc, OPEN, &[0]).unwrap();
        assert_eq!(inc.patterns.slots[pair as usize].live, 2);

        // S1 claims t6 ({S0} alone): t6 joins {S0,S1}, whose score is
        // current, and {S0}, now empty, leaves the table.
        let out = inc
            .ingest(&[Event::claim(SourceId(1), TripleId(6))], &engine)
            .unwrap();
        assert_eq!(out.refit, RefitLevel::None);
        assert_eq!((out.cache.hits, out.cache.misses), (1, 0));
        assert_eq!(inc.patterns.of[6], Some(pair));
        assert_eq!(inc.patterns.slots[pair as usize].live, 3);
        assert_eq!(pattern_id(&inc, OPEN, &[0]), None);
        assert_eq!(live_patterns(&inc, OPEN), 2);
        assert_fresh(&inc);

        // A new triple in the freed pattern is solved anew and takes the
        // freed id.
        let out = inc
            .ingest(
                &[
                    Event::add_triple_in("x", "p", "new", OPEN),
                    Event::claim(SourceId(0), TripleId(8)),
                ],
                &engine,
            )
            .unwrap();
        assert_eq!((out.cache.hits, out.cache.misses), (0, 1));
        assert_eq!(pattern_id(&inc, OPEN, &[0]), Some(single));
        assert_fresh(&inc);
    }

    #[test]
    fn scope_expansion_resolves_only_its_domain() {
        let mut inc = two_domains();
        let engine = ScoringEngine::serial();
        let labelled: Vec<u32> = inc.patterns.of[..4].iter().flatten().copied().collect();

        // S2 claims t6 in domain 1: S2's scope grows into domain 1, and
        // no labelled triple lives there, so the model stays put.
        let out = inc
            .ingest(&[Event::claim(SourceId(2), TripleId(6))], &engine)
            .unwrap();
        assert_eq!(out.refit, RefitLevel::None);
        let rescored: Vec<TripleId> = out.rescored.iter().map(|r| r.triple).collect();
        assert_eq!(rescored, (4..8).map(TripleId).collect::<Vec<_>>());
        assert_eq!(live_patterns(&inc, OPEN), 3);
        assert_eq!((out.cache.hits, out.cache.misses), (0, 3));
        // Domain 0's patterns were neither marked stale nor re-solved.
        for id in labelled {
            assert!(inc.patterns.slots[id as usize].score.is_some());
        }
        assert_fresh(&inc);
    }
}

//! High-level fusion API: configure a method, fit on labelled data, score
//! every triple.
//!
//! [`Fuser`] packages the paper's full pipeline:
//!
//! 1. estimate per-source precision/recall from training labels (§3.2);
//! 2. partition sources into correlation clusters (§5) — by default all
//!    sources form one cluster when few enough, otherwise pairwise-lift
//!    clustering with a size cap;
//! 3. per triple, combine the independent contributions of singleton
//!    sources with the correlated likelihoods of each cluster
//!    (clusters are independent of each other by construction, so their
//!    likelihood ratios multiply);
//! 4. return `Pr(t | O_t)` per Theorem 3.1 / 4.2.

use std::collections::HashMap;

use crate::bits::BitSet;
use crate::cluster::{cluster_sources, ClusterConfig, Clustering};
use crate::dataset::{Dataset, Domain, GoldLabels, SourceId};
use crate::elastic::ElasticSolver;
use crate::engine::ScoringEngine;
use crate::error::{FusionError, Result};
use crate::exact::ExactSolver;
use crate::independent::PrecRecModel;
use crate::joint::{EmpiricalJoint, JointQuality, NoJoint, SourceSet};
use crate::prob::posterior_from_log_mu;
use crate::quality::{QualityEstimator, SourceQuality};
use crate::solver::{CorrelationSolver, PrecRecSolver};
use crate::triple::TripleId;

use crate::aggressive::AggressiveSolver;

/// Which fusion model to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// PrecRec (§3): independence assumption, Theorem 3.1.
    PrecRec,
    /// PrecRecCorr with the exact inclusion–exclusion solution (Thm 4.2).
    Exact,
    /// PrecRecCorr with the linear aggressive approximation (Def 4.5).
    Aggressive,
    /// PrecRecCorr with the elastic approximation at the given level
    /// (Algorithm 1).
    Elastic(usize),
}

impl Method {
    /// Does this method consume correlation (joint) parameters?
    pub fn uses_correlations(self) -> bool {
        !matches!(self, Method::PrecRec)
    }

    /// Short display name matching the paper's terminology.
    pub fn name(self) -> String {
        match self {
            Method::PrecRec => "PrecRec".to_string(),
            Method::Exact => "PrecRecCorr".to_string(),
            Method::Aggressive => "PrecRecCorr-Aggr".to_string(),
            Method::Elastic(l) => format!("PrecRecCorr-Lvl{l}"),
        }
    }

    /// Build this method's [`CorrelationSolver`] for one cluster — the
    /// single dispatch point between `Method` and the solver layer.
    ///
    /// `joint` and `cluster` describe the cluster (cluster-local
    /// numbering); `precrec` and `positions` let the PrecRec adapter reuse
    /// the already-fitted per-source rates; `max_exact_complement` caps
    /// the exact solver's inclusion–exclusion width.
    pub fn build_solver(
        self,
        joint: &dyn JointQuality,
        cluster: SourceSet,
        precrec: &PrecRecModel,
        positions: &[usize],
        max_exact_complement: usize,
    ) -> Box<dyn CorrelationSolver> {
        match self {
            Method::PrecRec => Box::new(PrecRecSolver::from_model(precrec, positions)),
            Method::Exact => Box::new(ExactSolver::with_max_complement(max_exact_complement)),
            Method::Aggressive => Box::new(AggressiveSolver::new(joint, cluster)),
            Method::Elastic(level) => Box::new(ElasticSolver::new(joint, cluster, level)),
        }
    }
}

/// How to group sources before applying a correlated method.
#[derive(Debug, Clone)]
pub enum ClusterStrategy {
    /// One cluster when the source count fits `max_cluster_size`, else
    /// correlation-based clustering. This mirrors the paper: REVERB and
    /// RESTAURANT are fused jointly; BOOK is clustered first.
    Auto,
    /// Force a single cluster over all sources (≤ 64).
    SingleCluster,
    /// Treat every source as independent (degrades to PrecRec).
    Singletons,
    /// Use a caller-provided clustering.
    Explicit(Clustering),
}

/// Configuration for [`Fuser::fit`].
#[derive(Debug, Clone)]
pub struct FuserConfig {
    /// Model to run.
    pub method: Method,
    /// Prior `Pr(t) = alpha`; `None` uses the training set's true fraction.
    pub alpha: Option<f64>,
    /// Clustering strategy for correlated methods.
    pub strategy: ClusterStrategy,
    /// Knobs for correlation clustering (thresholds, size cap).
    pub cluster: ClusterConfig,
    /// Cap on `|S_t̄|` for the exact solver.
    pub max_exact_complement: usize,
    /// Bound on live subset-memo entries per cluster joint, exact over
    /// both of its memo tables (see
    /// [`EmpiricalJoint::set_memo_capacity`]); `None` = unbounded.
    /// Evicted subsets rescan on next touch, so scores never change —
    /// this is a memory ceiling for wide/long-running deployments.
    pub memo_capacity: Option<usize>,
}

impl FuserConfig {
    /// Config for a given method with paper defaults (`alpha = 0.5`).
    pub fn new(method: Method) -> Self {
        FuserConfig {
            method,
            alpha: Some(0.5),
            strategy: ClusterStrategy::Auto,
            cluster: ClusterConfig::default(),
            max_exact_complement: crate::exact::DEFAULT_MAX_COMPLEMENT,
            memo_capacity: None,
        }
    }

    /// Builder-style prior override.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// Builder-style strategy override.
    pub fn with_strategy(mut self, strategy: ClusterStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style subset-memo bound (entries per cluster joint).
    pub fn with_memo_capacity(mut self, max_entries: usize) -> Self {
        self.memo_capacity = Some(max_entries);
        self
    }
}

/// Per-cluster solving machinery: the cluster's joint parameters plus the
/// method's solver, behind the [`CorrelationSolver`] trait.
#[derive(Debug)]
struct ClusterUnit {
    /// Positions (global source indices) of members; bit `k` of any
    /// projected mask refers to `positions[k]`.
    positions: Vec<usize>,
    /// Joint parameters — `None` for methods whose solver never reads
    /// them (PrecRec), saving the estimation pass and the memo tables.
    joint: Option<EmpiricalJoint>,
    solver: Box<dyn CorrelationSolver>,
}

impl ClusterUnit {
    /// The factor `mu` of one `(prov_c, act_c)`. Its term reads tally
    /// their memo hits locally ([`EmpiricalJoint::tally`]).
    fn mu(&self, providers: SourceSet, active: SourceSet) -> Result<f64> {
        match &self.joint {
            Some(joint) => self.solver.mu(&joint.tally(), providers, active),
            None => self.solver.mu(&NoJoint, providers, active),
        }
    }

    /// The members in `scope`: a factor's `act_c`.
    fn active(&self, scope: &BitSet) -> SourceSet {
        SourceSet(scope.project(&self.positions))
    }

    /// The members of `active` that provide: a factor's `prov_c`.
    fn providing(&self, providers: &BitSet, active: SourceSet) -> SourceSet {
        SourceSet(providers.project(&self.positions)).intersect(active)
    }
}

/// The running `ln mu` of one observation pattern: the fold that
/// [`Fuser::log_mu`] and [`Fuser::score_patterns`] share. It starts at
/// the PrecRec part and takes one cluster factor at a time, in cluster
/// order. A factor of 0 or ∞ settles it at `-inf` / `+inf`, so later
/// factors are not needed. `NaN` never escapes: it is clamped to `-inf`.
#[derive(Debug, Clone, Copy)]
enum LogMu {
    /// Still taking factors: the running sum.
    Open(f64),
    /// Settled by a 0 or ∞ factor.
    Settled(f64),
}

impl LogMu {
    /// Fold in one cluster's factor `mu`.
    fn times(self, mu: f64) -> LogMu {
        match self {
            LogMu::Open(_) if mu == 0.0 => LogMu::Settled(f64::NEG_INFINITY),
            LogMu::Open(_) if mu.is_infinite() => LogMu::Settled(f64::INFINITY),
            LogMu::Open(acc) => LogMu::Open(acc + mu.ln()),
            settled => settled,
        }
    }

    fn is_open(self) -> bool {
        matches!(self, LogMu::Open(_))
    }

    /// The folded `ln mu`.
    fn value(self) -> f64 {
        match self {
            LogMu::Open(acc) if acc.is_nan() => f64::NEG_INFINITY,
            LogMu::Open(acc) | LogMu::Settled(acc) => acc,
        }
    }
}

/// What one [`Fuser::rebuild_cluster_solvers`] pass did: how many
/// cluster solvers had to be reconstructed vs. how many were reused
/// because their joint parameters were bitwise unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverRebuild {
    /// Solvers reconstructed (dirty joint, or no joint to compare).
    pub rebuilt: usize,
    /// Solvers kept as-is (clean joint).
    pub reused: usize,
}

/// What one [`Fuser::reconcile_clustering`] call did: how many cluster
/// units survived the re-clustering with identical membership vs. how
/// many had to be refitted from the labelled rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterReconcile {
    /// Units reused (membership unchanged; rows were maintained
    /// incrementally all along).
    pub reused: usize,
    /// Units built fresh (membership changed).
    pub rebuilt: usize,
}

/// A fitted fusion model. Create with [`Fuser::fit`], then call
/// [`Fuser::score_all`] / [`Fuser::score_triple`].
#[derive(Debug)]
pub struct Fuser {
    method: Method,
    alpha: f64,
    qualities: Vec<SourceQuality>,
    precrec: PrecRecModel,
    clustering: Clustering,
    clusters: Vec<ClusterUnit>,
    /// Sources handled by the independent model (singleton clusters).
    independent_mask: BitSet,
    /// Kept from the fit config so solvers can be rebuilt after deltas.
    max_exact_complement: usize,
    /// Kept from the fit config so joints rebuilt on reconcile inherit
    /// the same subset-memo bound.
    memo_capacity: Option<usize>,
}

impl Fuser {
    /// Fit on `ds` using the labels in `training` (typically the gold
    /// standard, per the paper's protocol).
    pub fn fit(config: &FuserConfig, ds: &Dataset, training: &GoldLabels) -> Result<Fuser> {
        let alpha = match config.alpha {
            Some(a) => crate::prob::check_alpha(a)?,
            None => training.empirical_alpha()?,
        };
        let qualities = QualityEstimator::new().estimate(ds, training)?;
        let precrec = PrecRecModel::from_quality(&qualities, alpha)?;

        let n = ds.n_sources();
        let clustering = match &config.strategy {
            ClusterStrategy::SingleCluster => {
                if n > 64 {
                    if config.method.uses_correlations() {
                        return Err(FusionError::TooManySources {
                            requested: n,
                            max: 64,
                        });
                    }
                    // PrecRec is indifferent to clustering; fall back to
                    // the singleton path instead of failing on width.
                    Clustering::singletons(n)
                } else {
                    Clustering::single_cluster(n)
                }
            }
            ClusterStrategy::Singletons => Clustering::singletons(n),
            ClusterStrategy::Explicit(c) => c.clone(),
            ClusterStrategy::Auto => {
                if !config.method.uses_correlations() {
                    // PrecRec treats every source independently, which the
                    // log-space singleton path handles at any source count.
                    Clustering::singletons(n)
                } else if n <= config.cluster.max_cluster_size.min(64) {
                    Clustering::single_cluster(n)
                } else {
                    cluster_sources(ds, training, &config.cluster)?
                }
            }
        };

        let mut clusters = Vec::new();
        let mut independent_mask = BitSet::new(n);
        for s in 0..n {
            independent_mask.set(s, true);
        }
        for members in clustering.non_trivial() {
            let positions: Vec<usize> = members.iter().map(|m| m.index()).collect();
            if positions.len() > 64 {
                if config.method.uses_correlations() {
                    // Wider than the bitmask solvers support: a recoverable
                    // error, checked here before `SourceSet::full` would
                    // assert on the width.
                    return Err(FusionError::TooManySources {
                        requested: positions.len(),
                        max: 64,
                    });
                }
                // Independence makes cluster structure irrelevant, so a
                // cluster too wide for the bitmask solvers simply stays on
                // the singleton log-space path (identical scores).
                continue;
            }
            for &p in &positions {
                independent_mask.set(p, false);
            }
            let full = SourceSet::full(positions.len());
            let (joint, solver) = if config.method.uses_correlations() {
                let mut joint = EmpiricalJoint::new(ds, training, members.clone(), alpha)?;
                joint.set_memo_capacity(config.memo_capacity);
                let solver = config.method.build_solver(
                    &joint,
                    full,
                    &precrec,
                    &positions,
                    config.max_exact_complement,
                );
                (Some(joint), solver)
            } else {
                // PrecRec's adapter never reads joint parameters; skip the
                // estimation pass entirely.
                let solver = config.method.build_solver(
                    &NoJoint,
                    full,
                    &precrec,
                    &positions,
                    config.max_exact_complement,
                );
                (None, solver)
            };
            clusters.push(ClusterUnit {
                positions,
                joint,
                solver,
            });
        }

        Ok(Fuser {
            method: config.method,
            alpha,
            qualities,
            precrec,
            clustering,
            clusters,
            independent_mask,
            max_exact_complement: config.max_exact_complement,
            memo_capacity: config.memo_capacity,
        })
    }

    /// Number of correlated (non-singleton) cluster units.
    pub fn n_cluster_units(&self) -> usize {
        self.clusters.len()
    }

    /// Global source indices of cluster unit `i`'s members; bit `k` of any
    /// projected mask refers to `positions[k]`.
    pub fn cluster_unit_positions(&self, i: usize) -> &[usize] {
        &self.clusters[i].positions
    }

    /// Cluster unit `i`'s empirical joint parameters, if the fitted method
    /// consumes them (`None` under PrecRec).
    pub fn cluster_joint(&self, i: usize) -> Option<&EmpiricalJoint> {
        self.clusters[i].joint.as_ref()
    }

    /// Mutable access to cluster unit `i`'s empirical joint — the delta
    /// hook incremental ingestion uses to push/patch labelled rows. After
    /// any row change, call [`Fuser::rebuild_cluster_solvers`] so solvers
    /// that precompute from joint values pick up the new parameters.
    pub fn cluster_joint_mut(&mut self, i: usize) -> Option<&mut EmpiricalJoint> {
        self.clusters[i].joint.as_mut()
    }

    /// Replace the per-source quality model (delta hook).
    ///
    /// Incremental callers maintain the estimator's counts under deltas
    /// and hand back recomputed qualities; this rebuilds the PrecRec model
    /// exactly as [`Fuser::fit`] does and propagates `alpha` into every
    /// cluster joint (which recompute their memoised FPRs in place from
    /// maintained counts — no rescan). Does *not* rebuild solvers — batch
    /// row updates first, then call [`Fuser::rebuild_cluster_solvers`]
    /// once.
    ///
    /// The refreshed model is bitwise equal to a from-scratch fit on the
    /// same accumulated labels:
    ///
    /// ```
    /// use corrfuse_core::fuser::{ClusterStrategy, Fuser, FuserConfig, Method};
    /// use corrfuse_core::quality::QualityEstimator;
    /// use corrfuse_core::{DatasetBuilder, TripleId};
    ///
    /// let mut b = DatasetBuilder::new();
    /// let (s1, t1) = b.observe_named("A", "x", "p", "1");
    /// let s2 = b.source("B");
    /// b.observe(s2, t1);
    /// let t2 = b.triple("y", "p", "2");
    /// b.observe(s1, t2);
    /// let t3 = b.triple("z", "p", "3");
    /// b.observe(s2, t3);
    /// b.label(t1, true);
    /// b.label(t2, false);
    /// b.label(t3, true);
    /// let ds = b.build().unwrap();
    /// let gold = ds.gold().unwrap();
    ///
    /// // Fit on the first two labels only, then stream the third in as
    /// // a row delta + quality refresh instead of a refit.
    /// let config = FuserConfig::new(Method::Exact).with_strategy(ClusterStrategy::SingleCluster);
    /// let keep = [TripleId(0), TripleId(1)].into_iter().collect();
    /// let mut patched = Fuser::fit(&config, &ds, &gold.restricted_to(&keep)).unwrap();
    /// let (prov, scope) = patched.cluster_joint(0).unwrap().project_pattern(&ds, t3);
    /// patched.cluster_joint_mut(0).unwrap().push_row(prov, scope, true);
    /// let qualities = QualityEstimator::new().estimate(&ds, gold).unwrap();
    /// patched.refresh_quality(qualities, 0.5).unwrap();
    /// patched.rebuild_cluster_solvers();
    ///
    /// // Delta-refreshed scores == full-rescan (from-scratch) scores.
    /// let fresh = Fuser::fit(&config, &ds, gold).unwrap();
    /// for t in ds.triples() {
    ///     let a = patched.score_triple(&ds, t).unwrap();
    ///     let b = fresh.score_triple(&ds, t).unwrap();
    ///     assert_eq!(a.to_bits(), b.to_bits());
    /// }
    /// ```
    pub fn refresh_quality(&mut self, qualities: Vec<SourceQuality>, alpha: f64) -> Result<()> {
        let precrec = PrecRecModel::from_quality(&qualities, alpha)?;
        self.precrec = precrec;
        self.qualities = qualities;
        self.alpha = alpha;
        for unit in &mut self.clusters {
            if let Some(joint) = &mut unit.joint {
                joint.set_alpha(alpha)?;
            }
        }
        Ok(())
    }

    /// Reconstruct the cluster units' solvers from the current joint
    /// parameters and PrecRec model, exactly as [`Fuser::fit`] built
    /// them. Required after [`Fuser::refresh_quality`] or any joint row
    /// change, because the aggressive/elastic solvers precompute
    /// per-source correlation summaries at construction time.
    ///
    /// Refits only the clusters whose inputs changed: a unit whose joint
    /// reports itself clean ([`EmpiricalJoint::is_dirty`] — no row or
    /// alpha change since its solver was built) has bitwise-identical
    /// solver inputs, so its solver is reused. Units without a joint
    /// (PrecRec) read the refreshed PrecRec model and always rebuild.
    /// Returns how many solvers were rebuilt vs. reused.
    pub fn rebuild_cluster_solvers(&mut self) -> SolverRebuild {
        let method = self.method;
        let max_exact_complement = self.max_exact_complement;
        let precrec = &self.precrec;
        let mut report = SolverRebuild {
            rebuilt: 0,
            reused: 0,
        };
        for unit in &mut self.clusters {
            let full = SourceSet::full(unit.positions.len());
            unit.solver = match &mut unit.joint {
                Some(joint) => {
                    if !joint.take_dirty() {
                        report.reused += 1;
                        continue;
                    }
                    method.build_solver(joint, full, precrec, &unit.positions, max_exact_complement)
                }
                None => method.build_solver(
                    &NoJoint,
                    full,
                    precrec,
                    &unit.positions,
                    max_exact_complement,
                ),
            };
            report.rebuilt += 1;
        }
        report
    }

    /// Replace the clustering with `new_clustering`, reusing every cluster
    /// unit whose membership is unchanged (its joint rows having been
    /// maintained incrementally) and building fresh joints only for
    /// clusters whose membership actually changed — the cluster-level
    /// delta hook behind incremental re-clustering.
    ///
    /// `labelled` supplies the labelled triples **in the caller's row
    /// order** for freshly built joints (see
    /// [`EmpiricalJoint::with_labelled_rows`]): an incremental caller
    /// passes its label-arrival order so row indices stay consistent
    /// across reused and rebuilt cluster joints. The estimates are
    /// order-independent sums, so scores match a from-scratch fit on the
    /// new clustering bitwise.
    ///
    /// Call [`Fuser::rebuild_cluster_solvers`] afterwards (fresh units
    /// are built dirty), as after any joint row change.
    ///
    /// On `Err` (an over-wide cluster under a correlated method, or a
    /// labelled triple out of the dataset's range) the fuser is left
    /// exactly as it was: all fallible work happens before any fitted
    /// state is touched.
    pub fn reconcile_clustering(
        &mut self,
        ds: &Dataset,
        new_clustering: Clustering,
        labelled: &[(TripleId, bool)],
    ) -> Result<ClusterReconcile> {
        let n = ds.n_sources();
        let mut report = ClusterReconcile {
            reused: 0,
            rebuilt: 0,
        };
        // Index the old units by membership for O(1) reuse lookups.
        let old_index: HashMap<&[usize], usize> = self
            .clusters
            .iter()
            .enumerate()
            .map(|(i, u)| (u.positions.as_slice(), i))
            .collect();
        // Phase 1 (fallible, read-only): plan each new cluster and build
        // the fresh units. Nothing in `self` mutates yet, so any error
        // leaves the fitted model fully intact.
        enum Plan {
            Reuse(usize),
            Fresh(Box<ClusterUnit>),
        }
        let mut plans = Vec::new();
        let mut independent_mask = BitSet::new(n);
        for s in 0..n {
            independent_mask.set(s, true);
        }
        for members in new_clustering.non_trivial() {
            let positions: Vec<usize> = members.iter().map(|m| m.index()).collect();
            if positions.len() > 64 {
                if self.method.uses_correlations() {
                    // Mirror `Fuser::fit`: wider than the bitmask solvers
                    // support.
                    return Err(FusionError::TooManySources {
                        requested: positions.len(),
                        max: 64,
                    });
                }
                continue;
            }
            for &p in &positions {
                independent_mask.set(p, false);
            }
            if let Some(&i) = old_index.get(positions.as_slice()) {
                report.reused += 1;
                plans.push(Plan::Reuse(i));
                continue;
            }
            report.rebuilt += 1;
            let full = SourceSet::full(positions.len());
            let (joint, solver) = if self.method.uses_correlations() {
                let mut joint =
                    EmpiricalJoint::with_labelled_rows(ds, members.clone(), self.alpha, labelled)?;
                joint.set_memo_capacity(self.memo_capacity);
                // Joint and solver are built in lockstep here, so the
                // fresh unit starts clean: a following
                // `rebuild_cluster_solvers` pass correctly skips it.
                let solver = self.method.build_solver(
                    &joint,
                    full,
                    &self.precrec,
                    &positions,
                    self.max_exact_complement,
                );
                (Some(joint), solver)
            } else {
                let solver = self.method.build_solver(
                    &NoJoint,
                    full,
                    &self.precrec,
                    &positions,
                    self.max_exact_complement,
                );
                (None, solver)
            };
            plans.push(Plan::Fresh(Box::new(ClusterUnit {
                positions,
                joint,
                solver,
            })));
        }
        // Phase 2 (infallible): commit. Clusters are disjoint, so each
        // old index is referenced by at most one reuse plan.
        let mut old: Vec<Option<ClusterUnit>> = self.clusters.drain(..).map(Some).collect();
        self.clusters = plans
            .into_iter()
            .map(|p| match p {
                Plan::Reuse(i) => old[i].take().expect("old unit reused once"),
                Plan::Fresh(unit) => *unit,
            })
            .collect();
        self.clustering = new_clustering;
        self.independent_mask = independent_mask;
        Ok(report)
    }

    /// The fitted method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The prior in use.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Estimated per-source quality.
    pub fn qualities(&self) -> &[SourceQuality] {
        &self.qualities
    }

    /// The clustering in effect (singletons for PrecRec under the `Auto`
    /// strategy; explicit strategies are honoured for every method).
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// `ln mu` for one triple; `-inf` / `+inf` for certain-false /
    /// certain-true patterns. `NaN` never escapes (clamped to `-inf`).
    pub fn log_mu(&self, ds: &Dataset, t: TripleId) -> Result<f64> {
        let providers = ds.providers(t);
        let scope = ds.scope_mask(t);
        let indep_scope = self.independent_scope(&scope);
        let mut log_mu = LogMu::Open(self.precrec.log_mu(providers, &indep_scope));
        // Correlated clusters multiply in.
        for unit in &self.clusters {
            if !log_mu.is_open() {
                break;
            }
            let act = unit.active(&scope);
            log_mu = log_mu.times(unit.mu(unit.providing(providers, act), act)?);
        }
        Ok(log_mu.value())
    }

    /// The independent (singleton) sources in `scope`: what the PrecRec
    /// part of `ln mu` reads.
    fn independent_scope(&self, scope: &BitSet) -> BitSet {
        let mut indep_scope = scope.clone();
        indep_scope.intersect_with(&self.independent_mask);
        indep_scope
    }

    /// `Pr(t | O_t)` for one triple.
    pub fn score_triple(&self, ds: &Dataset, t: TripleId) -> Result<f64> {
        Ok(posterior_from_log_mu(self.log_mu(ds, t)?, self.alpha))
    }

    /// `Pr(t | O_t)` for each observation pattern `(domain, providers)`:
    /// bitwise what [`Fuser::score_triple`] returns for every triple of
    /// that domain with exactly that provider set.
    ///
    /// A posterior depends on its triple only through the pattern, and a
    /// cluster factor only through its projection `(prov_c, act_c)`
    /// (paper §4: clusters are independent, so `Pr(O_t | t)` factorises
    /// over them). So the call builds one scope mask per domain, and it
    /// solves each distinct factor once through `engine`. It works
    /// cluster by cluster over the patterns whose fold is still open. As
    /// in [`Fuser::log_mu`], a factor after a 0 or ∞ one is never solved,
    /// so its error cannot surface.
    pub fn score_patterns(
        &self,
        ds: &Dataset,
        patterns: &[(Domain, &BitSet)],
        engine: &ScoringEngine,
    ) -> Result<Vec<f64>> {
        let mut domain_index: HashMap<Domain, usize> = HashMap::new();
        let mut scopes: Vec<BitSet> = Vec::new();
        let scope_of: Vec<usize> = patterns
            .iter()
            .map(|&(d, _)| {
                *domain_index.entry(d).or_insert_with(|| {
                    scopes.push(ds.domain_scope_mask(d));
                    scopes.len() - 1
                })
            })
            .collect();
        let indep_scopes: Vec<BitSet> = scopes.iter().map(|s| self.independent_scope(s)).collect();
        let mut log_mu: Vec<LogMu> = patterns
            .iter()
            .zip(&scope_of)
            .map(|(&(_, providers), &s)| {
                LogMu::Open(self.precrec.log_mu(providers, &indep_scopes[s]))
            })
            .collect();
        let mut open: Vec<usize> = (0..patterns.len()).collect();
        for unit in &self.clusters {
            open.retain(|&i| log_mu[i].is_open());
            if open.is_empty() {
                break;
            }
            let active: Vec<SourceSet> = scopes.iter().map(|s| unit.active(s)).collect();
            let mut factor_index: HashMap<(SourceSet, SourceSet), usize> = HashMap::new();
            let mut factors: Vec<(SourceSet, SourceSet)> = Vec::new();
            let factor_of: Vec<usize> = open
                .iter()
                .map(|&i| {
                    let act = active[scope_of[i]];
                    let key = (unit.providing(patterns[i].1, act), act);
                    *factor_index.entry(key).or_insert_with(|| {
                        factors.push(key);
                        factors.len() - 1
                    })
                })
                .collect();
            let mus = engine.map(factors.len(), |f| unit.mu(factors[f].0, factors[f].1))?;
            for (&i, &f) in open.iter().zip(&factor_of) {
                log_mu[i] = log_mu[i].times(mus[f]);
            }
        }
        Ok(log_mu
            .into_iter()
            .map(|l| posterior_from_log_mu(l.value(), self.alpha))
            .collect())
    }

    /// `Pr(t | O_t)` for every triple, in [`TripleId`] order.
    pub fn score_all(&self, ds: &Dataset) -> Result<Vec<f64>> {
        self.score_all_with(ds, &ScoringEngine::serial())
    }

    /// Parallel [`Fuser::score_all`] over `n_threads` worker threads.
    /// Equivalent to [`Fuser::score_all_with`] and an explicit engine.
    pub fn score_all_parallel(&self, ds: &Dataset, n_threads: usize) -> Result<Vec<f64>> {
        self.score_all_with(ds, &ScoringEngine::with_threads(n_threads))
    }

    /// Score every triple through the given [`ScoringEngine`].
    ///
    /// Scoring is embarrassingly parallel; the engine's workers share this
    /// fitted model immutably. Each empirical joint's subset memo serves
    /// them without a lock from its warm table, and fills the subsets
    /// this pass reads first into its fill table, behind one lock that
    /// is never held across a row scan; the next `&mut` call on the joint
    /// folds them into the warm table. Every term reads the same rates
    /// whichever table answers, so parallel results are bitwise identical
    /// to serial results.
    pub fn score_all_with(&self, ds: &Dataset, engine: &ScoringEngine) -> Result<Vec<f64>> {
        engine.map(ds.n_triples(), |i| {
            self.score_triple(ds, TripleId(i as u32))
        })
    }

    /// Binary accept/reject decisions at the given probability threshold
    /// (the paper uses 0.5).
    pub fn decide(&self, ds: &Dataset, threshold: f64) -> Result<Vec<bool>> {
        Ok(self
            .score_all(ds)?
            .into_iter()
            .map(|p| p > threshold)
            .collect())
    }

    /// Convenience: indices of sources fused independently.
    pub fn independent_sources(&self) -> Vec<SourceId> {
        self.independent_mask
            .iter_ones()
            .map(|i| SourceId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn figure1() -> Dataset {
        let mut b = DatasetBuilder::new();
        let sources: Vec<_> = (1..=5).map(|i| b.source(format!("S{i}"))).collect();
        let rows: [(&str, bool, &[usize]); 10] = [
            ("t1", true, &[1, 2, 4, 5]),
            ("t2", false, &[1, 2]),
            ("t3", true, &[3]),
            ("t4", true, &[2, 3, 4, 5]),
            ("t5", false, &[2, 3]),
            ("t6", true, &[1, 4, 5]),
            ("t7", true, &[1, 2, 3]),
            ("t8", false, &[1, 2, 4, 5]),
            ("t9", false, &[1, 2, 4, 5]),
            ("t10", true, &[1, 3, 4, 5]),
        ];
        for (name, truth, provs) in rows {
            let t = b.triple("Obama", "fact", name);
            for &p in provs {
                b.observe(sources[p - 1], t);
            }
            b.label(t, truth);
        }
        b.build().unwrap()
    }

    fn f1_at_half(ds: &Dataset, scores: &[f64]) -> (f64, f64, f64) {
        let gold = ds.gold().unwrap();
        let (mut tp, mut fp, mut fnn) = (0.0, 0.0, 0.0);
        for t in ds.triples() {
            let yes = scores[t.index()] > 0.5;
            match (yes, gold.get(t).unwrap()) {
                (true, true) => tp += 1.0,
                (true, false) => fp += 1.0,
                (false, true) => fnn += 1.0,
                _ => {}
            }
        }
        let p = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
        let r = if tp + fnn > 0.0 { tp / (tp + fnn) } else { 0.0 };
        (p, r, crate::prob::f1_score(p, r))
    }

    #[test]
    fn precrec_on_figure1_matches_overview_claim() {
        // §2.3: F1 = .86 (precision .75, recall 1).
        let ds = figure1();
        let fuser =
            Fuser::fit(&FuserConfig::new(Method::PrecRec), &ds, ds.gold().unwrap()).unwrap();
        let scores = fuser.score_all(&ds).unwrap();
        let (p, r, f1) = f1_at_half(&ds, &scores);
        assert!((p - 0.75).abs() < 1e-9, "precision {p}");
        assert!((r - 1.0).abs() < 1e-9, "recall {r}");
        assert!((f1 - 6.0 / 7.0).abs() < 1e-9, "f1 {f1}");
    }

    #[test]
    fn exact_corr_on_figure1_matches_overview_claim() {
        // §2.3: PrecRecCorr reaches F1 = .91 (precision 1, recall .83).
        let ds = figure1();
        let fuser = Fuser::fit(&FuserConfig::new(Method::Exact), &ds, ds.gold().unwrap()).unwrap();
        let scores = fuser.score_all(&ds).unwrap();
        let (p, r, f1) = f1_at_half(&ds, &scores);
        assert!((p - 1.0).abs() < 1e-9, "precision {p}");
        assert!((r - 5.0 / 6.0).abs() < 1e-9, "recall {r}");
        assert!(f1 > 0.9, "f1 {f1}");
    }

    #[test]
    fn exact_corr_rejects_t8() {
        let ds = figure1();
        let fuser = Fuser::fit(&FuserConfig::new(Method::Exact), &ds, ds.gold().unwrap()).unwrap();
        let p_t8 = fuser.score_triple(&ds, TripleId(7)).unwrap();
        assert!(p_t8 < 0.5, "Pr(t8)={p_t8}");
        // While PrecRec wrongly accepts it (Example 3.3).
        let precrec =
            Fuser::fit(&FuserConfig::new(Method::PrecRec), &ds, ds.gold().unwrap()).unwrap();
        assert!(precrec.score_triple(&ds, TripleId(7)).unwrap() > 0.5);
    }

    #[test]
    fn singleton_strategy_degrades_to_precrec() {
        let ds = figure1();
        let corr = Fuser::fit(
            &FuserConfig::new(Method::Exact).with_strategy(ClusterStrategy::Singletons),
            &ds,
            ds.gold().unwrap(),
        )
        .unwrap();
        let indep =
            Fuser::fit(&FuserConfig::new(Method::PrecRec), &ds, ds.gold().unwrap()).unwrap();
        for t in ds.triples() {
            let a = corr.score_triple(&ds, t).unwrap();
            let b = indep.score_triple(&ds, t).unwrap();
            assert!((a - b).abs() < 1e-9, "{t}: {a} vs {b}");
        }
    }

    #[test]
    fn elastic_levels_bracket_exact_on_figure1() {
        let ds = figure1();
        let exact = Fuser::fit(&FuserConfig::new(Method::Exact), &ds, ds.gold().unwrap())
            .unwrap()
            .score_all(&ds)
            .unwrap();
        // Level >= 4 covers any complement in a 5-source cluster: equal.
        let lvl4 = Fuser::fit(
            &FuserConfig::new(Method::Elastic(4)),
            &ds,
            ds.gold().unwrap(),
        )
        .unwrap()
        .score_all(&ds)
        .unwrap();
        for (i, (a, b)) in exact.iter().zip(&lvl4).enumerate() {
            assert!((a - b).abs() < 1e-9, "t{i}: exact {a} vs lvl4 {b}");
        }
    }

    #[test]
    fn aggressive_runs_and_scores_are_probabilities() {
        let ds = figure1();
        let fuser = Fuser::fit(
            &FuserConfig::new(Method::Aggressive),
            &ds,
            ds.gold().unwrap(),
        )
        .unwrap();
        for p in fuser.score_all(&ds).unwrap() {
            assert!((0.0..=1.0).contains(&p), "{p}");
        }
    }

    #[test]
    fn parallel_scores_match_sequential() {
        let ds = figure1();
        let fuser = Fuser::fit(&FuserConfig::new(Method::Exact), &ds, ds.gold().unwrap()).unwrap();
        let seq = fuser.score_all(&ds).unwrap();
        let par = fuser.score_all_parallel(&ds, 4).unwrap();
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn decide_thresholds() {
        let ds = figure1();
        let fuser = Fuser::fit(&FuserConfig::new(Method::Exact), &ds, ds.gold().unwrap()).unwrap();
        let low = fuser.decide(&ds, 0.0).unwrap();
        // threshold 0: everything with positive probability accepted.
        assert!(low.iter().filter(|&&b| b).count() >= 6);
        let high = fuser.decide(&ds, 0.999999).unwrap();
        assert!(high.iter().filter(|&&b| b).count() <= low.iter().filter(|&&b| b).count());
    }

    #[test]
    fn auto_strategy_single_cluster_for_small_n() {
        let ds = figure1();
        let fuser = Fuser::fit(&FuserConfig::new(Method::Exact), &ds, ds.gold().unwrap()).unwrap();
        assert_eq!(fuser.clustering().len(), 1);
        assert!(fuser.independent_sources().is_empty());
    }

    #[test]
    fn explicit_clustering_is_honoured() {
        let ds = figure1();
        // S1+S4+S5 in one cluster, S2/S3 independent.
        let clustering = Clustering::from_assignment(vec![0, 1, 2, 0, 0]);
        let fuser = Fuser::fit(
            &FuserConfig::new(Method::Exact)
                .with_strategy(ClusterStrategy::Explicit(clustering.clone())),
            &ds,
            ds.gold().unwrap(),
        )
        .unwrap();
        assert_eq!(fuser.clustering().clique_sizes(), vec![3]);
        assert_eq!(fuser.independent_sources().len(), 2);
        // Still produces valid probabilities.
        for p in fuser.score_all(&ds).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn refresh_and_rebuild_match_fresh_fit() {
        // Fit on a truncated label set, then feed the held-out labels in
        // through the delta hooks: the patched fuser must score bitwise
        // identically to a fuser fitted from scratch on the full labels.
        let ds = figure1();
        let gold = ds.gold().unwrap();
        let keep: std::collections::HashSet<TripleId> = (0..7u32).map(TripleId).collect();
        let partial = gold.restricted_to(&keep);
        for method in [
            Method::Exact,
            Method::Aggressive,
            Method::Elastic(2),
            Method::PrecRec,
        ] {
            let config = FuserConfig::new(method).with_strategy(ClusterStrategy::SingleCluster);
            let mut patched = Fuser::fit(&config, &ds, &partial).unwrap();
            // Push the held-out rows into the joint (correlated methods).
            for i in 0..patched.n_cluster_units() {
                if patched.cluster_joint(i).is_none() {
                    continue;
                }
                for t in (7..10u32).map(TripleId) {
                    let (prov, scope) = patched.cluster_joint(i).unwrap().project_pattern(&ds, t);
                    patched.cluster_joint_mut(i).unwrap().push_row(
                        prov,
                        scope,
                        gold.get(t).unwrap(),
                    );
                }
            }
            // Recompute per-source quality on the full labels and refresh.
            let qualities = crate::quality::QualityEstimator::new()
                .estimate(&ds, gold)
                .unwrap();
            patched.refresh_quality(qualities, 0.5).unwrap();
            patched.rebuild_cluster_solvers();

            let fresh = Fuser::fit(&config, &ds, gold).unwrap();
            for t in ds.triples() {
                let a = patched.score_triple(&ds, t).unwrap();
                let b = fresh.score_triple(&ds, t).unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "{method:?} {t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn reconcile_clustering_matches_fresh_fit() {
        // Fit under one explicit clustering, then reconcile to a changed
        // partition: the unit whose membership survived must be reused,
        // the changed ones rebuilt, and scores must equal a from-scratch
        // fit on the new clustering bitwise.
        let ds = figure1();
        let gold = ds.gold().unwrap();
        let labelled: Vec<(TripleId, bool)> = gold.iter_labelled().collect();
        let before = Clustering::from_assignment(vec![0, 1, 2, 0, 0]); // {S1,S4,S5}
        let after = Clustering::from_assignment(vec![0, 1, 1, 0, 0]); // + {S2,S3}
        for method in [Method::Exact, Method::Aggressive, Method::Elastic(2)] {
            let cfg_before =
                FuserConfig::new(method).with_strategy(ClusterStrategy::Explicit(before.clone()));
            let mut patched = Fuser::fit(&cfg_before, &ds, gold).unwrap();
            let report = patched
                .reconcile_clustering(&ds, after.clone(), &labelled)
                .unwrap();
            assert_eq!((report.reused, report.rebuilt), (1, 1), "{method:?}");
            let rebuilds = patched.rebuild_cluster_solvers();
            // The reused unit's joint is clean: solver reused too.
            assert_eq!(rebuilds.reused, 2, "{method:?}: {rebuilds:?}");
            let cfg_after =
                FuserConfig::new(method).with_strategy(ClusterStrategy::Explicit(after.clone()));
            let fresh = Fuser::fit(&cfg_after, &ds, gold).unwrap();
            for t in ds.triples() {
                let a = patched.score_triple(&ds, t).unwrap();
                let b = fresh.score_triple(&ds, t).unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "{method:?} {t}");
            }
        }
    }

    #[test]
    fn score_patterns_matches_score_triple() {
        // Figure 1 plus an unlabelled t11 provided by {S1,S4} alone: the
        // fit is unchanged, and under Exact t11's first factor is 0 (S5
        // provides every true triple that S1 and S4 both provide).
        let mut ds = figure1();
        let t11 = ds.add_triple(
            crate::triple::Triple::new("Obama", "fact", "t11"),
            Domain(0),
        );
        ds.observe(SourceId(0), t11).unwrap();
        ds.observe(SourceId(3), t11).unwrap();
        let gold = ds.gold().unwrap().clone();
        let two = Clustering::from_assignment(vec![0, 1, 1, 0, 0]); // {S1,S4,S5} + {S2,S3}
        let pattern = |t: TripleId| (ds.domain(t), ds.providers(t));
        for method in [
            Method::PrecRec,
            Method::Exact,
            Method::Aggressive,
            Method::Elastic(2),
        ] {
            let config =
                FuserConfig::new(method).with_strategy(ClusterStrategy::Explicit(two.clone()));
            let fuser = Fuser::fit(&config, &ds, &gold).unwrap();
            assert_eq!(fuser.cluster_unit_positions(0), &[0, 3, 4]);
            // Every pattern twice, so factors collapse within the call
            // (t1, t8 and t9 already share one pattern).
            let patterns: Vec<_> = ds.triples().chain(ds.triples()).map(pattern).collect();
            for engine in [ScoringEngine::serial(), ScoringEngine::with_threads(4)] {
                let scores = fuser.score_patterns(&ds, &patterns, &engine).unwrap();
                for (t, got) in ds.triples().chain(ds.triples()).zip(scores) {
                    let want = fuser.score_triple(&ds, t).unwrap();
                    assert_eq!(got.to_bits(), want.to_bits(), "{method:?} {t}");
                }
            }
            if method == Method::Exact {
                let unit = &fuser.clusters[0];
                let act = unit.active(&ds.scope_mask(t11));
                let first = unit
                    .mu(unit.providing(ds.providers(t11), act), act)
                    .unwrap();
                assert_eq!(first, 0.0, "t11 settles on its first factor");
                assert_eq!(fuser.score_triple(&ds, t11).unwrap(), 0.0);
            }
        }

        // A factor after a settling one is never solved, so its error
        // cannot surface: with the complement capped at 1, t11's {S2,S3}
        // factor (complement 2) would fail, but its first factor is 0.
        // t3's first factor (complement 3) fails in both paths.
        let mut config =
            FuserConfig::new(Method::Exact).with_strategy(ClusterStrategy::Explicit(two));
        config.max_exact_complement = 1;
        let fuser = Fuser::fit(&config, &ds, &gold).unwrap();
        let engine = ScoringEngine::serial();
        assert_eq!(fuser.score_triple(&ds, t11).unwrap(), 0.0);
        let ok = fuser
            .score_patterns(&ds, &[pattern(t11), pattern(TripleId(0))], &engine)
            .unwrap();
        assert_eq!(ok[0], 0.0);
        let t1 = fuser.score_triple(&ds, TripleId(0)).unwrap();
        assert_eq!(ok[1].to_bits(), t1.to_bits());
        assert!(fuser.score_triple(&ds, TripleId(2)).is_err());
        assert!(fuser
            .score_patterns(&ds, &[pattern(t11), pattern(TripleId(2))], &engine)
            .is_err());
    }

    #[test]
    fn invalid_alpha_rejected_at_fit() {
        let ds = figure1();
        let cfg = FuserConfig::new(Method::PrecRec).with_alpha(1.5);
        assert!(Fuser::fit(&cfg, &ds, ds.gold().unwrap()).is_err());
    }

    #[test]
    fn method_names() {
        assert_eq!(Method::PrecRec.name(), "PrecRec");
        assert_eq!(Method::Exact.name(), "PrecRecCorr");
        assert_eq!(Method::Elastic(3).name(), "PrecRecCorr-Lvl3");
        assert_eq!(Method::Aggressive.name(), "PrecRecCorr-Aggr");
        assert!(!Method::PrecRec.uses_correlations());
        assert!(Method::Elastic(0).uses_correlations());
    }
}

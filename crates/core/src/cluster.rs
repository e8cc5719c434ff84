//! Correlation-based source clustering (§5 "Comparisons", BOOK protocol).
//!
//! The exact and elastic solvers pay per-cluster costs that grow with
//! cluster width, so for datasets with many sources the paper "divide\[s\]
//! sources into clusters based on their pairwise correlations, and
//! assume\[s\] that sources across clusters are independent". We implement
//! that with:
//!
//! 1. a pairwise correlation *lift* on true triples
//!    (`n11 * N_true / (n1 * n2)`) and on false triples, smoothed so zero
//!    co-occurrence stays finite;
//! 2. an edge list of pairs whose `|ln lift|` exceeds a threshold;
//! 3. size-capped union-find: edges are applied strongest-first, skipping
//!    any union that would exceed `max_cluster_size`.
//!
//! Sources not pulled into any clique become singleton clusters, for which
//! the fuser uses the plain independent contribution.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::bits::BitSet;
use crate::dataset::{Dataset, GoldLabels, SourceId};
use crate::error::{FusionError, Result};
use crate::triple::TripleId;

/// Tuning knobs for [`cluster_sources`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Minimum `|ln lift|` for a pair to count as correlated.
    /// The default `ln(1.5)` treats ±50% deviation from independence as
    /// signal.
    pub ln_threshold: f64,
    /// Minimum number of labelled triples each side must provide (per
    /// polarity) before its lift is trusted.
    pub min_support: usize,
    /// Hard cap on cluster width; unions that would exceed it are skipped.
    pub max_cluster_size: usize,
    /// Smoothing pseudo-count added to co-occurrence counts.
    pub smoothing: f64,
    /// Correlation-sketch admission tier for [`LiftGraph`]; disabled by
    /// default (every co-scoped pair gets exact counts).
    pub sketch: SketchParams,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            ln_threshold: 1.5f64.ln(),
            min_support: 4,
            max_cluster_size: 24,
            smoothing: 0.5,
            sketch: SketchParams::default(),
        }
    }
}

/// Knobs for the correlation-sketch prefilter of [`LiftGraph`].
///
/// When enabled, the graph keeps exact pair counts only for *admitted*
/// pairs; everything else is summarised by small per-source claim
/// samples plus exact per-domain counters, and a pair is admitted the
/// moment its sketched lift *could* reach `ClusterConfig::ln_threshold`.
/// See the [`LiftGraph`] type docs for the precise contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchParams {
    /// Maintain the sketch tier and admit pairs lazily. When `false`
    /// the graph stores exact counts for every co-scoped pair.
    pub enabled: bool,
    /// Bottom-k sample size per source per polarity. While a source's
    /// provisions fit in the sample, its co-provision counts (and hence
    /// admission decisions involving it) are *exact*; beyond it they
    /// become conservative estimates.
    pub sample_size: usize,
    /// Relative slack applied to estimated co-provision counts once a
    /// sample has saturated, widening the admission interval so borderline
    /// pairs still get admitted. Irrelevant while samples are exact.
    pub margin: f64,
}

impl Default for SketchParams {
    fn default() -> Self {
        SketchParams {
            enabled: false,
            sample_size: 64,
            margin: 0.5,
        }
    }
}

impl SketchParams {
    /// Enabled with default sample size and margin.
    pub fn on() -> Self {
        SketchParams {
            enabled: true,
            ..SketchParams::default()
        }
    }
}

/// Pairwise correlation evidence between two sources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairCorrelation {
    /// First source.
    pub a: SourceId,
    /// Second source.
    pub b: SourceId,
    /// Lift on true triples (`>1` positive, `<1` negative, `1` independent),
    /// `None` without enough support.
    pub lift_true: Option<f64>,
    /// Lift on false triples.
    pub lift_false: Option<f64>,
}

impl PairCorrelation {
    /// Edge strength: the largest absolute log-lift over both polarities.
    pub fn strength(&self) -> f64 {
        let s1 = self.lift_true.map(|l| l.ln().abs()).unwrap_or(0.0);
        let s2 = self.lift_false.map(|l| l.ln().abs()).unwrap_or(0.0);
        s1.max(s2)
    }
}

/// A partition of the sources into correlation clusters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// Cluster membership per source index.
    assignment: Vec<usize>,
    /// Clusters as sorted member lists; singletons included.
    clusters: Vec<Vec<SourceId>>,
}

impl Clustering {
    /// Build from an explicit assignment vector (cluster id per source).
    pub fn from_assignment(assignment: Vec<usize>) -> Self {
        let n_clusters = assignment.iter().copied().max().map_or(0, |m| m + 1);
        let mut clusters = vec![Vec::new(); n_clusters];
        for (s, &c) in assignment.iter().enumerate() {
            clusters[c].push(SourceId(s as u32));
        }
        clusters.retain(|c| !c.is_empty());
        // Re-number densely.
        let mut dense = vec![0usize; assignment.len()];
        for (ci, members) in clusters.iter().enumerate() {
            for m in members {
                dense[m.index()] = ci;
            }
        }
        Clustering {
            assignment: dense,
            clusters,
        }
    }

    /// One cluster per source (the fully-independent fallback).
    pub fn singletons(n_sources: usize) -> Self {
        Clustering::from_assignment((0..n_sources).collect())
    }

    /// Every source in one cluster.
    pub fn single_cluster(n_sources: usize) -> Self {
        Clustering::from_assignment(vec![0; n_sources])
    }

    /// Cluster id of a source.
    pub fn cluster_of(&self, s: SourceId) -> usize {
        self.assignment[s.index()]
    }

    /// The clusters, each a sorted list of member sources.
    pub fn clusters(&self) -> &[Vec<SourceId>] {
        &self.clusters
    }

    /// Clusters with at least two members (the ones that get joint
    /// treatment).
    pub fn non_trivial(&self) -> impl Iterator<Item = &Vec<SourceId>> {
        self.clusters.iter().filter(|c| c.len() > 1)
    }

    /// Number of clusters (including singletons).
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// True when there are no clusters (empty dataset).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Sorted sizes of non-trivial clusters, descending — the shape the
    /// paper reports for BOOK ("clusters of size 22, 3, and 2").
    pub fn clique_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self
            .clusters
            .iter()
            .map(Vec::len)
            .filter(|&l| l > 1)
            .collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }
}

/// Disjoint-set forest with union-by-size and a size cap.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set (path-halving).
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Size of `x`'s set.
    pub fn set_size(&mut self, x: usize) -> usize {
        let root = self.find(x);
        self.size[root]
    }

    /// Union the sets of `a` and `b` unless the merged size would exceed
    /// `cap`. Returns whether a merge happened.
    pub fn union_capped(&mut self, a: usize, b: usize, cap: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] + self.size[rb] > cap {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        true
    }

    /// Dense cluster-id assignment.
    pub fn into_assignment(mut self) -> Vec<usize> {
        let n = self.parent.len();
        let mut ids = std::collections::HashMap::new();
        let mut out = Vec::with_capacity(n);
        for x in 0..n {
            let root = self.find(x);
            let next = ids.len();
            let id = *ids.entry(root).or_insert(next);
            out.push(id);
        }
        out
    }
}

/// The smoothed lift of one pair for one polarity, from its exact
/// co-occurrence counts: `n11` co-provisions, `na` / `nb` per-side
/// provisions and `total` shared-scope triples (all within the pair's
/// scope intersection).
///
/// This is the **single** float expression behind both the batch
/// ([`pairwise_correlations`]) and incremental ([`LiftGraph`]) paths, so
/// equal integer counts always yield bitwise-equal lifts. `None` when the
/// pair shares no scope or either side lacks `min_support`.
pub fn lift_from_counts(
    n11: usize,
    na: usize,
    nb: usize,
    total: usize,
    cfg: &ClusterConfig,
) -> Option<f64> {
    if total == 0 {
        return None;
    }
    if na < cfg.min_support || nb < cfg.min_support {
        return None;
    }
    let s = cfg.smoothing;
    let expectation = (na as f64 + s) * (nb as f64 + s) / (total as f64 + s);
    Some(((n11 as f64 + s) / expectation).max(1e-9))
}

/// Compute pairwise correlations between all sources from labelled data.
///
/// For each polarity, the lift of `(a, b)` is observed co-occurrence over
/// the independence expectation, with pseudo-count smoothing — computed
/// **within the pair's scope intersection**. For scoped datasets (e.g.
/// BOOK, where sellers list only some books) two sources that merely cover
/// the same objects would otherwise look strongly correlated; restricting
/// all four counts to triples both sources cover isolates correlation of
/// *provision*, which is the signal copying leaves behind. Pairs where
/// either side provides fewer than `min_support` labelled triples of a
/// polarity (within the intersection) get `None` for that polarity.
pub fn pairwise_correlations(
    ds: &Dataset,
    gold: &GoldLabels,
    cfg: &ClusterConfig,
) -> Result<Vec<PairCorrelation>> {
    if gold.labelled_count() == 0 {
        return Err(FusionError::MissingGold);
    }
    let n = ds.n_sources();
    let n_true = gold.true_count();
    let n_false = gold.false_count();

    // Per-source bitsets over labelled-true / labelled-false triple ranks:
    // provision and scope membership.
    let mut true_sets = vec![BitSet::new(n_true); n];
    let mut false_sets = vec![BitSet::new(n_false); n];
    let mut true_scope = vec![BitSet::new(n_true); n];
    let mut false_scope = vec![BitSet::new(n_false); n];
    let (mut ti, mut fi) = (0usize, 0usize);
    for (t, truth) in gold.iter_labelled() {
        let providers = ds.providers(t);
        let scope = ds.scope_mask(t);
        let (idx, sets, scopes) = if truth {
            (ti, &mut true_sets, &mut true_scope)
        } else {
            (fi, &mut false_sets, &mut false_scope)
        };
        for s in scope.iter_ones() {
            scopes[s].set(idx, true);
            if providers.get(s) {
                sets[s].set(idx, true);
            }
        }
        if truth {
            ti += 1;
        } else {
            fi += 1;
        }
    }

    // Lift over the scope intersection of (a, b).
    let pair_lift =
        |prov_a: &BitSet, prov_b: &BitSet, scope_a: &BitSet, scope_b: &BitSet| -> Option<f64> {
            let mut shared_scope = scope_a.clone();
            shared_scope.intersect_with(scope_b);
            let total = shared_scope.count_ones();
            let na = prov_a.intersection_count(&shared_scope);
            let nb = prov_b.intersection_count(&shared_scope);
            let n11 = prov_a.intersection_count(prov_b);
            lift_from_counts(n11, na, nb, total, cfg)
        };

    let mut out = Vec::with_capacity(n * (n - 1) / 2);
    for a in 0..n {
        for b in a + 1..n {
            out.push(PairCorrelation {
                a: SourceId(a as u32),
                b: SourceId(b as u32),
                lift_true: pair_lift(&true_sets[a], &true_sets[b], &true_scope[a], &true_scope[b]),
                lift_false: pair_lift(
                    &false_sets[a],
                    &false_sets[b],
                    &false_scope[a],
                    &false_scope[b],
                ),
            });
        }
    }
    Ok(out)
}

/// Partition sources into correlation clusters given their pairwise
/// lifts (strongest edges first, size-capped union-find).
///
/// The deterministic second half of [`cluster_sources`], shared with the
/// incremental [`LiftGraph::clustering`] path: equal `pairs` (in the
/// same `(a, b)` enumeration order — ties keep it, the sort is stable)
/// always produce the identical [`Clustering`].
pub fn cluster_from_pairs(
    n_sources: usize,
    mut pairs: Vec<PairCorrelation>,
    cfg: &ClusterConfig,
) -> Clustering {
    pairs.retain(|p| p.strength() >= cfg.ln_threshold);
    pairs.sort_by(|x, y| {
        y.strength()
            .partial_cmp(&x.strength())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut uf = UnionFind::new(n_sources);
    let cap = cfg.max_cluster_size.clamp(1, 64);
    for p in &pairs {
        uf.union_capped(p.a.index(), p.b.index(), cap);
    }
    Clustering::from_assignment(uf.into_assignment())
}

/// Partition sources into correlation clusters (strongest edges first,
/// size-capped union-find).
///
/// Wide worlds (or an enabled sketch tier, which must drive admission)
/// route through the sparse [`LiftGraph`], so batch fitting pays only
/// for co-scoped (or sketch-admitted) pairs instead of `n²`. Narrow
/// worlds keep the dense [`pairwise_correlations`] scan: at paper-scale
/// source counts its word-parallel bitset intersections beat per-triple
/// pair updates by ~4x. The two paths are bitwise identical — see the
/// [`LiftGraph`] sparsity contract — so the switch is purely a cost
/// choice.
pub fn cluster_sources(ds: &Dataset, gold: &GoldLabels, cfg: &ClusterConfig) -> Result<Clustering> {
    /// Above this, the all-pairs table itself dominates the sparse
    /// graph's per-triple overhead even on fully co-scoped data.
    const DENSE_BATCH_MAX_SOURCES: usize = 512;
    let n = ds.n_sources();
    if n == 0 {
        return Ok(Clustering::singletons(0));
    }
    if gold.labelled_count() == 0 {
        return Err(FusionError::MissingGold);
    }
    if !cfg.sketch.enabled && n <= DENSE_BATCH_MAX_SOURCES {
        let pairs = pairwise_correlations(ds, gold, cfg)?;
        return Ok(cluster_from_pairs(n, pairs, cfg));
    }
    Ok(LiftGraph::build(ds, gold, cfg).clustering())
}

/// Exact co-occurrence counts of one source pair for one polarity, all
/// restricted to the pair's scope intersection (see
/// [`pairwise_correlations`] for why).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PairCounts {
    /// Labelled triples of this polarity in both sources' scope.
    total: u32,
    /// Of those, provided by the pair's lower-indexed source.
    na: u32,
    /// Of those, provided by the pair's higher-indexed source.
    nb: u32,
    /// Of those, provided by both.
    n11: u32,
}

impl PairCounts {
    #[inline]
    fn bump(v: &mut u32, delta: i32) {
        *v = v.checked_add_signed(delta).expect("pair count underflow");
    }

    fn lift(&self, cfg: &ClusterConfig) -> Option<f64> {
        lift_from_counts(
            self.n11 as usize,
            self.na as usize,
            self.nb as usize,
            self.total as usize,
            cfg,
        )
    }
}

/// Both polarities' exact counts of one tracked pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PairState {
    t: PairCounts,
    f: PairCounts,
}

impl PairState {
    #[inline]
    fn side_mut(&mut self, truth: bool) -> &mut PairCounts {
        if truth {
            &mut self.t
        } else {
            &mut self.f
        }
    }

    fn correlation(&self, a: usize, b: usize, cfg: &ClusterConfig) -> PairCorrelation {
        PairCorrelation {
            a: SourceId(a as u32),
            b: SourceId(b as u32),
            lift_true: self.t.lift(cfg),
            lift_false: self.f.lift(cfg),
        }
    }
}

/// Packed upper-triangle key of a source pair, `a < b`.
#[inline]
fn pair_key(a: usize, b: usize) -> u64 {
    debug_assert!(a < b);
    ((a as u64) << 32) | b as u64
}

#[inline]
fn unpack_key(key: u64) -> (usize, usize) {
    ((key >> 32) as usize, (key & 0xffff_ffff) as usize)
}

/// Size-observability counters of a [`LiftGraph`]: how many pairs carry
/// exact counts, and how many candidate evaluations the sketch tier has
/// declined (cumulative — a pair re-evaluated after new deltas counts
/// again).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiftGraphStats {
    /// Pairs currently tracked with exact counts (the sparse map size).
    pub pairs_exact: usize,
    /// Cumulative sketch-admission evaluations that declined a pair.
    pub pairs_sketch_pruned: u64,
}

impl LiftGraphStats {
    /// Combine counters from two graphs (sums both fields;
    /// `pairs_exact` becomes total occupancy).
    pub fn merged(self, other: LiftGraphStats) -> LiftGraphStats {
        LiftGraphStats {
            pairs_exact: self.pairs_exact + other.pairs_exact,
            pairs_sketch_pruned: self.pairs_sketch_pruned + other.pairs_sketch_pruned,
        }
    }
}

/// Incrementally maintained pairwise-lift state: a **sparse
/// upper-triangle map** of the integer counts behind tracked pairs'
/// true/false lifts, kept exact under label, claim and scope deltas.
///
/// [`pairwise_correlations`] recomputes all `n²` pair counts with one
/// pass over the labelled data, which data-driven (`Auto`) clustering
/// used to pay on *every* label change by falling back to a full refit.
/// A `LiftGraph` instead stores counts only for pairs that can matter
/// and absorbs each delta in O(in-scope sources²) integer updates; it
/// can re-derive the clustering from its maintained counts at any time
/// — [`LiftGraph::clustering`] — through the exact code path
/// ([`lift_from_counts`] + [`cluster_from_pairs`]) the batch
/// computation uses, so both always agree bitwise.
///
/// # Sparsity and the sketch-admission contract
///
/// With the sketch disabled (default), the map holds every *co-scoped*
/// pair — pairs that share at least one labelled triple's scope. A pair
/// of sources that never share scope has zero counts, hence `None`
/// lifts and strength `0.0`, which [`cluster_from_pairs`] drops for any
/// positive `ln_threshold`; omitting such pairs from
/// [`LiftGraph::pair_correlations`] therefore cannot change the
/// clustering. (For the degenerate `ln_threshold <= 0` configuration,
/// where zero-strength pairs *would* union, emission falls back to the
/// full dense enumeration so equality still holds.)
///
/// With [`SketchParams::enabled`], co-scoped pairs start *untracked*:
/// the graph maintains per-source bottom-k claim samples plus exact
/// per-domain provision/label counters, and
/// [`LiftGraph::admit_candidates`] promotes a pair to exact tracking
/// the moment an upper bound on its sketched strength reaches
/// `ln_threshold` (admission is monotone — a pair is never demoted; its
/// exact counts are rebuilt by a shared-scope rescan at admission and
/// maintained by the delta hooks thereafter). Exact counts remain the
/// *sole* input to [`cluster_from_pairs`]; the sketch only withholds
/// pairs. While every involved sample is unsaturated (a source provides
/// at most `sample_size` labelled triples per polarity) the sketched
/// co-provision count is exact, so pruning decisions equal the exact
/// decisions and the clustering stays bitwise identical to the
/// sketch-disabled configuration. Once samples saturate, admission uses
/// a conservative interval (KMV estimate ± `margin`, clamped to hard
/// inclusion-exclusion bounds) and may, for aggressive thresholds,
/// prune a borderline pair.
///
/// # Hook contract
///
/// Callers apply dataset deltas first, then mirror them here:
///
/// * a (re)label of triple `t` — providers and scopes unchanged —
///   becomes [`LiftGraph::relabel`];
/// * a new claim `(s, t)` that did **not** expand `s`'s scope becomes
///   [`LiftGraph::source_provided`] (only `s`'s provision sets change);
/// * a claim that *did* expand `s`'s scope into domain `d` becomes one
///   [`LiftGraph::source_entered_scope`] per labelled triple of `d`
///   (including `t` itself if labelled — its provision is absorbed in
///   the same call), because every such triple now counts `s` in its
///   scope intersection with every other in-scope source;
/// * after a batch of deltas, and before reading
///   [`LiftGraph::clustering`], call [`LiftGraph::admit_candidates`]
///   so newly-correlated pairs get promoted (a no-op when the sketch is
///   disabled).
///
/// A new *source* changes the pair universe; rebuild with
/// [`LiftGraph::build`] (incremental callers fall back to a full refit
/// there anyway).
#[derive(Debug, Clone)]
pub struct LiftGraph {
    n: usize,
    cfg: ClusterConfig,
    /// Exact pair counts, keyed by [`pair_key`] — sparse over co-scoped
    /// (sketch off) or admitted (sketch on) pairs only.
    pairs: HashMap<u64, PairState>,
    /// Sketch tier; `Some` exactly when `cfg.sketch.enabled`.
    sketch: Option<SketchTier>,
    /// Cumulative candidate evaluations the sketch declined.
    sketch_pruned: u64,
    /// Any count changed since the last [`LiftGraph::take_changed`].
    changed: bool,
}

impl LiftGraph {
    /// Build from the current labelled state; tracked pairs mirror
    /// [`pairwise_correlations`]' counts exactly. A dataset with no
    /// labels yields an empty graph (every lift `None`).
    pub fn build(ds: &Dataset, gold: &GoldLabels, cfg: &ClusterConfig) -> LiftGraph {
        let n = ds.n_sources();
        let mut graph = LiftGraph {
            n,
            cfg: *cfg,
            pairs: HashMap::new(),
            sketch: cfg.sketch.enabled.then(|| SketchTier::new(n, &cfg.sketch)),
            sketch_pruned: 0,
            changed: false,
        };
        if let Some(sk) = &mut graph.sketch {
            // Pass 1a: per-domain counters and label index, in
            // label-arrival order (matches the delta path).
            for (t, truth) in gold.iter_labelled() {
                let d = ds.domain(t).0;
                sk.dirty.insert(d);
                sk.domain_labelled.entry(d).or_default().push(t);
                sk.domain_totals.entry(d).or_default()[truth as usize] += 1;
            }
            // Pass 1b: per-source samples from the output lists —
            // O(observations), never a provider-bitset scan per triple.
            // Bottom-k samples and provision counters are insertion-order
            // independent, so this lands bit-identically to absorbing
            // labels one at a time.
            for s in 0..n {
                for &t in ds.output(SourceId(s as u32)) {
                    if let Some(truth) = gold.get(t) {
                        sk.sources[s][truth as usize].add(ds.domain(t).0, t, sk.k);
                    }
                }
            }
        } else {
            // In-scope sources per domain, ascending — one dataset pass
            // instead of an O(n_sources) scope scan per labelled triple.
            let mut domain_members: HashMap<u32, Vec<usize>> = HashMap::new();
            for s in 0..n {
                for dom in ds.scope(SourceId(s as u32)) {
                    domain_members.entry(dom.0).or_default().push(s);
                }
            }
            for (t, truth) in gold.iter_labelled() {
                if let Some(scope) = domain_members.get(&ds.domain(t).0) {
                    graph.contribute_scoped(ds, scope, t, truth, 1);
                }
            }
        }
        // Pass 2 (sketch only): evaluate co-scoped candidates, rescan
        // the admitted.
        graph.admit_candidates(ds);
        graph.changed = false;
        graph
    }

    /// Number of sources the pair universe covers.
    pub fn n_sources(&self) -> usize {
        self.n
    }

    /// The clustering knobs the lifts and edges are derived with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Current size/prune counters.
    pub fn stats(&self) -> LiftGraphStats {
        LiftGraphStats {
            pairs_exact: self.pairs.len(),
            pairs_sketch_pruned: self.sketch_pruned,
        }
    }

    /// Mutable counts of `(a, b)`, `a < b`. Sketch off: co-scoped pairs
    /// materialise on first touch. Sketch on: only admitted pairs are
    /// maintained — everything else is `None` (the sketch tier absorbs
    /// the delta instead).
    #[inline]
    fn pair_mut(&mut self, a: usize, b: usize) -> Option<&mut PairState> {
        let key = pair_key(a, b);
        if self.sketch.is_some() {
            self.pairs.get_mut(&key)
        } else {
            Some(self.pairs.entry(key).or_default())
        }
    }

    /// Add (`delta = 1`) or retract (`delta = -1`) one labelled triple's
    /// whole contribution to tracked pairs, from current provider/scope
    /// state.
    fn contribute(&mut self, ds: &Dataset, t: TripleId, truth: bool, delta: i32) {
        let scope: Vec<usize> = ds.scope_mask(t).iter_ones().collect();
        self.contribute_scoped(ds, &scope, t, truth, delta);
    }

    /// [`LiftGraph::contribute`] with the in-scope source list (ascending)
    /// already in hand — the batch build path resolves it once per domain
    /// rather than scanning every source per triple.
    fn contribute_scoped(
        &mut self,
        ds: &Dataset,
        scope: &[usize],
        t: TripleId,
        truth: bool,
        delta: i32,
    ) {
        if scope.len() < 2 {
            return;
        }
        let provided: Vec<bool> = scope.iter().map(|&s| ds.providers(t).get(s)).collect();
        self.changed = true;
        for i in 0..scope.len() {
            for j in i + 1..scope.len() {
                let Some(state) = self.pair_mut(scope[i], scope[j]) else {
                    continue;
                };
                let c = state.side_mut(truth);
                PairCounts::bump(&mut c.total, delta);
                if provided[i] {
                    PairCounts::bump(&mut c.na, delta);
                }
                if provided[j] {
                    PairCounts::bump(&mut c.nb, delta);
                }
                if provided[i] && provided[j] {
                    PairCounts::bump(&mut c.n11, delta);
                }
            }
        }
    }

    /// Triple `t` was labelled or relabelled (providers and scopes
    /// unchanged): retract the old polarity's contribution, add the new.
    pub fn relabel(&mut self, ds: &Dataset, t: TripleId, old: Option<bool>, new: bool) {
        if old == Some(new) {
            return;
        }
        if let Some(old) = old {
            self.contribute(ds, t, old, -1);
        }
        self.contribute(ds, t, new, 1);
        if self.sketch.is_some() {
            self.sketch_absorb_label(ds, t, old, new);
        }
    }

    /// Source `s` newly entered the scope of the labelled triple `t`
    /// (typically: its first claim in `t`'s domain). Adds `t` to the
    /// scope intersection of every tracked pair `(s, other-in-scope
    /// source)`; `s`'s own provision of `t` — present exactly when `t`
    /// is the claimed triple itself — is absorbed in the same update.
    pub fn source_entered_scope(&mut self, ds: &Dataset, s: SourceId, t: TripleId, truth: bool) {
        let s = s.index();
        let s_provides = ds.providers(t).get(s);
        let scope = ds.scope_mask(t);
        let prov = ds.providers(t).clone();
        self.changed = true;
        for o in scope.iter_ones() {
            if o == s {
                continue;
            }
            let (lo, hi) = if s < o { (s, o) } else { (o, s) };
            let Some(state) = self.pair_mut(lo, hi) else {
                continue;
            };
            let c = state.side_mut(truth);
            PairCounts::bump(&mut c.total, 1);
            let o_provides = prov.get(o);
            if s_provides {
                PairCounts::bump(if s < o { &mut c.na } else { &mut c.nb }, 1);
            }
            if o_provides {
                PairCounts::bump(if s < o { &mut c.nb } else { &mut c.na }, 1);
            }
            if s_provides && o_provides {
                PairCounts::bump(&mut c.n11, 1);
            }
        }
        if let Some(sk) = &mut self.sketch {
            let d = ds.domain(t).0;
            sk.dirty.insert(d);
            if s_provides {
                sk.sources[s][truth as usize].add(d, t, sk.k);
            }
        }
    }

    /// Source `s` newly provides the labelled triple `t` and was already
    /// in its scope: only `s`'s provision-side counts move.
    pub fn source_provided(&mut self, ds: &Dataset, s: SourceId, t: TripleId, truth: bool) {
        let s = s.index();
        let scope = ds.scope_mask(t);
        let prov = ds.providers(t).clone();
        self.changed = true;
        for o in scope.iter_ones() {
            if o == s {
                continue;
            }
            let (lo, hi) = if s < o { (s, o) } else { (o, s) };
            let Some(state) = self.pair_mut(lo, hi) else {
                continue;
            };
            let c = state.side_mut(truth);
            PairCounts::bump(if s < o { &mut c.na } else { &mut c.nb }, 1);
            if prov.get(o) {
                PairCounts::bump(&mut c.n11, 1);
            }
        }
        if let Some(sk) = &mut self.sketch {
            let d = ds.domain(t).0;
            sk.dirty.insert(d);
            sk.sources[s][truth as usize].add(d, t, sk.k);
        }
    }

    /// Mirror a (re)label into the sketch tier: per-domain label totals,
    /// the labelled-triple index, and every provider's sample/provision
    /// counters move from the old polarity to the new.
    fn sketch_absorb_label(&mut self, ds: &Dataset, t: TripleId, old: Option<bool>, new: bool) {
        let sk = self.sketch.as_mut().expect("sketch tier enabled");
        let d = ds.domain(t).0;
        sk.dirty.insert(d);
        if old.is_none() {
            sk.domain_labelled.entry(d).or_default().push(t);
        }
        let totals = sk.domain_totals.entry(d).or_default();
        if let Some(old) = old {
            totals[old as usize] -= 1;
        }
        totals[new as usize] += 1;
        for s in ds.providers(t).iter_ones() {
            if let Some(old) = old {
                sk.sources[s][old as usize].remove(d, t);
            }
            sk.sources[s][new as usize].add(d, t, sk.k);
        }
    }

    /// Evaluate every co-scoped pair in a *dirty* domain (one touched by
    /// a delta since the last call) and promote those whose sketched
    /// strength could reach `ln_threshold`: their exact counts are
    /// rebuilt by a shared-scope rescan and maintained incrementally
    /// from then on. No-op when the sketch tier is disabled. Call after
    /// a delta batch, before [`LiftGraph::clustering`].
    pub fn admit_candidates(&mut self, ds: &Dataset) {
        let Some(sk) = &self.sketch else {
            return;
        };
        if sk.dirty.is_empty() {
            return;
        }
        let Some(gold) = ds.gold() else {
            return;
        };
        let mut dirty: Vec<u32> = sk.dirty.iter().copied().collect();
        dirty.sort_unstable();
        // In-scope sources per dirty domain, ascending (one dataset pass).
        let mut members: HashMap<u32, Vec<usize>> =
            dirty.iter().map(|&d| (d, Vec::new())).collect();
        for s in 0..self.n {
            for dom in ds.scope(SourceId(s as u32)) {
                if let Some(list) = members.get_mut(&dom.0) {
                    list.push(s);
                }
            }
        }
        let mut evaluated = 0u64;
        let mut admitted: Vec<u64> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        for &d in &dirty {
            let list = &members[&d];
            for i in 0..list.len() {
                for j in i + 1..list.len() {
                    let key = pair_key(list[i], list[j]);
                    if self.pairs.contains_key(&key) || !seen.insert(key) {
                        continue;
                    }
                    evaluated += 1;
                    let sk = self.sketch.as_ref().expect("sketch tier enabled");
                    let bound = sk.strength_bound(ds, list[i], list[j], &self.cfg);
                    if bound >= self.cfg.ln_threshold {
                        admitted.push(key);
                        let state = sk.rescan_pair(ds, gold, list[i], list[j]);
                        self.pairs.insert(key, state);
                    }
                }
            }
        }
        self.sketch_pruned += evaluated - admitted.len() as u64;
        let sk = self.sketch.as_mut().expect("sketch tier enabled");
        sk.dirty.clear();
    }

    /// Did any pair count change since the last call? Cleared on read;
    /// callers skip re-deriving the clustering entirely when nothing
    /// moved.
    pub fn take_changed(&mut self) -> bool {
        std::mem::take(&mut self.changed)
    }

    /// The pairwise lifts of tracked pairs from the maintained counts,
    /// ascending in `(a, b)` — the same relative order (and the same
    /// float path) as [`pairwise_correlations`], restricted to tracked
    /// pairs. Untracked pairs have strength `0.0` (sketch off) or a
    /// sketch-certified strength below `ln_threshold` (sketch on), so
    /// [`cluster_from_pairs`] treats both emissions identically; for the
    /// degenerate `ln_threshold <= 0` configuration — where
    /// zero-strength pairs survive the threshold — the full dense
    /// enumeration is emitted instead.
    pub fn pair_correlations(&self) -> Vec<PairCorrelation> {
        if self.cfg.ln_threshold <= 0.0 {
            let mut out = Vec::with_capacity(self.n * self.n.saturating_sub(1) / 2);
            for a in 0..self.n {
                for b in a + 1..self.n {
                    let state = self.pairs.get(&pair_key(a, b)).copied().unwrap_or_default();
                    out.push(state.correlation(a, b, &self.cfg));
                }
            }
            return out;
        }
        let mut keys: Vec<u64> = self.pairs.keys().copied().collect();
        keys.sort_unstable();
        keys.iter()
            .map(|&key| {
                let (a, b) = unpack_key(key);
                self.pairs[&key].correlation(a, b, &self.cfg)
            })
            .collect()
    }

    /// Re-derive the clustering from the maintained counts — identical
    /// to [`cluster_sources`] on the same labelled state, without its
    /// O(sources² · labelled) scan.
    pub fn clustering(&self) -> Clustering {
        if self.n == 0 {
            return Clustering::singletons(0);
        }
        cluster_from_pairs(self.n, self.pair_correlations(), &self.cfg)
    }
}

/// Per-source, per-polarity claim summary: a bottom-k sample of provided
/// labelled triples (exact until it overflows `k`) plus exact per-domain
/// provision counts.
#[derive(Debug, Clone, Default)]
struct SketchSide {
    /// Bottom-k triple hashes ([`triple_hash`] is a bijection, so
    /// membership is collision-free). Complete while `!saturated`.
    sample: BTreeSet<u64>,
    /// The sample has ever overflowed (sticky): counts derived from it
    /// are estimates from here on.
    saturated: bool,
    /// Labelled provisions per domain, exact regardless of saturation.
    provisions: HashMap<u32, u32>,
}

impl SketchSide {
    fn add(&mut self, domain: u32, t: TripleId, k: usize) {
        *self.provisions.entry(domain).or_default() += 1;
        let h = triple_hash(t);
        if self.sample.len() < k {
            self.sample.insert(h);
        } else {
            self.saturated = true;
            if self.sample.last().is_some_and(|&max| h < max) {
                self.sample.insert(h);
                self.sample.pop_last();
            }
        }
    }

    fn remove(&mut self, domain: u32, t: TripleId) {
        if let Some(c) = self.provisions.get_mut(&domain) {
            *c -= 1;
        }
        // May miss if the element was evicted; `saturated` already
        // records that the sample is approximate.
        self.sample.remove(&triple_hash(t));
    }
}

/// The sketch tier of a [`LiftGraph`]: per-source claim samples, exact
/// per-domain counters, and the dirty-domain set driving
/// [`LiftGraph::admit_candidates`].
#[derive(Debug, Clone)]
struct SketchTier {
    k: usize,
    margin: f64,
    /// `[false-polarity, true-polarity]` per source (indexed by
    /// `truth as usize`).
    sources: Vec<[SketchSide; 2]>,
    /// Labelled triples per domain per polarity (same indexing).
    domain_totals: HashMap<u32, [u32; 2]>,
    /// Every-labelled-triple index per domain (membership never
    /// shrinks: labels flip but are not removed). Drives admission
    /// rescans.
    domain_labelled: HashMap<u32, Vec<TripleId>>,
    /// Domains touched by a delta since the last admission pass.
    dirty: HashSet<u32>,
}

impl SketchTier {
    fn new(n_sources: usize, params: &SketchParams) -> SketchTier {
        SketchTier {
            k: params.sample_size.max(1),
            margin: params.margin.max(0.0),
            sources: vec![Default::default(); n_sources],
            domain_totals: HashMap::new(),
            domain_labelled: HashMap::new(),
            dirty: HashSet::new(),
        }
    }

    /// Shared-scope domains of `(a, b)`, from the dataset's per-source
    /// scope sets.
    fn shared_domains(ds: &Dataset, a: usize, b: usize) -> Vec<u32> {
        let sa = ds.scope(SourceId(a as u32));
        let sb = ds.scope(SourceId(b as u32));
        let (small, large) = if sa.len() <= sb.len() {
            (sa, sb)
        } else {
            (sb, sa)
        };
        small
            .iter()
            .filter(|d| large.contains(d))
            .map(|d| d.0)
            .collect()
    }

    /// Upper bound on the pair's edge strength (`max |ln lift|` over
    /// both polarities) from exact side counts and sketched co-provision
    /// bounds. Exact — hence equal to the true strength — while both
    /// samples of each polarity are unsaturated.
    fn strength_bound(&self, ds: &Dataset, a: usize, b: usize, cfg: &ClusterConfig) -> f64 {
        let shared = Self::shared_domains(ds, a, b);
        let mut bound = 0.0f64;
        for polarity in [false, true] {
            let p = polarity as usize;
            let mut total = 0usize;
            let mut na = 0usize;
            let mut nb = 0usize;
            for &d in &shared {
                total += self.domain_totals.get(&d).map_or(0, |t| t[p] as usize);
                na += self.sources[a][p].provisions.get(&d).copied().unwrap_or(0) as usize;
                nb += self.sources[b][p].provisions.get(&d).copied().unwrap_or(0) as usize;
            }
            if total == 0 {
                continue;
            }
            let (lo, hi) = self.n11_bounds(a, b, p, na, nb, total);
            for n11 in [lo, hi] {
                if let Some(l) = lift_from_counts(n11, na, nb, total, cfg) {
                    bound = bound.max(l.ln().abs());
                }
            }
        }
        bound
    }

    /// `[lo, hi]` interval containing the pair's co-provision count for
    /// one polarity. Tight (`lo == hi == n11`) while both samples are
    /// complete; otherwise a KMV estimate widened by `margin` and
    /// clamped to the inclusion-exclusion hard bounds.
    fn n11_bounds(
        &self,
        a: usize,
        b: usize,
        p: usize,
        na: usize,
        nb: usize,
        total: usize,
    ) -> (usize, usize) {
        let sa = &self.sources[a][p];
        let sb = &self.sources[b][p];
        // Every co-provided triple is provided by both sides and lies in
        // the shared scope, so these bounds always hold.
        let hard_lo = (na + nb).saturating_sub(total);
        let hard_hi = na.min(nb);
        if !sa.saturated && !sb.saturated {
            let (small, large) = if sa.sample.len() <= sb.sample.len() {
                (&sa.sample, &sb.sample)
            } else {
                (&sb.sample, &sa.sample)
            };
            let exact = small.iter().filter(|h| large.contains(h)).count();
            return (exact, exact);
        }
        let est = kmv_intersection_estimate(&sa.sample, &sb.sample, self.k);
        let lo = (est * (1.0 - self.margin)).floor().max(0.0) as usize;
        let hi = (est * (1.0 + self.margin)).ceil() as usize;
        (lo.clamp(hard_lo, hard_hi), hi.clamp(hard_lo, hard_hi))
    }

    /// Exact counts of a newly admitted pair, rebuilt from the labelled
    /// triples of its shared-scope domains — the same counts
    /// [`LiftGraph::contribute`] would have accumulated had the pair
    /// been tracked from the start.
    fn rescan_pair(&self, ds: &Dataset, gold: &GoldLabels, a: usize, b: usize) -> PairState {
        let mut state = PairState::default();
        for d in Self::shared_domains(ds, a, b) {
            let Some(triples) = self.domain_labelled.get(&d) else {
                continue;
            };
            for &t in triples {
                let truth = gold.get(t).expect("indexed triple is labelled");
                let prov = ds.providers(t);
                let c = state.side_mut(truth);
                c.total += 1;
                let pa = prov.get(a);
                let pb = prov.get(b);
                if pa {
                    c.na += 1;
                }
                if pb {
                    c.nb += 1;
                }
                if pa && pb {
                    c.n11 += 1;
                }
            }
        }
        state
    }
}

/// Deterministic 64-bit mix of a triple id (splitmix64 finalizer — a
/// bijection, so distinct triples never collide and bottom-k samples
/// across sources stay mutually comparable).
#[inline]
fn triple_hash(t: TripleId) -> u64 {
    let mut z = (t.0 as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// K-minimum-values estimate of `|A ∩ B|` from two bottom-k hash
/// samples: distinct-union size `(k - 1) / τ` (τ = normalized k-th
/// smallest of the union) scaled by the match fraction among the
/// union's bottom k. Falls back to the raw match count when the union
/// holds fewer than `k` values.
fn kmv_intersection_estimate(a: &BTreeSet<u64>, b: &BTreeSet<u64>, k: usize) -> f64 {
    let mut union: Vec<u64> = a.union(b).copied().take(k + 1).collect();
    union.truncate(k);
    if union.is_empty() {
        return 0.0;
    }
    let matches = union
        .iter()
        .filter(|h| a.contains(h) && b.contains(h))
        .count();
    if union.len() < k {
        return matches as f64;
    }
    let tau = (union[k - 1] as f64) / (u64::MAX as f64);
    if tau <= 0.0 {
        return matches as f64;
    }
    let distinct = (k as f64 - 1.0) / tau;
    (matches as f64 / k as f64) * distinct
}

#[cfg(test)]
#[allow(clippy::manual_is_multiple_of)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    /// 6 sources over 60 triples: {0,1} are exact replicas, {2,3} share
    /// false triples, 4 and 5 are independent.
    fn correlated_dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        let sources: Vec<_> = (0..6).map(|i| b.source(format!("S{i}"))).collect();
        for i in 0..60 {
            let truth = i % 2 == 0;
            let t = b.triple(format!("e{i}"), "p", "v");
            b.label(t, truth);
            // Deterministic pseudo-random pattern.
            let h = i * 2654435761usize % 97;
            // Guarantee every triple has at least one provider.
            b.observe(sources[if truth { 5 } else { 4 }], t);
            if truth {
                if h % 3 != 0 {
                    b.observe(sources[0], t);
                    b.observe(sources[1], t); // replica of S0
                }
                if h % 5 < 2 {
                    b.observe(sources[2], t);
                }
                if h % 7 < 3 {
                    b.observe(sources[3], t);
                }
                if h % 2 == 0 {
                    b.observe(sources[4], t);
                }
                if h % 11 < 5 {
                    b.observe(sources[5], t);
                }
            } else {
                if h % 4 == 0 {
                    b.observe(sources[0], t);
                    b.observe(sources[1], t);
                }
                if h % 3 == 0 {
                    // S2 and S3 make the same mistakes.
                    b.observe(sources[2], t);
                    b.observe(sources[3], t);
                }
                if h % 6 == 0 {
                    b.observe(sources[4], t);
                }
                if h % 5 == 0 {
                    b.observe(sources[5], t);
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union_capped(0, 1, 5));
        assert!(uf.union_capped(1, 2, 5));
        assert!(!uf.union_capped(0, 2, 5), "already same set");
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
        assert_eq!(uf.set_size(1), 3);
    }

    #[test]
    fn union_find_respects_cap() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union_capped(0, 1, 2));
        assert!(uf.union_capped(2, 3, 2));
        // Merging the two pairs would make 4 > cap 2.
        assert!(!uf.union_capped(0, 2, 2));
        assert_ne!(uf.find(0), uf.find(2));
    }

    #[test]
    fn union_find_assignment_is_dense() {
        let mut uf = UnionFind::new(4);
        uf.union_capped(1, 3, 4);
        let a = uf.into_assignment();
        assert_eq!(a.len(), 4);
        assert_eq!(a[1], a[3]);
        assert_ne!(a[0], a[1]);
        let max = *a.iter().max().unwrap();
        assert!(max < 3, "ids densely numbered: {a:?}");
    }

    #[test]
    fn replicas_have_high_true_lift() {
        let ds = correlated_dataset();
        let pairs =
            pairwise_correlations(&ds, ds.gold().unwrap(), &ClusterConfig::default()).unwrap();
        let p01 = pairs
            .iter()
            .find(|p| p.a == SourceId(0) && p.b == SourceId(1))
            .unwrap();
        assert!(
            p01.lift_true.unwrap() > 1.4,
            "replica lift {:?}",
            p01.lift_true
        );
        assert!(p01.lift_false.unwrap() > 1.4);
    }

    #[test]
    fn false_copiers_have_high_false_lift_only() {
        let ds = correlated_dataset();
        let pairs =
            pairwise_correlations(&ds, ds.gold().unwrap(), &ClusterConfig::default()).unwrap();
        let p23 = pairs
            .iter()
            .find(|p| p.a == SourceId(2) && p.b == SourceId(3))
            .unwrap();
        assert!(p23.lift_false.unwrap() > 1.5, "{:?}", p23.lift_false);
    }

    #[test]
    fn clustering_groups_correlated_sources() {
        let ds = correlated_dataset();
        let clustering =
            cluster_sources(&ds, ds.gold().unwrap(), &ClusterConfig::default()).unwrap();
        assert_eq!(
            clustering.cluster_of(SourceId(0)),
            clustering.cluster_of(SourceId(1)),
            "replicas cluster together: {clustering:?}"
        );
        assert_eq!(
            clustering.cluster_of(SourceId(2)),
            clustering.cluster_of(SourceId(3)),
            "false-copiers cluster together"
        );
        assert_ne!(
            clustering.cluster_of(SourceId(0)),
            clustering.cluster_of(SourceId(2))
        );
    }

    #[test]
    fn cluster_size_cap_is_respected() {
        let ds = correlated_dataset();
        let cfg = ClusterConfig {
            max_cluster_size: 1,
            ..Default::default()
        };
        let clustering = cluster_sources(&ds, ds.gold().unwrap(), &cfg).unwrap();
        assert_eq!(clustering.len(), ds.n_sources());
        assert!(clustering.non_trivial().next().is_none());
    }

    #[test]
    fn clique_sizes_reports_non_trivial_descending() {
        let c = Clustering::from_assignment(vec![0, 0, 0, 1, 1, 2, 3]);
        assert_eq!(c.clique_sizes(), vec![3, 2]);
    }

    #[test]
    fn singleton_and_single_cluster_constructors() {
        let s = Clustering::singletons(3);
        assert_eq!(s.len(), 3);
        let one = Clustering::single_cluster(3);
        assert_eq!(one.len(), 1);
        assert_eq!(one.clusters()[0].len(), 3);
    }

    #[test]
    fn strength_uses_both_polarities() {
        let p = PairCorrelation {
            a: SourceId(0),
            b: SourceId(1),
            lift_true: Some(1.0),
            lift_false: Some(4.0),
        };
        assert!((p.strength() - 4.0f64.ln()).abs() < 1e-12);
        // Negative correlation counts too.
        let p = PairCorrelation {
            a: SourceId(0),
            b: SourceId(1),
            lift_true: Some(0.25),
            lift_false: None,
        };
        assert!((p.strength() - 4.0f64.ln()).abs() < 1e-12);
        let p = PairCorrelation {
            a: SourceId(0),
            b: SourceId(1),
            lift_true: None,
            lift_false: None,
        };
        assert_eq!(p.strength(), 0.0);
    }

    #[test]
    fn min_support_blocks_thin_pairs() {
        let mut b = DatasetBuilder::new();
        let s0 = b.source("A");
        let s1 = b.source("B");
        let t = b.triple("x", "p", "1");
        b.observe(s0, t);
        b.observe(s1, t);
        b.label(t, true);
        let t2 = b.triple("y", "p", "2");
        b.observe(s0, t2);
        b.label(t2, false);
        let ds = b.build().unwrap();
        let cfg = ClusterConfig {
            min_support: 3,
            ..Default::default()
        };
        let pairs = pairwise_correlations(&ds, ds.gold().unwrap(), &cfg).unwrap();
        assert_eq!(pairs[0].lift_true, None);
        assert_eq!(pairs[0].lift_false, None);
        // And clustering therefore keeps them apart.
        let c = cluster_sources(&ds, ds.gold().unwrap(), &cfg).unwrap();
        assert_ne!(c.cluster_of(s0), c.cluster_of(s1));
    }

    /// Compare the sparse graph's emission against the dense batch
    /// reference: every tracked pair must be bitwise equal, and every
    /// untracked pair must be one the batch also gives zero strength
    /// (no shared scope) — or, when `allow_pruned`, one below the
    /// clustering threshold (sketch admission declined it).
    fn assert_matches_batch(
        batch: &[PairCorrelation],
        graph: &LiftGraph,
        cfg: &ClusterConfig,
        allow_pruned: bool,
    ) {
        let inc = graph.pair_correlations();
        assert!(inc.len() <= batch.len());
        let by_pair: std::collections::HashMap<(SourceId, SourceId), &PairCorrelation> =
            inc.iter().map(|p| ((p.a, p.b), p)).collect();
        for b in batch {
            match by_pair.get(&(b.a, b.b)) {
                Some(i) => {
                    assert_eq!(
                        b.lift_true.map(f64::to_bits),
                        i.lift_true.map(f64::to_bits),
                        "true lift {}-{}",
                        b.a,
                        b.b
                    );
                    assert_eq!(
                        b.lift_false.map(f64::to_bits),
                        i.lift_false.map(f64::to_bits),
                        "false lift {}-{}",
                        b.a,
                        b.b
                    );
                }
                None if allow_pruned => assert!(
                    b.strength() < cfg.ln_threshold,
                    "pruned pair {}-{} has above-threshold strength {}",
                    b.a,
                    b.b,
                    b.strength()
                ),
                None => assert_eq!(
                    (b.lift_true, b.lift_false),
                    (None, None),
                    "untracked pair {}-{} has batch evidence",
                    b.a,
                    b.b
                ),
            }
        }
    }

    #[test]
    fn lift_graph_build_matches_batch_computation() {
        let ds = correlated_dataset();
        let cfg = ClusterConfig::default();
        let gold = ds.gold().unwrap();
        let batch = pairwise_correlations(&ds, gold, &cfg).unwrap();
        let graph = LiftGraph::build(&ds, gold, &cfg);
        assert_matches_batch(&batch, &graph, &cfg, false);
        // All six sources share one domain, so the sketch-off graph
        // tracks the full pair universe here.
        assert_eq!(graph.stats().pairs_exact, batch.len());
        assert_eq!(
            graph.clustering(),
            cluster_sources(&ds, gold, &cfg).unwrap()
        );
    }

    #[test]
    fn sketch_admission_prunes_only_sub_threshold_pairs() {
        let ds = correlated_dataset();
        let cfg = ClusterConfig {
            sketch: SketchParams::on(),
            ..Default::default()
        };
        let exact_cfg = ClusterConfig::default();
        let gold = ds.gold().unwrap();
        let batch = pairwise_correlations(&ds, gold, &exact_cfg).unwrap();
        let graph = LiftGraph::build(&ds, gold, &cfg);
        assert_matches_batch(&batch, &graph, &cfg, true);
        // Unsaturated samples (60 triples < sample_size per polarity)
        // make admission decisions exact: tracked pairs are exactly the
        // above-threshold ones.
        let above = batch
            .iter()
            .filter(|p| p.strength() >= cfg.ln_threshold)
            .count();
        let stats = graph.stats();
        assert_eq!(stats.pairs_exact, above);
        assert_eq!(stats.pairs_sketch_pruned, (batch.len() - above) as u64);
        assert_eq!(
            graph.clustering(),
            cluster_sources(&ds, gold, &exact_cfg).unwrap()
        );
    }

    #[test]
    fn saturated_sketch_still_tracks_admitted_pairs_exactly() {
        let ds = correlated_dataset();
        let cfg = ClusterConfig {
            sketch: SketchParams {
                enabled: true,
                sample_size: 4, // far below the ~30 provisions per side
                margin: 1.0,
            },
            ..Default::default()
        };
        let gold = ds.gold().unwrap();
        let graph = LiftGraph::build(&ds, gold, &cfg);
        // Estimates may admit a different pair set, but whatever was
        // admitted carries exact (bitwise) counts.
        let batch = pairwise_correlations(&ds, gold, &ClusterConfig::default()).unwrap();
        let by_pair: std::collections::HashMap<(SourceId, SourceId), &PairCorrelation> =
            batch.iter().map(|p| ((p.a, p.b), p)).collect();
        let inc = graph.pair_correlations();
        assert!(!inc.is_empty(), "replica pair should still be admitted");
        for i in &inc {
            let b = by_pair[&(i.a, i.b)];
            assert_eq!(b.lift_true.map(f64::to_bits), i.lift_true.map(f64::to_bits));
            assert_eq!(
                b.lift_false.map(f64::to_bits),
                i.lift_false.map(f64::to_bits)
            );
        }
    }

    /// Drive one randomized churn case — label flips, fresh labels, and
    /// claims with and without scope expansion — checking after every
    /// delta that the maintained graph stays bitwise equal to the
    /// from-scratch references.
    fn churn_case(g: &mut crate::testkit::Gen, sketch: SketchParams) {
        use crate::dataset::Domain;
        let n_sources = g.usize_in(4, 8);
        let n_triples = g.usize_in(12, 30);
        let n_domains = g.usize_in(1, 3);
        let mut b = DatasetBuilder::new();
        let sources: Vec<_> = (0..n_sources).map(|i| b.source(format!("S{i}"))).collect();
        let mut triples = Vec::new();
        for i in 0..n_triples {
            let t = b.triple(format!("e{i}"), "p", "v");
            b.set_domain(t, Domain((i % n_domains) as u32));
            // At least one provider, a sprinkling of others.
            b.observe(sources[g.usize_in(0, n_sources)], t);
            for &s in &sources {
                if g.bool(0.3) {
                    b.observe(s, t);
                }
            }
            if g.bool(0.6) {
                b.label(t, g.bool(0.5));
            }
            triples.push(t);
        }
        // Ensure at least one label so `pairwise_correlations` runs.
        b.label(triples[0], true);
        let mut ds = b.build().unwrap();
        let cfg = ClusterConfig {
            min_support: g.usize_in(1, 4),
            max_cluster_size: g.usize_in(2, 5),
            sketch,
            ..Default::default()
        };
        let exact_cfg = ClusterConfig {
            sketch: SketchParams::default(),
            ..cfg
        };
        let mut graph = LiftGraph::build(&ds, ds.gold().unwrap(), &cfg);
        for _ in 0..20 {
            let t = triples[g.usize_in(0, triples.len())];
            if g.bool(0.5) {
                // Label or flip.
                let truth = g.bool(0.5);
                let prev = ds.set_label(t, truth).unwrap();
                graph.relabel(&ds, t, prev, truth);
            } else {
                // Claim, possibly expanding scope.
                let s = sources[g.usize_in(0, n_sources)];
                let outcome = ds.observe(s, t).unwrap();
                if !outcome.newly_provided {
                    continue;
                }
                let gold = ds.gold().unwrap().clone();
                if outcome.scope_expanded {
                    let d = ds.domain(t);
                    let in_domain: Vec<TripleId> = triples
                        .iter()
                        .copied()
                        .filter(|&x| ds.domain(x) == d)
                        .collect();
                    for x in in_domain {
                        if let Some(truth) = gold.get(x) {
                            graph.source_entered_scope(&ds, s, x, truth);
                        }
                    }
                } else if let Some(truth) = gold.get(t) {
                    graph.source_provided(&ds, s, t, truth);
                }
            }
            graph.admit_candidates(&ds);
            let batch = pairwise_correlations(&ds, ds.gold().unwrap(), &exact_cfg).unwrap();
            assert_matches_batch(&batch, &graph, &cfg, sketch.enabled);
            assert_eq!(
                graph.clustering(),
                cluster_sources(&ds, ds.gold().unwrap(), &exact_cfg).unwrap()
            );
        }
    }

    /// The incremental clustering trust anchor at the unit level: under
    /// random churn the maintained pair counts stay bitwise equal to a
    /// from-scratch [`pairwise_correlations`] pass, and the derived
    /// clustering equals [`cluster_sources`].
    #[test]
    fn lift_graph_stays_equal_under_random_churn() {
        use crate::testkit::run_cases;
        run_cases("lift_graph_churn", 10, |g| {
            churn_case(g, SketchParams::default());
        });
    }

    /// Same churn workload with the sketch tier admitting pairs: small
    /// worlds keep every sample unsaturated, so pruning decisions are
    /// exact and the clustering must stay bitwise equal to the exact
    /// configuration, with every pruned pair genuinely sub-threshold.
    #[test]
    fn sketch_admission_stays_equal_under_random_churn() {
        use crate::testkit::run_cases;
        run_cases("lift_graph_sketch_churn", 10, |g| {
            churn_case(g, SketchParams::on());
        });
    }

    #[test]
    fn missing_gold_rejected() {
        let mut b = DatasetBuilder::new();
        let s = b.source("A");
        let t = b.triple("x", "p", "1");
        b.observe(s, t);
        let ds = b.build().unwrap();
        let empty = GoldLabels::new(1);
        assert!(pairwise_correlations(&ds, &empty, &ClusterConfig::default()).is_err());
    }
}

//! Datasets: sources, their output triples, gold labels, and scopes.
//!
//! A [`Dataset`] is the paper's `(S, O)` pair — a set of sources and the
//! collection of their outputs — optionally annotated with gold labels
//! (known truthfulness) and *domains* that define each source's scope.
//!
//! # Scope semantics
//!
//! Per §2.1, the observation set `O_t` for a triple `t` records that a
//! source `S_i` does **not** provide `t` only if `S_i` provides other data
//! in the domain of `t`; irrelevant sources are not penalised. We model
//! this with a per-triple `domain` tag (default: one global domain). A
//! source's scope is the set of domains in which it provides at least one
//! triple (overridable). Fusion formulas skip out-of-scope sources when
//! accounting for non-providers, and recall denominators count only
//! in-scope true triples.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::bits::BitSet;
use crate::error::{FusionError, Result};
use crate::triple::{Triple, TripleId, TripleInterner};

/// Dense identifier of a source within one [`Dataset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub u32);

impl SourceId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Domain tag for scope bookkeeping. The default domain is `Domain(0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Domain(pub u32);

/// Gold truth labels, indexed by [`TripleId`]. `None` means unlabelled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GoldLabels {
    labels: Vec<Option<bool>>,
}

impl GoldLabels {
    /// Labels with capacity for `n` triples, all unlabelled.
    pub fn new(n: usize) -> Self {
        GoldLabels {
            labels: vec![None; n],
        }
    }

    /// Build from a full assignment (every triple labelled).
    pub fn from_bools(labels: &[bool]) -> Self {
        GoldLabels {
            labels: labels.iter().map(|&b| Some(b)).collect(),
        }
    }

    /// Label for a triple, `None` if unlabelled or out of range.
    #[inline]
    pub fn get(&self, t: TripleId) -> Option<bool> {
        self.labels.get(t.index()).copied().flatten()
    }

    /// Assign a label.
    pub fn set(&mut self, t: TripleId, truth: bool) {
        if t.index() >= self.labels.len() {
            self.labels.resize(t.index() + 1, None);
        }
        self.labels[t.index()] = Some(truth);
    }

    /// Number of labelled triples.
    pub fn labelled_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_some()).count()
    }

    /// Number of triples labelled true.
    pub fn true_count(&self) -> usize {
        self.labels.iter().filter(|l| **l == Some(true)).count()
    }

    /// Number of triples labelled false.
    pub fn false_count(&self) -> usize {
        self.labels.iter().filter(|l| **l == Some(false)).count()
    }

    /// Iterate `(triple, truth)` for labelled triples.
    pub fn iter_labelled(&self) -> impl Iterator<Item = (TripleId, bool)> + '_ {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|b| (TripleId(i as u32), b)))
    }

    /// A copy keeping only the labels of `keep`; everything else unlabelled.
    /// Used to carve training subsets out of a gold standard.
    pub fn restricted_to(&self, keep: &HashSet<TripleId>) -> GoldLabels {
        let labels = self
            .labels
            .iter()
            .enumerate()
            .map(|(i, l)| {
                if keep.contains(&TripleId(i as u32)) {
                    *l
                } else {
                    None
                }
            })
            .collect();
        GoldLabels { labels }
    }

    /// Empirical prior `alpha` = fraction of labelled triples that are true.
    pub fn empirical_alpha(&self) -> Result<f64> {
        let t = self.true_count();
        let f = self.false_count();
        if t == 0 {
            return Err(FusionError::DegenerateTraining("true"));
        }
        if f == 0 {
            return Err(FusionError::DegenerateTraining("false"));
        }
        Ok(t as f64 / (t + f) as f64)
    }
}

/// A fused data-fusion problem instance: sources, outputs, labels, scopes.
#[derive(Debug, Clone)]
pub struct Dataset {
    source_names: Vec<String>,
    triples: TripleInterner,
    /// Per triple: bitset over sources that provide it.
    providers: Vec<BitSet>,
    /// Per source: triples it provides, in insertion order.
    outputs: Vec<Vec<TripleId>>,
    /// Per triple: its domain.
    domains: Vec<Domain>,
    /// Per source: set of domains in scope.
    scopes: Vec<HashSet<Domain>>,
    gold: Option<GoldLabels>,
}

impl Dataset {
    /// Number of sources.
    pub fn n_sources(&self) -> usize {
        self.source_names.len()
    }

    /// Number of distinct triples (provided by at least one source).
    pub fn n_triples(&self) -> usize {
        self.triples.len()
    }

    /// Source ids in order.
    pub fn sources(&self) -> impl Iterator<Item = SourceId> {
        (0..self.source_names.len() as u32).map(SourceId)
    }

    /// Triple ids in order.
    pub fn triples(&self) -> impl Iterator<Item = TripleId> {
        (0..self.triples.len() as u32).map(TripleId)
    }

    /// Name of a source.
    pub fn source_name(&self, s: SourceId) -> &str {
        &self.source_names[s.index()]
    }

    /// Look up a source id by name.
    pub fn source_by_name(&self, name: &str) -> Option<SourceId> {
        self.source_names
            .iter()
            .position(|n| n == name)
            .map(|i| SourceId(i as u32))
    }

    /// Resolve a triple id.
    pub fn triple(&self, t: TripleId) -> &Triple {
        self.triples.resolve(t)
    }

    /// Look up a triple id by content.
    pub fn triple_id(&self, triple: &Triple) -> Option<TripleId> {
        self.triples.get(triple)
    }

    /// Providers of `t` as a bitset over sources (`S_t` in the paper).
    pub fn providers(&self, t: TripleId) -> &BitSet {
        &self.providers[t.index()]
    }

    /// `S_i |= t`?
    pub fn provides(&self, s: SourceId, t: TripleId) -> bool {
        self.providers[t.index()].get(s.index())
    }

    /// Triples output by a source (`O_i`).
    pub fn output(&self, s: SourceId) -> &[TripleId] {
        &self.outputs[s.index()]
    }

    /// Domain of a triple.
    pub fn domain(&self, t: TripleId) -> Domain {
        self.domains[t.index()]
    }

    /// Whether `t` lies in the scope of `s` — i.e. whether `s` *not*
    /// providing `t` counts as evidence (§2.1).
    pub fn in_scope(&self, s: SourceId, t: TripleId) -> bool {
        self.scopes[s.index()].contains(&self.domains[t.index()])
    }

    /// The full scope of a source: the set of domains in which its
    /// non-provision counts as evidence.
    pub fn scope(&self, s: SourceId) -> &HashSet<Domain> {
        &self.scopes[s.index()]
    }

    /// Sources whose scope covers `t`, as a bitset.
    pub fn scope_mask(&self, t: TripleId) -> BitSet {
        self.domain_scope_mask(self.domains[t.index()])
    }

    /// Sources whose scope covers domain `d`, as a bitset: the scope mask
    /// every triple of `d` shares.
    pub fn domain_scope_mask(&self, d: Domain) -> BitSet {
        let mut bs = BitSet::new(self.n_sources());
        for s in 0..self.n_sources() {
            if self.scopes[s].contains(&d) {
                bs.set(s, true);
            }
        }
        bs
    }

    /// Gold labels, if this dataset carries them.
    pub fn gold(&self) -> Option<&GoldLabels> {
        self.gold.as_ref()
    }

    /// Gold labels or an error. Most estimation paths need them.
    pub fn require_gold(&self) -> Result<&GoldLabels> {
        self.gold.as_ref().ok_or(FusionError::MissingGold)
    }

    /// Replace the gold labels (e.g. attach labels produced externally).
    pub fn set_gold(&mut self, gold: GoldLabels) {
        self.gold = Some(gold);
    }

    /// Register (or look up) a source by name on an already-built dataset.
    ///
    /// This is a *delta hook* for incremental ingestion
    /// (`corrfuse-stream`): a new source starts with no outputs and an
    /// empty scope, and every triple's provider bitset grows to cover it
    /// (an O(triples) operation, so callers batch source additions).
    /// Registering an existing name returns its id unchanged.
    pub fn add_source(&mut self, name: impl Into<String>) -> SourceId {
        let name = name.into();
        if let Some(id) = self.source_by_name(&name) {
            return id;
        }
        let id = SourceId(self.source_names.len() as u32);
        self.source_names.push(name);
        self.outputs.push(Vec::new());
        self.scopes.push(HashSet::new());
        let n = self.source_names.len();
        for p in &mut self.providers {
            p.grow_to(n);
        }
        id
    }

    /// Intern (or look up) a triple on an already-built dataset.
    ///
    /// Delta hook for incremental ingestion. A new triple starts with no
    /// providers — callers must [`Dataset::observe`] it before scoring it,
    /// mirroring the [`DatasetBuilder::build`] invariant that every triple
    /// has an observation set. Interning an existing triple returns its id
    /// and leaves its domain unchanged.
    pub fn add_triple(&mut self, triple: Triple, domain: Domain) -> TripleId {
        if let Some(id) = self.triples.get(&triple) {
            return id;
        }
        let id = self.triples.intern(triple);
        self.providers.push(BitSet::new(self.n_sources()));
        self.domains.push(domain);
        id
    }

    /// Record `S_i |= t` on an already-built dataset (delta hook).
    ///
    /// Mirrors the builder's semantics: duplicate observations are no-ops,
    /// and providing in a new domain extends the source's scope (the
    /// builder's "domains it provides in" inference). The returned
    /// [`ObserveOutcome`] tells incremental callers exactly what changed so
    /// they can invalidate the right state.
    pub fn observe(&mut self, s: SourceId, t: TripleId) -> Result<ObserveOutcome> {
        if s.index() >= self.n_sources() {
            return Err(FusionError::UnknownSource(format!("{s}")));
        }
        if t.index() >= self.n_triples() {
            return Err(FusionError::TripleOutOfRange(t.index()));
        }
        if self.providers[t.index()].get(s.index()) {
            return Ok(ObserveOutcome {
                newly_provided: false,
                scope_expanded: false,
            });
        }
        self.providers[t.index()].set(s.index(), true);
        self.outputs[s.index()].push(t);
        let scope_expanded = self.scopes[s.index()].insert(self.domains[t.index()]);
        Ok(ObserveOutcome {
            newly_provided: true,
            scope_expanded,
        })
    }

    /// Attach (or overwrite) a gold label on an already-built dataset
    /// (delta hook). Returns the previous label, if any.
    pub fn set_label(&mut self, t: TripleId, truth: bool) -> Result<Option<bool>> {
        if t.index() >= self.n_triples() {
            return Err(FusionError::TripleOutOfRange(t.index()));
        }
        let prev = self.gold.as_ref().and_then(|g| g.get(t));
        match &mut self.gold {
            Some(g) => g.set(t, truth),
            None => {
                let mut g = GoldLabels::new(self.n_triples());
                g.set(t, truth);
                self.gold = Some(g);
            }
        }
        Ok(prev)
    }

    /// Summary statistics, for reports and examples.
    pub fn stats(&self) -> DatasetStats {
        let per_source: Vec<usize> = self.outputs.iter().map(Vec::len).collect();
        let (true_count, false_count) = match &self.gold {
            Some(g) => (g.true_count(), g.false_count()),
            None => (0, 0),
        };
        DatasetStats {
            n_sources: self.n_sources(),
            n_triples: self.n_triples(),
            labelled_true: true_count,
            labelled_false: false_count,
            observations: per_source.iter().sum(),
            max_source_output: per_source.iter().copied().max().unwrap_or(0),
            min_source_output: per_source.iter().copied().min().unwrap_or(0),
        }
    }
}

/// What actually changed when [`Dataset::observe`] applied a claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserveOutcome {
    /// The claim was new (not a duplicate of an existing observation).
    pub newly_provided: bool,
    /// The source's scope gained the triple's domain — every triple in
    /// that domain now counts the source as an in-scope non-provider.
    pub scope_expanded: bool,
}

/// Aggregate statistics over a dataset. See [`Dataset::stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetStats {
    /// Number of sources.
    pub n_sources: usize,
    /// Number of distinct triples.
    pub n_triples: usize,
    /// Triples labelled true.
    pub labelled_true: usize,
    /// Triples labelled false.
    pub labelled_false: usize,
    /// Total `(source, triple)` observations.
    pub observations: usize,
    /// Largest single-source output size.
    pub max_source_output: usize,
    /// Smallest single-source output size.
    pub min_source_output: usize,
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sources, {} triples ({} true / {} false labelled), {} observations",
            self.n_sources,
            self.n_triples,
            self.labelled_true,
            self.labelled_false,
            self.observations
        )
    }
}

/// Incremental builder for [`Dataset`].
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    source_names: Vec<String>,
    source_index: HashMap<String, SourceId>,
    triples: TripleInterner,
    /// (source, triple) observations in insertion order.
    observations: Vec<(SourceId, TripleId)>,
    domains: HashMap<TripleId, Domain>,
    scope_overrides: HashMap<SourceId, HashSet<Domain>>,
    gold: GoldLabels,
    any_gold: bool,
}

impl DatasetBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a source by name.
    pub fn source(&mut self, name: impl Into<String>) -> SourceId {
        let name = name.into();
        if let Some(&id) = self.source_index.get(&name) {
            return id;
        }
        let id = SourceId(self.source_names.len() as u32);
        self.source_index.insert(name.clone(), id);
        self.source_names.push(name);
        id
    }

    /// Register (or look up) a triple.
    pub fn triple(
        &mut self,
        subject: impl Into<String>,
        predicate: impl Into<String>,
        object: impl Into<String>,
    ) -> TripleId {
        self.triples.intern(Triple::new(subject, predicate, object))
    }

    /// Record that `source` outputs `triple` (`S_i |= t`).
    pub fn observe(&mut self, source: SourceId, triple: TripleId) {
        self.observations.push((source, triple));
    }

    /// Convenience: register source + triple + observation in one call.
    pub fn observe_named(
        &mut self,
        source: impl Into<String>,
        subject: impl Into<String>,
        predicate: impl Into<String>,
        object: impl Into<String>,
    ) -> (SourceId, TripleId) {
        let s = self.source(source);
        let t = self.triple(subject, predicate, object);
        self.observe(s, t);
        (s, t)
    }

    /// Attach a gold truth label to a triple.
    pub fn label(&mut self, triple: TripleId, truth: bool) {
        self.gold.set(triple, truth);
        self.any_gold = true;
    }

    /// Tag a triple with a domain (defaults to `Domain(0)`).
    pub fn set_domain(&mut self, triple: TripleId, domain: Domain) {
        self.domains.insert(triple, domain);
    }

    /// Explicitly set a source's scope, overriding the inferred
    /// "domains it provides in" default.
    pub fn set_scope(&mut self, source: SourceId, domains: impl IntoIterator<Item = Domain>) {
        self.scope_overrides
            .insert(source, domains.into_iter().collect());
    }

    /// Finalise into a [`Dataset`].
    ///
    /// Errors if a triple ends up provided by no source (possible when a
    /// triple was interned but never observed) — such triples have no
    /// observation set `O_t` and are rejected early rather than silently
    /// producing `Pr(t) = prior`.
    pub fn build(self) -> Result<Dataset> {
        let n_sources = self.source_names.len();
        let n_triples = self.triples.len();

        let mut providers = vec![BitSet::new(n_sources); n_triples];
        let mut outputs: Vec<Vec<TripleId>> = vec![Vec::new(); n_sources];
        for (s, t) in &self.observations {
            if !providers[t.index()].get(s.index()) {
                providers[t.index()].set(s.index(), true);
                outputs[s.index()].push(*t);
            }
        }
        for (i, p) in providers.iter().enumerate() {
            if p.is_empty() {
                return Err(FusionError::UnobservedTriple(i));
            }
        }

        let domains: Vec<Domain> = (0..n_triples)
            .map(|i| {
                self.domains
                    .get(&TripleId(i as u32))
                    .copied()
                    .unwrap_or(Domain(0))
            })
            .collect();

        // Default scope: the domains a source provides in.
        let mut scopes: Vec<HashSet<Domain>> = vec![HashSet::new(); n_sources];
        for (s, out) in outputs.iter().enumerate() {
            for t in out {
                scopes[s].insert(domains[t.index()]);
            }
        }
        for (s, domains) in self.scope_overrides {
            scopes[s.index()] = domains;
        }

        let mut gold_labels = self.gold;
        // Make label vector cover all triples.
        if gold_labels.labels_len() < n_triples {
            gold_labels.pad_to(n_triples);
        }

        Ok(Dataset {
            source_names: self.source_names,
            triples: self.triples,
            providers,
            outputs,
            domains,
            scopes,
            gold: if self.any_gold {
                Some(gold_labels)
            } else {
                None
            },
        })
    }
}

impl GoldLabels {
    fn labels_len(&self) -> usize {
        self.labels.len()
    }

    fn pad_to(&mut self, n: usize) {
        if self.labels.len() < n {
            self.labels.resize(n, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let mut b = DatasetBuilder::new();
        let s1 = b.source("A");
        let s2 = b.source("B");
        let t1 = b.triple("x", "p", "1");
        let t2 = b.triple("y", "p", "2");
        b.observe(s1, t1);
        b.observe(s1, t2);
        b.observe(s2, t2);
        b.label(t1, true);
        b.label(t2, false);
        b.build().unwrap()
    }

    #[test]
    fn builder_assembles_provider_sets() {
        let ds = tiny();
        assert_eq!(ds.n_sources(), 2);
        assert_eq!(ds.n_triples(), 2);
        let t2 = ds.triple_id(&Triple::new("y", "p", "2")).unwrap();
        assert_eq!(ds.providers(t2).count_ones(), 2);
        let t1 = ds.triple_id(&Triple::new("x", "p", "1")).unwrap();
        assert!(ds.provides(SourceId(0), t1));
        assert!(!ds.provides(SourceId(1), t1));
    }

    #[test]
    fn duplicate_observations_are_deduped() {
        let mut b = DatasetBuilder::new();
        let s = b.source("A");
        let t = b.triple("x", "p", "1");
        b.observe(s, t);
        b.observe(s, t);
        let ds = b.build().unwrap();
        assert_eq!(ds.output(s).len(), 1);
        assert_eq!(ds.providers(t).count_ones(), 1);
    }

    #[test]
    fn source_registration_is_idempotent() {
        let mut b = DatasetBuilder::new();
        let a1 = b.source("A");
        let a2 = b.source("A");
        assert_eq!(a1, a2);
    }

    #[test]
    fn unprovided_triple_is_rejected() {
        let mut b = DatasetBuilder::new();
        let s = b.source("A");
        let t1 = b.triple("x", "p", "1");
        let _t2 = b.triple("orphan", "p", "2"); // never observed
        b.observe(s, t1);
        assert!(b.build().is_err());
    }

    #[test]
    fn gold_counts() {
        let ds = tiny();
        let g = ds.gold().unwrap();
        assert_eq!(g.true_count(), 1);
        assert_eq!(g.false_count(), 1);
        assert_eq!(g.labelled_count(), 2);
        assert!((g.empirical_alpha().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn missing_gold_is_error() {
        let mut b = DatasetBuilder::new();
        let s = b.source("A");
        let t = b.triple("x", "p", "1");
        b.observe(s, t);
        let ds = b.build().unwrap();
        assert!(ds.gold().is_none());
        assert_eq!(ds.require_gold(), Err(FusionError::MissingGold));
    }

    #[test]
    fn default_scope_is_global_single_domain() {
        let ds = tiny();
        for s in ds.sources() {
            for t in ds.triples() {
                assert!(ds.in_scope(s, t));
            }
        }
        let t = TripleId(0);
        assert_eq!(ds.scope_mask(t).count_ones(), 2);
    }

    #[test]
    fn domains_restrict_scope() {
        let mut b = DatasetBuilder::new();
        let s1 = b.source("books");
        let s2 = b.source("bios");
        let t1 = b.triple("book1", "author", "X");
        let t2 = b.triple("person1", "born", "1960");
        b.set_domain(t1, Domain(1));
        b.set_domain(t2, Domain(2));
        b.observe(s1, t1);
        b.observe(s2, t2);
        let ds = b.build().unwrap();
        // s1 provides only in domain 1, so t2 is out of its scope.
        assert!(ds.in_scope(SourceId(0), TripleId(0)));
        assert!(!ds.in_scope(SourceId(0), TripleId(1)));
        assert!(!ds.in_scope(SourceId(1), TripleId(0)));
        assert_eq!(ds.scope_mask(TripleId(0)).count_ones(), 1);
    }

    #[test]
    fn scope_override_wins() {
        let mut b = DatasetBuilder::new();
        let s1 = b.source("A");
        let s2 = b.source("B");
        let t1 = b.triple("x", "p", "1");
        let t2 = b.triple("y", "p", "2");
        b.set_domain(t1, Domain(1));
        b.set_domain(t2, Domain(2));
        b.observe(s1, t1);
        b.observe(s2, t2);
        // Declare that A covers both domains even though it provides in one.
        b.set_scope(s1, [Domain(1), Domain(2)]);
        let ds = b.build().unwrap();
        assert!(ds.in_scope(SourceId(0), TripleId(1)));
    }

    #[test]
    fn restricted_labels_mask_out_rest() {
        let ds = tiny();
        let keep: HashSet<TripleId> = [TripleId(0)].into_iter().collect();
        let restricted = ds.gold().unwrap().restricted_to(&keep);
        assert_eq!(restricted.get(TripleId(0)), Some(true));
        assert_eq!(restricted.get(TripleId(1)), None);
    }

    #[test]
    fn stats_aggregate() {
        let ds = tiny();
        let st = ds.stats();
        assert_eq!(st.n_sources, 2);
        assert_eq!(st.n_triples, 2);
        assert_eq!(st.observations, 3);
        assert_eq!(st.labelled_true, 1);
        assert_eq!(st.max_source_output, 2);
        assert_eq!(st.min_source_output, 1);
        assert!(st.to_string().contains("2 sources"));
    }

    #[test]
    fn empirical_alpha_degenerate_cases() {
        let mut g = GoldLabels::new(2);
        g.set(TripleId(0), true);
        assert!(matches!(
            g.empirical_alpha(),
            Err(FusionError::DegenerateTraining("false"))
        ));
        let mut g = GoldLabels::new(2);
        g.set(TripleId(0), false);
        assert!(matches!(
            g.empirical_alpha(),
            Err(FusionError::DegenerateTraining("true"))
        ));
    }

    #[test]
    fn observe_named_shortcut() {
        let mut b = DatasetBuilder::new();
        let (s, t) = b.observe_named("A", "x", "p", "1");
        let ds = b.build().unwrap();
        assert!(ds.provides(s, t));
        assert_eq!(ds.source_name(s), "A");
    }

    #[test]
    fn delta_hooks_mirror_builder_semantics() {
        let mut ds = tiny();
        // Adding an existing source/triple is a lookup, not a duplicate.
        assert_eq!(ds.add_source("A"), SourceId(0));
        let t1 = ds.add_triple(Triple::new("x", "p", "1"), Domain(0));
        assert_eq!(t1, TripleId(0));
        assert_eq!(ds.n_sources(), 2);
        assert_eq!(ds.n_triples(), 2);

        // A new source grows every provider bitset and starts scope-less.
        let s3 = ds.add_source("C");
        assert_eq!(ds.n_sources(), 3);
        assert_eq!(ds.providers(t1).len(), 3);
        assert!(!ds.in_scope(s3, t1));

        // New triple + first claim: provider recorded, scope inferred.
        let t3 = ds.add_triple(Triple::new("z", "p", "3"), Domain(0));
        assert!(ds.providers(t3).is_empty());
        let oc = ds.observe(s3, t3).unwrap();
        assert!(oc.newly_provided && oc.scope_expanded);
        assert!(ds.in_scope(s3, t1));
        assert_eq!(ds.output(s3), &[t3]);

        // Duplicate claim is a no-op.
        let oc = ds.observe(s3, t3).unwrap();
        assert!(!oc.newly_provided && !oc.scope_expanded);
        assert_eq!(ds.output(s3).len(), 1);

        // Claim in an already-covered domain does not re-expand scope.
        let oc = ds.observe(s3, t1).unwrap();
        assert!(oc.newly_provided && !oc.scope_expanded);

        // Labels: new, overwrite, and previous value reporting.
        assert_eq!(ds.set_label(t3, true).unwrap(), None);
        assert_eq!(ds.set_label(t3, false).unwrap(), Some(true));
        assert_eq!(ds.gold().unwrap().get(t3), Some(false));
    }

    #[test]
    fn delta_hooks_reject_bad_ids() {
        let mut ds = tiny();
        assert!(ds.observe(SourceId(9), TripleId(0)).is_err());
        assert!(ds.observe(SourceId(0), TripleId(9)).is_err());
        assert!(ds.set_label(TripleId(9), true).is_err());
    }

    #[test]
    fn set_label_creates_gold_when_absent() {
        let mut b = DatasetBuilder::new();
        let s = b.source("A");
        let t = b.triple("x", "p", "1");
        b.observe(s, t);
        let mut ds = b.build().unwrap();
        assert!(ds.gold().is_none());
        ds.set_label(t, true).unwrap();
        assert_eq!(ds.gold().unwrap().get(t), Some(true));
    }

    #[test]
    fn source_by_name_lookup() {
        let ds = tiny();
        assert_eq!(ds.source_by_name("B"), Some(SourceId(1)));
        assert_eq!(ds.source_by_name("Z"), None);
    }
}

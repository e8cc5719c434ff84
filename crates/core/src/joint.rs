//! Joint quality of source subsets: the paper's correlation measure.
//!
//! Correlation between sources is captured by *joint precision*
//! `p_{S*} = Pr(t | S* |= t)` and *joint recall* `r_{S*} = Pr(S* |= t | t)`
//! (Eqs. 3–4), where `S* |= t` means every source in `S*` outputs `t`.
//! The correlated models additionally need the *joint false-positive rate*
//! `q_{S*} = Pr(S* |= t | ¬t)`, derived from `p` and `r` exactly as in
//! Theorem 3.5 (the derivation goes through unchanged for sets).
//!
//! Within a cluster of up to 64 sources, subsets are `u64` bitmasks
//! ([`SourceSet`]); the [`JointQuality`] trait abstracts where the numbers
//! come from (empirical training data, hand-specified tables, or pure
//! independence products for testing the corollaries).

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::dataset::{Dataset, GoldLabels, SourceId};
use crate::error::{FusionError, Result};
use crate::prob::check_alpha;
use crate::triple::TripleId;

/// Cumulative hit/miss counters of a memo cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to recompute (and then populated the cache).
    pub misses: u64,
}

/// Counters of the incremental (delta) maintenance of an
/// [`EmpiricalJoint`]'s subset-count state.
///
/// `delta_rows` counts row mutations ([`EmpiricalJoint::push_row`] /
/// [`EmpiricalJoint::set_row`]) that were absorbed by updating the
/// memoised subset counts in place; `rescans` counts full passes over the
/// row store (one per memo miss — see the full-rescan conditions on
/// [`EmpiricalJoint::invalidate_caches`]); `invalidations` counts
/// explicit whole-cache drops. A healthy streaming workload shows
/// `delta_rows` growing while `rescans` stays near the number of
/// *distinct* subsets ever queried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JointDeltaStats {
    /// Row mutations absorbed by delta-updating memoised subset counts.
    pub delta_rows: u64,
    /// Full row-store scans (exactly one per memo miss).
    pub rescans: u64,
    /// Explicit [`EmpiricalJoint::invalidate_caches`] calls.
    pub invalidations: u64,
    /// Memoised subsets currently held (occupancy gauge; summing over
    /// joints gives total tracked entries).
    pub memo_entries: u64,
    /// Entries evicted by the memo's capacity bound
    /// ([`EmpiricalJoint::set_memo_capacity`]); each evicted subset pays
    /// one rescan if touched again.
    pub memo_evictions: u64,
}

impl JointDeltaStats {
    /// Element-wise sum (for aggregating per-cluster joints;
    /// `memo_entries` sums to total occupancy).
    pub fn merged(self, other: JointDeltaStats) -> JointDeltaStats {
        JointDeltaStats {
            delta_rows: self.delta_rows + other.delta_rows,
            rescans: self.rescans + other.rescans,
            invalidations: self.invalidations + other.invalidations,
            memo_entries: self.memo_entries + other.memo_entries,
            memo_evictions: self.memo_evictions + other.memo_evictions,
        }
    }
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when nothing was queried.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Element-wise sum (for aggregating per-cluster caches).
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

/// Exact joint counts of one source subset over the labelled row store:
/// the integer state behind both joint rates.
///
/// `n_true` is the number of labelled-true rows whose scope covers the
/// whole subset (the recall denominator), `tp` of those how many the
/// whole subset provides, and `fp` the labelled-false rows the whole
/// subset provides within scope. These are plain sums over rows, so they
/// can be maintained under row deltas by adding/retracting a single
/// row's contribution — which is what keeps
/// [`EmpiricalJoint::push_row`] / [`EmpiricalJoint::set_row`] /
/// [`EmpiricalJoint::set_alpha`] O(memoised subsets) instead of
/// O(rows × subsets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubsetCounts {
    /// Labelled-true rows with the whole subset in scope.
    pub n_true: usize,
    /// Labelled-true in-scope rows provided by the whole subset.
    pub tp: usize,
    /// Labelled-false rows provided (in scope) by the whole subset.
    pub fp: usize,
}

impl SubsetCounts {
    /// Add (`delta = 1`) or retract (`delta = -1`) one row's contribution
    /// for the subset `mask`. Mirrors the scan in `EmpiricalJoint::counts`
    /// term by term, so a maintained count always equals a fresh rescan.
    #[inline]
    fn apply_row(&mut self, mask: u64, row: (u64, u64, bool), delta: isize) {
        fn bump(v: &mut usize, delta: isize) {
            *v = v.checked_add_signed(delta).expect("subset count underflow");
        }
        let (providers, scope, truth) = row;
        if truth {
            if mask & !scope == 0 {
                bump(&mut self.n_true, delta);
                if mask & !providers == 0 {
                    bump(&mut self.tp, delta);
                }
            }
        } else if mask & !scope == 0 && mask & !providers == 0 {
            bump(&mut self.fp, delta);
        }
    }

    /// `r_{S*}` from counts — the single float expression shared by the
    /// rescan fallback and the delta path (bitwise equality by
    /// construction).
    #[inline]
    fn recall_value(&self) -> f64 {
        if self.n_true == 0 {
            0.0
        } else {
            self.tp as f64 / self.n_true as f64
        }
    }

    /// `q_{S*}` from counts (Theorem 3.5 in count form, see
    /// `quality::fpr_from_counts`). Stays defined when `tp = 0`.
    #[inline]
    fn fpr_value(&self, alpha: f64) -> f64 {
        if self.n_true == 0 {
            0.0
        } else {
            (alpha / (1.0 - alpha) * self.fp as f64 / self.n_true as f64).min(1.0)
        }
    }
}

/// One memoised subset: its exact counts plus both derived rates.
#[derive(Debug, Clone, Copy)]
struct JointEntry {
    counts: SubsetCounts,
    recall: f64,
    fpr: f64,
}

impl JointEntry {
    fn from_counts(counts: SubsetCounts, alpha: f64) -> JointEntry {
        JointEntry {
            counts,
            recall: counts.recall_value(),
            fpr: counts.fpr_value(alpha),
        }
    }
}

/// Hashes a subset mask by one Fibonacci multiply, rotated so the product's
/// well-mixed top half picks the bucket. It needs no key: the keys are
/// cluster-local subset masks (clusters are ≤ 24 members by default and
/// never over 64) from the solver's own enumeration, not client strings.
#[derive(Debug, Default)]
struct MaskHasher(u64);

impl Hasher for MaskHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("subset masks hash as one u64")
    }

    fn write_u64(&mut self, mask: u64) {
        self.0 = mask.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32);
    }
}

type MaskMap<V> = HashMap<u64, V, BuildHasherDefault<MaskHasher>>;

/// A warm subset and its CLOCK reference bit, which a read stores only
/// when it is clear and an eviction sweep clears.
#[derive(Debug)]
struct MemoSlot {
    entry: JointEntry,
    referenced: AtomicBool,
}

/// The subset memo `u64 -> JointEntry` of an [`EmpiricalJoint`], in two
/// tables. `&self` reads the **warm** table with no lock and no shared
/// write; it changes only under `&mut self`. The **fill** table takes the
/// `&self` misses behind one lock (a miss's O(rows) `scan_counts` runs
/// outside it), and every `&mut` entry point of [`EmpiricalJoint`] first
/// folds it into the warm table. Only map operations run under the lock,
/// so a panic cannot leave a table half-changed: a poisoned lock is taken
/// over with [`PoisonError::into_inner`].
///
/// A cap bounds both tables together (see
/// [`EmpiricalJoint::set_memo_capacity`]). Eviction is purely a memory
/// bound: a re-touched evicted subset takes the ordinary miss path (one
/// `scan_counts` rescan), which the delta-vs-rescan property pins bitwise
/// equal to the maintained entry it replaced.
#[derive(Debug, Default)]
struct SubsetMemo {
    warm: MaskMap<MemoSlot>,
    fill: Mutex<MaskMap<JointEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Entry cap over both tables; `None` = unbounded.
    cap: Option<usize>,
}

impl SubsetMemo {
    fn fill(&self) -> MutexGuard<'_, MaskMap<JointEntry>> {
        self.fill.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Move the fill table into the warm table; then, under a cap, sweep
    /// the warm table by CLOCK down to ¾ of the cap: a referenced entry
    /// loses its bit and stays, an unreferenced one is evicted.
    fn fold(&mut self) {
        let fill = self.fill.get_mut().unwrap_or_else(PoisonError::into_inner);
        self.warm.extend(fill.drain().map(|(mask, entry)| {
            let referenced = AtomicBool::new(true);
            (mask, MemoSlot { entry, referenced })
        }));
        let mut over = self
            .cap
            .map_or(0, |cap| self.warm.len().saturating_sub(cap * 3 / 4));
        *self.evictions.get_mut() += over as u64;
        while over > 0 {
            self.warm.retain(|_, slot| {
                if over == 0 || std::mem::take(slot.referenced.get_mut()) {
                    return true;
                }
                over -= 1;
                false
            });
        }
    }

    /// Look `key` up in the warm table, then in the fill table.
    fn get(&self, key: u64) -> Option<JointEntry> {
        let Some(slot) = self.warm.get(&key) else {
            return self.fill().get(&key).copied();
        };
        if !slot.referenced.load(Ordering::Relaxed) {
            slot.referenced.store(true, Ordering::Relaxed);
        }
        Some(slot.entry)
    }

    /// Memoise a miss in the fill table. At the cap, a fill entry makes
    /// room (a fold leaves the warm table below the cap).
    fn insert(&self, key: u64, value: JointEntry) {
        let mut fill = self.fill();
        let room = self.cap.map_or(usize::MAX, |c| c - self.warm.len());
        let victim = fill.keys().next().copied();
        if let Some(k) = victim.filter(|_| fill.len() >= room && !fill.contains_key(&key)) {
            fill.remove(&k);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        fill.insert(key, value);
    }

    /// Apply `f` to every memoised entry, in place, after a fold.
    fn update_entries(&mut self, mut f: impl FnMut(u64, &mut JointEntry)) {
        self.fold();
        for (mask, slot) in self.warm.iter_mut() {
            f(*mask, &mut slot.entry);
        }
    }

    /// Drop every memoised entry (counters are cumulative and survive).
    fn clear(&mut self) {
        let fill = self.fill.get_mut().unwrap_or_else(PoisonError::into_inner);
        fill.clear();
        self.warm.clear();
    }
}

/// A subset of the members of one cluster, as a bitmask. Bit `k` refers to
/// the cluster's `k`-th member (cluster-local numbering), not to a global
/// [`SourceId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceSet(pub u64);

impl SourceSet {
    /// The empty set.
    pub const EMPTY: SourceSet = SourceSet(0);

    /// Set containing the single member `k`.
    #[inline]
    pub fn singleton(k: usize) -> Self {
        debug_assert!(k < 64);
        SourceSet(1u64 << k)
    }

    /// Set of the first `n` members (the full cluster).
    #[inline]
    pub fn full(n: usize) -> Self {
        assert!(n <= 64, "cluster width {n} exceeds 64");
        if n == 64 {
            SourceSet(u64::MAX)
        } else {
            SourceSet((1u64 << n) - 1)
        }
    }

    /// Does the set contain member `k`?
    #[inline]
    pub fn contains(self, k: usize) -> bool {
        self.0 >> k & 1 == 1
    }

    /// Set with member `k` added.
    #[inline]
    pub fn with(self, k: usize) -> Self {
        SourceSet(self.0 | 1u64 << k)
    }

    /// Set with member `k` removed.
    #[inline]
    pub fn without(self, k: usize) -> Self {
        SourceSet(self.0 & !(1u64 << k))
    }

    /// Union.
    #[inline]
    pub fn union(self, other: SourceSet) -> Self {
        SourceSet(self.0 | other.0)
    }

    /// Set difference `self \ other`.
    #[inline]
    pub fn minus(self, other: SourceSet) -> Self {
        SourceSet(self.0 & !other.0)
    }

    /// Intersection.
    #[inline]
    pub fn intersect(self, other: SourceSet) -> Self {
        SourceSet(self.0 & other.0)
    }

    /// Is `self` a subset of `other`?
    #[inline]
    pub fn is_subset_of(self, other: SourceSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Number of members.
    #[inline]
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate member indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let k = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(k)
            }
        })
    }
}

/// Provider of joint recall / joint false-positive rate for arbitrary
/// subsets of a cluster's members.
///
/// Conventions: `r_∅ = q_∅ = 1` (the empty conjunction is vacuously true),
/// and implementations must be *monotone*: `S ⊆ S'` implies
/// `r_{S'} <= r_S` and `q_{S'} <= q_S` (requiring more sources to agree can
/// only shrink the probability). Empirical estimates satisfy this by
/// construction.
pub trait JointQuality {
    /// Number of members in the cluster this instance describes.
    fn n_members(&self) -> usize;

    /// `r_{S*} = Pr(S* |= t | t)`.
    fn joint_recall(&self, set: SourceSet) -> f64;

    /// `q_{S*} = Pr(S* |= t | ¬t)`.
    fn joint_fpr(&self, set: SourceSet) -> f64;

    /// `(r_{S*}, q_{S*})` in one call — what each inclusion–exclusion
    /// term reads. Must return exactly the two single reads; an
    /// implementation that stores both rates together answers with one
    /// lookup.
    fn joint_rates(&self, set: SourceSet) -> (f64, f64) {
        (self.joint_recall(set), self.joint_fpr(set))
    }

    /// Single-source recall `r_k`.
    fn member_recall(&self, k: usize) -> f64 {
        self.joint_recall(SourceSet::singleton(k))
    }

    /// Single-source false-positive rate `q_k`.
    fn member_fpr(&self, k: usize) -> f64 {
        self.joint_fpr(SourceSet::singleton(k))
    }
}

/// Joint quality estimated from labelled training data.
///
/// For each labelled triple we pre-project its provider set and scope set
/// onto the cluster members; the first query of a distinct subset is one
/// pass over those rows, after which its exact `(n_true, tp, fp)` counts
/// ([`SubsetCounts`]) and both derived rates are memoised (the exact
/// solver re-queries the same subsets for every triple). Row deltas
/// ([`EmpiricalJoint::push_row`] / [`EmpiricalJoint::set_row`]) and prior
/// changes ([`EmpiricalJoint::set_alpha`]) update the memoised state in
/// place instead of invalidating it, so a hot streaming path never pays
/// the O(rows) rescan twice for the same subset.
#[derive(Debug)]
pub struct EmpiricalJoint {
    members: Vec<SourceId>,
    /// The members' global source indices, for projecting provider sets.
    positions: Vec<usize>,
    /// (projected providers, projected scope, truth) per labelled triple.
    rows: Vec<(u64, u64, bool)>,
    alpha: f64,
    /// Memoised per-subset counts + derived recall/FPR.
    memo: SubsetMemo,
    /// Whether any memo-visible input (rows, alpha) changed since the
    /// last [`crate::fuser::Fuser::rebuild_cluster_solvers`] consumed it.
    dirty: bool,
    /// Row deltas absorbed incrementally (see [`JointDeltaStats`]).
    delta_rows: u64,
    /// Explicit whole-cache invalidations.
    invalidations: u64,
}

impl EmpiricalJoint {
    /// Build for the given cluster members over the labelled triples of
    /// `gold`.
    pub fn new(
        ds: &Dataset,
        gold: &GoldLabels,
        members: Vec<SourceId>,
        alpha: f64,
    ) -> Result<Self> {
        let labelled: Vec<(TripleId, bool)> = gold.iter_labelled().collect();
        Self::with_labelled_rows(ds, members, alpha, &labelled)
    }

    /// Build for the given cluster members with the labelled triples in an
    /// explicit, caller-chosen row order.
    ///
    /// [`EmpiricalJoint::new`] stores rows in [`TripleId`] order; an
    /// incremental caller that has been appending rows in label-*arrival*
    /// order uses this to rebuild a cluster joint whose row indices stay
    /// consistent with its sibling clusters (the estimates themselves are
    /// order-independent sums, so both orders yield bitwise-identical
    /// rates).
    pub fn with_labelled_rows(
        ds: &Dataset,
        members: Vec<SourceId>,
        alpha: f64,
        labelled: &[(TripleId, bool)],
    ) -> Result<Self> {
        check_alpha(alpha)?;
        if members.len() > 64 {
            return Err(FusionError::TooManySources {
                requested: members.len(),
                max: 64,
            });
        }
        if labelled.is_empty() {
            return Err(FusionError::MissingGold);
        }
        let mut joint = EmpiricalJoint {
            positions: members.iter().map(|s| s.index()).collect(),
            members,
            rows: Vec::with_capacity(labelled.len()),
            alpha,
            memo: SubsetMemo::default(),
            dirty: false,
            delta_rows: 0,
            invalidations: 0,
        };
        for &(t, truth) in labelled {
            if t.index() >= ds.n_triples() {
                return Err(FusionError::TripleOutOfRange(t.index()));
            }
            let (providers, scope) = joint.project_pattern(ds, t);
            joint.rows.push((providers, scope, truth));
        }
        Ok(joint)
    }

    /// The cluster members (bit `k` of any [`SourceSet`] refers to
    /// `members()[k]`).
    pub fn members(&self) -> &[SourceId] {
        &self.members
    }

    /// Cluster-local bit position of a source, if it is a member.
    pub fn member_position(&self, s: SourceId) -> Option<usize> {
        self.members.iter().position(|&m| m == s)
    }

    /// The prior used for the Theorem 3.5 joint-FPR derivation.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Replace the prior. Joint recalls are alpha-free; every memoised
    /// subset's FPR is recomputed in place from its maintained counts
    /// (`q = alpha/(1-alpha) · fp/n_true`), so no memo entry is dropped
    /// and no row is rescanned. A no-op when the value is unchanged.
    pub fn set_alpha(&mut self, alpha: f64) -> Result<()> {
        check_alpha(alpha)?;
        if alpha != self.alpha {
            self.alpha = alpha;
            self.memo
                .update_entries(|_, e| e.fpr = e.counts.fpr_value(alpha));
            self.dirty = true;
        }
        Ok(())
    }

    /// Number of labelled rows backing the estimates.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// One labelled row: `(projected providers, projected scope, truth)`.
    pub fn row(&self, idx: usize) -> (u64, u64, bool) {
        self.rows[idx]
    }

    /// Append a labelled row (a newly labelled triple), delta-updating the
    /// maintained counts of every memoised subset in place — no memo entry
    /// is dropped and no rescan is triggered. Delta hook for incremental
    /// ingestion: the counts are order-independent sums over rows, so
    /// appending in label-arrival order yields bit-identical values to a
    /// from-scratch build.
    ///
    /// ```
    /// use corrfuse_core::joint::{EmpiricalJoint, JointQuality, SourceSet};
    /// use corrfuse_core::{DatasetBuilder, TripleId};
    ///
    /// let mut b = DatasetBuilder::new();
    /// let (s1, t1) = b.observe_named("A", "x", "p", "1");
    /// let s2 = b.source("B");
    /// b.observe(s2, t1);
    /// let t2 = b.triple("y", "p", "2");
    /// b.observe(s1, t2);
    /// b.label(t1, true);
    /// b.label(t2, false);
    /// let ds = b.build().unwrap();
    /// let members: Vec<_> = ds.sources().collect();
    ///
    /// // Fit on only the first label, warm a subset, then stream the
    /// // second label in as a row delta.
    /// let keep = [TripleId(0)].into_iter().collect();
    /// let partial = ds.gold().unwrap().restricted_to(&keep);
    /// let mut inc = EmpiricalJoint::new(&ds, &partial, members.clone(), 0.5).unwrap();
    /// let probe = SourceSet::singleton(0);
    /// let _ = inc.joint_fpr(probe); // memoise (one rescan)
    /// let (prov, scope) = inc.project_pattern(&ds, TripleId(1));
    /// inc.push_row(prov, scope, false);
    ///
    /// // The delta-updated value is bitwise equal to a fresh build that
    /// // rescans everything — and the warm entry answered without a
    /// // second rescan.
    /// let fresh = EmpiricalJoint::new(&ds, ds.gold().unwrap(), members, 0.5).unwrap();
    /// assert_eq!(inc.joint_fpr(probe).to_bits(), fresh.joint_fpr(probe).to_bits());
    /// assert_eq!(inc.delta_stats().rescans, 1);
    /// assert_eq!(inc.delta_stats().delta_rows, 1);
    /// ```
    pub fn push_row(&mut self, providers: u64, scope: u64, truth: bool) {
        let row = (providers, scope, truth);
        self.rows.push(row);
        let alpha = self.alpha;
        self.memo.update_entries(|mask, e| {
            e.counts.apply_row(mask, row, 1);
            *e = JointEntry::from_counts(e.counts, alpha);
        });
        self.delta_rows += 1;
        self.dirty = true;
    }

    /// Overwrite a row in place (a claim or scope change touched an
    /// already-labelled triple), retracting the old row's contribution
    /// from every memoised subset and adding the new one — the memo stays
    /// warm. A no-op when the row is unchanged. Errors on an out-of-range
    /// index.
    pub fn set_row(&mut self, idx: usize, providers: u64, scope: u64, truth: bool) -> Result<()> {
        match self.rows.get_mut(idx) {
            None => Err(FusionError::TripleOutOfRange(idx)),
            Some(row) => {
                let next = (providers, scope, truth);
                if *row != next {
                    let prev = *row;
                    *row = next;
                    let alpha = self.alpha;
                    self.memo.update_entries(|mask, e| {
                        e.counts.apply_row(mask, prev, -1);
                        e.counts.apply_row(mask, next, 1);
                        *e = JointEntry::from_counts(e.counts, alpha);
                    });
                    self.delta_rows += 1;
                    self.dirty = true;
                }
                Ok(())
            }
        }
    }

    /// Drop every memoised subset (counts and rates) from both memo
    /// tables. The next query of each subset pays one full O(rows)
    /// rescan; hit/miss counters are cumulative and survive.
    ///
    /// Since row deltas and prior changes are absorbed in place, nothing
    /// in the maintenance path calls this any more. The **only**
    /// conditions that still force a full rescan are: (1) the first query
    /// of a subset never seen by this instance, (2) any query after an
    /// explicit `invalidate_caches` (kept public as a memory-release /
    /// defensive escape hatch), and (3) construction of a new
    /// `EmpiricalJoint` — e.g. when re-clustering changes a cluster's
    /// membership, which changes the projection every row is stored
    /// under.
    pub fn invalidate_caches(&mut self) {
        self.memo.clear();
        self.invalidations += 1;
    }

    /// Cumulative hit/miss counters of the subset memo: one count per
    /// subset read, a hit whichever of its two tables answered.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.memo.hits.load(Ordering::Relaxed),
            misses: self.memo.misses.load(Ordering::Relaxed),
        }
    }

    /// Bound the subset memo to `max_entries` live entries over both its
    /// tables (at least one; `None` lifts the bound). The fold that starts
    /// each `&mut` call touching the memo evicts by CLOCK down to ¾ of the
    /// bound; a miss at the bound evicts a subset filled since the last
    /// fold. A re-touched evicted subset pays the ordinary miss-path
    /// rescan, so scores are unaffected: this is purely a memory ceiling.
    pub fn set_memo_capacity(&mut self, max_entries: Option<usize>) {
        self.memo.cap = max_entries.map(|m| m.max(1));
        self.memo.fold();
    }

    /// Cumulative incremental-maintenance counters (row deltas absorbed
    /// in place vs. full rescans paid, plus memo occupancy/evictions).
    pub fn delta_stats(&self) -> JointDeltaStats {
        JointDeltaStats {
            delta_rows: self.delta_rows,
            rescans: self.memo.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations,
            memo_entries: (self.memo.warm.len() + self.memo.fill().len()) as u64,
            memo_evictions: self.memo.evictions.load(Ordering::Relaxed),
        }
    }

    /// Whether any memo-visible input (rows, alpha) changed since
    /// [`EmpiricalJoint::take_dirty`] last ran. Solver-rebuild scheduling
    /// reads this to skip clusters whose parameters are bitwise
    /// unchanged.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Read and clear the dirty flag (see [`EmpiricalJoint::is_dirty`]).
    /// Also folds the subsets filled since the last `&mut` call into the
    /// memo's lock-free table.
    pub fn take_dirty(&mut self) -> bool {
        self.memo.fold();
        std::mem::take(&mut self.dirty)
    }

    /// Project a triple's provider and scope sets onto this cluster's
    /// members — the row this joint would store for `t` if it were
    /// labelled. Delta hook used to build [`EmpiricalJoint::push_row`] /
    /// [`EmpiricalJoint::set_row`] arguments from live dataset state.
    pub fn project_pattern(&self, ds: &Dataset, t: TripleId) -> (u64, u64) {
        let providers = ds.providers(t).project(&self.positions);
        let mut scope = 0u64;
        for (k, &s) in self.members.iter().enumerate() {
            if ds.in_scope(s, t) {
                scope |= 1u64 << k;
            }
        }
        (providers, scope)
    }

    /// The exact joint counts for `set`, by one full pass over the row
    /// store. This is the **rescan fallback** that pins the incremental
    /// path: a delta-maintained [`SubsetCounts`] must always equal this
    /// scan (enforced by a testkit property over random row streams).
    pub fn scan_counts(&self, set: SourceSet) -> SubsetCounts {
        let m = set.0;
        let mut counts = SubsetCounts::default();
        for &(providers, scope, truth) in &self.rows {
            if truth {
                if m & !scope == 0 {
                    counts.n_true += 1;
                    if m & !providers == 0 {
                        counts.tp += 1;
                    }
                }
            } else if m & !scope == 0 && m & !providers == 0 {
                counts.fp += 1;
            }
        }
        counts
    }

    /// A reader for one pass of subset reads (a solver's factor): it
    /// tallies its hits locally and adds them to the memo's count once,
    /// when it drops, so its reads make no shared write.
    pub(crate) fn tally(&self) -> Tally<'_> {
        Tally(self, Cell::new(0))
    }

    /// The memoised joint counts for `set` (delta-maintained; rescans on
    /// the first query of a subset). Exposed so callers correlating many
    /// subsets (clustering, reports) share the maintained state.
    pub fn counts(&self, set: SourceSet) -> SubsetCounts {
        self.tally().entry(set).counts
    }

    /// Joint precision `p_{S*}` — `None` when no labelled triple is jointly
    /// provided (no support). Exposed for reports (Fig 1b) and clustering.
    pub fn joint_precision(&self, set: SourceSet) -> Option<f64> {
        let SubsetCounts { tp, fp, .. } = self.counts(set);
        if tp + fp == 0 {
            None
        } else {
            Some(tp as f64 / (tp + fp) as f64)
        }
    }
}

/// An [`EmpiricalJoint`] and the hits it has tallied (see
/// [`EmpiricalJoint::tally`]).
#[derive(Debug)]
pub(crate) struct Tally<'a>(&'a EmpiricalJoint, Cell<u64>);

impl Tally<'_> {
    /// The memoised entry for `set`, rescanning on a miss.
    fn entry(&self, set: SourceSet) -> JointEntry {
        let (joint, memo) = (self.0, &self.0.memo);
        if let Some(e) = memo.get(set.0) {
            self.1.set(self.1.get() + 1);
            return e;
        }
        memo.misses.fetch_add(1, Ordering::Relaxed);
        let e = JointEntry::from_counts(joint.scan_counts(set), joint.alpha);
        memo.insert(set.0, e);
        e
    }
}

impl Drop for Tally<'_> {
    fn drop(&mut self) {
        self.0.memo.hits.fetch_add(self.1.get(), Ordering::Relaxed);
    }
}

impl JointQuality for Tally<'_> {
    fn n_members(&self) -> usize {
        self.0.members.len()
    }

    fn joint_recall(&self, set: SourceSet) -> f64 {
        self.joint_rates(set).0
    }

    fn joint_fpr(&self, set: SourceSet) -> f64 {
        self.joint_rates(set).1
    }

    /// Both rates from one memo entry: one lookup (and one hit/miss
    /// count) where the two single reads take two.
    fn joint_rates(&self, set: SourceSet) -> (f64, f64) {
        if set.is_empty() {
            return (1.0, 1.0);
        }
        let e = self.entry(set);
        (e.recall, e.fpr)
    }
}

impl JointQuality for EmpiricalJoint {
    fn n_members(&self) -> usize {
        self.members.len()
    }

    fn joint_recall(&self, set: SourceSet) -> f64 {
        self.tally().joint_recall(set)
    }

    fn joint_fpr(&self, set: SourceSet) -> f64 {
        self.tally().joint_fpr(set)
    }

    fn joint_rates(&self, set: SourceSet) -> (f64, f64) {
        self.tally().joint_rates(set)
    }
}

/// Placeholder joint for solvers that precompute everything at
/// construction time and never read joint parameters (e.g. the PrecRec
/// adapter). Returns the vacuous `r_∅ = q_∅ = 1` for every subset.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoJoint;

impl JointQuality for NoJoint {
    fn n_members(&self) -> usize {
        0
    }

    fn joint_recall(&self, _set: SourceSet) -> f64 {
        1.0
    }

    fn joint_fpr(&self, _set: SourceSet) -> f64 {
        1.0
    }
}

/// Joint quality of perfectly independent sources: products of per-source
/// rates. Used to validate Corollaries 4.3 / 4.6 and as a fallback.
#[derive(Debug, Clone)]
pub struct IndependentJoint {
    recalls: Vec<f64>,
    fprs: Vec<f64>,
}

impl IndependentJoint {
    /// Build from per-source recall and false-positive rate.
    pub fn new(recalls: Vec<f64>, fprs: Vec<f64>) -> Result<Self> {
        if recalls.len() != fprs.len() {
            return Err(FusionError::InvalidProbability {
                what: "recalls/fprs length mismatch",
                value: f64::NAN,
            });
        }
        if recalls.len() > 64 {
            return Err(FusionError::TooManySources {
                requested: recalls.len(),
                max: 64,
            });
        }
        for &r in &recalls {
            crate::prob::check_prob("recall", r)?;
        }
        for &q in &fprs {
            crate::prob::check_prob("false positive rate", q)?;
        }
        Ok(IndependentJoint { recalls, fprs })
    }
}

impl JointQuality for IndependentJoint {
    fn n_members(&self) -> usize {
        self.recalls.len()
    }

    fn joint_recall(&self, set: SourceSet) -> f64 {
        set.iter().map(|k| self.recalls[k]).product()
    }

    fn joint_fpr(&self, set: SourceSet) -> f64 {
        set.iter().map(|k| self.fprs[k]).product()
    }
}

/// Joint quality with explicit per-subset overrides and an independence
/// fallback. This mirrors how the paper's worked examples (4.4, 4.7, 4.10)
/// specify parameters: a handful of joint values are "given", everything
/// else defaults to products.
#[derive(Debug, Clone)]
pub struct TableJoint {
    base: IndependentJoint,
    recall_overrides: HashMap<u64, f64>,
    fpr_overrides: HashMap<u64, f64>,
}

impl TableJoint {
    /// Start from independent per-source rates.
    pub fn new(recalls: Vec<f64>, fprs: Vec<f64>) -> Result<Self> {
        Ok(TableJoint {
            base: IndependentJoint::new(recalls, fprs)?,
            recall_overrides: HashMap::new(),
            fpr_overrides: HashMap::new(),
        })
    }

    /// Override `r_{S*}` for one subset.
    pub fn set_recall(&mut self, set: SourceSet, value: f64) -> &mut Self {
        self.recall_overrides.insert(set.0, value);
        self
    }

    /// Override `q_{S*}` for one subset.
    pub fn set_fpr(&mut self, set: SourceSet, value: f64) -> &mut Self {
        self.fpr_overrides.insert(set.0, value);
        self
    }
}

impl JointQuality for TableJoint {
    fn n_members(&self) -> usize {
        self.base.n_members()
    }

    fn joint_recall(&self, set: SourceSet) -> f64 {
        match self.recall_overrides.get(&set.0) {
            Some(&v) => v,
            None => self.base.joint_recall(set),
        }
    }

    fn joint_fpr(&self, set: SourceSet) -> f64 {
        match self.fpr_overrides.get(&set.0) {
            Some(&v) => v,
            None => self.base.joint_fpr(set),
        }
    }
}

/// Correlation factor `C_{S*} = r_{S*} / prod_i r_i` (Eq. 16). Values above
/// 1 indicate positive correlation on true triples, below 1 negative
/// correlation; 1 is independence. Returns 1 when undefined (a member has
/// zero recall).
pub fn correlation_true(joint: &impl JointQuality, set: SourceSet) -> f64 {
    let denom: f64 = set.iter().map(|k| joint.member_recall(k)).product();
    if denom == 0.0 {
        1.0
    } else {
        joint.joint_recall(set) / denom
    }
}

/// Correlation factor `C¬_{S*} = q_{S*} / prod_i q_i` (Eq. 17) — the same
/// measure on false triples.
pub fn correlation_false(joint: &impl JointQuality, set: SourceSet) -> f64 {
    let denom: f64 = set.iter().map(|k| joint.member_fpr(k)).product();
    if denom == 0.0 {
        1.0
    } else {
        joint.joint_fpr(set) / denom
    }
}

/// Per-source correlation summaries used by the aggressive and elastic
/// approximations.
///
/// `cr[k] = C⁺_k · r_k = r_cluster / r_{cluster \ k}` and
/// `cq[k] = C⁻_k · q_k = q_cluster / q_{cluster \ k}` (Eqs. 14–15 times the
/// member's own rate — this "effective rate" form is what the formulas
/// consume and avoids dividing by `r_k`). When the denominator has no
/// support the member falls back to independence (`cr[k] = r_k`).
#[derive(Debug, Clone, PartialEq)]
pub struct PerSourceCorrelation {
    /// Effective recall `C⁺_k · r_k` per member.
    pub cr: Vec<f64>,
    /// Effective false-positive rate `C⁻_k · q_k` per member.
    pub cq: Vec<f64>,
}

impl PerSourceCorrelation {
    /// Compute for the given cluster.
    pub fn compute<J: JointQuality + ?Sized>(joint: &J, cluster: SourceSet) -> Self {
        let n = joint.n_members();
        let r_full = joint.joint_recall(cluster);
        let q_full = joint.joint_fpr(cluster);
        let mut cr = vec![0.0; n];
        let mut cq = vec![0.0; n];
        for k in 0..n {
            if !cluster.contains(k) {
                continue;
            }
            let rest = cluster.without(k);
            let r_rest = joint.joint_recall(rest);
            let q_rest = joint.joint_fpr(rest);
            cr[k] = if r_rest > 0.0 {
                r_full / r_rest
            } else {
                joint.member_recall(k)
            };
            cq[k] = if q_rest > 0.0 {
                q_full / q_rest
            } else {
                joint.member_fpr(k)
            };
        }
        PerSourceCorrelation { cr, cq }
    }

    /// The raw `C⁺_k` factor (Eq. 14), for reporting (Figure 3).
    pub fn cplus(&self, joint: &impl JointQuality, k: usize) -> f64 {
        let r = joint.member_recall(k);
        if r == 0.0 {
            1.0
        } else {
            self.cr[k] / r
        }
    }

    /// The raw `C⁻_k` factor (Eq. 15), for reporting (Figure 3).
    pub fn cminus(&self, joint: &impl JointQuality, k: usize) -> f64 {
        let q = joint.member_fpr(k);
        if q == 0.0 {
            1.0
        } else {
            self.cq[k] / q
        }
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

    fn fig1_joint() -> EmpiricalJoint {
        let ds = figure1();
        let members: Vec<SourceId> = ds.sources().collect();
        EmpiricalJoint::new(&ds, ds.gold().unwrap(), members, 0.5).unwrap()
    }

    fn set(members: &[usize]) -> SourceSet {
        members
            .iter()
            .fold(SourceSet::EMPTY, |acc, &k| acc.with(k - 1))
    }

    #[test]
    fn source_set_basics() {
        let s = SourceSet::singleton(3).with(5);
        assert!(s.contains(3) && s.contains(5) && !s.contains(4));
        assert_eq!(s.count(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 5]);
        assert_eq!(s.without(3), SourceSet::singleton(5));
        assert!(SourceSet::EMPTY.is_empty());
        assert!(s.is_subset_of(SourceSet::full(10)));
        assert!(!SourceSet::full(10).is_subset_of(s));
        assert_eq!(SourceSet::full(3).0, 0b111);
        assert_eq!(SourceSet::full(64).0, u64::MAX);
        assert_eq!(s.minus(SourceSet::singleton(5)), SourceSet::singleton(3));
        assert_eq!(
            s.intersect(SourceSet::singleton(5)),
            SourceSet::singleton(5)
        );
        assert_eq!(s.union(SourceSet::singleton(0)).count(), 3);
    }

    #[test]
    fn figure_1b_joint_precision_and_recall() {
        let j = fig1_joint();
        // {S2,S3}: joint prec 0.67, joint rec 0.33.
        assert!((j.joint_precision(set(&[2, 3])).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((j.joint_recall(set(&[2, 3])) - 2.0 / 6.0).abs() < 1e-12);
        // {S1,S3}: joint prec 1, joint rec 0.33.
        assert!((j.joint_precision(set(&[1, 3])).unwrap() - 1.0).abs() < 1e-12);
        assert!((j.joint_recall(set(&[1, 3])) - 2.0 / 6.0).abs() < 1e-12);
        // {S1,S2,S4}: joint prec 0.33, joint rec 0.167.
        assert!((j.joint_precision(set(&[1, 2, 4])).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert!((j.joint_recall(set(&[1, 2, 4])) - 1.0 / 6.0).abs() < 1e-12);
        // {S1,S4,S5}: joint prec 0.6, joint rec 0.5.
        assert!((j.joint_precision(set(&[1, 4, 5])).unwrap() - 0.6).abs() < 1e-12);
        assert!((j.joint_recall(set(&[1, 4, 5])) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_set_conventions() {
        let j = fig1_joint();
        assert_eq!(j.joint_recall(SourceSet::EMPTY), 1.0);
        assert_eq!(j.joint_fpr(SourceSet::EMPTY), 1.0);
    }

    #[test]
    fn singleton_joint_matches_source_quality() {
        let j = fig1_joint();
        // Matches Figure 1b per-source numbers.
        assert!((j.member_recall(0) - 4.0 / 6.0).abs() < 1e-12);
        assert!((j.member_fpr(0) - 0.5).abs() < 1e-12);
        assert!((j.member_fpr(2) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn example_2_3_correlation_signs() {
        let j = fig1_joint();
        // S1,S4,S5 positively correlated: joint recall 0.5 > 0.3 product.
        let c = correlation_true(&j, set(&[1, 4, 5]));
        assert!(c > 1.0, "C145={c}");
        // S1,S3 negatively correlated: joint recall 0.33 < 0.45 product.
        let c = correlation_true(&j, set(&[1, 3]));
        assert!(c < 1.0, "C13={c}");
    }

    #[test]
    fn paper_correlation_factor_values() {
        let j = fig1_joint();
        // §4.2: C45 = 0.67/(0.67*0.67) = 1.5.
        assert!((correlation_true(&j, set(&[4, 5])) - 1.5).abs() < 0.01);
        // C13 = 0.33/(0.67*0.67) = 0.75.
        assert!((correlation_true(&j, set(&[1, 3])) - 0.75).abs() < 0.01);
        // C23 = 1 (independent on true triples).
        assert!((correlation_true(&j, set(&[2, 3])) - 1.0).abs() < 0.01);
        // On false triples, C¬23 from the count-based definitions:
        // q23 = FP_23/N_true = 1/6, q2*q3 = (4/6)(1/6) => C¬23 = 1.5.
        // (The paper's prose quotes C¬23 = 0.5, which is inconsistent with
        // its own Eq. 17 on the Figure 1 counts; see DESIGN.md deviations.)
        assert!((correlation_false(&j, set(&[2, 3])) - 1.5).abs() < 0.01);
    }

    #[test]
    fn joint_monotonicity() {
        let j = fig1_joint();
        // Adding members can only shrink joint recall/fpr.
        for base in 0..32u64 {
            let s = SourceSet(base);
            for k in 0..5 {
                if s.contains(k) {
                    continue;
                }
                let bigger = s.with(k);
                assert!(j.joint_recall(bigger) <= j.joint_recall(s) + 1e-12);
                assert!(j.joint_fpr(bigger) <= j.joint_fpr(s) + 1e-12);
            }
        }
    }

    #[test]
    fn cache_is_consistent() {
        let j = fig1_joint();
        let s = set(&[1, 4, 5]);
        let first = j.joint_recall(s);
        let second = j.joint_recall(s);
        assert_eq!(first, second);
    }

    #[test]
    fn independent_joint_is_product() {
        let j = IndependentJoint::new(vec![0.5, 0.4, 0.9], vec![0.1, 0.2, 0.3]).unwrap();
        let s = SourceSet::full(3);
        assert!((j.joint_recall(s) - 0.5 * 0.4 * 0.9).abs() < 1e-12);
        assert!((j.joint_fpr(s) - 0.1 * 0.2 * 0.3).abs() < 1e-12);
        assert!((correlation_true(&j, s) - 1.0).abs() < 1e-12);
        assert!((correlation_false(&j, s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_joint_validation() {
        assert!(IndependentJoint::new(vec![0.5], vec![0.1, 0.2]).is_err());
        assert!(IndependentJoint::new(vec![1.5], vec![0.1]).is_err());
        assert!(IndependentJoint::new(vec![0.5; 65], vec![0.1; 65]).is_err());
    }

    #[test]
    fn table_joint_overrides_and_falls_back() {
        let mut j = TableJoint::new(vec![0.5, 0.5], vec![0.1, 0.1]).unwrap();
        j.set_recall(SourceSet::full(2), 0.4);
        assert_eq!(j.joint_recall(SourceSet::full(2)), 0.4);
        // Singleton falls back to the base.
        assert_eq!(j.joint_recall(SourceSet::singleton(0)), 0.5);
        j.set_fpr(SourceSet::singleton(1), 0.05);
        assert_eq!(j.joint_fpr(SourceSet::singleton(1)), 0.05);
        assert!((j.joint_fpr(SourceSet::full(2)) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn per_source_correlation_independent_is_identity() {
        let j = IndependentJoint::new(vec![0.5, 0.4, 0.9], vec![0.1, 0.2, 0.3]).unwrap();
        let c = PerSourceCorrelation::compute(&j, SourceSet::full(3));
        for k in 0..3 {
            assert!((c.cr[k] - j.member_recall(k)).abs() < 1e-12);
            assert!((c.cq[k] - j.member_fpr(k)).abs() < 1e-12);
            assert!((c.cplus(&j, k) - 1.0).abs() < 1e-12);
            assert!((c.cminus(&j, k) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn figure_3_correlation_parameters_from_table() {
        // Example 4.7 / Figure 3 with the paper's *given* joint parameters:
        // r_12345 = 0.11, q_12345 = 0.037, per-source r/q from Figure 1b.
        let r = vec![2.0 / 3.0, 0.5, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0];
        let q = vec![0.5, 2.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0];
        let mut j = TableJoint::new(r, q).unwrap();
        let full = SourceSet::full(5);
        j.set_recall(full, 0.11);
        j.set_fpr(full, 0.037);
        // Leave-one-out joint values chosen to reproduce Figure 3:
        // C+_1 = 0.11/(0.67*0.167) = 1  => r_{2345} = 0.167 * ... solve:
        // cr[0] = r_full / r_rest; C+_1 = cr[0]/r_1.
        j.set_recall(full.without(0), 0.11 / (1.0 * 2.0 / 3.0)); // C+1=1
        j.set_recall(full.without(1), 0.11 / (1.0 * 0.5)); // C+2=1
        j.set_recall(full.without(2), 0.11 / (0.75 * 2.0 / 3.0)); // C+3=0.75
        j.set_recall(full.without(3), 0.11 / (1.5 * 2.0 / 3.0)); // C+4=1.5
        j.set_recall(full.without(4), 0.11 / (1.5 * 2.0 / 3.0)); // C+5=1.5
        j.set_fpr(full.without(0), 0.037 / (2.0 * 0.5)); // C-1=2
        j.set_fpr(full.without(1), 0.037 / (1.0 * 2.0 / 3.0)); // C-2=1
        j.set_fpr(full.without(2), 0.037 / (1.0 / 6.0)); // C-3=1
        j.set_fpr(full.without(3), 0.037 / (3.0 / 3.0)); // C-4=3
        j.set_fpr(full.without(4), 0.037 / (3.0 / 3.0)); // C-5=3
        let c = PerSourceCorrelation::compute(&j, full);
        let want_plus = [1.0, 1.0, 0.75, 1.5, 1.5];
        let want_minus = [2.0, 1.0, 1.0, 3.0, 3.0];
        for k in 0..5 {
            assert!(
                (c.cplus(&j, k) - want_plus[k]).abs() < 1e-9,
                "C+{} = {}",
                k + 1,
                c.cplus(&j, k)
            );
            assert!(
                (c.cminus(&j, k) - want_minus[k]).abs() < 1e-9,
                "C-{} = {}",
                k + 1,
                c.cminus(&j, k)
            );
        }
    }

    #[test]
    fn per_source_correlation_zero_support_falls_back() {
        // All-but-one joint recall is 0 => fall back to member recall.
        let mut j = TableJoint::new(vec![0.5, 0.5], vec![0.1, 0.1]).unwrap();
        j.set_recall(SourceSet::singleton(1), 0.0);
        // cluster {0,1}: rest of 0 is {1} with r=0 -> fallback cr[0]=r_0.
        let c = PerSourceCorrelation::compute(&j, SourceSet::full(2));
        assert_eq!(c.cr[0], 0.5);
    }

    #[test]
    fn too_many_members_rejected() {
        let ds = figure1();
        let members: Vec<SourceId> = (0..65).map(SourceId).collect();
        let err = EmpiricalJoint::new(&ds, ds.gold().unwrap(), members, 0.5);
        assert!(matches!(err, Err(FusionError::TooManySources { .. })));
    }

    #[test]
    fn cache_counters_and_invalidation() {
        let mut j = fig1_joint();
        let s = set(&[1, 4, 5]);
        assert_eq!(j.cache_stats(), CacheStats::default());
        let first = j.joint_recall(s); // miss
        let _ = j.joint_recall(s); // hit
        let stats = j.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // Invalidation keeps counters but drops entries: next query misses
        // and recomputes the same value from the unchanged rows.
        j.invalidate_caches();
        assert_eq!(j.joint_recall(s), first);
        assert_eq!(j.cache_stats().misses, 2);
    }

    #[test]
    fn joint_rates_reads_both_rates_in_one_lookup() {
        let j = fig1_joint();
        for mask in 0..32u64 {
            let s = SourceSet(mask);
            let (r, q) = j.joint_rates(s);
            assert_eq!(r.to_bits(), j.joint_recall(s).to_bits(), "{mask:b}");
            assert_eq!(q.to_bits(), j.joint_fpr(s).to_bits(), "{mask:b}");
        }
        let fresh = fig1_joint();
        let _ = fresh.joint_rates(set(&[1, 4, 5])); // miss
        let _ = fresh.joint_rates(set(&[1, 4, 5])); // hit
        assert_eq!(fresh.cache_stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn memo_eviction_bounds_entries_and_keeps_rates_bitwise() {
        let mut bounded = fig1_joint();
        bounded.set_memo_capacity(Some(4));
        let unbounded = fig1_joint();
        // Sweep the whole subset lattice twice: far more distinct
        // subsets than the bound, so eviction must kick in, and every
        // (re)computed rate must still match the unbounded memo bitwise.
        for round in 0..2 {
            for mask in 1..32u64 {
                let s = SourceSet(mask);
                assert_eq!(
                    bounded.joint_recall(s).to_bits(),
                    unbounded.joint_recall(s).to_bits(),
                    "r mask {mask:b} round {round}"
                );
                assert_eq!(
                    bounded.joint_fpr(s).to_bits(),
                    unbounded.joint_fpr(s).to_bits(),
                    "q mask {mask:b} round {round}"
                );
            }
        }
        let stats = bounded.delta_stats();
        // The cap is exact: at most 4 live across both tables.
        assert!(
            stats.memo_entries <= 4,
            "occupancy {} over bound",
            stats.memo_entries
        );
        assert!(stats.memo_evictions > 0);
        // Evicted subsets re-enter through the miss path: strictly more
        // rescans than the unbounded memo paid for the same queries.
        assert!(stats.rescans > unbounded.delta_stats().rescans);
        assert_eq!(stats.invalidations, 0);
    }

    #[test]
    fn memo_capacity_shrinks_existing_entries() {
        let mut j = fig1_joint();
        for mask in 1..32u64 {
            let _ = j.joint_recall(SourceSet(mask));
        }
        assert_eq!(j.delta_stats().memo_entries, 31);
        j.set_memo_capacity(Some(4));
        let stats = j.delta_stats();
        assert!(stats.memo_entries <= 4);
        assert_eq!(
            stats.memo_evictions,
            31 - stats.memo_entries,
            "every entry over the bound was evicted"
        );
        // Row deltas keep maintaining the surviving entries in place.
        let row = j.row(0);
        j.set_row(0, 0, row.1, row.2).unwrap();
        let fresh = fig1_joint_after(|f| {
            let r = f.row(0);
            f.set_row(0, 0, r.1, r.2).unwrap();
        });
        for mask in 1..32u64 {
            let s = SourceSet(mask);
            assert_eq!(j.joint_recall(s).to_bits(), fresh.joint_recall(s).to_bits());
            assert_eq!(j.joint_fpr(s).to_bits(), fresh.joint_fpr(s).to_bits());
        }
    }

    /// The warm table takes no lock: while another thread holds the fill
    /// lock, a reader still answers every warm subset, counting hits.
    #[test]
    fn warm_reads_never_wait_on_the_fill_lock() {
        use std::sync::mpsc;
        use std::time::Duration;
        let mut j = fig1_joint();
        let want: Vec<(f64, f64)> = (1..32u64).map(|m| j.joint_rates(SourceSet(m))).collect();
        j.take_dirty(); // folds the filled subsets into the warm table
        let j = &j;
        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _fill = j.memo.fill();
                held_tx.send(()).unwrap();
                let _ = release_rx.recv();
            });
            held_rx.recv().unwrap();
            s.spawn(move || {
                let got: Vec<(f64, f64)> =
                    (1..32u64).map(|m| j.joint_rates(SourceSet(m))).collect();
                done_tx.send(got).unwrap();
            });
            let got = done_rx.recv_timeout(Duration::from_secs(10));
            // Release the lock before judging, so a blocked reader ends.
            release_tx.send(()).unwrap();
            let got = got.expect("a warm read waited on the fill lock");
            for (mask, (a, b)) in (1u64..).zip(got.iter().zip(&want)) {
                assert_eq!(a.0.to_bits(), b.0.to_bits(), "r mask {mask:b}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "q mask {mask:b}");
            }
        });
        assert_eq!(
            j.cache_stats(),
            CacheStats {
                hits: 31,
                misses: 31
            }
        );
    }

    /// A world wide enough that a 2-thread engine splits its triples.
    fn patterned_world() -> Dataset {
        let mut b = DatasetBuilder::new();
        let sources: Vec<_> = (0..6).map(|i| b.source(format!("S{i}"))).collect();
        for i in 0..300u64 {
            let t = b.triple("x", "p", i.to_string());
            let bits = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58;
            for (k, &s) in sources.iter().enumerate() {
                if bits >> k & 1 == 1 || i % 6 == k as u64 {
                    b.observe(s, t);
                }
            }
            if i % 3 != 0 {
                b.label(t, bits.count_ones() >= 3);
            }
        }
        b.build().unwrap()
    }

    /// One pass counts one hit or miss per term read, however the engine
    /// splits it, and a second pass over the memoised subsets only hits.
    #[test]
    fn a_pass_counts_one_hit_or_miss_per_term_read() {
        use crate::engine::ScoringEngine;
        use crate::fuser::{ClusterStrategy, Fuser, FuserConfig, Method};
        let ds = patterned_world();
        let config = FuserConfig::new(Method::Exact).with_strategy(ClusterStrategy::SingleCluster);
        let fit = || Fuser::fit(&config, &ds, ds.gold().unwrap()).unwrap();
        let stats = |f: &Fuser| {
            (0..f.n_cluster_units())
                .filter_map(|i| f.cluster_joint(i))
                .fold(CacheStats::default(), |acc, j| acc.merged(j.cache_stats()))
        };
        let two = ScoringEngine::with_threads(2).with_chunk_size(16);
        let (serial, parallel) = (fit(), fit());
        let want = serial
            .score_all_with(&ds, &ScoringEngine::serial())
            .unwrap();
        let got = parallel.score_all_with(&ds, &two).unwrap();
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let (s1, p1) = (stats(&serial), stats(&parallel));
        let reads = s1.hits + s1.misses;
        assert!(s1.hits > 0 && s1.misses > 0, "{s1:?}");
        assert_eq!(p1.hits + p1.misses, reads);
        parallel.score_all_with(&ds, &two).unwrap();
        let p2 = stats(&parallel);
        assert_eq!((p2.hits - p1.hits, p2.misses), (reads, p1.misses));
    }

    /// The fill lock's poisoning contract: only map operations run under
    /// it, so a panic while it is held leaves both tables whole, and the
    /// memo takes the poisoned lock over. Reads, fills and a fold then
    /// return bitwise what an unpoisoned memo does.
    #[test]
    fn a_poisoned_fill_lock_is_taken_over() {
        let clean = fig1_joint();
        let mut poisoned = fig1_joint();
        for mask in (1..32u64).step_by(2) {
            let _ = poisoned.joint_rates(SourceSet(mask)); // fills 16
        }
        let p = &poisoned;
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _fill = p.memo.fill.lock();
                panic!("poisoning the fill lock on purpose");
            })
            .join()
            .is_err()
        });
        assert!(panicked && poisoned.memo.fill.is_poisoned());
        let check = |j: &EmpiricalJoint| {
            for mask in 1..32u64 {
                let (s, c) = (SourceSet(mask), clean.joint_rates(SourceSet(mask)));
                let (r, q) = j.joint_rates(s);
                assert_eq!((r.to_bits(), q.to_bits()), (c.0.to_bits(), c.1.to_bits()));
            }
        };
        check(&poisoned); // odd masks hit the fill table, even ones fill it
        assert_eq!(
            poisoned.cache_stats(),
            CacheStats {
                hits: 16,
                misses: 31
            }
        );
        poisoned.take_dirty(); // the fold takes the lock over too
        assert_eq!(poisoned.delta_stats().memo_entries, 31);
        check(&poisoned);
        assert_eq!(
            poisoned.cache_stats(),
            CacheStats {
                hits: 47,
                misses: 31
            }
        );
    }

    fn fig1_joint_after(mutate: impl FnOnce(&mut EmpiricalJoint)) -> EmpiricalJoint {
        let mut j = fig1_joint();
        mutate(&mut j);
        j
    }

    #[test]
    fn row_maintenance_matches_fresh_build() {
        let ds = figure1();
        let gold = ds.gold().unwrap();
        let members: Vec<SourceId> = ds.sources().collect();
        // Build incrementally: start from the first 6 labelled triples,
        // push the rest as rows, then patch one row.
        let keep: std::collections::HashSet<TripleId> = (0..6u32).map(TripleId).collect();
        let partial = gold.restricted_to(&keep);
        let mut inc = EmpiricalJoint::new(&ds, &partial, members.clone(), 0.5).unwrap();
        assert_eq!(inc.n_rows(), 6);
        // Warm a cache entry, then mutate rows — values must track.
        let probe = set(&[1, 4, 5]);
        let _ = inc.joint_recall(probe);
        for t in (6..10u32).map(TripleId) {
            let (prov, scope) = inc.project_pattern(&ds, t);
            inc.push_row(prov, scope, gold.get(t).unwrap());
        }
        let full = EmpiricalJoint::new(&ds, gold, members, 0.5).unwrap();
        for mask in 0..32u64 {
            let s = SourceSet(mask);
            assert_eq!(inc.joint_recall(s), full.joint_recall(s), "r mask {mask:b}");
            assert_eq!(inc.joint_fpr(s), full.joint_fpr(s), "q mask {mask:b}");
        }
        // set_row keeps the cache warm whether or not the row changed...
        let row = inc.row(0);
        let before = inc.cache_stats();
        inc.set_row(0, row.0, row.1, row.2).unwrap();
        let _ = inc.joint_recall(probe);
        assert_eq!(inc.cache_stats().hits, before.hits + 1);
        // ...and a real change delta-updates the estimate in place: the
        // re-query is another hit, with the shifted value.
        let r_before = inc.joint_recall(probe);
        let hits_before = inc.cache_stats().hits;
        inc.set_row(0, 0, row.1, row.2).unwrap(); // t1 loses all providers
        assert!(inc.joint_recall(probe) < r_before);
        assert_eq!(inc.cache_stats().hits, hits_before + 1);
        assert!(inc.set_row(99, 0, 0, true).is_err());
    }

    /// The incremental-maintenance trust anchor: under random streams of
    /// `push_row` / `set_row` / `set_alpha` with interleaved (cache-
    /// warming) queries, every memoised subset's counts stay equal to the
    /// exact full-rescan fallback, and both derived rates stay bitwise
    /// equal to the count formulas applied to those rescanned counts.
    #[test]
    fn delta_maintenance_matches_rescan_on_random_row_streams() {
        use crate::testkit::run_cases;
        run_cases("joint_delta_vs_rescan", 16, |g| {
            let n_members = g.usize_in(1, 6);
            let n_masks = 1u64 << n_members;
            let mut b = DatasetBuilder::new();
            let sources: Vec<_> = (0..n_members).map(|i| b.source(format!("S{i}"))).collect();
            let t = b.triple("seed", "p", "v");
            b.observe(sources[0], t);
            b.label(t, g.bool(0.5));
            let ds = b.build().unwrap();
            let members: Vec<SourceId> = ds.sources().collect();
            let mut alpha = 0.5;
            let mut joint = EmpiricalJoint::new(&ds, ds.gold().unwrap(), members, alpha).unwrap();
            // Half the cases run under a tight memo bound: eviction must
            // be invisible to every value below (evicted subsets rescan).
            if g.bool(0.5) {
                joint.set_memo_capacity(Some(g.usize_in(1, 8)));
            }
            let random_row = |g: &mut crate::testkit::Gen| {
                let scope = g.u64_below(n_masks);
                // Providers are a subset of the scope, like real rows.
                (g.u64_below(n_masks) & scope, scope, g.bool(0.5))
            };
            for step in 0..24 {
                // Warm a random slice of the subset lattice before
                // mutating, so deltas hit a partially-warm memo.
                for _ in 0..g.usize_in(0, 4) {
                    let m = SourceSet(g.u64_below(n_masks));
                    let _ = joint.joint_recall(m);
                    let _ = joint.joint_fpr(m);
                }
                match g.usize_in(0, 4) {
                    0 if step > 0 => {
                        let idx = g.usize_in(0, joint.n_rows());
                        let (p, s, tr) = random_row(g);
                        joint.set_row(idx, p, s, tr).unwrap();
                    }
                    1 => {
                        alpha = g.f64_in(0.05, 0.95);
                        joint.set_alpha(alpha).unwrap();
                    }
                    _ => {
                        let (p, s, tr) = random_row(g);
                        joint.push_row(p, s, tr);
                    }
                }
                for mask in 0..n_masks {
                    let set = SourceSet(mask);
                    let scanned = joint.scan_counts(set);
                    assert_eq!(joint.counts(set), scanned, "mask {mask:b}");
                    if set.is_empty() {
                        continue;
                    }
                    let want_r = if scanned.n_true == 0 {
                        0.0
                    } else {
                        scanned.tp as f64 / scanned.n_true as f64
                    };
                    let want_q = if scanned.n_true == 0 {
                        0.0
                    } else {
                        (alpha / (1.0 - alpha) * scanned.fp as f64 / scanned.n_true as f64).min(1.0)
                    };
                    assert_eq!(joint.joint_recall(set).to_bits(), want_r.to_bits());
                    assert_eq!(joint.joint_fpr(set).to_bits(), want_q.to_bits());
                }
            }
            // The whole stream was absorbed without a single invalidation:
            // rescans only ever came from first-touch memo misses.
            assert_eq!(joint.delta_stats().invalidations, 0);
        });
    }

    #[test]
    fn set_alpha_scales_fpr_only() {
        let mut j = fig1_joint();
        let s = set(&[2, 3]);
        let r = j.joint_recall(s);
        let q_half = j.joint_fpr(s);
        j.set_alpha(0.25).unwrap();
        assert_eq!(j.joint_recall(s), r);
        // q = alpha/(1-alpha) * FP/N_true: 0.25 -> one third of the 0.5 value.
        assert!((j.joint_fpr(s) - q_half / 3.0).abs() < 1e-12);
        assert!(j.set_alpha(1.5).is_err());
    }

    #[test]
    fn member_position_lookup() {
        let j = fig1_joint();
        assert_eq!(j.member_position(SourceId(3)), Some(3));
        assert_eq!(j.member_position(SourceId(9)), None);
    }

    #[test]
    fn no_support_subset_has_zero_joint_recall() {
        let j = fig1_joint();
        // No triple is provided by all five sources in Figure 1.
        assert_eq!(j.joint_recall(SourceSet::full(5)), 0.0);
        assert_eq!(j.joint_fpr(SourceSet::full(5)), 0.0);
        assert_eq!(j.joint_precision(SourceSet::full(5)), None);
    }
}

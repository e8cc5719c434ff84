//! Exact correlated fusion (§4.1, Theorem 4.2).
//!
//! With correlations, the likelihoods are inclusion–exclusion sums over the
//! subsets of the non-providing sources:
//!
//! ```text
//! Pr(O_t | t)  = sum_{S* ⊆ S_t̄} (-1)^|S*|  r_{S_t ∪ S*}
//! Pr(O_t | ¬t) = sum_{S* ⊆ S_t̄} (-1)^|S*|  q_{S_t ∪ S*}
//! ```
//!
//! and `mu = Pr(O_t | t) / Pr(O_t | ¬t)`. The term count is `2^|S_t̄|`, so
//! the solver refuses complements beyond a configurable width (the
//! [`crate::fuser::Fuser`] keeps clusters small instead; see
//! [`crate::elastic`] for the polynomial alternative).

use crate::error::{FusionError, Result};
use crate::joint::{JointQuality, SourceSet};
use crate::prob::KahanSum;
use crate::subset::submasks;

/// Default cap on `|S_t̄|` for exact computation (2^25 ≈ 33M terms).
pub const DEFAULT_MAX_COMPLEMENT: usize = 25;

/// The pair `(Pr(O_t | t), Pr(O_t | ¬t))` produced by a correlated solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Likelihoods {
    /// `Pr(O_t | t)` — numerator `R`.
    pub r: f64,
    /// `Pr(O_t | ¬t)` — denominator `Q`.
    pub q: f64,
}

impl Likelihoods {
    /// The likelihood ratio `mu = R / Q`, with the conventions used across
    /// the crate: a non-positive numerator means the observation pattern is
    /// impossible for a true triple (`mu = 0`); a positive numerator with a
    /// non-positive denominator means impossible for a false triple
    /// (`mu = +inf`).
    ///
    /// Tiny negative values from floating-point cancellation are treated as
    /// zero.
    pub fn mu(self) -> f64 {
        let r = if self.r > 1e-15 { self.r } else { 0.0 };
        let q = if self.q > 1e-15 { self.q } else { 0.0 };
        if r == 0.0 {
            0.0
        } else if q == 0.0 {
            f64::INFINITY
        } else {
            r / q
        }
    }
}

/// Exact solver over one cluster described by a [`JointQuality`].
#[derive(Debug, Clone)]
pub struct ExactSolver {
    max_complement: usize,
}

impl Default for ExactSolver {
    fn default() -> Self {
        ExactSolver {
            max_complement: DEFAULT_MAX_COMPLEMENT,
        }
    }
}

impl ExactSolver {
    /// Solver with the default complement cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solver with a custom cap on the number of non-providing sources.
    pub fn with_max_complement(max_complement: usize) -> Self {
        ExactSolver { max_complement }
    }

    /// Compute `(Pr(O_t|t), Pr(O_t|¬t))` for a triple provided by
    /// `providers`, where `active` is the set of cluster members in scope
    /// for the triple (`providers ⊆ active`).
    pub fn likelihoods<J: JointQuality + ?Sized>(
        &self,
        joint: &J,
        providers: SourceSet,
        active: SourceSet,
    ) -> Result<Likelihoods> {
        debug_assert!(providers.is_subset_of(active));
        let complement = active.minus(providers);
        if complement.count() > self.max_complement {
            return Err(FusionError::TooManySources {
                requested: complement.count(),
                max: self.max_complement,
            });
        }
        let mut r = KahanSum::new();
        let mut q = KahanSum::new();
        for sub in submasks(complement.0) {
            let sign = if (sub.count_ones() & 1) == 0 {
                1.0
            } else {
                -1.0
            };
            let (r_set, q_set) = joint.joint_rates(providers.union(SourceSet(sub)));
            r.add(sign * r_set);
            q.add(sign * q_set);
        }
        Ok(Likelihoods {
            r: r.value(),
            q: q.value(),
        })
    }

    /// The likelihood ratio `mu` (Theorem 4.2).
    pub fn mu<J: JointQuality + ?Sized>(
        &self,
        joint: &J,
        providers: SourceSet,
        active: SourceSet,
    ) -> Result<f64> {
        Ok(self.likelihoods(joint, providers, active)?.mu())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joint::{IndependentJoint, TableJoint};
    use crate::prob::posterior_from_mu;

    /// Example 4.4's given joint parameters over {S1..S5}.
    fn example_4_4_joint() -> TableJoint {
        let r = vec![2.0 / 3.0, 0.5, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0];
        let q = vec![0.5, 2.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0];
        let mut j = TableJoint::new(r, q).unwrap();
        let s1245 = SourceSet::full(5).without(2);
        j.set_recall(s1245, 0.22);
        j.set_fpr(s1245, 0.22);
        j.set_recall(SourceSet::full(5), 0.11);
        j.set_fpr(SourceSet::full(5), 0.037);
        j
    }

    #[test]
    fn example_4_4_exact_probability_of_t8() {
        // t8 provided by {S1,S2,S4,S5}; S3 does not provide it.
        let joint = example_4_4_joint();
        let providers = SourceSet::full(5).without(2);
        let active = SourceSet::full(5);
        let solver = ExactSolver::new();
        let lk = solver.likelihoods(&joint, providers, active).unwrap();
        // Pr(O|t8) = r_1245 - r_12345 = 0.22 - 0.11 = 0.11
        assert!((lk.r - 0.11).abs() < 1e-12, "R={}", lk.r);
        // Pr(O|¬t8) = q_1245 - q_12345 = 0.22 - 0.037 = 0.183
        assert!((lk.q - 0.183).abs() < 1e-12, "Q={}", lk.q);
        let p = posterior_from_mu(lk.mu(), 0.5);
        // Paper rounds to 0.37.
        assert!((p - 0.11 / (0.11 + 0.183)).abs() < 1e-12);
        assert!((p - 0.37).abs() < 0.01, "Pr(t8)={p}");
        assert!(p < 0.5, "correlations correctly reject t8");
    }

    #[test]
    fn corollary_4_3_exact_equals_independent() {
        // With independent sources Theorem 4.2 degenerates to Theorem 3.1.
        let recalls = vec![0.7, 0.5, 0.3, 0.9];
        let fprs = vec![0.2, 0.1, 0.25, 0.4];
        let joint = IndependentJoint::new(recalls.clone(), fprs.clone()).unwrap();
        let solver = ExactSolver::new();
        let active = SourceSet::full(4);
        for mask in 0..16u64 {
            let providers = SourceSet(mask);
            let mu_exact = solver.mu(&joint, providers, active).unwrap();
            // Theorem 3.1 product form.
            let mut mu_indep = 1.0;
            for k in 0..4 {
                mu_indep *= if providers.contains(k) {
                    recalls[k] / fprs[k]
                } else {
                    (1.0 - recalls[k]) / (1.0 - fprs[k])
                };
            }
            assert!(
                (mu_exact - mu_indep).abs() < 1e-9 * mu_indep.max(1.0),
                "mask={mask:b}: exact {mu_exact} vs indep {mu_indep}"
            );
        }
    }

    #[test]
    fn scenario_1_replicated_sources_do_not_inflate() {
        // §4 Scenario 1: n replicas of one source. Joint recall of any
        // subset is r, joint fpr is q, so mu = r/q, same as one source.
        #[derive(Debug)]
        struct Replicas {
            n: usize,
            r: f64,
            q: f64,
        }
        impl JointQuality for Replicas {
            fn n_members(&self) -> usize {
                self.n
            }
            fn joint_recall(&self, set: SourceSet) -> f64 {
                if set.is_empty() {
                    1.0
                } else {
                    self.r
                }
            }
            fn joint_fpr(&self, set: SourceSet) -> f64 {
                if set.is_empty() {
                    1.0
                } else {
                    self.q
                }
            }
        }
        let joint = Replicas {
            n: 6,
            r: 0.6,
            q: 0.2,
        };
        let solver = ExactSolver::new();
        let active = SourceSet::full(6);
        // All replicas provide t: complement empty, mu = r/q = 3.
        let mu_all = solver.mu(&joint, active, active).unwrap();
        assert!((mu_all - 3.0).abs() < 1e-12);
        // Independent treatment would give (r/q)^6 = 729 — hugely inflated.
        let indep = IndependentJoint::new(vec![0.6; 6], vec![0.2; 6]).unwrap();
        let mu_indep = solver.mu(&indep, active, active).unwrap();
        assert!(mu_indep > 700.0);
    }

    #[test]
    fn scenario_4_complementary_sources_trust_single_provider() {
        // §4 Scenario 4 (second part): with perfectly complementary
        // sources, a triple provided by exactly one source has
        // mu = r/q (not penalised by the n-1 non-providers).
        #[derive(Debug)]
        struct Complementary {
            n: usize,
            r: f64,
            q: f64,
        }
        impl JointQuality for Complementary {
            fn n_members(&self) -> usize {
                self.n
            }
            fn joint_recall(&self, set: SourceSet) -> f64 {
                match set.count() {
                    0 => 1.0,
                    1 => self.r,
                    _ => 0.0, // no overlap at all
                }
            }
            fn joint_fpr(&self, set: SourceSet) -> f64 {
                match set.count() {
                    0 => 1.0,
                    1 => self.q,
                    _ => 0.0,
                }
            }
        }
        let (r, q) = (0.3, 0.05);
        let joint = Complementary { n: 4, r, q };
        let solver = ExactSolver::new();
        let active = SourceSet::full(4);
        let providers = SourceSet::singleton(0);
        let mu_corr = solver.mu(&joint, providers, active).unwrap();
        // Exact: R = r - 3*0 + ... = r (all joint terms vanish), minus the
        // empty... R = sum over subsets of {1,2,3}: r_{0}∪sub. Only sub = ∅
        // survives: R = r. Same for Q.
        assert!((mu_corr - r / q).abs() < 1e-9, "mu={mu_corr}");
        // Independent model penalises the three non-providers.
        let indep = IndependentJoint::new(vec![r; 4], vec![q; 4]).unwrap();
        let mu_indep = solver.mu(&indep, providers, active).unwrap();
        assert!(
            mu_indep < mu_corr,
            "independence must under-score: {mu_indep} vs {mu_corr}"
        );
    }

    #[test]
    fn complement_cap_is_enforced() {
        let joint = IndependentJoint::new(vec![0.5; 30], vec![0.1; 30]).unwrap();
        let solver = ExactSolver::with_max_complement(10);
        let err = solver.mu(&joint, SourceSet::EMPTY, SourceSet::full(30));
        assert!(matches!(err, Err(FusionError::TooManySources { .. })));
        // Within the cap it works.
        let providers = SourceSet::full(25); // complement 5
        assert!(solver.mu(&joint, providers, SourceSet::full(30)).is_ok());
    }

    #[test]
    fn mu_conventions_on_degenerate_likelihoods() {
        assert_eq!(Likelihoods { r: 0.0, q: 0.5 }.mu(), 0.0);
        assert_eq!(Likelihoods { r: -1e-20, q: 0.5 }.mu(), 0.0);
        assert_eq!(Likelihoods { r: 0.3, q: 0.0 }.mu(), f64::INFINITY);
        assert_eq!(Likelihoods { r: 0.0, q: 0.0 }.mu(), 0.0);
        assert!((Likelihoods { r: 0.2, q: 0.4 }.mu() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_active_set_gives_uninformative_mu() {
        let joint = IndependentJoint::new(vec![0.5], vec![0.1]).unwrap();
        let solver = ExactSolver::new();
        // Triple outside every member's scope: R = Q = r_∅ = 1, mu = 1.
        let mu = solver
            .mu(&joint, SourceSet::EMPTY, SourceSet::EMPTY)
            .unwrap();
        assert!((mu - 1.0).abs() < 1e-12);
    }

    #[test]
    fn likelihoods_are_probabilities_for_consistent_joints() {
        // For a genuinely consistent joint model (independence), the
        // inclusion–exclusion sums are probabilities in [0, 1].
        let joint = IndependentJoint::new(vec![0.6, 0.2, 0.8], vec![0.3, 0.1, 0.5]).unwrap();
        let solver = ExactSolver::new();
        let active = SourceSet::full(3);
        for mask in 0..8u64 {
            let lk = solver.likelihoods(&joint, SourceSet(mask), active).unwrap();
            assert!((-1e-12..=1.0 + 1e-12).contains(&lk.r), "R={}", lk.r);
            assert!((-1e-12..=1.0 + 1e-12).contains(&lk.q), "Q={}", lk.q);
        }
    }
}

//! Elastic approximation (§4.3, Algorithm 1).
//!
//! Starts from the aggressive approximation with the *level-0 adjustment*
//! already applied — the degree-`|S_t|` coefficient uses the exact joint
//! rate of the providers:
//!
//! ```text
//! R = r_{S_t} * prod_{S_i in S_t̄} (1 - C⁺_i r_i)
//! Q = q_{S_t} * prod_{S_i in S_t̄} (1 - C⁻_i q_i)
//! ```
//!
//! then, for each level `l = 1..=lambda`, replaces the approximate
//! coefficient of every degree-`|S_t|+l` term with the exact joint rate:
//!
//! ```text
//! R += (-1)^l * ( r_{S_t ∪ S*}  -  r_{S_t} * prod_{S_i in S*} C⁺_i r_i )
//! ```
//!
//! over all `S* ⊆ S_t̄` with `|S*| = l` (and symmetrically for `Q`). At
//! `lambda = |S_t̄|` every coefficient is exact and the result equals
//! Theorem 4.2; cost is `O(n^lambda)` per triple (Proposition 4.11).

use crate::exact::Likelihoods;
use crate::joint::{JointQuality, PerSourceCorrelation, SourceSet};
use crate::prob::KahanSum;
use crate::subset::submasks_of_size;

/// Elastic solver for one cluster: per-source correlation parameters plus
/// the adjustment level `lambda`.
#[derive(Debug, Clone)]
pub struct ElasticSolver {
    /// Effective recalls `C⁺_k r_k`.
    cr: Vec<f64>,
    /// Effective false-positive rates `C⁻_k q_k`.
    cq: Vec<f64>,
    /// Adjustment level `lambda >= 0` (0 = aggressive + level-0 adjustment).
    level: usize,
}

impl ElasticSolver {
    /// Derive correlation parameters from `joint` over `cluster`.
    pub fn new<J: JointQuality + ?Sized>(joint: &J, cluster: SourceSet, level: usize) -> Self {
        let corr = PerSourceCorrelation::compute(joint, cluster);
        ElasticSolver {
            cr: corr.cr,
            cq: corr.cq,
            level,
        }
    }

    /// Build from explicit effective rates (tests / worked examples).
    pub fn from_effective_rates(cr: Vec<f64>, cq: Vec<f64>, level: usize) -> Self {
        assert_eq!(cr.len(), cq.len());
        ElasticSolver { cr, cq, level }
    }

    /// The configured level `lambda`.
    pub fn level(&self) -> usize {
        self.level
    }

    /// `(R, Q)` per Algorithm 1 for a triple provided by `providers`, with
    /// `active` cluster members in scope.
    pub fn likelihoods<J: JointQuality + ?Sized>(
        &self,
        joint: &J,
        providers: SourceSet,
        active: SourceSet,
    ) -> Likelihoods {
        debug_assert!(providers.is_subset_of(active));
        let complement = active.minus(providers);

        // Lines 1–2: level-0 base.
        let (r_st, q_st) = joint.joint_rates(providers);
        let mut r_base = r_st;
        let mut q_base = q_st;
        for k in complement.iter() {
            r_base *= 1.0 - self.cr[k];
            q_base *= 1.0 - self.cq[k];
        }
        let mut r = KahanSum::new();
        let mut q = KahanSum::new();
        r.add(r_base);
        q.add(q_base);

        // Lines 3–7: per-level corrections.
        let max_level = self.level.min(complement.count());
        for l in 1..=max_level {
            let sign = if l % 2 == 0 { 1.0 } else { -1.0 };
            for sub in submasks_of_size(complement.0, l) {
                let sub = SourceSet(sub);
                let mut approx_r = r_st;
                let mut approx_q = q_st;
                for k in sub.iter() {
                    approx_r *= self.cr[k];
                    approx_q *= self.cq[k];
                }
                let (r_set, q_set) = joint.joint_rates(providers.union(sub));
                r.add(sign * (r_set - approx_r));
                q.add(sign * (q_set - approx_q));
            }
        }
        Likelihoods {
            r: r.value(),
            q: q.value(),
        }
    }

    /// Likelihood ratio `mu` at this solver's level.
    pub fn mu<J: JointQuality + ?Sized>(
        &self,
        joint: &J,
        providers: SourceSet,
        active: SourceSet,
    ) -> f64 {
        let lk = self.likelihoods(joint, providers, active);
        if lk.q.abs() < 1e-300 {
            if lk.r > 0.0 {
                return f64::INFINITY;
            }
            return 0.0;
        }
        let mu = lk.r / lk.q;
        if mu.is_nan() {
            0.0
        } else {
            mu
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactSolver;
    use crate::joint::{IndependentJoint, TableJoint};

    /// Example 4.10: the paper's given joint parameters for t8.
    fn example_joint() -> TableJoint {
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

    /// Figure 3 effective rates (C⁺_i r_i, C⁻_i q_i).
    fn figure3_rates() -> (Vec<f64>, Vec<f64>) {
        let r = [2.0 / 3.0, 0.5, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0];
        let q = [0.5, 2.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0];
        let cplus = [1.0, 1.0, 0.75, 1.5, 1.5];
        let cminus = [2.0, 1.0, 1.0, 3.0, 3.0];
        (
            r.iter().zip(&cplus).map(|(a, b)| a * b).collect(),
            q.iter().zip(&cminus).map(|(a, b)| a * b).collect(),
        )
    }

    #[test]
    fn example_4_10_level_0_mu() {
        // Level-0: mu = (0.22/0.22) * (1 - 0.75*0.67)/(1 - 0.167) = 0.6.
        let joint = example_joint();
        let (cr, cq) = figure3_rates();
        let solver = ElasticSolver::from_effective_rates(cr, cq, 0);
        let providers = SourceSet::full(5).without(2);
        let mu = solver.mu(&joint, providers, SourceSet::full(5));
        assert!((mu - 0.6).abs() < 0.01, "mu={mu}");
    }

    #[test]
    fn example_4_10_level_1_matches_exact() {
        // Level-1 covers the whole complement (|S_t̄| = 1): equals exact.
        let joint = example_joint();
        let (cr, cq) = figure3_rates();
        let solver = ElasticSolver::from_effective_rates(cr, cq, 1);
        let providers = SourceSet::full(5).without(2);
        let mu1 = solver.mu(&joint, providers, SourceSet::full(5));
        let exact = ExactSolver::new()
            .mu(&joint, providers, SourceSet::full(5))
            .unwrap();
        assert!((mu1 - exact).abs() < 1e-9, "{mu1} vs {exact}");
        // Paper: ~0.59 with their rounding; exact arithmetic ~0.601.
        assert!((mu1 - 0.6).abs() < 0.02, "mu={mu1}");
    }

    #[test]
    fn elastic_at_full_level_equals_exact_for_any_joint() {
        // Construct a correlated joint over 5 sources (mixture copula) and
        // check level = |complement| reproduces Theorem 4.2 exactly.
        #[derive(Debug)]
        struct Mixture;
        impl JointQuality for Mixture {
            fn n_members(&self) -> usize {
                5
            }
            fn joint_recall(&self, set: SourceSet) -> f64 {
                // 0.5 * prod(hi) + 0.5 * prod(lo): a valid exchangeable joint.
                if set.is_empty() {
                    return 1.0;
                }
                let k = set.count() as i32;
                0.5 * 0.9f64.powi(k) + 0.5 * 0.2f64.powi(k)
            }
            fn joint_fpr(&self, set: SourceSet) -> f64 {
                if set.is_empty() {
                    return 1.0;
                }
                let k = set.count() as i32;
                0.5 * 0.4f64.powi(k) + 0.5 * 0.05f64.powi(k)
            }
        }
        let joint = Mixture;
        let exact = ExactSolver::new();
        let active = SourceSet::full(5);
        for mask in 0..32u64 {
            let providers = SourceSet(mask);
            let lam = active.minus(providers).count();
            let solver = ElasticSolver::new(&joint, active, lam);
            let mu_elastic = solver.mu(&joint, providers, active);
            let mu_exact = exact.mu(&joint, providers, active).unwrap();
            let tol = 1e-9 * mu_exact.abs().max(1.0);
            assert!(
                (mu_elastic - mu_exact).abs() < tol,
                "mask={mask:b}: elastic {mu_elastic} vs exact {mu_exact}"
            );
        }
    }

    #[test]
    fn elastic_level_zero_equals_aggressive_with_level0_adjustment() {
        // For independent joints, every level gives the same answer as the
        // independent product (Corollary 4.6 extends to elastic).
        let recalls = vec![0.7, 0.5, 0.3, 0.6];
        let fprs = vec![0.2, 0.1, 0.25, 0.15];
        let joint = IndependentJoint::new(recalls.clone(), fprs.clone()).unwrap();
        let active = SourceSet::full(4);
        for level in 0..=4 {
            let solver = ElasticSolver::new(&joint, active, level);
            for mask in 0..16u64 {
                let providers = SourceSet(mask);
                let mu = solver.mu(&joint, providers, active);
                let mut expected = 1.0;
                for k in 0..4 {
                    expected *= if providers.contains(k) {
                        recalls[k] / fprs[k]
                    } else {
                        (1.0 - recalls[k]) / (1.0 - fprs[k])
                    };
                }
                assert!(
                    (mu - expected).abs() < 1e-9,
                    "level={level} mask={mask:b}: {mu} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn levels_converge_towards_exact() {
        // Monotone convergence is not guaranteed (the paper notes level-2
        // can be worse than level-1 on ReVerb), but the final level is
        // exact and intermediate levels should be finite.
        #[derive(Debug)]
        struct Corr;
        impl JointQuality for Corr {
            fn n_members(&self) -> usize {
                6
            }
            fn joint_recall(&self, set: SourceSet) -> f64 {
                if set.is_empty() {
                    return 1.0;
                }
                let k = set.count() as i32;
                0.7 * 0.8f64.powi(k) + 0.3 * 0.1f64.powi(k)
            }
            fn joint_fpr(&self, set: SourceSet) -> f64 {
                if set.is_empty() {
                    return 1.0;
                }
                let k = set.count() as i32;
                0.2 * 0.6f64.powi(k) + 0.8 * 0.02f64.powi(k)
            }
        }
        let joint = Corr;
        let active = SourceSet::full(6);
        let providers = SourceSet(0b000011);
        let exact = ExactSolver::new().mu(&joint, providers, active).unwrap();
        let mut gaps = Vec::new();
        for level in 0..=4 {
            let solver = ElasticSolver::new(&joint, active, level);
            let mu = solver.mu(&joint, providers, active);
            assert!(mu.is_finite());
            gaps.push((mu - exact).abs());
        }
        // Final level gap is (near) zero.
        assert!(gaps[4] < 1e-9, "gaps={gaps:?}");
        // And it's the smallest gap observed.
        assert!(gaps[4] <= gaps[0] + 1e-12);
    }

    #[test]
    fn level_beyond_complement_is_saturating() {
        let joint = IndependentJoint::new(vec![0.5, 0.6], vec![0.1, 0.2]).unwrap();
        let active = SourceSet::full(2);
        let providers = SourceSet::singleton(0);
        let at2 = ElasticSolver::new(&joint, active, 2).mu(&joint, providers, active);
        let at9 = ElasticSolver::new(&joint, active, 9).mu(&joint, providers, active);
        assert_eq!(at2, at9);
    }

    #[test]
    fn degenerate_zero_denominator() {
        let joint = IndependentJoint::new(vec![0.5], vec![0.0]).unwrap();
        let solver = ElasticSolver::new(&joint, SourceSet::full(1), 0);
        let mu = solver.mu(&joint, SourceSet::singleton(0), SourceSet::full(1));
        assert_eq!(mu, f64::INFINITY);
    }
}

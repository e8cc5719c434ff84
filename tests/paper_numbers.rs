//! End-to-end checks of every concrete number the paper derives from the
//! motivating example (Figure 1, Examples 2.2/2.3/3.3/4.4, §2.3).

use corrfuse::core::fuser::{Fuser, FuserConfig, Method};
use corrfuse::core::joint::{EmpiricalJoint, JointQuality, SourceSet};
use corrfuse::core::quality::QualityEstimator;
use corrfuse::core::TripleId;
use corrfuse::eval::harness::{evaluate_method, MethodSpec};
use corrfuse::synth::motivating::figure1;

fn approx(actual: f64, expected: f64, tol: f64, what: &str) {
    assert!(
        (actual - expected).abs() < tol,
        "{what}: got {actual}, want {expected}"
    );
}

#[test]
fn example_2_2_source_quality() {
    let ds = figure1();
    let q = QualityEstimator::new()
        .estimate(&ds, ds.gold().unwrap())
        .unwrap();
    approx(q[0].precision, 4.0 / 7.0, 1e-12, "p1");
    approx(q[0].recall, 4.0 / 6.0, 1e-12, "r1");
}

#[test]
fn example_2_3_joint_quality() {
    let ds = figure1();
    let joint = EmpiricalJoint::new(&ds, ds.gold().unwrap(), ds.sources().collect(), 0.5).unwrap();
    // {S1,S4,S5}: joint precision 0.6, joint recall 0.5, independent
    // product would be 0.3 -> positive correlation.
    let s145 = SourceSet::EMPTY.with(0).with(3).with(4);
    approx(joint.joint_precision(s145).unwrap(), 0.6, 1e-12, "jp145");
    approx(joint.joint_recall(s145), 0.5, 1e-12, "jr145");
    let product = joint.member_recall(0) * joint.member_recall(3) * joint.member_recall(4);
    approx(product, 0.3, 0.01, "independent product");
    // {S1,S3}: joint precision 1, joint recall 0.33 < 0.45 product.
    let s13 = SourceSet::EMPTY.with(0).with(2);
    approx(joint.joint_precision(s13).unwrap(), 1.0, 1e-12, "jp13");
    approx(joint.joint_recall(s13), 1.0 / 3.0, 1e-12, "jr13");
}

#[test]
fn figure_1c_union_rows() {
    let ds = figure1();
    for (k, p, r, f1) in [
        (25.0, 0.56, 0.83, 0.67),
        (50.0, 0.71, 0.83, 0.77),
        (75.0, 0.60, 0.50, 0.55),
    ] {
        let rep = evaluate_method(&ds, &MethodSpec::Union(k)).unwrap();
        approx(rep.prf.precision, p, 0.01, "union precision");
        approx(rep.prf.recall, r, 0.01, "union recall");
        approx(rep.prf.f1, f1, 0.01, "union f1");
    }
}

#[test]
fn example_3_3_probabilities() {
    let ds = figure1();
    let fuser = Fuser::fit(&FuserConfig::new(Method::PrecRec), &ds, ds.gold().unwrap()).unwrap();
    approx(
        fuser.score_triple(&ds, TripleId(1)).unwrap(),
        0.09,
        0.01,
        "Pr(t2)",
    );
    approx(
        fuser.score_triple(&ds, TripleId(7)).unwrap(),
        0.62,
        0.01,
        "Pr(t8) under independence",
    );
}

#[test]
fn t8_under_the_correlated_model() {
    // Example 4.4 works t8 from hand-given joint rates (≈ 0.37). Fitted on
    // Figure 1's own labels, `Auto` puts all five sources in one cluster,
    // and the exact inclusion–exclusion over S3 gives exactly 1/3: t8 is
    // rejected where independence accepts it.
    let ds = figure1();
    let gold = ds.gold().unwrap();
    let exact = Fuser::fit(&FuserConfig::new(Method::Exact), &ds, gold).unwrap();
    let p = exact.score_triple(&ds, TripleId(7)).unwrap();
    assert_eq!(p.to_bits(), (1.0f64 / 3.0).to_bits(), "Pr(t8) = {p}");
    assert_eq!(p.to_bits(), 0x3fd5_5555_5555_5555);
    let precrec = Fuser::fit(&FuserConfig::new(Method::PrecRec), &ds, gold).unwrap();
    approx(
        precrec.score_triple(&ds, TripleId(7)).unwrap(),
        0.6154,
        1e-4,
        "Pr(t8) under independence",
    );
}

#[test]
fn section_2_3_overview_claims() {
    let ds = figure1();
    let precrec = evaluate_method(&ds, &MethodSpec::PrecRec).unwrap();
    approx(precrec.prf.precision, 0.75, 1e-9, "PrecRec precision");
    approx(precrec.prf.recall, 1.0, 1e-9, "PrecRec recall");
    approx(precrec.prf.f1, 0.857, 0.01, "PrecRec F1 (paper: .86)");

    let corr = evaluate_method(&ds, &MethodSpec::PrecRecCorr).unwrap();
    approx(corr.prf.precision, 1.0, 1e-9, "PrecRecCorr precision");
    approx(corr.prf.recall, 5.0 / 6.0, 1e-9, "PrecRecCorr recall");
    approx(corr.prf.f1, 0.909, 0.01, "PrecRecCorr F1 (paper: .91)");

    // "18% higher than Union-50": 0.91 / 0.77 = 1.18.
    let union50 = evaluate_method(&ds, &MethodSpec::Union(50.0)).unwrap();
    let ratio = corr.prf.f1 / union50.prf.f1;
    assert!(ratio > 1.15 && ratio < 1.22, "improvement ratio {ratio}");
}

#[test]
fn theorem_3_5_values_from_section_3() {
    // q1=0.5, q2=0.67, q3=0.167, q4=q5=0.33 at alpha 0.5.
    let ds = figure1();
    let q = QualityEstimator::new()
        .estimate(&ds, ds.gold().unwrap())
        .unwrap();
    let expected = [0.5, 0.667, 0.167, 0.333, 0.333];
    for (i, want) in expected.iter().enumerate() {
        let got = corrfuse::core::quality::derive_fpr(q[i].precision, q[i].recall, 0.5).unwrap();
        approx(got, *want, 0.001, "q_i");
    }
}

#[test]
fn all_elastic_levels_are_sane_on_figure1() {
    let ds = figure1();
    let exact = evaluate_method(&ds, &MethodSpec::PrecRecCorr).unwrap();
    for level in 0..=5 {
        let rep = evaluate_method(&ds, &MethodSpec::Elastic(level)).unwrap();
        assert!(rep.prf.f1.is_finite());
        if level >= 4 {
            approx(
                rep.prf.f1,
                exact.prf.f1,
                1e-9,
                "elastic == exact at full level",
            );
        }
    }
}

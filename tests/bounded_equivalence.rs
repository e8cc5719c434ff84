//! Bounded-resources equivalence: a session running with *both* new
//! capacity bounds engaged — a small subset-memo cap (evictions live)
//! and the sketch-admission tier on the lift graph — must stay bitwise
//! identical to the unbounded exact configuration over adversarial
//! label-churn streams. This is the trust anchor of the wide-world
//! machinery: eviction only re-routes queries through the existing
//! `scan_counts` rescan, and an unsaturated sketch admits exactly the
//! above-threshold pairs, so neither bound may move a score or a
//! cluster boundary.

use std::cell::RefCell;

use corrfuse::core::cluster::SketchParams;
use corrfuse::core::engine::ScoringEngine;
use corrfuse::core::fuser::{FuserConfig, Method};
use corrfuse::core::testkit::{run_cases, Gen};
use corrfuse::stream::StreamSession;
use corrfuse::synth::{label_churn_stream, ChurnSpec, GroupKind, GroupSpec, Polarity, SynthSpec};

fn random_churn_spec(g: &mut Gen, case_seed: u64) -> ChurnSpec {
    let n_sources = g.usize_in(8, 11);
    let mut base = SynthSpec::uniform(
        n_sources,
        g.f64_in(0.65, 0.9),
        g.f64_in(0.35, 0.6),
        g.usize_in(60, 140),
        0.5,
        case_seed,
    );
    // One five-source clique: a cluster that size memoises up to 2⁵
    // subset masks per joint, so a 1-entry-per-shard memo cap (16
    // shards) is guaranteed to evict — smaller cliques can fit their
    // whole mask range collision-free. A second group gives the churn a
    // boundary to push lifts across.
    base = base
        .with_group(GroupSpec {
            members: vec![0, 1, 2, 3, 4],
            polarity: Polarity::FalseTriples,
            kind: GroupKind::Positive {
                strength: g.f64_in(0.75, 0.95),
            },
        })
        .with_group(GroupSpec {
            members: vec![5, 6],
            polarity: Polarity::TrueTriples,
            kind: GroupKind::Positive {
                strength: g.f64_in(0.5, 0.9),
            },
        });
    ChurnSpec {
        base,
        n_batches: g.usize_in(4, 8),
        flips_per_batch: g.usize_in(2, 7),
        claim_fraction: g.f64_in(0.2, 0.9),
        seed: case_seed.wrapping_mul(53),
    }
}

#[test]
fn bounded_session_stays_bitwise_equal_to_unbounded() {
    let total_evictions: RefCell<u64> = RefCell::new(0);
    let total_pruned: RefCell<u64> = RefCell::new(0);
    run_cases("bounded_equivalence", 8, |g| {
        let case_seed = (g.usize_in(0, usize::MAX / 2)) as u64;
        let spec = random_churn_spec(g, case_seed);
        let method = match g.usize_in(0, 3) {
            0 => Method::Exact,
            1 => Method::Aggressive,
            _ => Method::Elastic(2),
        };
        let mut unbounded = FuserConfig::new(method);
        // Data-driven `Auto` clustering, so the lift graph (and hence
        // the sketch tier) carries every batch.
        unbounded.cluster.max_cluster_size = g.usize_in(5, 7);
        unbounded.cluster.min_support = g.usize_in(1, 4);
        let mut bounded = unbounded.clone();
        // Tiny memo cap (evictions certain once a few subsets go warm)
        // and a sketch whose samples never saturate at this world size
        // (<= 140 labelled triples per polarity), so admission decisions
        // are exact and the bitwise guarantee is unconditional.
        bounded.memo_capacity = Some(g.usize_in(1, 8));
        bounded.cluster.sketch = SketchParams {
            enabled: true,
            sample_size: 256,
            margin: 0.5,
        };
        let cap = bounded.memo_capacity.unwrap() as u64;
        let (seed, batches) = label_churn_stream(&spec).expect("churn generation succeeds");
        let mut capped = StreamSession::with_engine(bounded, seed.clone(), ScoringEngine::serial())
            .expect("bounded session fits");
        let mut free = StreamSession::with_engine(unbounded, seed, ScoringEngine::serial())
            .expect("unbounded session fits");
        for (i, batch) in batches.iter().enumerate() {
            let da = capped.ingest(batch).expect("bounded ingest");
            let db = free.ingest(batch).expect("unbounded ingest");
            assert_eq!(da.refit, db.refit, "batch {i}: refit levels diverged");
            assert_eq!(
                capped.fuser().clustering(),
                free.fuser().clustering(),
                "batch {i}: clustering diverged"
            );
            for (j, (a, b)) in capped.scores().iter().zip(free.scores()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "batch {i}, triple {j}: bounded {a} vs unbounded {b}"
                );
            }
            let stats = capped.joint_delta_stats();
            let memo_bound = cap * capped.fuser().n_cluster_units() as u64;
            assert!(
                stats.memo_entries <= memo_bound,
                "batch {i}: {} memo entries over the {memo_bound} bound",
                stats.memo_entries
            );
            *total_evictions.borrow_mut() += stats.memo_evictions;
        }
        *total_pruned.borrow_mut() += capped.lift_stats().pairs_sketch_pruned;
        // The unbounded side must never have engaged either bound.
        assert_eq!(free.joint_delta_stats().memo_evictions, 0);
        assert_eq!(free.lift_stats().pairs_sketch_pruned, 0);
    });
    // The suite must actually exercise both bounds, not just configure
    // them.
    assert!(
        *total_evictions.borrow() > 0,
        "no case ever evicted a memo entry"
    );
    assert!(
        *total_pruned.borrow() > 0,
        "no case ever sketch-pruned a pair"
    );
}

//! Joint-parameter estimation cost (DESIGN.md §6 ablation 3): cold
//! (uncached) vs warm (memoised) joint recall queries over the REVERB
//! replica, plus full-model fit cost.

use corrfuse_bench::harness::Criterion;
use corrfuse_bench::{criterion_group, criterion_main};
use corrfuse_core::joint::{EmpiricalJoint, JointQuality, SourceSet};

fn bench_joint(c: &mut Criterion) {
    let ds = corrfuse_bench::reverb().unwrap();
    let gold = ds.gold().unwrap().clone();
    let members: Vec<_> = ds.sources().collect();

    let mut group = c.benchmark_group("joint_quality");
    group.sample_size(20);
    group.bench_function("build", |b| {
        b.iter(|| EmpiricalJoint::new(&ds, &gold, members.clone(), 0.5).unwrap())
    });
    group.bench_function("cold_queries", |b| {
        b.iter(|| {
            // Fresh instance per iteration: every query scans the rows.
            let joint = EmpiricalJoint::new(&ds, &gold, members.clone(), 0.5).unwrap();
            let mut acc = 0.0;
            for mask in 1u64..64 {
                acc += joint.joint_recall(SourceSet(mask));
            }
            acc
        })
    });
    let mut warm = EmpiricalJoint::new(&ds, &gold, members.clone(), 0.5).unwrap();
    for mask in 1u64..64 {
        warm.joint_recall(SourceSet(mask));
    }
    // A `&mut` call folds the 63 subsets just filled into the memo's
    // lock-free warm table, the table every timed read below hits.
    warm.take_dirty();
    group.bench_function("warm_queries", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for mask in 1u64..64 {
                acc += warm.joint_recall(SourceSet(mask));
            }
            acc
        })
    });
    // The memo counts one hit or miss per read: the warm loop should be
    // all hits after its 63-query warm-up.
    let stats = warm.cache_stats();
    eprintln!(
        "  joint_quality/warm_queries: memo hit rate {:.2}% ({} hits / {} misses)",
        100.0 * stats.hit_rate(),
        stats.hits,
        stats.misses,
    );
    group.finish();
}

criterion_group!(benches, bench_joint);
criterion_main!(benches);

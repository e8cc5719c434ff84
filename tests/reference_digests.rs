//! Committed score digests: the from-scratch reference pinned in
//! absolute terms.
//!
//! Every equivalence suite is relative — incremental == from-scratch ==
//! routed == replicated == migrated == over the wire — so a change that
//! moves the reference and every derived path the same way passes them
//! all. This table pins the reference itself: for each world × method,
//! a 64-bit FNV-1a digest of the `to_bits()` of every triple's score
//! (little-endian, triple order), next to the bits of triple 0.
//!
//! Worlds: Figure 1, the REVERB/RESTAURANT/BOOK replicas at their quick
//! sizes, a 10²-source `wide_world` tier (16 triples per domain, so the
//! whole table costs about two seconds unoptimised), and the final
//! dataset of one tenant of a `multi_tenant_events` stream (the
//! ledger's generator). Methods: PrecRec, PrecRecCorr (exact),
//! aggressive, elastic levels 0 to 4, and the baselines UNION-K (its
//! scores, the provider fraction, are the same for every K), COSINE,
//! 2-ESTIMATES, 3-ESTIMATES and LTM.
//!
//! Scores pass through `f64::ln`/`exp` from the platform libm, so the
//! pin holds on Linux x86-64 with glibc, the CI platform; another libm
//! may move the last bits. A perf or simplicity change moves no digest
//! (`docs/INTERNALS.md`). On a mismatch the test prints the whole new
//! table, ready to paste, and the first mismatching row's old and new
//! triple-0 bits; a change that moves a digest names it and says why.

use corrfuse::core::dataset::Dataset;
use corrfuse::eval::harness::{run_method, MethodSpec};
use corrfuse::stream::replay::accumulate;
use corrfuse::synth::motivating::figure1;
use corrfuse::synth::multi_tenant::{multi_tenant_events, MultiTenantSpec};
use corrfuse::synth::wide_world::{wide_world, WideWorldSpec};

/// `(world, method, digest, bits of triple 0)`.
#[rustfmt::skip]
const REFERENCE: &[(&str, &str, u64, u64)] = &[
    ("figure1", "PrecRec", 0x69fb8baa6a386064, 0x3fe3b13b13b13b13),
    ("figure1", "PrecRecCorr", 0x9b42264cd7c3e88e, 0x3fd5555555555555),
    ("figure1", "PrecRecCorr-Aggr", 0xf14b84b8290b8965, 0x0000000000000000),
    ("figure1", "PrecRecCorr-Lvl0", 0x9bc46459c459cff1, 0x3fd5555555555555),
    ("figure1", "PrecRecCorr-Lvl1", 0xc2d9b2a91c6d63d8, 0x3fd5555555555555),
    ("figure1", "PrecRecCorr-Lvl2", 0x059a8e4e25cec12f, 0x3fd5555555555555),
    ("figure1", "PrecRecCorr-Lvl3", 0x30946cc2c1d4f7c5, 0x3fd5555555555555),
    ("figure1", "PrecRecCorr-Lvl4", 0x9b42264cd7c3e88e, 0x3fd5555555555555),
    ("figure1", "Union-50", 0x09b4061eeb66a1f5, 0x3fe999999999999a),
    ("figure1", "Cosine", 0x7a90277879a89db6, 0x3fe59cad211629d6),
    ("figure1", "2-Estimates", 0x9081f9f885eb999d, 0x3ff0000000000000),
    ("figure1", "3-Estimates", 0x9527f3d20754325b, 0x3ff0000000000000),
    ("figure1", "LTM", 0x941da7a61896e236, 0x3ff0000000000000),
    ("reverb", "PrecRec", 0xfcd61979dba72321, 0x3fe0ece16daabde3),
    ("reverb", "PrecRecCorr", 0x52d97aa04f4f2d0a, 0x3fccc398730e61c8),
    ("reverb", "PrecRecCorr-Aggr", 0x6ca8b4fa1e3473eb, 0x3fa485d0073e287b),
    ("reverb", "PrecRecCorr-Lvl0", 0x4b8e841d2f3b9ce8, 0x3f9f84d1bbcb24ab),
    ("reverb", "PrecRecCorr-Lvl1", 0xe8155659393626b2, 0x3feaebe32c5bd000),
    ("reverb", "PrecRecCorr-Lvl2", 0xa1f6ded00e9ba974, 0x0000000000000000),
    ("reverb", "PrecRecCorr-Lvl3", 0x8f9f1586f0a85747, 0x3fe45af3b03a2749),
    ("reverb", "PrecRecCorr-Lvl4", 0x54bbda1b1d3e942a, 0x3fb900e188ce4505),
    ("reverb", "Union-50", 0xdc55c3de7aec283c, 0x3fc5555555555555),
    ("reverb", "Cosine", 0xf1c35abca30c96bf, 0xbfd1a450a9bab8b3),
    ("reverb", "2-Estimates", 0x5e169cae2968723d, 0x3fd5b6f558689678),
    ("reverb", "3-Estimates", 0x3a1017297826c100, 0x3fb9baf4f6552762),
    ("reverb", "LTM", 0x4170aeda4888e4aa, 0x3ff0000000000000),
    ("restaurant", "PrecRec", 0xe6ad13518a143c06, 0x3fefffc82a399b7e),
    ("restaurant", "PrecRecCorr", 0xf81261be33edb93c, 0x3ff0000000000000),
    ("restaurant", "PrecRecCorr-Aggr", 0xcf4b17b5c518f90c, 0x0000000000000000),
    ("restaurant", "PrecRecCorr-Lvl0", 0x585a195828b280ca, 0x0000000000000000),
    ("restaurant", "PrecRecCorr-Lvl1", 0x91a0fd73eecf1040, 0x3ff0000000000000),
    ("restaurant", "PrecRecCorr-Lvl2", 0x64a928c36db53369, 0x3ff0000000000000),
    ("restaurant", "PrecRecCorr-Lvl3", 0x29fde623a8728d22, 0x3ff0000000000000),
    ("restaurant", "PrecRecCorr-Lvl4", 0x75df68479cc55d55, 0x3ff0000000000000),
    ("restaurant", "Union-50", 0x79154d791ac000d7, 0x3fe6db6db6db6db7),
    ("restaurant", "Cosine", 0xa4bba8640ab6b3d6, 0x3fd00d74fc3d5d21),
    ("restaurant", "2-Estimates", 0xf23a1495689996af, 0x3fe494ff5d9370eb),
    ("restaurant", "3-Estimates", 0xc234ff4b4cceea43, 0x3fe0149732d3b659),
    ("restaurant", "LTM", 0xe2ffd52b14d196f4, 0x3ff0000000000000),
    ("book", "PrecRec", 0x385aa8364ab7e699, 0x3feffffffffffff2),
    ("book", "PrecRecCorr", 0xb153ccbbc731e981, 0x3ff0000000000000),
    ("book", "PrecRecCorr-Aggr", 0xf51acad14bb40e12, 0x3ff0000000000000),
    ("book", "PrecRecCorr-Lvl0", 0x2f240f742d3389f5, 0x3ff0000000000000),
    ("book", "PrecRecCorr-Lvl1", 0xca6e3d5ba6877b1c, 0x3ff0000000000000),
    ("book", "PrecRecCorr-Lvl2", 0xe449f9f203fc50a9, 0x3ff0000000000000),
    ("book", "PrecRecCorr-Lvl3", 0x42f27aefddc8f1aa, 0x3ff0000000000000),
    ("book", "PrecRecCorr-Lvl4", 0x34b163a48c8a405d, 0x3ff0000000000000),
    ("book", "Union-50", 0x7b32ecc55872ed81, 0x3fe6276276276276),
    ("book", "Cosine", 0xbc20580880209845, 0x3fd401c7b555f756),
    ("book", "2-Estimates", 0x34413bf484f5fcfa, 0x3fe533c8b525815f),
    ("book", "3-Estimates", 0xe8d4bcbf1e499789, 0x3fe5cabc5c3a1d72),
    ("book", "LTM", 0x0e0873ec08ac9b3d, 0x3ff0000000000000),
    ("wide_world_100", "PrecRec", 0xf6977d1af10e9c92, 0x3febb9079a9d2605),
    ("wide_world_100", "PrecRecCorr", 0xeef6a3873411d6a0, 0x3febb9079a9d2605),
    ("wide_world_100", "PrecRecCorr-Aggr", 0x5e0c9469396c278b, 0x3febb9079a9d2605),
    ("wide_world_100", "PrecRecCorr-Lvl0", 0xdd4c006da61bf56f, 0x3febb9079a9d2605),
    ("wide_world_100", "PrecRecCorr-Lvl1", 0x3eee4a5adb5c9c21, 0x3febb9079a9d2605),
    ("wide_world_100", "PrecRecCorr-Lvl2", 0x30dc5d8640d22c08, 0x3febb9079a9d2605),
    ("wide_world_100", "PrecRecCorr-Lvl3", 0xafb29ef11a2979b9, 0x3febb9079a9d2605),
    ("wide_world_100", "PrecRecCorr-Lvl4", 0xeceeb1c7a77faaa7, 0x3febb9079a9d2605),
    ("wide_world_100", "Union-50", 0xe4382ae4b937886d, 0x3fe3333333333333),
    ("wide_world_100", "Cosine", 0x572d62ea746efafd, 0x3faae41fa6ca39be),
    ("wide_world_100", "2-Estimates", 0x4b5303d2e2858fd7, 0x3fdd90eab3d00eec),
    ("wide_world_100", "3-Estimates", 0x43e4ba3b4dfc34c0, 0x3fe1c6436f250951),
    ("wide_world_100", "LTM", 0xd96ed711e209036a, 0x3ff0000000000000),
    ("multi_tenant", "PrecRec", 0x4fd9757ec7fae99d, 0x3fdbbcf4326ed345),
    ("multi_tenant", "PrecRecCorr", 0x54bea4025a6010a8, 0x3fe0000000000001),
    ("multi_tenant", "PrecRecCorr-Aggr", 0xa5b38233449d75c0, 0x3fdecfb5c630ea96),
    ("multi_tenant", "PrecRecCorr-Lvl0", 0xe1ba5d6c71a0b061, 0x3fe7525fda46fab5),
    ("multi_tenant", "PrecRecCorr-Lvl1", 0x40d4f422b0edc5a5, 0x0000000000000000),
    ("multi_tenant", "PrecRecCorr-Lvl2", 0x640dc177b1e8fb6f, 0x3fe15dc50a9b0ce2),
    ("multi_tenant", "PrecRecCorr-Lvl3", 0x2ccb466022345f6e, 0x3fe0000000000002),
    ("multi_tenant", "PrecRecCorr-Lvl4", 0x2ccb466022345f6e, 0x3fe0000000000002),
    ("multi_tenant", "Union-50", 0xefc3b90cc1734f90, 0x3fd0000000000000),
    ("multi_tenant", "Cosine", 0xf80abd05ad471090, 0xbfd70b592832cbd0),
    ("multi_tenant", "2-Estimates", 0x0f604a9386af8c13, 0x3feef98142d3ac45),
    ("multi_tenant", "3-Estimates", 0x15315e4d189bb11c, 0x3fd006cf18bb71c5),
    ("multi_tenant", "LTM", 0x43f949d88821d87b, 0x3fef5c28f5c28f5c),
];

fn worlds() -> Vec<(&'static str, Dataset)> {
    let stream = multi_tenant_events(&MultiTenantSpec::new(3, 120, 7)).unwrap();
    let (tenant, seed) = &stream.seeds[0];
    let events: Vec<_> = stream.tenant_messages(*tenant).flatten().cloned().collect();
    vec![
        ("figure1", figure1()),
        ("reverb", corrfuse_bench::reverb().unwrap()),
        ("restaurant", corrfuse_bench::restaurant().unwrap()),
        ("book", corrfuse_bench::book_small().unwrap()),
        (
            "wide_world_100",
            wide_world(&WideWorldSpec::new(100).with_triples_per_domain(16)).unwrap(),
        ),
        ("multi_tenant", accumulate(seed, &events).unwrap()),
    ]
}

fn methods() -> Vec<MethodSpec> {
    let mut methods = vec![
        MethodSpec::PrecRec,
        MethodSpec::PrecRecCorr,
        MethodSpec::Aggressive,
    ];
    methods.extend((0..=4).map(MethodSpec::Elastic));
    methods.extend([
        MethodSpec::Union(50.0),
        MethodSpec::Cosine,
        MethodSpec::TwoEstimates,
        MethodSpec::ThreeEstimates,
        MethodSpec::ltm_default(),
    ]);
    methods
}

/// FNV-1a over the little-endian bytes of each score's bits.
fn digest(scores: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in scores {
        for b in s.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn score_digests_match_the_committed_table() {
    let mut table = Vec::new();
    for (world, ds) in worlds() {
        for method in methods() {
            let scores = run_method(&ds, &method).unwrap().scores;
            table.push((world, method.name(), digest(&scores), scores[0].to_bits()));
        }
    }
    let matches = table.len() == REFERENCE.len()
        && table
            .iter()
            .zip(REFERENCE)
            .all(|(new, old)| (new.0, new.1.as_str(), new.2, new.3) == *old);
    if matches {
        return;
    }
    eprintln!("const REFERENCE: &[(&str, &str, u64, u64)] = &[");
    for (world, method, d, bits) in &table {
        eprintln!("    ({world:?}, {method:?}, {d:#018x}, {bits:#018x}),");
    }
    eprintln!("];");
    let mismatch = table.iter().zip(REFERENCE).find(|(new, old)| {
        (new.0, new.1.as_str()) != (old.0, old.1) || new.2 != old.2 || new.3 != old.3
    });
    match mismatch {
        Some((new, old)) => panic!(
            "{} × {}: digest {:#018x} (was {:#018x}); triple 0 bits {:#018x} (was {:#018x})",
            new.0, new.1, new.2, old.2, new.3, old.3
        ),
        None => panic!(
            "the table has {} rows, the worlds × methods {}",
            REFERENCE.len(),
            table.len()
        ),
    }
}

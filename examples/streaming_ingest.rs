//! End-to-end streaming demo: seed a session with the paper's Figure 1
//! dataset, ingest three delta batches, and show which triples flipped
//! decision and why.
//!
//! Run with: `cargo run --example streaming_ingest`

use corrfuse::core::fuser::{FuserConfig, Method};
use corrfuse::core::{SourceId, TripleId};
use corrfuse::stream::{Event, RefitLevel, ScoredDelta, StreamSession};

fn describe(session: &StreamSession, tag: &str, delta: &ScoredDelta) {
    println!("\n== batch {tag} ==");
    let refit = match delta.refit {
        RefitLevel::None => "none (claims on unlabelled triples only)",
        RefitLevel::Model => "model (quality counts / joint rows refreshed from counters)",
        RefitLevel::Cluster => "cluster (lift graph re-partitioned; changed clusters refitted)",
        RefitLevel::Full => "full (source set changed: fresh fit)",
    };
    println!("refit level : {refit}");
    println!(
        "re-scored   : {} triple(s), patterns {} hit(s) / {} miss(es)",
        delta.rescored.len(),
        delta.cache.hits,
        delta.cache.misses
    );
    for st in &delta.rescored {
        if st.before.is_none() {
            let verdict = if st.after > session.threshold() {
                "accepted"
            } else {
                "rejected"
            };
            println!(
                "  new  {}  Pr = {:.3}  -> {verdict}",
                name(session, st.triple),
                st.after
            );
        }
    }
    if delta.flips.is_empty() {
        println!("flips       : none");
    } else {
        for st in &delta.flips {
            let dir = if st.after > session.threshold() {
                "REJECTED -> ACCEPTED"
            } else {
                "ACCEPTED -> REJECTED"
            };
            println!(
                "  flip {}  {:.3} -> {:.3}  {dir}",
                name(session, st.triple),
                st.before.unwrap(),
                st.after
            );
        }
    }
}

fn name(session: &StreamSession, t: TripleId) -> String {
    let triple = session.dataset().triple(t);
    format!("t{:<2} ({} = {})", t.0 + 1, triple.predicate, triple.object)
}

fn main() {
    // Seed: Figure 1 — five extractors, ten labelled triples about Obama.
    let seed = corrfuse::synth::motivating::figure1();
    let mut session = StreamSession::new(FuserConfig::new(Method::Exact), seed)
        .expect("figure 1 seeds a correlated session");
    println!("seed        : {}", session.dataset().stats());
    println!(
        "decisions   : {}",
        session
            .decisions()
            .iter()
            .map(|&d| if d { 'T' } else { 'F' })
            .collect::<String>()
    );

    // Batch 1 — fast path. Two new unlabelled triples stream in. t11 is
    // claimed by the correlated trio {S1,S4,S5}; t12 only by S2 (the
    // weakest source). Nothing about the model changes: exactly these two
    // triples are scored, everything else is untouched.
    let delta = session
        .ingest(&[
            Event::add_triple("Obama", "born in", "Hawaii"),
            Event::claim(SourceId(0), TripleId(10)),
            Event::claim(SourceId(3), TripleId(10)),
            Event::claim(SourceId(4), TripleId(10)),
            Event::add_triple("Obama", "born in", "Kenya"),
            Event::claim(SourceId(1), TripleId(11)),
        ])
        .expect("batch 1 ingests");
    describe(&session, "1: new claims (fast path)", &delta);

    // Batch 2 — curators label the new triples, and two more *true*
    // triples carried by the full {S1,S2,S4,S5} coalition stream in with
    // labels. That coalition's joint pattern was dominated by false
    // triples in the seed (t8/t9), which is why the exact solver rejected
    // t1. The new evidence rehabilitates the whole pattern: t1, t8 and t9
    // share the identical observation fingerprint, so all three flip
    // together — fusion can only tell patterns apart, and the delta
    // report shows exactly that. Labels shift per-source counts and
    // append joint rows, so the quality model is refreshed from
    // maintained counters and everything re-scores through the pattern
    // cache.
    let mut batch = vec![
        Event::label(TripleId(10), true),
        Event::label(TripleId(11), false),
    ];
    for (k, fact) in ["elected 2008", "senator Illinois"].iter().enumerate() {
        let t = TripleId(12 + k as u32);
        batch.push(Event::add_triple("Obama", "fact", *fact));
        for s in [0u32, 1, 3, 4] {
            batch.push(Event::claim(SourceId(s), t));
        }
        batch.push(Event::label(t, true));
    }
    let delta = session.ingest(&batch).expect("batch 2 ingests");
    describe(&session, "2: gold labels arrive (model refresh)", &delta);

    // Batch 3 — a brand-new extractor comes online and disputes t2
    // ("died 1982", a known-false triple S1+S2 share). A new source
    // changes model dimensionality, so the session falls back to one full
    // fit, after which the extractor participates incrementally.
    let delta = session
        .ingest(&[
            Event::add_source("S6-fresh-crawl"),
            Event::add_triple("Obama", "party", "Democratic"),
            Event::claim(SourceId(5), TripleId(14)),
            Event::claim(SourceId(5), TripleId(1)),
            Event::label(TripleId(14), true),
        ])
        .expect("batch 3 ingests");
    describe(&session, "3: new source joins (full refit)", &delta);

    println!(
        "\nfinal       : {} | pattern hit rate {:.0}%, joint-memo hit rate {:.0}%",
        session.dataset().stats(),
        100.0 * session.score_cache_stats().hit_rate(),
        100.0 * session.joint_cache_stats().hit_rate(),
    );
}

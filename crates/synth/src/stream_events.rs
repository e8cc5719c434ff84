//! Event-stream workloads for the streaming subsystem (`corrfuse-stream`).
//!
//! [`event_stream`] slices a generated world ([`crate::generator`]) into a
//! seed snapshot plus micro-batches of ingest events: the remaining
//! triples arrive as `AddTriple` + `Claim` groups in a shuffled order,
//! a configurable fraction of them receive (possibly deferred) `Label`
//! events, and brand-new sources can join mid-stream. Replaying all
//! batches accumulates exactly the triples of the generated world (plus
//! any live-source claims), which makes this the workload behind both the
//! incremental-vs-batch equivalence property test and the streaming
//! throughput bench.

use corrfuse_core::dataset::{Dataset, DatasetBuilder, SourceId};
use corrfuse_core::error::{FusionError, Result};
use corrfuse_core::rng::StdRng;
use corrfuse_core::triple::TripleId;
use corrfuse_stream::Event;

use crate::generator::{generate, SynthSpec};

/// Specification of a streamed workload.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// The world to generate and then stream.
    pub base: SynthSpec,
    /// Fraction of the world's triples in the seed snapshot (clamped so
    /// both sides are non-empty and the seed carries a true and a false
    /// label).
    pub seed_fraction: f64,
    /// Number of micro-batches the remaining triples are split into.
    pub n_batches: usize,
    /// Probability a streamed triple receives a `Label` event (in its own
    /// batch or deferred up to two batches later).
    pub label_fraction: f64,
    /// When `Some(k)`, every `k`-th batch opens with a brand-new source
    /// that claims each subsequent streamed triple with probability 0.4.
    pub add_source_every: Option<usize>,
    /// RNG seed for the stream's shuffling/assignment (independent of
    /// `base.seed`, which fixes the world itself).
    pub seed: u64,
}

impl StreamSpec {
    /// A small default workload over `base`: half the world seeds the
    /// session, the rest streams in `n_batches` batches, 30% labelled.
    pub fn new(base: SynthSpec, n_batches: usize, seed: u64) -> Self {
        StreamSpec {
            base,
            seed_fraction: 0.5,
            n_batches,
            label_fraction: 0.3,
            add_source_every: None,
            seed,
        }
    }
}

/// Generate the world and slice it into `(seed dataset, event batches)`.
pub fn event_stream(spec: &StreamSpec) -> Result<(Dataset, Vec<Vec<Event>>)> {
    if spec.n_batches == 0 {
        return Err(FusionError::DegenerateTraining("batches"));
    }
    crate::check_fraction("seed_fraction", spec.seed_fraction)?;
    if !(0.0..=1.0).contains(&spec.label_fraction) {
        return Err(FusionError::InvalidProbability {
            what: "label_fraction",
            value: spec.label_fraction,
        });
    }
    let full = generate(&spec.base)?;
    let gold = full.gold().expect("generator labels every triple");
    let n = full.n_triples();
    if n < 2 {
        return Err(FusionError::DegenerateTraining("triples"));
    }
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // Shuffled triple order; the seed takes a prefix. The generator lays
    // out true triples first, so without the shuffle a prefix seed would
    // be single-class.
    let mut order: Vec<TripleId> = full.triples().collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let n_seed = (((n as f64) * spec.seed_fraction).round() as usize).clamp(1, n - 1);
    // Force one true and one false label into the seed prefix.
    for want in [true, false] {
        if !order[..n_seed].iter().any(|&t| gold.get(t) == Some(want)) {
            let from = order[n_seed..]
                .iter()
                .position(|&t| gold.get(t) == Some(want))
                .expect("generator produces both classes");
            let swap_at = rng.gen_range(0..n_seed);
            order.swap(swap_at, n_seed + from);
        }
    }

    // Seed snapshot: every base source (so stream claims resolve by id),
    // the prefix triples with their claims and labels.
    let mut b = DatasetBuilder::new();
    for s in full.sources() {
        b.source(full.source_name(s));
    }
    for &t in &order[..n_seed] {
        let triple = full.triple(t);
        let id = b.triple(
            triple.subject.clone(),
            triple.predicate.clone(),
            triple.object.clone(),
        );
        b.set_domain(id, full.domain(t));
        for s in full.providers(t).iter_ones() {
            b.observe(SourceId(s as u32), id);
        }
        b.label(id, gold.get(t).expect("generator labels every triple"));
    }
    let seed_ds = b.build()?;

    // Stream batches. Session triple ids continue after the seed.
    let streamed = &order[n_seed..];
    let mut batches: Vec<Vec<Event>> = vec![Vec::new(); spec.n_batches];
    let mut deferred: Vec<(usize, Event)> = Vec::new();
    let mut live_sources: Vec<(usize, SourceId)> = Vec::new(); // (intro batch, id)
    if let Some(k) = spec.add_source_every {
        let k = k.max(1);
        let intro_batches = (0..spec.n_batches).step_by(k).skip(1);
        for (next_id, batch) in (full.n_sources() as u32..).zip(intro_batches) {
            batches[batch].push(Event::add_source(format!("live-S{next_id}")));
            live_sources.push((batch, SourceId(next_id)));
        }
    }
    for (j, &t) in streamed.iter().enumerate() {
        let batch = j * spec.n_batches / streamed.len();
        let session_id = TripleId((n_seed + j) as u32);
        let triple = full.triple(t);
        batches[batch].push(Event::AddTriple {
            triple: triple.clone(),
            domain: full.domain(t),
        });
        for s in full.providers(t).iter_ones() {
            batches[batch].push(Event::claim(SourceId(s as u32), session_id));
        }
        for &(intro, live) in &live_sources {
            if intro <= batch && rng.gen_bool(0.4) {
                batches[batch].push(Event::claim(live, session_id));
            }
        }
        if spec.label_fraction > 0.0 && rng.gen_bool(spec.label_fraction) {
            let delay = rng.gen_range(0..3);
            let at = (batch + delay).min(spec.n_batches - 1);
            deferred.push((
                at,
                Event::label(session_id, gold.get(t).expect("labelled world")),
            ));
        }
    }
    // Labels land at the end of their batch: always after the claims of
    // same-batch triples, trivially after earlier batches.
    for (at, ev) in deferred {
        batches[at].push(ev);
    }
    Ok((seed_ds, batches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfuse_core::engine::ScoringEngine;
    use corrfuse_core::fuser::{Fuser, FuserConfig, Method};
    use corrfuse_stream::{replay, StreamSession};

    fn spec() -> StreamSpec {
        StreamSpec {
            base: SynthSpec::uniform(4, 0.8, 0.5, 300, 0.5, 11),
            seed_fraction: 0.5,
            n_batches: 4,
            label_fraction: 0.4,
            add_source_every: Some(2),
            seed: 7,
        }
    }

    #[test]
    fn stream_accumulates_back_to_the_world() {
        let (seed, batches) = event_stream(&spec()).unwrap();
        assert_eq!(batches.len(), 4);
        let events: Vec<_> = batches.concat();
        let accumulated = replay::accumulate(&seed, &events).unwrap();
        let world = generate(&spec().base).unwrap();
        // Every world triple arrived exactly once.
        assert_eq!(accumulated.n_triples(), world.n_triples());
        // Live sources joined.
        assert!(accumulated.n_sources() > world.n_sources());
        // Seed carries both label classes.
        let g = seed.gold().unwrap();
        assert!(g.true_count() > 0 && g.false_count() > 0);
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let (_, a) = event_stream(&spec()).unwrap();
        let (_, b) = event_stream(&spec()).unwrap();
        assert_eq!(a, b);
        let mut other = spec();
        other.seed = 8;
        let (_, c) = event_stream(&other).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn session_over_stream_matches_batch_fit() {
        let (seed, batches) = event_stream(&spec()).unwrap();
        let config = FuserConfig::new(Method::Exact);
        let mut session =
            StreamSession::with_engine(config.clone(), seed.clone(), ScoringEngine::serial())
                .unwrap();
        for batch in &batches {
            session.ingest(batch).unwrap();
        }
        let accumulated = replay::accumulate(&seed, &batches.concat()).unwrap();
        let fresh = Fuser::fit(&config, &accumulated, accumulated.gold().unwrap()).unwrap();
        let scores = fresh.score_all(&accumulated).unwrap();
        for (a, b) in session.scores().iter().zip(&scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut s = spec();
        s.n_batches = 0;
        assert!(event_stream(&s).is_err());
        let mut s = spec();
        s.seed_fraction = 1.5;
        assert!(event_stream(&s).is_err());
        let mut s = spec();
        s.label_fraction = -0.1;
        assert!(event_stream(&s).is_err());
    }
}

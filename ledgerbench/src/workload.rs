//! The three workloads — one per operation class of the serving ledger:
//! ingest, read and label churn — generated from the run seed, and the
//! reference scores each one must reproduce over the wire.
//!
//! Tenants and their traffic come from
//! `corrfuse_synth::multi_tenant_events`: Zipf-sized tenants (skew 1)
//! whose messages arrive weighted by the work each tenant has left. The
//! ingest workload sends those messages; the reads and churn workloads
//! address their operations to tenants in the arrival order of such a
//! stream, so every operation class sees the same tenant mix.
//!
//! Every workload places one tenant on each of [`N_SHARDS`] shards
//! (static placement is `tenant % n_shards`), so a shard's model is the
//! model of exactly one tenant and the reference for a tenant is a
//! from-scratch `Fuser::fit` + `score_all` on that tenant's accumulated
//! dataset — computed here, independently of the serving stack.

use corrfuse_core::dataset::Dataset;
use corrfuse_core::fuser::{Fuser, FuserConfig, Method};
use corrfuse_serve::TenantId;
use corrfuse_stream::{replay, Event};
use corrfuse_synth::{
    label_churn_stream, multi_tenant_events, ChurnSpec, GroupKind, GroupSpec, MultiTenantSpec,
    MultiTenantStream, Polarity, SynthSpec,
};

/// Shards in the router, and tenants in every workload.
pub const N_SHARDS: usize = 4;

/// Independently generated scripts per run. Rounds cycle through them,
/// so one run averages over this many worlds rather than timing one.
pub const SCRIPTS: usize = 16;

/// Sources per tenant in the ingest and reads worlds.
const N_SOURCES: usize = 6;

/// World triples of the largest ingest tenant.
const INGEST_TRIPLES: usize = 800;

/// Messages (one INGEST each) of the largest ingest tenant.
const INGEST_BATCHES: usize = 32;

/// World triples of the largest reads tenant: large enough that a
/// SCORES reply is tens of kilobytes.
const READS_TRIPLES: usize = 12_000;

/// Arrivals (one SCORES request each) of the largest reads tenant.
const READS_ARRIVALS: usize = 120;

/// World triples of every churn tenant.
const CHURN_TRIPLES: usize = 320;

/// Arrivals (one churn commit each) of the largest churn tenant.
const CHURN_ARRIVALS: usize = 20;

/// The workloads the benchmark knows, by command-line name.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// The streamed messages of new triples, claims, labels and sources,
    /// each sent as one INGEST and made visible by a FLUSH: wire decode,
    /// shard queue, micro-batcher, model and full refits, rescore,
    /// journal and replication apply.
    Ingest,
    /// Label flips plus the odd new claim, one commit per arrival, over
    /// worlds whose clustering is data-driven: model and cluster refits
    /// and whole-tenant rescores behind tiny frames, replicated.
    Churn,
    /// SCORES round trips over the fully streamed tenants: wire encode
    /// and decode of large responses and the shard read path, no ingest.
    Reads,
}

impl Kind {
    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "ingest" => Some(Kind::Ingest),
            "churn" => Some(Kind::Churn),
            "reads" => Some(Kind::Reads),
            _ => None,
        }
    }

    /// Whether the workload writes, and so runs with a follower attached.
    pub fn replicated(self) -> bool {
        matches!(self, Kind::Ingest | Kind::Churn)
    }
}

/// One client operation; its latency is one sample.
pub enum Op {
    /// One INGEST, then FLUSH: done when the message is applied and
    /// visible to reads.
    Commit(TenantId, Vec<Event>),
    /// One SCORES request, checked bitwise against the reference.
    Read(TenantId),
}

/// The work of one round: what the router is seeded with, the
/// operations in order, and the scores every tenant must end up with.
pub struct Script {
    /// Seed dataset per tenant, tenant `i` at index `i`.
    pub seeds: Vec<(TenantId, Dataset)>,
    /// The operations of the round, in order.
    pub ops: Vec<Op>,
    /// Reference scores per tenant after the round's operations.
    pub expected: Vec<Vec<f64>>,
}

/// A generated workload: [`SCRIPTS`] independently generated scripts,
/// which consecutive rounds cycle through.
pub struct Workload {
    /// Which workload this is.
    pub kind: Kind,
    /// The fuser configuration every shard session runs with.
    pub config: FuserConfig,
    /// The scripts, one per round, cycled.
    pub scripts: Vec<Script>,
}

impl Workload {
    /// Generate the workload `kind` from `seed`.
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let config = match kind {
            Kind::Churn => {
                // A cap below the source count makes `Auto` clustering
                // data-driven, so flips that move pairwise lifts
                // re-partition the sources.
                let mut config = FuserConfig::new(Method::Exact);
                config.cluster.max_cluster_size = 3;
                config.cluster.min_support = 2;
                config
            }
            Kind::Ingest | Kind::Reads => FuserConfig::new(Method::Exact),
        };
        let scripts = (0..SCRIPTS as u64)
            .map(|i| {
                let seed = seed.wrapping_mul(SCRIPTS as u64).wrapping_add(i);
                match kind {
                    Kind::Ingest => ingest(&config, seed),
                    Kind::Churn => churn(&config, seed),
                    Kind::Reads => reads(&config, seed),
                }
            })
            .collect();
        Workload {
            kind,
            config,
            scripts,
        }
    }
}

/// The multi-tenant stream behind a workload: [`N_SHARDS`] Zipf-sized
/// tenants, `triples` and `batches` for the largest.
fn stream(triples: usize, n_sources: usize, batches: usize, seed: u64) -> MultiTenantStream {
    multi_tenant_events(&MultiTenantSpec {
        n_sources,
        batches_largest: batches,
        ..MultiTenantSpec::new(N_SHARDS, triples, seed)
    })
    .expect("multi-tenant stream generates")
}

/// The tenant of each message of a multi-tenant stream whose largest
/// tenant sends `largest` messages. Only the order is used: its world is
/// as small as the generator allows (40 triples for the smallest
/// tenant), and a world that sends many messages grows many sources.
fn arrivals(largest: usize, seed: u64) -> Vec<u32> {
    stream(40 * N_SHARDS, N_SOURCES, largest, seed)
        .messages
        .iter()
        .map(|(t, _)| *t)
        .collect()
}

/// Every event of `tenant`'s messages, in order.
fn tenant_events(stream: &MultiTenantStream, tenant: u32) -> Vec<Event> {
    stream.tenant_messages(tenant).flatten().cloned().collect()
}

fn ingest(config: &FuserConfig, seed: u64) -> Script {
    let stream = stream(INGEST_TRIPLES, N_SOURCES, INGEST_BATCHES, seed);
    let expected = stream
        .seeds
        .iter()
        .map(|(t, ds)| reference_scores(config, ds, &tenant_events(&stream, *t)))
        .collect();
    Script {
        seeds: stream
            .seeds
            .into_iter()
            .map(|(t, ds)| (TenantId(t), ds))
            .collect(),
        ops: stream
            .messages
            .into_iter()
            .map(|(t, events)| Op::Commit(TenantId(t), events))
            .collect(),
        expected,
    }
}

fn reads(config: &FuserConfig, seed: u64) -> Script {
    // Each tenant is seeded with its whole stream applied, in the
    // generator's default few messages.
    let stream = stream(
        READS_TRIPLES,
        N_SOURCES,
        MultiTenantSpec::new(N_SHARDS, READS_TRIPLES, seed).batches_largest,
        seed,
    );
    let seeds: Vec<(TenantId, Dataset)> = stream
        .seeds
        .iter()
        .map(|(t, ds)| {
            let full = replay::accumulate(ds, &tenant_events(&stream, *t))
                .expect("events replay onto their seed");
            (TenantId(*t), full)
        })
        .collect();
    let expected = seeds
        .iter()
        .map(|(_, ds)| reference_scores(config, ds, &[]))
        .collect();
    Script {
        seeds,
        ops: arrivals(READS_ARRIVALS, seed)
            .into_iter()
            .map(|t| Op::Read(TenantId(t)))
            .collect(),
        expected,
    }
}

fn churn(config: &FuserConfig, seed: u64) -> Script {
    let arrivals = arrivals(CHURN_ARRIVALS, seed);
    let mut seeds = Vec::with_capacity(N_SHARDS);
    let mut per_tenant: Vec<std::vec::IntoIter<Vec<Event>>> = Vec::with_capacity(N_SHARDS);
    let mut expected = Vec::with_capacity(N_SHARDS);
    for t in 0..N_SHARDS {
        // The world shape of the label-churn equivalence suite: two
        // correlation groups for the churn to push lifts across, the
        // other sources independent.
        let world_seed = seed.wrapping_mul(1_000_003).wrapping_add(t as u64);
        let base = SynthSpec::uniform(8, 0.8, 0.5, CHURN_TRIPLES, 0.5, world_seed)
            .with_group(GroupSpec {
                members: vec![0, 1],
                polarity: Polarity::FalseTriples,
                kind: GroupKind::Positive { strength: 0.85 },
            })
            .with_group(GroupSpec {
                members: vec![2, 3],
                polarity: Polarity::TrueTriples,
                kind: GroupKind::Positive { strength: 0.75 },
            });
        let n_batches = arrivals.iter().filter(|&&a| a == t as u32).count();
        let spec = ChurnSpec::new(base, n_batches, world_seed.rotate_left(29));
        let (world, batches) = label_churn_stream(&spec).expect("churn workload generates");
        expected.push(reference_scores(config, &world, &batches.concat()));
        seeds.push((TenantId(t as u32), world));
        per_tenant.push(batches.into_iter());
    }
    let ops = arrivals
        .iter()
        .map(|&t| {
            let batch = per_tenant[t as usize]
                .next()
                .expect("one churn batch per arrival");
            Op::Commit(TenantId(t), batch)
        })
        .collect();
    Script {
        seeds,
        ops,
        expected,
    }
}

/// From-scratch scores of `seed` with `events` applied.
fn reference_scores(config: &FuserConfig, seed: &Dataset, events: &[Event]) -> Vec<f64> {
    let ds = replay::accumulate(seed, events).expect("events replay onto their seed");
    let fuser = Fuser::fit(config, &ds, ds.gold().expect("workloads carry gold labels"))
        .expect("reference fit succeeds");
    fuser.score_all(&ds).expect("reference scoring succeeds")
}

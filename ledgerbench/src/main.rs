//! The serving-ledger benchmark: one `ShardRouter` behind the
//! `corrfuse-net` server, driven over TCP loopback by one closed-loop
//! client, with a `corrfuse-replica` follower attached on the writing
//! workloads and every answer — the leader's and the follower's —
//! checked bitwise against a from-scratch fit.
//!
//! ```sh
//! cargo run --release --manifest-path ledgerbench/Cargo.toml -- \
//!     --workload ingest --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run repeats *rounds* until `--seconds` have passed. A round sets
//! the system up from scratch (router with per-shard seed fits and
//! journals, server, follower bootstrapped from the leader's snapshots,
//! client handshake — timed as `setup_s`), runs one of the workload's
//! pre-generated operation scripts (each operation one latency sample),
//! reads every tenant's scores back from the leader and the follower for
//! the correctness check and shuts everything down. Rounds cycle through
//! the scripts and a run ends on a whole cycle, so the latency
//! distribution neither drifts with how far a run gets nor hangs on
//! the draw of one generated world.
//!
//! `--trace 0` prints the end-to-end metrics, measured with all
//! instrumentation off: operation latency p50 and p90 over every
//! operation of the run, throughput as the median over cycles of
//! operations per second of operation-phase time, and the mean of the
//! middle half of the round set-up times (set-up cost differs with each
//! script's worlds, so the middle half averages over them while leaving
//! out host hiccups). `--trace 1` turns the router, server and follower
//! metrics registries and the allocation counter on and prints the per-layer
//! metrics instead (see `layers.rs`). The last line of standard output
//! is the JSON result; progress goes to standard error.

mod alloc;
mod layers;
mod workload;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use corrfuse_core::fuser::FuserConfig;
use corrfuse_net::server::spawn;
use corrfuse_net::wire::WireMetric;
use corrfuse_net::{Client, Server, ServerConfig};
use corrfuse_obs::Registry;
use corrfuse_replica::{Follower, FollowerConfig};
use corrfuse_serve::{JournalConfig, ReplicationConfig, RouterConfig, ShardRouter, TenantId};

use layers::Layers;
use workload::{Kind, Op, Script, Workload, N_SHARDS, SCRIPTS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: ledgerbench --workload <ingest|churn|reads> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What the rounds of one run measured.
#[derive(Default)]
struct Run {
    rounds: usize,
    attempted: usize,
    failed: usize,
    correct: bool,
    setup_s: Vec<f64>,
    latencies_ms: Vec<f64>,
    /// Operations per second of each whole cycle through the scripts,
    /// counting only the operation phases of its rounds.
    cycle_throughput: Vec<f64>,
    /// Operations and operation-phase seconds of the cycle in progress.
    cycle: (usize, f64),
    layers: Layers,
    /// Time the client spent putting INGEST messages on the wire.
    send_time: Duration,
    /// Allocations during the operation phases: whole process, client
    /// thread.
    allocs: (u64, u64),
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledgerbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let workload = Workload::generate(args.workload, args.seed);
    eprintln!(
        "ledgerbench: {:?} seed {}: {} scripts of {} ops, inputs and references in {:.2}s",
        args.workload,
        args.seed,
        workload.scripts.len(),
        workload.scripts[0].ops.len(),
        started.elapsed().as_secs_f64()
    );

    let work_dir = PathBuf::from(".ledgerbench").join(std::process::id().to_string());
    let run = run(&workload, &args, &work_dir);
    std::fs::remove_dir_all(&work_dir).ok();
    std::fs::remove_dir(".ledgerbench").ok();

    let p50 = percentile(&run.latencies_ms, 0.50);
    eprintln!(
        "ledgerbench: {} rounds, {} ops ({} failed), correct {}, p50 {:.4} ms",
        run.rounds, run.attempted, run.failed, run.correct, p50
    );
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let ops = run.attempted.max(1) as f64;
        metrics.push((
            "client_send_us_per_op",
            run.send_time.as_secs_f64() * 1e6 / ops,
            "us",
        ));
        metrics.extend(run.layers.rows(run.attempted));
        metrics.push(("allocs_per_op", run.allocs.0 as f64 / ops, "count"));
        metrics.push(("client_allocs_per_op", run.allocs.1 as f64 / ops, "count"));
        metrics.push(("traced_latency_p50_ms", p50, "ms"));
    } else {
        metrics.push(("latency_p50_ms", p50, "ms"));
        metrics.push(("latency_p90_ms", percentile(&run.latencies_ms, 0.90), "ms"));
        metrics.push((
            "throughput_ops_s",
            percentile(&run.cycle_throughput, 0.50),
            "1/s",
        ));
        metrics.push(("setup_s", interquartile_mean(&run.setup_s), "s"));
    }
    println!("{}", result_json(&run, &metrics));
}

fn run(workload: &Workload, args: &Args, work_dir: &Path) -> Run {
    let mut run = Run {
        correct: true,
        ..Run::default()
    };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    loop {
        let dir = work_dir.join(format!("round-{}", run.rounds));
        let script = &workload.scripts[run.rounds % SCRIPTS];
        let outcome = round(workload, script, args.trace, &dir, &mut run);
        std::fs::remove_dir_all(&dir).ok();
        run.rounds += 1;
        if let Err(e) = outcome {
            eprintln!("ledgerbench: round {} failed: {e}", run.rounds);
            run.correct = false;
            break;
        }
        if run.rounds.is_multiple_of(SCRIPTS) && Instant::now() >= deadline {
            break;
        }
    }
    run
}

/// One round: set up, run the script, check, tear down.
fn round(
    workload: &Workload,
    script: &Script,
    trace: bool,
    dir: &Path,
    run: &mut Run,
) -> Result<(), String> {
    let seeds = script.seeds.clone();
    std::fs::create_dir_all(dir).map_err(|e| format!("journal dir: {e}"))?;
    let registry = trace.then(|| Arc::new(Registry::new()));

    let setup = Instant::now();
    let mut router_config = RouterConfig::new(N_SHARDS).with_journal(JournalConfig::new(dir));
    if workload.kind.replicated() {
        router_config = router_config.with_replication(ReplicationConfig::new());
    }
    let mut server_config = ServerConfig::new();
    if let Some(registry) = &registry {
        router_config = router_config.with_metrics(Arc::clone(registry));
        server_config = server_config.with_metrics(Arc::clone(registry));
    }
    let router = ShardRouter::new(workload.config.clone(), router_config, seeds)
        .map_err(|e| format!("router: {e}"))?;
    let server =
        Server::bind("127.0.0.1:0", router, server_config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let (handle, join) = spawn(server).map_err(|e| format!("spawn: {e}"))?;
    let follower = if workload.kind.replicated() {
        attach(&workload.config, &addr, trace).map(Some)
    } else {
        Ok(None)
    };
    let connected = Client::connect(&addr);
    run.setup_s.push(setup.elapsed().as_secs_f64());

    // The follower drops at the end of the closure, closing its links
    // before the leader stops.
    let checked = follower.and_then(|follower| {
        let mut client = connected.map_err(|e| format!("connect: {e}"))?;
        operate(script, trace, &mut client, follower.as_ref(), run)
    });
    handle.stop();
    let stats = join
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    checked?;
    let agg = stats.aggregate();
    if agg.ingest_errors != 0 {
        return Err(format!(
            "{} ingest errors: {:?}",
            agg.ingest_errors, agg.last_error
        ));
    }
    Ok(())
}

/// Connect a follower to the leader at `addr` and wait until every
/// shard holds its bootstrap snapshot.
fn attach(config: &FuserConfig, addr: &str, trace: bool) -> Result<Follower, String> {
    let mut follower_config =
        FollowerConfig::new(config.clone()).with_catchup_timeout(CATCH_UP_TIMEOUT);
    if trace {
        follower_config = follower_config.with_metrics(Arc::new(Registry::new()));
    }
    let follower =
        Follower::connect(addr, follower_config).map_err(|e| format!("follower: {e}"))?;
    follower
        .stats_at(0)
        .map_err(|e| format!("follower bootstrap: {e}"))?;
    Ok(follower)
}

/// How long the follower may take to bootstrap, or to catch up with the
/// leader after a round's last operation.
const CATCH_UP_TIMEOUT: Duration = Duration::from_secs(10);

/// Run the operation script on a connected client, then fetch the
/// per-layer metrics (traced runs) and check every tenant's scores on
/// the leader and, when attached, on the follower.
fn operate(
    script: &Script,
    trace: bool,
    client: &mut Client,
    follower: Option<&Follower>,
    run: &mut Run,
) -> Result<(), String> {
    alloc::set_enabled(trace);
    let before = alloc::counts();
    let phase = Instant::now();
    for op in &script.ops {
        let start = Instant::now();
        let outcome = execute(client, op, &script.expected, &mut run.send_time);
        let elapsed = start.elapsed();
        run.attempted += 1;
        match outcome {
            Ok(()) => run.latencies_ms.push(elapsed.as_secs_f64() * 1e3),
            Err(e) => {
                if run.failed == 0 {
                    eprintln!("ledgerbench: first failed operation: {e}");
                }
                run.failed += 1;
                run.correct = false;
            }
        }
    }
    run.cycle.0 += script.ops.len();
    run.cycle.1 += phase.elapsed().as_secs_f64();
    if (run.rounds + 1).is_multiple_of(SCRIPTS) {
        run.cycle_throughput.push(run.cycle.0 as f64 / run.cycle.1);
        run.cycle = (0, 0.0);
    }
    let after = alloc::counts();
    alloc::set_enabled(false);
    run.allocs.0 += after.0 - before.0;
    run.allocs.1 += after.1 - before.1;

    if trace {
        let metrics = client.metrics().map_err(|e| format!("metrics: {e}"))?;
        run.layers.absorb(&metrics);
    }
    for (tenant, expected) in script.expected.iter().enumerate() {
        let scores = client
            .scores(TenantId(tenant as u32))
            .map_err(|e| format!("scores of tenant {tenant}: {e}"))?;
        if !same_bits(&scores, expected) {
            return Err(format!(
                "tenant {tenant}: scores differ from the from-scratch fit"
            ));
        }
    }
    if let Some(follower) = follower {
        await_follower(follower, &script.expected)?;
        if let Some(registry) = follower.metrics_registry() {
            run.layers
                .absorb(&WireMetric::from_samples(&registry.snapshot()));
        }
    }
    Ok(())
}

/// Wait until the follower serves every tenant's reference scores. The
/// leader has committed the whole round, so the follower's state only
/// moves towards the reference; a follower that never reaches it fails.
fn await_follower(follower: &Follower, expected: &[Vec<f64>]) -> Result<(), String> {
    let deadline = Instant::now() + CATCH_UP_TIMEOUT;
    for (tenant, expected) in expected.iter().enumerate() {
        loop {
            let scores = follower
                .scores(TenantId(tenant as u32))
                .map_err(|e| format!("follower scores of tenant {tenant}: {e}"))?;
            if same_bits(&scores, expected) {
                break;
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "tenant {tenant}: follower scores differ from the from-scratch fit"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    Ok(())
}

fn execute(
    client: &mut Client,
    op: &Op,
    expected: &[Vec<f64>],
    send_time: &mut Duration,
) -> Result<(), String> {
    match op {
        Op::Commit(tenant, events) => {
            let send = Instant::now();
            client.ingest(*tenant, events).map_err(|e| e.to_string())?;
            *send_time += send.elapsed();
            client.flush().map_err(|e| e.to_string())
        }
        Op::Read(tenant) => {
            let scores = client.scores(*tenant).map_err(|e| e.to_string())?;
            if same_bits(&scores, &expected[tenant.0 as usize]) {
                Ok(())
            } else {
                Err(format!(
                    "tenant {}: read differs from the from-scratch fit",
                    tenant.0
                ))
            }
        }
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Nearest-rank percentile; 0 for an empty sample.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Mean of the middle half of `values`; 0 for an empty sample.
fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quarter = sorted.len() / 4;
    let middle = &sorted[quarter..sorted.len() - quarter];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

fn result_json(run: &Run, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct,
        // The result format wants at least one attempt; a run that
        // failed before its first operation is already not correct.
        run.attempted.max(1),
        run.failed,
        body.join(", ")
    )
}

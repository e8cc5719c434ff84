//! Reactor front-door walkthrough: run the same workload through the
//! server on loopback twice — once alone, once while the reactor's
//! single thread also holds a fleet of idle connections — and show the
//! scores coming back bitwise identical.
//!
//! ```sh
//! cargo run --release --example net_reactor            # 500 idle conns
//! cargo run --release --example net_reactor -- 2000    # bigger fleet
//! ```
//!
//! The idle fleet demonstrates the reactor's reason to exist: each idle
//! producer costs one registered file descriptor, not one parked
//! thread. The `net_reactor_*` metrics printed at the end are the
//! observability rows documented in `docs/OBSERVABILITY.md`.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;

use corrfuse::core::fuser::{FuserConfig, Method};
use corrfuse::net::{raise_nofile_limit, Client, Frame, Request, Response, Server, ServerConfig};
use corrfuse::obs::Registry;
use corrfuse::serve::{RouterConfig, ShardRouter, TenantId};
use corrfuse::synth::{remote_producer_scripts, MultiTenantSpec, ProducerAction, RemoteSpec};

fn main() {
    let want_idle: usize = std::env::args()
        .nth(1)
        .map(|n| n.parse().expect("idle count must be a number"))
        .unwrap_or(500);
    let effective = raise_nofile_limit((want_idle * 2 + 256) as u64);
    let n_idle = want_idle.min((effective.saturating_sub(256) / 2) as usize);

    let spec = RemoteSpec {
        tenants: MultiTenantSpec::new(3, 200, 2026),
        n_producers: 4,
        reconnect_every: None,
    };
    let workload = remote_producer_scripts(&spec).expect("workload generates");
    println!(
        "workload: 3 tenants, 4 producers, {} events",
        workload.n_events()
    );

    let mut results: Vec<Vec<(u32, Vec<f64>)>> = Vec::new();
    for fleet in [0, n_idle] {
        let registry = Arc::new(Registry::new());
        let router = ShardRouter::new(
            FuserConfig::new(Method::Exact),
            RouterConfig::new(2),
            workload
                .seeds
                .iter()
                .map(|(t, ds)| (TenantId(*t), ds.clone()))
                .collect(),
        )
        .expect("router constructs");
        let server = Server::bind(
            "127.0.0.1:0",
            router,
            ServerConfig::new()
                .with_max_connections(fleet + 32)
                .with_metrics(Arc::clone(&registry)),
        )
        .expect("server binds");
        let addr = server.local_addr().expect("bound address");
        let (handle, join) = corrfuse::net::server::spawn(server).expect("server spawns");
        let mode = format!("{fleet} idle");
        println!("\n[{mode}] listening on {addr}");

        // Idle fleet: handshake, then just sit there.
        let mut idle = Vec::new();
        if fleet > 0 {
            for _ in 0..fleet {
                let mut s = TcpStream::connect(addr).expect("idle connect");
                Request::Hello {
                    min_version: 1,
                    max_version: 1,
                    credential: None,
                }
                .to_frame()
                .write_to(&mut s)
                .expect("hello");
                s.flush().expect("hello flush");
                let frame = Frame::read_from(&mut s).expect("hello response").unwrap();
                assert!(matches!(
                    Response::from_frame(&frame),
                    Ok(Response::HelloOk { .. })
                ));
                idle.push(s);
            }
            println!("[{mode}] holding {fleet} idle connections on one thread");
        }

        std::thread::scope(|scope| {
            for script in &workload.scripts {
                scope.spawn(move || {
                    let mut client = Client::connect(addr.to_string()).expect("producer connects");
                    for action in &script.actions {
                        match action {
                            ProducerAction::Send { tenant, events } => {
                                client.ingest(TenantId(*tenant), events).expect("ingest");
                            }
                            ProducerAction::Reconnect => client.disconnect(),
                        }
                    }
                    client.flush().expect("producer flush");
                });
            }
        });

        let mut reader = Client::connect(addr.to_string()).expect("reader connects");
        reader.flush().expect("barrier");
        let scores: Vec<(u32, Vec<f64>)> = workload
            .seeds
            .iter()
            .map(|(t, _)| (*t, reader.scores(TenantId(*t)).expect("scores")))
            .collect();
        for (t, s) in &scores {
            println!("[{mode}] tenant {t}: {} scores", s.len());
        }
        drop(reader);
        drop(idle);

        handle.stop();
        let stats = join.join().expect("serve thread").expect("graceful stop");
        println!(
            "[{mode}] done: {} events ingested, {} errors",
            stats.aggregate().ingested_events,
            stats.aggregate().ingest_errors
        );
        for sample in registry.snapshot() {
            if sample.name.starts_with("net_reactor_") {
                println!("[{mode}] {sample:?}");
            }
        }
        results.push(scores);
    }

    // Registered-but-silent peers cost a poll(2) scan, never a result.
    let (alone, loaded) = (&results[0], &results[1]);
    assert_eq!(alone.len(), loaded.len());
    for ((t_a, a), (_, b)) in alone.iter().zip(loaded) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "tenant {t_a} diverged");
        }
    }
    println!("\nscores with and without the idle fleet are bitwise identical ✓");
}

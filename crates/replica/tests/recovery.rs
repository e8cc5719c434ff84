//! A follower that cold-restarts from its own journal resumes at the
//! last batch it holds whole. A crash can cut the journal inside a
//! batch (one append is one `write_all`, not one atomic disk write);
//! what survives of that batch must not count as the batch, or the
//! follower would resubscribe past events it never applied. A journal
//! that will not open at all is rebuilt from a leader snapshot. A
//! resumed journal also restores the leader's decision threshold.

use std::time::Duration;

use corrfuse_core::dataset::{DatasetBuilder, SourceId};
use corrfuse_core::fuser::{FuserConfig, Method};
use corrfuse_core::TripleId;
use corrfuse_net::server::spawn;
use corrfuse_net::{Client, Server, ServerConfig};
use corrfuse_replica::{Follower, FollowerConfig};
use corrfuse_serve::{ReplicationConfig, RouterConfig, ShardRouter, TenantId};
use corrfuse_stream::{Event, FsyncPolicy};

/// Three sources of distinct quality over eight labelled triples, and
/// six unlabelled triples with one claim each (8: A, 9: B, 10: C,
/// 11: A, 12: B, 13: C).
fn seed() -> corrfuse_core::dataset::Dataset {
    let mut b = DatasetBuilder::new();
    let sources = [b.source("A"), b.source("B"), b.source("C")];
    let provided: [&[usize]; 8] = [&[0, 2], &[0, 1], &[0], &[1], &[0, 2], &[1, 2], &[2], &[0]];
    for (k, providers) in provided.iter().enumerate() {
        let t = b.triple(format!("labelled-{k}"), "p", "o");
        for &s in *providers {
            b.observe(sources[s], t);
        }
        b.label(t, k < 4);
    }
    for k in 0..6 {
        let t = b.triple(format!("open-{k}"), "p", "o");
        b.observe(sources[k % 3], t);
    }
    b.build().unwrap()
}

#[test]
fn a_torn_follower_journal_resumes_from_its_last_whole_batch() {
    let tenant = TenantId(0);
    let config = FuserConfig::new(Method::PrecRec);
    let router = ShardRouter::new(
        config.clone(),
        RouterConfig::new(1)
            .with_threshold(0.5)
            .with_replication(ReplicationConfig::new()),
        vec![(tenant, seed())],
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", router, ServerConfig::new()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (handle, join) = spawn(server).unwrap();

    let dir = std::env::temp_dir().join(format!("corrfuse-torn-follower-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let follower_config = FollowerConfig::new(config)
        .with_catchup_timeout(Duration::from_secs(10))
        .with_journal_dir(&dir, FsyncPolicy::Always);
    let follower = Follower::connect(&addr, follower_config.clone()).unwrap();
    follower
        .stats_at(0)
        .expect("the follower bootstraps at epoch 0");

    // Three one-message batches of three claims on unlabelled triples.
    let claim = |s: u32, t: u32| Event::claim(SourceId(s), TripleId(t));
    let batches = [
        [claim(1, 8), claim(2, 9), claim(0, 10)],
        [claim(2, 11), claim(0, 12), claim(1, 13)],
        [claim(0, 9), claim(1, 10), claim(2, 8)],
    ];
    let mut client = Client::connect(&addr).unwrap();
    for batch in &batches {
        client.ingest(tenant, batch).unwrap();
        client.flush().unwrap();
    }
    let leader = client.scores(tenant).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&follower.scores_at(tenant, 3).unwrap()), bits(&leader));
    follower.shutdown();
    drop(follower);

    // Cut the journal after the second line of the last batch: its
    // third claim and its `+B` line are lost.
    let path = dir.join("shard-0.journal");
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let n = lines.len();
    assert_eq!((lines[n - 1], lines[n - 5]), ("+B\n", "+B\n"), "{text}");
    let cut = text.len() - lines[n - 2].len() - lines[n - 1].len();
    std::fs::write(&path, &text[..cut]).unwrap();

    let follower = Follower::connect(&addr, follower_config).unwrap();
    let replica = follower.scores_at(tenant, 3).unwrap();
    assert_eq!(bits(&replica), bits(&leader), "the follower at epoch 3");
    let stats = follower.stats();
    assert_eq!(
        stats.shards[0].snapshots, 0,
        "the restart resumed its journal"
    );
    assert_eq!(
        stats.shards[0].batches_applied, 1,
        "only the torn batch came again"
    );

    follower.shutdown();
    drop(client);
    handle.stop();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_follower_journal_that_will_not_open_is_rebuilt_from_a_snapshot() {
    let tenant = TenantId(0);
    let config = FuserConfig::new(Method::PrecRec);
    let router = ShardRouter::new(
        config.clone(),
        RouterConfig::new(1)
            .with_threshold(0.5)
            .with_replication(ReplicationConfig::new()),
        vec![(tenant, seed())],
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", router, ServerConfig::new()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (handle, join) = spawn(server).unwrap();

    let dir =
        std::env::temp_dir().join(format!("corrfuse-unopened-follower-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let follower_config = FollowerConfig::new(config)
        .with_catchup_timeout(Duration::from_secs(10))
        .with_journal_dir(&dir, FsyncPolicy::Never);
    let claim = |s: u32, t: u32| Event::claim(SourceId(s), TripleId(t));
    let mut client = Client::connect(&addr).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    let follower = Follower::connect(&addr, follower_config.clone()).unwrap();
    for batch in [
        [claim(1, 8), claim(2, 9)],
        [claim(0, 10), claim(2, 11)],
        [claim(0, 12), claim(1, 13)],
    ] {
        client.ingest(tenant, &batch).unwrap();
        client.flush().unwrap();
    }
    let leader = client.scores(tenant).unwrap();
    assert_eq!(bits(&follower.scores_at(tenant, 3).unwrap()), bits(&leader));
    follower.shutdown();
    drop(follower);

    // Cut the journal inside its seed snapshot, before `#events`, as a
    // crash while a bootstrap writes the snapshot can.
    let path = dir.join("shard-0.journal");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.find("#events").unwrap() / 2]).unwrap();

    let follower = Follower::connect(&addr, follower_config.clone())
        .expect("a journal that will not open does not stop the follower");
    let replica = follower.scores_at(tenant, 3).unwrap();
    assert_eq!(
        bits(&replica),
        bits(&leader),
        "the rebuilt follower at epoch 3"
    );
    let stats = &follower.stats().shards[0];
    assert_eq!((stats.snapshots, stats.apply_errors), (1, 1));
    follower.shutdown();
    drop(follower);

    // The bootstrap rewrote the journal: the next restart resumes it and
    // applies the leader's next batch on top.
    let follower = Follower::connect(&addr, follower_config).unwrap();
    client.ingest(tenant, &[claim(1, 11)]).unwrap();
    client.flush().unwrap();
    let leader = client.scores(tenant).unwrap();
    assert_eq!(bits(&follower.scores_at(tenant, 4).unwrap()), bits(&leader));
    let stats = &follower.stats().shards[0];
    assert_eq!((stats.snapshots, stats.apply_errors), (0, 0));
    assert_eq!(stats.batches_applied, 1);

    follower.shutdown();
    drop(client);
    handle.stop();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A follower keeps no threshold of its own: a cold restart that
/// resumes its journal, with no snapshot to carry the leader's
/// threshold, decides at the one its journal recorded.
#[test]
fn a_cold_restarted_follower_decides_at_the_leaders_threshold() {
    let tenant = TenantId(0);
    let config = FuserConfig::new(Method::PrecRec);
    let threshold = 0.8;
    let router = ShardRouter::new(
        config.clone(),
        RouterConfig::new(1)
            .with_threshold(threshold)
            .with_replication(ReplicationConfig::new()),
        vec![(tenant, seed())],
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", router, ServerConfig::new()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (handle, join) = spawn(server).unwrap();

    let dir = std::env::temp_dir().join(format!(
        "corrfuse-threshold-follower-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let follower_config = FollowerConfig::new(config)
        .with_catchup_timeout(Duration::from_secs(10))
        .with_journal_dir(&dir, FsyncPolicy::Never);
    let claim = |s: u32, t: u32| Event::claim(SourceId(s), TripleId(t));
    let mut client = Client::connect(&addr).unwrap();

    let follower = Follower::connect(&addr, follower_config.clone()).unwrap();
    for batch in [[claim(1, 8), claim(2, 9)], [claim(0, 10), claim(2, 11)]] {
        client.ingest(tenant, &batch).unwrap();
        client.flush().unwrap();
    }
    // Some score is accepted at 0.5 and rejected at the leader's
    // threshold, so deciding at the wrong one shows.
    let scores = client.scores(tenant).unwrap();
    assert!(
        scores.iter().any(|&p| 0.5 < p && p <= threshold),
        "{scores:?}"
    );
    let leader = client.decisions(tenant).unwrap();
    assert_eq!(follower.decisions_at(tenant, 2).unwrap(), leader);
    follower.shutdown();
    drop(follower);

    let follower = Follower::connect(&addr, follower_config).unwrap();
    assert_eq!(
        follower.decisions_at(tenant, 2).unwrap(),
        leader,
        "the restarted follower decides as the leader"
    );
    assert_eq!(
        follower.stats().shards[0].snapshots,
        0,
        "the restart resumed its journal"
    );

    follower.shutdown();
    drop(client);
    handle.stop();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

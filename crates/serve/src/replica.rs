//! The leader-side replication tap: per-shard fan-out of committed
//! batches to read-replica followers.
//!
//! When [`crate::RouterConfig::replication`] is set, every shard keeps a
//! `ReplicaTap` inside its core: a bounded backlog of the most recent
//! committed batches (one entry per epoch, in the shared
//! `corrfuse_stream::codec` text encoding) plus the queues of its live
//! subscribers. The tap is written under the same shard lock that
//! applies batches, which is the whole correctness story:
//!
//! * **No gap, no duplicate.** [`crate::ShardRouter::subscribe`]
//!   registers the subscriber queue and captures the resume suffix (or a
//!   dataset snapshot at the current epoch) in one critical section, so
//!   a batch committing concurrently either lands in the
//!   snapshot/backlog *or* in the queue — never both, never neither.
//!   Journal rotation also runs under that lock and touches only the
//!   file, so subscribing across a rotation is indistinguishable from
//!   subscribing next to one.
//! * **Bounded memory, never a stalled leader.** Subscriber queues are
//!   pushed with reject-on-full semantics; a follower that cannot keep
//!   up has its queue closed (it observes the close, resubscribes, and
//!   if it fell behind the backlog it bootstraps from a snapshot). The
//!   backlog itself is a ring of at most
//!   [`crate::config::ReplicationConfig::backlog_batches`] entries.
//!
//! A follower that applies the snapshot at epoch `e` and then every
//! batch `e+1, e+2, ...` through the incremental path holds state
//! bitwise identical to the leader shard at the same epoch — the
//! workspace trust anchor, extended over the wire (pinned by
//! `tests/replica_equivalence.rs`).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use corrfuse_stream::Event;

use crate::config::{Backpressure, ReplicationConfig};
use crate::queue::{Pop, PushError, Queue};

/// One committed batch as published to subscribers: the shard epoch it
/// committed at, plus its shard-space events in the shared
/// `corrfuse_stream::codec` text encoding (event lines + `+B`
/// terminator — exactly the `BATCH` frame payload tail and exactly what
/// `codec::parse_batch` replays).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaBatch {
    /// The shard epoch after this batch committed (epochs are 1-based:
    /// the batch taking a shard from epoch `e-1` to `e` carries `e`).
    pub epoch: u64,
    /// The batch's shard-space events, codec-encoded.
    pub text: String,
}

/// How a subscription begins.
#[derive(Debug, Clone, PartialEq)]
pub enum SubscriptionStart {
    /// The tap's backlog still covered the requested epoch: the
    /// subscriber's queue was preloaded with every batch after
    /// `from_epoch` and streams live from there. Nothing to bootstrap.
    Resume,
    /// The subscriber is too far behind (or brand new): bootstrap from
    /// this dataset snapshot, then apply the queued batches.
    Snapshot {
        /// The shard epoch the snapshot was captured at; the first
        /// queued batch carries `epoch + 1`.
        epoch: u64,
        /// The shard's accumulated (namespaced) dataset in the
        /// `corrfuse_core::io` TSV dialect.
        dataset: String,
        /// The shard session's decision threshold.
        threshold: f64,
    },
}

/// A live subscription: the consumer half of one subscriber queue.
/// Dropping it (or the tap closing it for falling behind) ends the
/// subscription; the leader notices on its next publish and forgets the
/// queue.
#[derive(Debug)]
pub struct Subscription {
    queue: Arc<Queue<ReplicaBatch>>,
}

impl Subscription {
    /// Receive the next committed batch, waiting until `deadline` (or
    /// forever when `None`). [`Pop::Closed`] means the subscription
    /// ended — the router shut down, or this subscriber fell behind and
    /// was disconnected — and the follower should resubscribe.
    pub fn recv_deadline(&self, deadline: Option<Instant>) -> Pop<ReplicaBatch> {
        self.queue.pop_deadline(deadline)
    }

    /// Batches currently buffered and not yet received.
    pub fn depth(&self) -> usize {
        self.queue.depth()
    }
}

/// The per-shard tap; lives inside the shard core, mutated only under
/// the shard lock. See the module docs.
#[derive(Debug)]
pub(crate) struct ReplicaTap {
    config: ReplicationConfig,
    /// The epoch just before the oldest backlog entry: the backlog
    /// covers epochs `backlog_start + 1 ..= backlog_start +
    /// backlog.len()` in order.
    backlog_start: u64,
    backlog: VecDeque<String>,
    subscribers: Vec<Arc<Queue<ReplicaBatch>>>,
}

impl ReplicaTap {
    pub fn new(config: ReplicationConfig, epoch: u64) -> ReplicaTap {
        ReplicaTap {
            config,
            backlog_start: epoch,
            backlog: VecDeque::new(),
            subscribers: Vec::new(),
        }
    }

    /// Record one committed batch and fan it out. Called under the shard
    /// lock immediately after the session absorbed the batch, with
    /// `epoch` the session's post-commit epoch.
    pub fn publish(&mut self, epoch: u64, events: &[Event]) {
        debug_assert_eq!(epoch, self.backlog_start + self.backlog.len() as u64 + 1);
        let mut text = String::new();
        corrfuse_stream::codec::write_batch(events, &mut text);
        if self.config.backlog_batches == 0 {
            self.backlog_start = epoch;
        } else {
            self.backlog.push_back(text.clone());
            while self.backlog.len() > self.config.backlog_batches {
                self.backlog.pop_front();
                self.backlog_start += 1;
            }
        }
        self.subscribers.retain(|q| {
            match q.push(
                ReplicaBatch {
                    epoch,
                    text: text.clone(),
                },
                Backpressure::Reject,
            ) {
                Ok(()) => true,
                Err(PushError::Full) => {
                    // The follower fell behind its queue: disconnect it
                    // rather than stall or buffer unboundedly. It
                    // observes the close and resubscribes.
                    q.close();
                    false
                }
                Err(PushError::Closed) => false,
            }
        });
    }

    /// Open a subscription resuming after `from_epoch`, with `current`
    /// the shard's epoch and `snapshot` producing the bootstrap payload
    /// lazily (only taken when the backlog cannot cover the gap). Called
    /// under the shard lock, which makes registration atomic with the
    /// captured state.
    pub fn subscribe(
        &mut self,
        from_epoch: u64,
        current: u64,
        snapshot: impl FnOnce() -> (String, f64),
    ) -> (SubscriptionStart, Subscription) {
        let queue = Arc::new(Queue::new(self.config.subscriber_capacity));
        let wanted = current.saturating_sub(from_epoch);
        let covered = from_epoch <= current
            && from_epoch >= self.backlog_start
            && wanted as usize <= self.config.subscriber_capacity;
        let start = if covered {
            let skip = (from_epoch - self.backlog_start) as usize;
            for (i, text) in self.backlog.iter().enumerate().skip(skip) {
                let epoch = self.backlog_start + i as u64 + 1;
                queue
                    .push(
                        ReplicaBatch {
                            epoch,
                            text: text.clone(),
                        },
                        Backpressure::Reject,
                    )
                    .expect("preload within subscriber capacity");
            }
            SubscriptionStart::Resume
        } else {
            let (dataset, threshold) = snapshot();
            SubscriptionStart::Snapshot {
                epoch: current,
                dataset,
                threshold,
            }
        };
        self.subscribers.push(Arc::clone(&queue));
        (start, Subscription { queue })
    }

    /// Live subscriber queues (stale entries are pruned on publish, so
    /// this can briefly over-count followers that vanished silently).
    pub fn n_subscribers(&self) -> usize {
        self.subscribers.len()
    }

    /// Close every subscriber queue (router shutdown): followers drain
    /// what is buffered, then observe the close.
    pub fn close(&mut self) {
        for q in self.subscribers.drain(..) {
            q.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfuse_core::{SourceId, TripleId};

    fn batch(i: u32) -> Vec<Event> {
        vec![Event::claim(SourceId(i), TripleId(i))]
    }

    fn text_of(events: &[Event]) -> String {
        let mut s = String::new();
        corrfuse_stream::codec::write_batch(events, &mut s);
        s
    }

    #[test]
    fn resume_covers_backlog_and_streams_live() {
        let mut tap = ReplicaTap::new(ReplicationConfig::new(), 0);
        for i in 1..=3 {
            tap.publish(i as u64, &batch(i));
        }
        // Resume after epoch 1: epochs 2 and 3 are preloaded.
        let (start, sub) = tap.subscribe(1, 3, || unreachable!("backlog covers"));
        assert_eq!(start, SubscriptionStart::Resume);
        assert_eq!(sub.depth(), 2);
        tap.publish(4, &batch(4));
        for want in 2..=4u32 {
            match sub.recv_deadline(None) {
                Pop::Item(b) => {
                    assert_eq!(b.epoch, want as u64);
                    assert_eq!(b.text, text_of(&batch(want)));
                }
                other => panic!("expected item, got {other:?}"),
            }
        }
    }

    #[test]
    fn behind_the_backlog_snapshots() {
        let config = ReplicationConfig::new().with_backlog_batches(2);
        let mut tap = ReplicaTap::new(config, 0);
        for i in 1..=5 {
            tap.publish(i as u64, &batch(i));
        }
        // Backlog covers epochs 4..=5 only; resuming after 2 must
        // snapshot, at the current epoch.
        let (start, _sub) = tap.subscribe(2, 5, || ("DATASET".to_string(), 0.5));
        match start {
            SubscriptionStart::Snapshot {
                epoch,
                dataset,
                threshold,
            } => {
                assert_eq!(epoch, 5);
                assert_eq!(dataset, "DATASET");
                assert_eq!(threshold, 0.5);
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
        // A fresh follower (from_epoch 0) snapshots too.
        let (start, _sub) = tap.subscribe(0, 5, || ("D".to_string(), 0.5));
        assert!(matches!(start, SubscriptionStart::Snapshot { .. }));
    }

    #[test]
    fn slow_subscriber_is_disconnected_not_buffered() {
        let config = ReplicationConfig::new().with_subscriber_capacity(2);
        let mut tap = ReplicaTap::new(config, 0);
        let (_, sub) = tap.subscribe(0, 0, || (String::new(), 0.5));
        assert_eq!(tap.n_subscribers(), 1);
        tap.publish(1, &batch(1));
        tap.publish(2, &batch(2));
        // Third push overflows the queue: the subscriber is dropped and
        // its queue closed, but the buffered batches still drain.
        tap.publish(3, &batch(3));
        assert_eq!(tap.n_subscribers(), 0);
        assert!(matches!(sub.recv_deadline(None), Pop::Item(b) if b.epoch == 1));
        assert!(matches!(sub.recv_deadline(None), Pop::Item(b) if b.epoch == 2));
        assert!(matches!(sub.recv_deadline(None), Pop::Closed));
    }

    #[test]
    fn zero_backlog_always_snapshots_but_still_streams() {
        let config = ReplicationConfig::new().with_backlog_batches(0);
        let mut tap = ReplicaTap::new(config, 0);
        tap.publish(1, &batch(1));
        let (start, sub) = tap.subscribe(1, 1, || ("D".to_string(), 0.5));
        // from_epoch == current: nothing to replay, Resume is still
        // possible even with no backlog.
        assert_eq!(start, SubscriptionStart::Resume);
        tap.publish(2, &batch(2));
        assert!(matches!(sub.recv_deadline(None), Pop::Item(b) if b.epoch == 2));
        // But any gap at all requires a snapshot.
        let (start, _) = tap.subscribe(1, 2, || ("D".to_string(), 0.5));
        assert!(matches!(
            start,
            SubscriptionStart::Snapshot { epoch: 2, .. }
        ));
    }

    #[test]
    fn close_ends_every_subscription() {
        let mut tap = ReplicaTap::new(ReplicationConfig::new(), 0);
        let (_, a) = tap.subscribe(0, 0, || (String::new(), 0.5));
        let (_, b) = tap.subscribe(0, 0, || (String::new(), 0.5));
        tap.close();
        assert!(matches!(a.recv_deadline(None), Pop::Closed));
        assert!(matches!(b.recv_deadline(None), Pop::Closed));
        assert_eq!(tap.n_subscribers(), 0);
    }
}

//! A bounded multi-producer / single-consumer queue with pluggable
//! producer-side backpressure, which is also its consumer's message
//! ledger and flush barrier.
//!
//! `std::sync::mpsc::sync_channel` offers blocking and non-blocking
//! sends but no deadline-bounded send and no depth introspection, both
//! of which the router's front door needs (its backpressure policy is
//! configuration, and queue depth is a first-class stat). This is the
//! same offline-workspace pattern as `corrfuse_core::engine`: a small
//! std-only implementation (one Mutex and three Condvars: not full, not
//! empty, progressed) behind the API shape the subsystem actually wants.
//!
//! The ledger: under the same lock every push and pop already takes,
//! the queue counts the items it accepted, the items it refused as full,
//! and the items the consumer reports done ([`Queue::done`]).
//! [`Queue::counts`] reads all three with the depth and the high-water
//! mark. [`Queue::join`] is the flush barrier: it waits until the done
//! count reaches the accepted count read at the call. A consumer that
//! goes away for good calls [`Queue::abandon`], which wakes every join
//! and every producer waiting for room; a join still short then reports
//! the consumer gone, and every later push is refused, since nothing
//! would ever take it.
//!
//! Close semantics: [`Queue::close`] stops new pushes immediately, but
//! the consumer keeps draining buffered items — [`Queue::pop`] returns
//! `None` only once the buffer is empty. That is exactly the
//! graceful-shutdown contract: accepted messages are never dropped.

use std::collections::VecDeque;
use std::sync::{Condvar, LockResult, Mutex, PoisonError};

use crate::config::Backpressure;

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue is at capacity and the policy gave up.
    Full,
    /// The queue was closed.
    Closed,
    /// The consumer abandoned the queue: nothing would take the item.
    Abandoned,
}

/// One read of the ledger, the depth and the high-water mark.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counts {
    /// Items accepted by a push.
    pub accepted: u64,
    /// Pushes refused because the queue was full.
    pub refused: u64,
    /// Items the consumer reported done.
    pub done: u64,
    /// Items buffered now.
    pub depth: usize,
    /// High-water mark of the buffer since creation.
    pub max_depth: usize,
}

#[derive(Debug)]
struct Inner<T> {
    buf: VecDeque<T>,
    closed: bool,
    /// The consumer is gone for good: `done` will not grow, and pushes
    /// are refused.
    abandoned: bool,
    /// The ledger; its `depth` stays 0 here, `counts` reads `buf`'s.
    counts: Counts,
}

/// The bounded queue; see the module docs.
#[derive(Debug)]
pub(crate) struct Queue<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    /// `done` grew, or the consumer abandoned the queue.
    progressed: Condvar,
}

/// Every lock of the queue's mutex and every wait on its condvars goes
/// through here, and it takes over a poisoned guard. That is sound
/// because the lock is a leaf, held only to move buffered items and add
/// to counters, steps that cannot panic part-way: whatever panicked
/// while holding it left the buffer and the counts whole.
fn held<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

impl<T> Queue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Queue<T> {
        Queue {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                buf: VecDeque::new(),
                closed: false,
                abandoned: false,
                counts: Counts::default(),
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            progressed: Condvar::new(),
        }
    }

    /// Push one item under the given backpressure policy.
    pub fn push(&self, item: T, policy: Backpressure) -> Result<(), PushError> {
        let g = held(self.inner.lock());
        let full = |i: &mut Inner<T>| !i.closed && !i.abandoned && i.buf.len() >= self.capacity;
        let mut g = match policy {
            Backpressure::Reject => g,
            Backpressure::Block => held(self.not_full.wait_while(g, full)),
            Backpressure::Timeout(d) => held(self.not_full.wait_timeout_while(g, d, full)).0,
        };
        if g.closed {
            return Err(PushError::Closed);
        }
        if g.abandoned {
            return Err(PushError::Abandoned);
        }
        if g.buf.len() >= self.capacity {
            g.counts.refused += 1;
            return Err(PushError::Full);
        }
        g.buf.push_back(item);
        g.counts.accepted += 1;
        g.counts.max_depth = g.counts.max_depth.max(g.buf.len());
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pop one item, blocking until there is one. Buffered items are
    /// delivered even after [`Queue::close`]; `None` means the queue is
    /// closed and drained.
    pub fn pop(&self) -> Option<T> {
        let g = held(self.inner.lock());
        let mut g = held(
            self.not_empty
                .wait_while(g, |i| i.buf.is_empty() && !i.closed),
        );
        self.take(&mut g)
    }

    /// Pop one item if one is buffered; never waits.
    pub fn try_pop(&self) -> Option<T> {
        self.take(&mut *held(self.inner.lock()))
    }

    fn take(&self, inner: &mut Inner<T>) -> Option<T> {
        let item = inner.buf.pop_front()?;
        self.not_full.notify_one();
        Some(item)
    }

    /// The consumer finished `n` more popped items.
    pub fn done(&self, n: u64) {
        held(self.inner.lock()).counts.done += n;
        self.progressed.notify_all();
    }

    /// Wait until the consumer has finished every item accepted before
    /// this call. Returns `false` if it abandoned the queue first.
    pub fn join(&self) -> bool {
        let g = held(self.inner.lock());
        let target = g.counts.accepted;
        let g = held(
            self.progressed
                .wait_while(g, |i| i.counts.done < target && !i.abandoned),
        );
        g.counts.done >= target
    }

    /// The consumer is gone for good: refuse every later push, and wake
    /// every [`Queue::join`] and every producer waiting for room.
    pub fn abandon(&self) {
        held(self.inner.lock()).abandoned = true;
        self.progressed.notify_all();
        self.not_full.notify_all();
    }

    /// Refuse all future pushes; the consumer drains what is buffered.
    pub fn close(&self) {
        held(self.inner.lock()).closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// The ledger, the current depth and the high-water mark, in one read.
    pub fn counts(&self) -> Counts {
        let g = held(self.inner.lock());
        Counts {
            depth: g.buf.len(),
            ..g.counts
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn reject_policy_fails_fast_when_full() {
        let q = Queue::new(2);
        assert!(q.push(1, Backpressure::Reject).is_ok());
        assert!(q.push(2, Backpressure::Reject).is_ok());
        assert_eq!(q.push(3, Backpressure::Reject), Err(PushError::Full));
        assert_eq!(q.counts().depth, 2);
        assert_eq!(q.counts().max_depth, 2);
    }

    #[test]
    fn timeout_policy_waits_then_gives_up() {
        let q = Queue::new(1);
        q.push(1, Backpressure::Block).unwrap();
        let t0 = Instant::now();
        let policy = Backpressure::Timeout(Duration::from_millis(30));
        assert_eq!(q.push(2, policy), Err(PushError::Full));
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn block_policy_waits_for_the_consumer() {
        let q = Arc::new(Queue::new(1));
        q.push(1, Backpressure::Block).unwrap();
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            q2.pop().expect("an item")
        });
        // Blocks until the consumer frees a slot.
        q.push(2, Backpressure::Block).unwrap();
        assert_eq!(consumer.join().unwrap(), 1);
        assert_eq!(q.counts().depth, 1);
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q: Queue<u32> = Queue::new(4);
        q.push(1, Backpressure::Block).unwrap();
        q.push(2, Backpressure::Block).unwrap();
        q.close();
        assert_eq!(q.push(3, Backpressure::Block), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn try_pop_on_an_empty_queue_returns_none() {
        let q: Queue<u32> = Queue::new(1);
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn join_waits_for_done_until_the_consumer_abandons() {
        let q = Arc::new(Queue::new(2));
        assert!(q.join(), "nothing accepted, nothing to wait for");
        q.push(1, Backpressure::Reject).unwrap();
        q.push(2, Backpressure::Reject).unwrap();
        assert_eq!(q.push(3, Backpressure::Reject), Err(PushError::Full));
        let joiner = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.join())
        };
        assert_eq!(q.pop(), Some(1));
        q.done(1);
        let c = q.counts();
        assert_eq!((c.accepted, c.refused, c.done, c.depth), (2, 1, 1, 1));
        q.abandon();
        assert!(!joiner.join().unwrap(), "abandoned one item short");
        q.done(1);
        assert!(q.join(), "every accepted item is done");
    }

    /// A thread that dies holding the queue lock poisons it; every entry
    /// point takes the guard over and the queue works on.
    #[test]
    fn a_poisoned_queue_lock_is_taken_over() {
        let q = Arc::new(Queue::new(2));
        q.push(1, Backpressure::Reject).unwrap();
        let poisoner = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let _guard = q.inner.lock();
                panic!("poisoning the queue lock");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(q.inner.is_poisoned());
        q.push(2, Backpressure::Block).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        q.done(2);
        assert!(q.join(), "every accepted item is done");
        let c = q.counts();
        assert_eq!(
            (c.accepted, c.refused, c.done, c.depth, c.max_depth),
            (2, 0, 2, 0, 2)
        );
    }

    #[test]
    fn close_wakes_a_blocked_producer() {
        let q = Arc::new(Queue::new(1));
        q.push(1, Backpressure::Block).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(2, Backpressure::Block));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(PushError::Closed));
    }
}

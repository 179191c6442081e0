//! A bounded multi-producer/multi-consumer queue — the admission-controlled
//! heart of the scheduler.
//!
//! `std::sync::mpsc` channels are single-consumer, but the scheduler needs
//! *many* connection readers feeding *many* batch-forming workers, so this
//! module hand-rolls the one primitive the workspace's no-dependency policy
//! does not get for free: a `Mutex` + two-`Condvar` ring with
//!
//! * **bounded capacity** — [`BoundedQueue::try_push`] refuses instead of
//!   growing, which is what turns overload into a typed wire response
//!   rather than unbounded memory;
//! * **blocking producers** — [`BoundedQueue::push`] waits for space (the
//!   lossless stdin bulk-scoring path);
//! * **work-conserving batch pops** — [`BoundedQueue::pop_batch`] blocks
//!   only while the queue is empty, then takes whatever is already queued
//!   under the same lock, so a worker never waits for a batch to fill;
//! * **a graceful-shutdown sentinel** — [`BoundedQueue::close`] wakes
//!   everyone; consumers drain whatever is still queued and only then see
//!   the end of the stream, so in-flight requests are never dropped.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a non-blocking push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the caller should shed load (typed
    /// overload response). The item is handed back.
    Full(T),
    /// The queue was closed for shutdown; no new work is admitted.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded blocking MPMC queue (see the module docs).
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` queued items (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }

    /// Whether nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking admission: enqueues, or refuses with
    /// [`PushError::Full`] / [`PushError::Closed`].
    ///
    /// # Errors
    /// [`PushError`] handing the item back when the queue is at capacity or
    /// closed.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking admission: waits for space (backpressure), enqueues.
    ///
    /// # Errors
    /// Hands the item back when the queue is closed before space appears.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("queue lock");
        while !inner.closed && inner.items.len() >= self.capacity {
            inner = self.not_full.wait(inner).expect("queue lock");
        }
        if inner.closed {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Work-conserving batch pop: blocks only while the queue is empty,
    /// then moves what is already queued — up to `max` items (at least
    /// one), oldest first — onto `out` in one critical section, never
    /// waiting for more. Every freed slot may admit a blocked producer, so
    /// all of them are woken. `false` only once the queue is closed **and**
    /// drained (nothing was appended).
    pub fn pop_batch(&self, max: usize, out: &mut Vec<T>) -> bool {
        let mut inner = self.inner.lock().expect("queue lock");
        while inner.items.is_empty() {
            if inner.closed {
                return false;
            }
            inner = self.not_empty.wait(inner).expect("queue lock");
        }
        let taken = inner.items.len().min(max.max(1));
        out.extend(inner.items.drain(..taken));
        drop(inner);
        if taken == 1 {
            self.not_full.notify_one();
        } else {
            self.not_full.notify_all();
        }
        true
    }

    /// The graceful-shutdown sentinel: no new items are admitted, every
    /// blocked producer fails, and consumers drain the remainder before
    /// [`pop_batch`](Self::pop_batch) returns `false`.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// One item through the one-at-a-time handoff, `pop_batch(1, ..)`;
    /// `None` once the queue is closed and drained.
    fn pop_one<T>(q: &BoundedQueue<T>) -> Option<T> {
        let mut out = Vec::new();
        q.pop_batch(1, &mut out)
            .then(|| out.pop().expect("one item"))
    }

    #[test]
    fn fifo_order_and_capacity() {
        let q = BoundedQueue::new(3);
        assert_eq!(q.capacity(), 3);
        for i in 0..3 {
            q.try_push(i).expect("space");
        }
        assert_eq!(q.try_push(9), Err(PushError::Full(9)));
        assert_eq!(q.len(), 3);
        assert_eq!(pop_one(&q), Some(0));
        q.try_push(3).expect("space after pop");
        assert_eq!(pop_one(&q), Some(1));
        assert_eq!(pop_one(&q), Some(2));
        assert_eq!(pop_one(&q), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        // New work refused in both admission modes…
        assert_eq!(q.try_push(3), Err(PushError::Closed(3)));
        assert_eq!(q.push(4), Err(4));
        // …but queued work drains before the sentinel.
        assert_eq!(pop_one(&q), Some(1));
        assert_eq!(pop_one(&q), Some(2));
        assert_eq!(pop_one(&q), None);
        assert!(!q.pop_batch(4, &mut Vec::new()));
    }

    #[test]
    fn pop_batch_takes_what_is_queued_in_fifo_order_up_to_max() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).expect("space");
        }
        let mut got = Vec::new();
        assert!(q.pop_batch(3, &mut got));
        assert_eq!(got, [0, 1, 2], "FIFO, and never more than max");
        // Fewer queued than max: returns what is there instead of waiting.
        assert!(q.pop_batch(8, &mut got));
        assert_eq!(got, [0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_ends_only_once_closed_and_drained() {
        // The consumer may start on an empty, open queue: it must wait
        // there rather than report the end, and see every item before it.
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut batches = Vec::new();
                let mut batch = Vec::new();
                while q.pop_batch(4, &mut batch) {
                    batches.push(std::mem::take(&mut batch));
                }
                batches
            })
        };
        q.push(1).expect("open");
        q.push(2).expect("open");
        q.close();
        let batches = consumer.join().expect("consumer");
        assert!(batches.iter().all(|b| !b.is_empty()), "{batches:?}");
        assert_eq!(batches.concat(), [1, 2]);
    }

    #[test]
    fn one_pop_batch_releases_every_producer_blocked_on_freed_slots() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(2));
        q.try_push(0).expect("space");
        q.try_push(1).expect("space");
        let producers: Vec<_> = [2, 3]
            .into_iter()
            .map(|item| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.push(item))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20)); // both block: full
        let mut got = Vec::new();
        assert!(q.pop_batch(2, &mut got));
        assert_eq!(got, [0, 1]);
        // No further pop: that one batch pop must have woken both.
        let t0 = Instant::now();
        while q.len() < 2 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "a producer stayed blocked"
            );
            std::thread::yield_now();
        }
        for producer in producers {
            assert_eq!(producer.join().expect("producer"), Ok(()));
        }
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(0u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1).is_ok())
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(pop_one(&q), Some(0)); // frees the producer
        assert!(producer.join().expect("producer"));
        assert_eq!(pop_one(&q), Some(1));
    }

    #[test]
    fn close_wakes_a_blocked_consumer() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || pop_one(&q))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().expect("consumer"), None);
    }

    #[test]
    fn close_wakes_a_blocked_producer_and_preserves_queued_work() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        q.try_push(7).unwrap(); // full: the producer below must block
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(8))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        // The blocked producer is refused; the admitted item still drains.
        assert_eq!(producer.join().expect("producer"), Err(8));
        assert_eq!(pop_one(&q), Some(7));
        assert_eq!(pop_one(&q), None);
    }

    #[test]
    fn mpmc_across_threads_loses_nothing() {
        let q: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(8));
        const PER_PRODUCER: u64 = 500;
        let producers: Vec<_> = (0..3u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(p * PER_PRODUCER + i).expect("open");
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = pop_one(&q) {
                        got.push(item);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().expect("producer");
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().expect("consumer"))
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..3 * PER_PRODUCER).collect();
        assert_eq!(all, expected);
    }
}

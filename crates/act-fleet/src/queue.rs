//! The work queue of long-lived services (`act-serve`).
//!
//! Work arrives over time from producers the consumer does not control, so
//! [`BoundedQueue`] is a bounded MPMC channel: `try_push` fails fast when
//! full (the producer turns that into a backpressure reply instead of
//! buffering unboundedly), `pop` blocks until an item or close, and
//! `close` initiates graceful drain — queued items are still handed out,
//! then every consumer sees `None`. `requeue` puts back an item that was
//! already accepted, past the bound and the close. (Campaigns need no
//! queue: their job list is fixed, and [`crate::parallel_map`] hands it
//! out with an atomic cursor.)

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// A bounded multi-producer/multi-consumer FIFO for long-lived services.
///
/// Items arrive over time: producers `try_push` (and get the item back
/// when the queue is full — backpressure, never silent drop), consumers
/// block in [`pop`](BoundedQueue::pop) until an item arrives or the queue
/// is closed. [`close`](BoundedQueue::close) starts a
/// graceful drain: already-queued items are still popped, new pushes are
/// refused, and once empty every consumer unblocks with `None`.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<BoundedInner<T>>,
    nonempty: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct BoundedInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// An empty queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(BoundedInner { items: VecDeque::new(), closed: false }),
            nonempty: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue `item`, or hand it back when the queue is full or closed —
    /// the caller decides what backpressure looks like (e.g. a `BUSY`
    /// reply).
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the queue is at capacity or closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        // Wakes every consumer parked in `pop`: one takes the item, the
        // rest re-check and sleep again. Nothing else parks on this
        // condvar, so `notify_one` would do; switching is a scheduling
        // change and waits for a measurement.
        self.nonempty.notify_all();
        Ok(())
    }

    /// Put back an item the service already accepted (e.g. a forwarded
    /// request whose answer came back), past the depth bound and the
    /// closed flag: refusing it would drop accepted work, not push back.
    /// Wakes one consumer.
    pub fn requeue(&self, item: T) {
        self.inner.lock().expect("queue lock").items.push_back(item);
        self.nonempty.notify_one();
    }

    /// Dequeue the oldest item, blocking until one arrives. Returns `None`
    /// only after [`close`](BoundedQueue::close) *and* the queue has
    /// drained — a consumer loop `while let Some(job) = q.pop()` therefore
    /// finishes all accepted work before exiting.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.nonempty.wait(inner).expect("queue lock");
        }
    }

    /// Dequeue up to `max` of the items already queued that match
    /// `pred`, oldest first, without waiting for more — the gather half of
    /// a request-coalescing scheduler. Non-matching items are left queued
    /// *in order* for other consumers.
    pub fn drain_matching<F>(&self, max: usize, pred: F) -> Vec<T>
    where
        F: Fn(&T) -> bool,
    {
        let mut got = Vec::new();
        let mut inner = self.inner.lock().expect("queue lock");
        let mut i = 0;
        while i < inner.items.len() && got.len() < max {
            if pred(&inner.items[i]) {
                got.push(inner.items.remove(i).expect("index in bounds"));
            } else {
                i += 1;
            }
        }
        got
    }

    /// Refuse new items and wake blocked consumers; queued items still
    /// drain.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.nonempty.notify_all();
    }

    /// Whether [`close`](BoundedQueue::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("queue lock").closed
    }

    /// Items currently queued (racy by nature; for observability only).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }

    /// Whether the queue is currently empty (racy; observability only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_backpressures_when_full() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3), "full queue hands the item back");
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok(), "space freed by pop is reusable");
    }

    #[test]
    fn bounded_queue_drains_after_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(9), Err(9), "closed queue refuses new items");
        assert_eq!(q.pop(), Some(1), "queued items still drain");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None, "drained + closed unblocks consumers");
    }

    #[test]
    fn bounded_queue_wakes_blocked_consumers() {
        let q: std::sync::Arc<BoundedQueue<u32>> = std::sync::Arc::new(BoundedQueue::new(8));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for v in 0..30 {
            // Retry on backpressure: consumers are draining concurrently.
            let mut item = v;
            while let Err(back) = q.try_push(item) {
                item = back;
                std::thread::yield_now();
            }
        }
        q.close();
        let mut all: Vec<u32> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..30).collect::<Vec<_>>(), "every item popped exactly once");
    }

    #[test]
    fn requeue_admits_past_the_bound_and_the_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        q.try_push(1).unwrap();
        q.requeue(2);
        assert_eq!(q.len(), 2, "a requeued item is not bounded by the depth");
        assert_eq!(q.try_push(3), Err(3), "try_push still answers by the depth bound");
        q.close();
        q.requeue(4);
        assert_eq!(q.try_push(5), Err(5), "a closed queue refuses new items");
        assert_eq!((q.pop(), q.pop(), q.pop()), (Some(1), Some(2), Some(4)), "FIFO, then drained");
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn bounded_queue_rejects_zero_capacity() {
        let _ = BoundedQueue::<u32>::new(0);
    }

    #[test]
    fn drain_matching_takes_only_matches_and_keeps_order() {
        let q: BoundedQueue<u32> = BoundedQueue::new(8);
        for v in [1, 2, 3, 4, 5, 6] {
            q.try_push(v).unwrap();
        }
        let evens = q.drain_matching(10, |v| v % 2 == 0);
        assert_eq!(evens, vec![2, 4, 6]);
        assert_eq!(q.pop(), Some(1), "non-matching items stay, in order");
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(5));
        assert!(q.drain_matching(4, |_| true).is_empty(), "an empty queue yields nothing");
    }

    #[test]
    fn drain_matching_respects_max() {
        let q: BoundedQueue<u32> = BoundedQueue::new(8);
        for v in 0..6 {
            q.try_push(v).unwrap();
        }
        let got = q.drain_matching(2, |_| true);
        assert_eq!(got, vec![0, 1]);
        assert_eq!(q.len(), 4);
    }
}

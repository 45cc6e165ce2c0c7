//! The metrics registry: monotonic counters, gauges, and fixed-bucket
//! histograms.
//!
//! Handles are `Arc`s around atomics; recording is relaxed atomic
//! arithmetic with zero allocation. The registry itself is only locked at
//! registration and snapshot time — never on the recording path.

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (snapshots skip it).
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A plain-integer counter for hot loops that cannot afford one atomic
/// per event: increment locally, then [`flush`](LocalCounter::flush) the
/// accumulated delta into a shared [`Counter`] at an amortized interval
/// (`perf`'s `obs_classify` bench flushes every 256 predictions).
#[derive(Debug, Default)]
pub struct LocalCounter {
    pending: u64,
}

impl LocalCounter {
    /// Add one locally (no atomics).
    #[inline]
    pub fn inc(&mut self) {
        self.pending += 1;
    }

    /// Add `n` locally (no atomics).
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.pending += n;
    }

    /// Increments accumulated since the last flush.
    #[inline]
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Push the accumulated delta into `target` (one relaxed atomic add)
    /// and reset.
    #[inline]
    pub fn flush(&mut self, target: &Counter) {
        if self.pending > 0 {
            target.add(self.pending);
            self.pending = 0;
        }
    }
}

/// A last-value-wins signed gauge (queue depth, resident models, IGB
/// occupancy).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared storage of a fixed-bucket histogram: `bounds[i]` is the
/// inclusive upper edge of bucket `i`; one extra overflow bucket catches
/// everything above the last bound. Bounds are fixed at registration so
/// recording allocates nothing.
#[derive(Debug)]
pub struct HistogramCells {
    bounds: Box<[u64]>,
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
}

/// A fixed-bucket histogram handle.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCells>);

impl Histogram {
    /// A histogram not attached to any registry (snapshots skip it).
    pub fn detached(bounds: &[u64]) -> Histogram {
        let bounds: Box<[u64]> = bounds.into();
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must strictly increase");
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramCells { bounds, counts, sum: AtomicU64::new(0) }))
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let cells = &*self.0;
        let idx = cells.bounds.partition_point(|&b| b < v);
        cells.counts[idx].fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.0.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Copy the cells out into plain data.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let cells = &*self.0;
        HistogramSnapshot {
            bounds: cells.bounds.to_vec(),
            counts: cells.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            sum: cells.sum.load(Ordering::Relaxed),
        }
    }
}

/// The default latency bucket edges, in microseconds: a 1–2.5–5 decade
/// ladder from 50 µs to 10 s. Shared by serve request latency and fleet
/// job timing so snapshots compare across subsystems.
pub fn latency_bounds_us() -> Vec<u64> {
    let mut bounds = vec![50, 100, 250, 500];
    let mut decade = 1_000u64;
    while decade <= 10_000_000 {
        bounds.extend([decade, decade * 25 / 10, decade * 5]);
        decade *= 10;
    }
    bounds.push(10_000_000 * 10); // 100 s: anything slower is the overflow bucket
    bounds
}

enum Entry {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics. Locked only for registration and
/// snapshots; handles record lock-free.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<(String, Entry)>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter named `name`. Idempotent: every caller
    /// receives a handle to the same cell.
    pub fn counter(&self, name: &str) -> Counter {
        let mut entries = self.entries.lock().unwrap();
        if let Some(c) = entries.iter().find_map(|(n, e)| match e {
            Entry::Counter(c) if n == name => Some(c.clone()),
            _ => None,
        }) {
            return c;
        }
        let c = Counter::default();
        entries.push((name.to_string(), Entry::Counter(c.clone())));
        c
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut entries = self.entries.lock().unwrap();
        if let Some(g) = entries.iter().find_map(|(n, e)| match e {
            Entry::Gauge(g) if n == name => Some(g.clone()),
            _ => None,
        }) {
            return g;
        }
        let g = Gauge::default();
        entries.push((name.to_string(), Entry::Gauge(g.clone())));
        g
    }

    /// Get or create the histogram named `name` with the given bucket
    /// upper bounds (strictly increasing; an overflow bucket is added).
    /// If the name is already registered, the existing histogram wins and
    /// `bounds` is ignored.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut entries = self.entries.lock().unwrap();
        if let Some(h) = entries.iter().find_map(|(n, e)| match e {
            Entry::Histogram(h) if n == name => Some(h.clone()),
            _ => None,
        }) {
            return h;
        }
        let h = Histogram::detached(bounds);
        entries.push((name.to_string(), Entry::Histogram(h.clone())));
        h
    }

    /// Read every cell into a plain-data snapshot, sorted by metric name
    /// so output is deterministic regardless of registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().unwrap();
        let mut snap = MetricsSnapshot::default();
        for (name, entry) in entries.iter() {
            match entry {
                Entry::Counter(c) => snap.push_counter(name, c.get()),
                Entry::Gauge(g) => snap.push_gauge(name, g.get()),
                Entry::Histogram(h) => snap.push_histogram(name, h.snapshot()),
            }
        }
        snap.entries.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::MetricValue;

    #[test]
    fn counter_and_gauge_record() {
        let reg = Registry::new();
        let c = reg.counter("hits");
        let g = reg.gauge("depth");
        c.inc();
        c.add(4);
        g.set(7);
        g.add(-2);
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn registration_is_idempotent() {
        let reg = Registry::new();
        let a = reg.counter("same");
        let b = reg.counter("same");
        a.inc();
        b.inc();
        assert_eq!(a.get(), b.get());
        let snap = reg.snapshot();
        assert_eq!(snap.entries.iter().filter(|(n, _)| n == "same").count(), 1);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::detached(&[10, 100, 1000]);
        for v in [1, 5, 50, 500, 5000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![2, 1, 1, 1]);
        assert_eq!(snap.count(), 5);
        assert_eq!(snap.sum, 5556);
        assert_eq!(snap.quantile(0.5), 100); // 3rd of 5 lands in the <=100 bucket
        assert!(snap.quantile(0.99) > 1000); // overflow bucket
    }

    #[test]
    fn local_counter_flushes_amortized() {
        let c = Counter::detached();
        let mut local = LocalCounter::default();
        for _ in 0..300 {
            local.inc();
        }
        assert_eq!(c.get(), 0, "nothing shared before flush");
        local.flush(&c);
        assert_eq!(local.pending(), 0);
        assert_eq!(c.get(), 300);
    }

    #[test]
    fn latency_bounds_strictly_increase() {
        let bounds = latency_bounds_us();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
        assert_eq!(*bounds.first().unwrap(), 50);
        assert_eq!(*bounds.last().unwrap(), 100_000_000);
    }

    #[test]
    fn concurrent_registration_and_increments_lose_nothing() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    // Every thread registers the same names itself: the
                    // registry must converge on one cell per name.
                    let c = reg.counter("shared_counter");
                    let h = reg.histogram("shared_hist", &[10, 100]);
                    for i in 0..1000u64 {
                        c.inc();
                        h.observe(i % 200);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("shared_counter"), Some(8000));
        match snap.get("shared_hist") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 8000),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_is_consistent_under_concurrent_writes() {
        // Successive snapshots of a monotone counter must themselves be
        // monotone, and once the writer quiesces a snapshot must show the
        // exact retired total — nothing lost, nothing double-counted.
        let reg = Registry::new();
        let c = reg.counter("mono");
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let mut retired = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    c.inc();
                    retired += 1;
                }
                retired
            });
            let mut last = 0u64;
            for _ in 0..200 {
                let v = reg.snapshot().counter("mono").unwrap();
                assert!(v >= last, "snapshot went backwards: {last} -> {v}");
                last = v;
            }
            stop.store(true, Ordering::Relaxed);
            let retired = writer.join().unwrap();
            assert_eq!(reg.snapshot().counter("mono"), Some(retired));
        });
    }
}

//! The Input Generator (§III-B): each thread's window of its last `N`
//! observed RAW dependences.
//!
//! This is the one place a window is formed. The online module keeps one
//! [`DepRing`] as its input generator buffer; the Correct Set, the
//! service's classify and the offline trainer run a [`WindowFormer`] —
//! one ring per thread — over a trace's observed dependences. A window is
//! read in place from its ring, oldest dependence first, so it can go into
//! a flat buffer or straight into an encoder without an intermediate copy.
//! Negative examples are the offline trainer's alone (`act-core`).

use crate::event::{Trace, TraceKind, TraceRecord};
use crate::raw::DepEvent;
use act_sim::events::{RawDep, ThreadId};
use std::collections::HashMap;

/// A dependence sequence sample: `N` consecutive per-thread dependences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqSample {
    /// The dependences, oldest first; `deps.len() == N`.
    pub deps: Vec<RawDep>,
    /// The thread the sequence belongs to.
    pub tid: ThreadId,
    /// Global sequence number of the final load.
    pub seq: u64,
    /// Cycle of the final load (where a flagged window sits in time).
    pub cycle: u64,
    /// Whether this is a positive (observed) or negative (synthesized)
    /// example.
    pub valid: bool,
}

/// One thread's recent dependences as a power-of-two ring: a push is one
/// masked store, and the last-`N` window is `N` masked reads. A slot is
/// simply overwritten once the ring wraps, which *is* the input generator
/// buffer's eviction policy.
#[derive(Debug, Clone)]
pub struct DepRing {
    buf: Box<[RawDep]>,
    mask: usize,
    /// Total pushes since the last clear.
    pushed: u64,
}

impl DepRing {
    /// A ring holding at least `min_capacity` dependences (at least one).
    pub fn new(min_capacity: usize) -> Self {
        let zero = RawDep { store_pc: 0, load_pc: 0, inter_thread: false };
        let cap = min_capacity.max(1).next_power_of_two();
        DepRing { buf: vec![zero; cap].into_boxed_slice(), mask: cap - 1, pushed: 0 }
    }

    /// Dependences pushed since the last clear.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Append a dependence, overwriting the oldest once the ring is full.
    #[inline]
    pub fn push(&mut self, dep: RawDep) {
        self.buf[self.pushed as usize & self.mask] = dep;
        self.pushed += 1;
    }

    /// The most recent `n` dependences, oldest first, read in place.
    /// `n` must be at most the capacity and at most [`DepRing::pushed`].
    #[inline]
    pub fn window(&self, n: usize) -> Window<'_> {
        debug_assert!(n <= self.buf.len() && self.pushed >= n as u64);
        let end = self.pushed as usize;
        Window { ring: self, at: end - n, end }
    }

    /// Forget every dependence (a thread switch).
    pub fn clear(&mut self) {
        self.pushed = 0;
    }
}

/// A window of a [`DepRing`]: its last `N` dependences, oldest first.
#[derive(Debug, Clone)]
pub struct Window<'a> {
    ring: &'a DepRing,
    at: usize,
    end: usize,
}

impl Iterator for Window<'_> {
    type Item = RawDep;

    #[inline]
    fn next(&mut self) -> Option<RawDep> {
        if self.at == self.end {
            return None;
        }
        let dep = self.ring.buf[self.at & self.ring.mask];
        self.at += 1;
        Some(dep)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.at;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Window<'_> {}

/// Forms every thread's windows of `N` dependences from a stream of
/// observed dependences in trace order. A dependence belongs to the thread
/// that executed its load; a thread's first `N − 1` dependences form no
/// window. Rings are kept across [`WindowFormer::reset`], so a former
/// reused over traces with the threads it has seen allocates nothing.
#[derive(Debug, Clone)]
pub struct WindowFormer {
    n: usize,
    /// Rings by slot; slots are handed out in first-seen order per trace,
    /// and a ring left over from an earlier trace is reused.
    rings: Vec<DepRing>,
    slots: HashMap<ThreadId, usize>,
}

impl WindowFormer {
    /// A former of windows of `n` dependences.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "sequence length must be positive");
        WindowFormer { n, rings: Vec::new(), slots: HashMap::new() }
    }

    /// Forget every thread's history, keeping the rings for reuse.
    pub fn reset(&mut self) {
        self.slots.clear();
    }

    /// Feed `dep`, observed by a load of thread `tid`. Returns the thread's
    /// window ending at `dep` once the thread has `N` dependences.
    #[inline]
    pub fn push(&mut self, tid: ThreadId, dep: RawDep) -> Option<Window<'_>> {
        let next = self.slots.len();
        let slot = *self.slots.entry(tid).or_insert(next);
        if slot == self.rings.len() {
            self.rings.push(DepRing::new(self.n));
        } else if slot == next {
            self.rings[slot].clear();
        }
        let n = self.n;
        let ring = &mut self.rings[slot];
        ring.push(dep);
        if ring.pushed < n as u64 {
            return None;
        }
        Some(ring.window(n))
    }

    /// Form every window of `trace`'s observed dependences — its
    /// `Load { dep: Some(..) }` records, the stream the hardware formed —
    /// in trace order, calling `f` with each window's final load. Resets
    /// first: windows never span traces.
    pub fn each_window(&mut self, trace: &Trace, mut f: impl FnMut(&TraceRecord, Window<'_>)) {
        self.reset();
        for r in &trace.records {
            if let TraceKind::Load { dep: Some(dep), .. } = r.kind {
                if let Some(window) = self.push(r.tid, dep) {
                    f(r, window);
                }
            }
        }
    }
}

/// The windows of a dependence stream as positive samples. Kept for the
/// service benchmark's window count; the workspace forms windows with
/// [`WindowFormer`].
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn positive_sequences(deps: &[DepEvent], n: usize) -> Vec<SeqSample> {
    let mut former = WindowFormer::new(n);
    deps.iter()
        .filter_map(|d| {
            let deps = former.push(d.tid, d.dep)?.collect();
            Some(SeqSample { deps, tid: d.tid, seq: d.seq, cycle: d.cycle, valid: true })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_sim::isa::Pc;

    fn dep(store_pc: Pc, load_pc: Pc) -> RawDep {
        RawDep { store_pc, load_pc, inter_thread: false }
    }

    fn ev(seq: u64, tid: ThreadId, d: RawDep) -> DepEvent {
        DepEvent { dep: d, tid, seq, cycle: 10 * seq, prev_writer: None }
    }

    fn load(seq: u64, tid: ThreadId, d: Option<RawDep>) -> TraceRecord {
        TraceRecord { seq, cycle: 10 * seq, tid, pc: 0, kind: TraceKind::Load { addr: 8, dep: d } }
    }

    #[test]
    fn windows_are_per_thread_and_ordered() {
        let deps = vec![
            ev(0, 0, dep(1, 2)),
            ev(1, 1, dep(3, 4)),
            ev(2, 0, dep(5, 6)),
            ev(3, 1, dep(7, 8)),
            ev(4, 0, dep(9, 10)),
        ];
        let pos = positive_sequences(&deps, 2);
        // Thread 0: (1->2, 5->6), (5->6, 9->10); thread 1: (3->4, 7->8).
        assert_eq!(pos.len(), 3);
        assert_eq!(pos[0].deps, vec![dep(1, 2), dep(5, 6)]);
        assert_eq!(pos[1].deps, vec![dep(3, 4), dep(7, 8)]);
        assert_eq!(pos[2].deps, vec![dep(5, 6), dep(9, 10)]);
        assert!(pos.iter().all(|s| s.valid));
        assert!(pos.iter().all(|s| s.cycle == 10 * s.seq), "the final load's cycle");
    }

    #[test]
    fn n_equals_one_yields_singletons_immediately() {
        let deps = vec![ev(0, 0, dep(1, 2)), ev(1, 0, dep(3, 4))];
        let pos = positive_sequences(&deps, 1);
        assert_eq!(pos.len(), 2);
        assert_eq!(pos[0].deps.len(), 1);
    }

    #[test]
    fn warmup_produces_no_windows() {
        let deps = vec![ev(0, 0, dep(1, 2)), ev(1, 0, dep(3, 4))];
        assert!(positive_sequences(&deps, 3).is_empty());
    }

    #[test]
    fn history_bounding_does_not_change_samples() {
        // A long single-thread stream wraps the ring many times: every
        // window must still be the last five dependences.
        let deps: Vec<DepEvent> = (0..200).map(|i| ev(i, 0, dep(i as Pc, (i + 1) as Pc))).collect();
        let pos = positive_sequences(&deps, 5);
        assert_eq!(pos.len(), 200 - 4);
        assert_eq!(
            pos.last().unwrap().deps,
            (195..200).map(|i| dep(i as Pc, (i + 1) as Pc)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn each_window_reads_observed_loads_and_resets_per_trace() {
        let trace = Trace {
            records: vec![
                load(0, 0, Some(dep(1, 2))),
                load(1, 0, None),
                TraceRecord {
                    seq: 2,
                    cycle: 20,
                    tid: 0,
                    pc: 0,
                    kind: TraceKind::Store { addr: 8 },
                },
                load(3, 0, Some(dep(3, 4))),
            ],
            code_len: 10,
        };
        let mut former = WindowFormer::new(2);
        for _ in 0..2 {
            let mut seen = Vec::new();
            former.each_window(&trace, |r, w| seen.push((r.seq, r.cycle, w.collect::<Vec<_>>())));
            assert_eq!(seen, vec![(3, 30, vec![dep(1, 2), dep(3, 4)])], "no window spans traces");
        }
    }

    #[test]
    fn ring_window_reads_the_last_n_in_place() {
        let mut ring = DepRing::new(3);
        for i in 0..6 {
            ring.push(dep(i, i));
        }
        assert_eq!(ring.pushed(), 6);
        let w = ring.window(3);
        assert_eq!(w.len(), 3);
        assert_eq!(w.collect::<Vec<_>>(), vec![dep(3, 3), dep(4, 4), dep(5, 5)]);
        ring.clear();
        assert_eq!(ring.pushed(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_rejected() {
        let _ = WindowFormer::new(0);
    }
}

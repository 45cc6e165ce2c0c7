//! The Correct Set (§III-D): dependence sequences observed in correct
//! executions, used by offline postprocessing to prune and rank the debug
//! buffer.

use crate::input_gen::SeqSample;
use act_sim::events::RawDep;
use std::collections::HashSet;

/// The set of dependence sequences seen in correct runs, with prefix
/// indexing for the ranking step's matched-dependence count.
#[derive(Debug, Clone, Default)]
pub struct CorrectSet {
    /// Full sequences of length `n`.
    full: HashSet<Vec<RawDep>>,
    /// Every proper prefix (lengths `1..n`) of every member.
    prefixes: HashSet<Vec<RawDep>>,
    n: usize,
}

impl CorrectSet {
    /// Build from positive samples (all must have the same length).
    pub fn from_samples<'a, I>(samples: I) -> Self
    where
        I: IntoIterator<Item = &'a SeqSample>,
    {
        let mut set = CorrectSet::default();
        for s in samples {
            set.insert(&s.deps);
        }
        set
    }

    /// Build from whole correct-run traces, e.g. streamed out of an
    /// `act-store` corpus. Each trace contributes the positive dependence
    /// windows of length `n` that the Input Generator would emit, using the
    /// *observed* dependence stream (what the hardware saw), so the set
    /// matches what online classification is scored against.
    pub fn from_corpus<I>(traces: I, n: usize) -> Self
    where
        I: IntoIterator<Item = crate::event::Trace>,
    {
        let mut set = CorrectSet::default();
        for trace in traces {
            let deps = crate::raw::observed_deps(&trace);
            for s in crate::input_gen::positive_sequences(&deps, n) {
                set.insert(&s.deps);
            }
        }
        set
    }

    /// Insert one sequence.
    ///
    /// # Panics
    ///
    /// Panics if sequences of different lengths are mixed.
    pub fn insert(&mut self, deps: &[RawDep]) {
        if self.n == 0 {
            self.n = deps.len();
        }
        assert_eq!(deps.len(), self.n, "mixed sequence lengths in CorrectSet");
        for k in 1..deps.len() {
            self.prefixes.insert(deps[..k].to_vec());
        }
        self.full.insert(deps.to_vec());
    }

    /// Number of distinct full sequences.
    pub fn len(&self) -> usize {
        self.full.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.full.is_empty()
    }

    /// The sequence length `n` (0 if empty).
    pub fn seq_len(&self) -> usize {
        self.n
    }

    /// Whether `deps` appeared, in full, in a correct run (the pruning test).
    pub fn contains(&self, deps: &[RawDep]) -> bool {
        self.full.contains(deps)
    }

    /// The full sequences, in arbitrary order — for serialization (e.g.
    /// `act-serve` persists the set next to the cached weights so a daemon
    /// restart skips rebuilding it from fresh runs).
    pub fn sequences(&self) -> impl Iterator<Item = &Vec<RawDep>> {
        self.full.iter()
    }

    /// Length of the longest prefix of `deps` that matches a prefix of some
    /// correct sequence — the paper's "number of matched RAW dependences"
    /// used for ranking.
    pub fn matched_prefix(&self, deps: &[RawDep]) -> usize {
        if self.full.contains(deps) {
            return deps.len();
        }
        let upper = deps.len().min(self.n.saturating_sub(1));
        for k in (1..=upper).rev() {
            if self.prefixes.contains(&deps[..k]) {
                return k;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_sim::isa::Pc;

    fn dep(s: Pc, l: Pc) -> RawDep {
        RawDep { store_pc: s, load_pc: l, inter_thread: false }
    }

    fn set_of(seqs: &[&[RawDep]]) -> CorrectSet {
        let mut set = CorrectSet::default();
        for s in seqs {
            set.insert(s);
        }
        set
    }

    #[test]
    fn paper_example_matching() {
        // Correct Set: (A1,A2,A3) and (B1,B2,B3).
        let a1 = dep(1, 10);
        let a2 = dep(2, 20);
        let a3 = dep(3, 30);
        let a4 = dep(4, 40);
        let a5 = dep(5, 50);
        let a6 = dep(6, 60);
        let b1 = dep(7, 70);
        let b2 = dep(8, 80);
        let b3 = dep(9, 90);
        let set = set_of(&[&[a1, a2, a3], &[b1, b2, b3]]);

        // (B1,B2,B3) is pruned (fully present).
        assert!(set.contains(&[b1, b2, b3]));
        // (A1,A2,A4): 2 matched dependences.
        assert!(!set.contains(&[a1, a2, a4]));
        assert_eq!(set.matched_prefix(&[a1, a2, a4]), 2);
        // (A1,A5,A6): 1 matched dependence.
        assert_eq!(set.matched_prefix(&[a1, a5, a6]), 1);
        // Nothing matches: 0.
        assert_eq!(set.matched_prefix(&[a5, a6, a4]), 0);
    }

    #[test]
    fn full_match_counts_all() {
        let s = [dep(1, 1), dep(2, 2)];
        let set = set_of(&[&s]);
        assert_eq!(set.matched_prefix(&s), 2);
    }

    #[test]
    fn from_samples_builds_set() {
        let sample =
            SeqSample { deps: vec![dep(1, 2), dep(3, 4)], tid: 0, seq: 0, cycle: 0, valid: true };
        let set = CorrectSet::from_samples([&sample]);
        assert_eq!(set.len(), 1);
        assert_eq!(set.seq_len(), 2);
        assert!(set.contains(&[dep(1, 2), dep(3, 4)]));
    }

    #[test]
    fn from_corpus_builds_windows_from_observed_deps() {
        use crate::event::{Trace, TraceKind, TraceRecord};
        let load = |seq: u64, pc: Pc, d: RawDep| TraceRecord {
            seq,
            cycle: seq,
            tid: 0,
            pc,
            kind: TraceKind::Load { addr: 8, dep: Some(d) },
        };
        let d1 = dep(1, 10);
        let d2 = dep(2, 20);
        let d3 = dep(3, 30);
        let trace = Trace {
            records: vec![load(0, 10, d1), load(1, 20, d2), load(2, 30, d3)],
            code_len: 40,
        };
        let set = CorrectSet::from_corpus([trace], 2);
        assert_eq!(set.seq_len(), 2);
        assert!(set.contains(&[d1, d2]));
        assert!(set.contains(&[d2, d3]));
        assert!(!set.contains(&[d1, d3]));
    }

    #[test]
    fn sequences_iterates_full_members_only() {
        let set = set_of(&[&[dep(1, 2), dep(3, 4)], &[dep(5, 6), dep(7, 8)]]);
        let mut seqs: Vec<Vec<RawDep>> = set.sequences().cloned().collect();
        seqs.sort();
        assert_eq!(seqs, vec![vec![dep(1, 2), dep(3, 4)], vec![dep(5, 6), dep(7, 8)]]);
        // Prefixes are indexed but not iterated.
        assert_eq!(set.sequences().count(), 2);
    }

    #[test]
    fn empty_set_matches_nothing() {
        let set = CorrectSet::default();
        assert!(set.is_empty());
        assert_eq!(set.matched_prefix(&[dep(1, 2)]), 0);
        assert!(!set.contains(&[dep(1, 2)]));
    }

    #[test]
    #[should_panic(expected = "mixed sequence lengths")]
    fn mixed_lengths_panic() {
        let mut set = CorrectSet::default();
        set.insert(&[dep(1, 2)]);
        set.insert(&[dep(1, 2), dep(3, 4)]);
    }
}

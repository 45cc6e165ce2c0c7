//! The Input Generator (§III-B): groups of `N` consecutive RAW dependences
//! from the same thread, forming positive examples, plus synthesized
//! negative examples where the final dependence's store is replaced by the
//! previous writer of the same word.

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

/// Generate positive and negative sequence samples of length `n`.
///
/// Dependences are grouped per thread (a dependence belongs to the
/// processor executing its load). The first `n − 1` dependences of each
/// thread produce no sample (there is no full history yet). A negative
/// sample is produced for a window whenever the final dependence has a
/// distinct previous writer.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn sequences(deps: &[DepEvent], n: usize) -> (Vec<SeqSample>, Vec<SeqSample>) {
    sequences_ext(deps, n, 0)
}

/// Like [`sequences`], with `cross_negs` additional negatives per window:
/// the final dependence's store is replaced by the store of *another*
/// distinct dependence observed in the trace.
///
/// The paper's input generator only synthesizes the previous-writer
/// negative `S'→L`; with word-granularity metadata many words have a
/// single writer, leaving most of the invalid input space unconstrained —
/// the network would then classify *novel* (buggy) communications as valid
/// by default. Cross negatives teach it the PSet-style invariant the
/// scheme depends on: a load fed by a store it was never observed to pair
/// with is suspect.
///
/// Synthesized negatives can collide with genuinely valid sequences from
/// elsewhere in the program; callers pooling several traces should filter
/// negatives against the full positive set (see `act-core`'s offline
/// trainer).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn sequences_ext(
    deps: &[DepEvent],
    n: usize,
    cross_negs: usize,
) -> (Vec<SeqSample>, Vec<SeqSample>) {
    assert!(n > 0, "sequence length must be positive");

    // Donors for cross negatives: the distinct dependences of the trace,
    // plus *jittered* variants whose store is displaced by a few
    // instructions. Jitter matters: real buggy communications usually
    // involve a store near a valid one (same function), and without
    // negatives ringing each positive the classifier's valid regions
    // stretch unboundedly along the positional dimensions.
    let mut donors: Vec<RawDep> = deps.iter().map(|d| d.dep).collect();
    donors.sort_unstable();
    donors.dedup();
    let observed = donors.clone();
    for d in &observed {
        for off in [-13i64, -7, -3, 3, 7, 13] {
            let store = d.store_pc as i64 + off;
            if store >= 0 {
                donors.push(RawDep { store_pc: store as u32, ..*d });
            }
            // Also flip the inter-thread flag (a same-PC store from the
            // wrong thread is a classic racy communication).
            donors.push(RawDep { inter_thread: !d.inter_thread, ..*d });
        }
    }
    donors.sort_unstable();
    donors.dedup();

    let mut history: HashMap<ThreadId, Vec<RawDep>> = HashMap::new();
    let mut positives = Vec::new();
    let mut negatives = Vec::new();
    for (w, d) in deps.iter().enumerate() {
        let h = history.entry(d.tid).or_default();
        if h.len() >= n - 1 {
            let sample =
                |deps, valid| SeqSample { deps, tid: d.tid, seq: d.seq, cycle: d.cycle, valid };
            let prefix = &h[h.len() - (n - 1)..];
            let window = [prefix, &[d.dep]].concat();
            if let Some(neg_dep) = d.negative() {
                negatives.push(sample([prefix, &[neg_dep]].concat(), false));
            }
            if donors.len() > 1 {
                for k in 0..cross_negs {
                    // Perturb a rotating position of the window (bugs
                    // corrupt prefix dependences as often as the final
                    // one). Even picks prefer donors that feed the *same
                    // load* — the most confusable neighbours and exactly
                    // what a wrong-writer bug looks like; odd picks draw
                    // from the global donor pool.
                    let at = (w + k) % n;
                    let donor = if k % 2 == 0 {
                        let same_load: Vec<&RawDep> = donors
                            .iter()
                            .filter(|dd| {
                                dd.load_pc == window[at].load_pc
                                    && dd.store_pc != window[at].store_pc
                            })
                            .collect();
                        if same_load.is_empty() {
                            donors[(w * 7 + k * 13 + 3) % donors.len()]
                        } else {
                            *same_load[(w * 5 + k) % same_load.len()]
                        }
                    } else {
                        donors[(w * 7 + k * 13 + 3) % donors.len()]
                    };
                    if donor.store_pc == window[at].store_pc {
                        continue;
                    }
                    let mut neg = window.clone();
                    neg[at] = RawDep {
                        store_pc: donor.store_pc,
                        load_pc: window[at].load_pc,
                        inter_thread: donor.inter_thread,
                    };
                    negatives.push(sample(neg, false));
                }
            }
            positives.push(sample(window, true));
        }
        h.push(d.dep);
        // Bound per-thread history to what windows need.
        if h.len() > 4 * n {
            let cut = h.len() - n;
            h.drain(..cut);
        }
    }
    (positives, negatives)
}

/// Only the positive samples (for building the Correct Set).
pub fn positive_sequences(deps: &[DepEvent], n: usize) -> Vec<SeqSample> {
    sequences(deps, n).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_sim::isa::Pc;

    fn dep(store_pc: Pc, load_pc: Pc) -> RawDep {
        RawDep { store_pc, load_pc, inter_thread: false }
    }

    fn ev(seq: u64, tid: ThreadId, d: RawDep, prev: Option<Pc>) -> DepEvent {
        DepEvent { dep: d, tid, seq, cycle: 10 * seq, prev_writer: prev.map(|p| (p, tid)) }
    }

    #[test]
    fn windows_are_per_thread_and_ordered() {
        let deps = vec![
            ev(0, 0, dep(1, 2), None),
            ev(1, 1, dep(3, 4), None),
            ev(2, 0, dep(5, 6), None),
            ev(3, 1, dep(7, 8), None),
            ev(4, 0, dep(9, 10), None),
        ];
        let (pos, neg) = sequences(&deps, 2);
        assert!(neg.is_empty());
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
        let deps = vec![ev(0, 0, dep(1, 2), None), ev(1, 0, dep(3, 4), None)];
        let (pos, _) = sequences(&deps, 1);
        assert_eq!(pos.len(), 2);
        assert_eq!(pos[0].deps.len(), 1);
    }

    #[test]
    fn warmup_produces_no_windows() {
        let deps = vec![ev(0, 0, dep(1, 2), None), ev(1, 0, dep(3, 4), None)];
        let (pos, _) = sequences(&deps, 3);
        assert!(pos.is_empty());
    }

    #[test]
    fn negatives_replace_final_dep() {
        let deps = vec![
            ev(0, 0, dep(1, 2), None),
            ev(1, 0, dep(5, 6), Some(3)), // prev writer at pc 3
        ];
        let (pos, neg) = sequences(&deps, 2);
        assert_eq!(pos.len(), 1);
        assert_eq!(neg.len(), 1);
        assert_eq!(neg[0].deps, vec![dep(1, 2), dep(3, 6)]);
        assert!(!neg[0].valid);
        // The shared prefix matches the positive sample's.
        assert_eq!(neg[0].deps[0], pos[0].deps[0]);
    }

    #[test]
    fn history_bounding_does_not_change_samples() {
        // Long single-thread stream: bounded history must give identical
        // windows to an unbounded reference implementation.
        let deps: Vec<DepEvent> =
            (0..200).map(|i| ev(i, 0, dep(i as Pc, (i + 1) as Pc), None)).collect();
        let (pos, _) = sequences(&deps, 5);
        assert_eq!(pos.len(), 200 - 4);
        // Spot-check a late window.
        assert_eq!(
            pos.last().unwrap().deps,
            (195..200).map(|i| dep(i as Pc, (i + 1) as Pc)).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_rejected() {
        let _ = sequences(&[], 0);
    }
}

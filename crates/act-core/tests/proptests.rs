//! Property-based tests for ACT's core analyses.

use act_core::encoding::{Encoder, FEATURES_PER_DEP};
use act_core::module::DebugEntry;
use act_core::postprocess::postprocess;
use act_sim::events::RawDep;
use act_trace::correct_set::CorrectSet;
use proptest::prelude::*;

fn arb_dep() -> impl Strategy<Value = RawDep> {
    (0u32..200, 0u32..200, any::<bool>()).prop_map(|(s, l, i)| RawDep {
        store_pc: s,
        load_pc: l,
        inter_thread: i,
    })
}

proptest! {
    /// Encodings are total functions into [0,1]^k and injective-modulo-hash:
    /// equal deps encode equal, and the positional features alone already
    /// distinguish deps with different pcs.
    #[test]
    fn encoding_is_bounded_and_stable(dep in arb_dep(), code_len in 1usize..2048) {
        let enc = Encoder::new(code_len.max(200));
        let x = enc.encode_seq(&[dep]);
        prop_assert_eq!(x.len(), FEATURES_PER_DEP);
        prop_assert!(x.iter().all(|v| (0.0..=1.0).contains(v)));
        prop_assert_eq!(x.clone(), enc.encode_seq(&[dep]));
    }

    /// The scratch-buffer encode paths are bit-identical to the allocating
    /// one, whatever state the reused buffer is in: `encode_seq_into` (and
    /// the iterator-fed `encode_iter_into` behind it) must reshape and
    /// fully overwrite the buffer, never blend in stale contents.
    #[test]
    fn scratch_encode_matches_encode_seq(
        deps in prop::collection::vec(arb_dep(), 1..8),
        code_len in 1usize..2048,
        stale in prop::collection::vec(-2.0f32..2.0, 0..48),
    ) {
        let enc = Encoder::new(code_len);
        let fresh = enc.encode_seq(&deps);
        let mut buf = stale.clone();
        enc.encode_seq_into(&deps, &mut buf);
        prop_assert_eq!(&buf, &fresh);
        // Iterator path, fed non-contiguously (as the IGB ring does).
        let mut buf2 = stale;
        enc.encode_iter_into((0..deps.len()).map(|i| deps[i]), &mut buf2);
        prop_assert_eq!(&buf2, &fresh);
        // Steady state: re-encoding into the same buffer is stable.
        enc.encode_seq_into(&deps, &mut buf2);
        prop_assert_eq!(&buf2, &fresh);
    }

    /// Postprocess invariants: every pruned sequence was in the correct
    /// set; ranking is sorted by matched desc then output asc; rank_where
    /// finds only surviving sequences.
    #[test]
    fn postprocess_orders_and_prunes(
        entries in prop::collection::vec(
            (prop::collection::vec(arb_dep(), 2), 0.0f32..0.5, 0u64..1000),
            0..40
        ),
        correct in prop::collection::vec(prop::collection::vec(arb_dep(), 2), 0..10),
    ) {
        let mut set = CorrectSet::default();
        for c in &correct {
            set.insert(c);
        }
        let debug: Vec<DebugEntry> = entries
            .iter()
            .map(|(deps, output, cycle)| DebugEntry {
                deps: deps.clone(),
                output: *output,
                cycle: *cycle,
                tid: 0,
            })
            .collect();
        let diag = postprocess(&debug, &set);
        // No survivor is in the correct set.
        for r in &diag.ranked {
            prop_assert!(!set.contains(&r.deps));
            prop_assert!(r.matched <= r.deps.len());
        }
        // Ordering.
        for w in diag.ranked.windows(2) {
            prop_assert!(
                w[0].matched > w[1].matched
                    || (w[0].matched == w[1].matched && w[0].output <= w[1].output)
            );
        }
        // Accounting.
        prop_assert_eq!(diag.distinct, diag.ranked.len() + diag.pruned);
        prop_assert!(diag.total_logged >= diag.distinct);
    }
}

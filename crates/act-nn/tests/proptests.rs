//! Property-based tests for the neural substrate.

use act_nn::network::{Network, Topology};
use act_nn::pipeline::{NnPipeline, PipelineConfig};
use act_nn::sigmoid::{sigmoid, SigmoidTable};
use proptest::prelude::*;

proptest! {
    /// Network outputs are always valid probabilities, and flat-weight
    /// round-tripping preserves behaviour exactly.
    #[test]
    fn outputs_are_probabilities_and_weights_round_trip(
        seed in any::<u64>(),
        inputs in 1usize..10,
        hidden in 1usize..10,
        x in prop::collection::vec(0.0f32..1.0, 10),
    ) {
        let topo = Topology::new(inputs, hidden);
        let mut net = Network::random(topo, 0.2, seed);
        let x = &x[..inputs];
        let o = net.predict(x);
        prop_assert!(o > 0.0 && o < 1.0);
        let mut copy = Network::from_flat(topo, &net.weights_flat(), 0.2);
        prop_assert_eq!(o, copy.predict(x));
    }

    /// Training toward a target never produces NaN and moves the output in
    /// the right direction on average.
    #[test]
    fn training_is_stable(
        seed in any::<u64>(),
        x in prop::collection::vec(0.0f32..1.0, 6),
        t in 0u8..2,
    ) {
        let mut net = Network::random(Topology::new(6, 4), 0.5, seed);
        let target = t as f32;
        let before = net.predict(&x);
        for _ in 0..50 {
            net.train(&x, target);
        }
        let after = net.predict(&x);
        prop_assert!(after.is_finite());
        prop_assert!((after - target).abs() <= (before - target).abs() + 1e-3);
    }

    /// The tiled forward pass is bit-identical to a direct transcription of
    /// the documented summation contract (DESIGN.md § Performance): each
    /// hidden row accumulates bias-first then left-to-right over the
    /// inputs; the output row accumulates in four lanes (element `i` into
    /// lane `i % 4`, the bias folded in as a `1.0` activation) reduced as
    /// `(l0 + l1) + (l2 + l3)`.
    #[test]
    fn predict_matches_reference_contract(
        seed in any::<u64>(),
        inputs in 1usize..24,
        hidden in 1usize..16,
        x in prop::collection::vec(0.0f32..1.0, 24),
    ) {
        let topo = Topology::new(inputs, hidden);
        let mut net = Network::random(topo, 0.2, seed);
        let x = &x[..inputs];
        let flat = net.weights_flat();
        let cols = inputs + 1;
        let mut act = vec![0.0f32; hidden + 1];
        for h in 0..hidden {
            let row = &flat[h * cols..(h + 1) * cols];
            let mut a = row[inputs]; // bias first
            for (w, &xc) in row[..inputs].iter().zip(x) {
                a += w * xc;
            }
            act[h] = sigmoid(a);
        }
        act[hidden] = 1.0;
        let out_row = &flat[hidden * cols..];
        let mut lanes = [0.0f32; 4];
        for (i, (&w, &a)) in out_row.iter().zip(&act).enumerate() {
            lanes[i % 4] += w * a;
        }
        let reference = sigmoid((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]));
        let o = net.predict(x);
        prop_assert_eq!(o.to_bits(), reference.to_bits());
    }

    /// Batched inference is bit-identical to the sequential loop it
    /// replaces — for any batch size, topology, and input contents, and
    /// across model mutation (training between calls must leave both
    /// paths in lockstep). This is the invariant the coalescing server
    /// leans on: a client cannot tell from the bytes of a reply whether
    /// its request ran alone or inside a batch.
    #[test]
    fn batched_predict_is_bit_identical_to_sequential(
        seed in any::<u64>(),
        inputs in 1usize..24,
        hidden in 1usize..16,
        batch in 1usize..33,
        raw in prop::collection::vec(0.0f32..1.0, 24 * 32),
    ) {
        let topo = Topology::new(inputs, hidden);
        let mut net = Network::random(topo, 0.2, seed);
        let mut reference = Network::from_flat(topo, &net.weights_flat(), 0.2);
        let xs = &raw[..inputs * batch];
        for round in 0..2 {
            let seq: Vec<f32> = xs.chunks_exact(inputs).map(|x| reference.predict(x)).collect();
            let mut out = Vec::new();
            let mut valid = Vec::new();
            net.classify_batch(xs, &mut out, &mut valid);
            prop_assert_eq!(out.len(), batch);
            for (row, (&batched, &sequential)) in out.iter().zip(&seq).enumerate() {
                prop_assert!(
                    batched.to_bits() == sequential.to_bits(),
                    "round {} row {}: batched {} != sequential {}",
                    round, row, batched, sequential
                );
                prop_assert_eq!(valid[row], Network::classify(sequential));
            }
            // Mutate both models identically, then re-check: batching must
            // stay bit-exact on a trained (non-random) weight matrix too.
            net.train(&xs[..inputs], 1.0);
            reference.train(&xs[..inputs], 1.0);
        }
    }

    /// The sigmoid table approximates the exact function everywhere.
    #[test]
    fn sigmoid_table_is_accurate(x in -20.0f32..20.0) {
        let t = SigmoidTable::hardware_default();
        prop_assert!((t.eval(x) - sigmoid(x)).abs() < 2e-3);
    }

    /// Pipeline invariants under arbitrary offer patterns: occupancy never
    /// exceeds capacity, accepted = serviced + queued, rejected only when
    /// full.
    #[test]
    fn pipeline_conserves_inputs(
        offers in prop::collection::vec(0u64..5, 1..200),
        fifo in 1usize..16,
        units in 1usize..10,
    ) {
        let cfg = PipelineConfig {
            fifo_capacity: fifo,
            mul_add_units: units,
            ..Default::default()
        };
        let mut p = NnPipeline::new(cfg);
        let mut now = 0;
        for gap in &offers {
            now += gap;
            let _ = p.try_accept(now);
            prop_assert!(p.occupancy() <= fifo);
            let s = p.stats();
            prop_assert_eq!(s.accepted, s.serviced + p.occupancy() as u64);
        }
        // Eventually everything drains.
        p.tick(now + 10_000);
        prop_assert_eq!(p.occupancy(), 0);
        let s = p.stats();
        prop_assert_eq!(s.accepted, s.serviced);
    }
}

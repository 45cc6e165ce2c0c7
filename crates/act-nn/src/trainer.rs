//! Offline training: epoch-based back-propagation of one `i × h × 1`
//! network (§III-B).
//!
//! This replaces the OpenCV MLP library the paper trains with (its
//! reference 27): the caller supplies labelled examples (positive =
//! observed RAW dependence sequences, negative = synthesized invalid ones)
//! and the topology. The paper lets its library choose the topology; here
//! the caller configures it, because a search by held-out error prefers
//! sequence length 1, which cannot express the context bugs ACT targets.

use crate::network::{Network, Topology};
use act_rng::rngs::StdRng;
use act_rng::seq::SliceRandom;
use act_rng::SeedableRng;

/// One labelled training example.
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    /// Encoded input vector.
    pub x: Vec<f32>,
    /// Target: 1.0 for a valid sequence, 0.0 for an invalid one.
    pub t: f32,
}

impl Example {
    /// A positive (valid) example.
    pub fn valid(x: Vec<f32>) -> Self {
        Example { x, t: 1.0 }
    }

    /// A negative (invalid) example.
    pub fn invalid(x: Vec<f32>) -> Self {
        Example { x, t: 0.0 }
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Back-propagation learning rate (paper: 0.2).
    pub learning_rate: f32,
    /// Upper bound on training epochs.
    pub max_epochs: usize,
    /// Stop early once the epoch's misclassification rate is at or below
    /// this value.
    pub target_error: f64,
    /// Seed for weight initialization and example shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { learning_rate: 0.2, max_epochs: 60, target_error: 0.0, seed: 1 }
    }
}

/// Result of training a single network.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// The trained network.
    pub network: Network,
    /// Number of epochs actually run.
    pub epochs: usize,
    /// Misclassification rate over the training set after the final epoch.
    pub train_error: f64,
}

/// Classification quality over a labelled set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalStats {
    /// Examples evaluated.
    pub total: usize,
    /// Valid examples predicted invalid (false positives in the paper's
    /// terms: spurious logging).
    pub false_positives: usize,
    /// Invalid examples predicted valid (false negatives: missed bugs).
    pub false_negatives: usize,
}

impl EvalStats {
    /// Total mispredictions.
    pub fn mispredictions(&self) -> usize {
        self.false_positives + self.false_negatives
    }

    /// Misprediction rate in `[0, 1]`; 0 for an empty set.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.mispredictions() as f64 / self.total as f64
        }
    }
}

/// Train a network of shape `topo` on `examples`.
///
/// Examples are shuffled each epoch; training stops early when the epoch
/// misclassification rate reaches `cfg.target_error`.
pub fn train_network(topo: Topology, examples: &[Example], cfg: TrainConfig) -> TrainResult {
    // Start from a default-invalid prior: the output bias begins strongly
    // negative, so input regions no example ever visits stay classified
    // invalid. This is the property ACT's online testing depends on — a
    // communication never observed in a correct run must look suspicious —
    // and it mirrors the default weights given to untrained threads (§IV-C).
    let mut net = Network::random(topo, cfg.learning_rate, cfg.seed);
    let mut weights = net.weights_flat();
    *weights.last_mut().expect("nonempty") -= 3.0;
    net = Network::from_flat(topo, &weights, cfg.learning_rate);
    let mut order: Vec<usize> = (0..examples.len()).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xeca7_55de);
    let mut epochs = 0;
    let mut train_error = 1.0;
    for _ in 0..cfg.max_epochs {
        epochs += 1;
        order.shuffle(&mut rng);
        let mut wrong = 0usize;
        for &i in &order {
            let ex = &examples[i];
            let o = net.train(&ex.x, ex.t);
            if Network::classify(o) != (ex.t >= 0.5) {
                wrong += 1;
            }
        }
        train_error = if examples.is_empty() { 0.0 } else { wrong as f64 / examples.len() as f64 };
        if train_error <= cfg.target_error {
            break;
        }
    }
    TrainResult { network: net, epochs, train_error }
}

/// Evaluate a network's classification quality on a labelled set.
pub fn evaluate(net: &mut Network, examples: &[Example]) -> EvalStats {
    let mut stats = EvalStats { total: examples.len(), ..Default::default() };
    for ex in examples {
        let predicted_valid = Network::classify(net.predict(&ex.x));
        let actually_valid = ex.t >= 0.5;
        match (actually_valid, predicted_valid) {
            (true, false) => stats.false_positives += 1,
            (false, true) => stats.false_negatives += 1,
            _ => {}
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy separable problem: valid iff x[0] > x[1].
    fn toy_examples(n: usize, seed: u64) -> Vec<Example> {
        use act_rng::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let a: f32 = rng.gen_range(0.0..1.0);
                let b: f32 = rng.gen_range(0.0..1.0);
                Example { x: vec![a, b], t: if a > b { 1.0 } else { 0.0 } }
            })
            .collect()
    }

    #[test]
    fn trains_to_low_error_on_separable_data() {
        let train = toy_examples(300, 1);
        let test = toy_examples(100, 2);
        let cfg = TrainConfig { max_epochs: 200, ..Default::default() };
        let result = train_network(Topology::new(2, 4), &train, cfg);
        let mut net = result.network;
        let stats = evaluate(&mut net, &test);
        assert!(stats.rate() < 0.1, "test error {} too high", stats.rate());
    }

    #[test]
    fn early_stop_when_perfect() {
        // Trivial constant-valid data: should stop well before max_epochs.
        let train: Vec<Example> =
            (0..50).map(|i| Example::valid(vec![i as f32 / 50.0, 0.5])).collect();
        let cfg = TrainConfig { max_epochs: 500, ..Default::default() };
        let result = train_network(Topology::new(2, 2), &train, cfg);
        assert!(result.epochs < 500);
        assert_eq!(result.train_error, 0.0);
    }

    #[test]
    fn eval_stats_distinguish_fp_fn() {
        let mut net = Network::random(Topology::new(1, 1), 0.2, 1);
        // Train hard toward "always valid".
        for _ in 0..500 {
            net.train(&[0.5], 1.0);
        }
        let stats = evaluate(&mut net, &[Example::valid(vec![0.5]), Example::invalid(vec![0.5])]);
        assert_eq!(stats.false_positives, 0);
        assert_eq!(stats.false_negatives, 1);
        assert_eq!(stats.mispredictions(), 1);
        assert!((stats.rate() - 0.5).abs() < 1e-9);
    }
}

//! ACT configuration (paper Table III, "Parameters of ACT Module").

use act_nn::error::ConfigError;
use act_nn::pipeline::PipelineConfig;
use act_nn::trainer::{SearchSpace, TrainConfig};

/// Full configuration of the ACT mechanism.
#[derive(Debug, Clone)]
pub struct ActConfig {
    /// Maximum inputs per neuron, `M`. With five features per dependence
    /// this caps the sequence length at `M / 5`.
    pub max_inputs: usize,
    /// Input-generator-buffer capacity (recent dependences kept per core).
    pub igb_capacity: usize,
    /// Debug-buffer capacity (recent invalid sequences kept per core).
    pub debug_capacity: usize,
    /// Misprediction-rate threshold for switching between online testing and
    /// training (paper: 5%).
    pub mispred_threshold: f64,
    /// Number of predictions between misprediction-rate checks.
    pub check_interval: u64,
    /// Hardware pipeline parameters (multiply-add units, FIFO size, ...).
    pub pipeline: PipelineConfig,
    /// Topology search space for offline training.
    pub search: SearchSpace,
    /// Back-propagation hyper-parameters.
    pub train: TrainConfig,
    /// Fraction of collected traces held out for topology evaluation.
    pub test_fraction: f64,
    /// Cap on examples used per candidate during topology search (the full
    /// example set is still used for per-thread fine-tuning). Keeps the
    /// `M²` search tractable on dependence-heavy workloads.
    pub max_search_examples: usize,
    /// Worker threads for the offline topology search: the `(seq_len,
    /// hidden)` candidate grid fans across this many threads. `1` runs
    /// serially; any value produces a byte-identical outcome (see
    /// `act_nn::trainer::topology_search_with_workers`).
    pub search_workers: usize,
    /// Code length to normalize instruction addresses by; `0` means "use
    /// the program's actual length". Workloads that grow (new code
    /// appended) fix this to a constant so old code's features stay put.
    pub norm_code_len: usize,
    /// Cross negatives synthesized per training window, in addition to the
    /// paper's previous-writer negative (0 disables; see DESIGN.md §5).
    pub cross_negs: usize,
    /// Noise negatives added per training set, as a fraction of its size
    /// (0.0 disables the default-invalid prior's data component).
    pub noise_fraction: f64,
}

impl Default for ActConfig {
    fn default() -> Self {
        ActConfig {
            max_inputs: 10,
            igb_capacity: 50,
            debug_capacity: 60,
            mispred_threshold: 0.05,
            check_interval: 200,
            pipeline: PipelineConfig::default(),
            // Five features per dependence and M = 10 inputs cap the
            // sequence length at 2 (the paper's two-feature-per-dep sweep
            // reaches 5; see DESIGN.md on the encoding substitution).
            search: SearchSpace { seq_lens: (1..=2).collect(), ..SearchSpace::default() },
            train: TrainConfig::default(),
            test_fraction: 0.5,
            max_search_examples: 4000,
            search_workers: 1,
            norm_code_len: 0,
            cross_negs: 4,
            noise_fraction: 1.0 / 3.0,
        }
    }
}

impl ActConfig {
    /// Validate internal consistency, naming the offending field on
    /// failure: non-zero buffer sizes, a threshold inside `(0, 1)`, and a
    /// search space whose sequences fit the hardware's input capacity.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_inputs == 0 {
            return Err(ConfigError::new("max_inputs", "must be at least 1"));
        }
        if self.igb_capacity == 0 {
            return Err(ConfigError::new("igb_capacity", "must be at least 1"));
        }
        if self.debug_capacity == 0 {
            return Err(ConfigError::new("debug_capacity", "must be at least 1"));
        }
        if !(self.mispred_threshold > 0.0 && self.mispred_threshold < 1.0) {
            return Err(ConfigError::new("mispred_threshold", "must be inside (0, 1)"));
        }
        if self.check_interval == 0 {
            return Err(ConfigError::new("check_interval", "must be at least 1"));
        }
        self.pipeline.validate()?;
        let max_n = self.max_inputs / crate::encoding::FEATURES_PER_DEP;
        if !self.search.seq_lens.iter().all(|&n| n >= 1 && n <= max_n) {
            return Err(ConfigError::new(
                "search.seq_lens",
                format!("sequence lengths must fit the neuron's {} inputs", self.max_inputs),
            ));
        }
        if !(self.test_fraction > 0.0 && self.test_fraction < 1.0) {
            return Err(ConfigError::new("test_fraction", "must be inside (0, 1)"));
        }
        if self.search_workers == 0 {
            return Err(ConfigError::new("search_workers", "must be at least 1"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = ActConfig::default();
        c.validate().expect("default config is valid");
        assert_eq!(c.max_inputs, 10);
        assert_eq!(c.igb_capacity, 50);
        assert_eq!(c.debug_capacity, 60);
        assert!((c.mispred_threshold - 0.05).abs() < 1e-12);
        assert!((c.train.learning_rate - 0.2).abs() < 1e-6);
        assert_eq!(c.search.seq_lens, vec![1, 2]);
        assert_eq!(c.search.hidden_sizes.len(), 10);
    }

    #[test]
    fn oversized_sequences_rejected() {
        let mut c = ActConfig::default();
        c.search.seq_lens = vec![3]; // 15 inputs > M=10
        let err = c.validate().unwrap_err();
        assert_eq!(err.field, "search.seq_lens");
        assert!(err.to_string().contains("sequence lengths"), "{err}");
    }

    /// A config field's name and a way to break it.
    type Breaker = (&'static str, fn(&mut ActConfig));

    #[test]
    fn validation_names_fields_instead_of_panicking() {
        let cases: [Breaker; 4] = [
            ("igb_capacity", |c| c.igb_capacity = 0),
            ("mispred_threshold", |c| c.mispred_threshold = 1.5),
            ("search_workers", |c| c.search_workers = 0),
            ("fifo_capacity", |c| c.pipeline.fifo_capacity = 0),
        ];
        for (field, break_it) in cases {
            let mut c = ActConfig::default();
            break_it(&mut c);
            assert_eq!(c.validate().unwrap_err().field, field);
        }
    }
}

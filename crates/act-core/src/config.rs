//! ACT configuration (paper Table III, "Parameters of ACT Module").

use act_nn::error::ConfigError;
use act_nn::pipeline::PipelineConfig;
use act_nn::trainer::TrainConfig;

/// The epoch cap of [`ActConfig::recipe`] when a caller asks for none.
const DEFAULT_MAX_EPOCHS: usize = 300;

/// Full configuration of the ACT mechanism.
#[derive(Debug, Clone)]
pub struct ActConfig {
    /// Input-generator-buffer capacity (recent dependences kept per core).
    pub igb_capacity: usize,
    /// Debug-buffer capacity (recent invalid sequences kept per core).
    pub debug_capacity: usize,
    /// Misprediction-rate threshold for switching between online testing and
    /// training (paper: 5%).
    pub mispred_threshold: f64,
    /// Number of predictions between misprediction-rate checks.
    pub check_interval: u64,
    /// Hardware pipeline parameters (maximum inputs per neuron `M`,
    /// multiply-add units, FIFO size, ...).
    pub pipeline: PipelineConfig,
    /// Sequence length `N`: RAW dependences per network input. The network
    /// takes five features per dependence, so `N ≤ M / 5`.
    pub seq_len: usize,
    /// Hidden-layer size `h` of the trained `5N × h × 1` network.
    pub hidden: usize,
    /// Back-propagation hyper-parameters.
    pub train: TrainConfig,
    /// Fraction of collected traces held out to score the trained network
    /// (Table IV's false-positive rate, Fig 7(a)'s false negatives).
    pub test_fraction: f64,
    /// Cap on the pooled training set's examples (per-thread refinement
    /// still uses every example). Keeps training tractable on
    /// dependence-heavy workloads.
    pub max_train_examples: usize,
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
            igb_capacity: 50,
            debug_capacity: 60,
            mispred_threshold: 0.05,
            check_interval: 200,
            pipeline: PipelineConfig::default(),
            // Five features per dependence and M = 10 inputs cap the
            // sequence length at 2 (the paper's two-feature-per-dep sweep
            // reaches 5; see DESIGN.md on the encoding substitution).
            seq_len: 2,
            hidden: 10,
            train: TrainConfig::default(),
            test_fraction: 0.5,
            max_train_examples: 4000,
            norm_code_len: 0,
            cross_negs: 4,
            noise_fraction: 1.0 / 3.0,
        }
    }
}

impl ActConfig {
    /// The one training recipe, shared by the experiment harness and the
    /// diagnosis daemon: the topology pinned to `seq_len` × `hidden` (0
    /// counts as 1), learning rate 0.5, `max_epochs` epochs (0 means the
    /// default 300), and training seed `seed + 1`. Online retraining runs
    /// at the same rate. [`ActConfig::default`] keeps the paper's 0.2.
    pub fn recipe(seq_len: usize, hidden: usize, max_epochs: usize, seed: u64) -> ActConfig {
        let mut cfg =
            ActConfig { seq_len: seq_len.max(1), hidden: hidden.max(1), ..ActConfig::default() };
        cfg.train.max_epochs = if max_epochs == 0 { DEFAULT_MAX_EPOCHS } else { max_epochs };
        cfg.train.learning_rate = 0.5;
        cfg.train.seed = seed.wrapping_add(1);
        cfg
    }

    /// Validate internal consistency, naming the offending field on
    /// failure: non-zero buffer sizes, a threshold inside `(0, 1)`, and a
    /// topology whose sequences fit the hardware's input capacity.
    pub fn validate(&self) -> Result<(), ConfigError> {
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
        if self.seq_len == 0 {
            return Err(ConfigError::new("seq_len", "must be at least 1"));
        }
        let inputs = self.seq_len * crate::encoding::FEATURES_PER_DEP;
        if inputs > self.pipeline.max_inputs {
            return Err(ConfigError::new(
                "seq_len",
                format!(
                    "must fit the neuron's {} inputs: {} dependences take {inputs}",
                    self.pipeline.max_inputs, self.seq_len
                ),
            ));
        }
        if self.hidden == 0 {
            return Err(ConfigError::new("hidden", "must be at least 1"));
        }
        if !(self.test_fraction > 0.0 && self.test_fraction < 1.0) {
            return Err(ConfigError::new("test_fraction", "must be inside (0, 1)"));
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
        assert_eq!(c.pipeline.max_inputs, 10);
        assert_eq!(c.igb_capacity, 50);
        assert_eq!(c.debug_capacity, 60);
        assert!((c.mispred_threshold - 0.05).abs() < 1e-12);
        assert!((c.train.learning_rate - 0.2).abs() < 1e-6);
        assert_eq!((c.seq_len, c.hidden), (2, 10));
    }

    #[test]
    fn recipe_pins_the_topology_and_the_schedule() {
        let c = ActConfig::recipe(2, 10, 0, 0);
        c.validate().expect("the recipe is valid");
        assert_eq!((c.seq_len, c.hidden), (2, 10));
        assert_eq!(c.train.max_epochs, 300, "0 asks for the default cap");
        assert!((c.train.learning_rate - 0.5).abs() < 1e-6);
        assert_eq!(c.train.seed, TrainConfig::default().seed, "seed 0 trains at the default seed");
        let c = ActConfig::recipe(0, 0, 30, 7);
        assert_eq!((c.seq_len, c.hidden), (1, 1));
        assert_eq!((c.train.max_epochs, c.train.seed), (30, 8));
        assert_eq!(ActConfig::recipe(1, 1, 1, u64::MAX).train.seed, 0, "the seed wraps");
    }

    #[test]
    fn oversized_sequences_rejected() {
        let c = ActConfig { seq_len: 3, ..ActConfig::default() }; // 15 inputs > M=10
        let err = c.validate().unwrap_err();
        assert_eq!(err.field, "seq_len");
        assert!(
            err.to_string().contains("must fit the neuron's 10 inputs: 3 dependences take 15"),
            "{err}"
        );
    }

    /// A config field's name and a way to break it.
    type Breaker = (&'static str, fn(&mut ActConfig));

    #[test]
    fn validation_names_fields_instead_of_panicking() {
        let cases: [Breaker; 5] = [
            ("igb_capacity", |c| c.igb_capacity = 0),
            ("mispred_threshold", |c| c.mispred_threshold = 1.5),
            ("seq_len", |c| c.seq_len = 0),
            ("hidden", |c| c.hidden = 0),
            ("fifo_capacity", |c| c.pipeline.fifo_capacity = 0),
        ];
        for (field, break_it) in cases {
            let mut c = ActConfig::default();
            break_it(&mut c);
            assert_eq!(c.validate().unwrap_err().field, field);
        }
    }
}

//! # act-core — ACT: Adaptive Communication Tracking
//!
//! The paper's primary contribution: production-run software failure
//! diagnosis by validating RAW data-communication dependence sequences with
//! per-core neural hardware, logging predicted-invalid sequences, and
//! prune-and-rank postprocessing that pinpoints the root cause **without
//! reproducing the failure**.
//!
//! ## The workflow
//!
//! 1. **Offline training** ([`offline`]): from traces of correct runs,
//!    form dependence sequences (positive + synthesized negative examples),
//!    search `i × h × 1` topologies, store per-thread weights
//!    ([`weights::WeightStore`] — the paper's binary patching). The
//!    experiment harness and the diagnosis daemon train with the one
//!    recipe [`ActConfig::recipe`] (pinned topology, learning rate 0.5,
//!    300 epochs by default).
//! 2. **Online testing/training** ([`module::ActModule`]): attached to each
//!    simulated core, the module verifies every dependence sequence through
//!    the pipelined network, logs invalid ones in its debug buffer, and
//!    flips into online training whenever the misprediction rate exceeds
//!    the threshold — this is what makes ACT *adaptive* to new code,
//!    inputs, and platforms.
//! 3. **Offline postprocessing** ([`postprocess`]): after a failure, prune
//!    the debug buffer against a Correct Set built from fresh correct
//!    executions (`act_trace::CorrectSet::from_traces`), then rank by
//!    matched-dependence count.
//!
//! Running workloads — the correct-run and first-failure searches — lives
//! in `act_workloads::run`; this crate takes traces, not workloads.
//!
//! [`diagnosis`] ties the three together over `act-sim` machines.
//!
//! ## Example
//!
//! See `examples/quickstart.rs` for the full train → fail → diagnose loop
//! on a real bug workload.

pub mod config;
pub mod diagnosis;
pub mod encoding;
pub mod error;
pub mod module;
pub mod offline;
pub mod postprocess;
pub mod weights;

pub use act_nn::ConfigError;
pub use config::ActConfig;
pub use diagnosis::{diagnose, run_with_act, ActRun};
pub use error::ActError;
pub use module::{ActModule, DebugEntry, Mode};
pub use offline::{offline_train, TrainedAct};
pub use postprocess::{Diagnosis, RankedSequence};
pub use weights::{shared, SharedWeightStore, WeightStore};

#[cfg(test)]
mod testing {
    //! Test fixtures: a small looping program as a workload, and the
    //! traces of its correct runs.

    use act_sim::asm::Asm;
    use act_sim::isa::{AluOp, Reg, Word};
    use act_sim::program::Program;
    use act_trace::collector::TraceCollector;
    use act_trace::event::Trace;
    use act_workloads::run::correct_runs;
    use act_workloads::spec::{BuiltWorkload, Params, Workload, WorkloadKind};

    /// A single-threaded store/load loop over 8 words that outputs its
    /// trip count.
    pub(crate) fn looping_program() -> Program {
        const R1: Reg = Reg(1);
        const R2: Reg = Reg(2);
        const R3: Reg = Reg(3);
        const R4: Reg = Reg(4);
        let mut a = Asm::new();
        let buf = a.static_zeroed(8);
        a.func("main");
        a.imm(R1, buf as i64);
        a.imm(R2, 0);
        let top = a.label_here();
        a.alui(AluOp::Mul, R3, R2, 8);
        a.add(R3, R1, R3);
        a.store(R2, R3, 0);
        a.load(R4, R3, 0);
        a.addi(R2, R2, 1);
        a.alui(AluOp::Lt, R4, R2, 8);
        a.bnz(R4, top);
        a.out(R2);
        a.halt();
        a.finish().unwrap()
    }

    /// [`looping_program`] as a workload whose oracle expects the given
    /// output.
    pub(crate) struct Looping(&'static [Word]);

    impl Looping {
        /// Every run is correct.
        pub(crate) const CORRECT: Looping = Looping(&[8]);
        /// No run is correct.
        pub(crate) const REJECTED: Looping = Looping(&[7]);
    }

    impl Workload for Looping {
        fn name(&self) -> &'static str {
            "looping"
        }

        fn kind(&self) -> WorkloadKind {
            WorkloadKind::CleanKernel
        }

        fn build(&self, _params: &Params) -> BuiltWorkload {
            BuiltWorkload {
                program: looping_program(),
                expected_output: self.0.to_vec(),
                bug: None,
            }
        }
    }

    /// The traces of `w`'s correct runs at `seeds`.
    pub(crate) fn correct_traces(w: &Looping, seeds: std::ops::Range<u64>) -> Vec<Trace> {
        correct_runs(w, Params::default(), seeds, |b| TraceCollector::new(b.program.code_len()))
            .map(|run| run.observer.into_trace())
            .collect()
    }
}

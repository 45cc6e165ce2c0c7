//! # act-workloads — benchmark kernels and buggy applications
//!
//! Mini-ISA programs standing in for the paper's evaluation targets:
//! clean SPLASH2/PARSEC/coreutils-style kernels (Table IV, Figs 7–9), the
//! 11 real-world bugs of Table V, and the 5 injected-in-new-code bugs of
//! Table VI. Every workload carries a Rust-side oracle (its expected
//! output) and, when buggy, a ground-truth [`spec::BugInfo`] naming the
//! buggy store/load instruction addresses so diagnosis rankings can be
//! scored automatically.
//!
//! [`run`] is the one place a workload meets the simulator with an
//! observer attached: the seeded [`run::machine_cfg`], [`run::norm_of`],
//! the lazy [`run::correct_runs`] search (training traces and the Correct
//! Set come from it) and [`run::first_failure`]. The experiment harness,
//! the CLI and the diagnosis daemon all run workloads through it.

pub mod bugs;
pub mod injected;
pub mod kernels;
pub mod registry;
pub mod run;
pub mod spec;
pub mod util;

pub use spec::{BugClass, BugInfo, BuiltWorkload, Params, Workload, WorkloadKind, NORM_CODE_LEN};

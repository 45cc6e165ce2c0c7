//! # act-trace — trace collection and RAW-dependence input generation
//!
//! The offline half of ACT's data path, replacing the paper's PIN tool and
//! trace analysis scripts:
//!
//! * [`collector`] — an [`act_sim::Observer`] that records executions as
//!   [`event::Trace`]s (memory accesses, branches, thread lifecycle).
//! * [`raw`] — precise RAW dependence formation by last-writer replay,
//!   including the previous-writer context needed to synthesize negative
//!   (invalid) examples.
//! * [`input_gen`] — the Input Generator: per-thread windows of `N`
//!   consecutive dependences, positive and negative.
//! * [`correct_set`] — the Correct Set used by offline postprocessing to
//!   prune the debug buffer and count matched dependences for ranking.
//!   [`CorrectSet::from_traces`] is its one builder, for fresh correct
//!   runs and stored corpus traces alike.
//! * [`io`] — text (de)serialization so traces can be archived and shipped
//!   like the paper's PIN trace files.

pub mod collector;
pub mod correct_set;
pub mod event;
pub mod input_gen;
pub mod io;
pub mod raw;

pub use collector::TraceCollector;
pub use correct_set::CorrectSet;
pub use event::{Trace, TraceKind, TraceRecord};
pub use input_gen::{sequences, SeqSample};
pub use raw::{raw_deps, DepEvent};

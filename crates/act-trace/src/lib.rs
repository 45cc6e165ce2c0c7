//! # act-trace — trace collection and RAW-dependence input generation
//!
//! The offline half of ACT's data path, replacing the paper's PIN tool and
//! trace analysis scripts:
//!
//! * [`collector`] — an [`act_sim::Observer`] that records executions as
//!   [`event::Trace`]s (memory accesses, branches, thread lifecycle).
//! * [`raw`] — RAW dependence streams: the precise last-writer replay, and
//!   the hardware-observed stream with the previous-writer context the
//!   offline trainer synthesizes negative (invalid) examples from.
//! * [`input_gen`] — the Input Generator, the one place a window of `N`
//!   observed dependences is formed: a power-of-two ring per thread
//!   ([`DepRing`], also the online module's input generator buffer), run
//!   over a trace by [`WindowFormer`]. The Correct Set, the service's
//!   classify and the offline trainer all read their windows from it.
//! * [`correct_set`] — the Correct Set used by offline postprocessing to
//!   prune the debug buffer and count matched dependences for ranking.
//!   [`CorrectSet::from_traces`] is its one builder, for fresh correct
//!   runs and stored corpus traces alike.
//! * [`io`] — text (de)serialization so traces can be archived and shipped
//!   like the paper's PIN trace files. Its one reader, `parse_text`, reads
//!   one whole buffer: a file, a protocol payload, or an upload the daemon
//!   has received whole.

pub mod collector;
pub mod correct_set;
pub mod event;
pub mod input_gen;
pub mod io;
pub mod raw;

pub use collector::TraceCollector;
pub use correct_set::CorrectSet;
pub use event::{Trace, TraceKind, TraceRecord};
pub use input_gen::{DepRing, SeqSample, WindowFormer};
pub use raw::{raw_deps, DepEvent};

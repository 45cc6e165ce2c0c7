//! # act-nn — neural hardware substrate for ACT
//!
//! Everything neural in the paper, built from scratch:
//!
//! * [`network`] — the one-hidden-layer MLP (`i × h × 1`) with sigmoid
//!   activation and online back-propagation (§II-A).
//! * [`sigmoid`] — exact activation plus the hardware lookup table.
//! * [`trainer`] — epoch training of one configured topology, replacing
//!   the paper's OpenCV MLP library (§III-B).
//! * [`pipeline`] — the cycle model of ACT's three-stage partially
//!   configurable pipeline, with the multiply-add-unit latency knob and the
//!   input FIFO whose back-pressure stalls load retirement (§IV-A).
//! * [`npu`] — the fully configurable time-multiplexed alternative design
//!   used to justify the pipeline (§IV-A / §VI).
//!
//! The crate is deliberately independent of the simulator: it consumes plain
//! `f32` vectors. Turning RAW dependence sequences into input vectors is the
//! job of `act-core`'s encoder, keeping this substrate reusable.
//!
//! ## Example
//!
//! ```
//! use act_nn::network::{Network, Topology};
//!
//! let mut net = Network::random(Topology::new(4, 3), 0.2, 42);
//! for _ in 0..100 {
//!     net.train(&[0.1, 0.2, 0.3, 0.4], 1.0);
//! }
//! let o = net.predict(&[0.1, 0.2, 0.3, 0.4]);
//! assert!(Network::classify(o));
//! ```

pub mod error;
pub mod network;
pub mod npu;
pub mod pipeline;
pub mod sigmoid;
pub mod trainer;

pub use error::ConfigError;
pub use network::{Network, Topology};
pub use pipeline::{NnPipeline, PipelineConfig};
pub use trainer::{Example, TrainConfig};

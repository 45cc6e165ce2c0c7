//! Observability substrate for the ACT workspace: a lock-light metrics
//! registry and a bounded structured event ring.
//!
//! The design splits the cost of observability into three phases so the
//! hot path (classify: one retired RAW dependence per call, ~100 ns) never
//! pays for the cold one:
//!
//! - **Registration** (cold, allocates): [`Registry::counter`],
//!   [`Registry::gauge`], [`Registry::histogram`] intern a name under a
//!   mutex and hand back a cheap [`Counter`]/[`Gauge`]/[`Histogram`]
//!   handle (an `Arc` around atomics). Registration is idempotent — the
//!   same name always resolves to the same underlying cell, so concurrent
//!   registration from many threads is safe and loses no increments.
//! - **Recording** (hot, allocation-free): handle operations are relaxed
//!   atomic adds/stores. No locks, no allocation, no branching beyond the
//!   histogram bucket search. For per-event hot loops that cannot afford
//!   even an uncontended atomic per iteration, [`LocalCounter`] batches
//!   increments in a plain integer and flushes amortized.
//! - **Snapshot** (cold): [`Registry::snapshot`] reads every cell into a
//!   [`MetricsSnapshot`] — a plain-data value that serializes to a compact
//!   little-endian byte form ([`MetricsSnapshot::to_bytes`]) carried by the
//!   act-serve STATUS reply, and renders as a text table
//!   ([`MetricsSnapshot::render_table`]). Subsystems that keep plain-field
//!   stats structs (act-sim `Stats`, act-core `ModuleStats`) export by
//!   *building* a snapshot rather than by holding live handles, so one
//!   snapshot type serializes everything.
//!
//! Events ([`Events`]) are for rare, structured occurrences (server start,
//! worker crash, campaign progress): level + static target + timestamp +
//! small text payload, kept in a bounded ring and optionally forwarded to
//! pluggable sinks (stderr text, JSONL file).
//!
//! Building with the `no-obs` feature compiles the recording paths down to
//! no-ops: counters never move, `emit` drops the event, and snapshots come
//! back empty. The API surface is unchanged so callers need no cfg.

pub mod event;
pub mod metrics;
pub mod snapshot;

pub use event::{events, Event, EventSink, Events, JsonlSink, Level, StderrSink};
pub use metrics::{latency_bounds_us, Counter, Gauge, Histogram, LocalCounter, Registry};
pub use snapshot::{DecodeError, HistogramSnapshot, MetricValue, MetricsSnapshot};

/// Whether observability is compiled in (`false` when built with the
/// `no-obs` feature).
pub const ENABLED: bool = cfg!(not(feature = "no-obs"));

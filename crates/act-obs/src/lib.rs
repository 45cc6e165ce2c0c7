//! Observability substrate for the ACT workspace: a lock-light metrics
//! registry and a structured event bus.
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
//!   ([`MetricsSnapshot::render_table`]). Every registry belongs to
//!   something that snapshots it (a daemon's STATUS); there is no
//!   process-global one. The plain-field stats structs (act-sim `Stats`,
//!   act-core `ModuleStats`) stay outside it: their readers, the
//!   experiment binaries, read the fields directly.
//!
//! Events ([`Events`]) are for rare, structured occurrences (server start,
//! worker crash, campaign progress): level + static target + timestamp +
//! small text payload, forwarded to the sinks a binary attaches (a JSONL
//! file). Nothing keeps them in memory.

pub mod event;
pub mod metrics;
pub mod snapshot;

pub use event::{events, Event, EventSink, Events, JsonlSink, Level};
pub use metrics::{latency_bounds_us, Counter, Gauge, Histogram, LocalCounter, Registry};
pub use snapshot::{DecodeError, HistogramSnapshot, MetricValue, MetricsSnapshot};

//! # act-store — compressed, indexed trace & model corpus store
//!
//! ACT's whole pipeline is fed by memory-access traces of correct runs;
//! at production scale the trace volume dominates (the scaling problem
//! application-level post-silicon debugging hit first), so this crate is the
//! storage layer the daemon, campaigns, and CLI share:
//!
//! * [`varint`] / [`crc32`] — leaf codecs (LEB128 + zigzag, CRC-32), built
//!   in-tree because the workspace compiles offline, and the
//!   [`UploadCheck`] (running CRC-32 + length) that seals a chunked upload
//!   on both ends of the wire.
//! * [`column`] — the columnar chunk codec: per-field delta+varint columns,
//!   self-contained per chunk so decode memory is bounded.
//! * [`segment`] — append-only segment files: CRC-checksummed blocks, entry
//!   commit protocol (`ENTRY_BEGIN DATA* ENTRY_END`), footer index, and the
//!   streaming [`segment::SegmentWriter`] / [`segment::TraceEntrySource`]
//!   pair. A trace entry is written through `act-trace`'s shared
//!   `TraceSink` interface and read back into one, so there is exactly one
//!   event codec boundary in the workspace.
//! * [`corpus`] — the [`Corpus`] manager: create/open/append/get/iter/
//!   compact with atomic rename commits and truncated-tail recovery. A
//!   text-codec put, one-frame or chunked, runs `act-trace`'s one text
//!   parser (`TextParser`) straight into a `TraceEntrySink`.
//! * [`metrics`] — store instruments on an `act-obs` registry (bytes in/out,
//!   compression ratio, decode throughput, corrupt blocks).

pub mod column;
pub mod corpus;
pub mod crc32;
pub mod error;
pub mod metrics;
pub mod segment;
pub mod varint;

pub use corpus::{CompactStat, Corpus, CorpusStat, OpenReport, DEFAULT_SEAL_BYTES};
pub use crc32::{Crc32, UploadCheck};
pub use error::StoreError;
pub use metrics::StoreMetrics;
pub use segment::{
    EntryInfo, EntryKind, EntryMeta, SegmentWriter, TraceEntrySink, TraceEntrySource,
};

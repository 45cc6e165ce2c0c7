//! The [`Corpus`]: a directory of segment files plus an in-memory key index.
//!
//! On disk a corpus is
//!
//! ```text
//! corpus/
//!   seg-000001.seg     sealed (immutable, footer-indexed)
//!   seg-000002.seg
//!   active.seg         unsealed append target, scanned on open
//! ```
//!
//! Appends go to `active.seg`; once it grows past the seal threshold it is
//! sealed (footer written, fsync'd) and atomically renamed to the next
//! `seg-N` — readers only ever observe a fully-written sealed file or the
//! scannable active file. Keys shadow by recency: the same `(kind, key)`
//! appended again wins, and `compact` rewrites only the live entries into a
//! fresh sealed segment before deleting the old files (new data is durable
//! before old data is unlinked, so a crash between the two steps leaves
//! duplicates, not loss).

use crate::crc32::UploadCheck;
use crate::error::StoreError;
use crate::metrics::StoreMetrics;
use crate::segment::{
    open_entry, read_blob, read_sealed_index, scan_segment, EntryInfo, EntryKind, EntryMeta,
    SegmentWriter, TraceEntrySink, TraceEntrySource,
};
use act_obs::metrics::Registry;
use act_trace::io::{stream_trace, trace_to_bytes, CopyError, TextParser, TextTraceSink};
use act_trace::io::{TraceBuilder, TraceSink};
use act_trace::Trace;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seal the active segment once it exceeds this many bytes.
pub const DEFAULT_SEAL_BYTES: u64 = 4 << 20;
/// Cap on a materialized blob entry (mirrors `act-serve`'s payload cap).
pub const MAX_BLOB_BYTES: usize = 64 << 20;
/// Write blobs in blocks of at most this size.
const BLOB_BLOCK_BYTES: usize = 1 << 20;

/// What `Corpus::open` had to do to get a consistent view.
#[derive(Debug, Clone, Default)]
pub struct OpenReport {
    /// Bytes truncated off the active segment's uncommitted tail.
    pub dropped_bytes: u64,
    /// Whether a damaged/partial tail was dropped.
    pub dropped_tail: bool,
    /// Sealed segments whose footer was damaged and had to be scanned.
    pub scanned_segments: usize,
}

/// Corpus-wide accounting for `act store stat`.
#[derive(Debug, Clone)]
pub struct CorpusStat {
    /// Sealed segment files.
    pub sealed_segments: usize,
    /// Live (non-shadowed) entries.
    pub live_entries: usize,
    /// Entries on disk including shadowed ones.
    pub total_entries: usize,
    /// Uncompressed payload bytes of live entries.
    pub raw_bytes: u64,
    /// Compressed payload bytes of live entries.
    pub encoded_bytes: u64,
    /// Live compression ratio ×1000 (3000 = 3×).
    pub ratio_milli: u64,
    /// Total segment file bytes on disk.
    pub disk_bytes: u64,
}

/// Result of a `compact` pass.
#[derive(Debug, Clone)]
pub struct CompactStat {
    /// Entries carried into the new segment.
    pub entries_kept: usize,
    /// Entries dropped because a newer write shadowed them.
    pub entries_dropped: usize,
    /// Disk bytes before → after.
    pub disk_bytes_before: u64,
    /// Disk bytes after compaction.
    pub disk_bytes_after: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegRef {
    Sealed(u64),
    Active,
}

#[derive(Debug, Clone)]
struct Location {
    seg: SegRef,
    info: EntryInfo,
}

/// An open corpus: the append writer plus the live-key index.
pub struct Corpus {
    dir: PathBuf,
    active: Option<SegmentWriter>,
    sealed: Vec<PathBuf>,
    index: HashMap<(EntryKind, String), Location>,
    /// Raw and encoded payload bytes of the live entries, kept as entries
    /// commit so a put costs O(1), not a pass over the index.
    live_raw: u64,
    live_encoded: u64,
    total_entries: usize,
    report: OpenReport,
    metrics: StoreMetrics,
    seal_bytes: u64,
    next_seg_id: u64,
    stream: Option<StreamPut>,
}

/// In-flight state of a chunked [`Corpus::stream_begin`] upload: the text
/// parser, and the running CRC/length tally the finishing frame is
/// verified against. (The segment writer holds the entry's partly filled
/// chunk of records.)
struct StreamPut {
    key: String,
    workload: String,
    check: UploadCheck,
    parser: TextParser,
}

fn no_stream() -> StoreError {
    StoreError::InvalidInput("no streaming put is open".into())
}

/// A text-codec put's failure: the input's fault, or the store's own.
fn rejected(e: CopyError<StoreError>) -> StoreError {
    match e {
        CopyError::Source(e) => StoreError::InvalidInput(format!("trace payload rejected: {e}")),
        CopyError::Sink(e) => e,
    }
}

fn active_path(dir: &Path) -> PathBuf {
    dir.join("active.seg")
}

fn seg_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:06}.seg"))
}

fn seg_id_of(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    rest.parse().ok()
}

/// Text-codec byte size of `trace` (what `trace_to_bytes` produces).
pub fn text_size_of(trace: &Trace) -> u64 {
    trace_to_bytes(trace).len() as u64
}

impl Corpus {
    /// Create a fresh corpus at `dir` (the directory may exist but must not
    /// already hold segments).
    pub fn init(dir: impl Into<PathBuf>) -> Result<Corpus, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        if active_path(&dir).exists() {
            return Err(StoreError::InvalidInput(format!("{} is already a corpus", dir.display())));
        }
        let active = SegmentWriter::create(active_path(&dir))?;
        Ok(Corpus {
            dir,
            active: Some(active),
            sealed: Vec::new(),
            index: HashMap::new(),
            live_raw: 0,
            live_encoded: 0,
            total_entries: 0,
            report: OpenReport::default(),
            metrics: StoreMetrics::default(),
            seal_bytes: DEFAULT_SEAL_BYTES,
            next_seg_id: 1,
            stream: None,
        })
    }

    /// Open an existing corpus, recovering the active segment's committed
    /// prefix (any torn tail is truncated away and reported).
    pub fn open(dir: impl Into<PathBuf>) -> Result<Corpus, StoreError> {
        let dir = dir.into();
        if !active_path(&dir).exists() && !dir.is_dir() {
            return Err(StoreError::InvalidInput(format!("{} is not a corpus", dir.display())));
        }
        let metrics = StoreMetrics::default();
        let mut report = OpenReport::default();

        // Discover sealed segments.
        let mut ids: Vec<u64> = Vec::new();
        for ent in fs::read_dir(&dir)? {
            let name = ent?.file_name();
            if let Some(id) = name.to_str().and_then(seg_id_of) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        let mut sealed = Vec::new();
        let mut index: HashMap<(EntryKind, String), Location> = HashMap::new();
        let mut total_entries = 0usize;
        for &id in &ids {
            let path = seg_path(&dir, id);
            let entries = match read_sealed_index(&path) {
                Ok(Some(entries)) => entries,
                // Unsealed or damaged footer: fall back to a scan.
                Ok(None) | Err(StoreError::Corrupt { .. }) => {
                    metrics.corrupt_blocks.inc();
                    report.scanned_segments += 1;
                    scan_segment(&path)?.entries
                }
                Err(e) => return Err(e),
            };
            total_entries += entries.len();
            for info in entries {
                index.insert(
                    (info.meta.kind, info.meta.key.clone()),
                    Location { seg: SegRef::Sealed(id), info },
                );
            }
            sealed.push(path);
        }
        let mut next_seg_id = ids.last().map_or(1, |m| m + 1);

        // Recover the active segment.
        let apath = active_path(&dir);
        let active = if apath.exists() {
            let scan = scan_segment(&apath)?;
            if scan.sealed {
                // Crash between seal and rename: finish the rename now.
                let id = next_seg_id;
                next_seg_id += 1;
                let spath = seg_path(&dir, id);
                fs::rename(&apath, &spath)?;
                let entries = read_sealed_index(&spath)?
                    .ok_or_else(|| StoreError::corrupt(0, "sealed segment lost its footer"))?;
                total_entries += entries.len();
                for info in entries {
                    index.insert(
                        (info.meta.kind, info.meta.key.clone()),
                        Location { seg: SegRef::Sealed(id), info },
                    );
                }
                sealed.push(spath.clone());
                SegmentWriter::create(&apath)?
            } else {
                if scan.dropped_bytes() > 0 {
                    report.dropped_bytes = scan.dropped_bytes();
                    report.dropped_tail = true;
                    metrics.corrupt_blocks.inc();
                    let f = fs::OpenOptions::new().write(true).open(&apath)?;
                    f.set_len(scan.committed_len)?;
                    f.sync_all()?;
                }
                total_entries += scan.entries.len();
                for info in &scan.entries {
                    index.insert(
                        (info.meta.kind, info.meta.key.clone()),
                        Location { seg: SegRef::Active, info: info.clone() },
                    );
                }
                SegmentWriter::resume(&apath, scan.committed_len, scan.entries)?
            }
        } else {
            SegmentWriter::create(&apath)?
        };

        let mut corpus = Corpus {
            dir,
            active: Some(active),
            sealed,
            index,
            live_raw: 0,
            live_encoded: 0,
            total_entries,
            report,
            metrics,
            seal_bytes: DEFAULT_SEAL_BYTES,
            next_seg_id,
            stream: None,
        };
        corpus.recount();
        Ok(corpus)
    }

    /// Open `dir` as a corpus, creating it when empty/missing.
    pub fn open_or_init(dir: impl Into<PathBuf>) -> Result<Corpus, StoreError> {
        let dir = dir.into();
        if active_path(&dir).exists() {
            Corpus::open(dir)
        } else {
            Corpus::init(dir)
        }
    }

    /// Move the store instruments onto `registry` (e.g. the serving
    /// daemon's per-server registry), carrying over what the corpus has
    /// counted so far, such as the blocks `open` dropped.
    pub fn with_registry(mut self, registry: &Registry) -> Corpus {
        self.metrics = self.metrics.move_to(registry);
        self
    }

    /// Directory this corpus lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What `open` recovered.
    pub fn open_report(&self) -> &OpenReport {
        &self.report
    }

    /// Lower the seal threshold (tests exercise segment rollover with it).
    pub fn set_seal_bytes(&mut self, bytes: u64) {
        self.seal_bytes = bytes.max(64);
    }

    fn active_mut(&mut self) -> &mut SegmentWriter {
        self.active.as_mut().expect("active segment writer present")
    }

    /// Total the live entries afresh (after `open` and `compact` rebuild
    /// the index).
    fn recount(&mut self) {
        self.live_raw = self.index.values().map(|loc| loc.info.raw_bytes).sum();
        self.live_encoded = self.index.values().map(|loc| loc.info.encoded_bytes).sum();
        self.publish_ratio();
    }

    fn publish_ratio(&self) {
        self.metrics.set_ratio(self.live_raw, self.live_encoded);
    }

    fn commit(&mut self, seg: SegRef, info: EntryInfo) -> Result<EntryInfo, StoreError> {
        self.metrics.bytes_in.add(info.raw_bytes);
        self.total_entries += 1;
        let key = (info.meta.kind, info.meta.key.clone());
        if let Some(shadowed) = self.index.insert(key, Location { seg, info: info.clone() }) {
            self.live_raw -= shadowed.info.raw_bytes;
            self.live_encoded -= shadowed.info.encoded_bytes;
        }
        self.live_raw += info.raw_bytes;
        self.live_encoded += info.encoded_bytes;
        self.publish_ratio();
        self.maybe_seal()?;
        Ok(info)
    }

    fn maybe_seal(&mut self) -> Result<(), StoreError> {
        if self.active.as_ref().map_or(0, |a| a.offset()) < self.seal_bytes {
            return Ok(());
        }
        let writer = self.active.take().expect("active segment writer present");
        if writer.entries().is_empty() {
            self.active = Some(writer);
            return Ok(());
        }
        let id = self.next_seg_id;
        self.next_seg_id += 1;
        let apath = writer.seal()?;
        let spath = seg_path(&self.dir, id);
        fs::rename(&apath, &spath)?;
        self.sealed.push(spath.clone());
        for loc in self.index.values_mut() {
            if loc.seg == SegRef::Active {
                loc.seg = SegRef::Sealed(id);
            }
        }
        self.active = Some(SegmentWriter::create(active_path(&self.dir))?);
        Ok(())
    }

    // -- writes ------------------------------------------------------------

    /// Truncate away a half-written entry after a failed put (and drop
    /// the stream that wrote it, if any), so one bad input cannot wedge the
    /// writer or leave junk for recovery to drop.
    fn abort_on_err<T>(&mut self, r: Result<T, StoreError>) -> Result<T, StoreError> {
        if r.is_err() {
            self.stream_abort();
        }
        r
    }

    /// A streaming put owns the active segment's open entry; any other
    /// write interleaving with it would corrupt the entry, so they are
    /// refused while a stream is open.
    fn reject_if_streaming(&self) -> Result<(), StoreError> {
        match &self.stream {
            Some(s) => Err(StoreError::InvalidInput(format!(
                "a streaming put ({}) is in progress; finish or abort it first",
                s.key
            ))),
            None => Ok(()),
        }
    }

    /// Store a trace under `(workload, key)`, streaming it through the
    /// columnar codec. Returns the committed entry's accounting.
    pub fn put_trace(
        &mut self,
        key: &str,
        workload: &str,
        trace: &Trace,
    ) -> Result<EntryInfo, StoreError> {
        self.reject_if_streaming()?;
        let raw = text_size_of(trace);
        let r = (|| {
            let active = self.active.as_mut().expect("active segment writer present");
            stream_trace(trace, &mut TraceEntrySink::new(active, key, workload))?;
            active.end_entry(raw)
        })();
        let info = self.abort_on_err(r)?;
        self.commit(SegRef::Active, info)
    }

    /// Ingest a text-codec trace payload (the daemon's `TRACE_PUT` path):
    /// parsed and re-encoded record-by-record, so the uncompressed text is
    /// never materialized a second time.
    pub fn put_trace_bytes(
        &mut self,
        key: &str,
        workload: &str,
        bytes: &[u8],
    ) -> Result<EntryInfo, StoreError> {
        self.reject_if_streaming()?;
        let r = (|| {
            let active = self.active.as_mut().expect("active segment writer present");
            let mut sink = TraceEntrySink::new(active, key, workload);
            let mut parser = TextParser::default();
            parser.feed(bytes, &mut sink).map_err(rejected)?;
            parser.finish(&mut sink).map_err(rejected)?;
            active.end_entry(bytes.len() as u64)
        })();
        let info = self.abort_on_err(r)?;
        self.commit(SegRef::Active, info)
    }

    /// Store an opaque blob (model weights, serialized correct sets).
    pub fn put_blob(
        &mut self,
        kind: EntryKind,
        key: &str,
        workload: &str,
        bytes: &[u8],
    ) -> Result<EntryInfo, StoreError> {
        self.reject_if_streaming()?;
        if kind == EntryKind::Trace {
            return Err(StoreError::InvalidInput("traces go through put_trace".into()));
        }
        if bytes.len() > MAX_BLOB_BYTES {
            return Err(StoreError::InvalidInput(format!(
                "blob of {} bytes over cap",
                bytes.len()
            )));
        }
        let meta =
            EntryMeta { kind, key: key.to_string(), workload: workload.to_string(), code_len: 0 };
        let r = (|| {
            let active = self.active.as_mut().expect("active segment writer present");
            active.begin_entry(meta)?;
            for chunk in bytes.chunks(BLOB_BLOCK_BYTES) {
                active.write_blob(chunk)?;
            }
            active.end_entry(bytes.len() as u64)
        })();
        let info = self.abort_on_err(r)?;
        self.commit(SegRef::Active, info)
    }

    // -- streaming writes --------------------------------------------------

    /// Open a chunked trace put under `(workload, key)`: the protocol's
    /// `TRACE_PUT_START`. Text-codec bytes arrive via
    /// [`Corpus::stream_chunk`] and the entry commits only at
    /// [`Corpus::stream_finish`] — until then the key stays unpublished,
    /// and [`Corpus::stream_abort`] (or a failed chunk) truncates every
    /// byte the stream wrote. One stream may be open at a time; a second
    /// `stream_begin` (or any materialized put) is refused while it is.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidInput`] when a stream is already open.
    pub fn stream_begin(&mut self, key: &str, workload: &str) -> Result<(), StoreError> {
        self.reject_if_streaming()?;
        self.stream = Some(StreamPut {
            key: key.to_string(),
            workload: workload.to_string(),
            check: UploadCheck::default(),
            parser: TextParser::default(),
        });
        Ok(())
    }

    /// Feed one chunk of text-codec bytes into the open stream. Chunks may
    /// split lines (and multi-byte sequences) anywhere; the parser carries
    /// the partial tail over. Any parse or write failure aborts the stream
    /// — the half-written entry is truncated away before the error returns.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidInput`] when no stream is open or the
    /// bytes are not valid text-codec lines, and I/O errors from the
    /// segment writer.
    pub fn stream_chunk(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let r = (|| {
            let s = self.stream.as_mut().ok_or_else(no_stream)?;
            let active = self.active.as_mut().expect("active segment writer present");
            s.check.update(bytes);
            s.parser
                .feed(bytes, &mut TraceEntrySink::new(active, &s.key, &s.workload))
                .map_err(rejected)
        })();
        self.abort_on_err(r)
    }

    /// Seal the open stream: verify the client's CRC-32 and total length
    /// against the running tallies, flush the trailing records, and commit
    /// the entry. On any mismatch or failure the stream aborts — the key
    /// is never published.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidInput`] on CRC/length mismatch, a
    /// malformed last line, or an upload with no header line, and I/O
    /// errors from the commit.
    pub fn stream_finish(&mut self, crc32: u32, total_len: u64) -> Result<EntryInfo, StoreError> {
        let r = (|| {
            let s = self.stream.take().ok_or_else(no_stream)?;
            s.check.verify(crc32, total_len).map_err(StoreError::InvalidInput)?;
            let active = self.active.as_mut().expect("active segment writer present");
            s.parser
                .finish(&mut TraceEntrySink::new(active, &s.key, &s.workload))
                .map_err(rejected)?;
            active.end_entry(s.check.total_len())
        })();
        let info = self.abort_on_err(r)?;
        self.commit(SegRef::Active, info)
    }

    /// Drop the open stream (client vanished mid-upload, CRC mismatch,
    /// parse failure): the half-written entry is truncated out of the
    /// active segment, leaving the corpus exactly as it was before
    /// `stream_begin`. Idempotent; a no-op when nothing is streaming (no
    /// entry is open between calls unless a stream opened it).
    pub fn stream_abort(&mut self) {
        self.stream = None;
        let _ = self.active_mut().abort_entry();
    }

    /// Key of the open streaming put, if any.
    pub fn streaming_key(&self) -> Option<&str> {
        self.stream.as_ref().map(|s| s.key.as_str())
    }

    // -- reads -------------------------------------------------------------

    fn locate(&self, kind: EntryKind, key: &str) -> Result<&Location, StoreError> {
        self.index
            .get(&(kind, key.to_string()))
            .ok_or_else(|| StoreError::NotFound { key: key.to_string() })
    }

    fn path_of(&self, seg: SegRef) -> PathBuf {
        match seg {
            SegRef::Active => active_path(&self.dir),
            SegRef::Sealed(id) => seg_path(&self.dir, id),
        }
    }

    /// Whether `(kind, key)` has a live entry.
    pub fn contains(&self, kind: EntryKind, key: &str) -> bool {
        self.index.contains_key(&(kind, key.to_string()))
    }

    /// Accounting for one live entry.
    pub fn entry_info(&self, kind: EntryKind, key: &str) -> Result<EntryInfo, StoreError> {
        Ok(self.locate(kind, key)?.info.clone())
    }

    /// Stream a stored trace into `sink` chunk by chunk (memory bounded by
    /// the chunk size, not the trace length) and record decode throughput;
    /// a damaged entry errors and counts in `corrupt_blocks`.
    fn decode_trace<S: TraceSink>(&self, key: &str, sink: &mut S) -> Result<(), StoreError>
    where
        StoreError: From<S::Error>,
    {
        let start = Instant::now();
        let loc = self.locate(EntryKind::Trace, key)?;
        let counted = |e: &StoreError| {
            if e.is_corrupt() {
                self.metrics.corrupt_blocks.inc();
            }
        };
        let stream = open_entry(&self.path_of(loc.seg), loc.info.offset).inspect_err(counted)?;
        self.metrics.bytes_out.add(loc.info.encoded_bytes);
        let mut source = TraceEntrySource::new(stream)?;
        sink.begin(source.meta().code_len as usize)?;
        while let Some(rec) = source.next_record().inspect_err(counted)? {
            sink.record(&rec)?;
        }
        sink.finish()?;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            let mbps = source.encoded_bytes_read as f64 / (1 << 20) as f64 / elapsed;
            self.metrics.decode_mb_per_sec.set(mbps as i64);
        }
        Ok(())
    }

    /// Materialize a stored trace (and record decode throughput).
    pub fn get_trace(&self, key: &str) -> Result<Trace, StoreError> {
        let mut builder = TraceBuilder::new();
        self.decode_trace(key, &mut builder)?;
        Ok(builder.into_trace())
    }

    /// A stored trace as v1 text — the bytes `trace_to_bytes` would make of
    /// [`Corpus::get_trace`]'s result — streamed from the columnar chunks
    /// straight into the text writer, with no [`Trace`] in between. The
    /// output is sized up front from the entry's raw byte count, capped at
    /// `MAX_TRACE_BYTES`.
    pub fn get_trace_text(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        use act_trace::io::MAX_TRACE_BYTES;
        let raw = self.locate(EntryKind::Trace, key)?.info.raw_bytes;
        let presize = usize::try_from(raw).map_or(MAX_TRACE_BYTES, |n| n.min(MAX_TRACE_BYTES));
        let mut sink = TextTraceSink::with_capacity(presize);
        self.decode_trace(key, &mut sink)?;
        Ok(sink.into_bytes())
    }

    /// Materialize a stored blob.
    pub fn get_blob(&self, kind: EntryKind, key: &str) -> Result<Vec<u8>, StoreError> {
        let loc = self.locate(kind, key)?;
        let mut stream = open_entry(&self.path_of(loc.seg), loc.info.offset)?;
        let bytes = read_blob(&mut stream, MAX_BLOB_BYTES).inspect_err(|e| {
            if e.is_corrupt() {
                self.metrics.corrupt_blocks.inc();
            }
        })?;
        self.metrics.bytes_out.add(bytes.len() as u64);
        Ok(bytes)
    }

    /// Live entries, sorted by (kind, key). `workload`, when given, filters
    /// (this is the `ModelKey`-by-workload listing path).
    pub fn entries(&self, workload: Option<&str>) -> Vec<EntryInfo> {
        let mut out: Vec<EntryInfo> = self
            .index
            .values()
            .filter(|loc| workload.is_none_or(|w| loc.info.meta.workload == w))
            .map(|loc| loc.info.clone())
            .collect();
        out.sort_by(|a, b| {
            (a.meta.kind.name(), &a.meta.key).cmp(&(b.meta.kind.name(), &b.meta.key))
        });
        out
    }

    /// Every stored trace of `workload`, in [`entries`](Corpus::entries)
    /// order — the train-from-store path of the daemon and of campaigns. An
    /// entry that fails to decode is skipped (and counted in
    /// `corrupt_blocks`), so one rotten trace cannot block training.
    pub fn traces<'a>(&'a self, workload: &str) -> impl Iterator<Item = Trace> + 'a {
        self.entries(Some(workload))
            .into_iter()
            .filter(|info| info.meta.kind == EntryKind::Trace)
            .filter_map(|info| self.get_trace(&info.meta.key).ok())
    }

    /// Corpus-wide accounting.
    pub fn stat(&self) -> Result<CorpusStat, StoreError> {
        let (raw, encoded) = (self.live_raw, self.live_encoded);
        let mut disk = 0;
        for path in &self.sealed {
            disk += fs::metadata(path)?.len();
        }
        disk += fs::metadata(active_path(&self.dir))?.len();
        Ok(CorpusStat {
            sealed_segments: self.sealed.len(),
            live_entries: self.index.len(),
            total_entries: self.total_entries,
            raw_bytes: raw,
            encoded_bytes: encoded,
            ratio_milli: (raw * 1000).checked_div(encoded).unwrap_or(0),
            disk_bytes: disk,
        })
    }

    /// Rewrite live entries into one fresh sealed segment, then delete the
    /// shadowed history. New data is sealed and renamed into place *before*
    /// old files are unlinked, so a crash can duplicate but never lose.
    pub fn compact(&mut self) -> Result<CompactStat, StoreError> {
        let before = self.stat()?;
        let live = self.entries(None);
        let id = self.next_seg_id;
        self.next_seg_id += 1;
        let tmp = self.dir.join("compact.tmp");
        let mut writer = SegmentWriter::create(&tmp)?;
        for info in &live {
            match info.meta.kind {
                EntryKind::Trace => {
                    let mut sink =
                        TraceEntrySink::new(&mut writer, &info.meta.key, &info.meta.workload);
                    self.decode_trace(&info.meta.key, &mut sink)?;
                    writer.end_entry(info.raw_bytes)?;
                }
                kind => {
                    let bytes = self.get_blob(kind, &info.meta.key)?;
                    writer.begin_entry(info.meta.clone())?;
                    for chunk in bytes.chunks(BLOB_BLOCK_BYTES) {
                        writer.write_blob(chunk)?;
                    }
                    writer.end_entry(bytes.len() as u64)?;
                }
            }
        }
        let new_entries = writer.entries().to_vec();
        let sealed_tmp = writer.seal()?;
        let spath = seg_path(&self.dir, id);
        fs::rename(sealed_tmp, &spath)?;

        // New segment is durable: now drop the history.
        for path in self.sealed.drain(..) {
            fs::remove_file(&path)?;
        }
        self.active = None;
        let fresh = SegmentWriter::create(active_path(&self.dir))?;
        self.active = Some(fresh);
        self.sealed.push(spath.clone());
        self.index.clear();
        for info in new_entries {
            self.index.insert(
                (info.meta.kind, info.meta.key.clone()),
                Location { seg: SegRef::Sealed(id), info },
            );
        }
        self.total_entries = self.index.len();
        self.recount();
        let after = self.stat()?;
        Ok(CompactStat {
            entries_kept: self.index.len(),
            entries_dropped: before.total_entries - self.index.len(),
            disk_bytes_before: before.disk_bytes,
            disk_bytes_after: after.disk_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_sim::events::RawDep;
    use act_trace::{TraceKind, TraceRecord};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("act-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_trace(n: u64, salt: u64) -> Trace {
        let mut records = Vec::new();
        records.push(TraceRecord { seq: 0, cycle: 0, tid: 0, pc: 0, kind: TraceKind::ThreadStart });
        for i in 0..n {
            let pc = (i % 37) as u32 + 1;
            let addr = 64 + (i + salt) * 8;
            let kind = match i % 4 {
                0 => TraceKind::Store { addr },
                1 => TraceKind::Load {
                    addr,
                    dep: Some(RawDep {
                        store_pc: pc.wrapping_sub(1),
                        load_pc: pc,
                        inter_thread: i % 8 == 1,
                    }),
                },
                2 => TraceKind::Branch { taken: i % 3 == 0 },
                _ => TraceKind::Load { addr, dep: None },
            };
            records.push(TraceRecord {
                seq: i + 1,
                cycle: 2 * i + 1,
                tid: (i % 2) as u32,
                pc,
                kind,
            });
        }
        Trace { records, code_len: 40 }
    }

    /// A stored trace's text, read both ways: streamed from the columns
    /// (`get_trace_text`) and materialized then written (`get_trace`).
    fn text_of(c: &Corpus, key: &str) -> Vec<u8> {
        let text = c.get_trace_text(key).unwrap();
        assert_eq!(text, act_trace::io::trace_to_bytes(&c.get_trace(key).unwrap()), "{key}");
        text
    }

    /// The live totals recounted from the listing, as `stat` must report.
    fn assert_totals_match_a_recount(c: &Corpus) {
        let live = c.entries(None);
        let raw: u64 = live.iter().map(|i| i.raw_bytes).sum();
        let encoded: u64 = live.iter().map(|i| i.encoded_bytes).sum();
        let stat = c.stat().unwrap();
        assert_eq!((stat.raw_bytes, stat.encoded_bytes), (raw, encoded));
        assert_eq!(stat.ratio_milli, (raw * 1000).checked_div(encoded).unwrap_or(0));
        assert_eq!(stat.live_entries, live.len());
    }

    #[test]
    fn put_get_roundtrip_is_byte_identical() {
        let dir = tmp_dir("roundtrip");
        let mut c = Corpus::init(&dir).unwrap();
        let trace = sample_trace(500, 3);
        c.put_trace("t1", "wl", &trace).unwrap();
        assert_eq!(text_of(&c, "t1"), act_trace::io::trace_to_bytes(&trace));
        // An empty trace, and a text read of a missing key or a blob.
        c.put_trace("empty", "wl", &Trace::default()).unwrap();
        assert_eq!(text_of(&c, "empty"), b"acttrace v1 0\n");
        assert!(matches!(c.get_trace_text("nope"), Err(StoreError::NotFound { .. })));
        c.put_blob(EntryKind::Model, "m", "wl", b"w").unwrap();
        assert!(matches!(c.get_trace_text("m"), Err(StoreError::NotFound { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_damaged_entry_errors_and_counts_on_either_read() {
        let dir = tmp_dir("damaged");
        let registry = Registry::new();
        let mut c = Corpus::init(&dir).unwrap().with_registry(&registry);
        let info = c.put_trace("t", "wl", &sample_trace(2000, 1)).unwrap();
        // Flip a byte inside the committed entry's data, under the open
        // corpus (a reopen would drop the damaged tail instead).
        let path = active_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let mid = (info.offset as usize + bytes.len()) / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let corrupt = || {
            let snap = registry.snapshot();
            let (_, v) = snap.entries.iter().find(|(n, _)| n == "store_corrupt_blocks").unwrap();
            v.clone()
        };
        use act_obs::snapshot::MetricValue::Counter;
        assert!(c.get_trace("t").unwrap_err().is_corrupt());
        assert_eq!(corrupt(), Counter(1));
        assert!(c.get_trace_text("t").unwrap_err().is_corrupt());
        assert_eq!(corrupt(), Counter(2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_totals_follow_puts_overwrites_and_compaction() {
        let dir = tmp_dir("totals");
        let mut c = Corpus::init(&dir).unwrap();
        c.set_seal_bytes(512);
        assert_totals_match_a_recount(&c);
        for i in 0..6 {
            c.put_trace(&format!("t{i}"), "wl", &sample_trace(40 + 10 * i, i)).unwrap();
            assert_totals_match_a_recount(&c);
        }
        // Overwrites shadow: the old entry leaves the totals.
        for i in 0..3 {
            c.put_trace(&format!("t{i}"), "wl", &sample_trace(200, 9 + i)).unwrap();
            assert_totals_match_a_recount(&c);
        }
        let text = act_trace::io::trace_to_bytes(&sample_trace(30, 2));
        c.put_trace_bytes("t4", "wl", &text).unwrap();
        c.put_blob(EntryKind::Model, "m", "wl", b"weights-v1").unwrap();
        c.put_blob(EntryKind::Model, "m", "wl", b"weights-v2, longer").unwrap();
        c.stream_begin("t5", "wl").unwrap();
        c.stream_chunk(&text).unwrap();
        c.stream_finish(crate::crc32::crc32(&text), text.len() as u64).unwrap();
        assert_totals_match_a_recount(&c);
        let before = c.stat().unwrap();
        c.compact().unwrap();
        assert_totals_match_a_recount(&c);
        let after = c.stat().unwrap();
        assert_eq!(
            (after.raw_bytes, after.encoded_bytes),
            (before.raw_bytes, before.encoded_bytes)
        );
        drop(c);
        let c = Corpus::open(&dir).unwrap();
        assert_totals_match_a_recount(&c);
        assert_eq!(c.stat().unwrap().raw_bytes, before.raw_bytes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_trace_bytes_matches_put_trace() {
        let dir = tmp_dir("bytes");
        let mut c = Corpus::init(&dir).unwrap();
        let trace = sample_trace(100, 0);
        let text = act_trace::io::trace_to_bytes(&trace);
        let info = c.put_trace_bytes("t1", "wl", &text).unwrap();
        assert_eq!(info.raw_bytes, text.len() as u64);
        assert_eq!(text_of(&c, "t1"), text);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_trace_bytes_leave_no_partial_entry() {
        let dir = tmp_dir("hostile");
        let mut c = Corpus::init(&dir).unwrap();
        let err = c.put_trace_bytes("bad", "wl", b"acttrace v1 10\nL not a record\n");
        assert!(err.is_err());
        assert!(!c.contains(EntryKind::Trace, "bad"));
        // The corpus stays usable and recovery drops the aborted blocks.
        drop(c);
        let c = Corpus::open(&dir).unwrap();
        assert_eq!(c.entries(None).len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streamed_put_matches_materialized_put_for_any_chunking() {
        let dir = tmp_dir("stream");
        let mut c = Corpus::init(&dir).unwrap();
        let trace = sample_trace(300, 5);
        let text = act_trace::io::trace_to_bytes(&trace);
        let crc = crate::crc32::crc32(&text);
        // Chunk sizes chosen to split lines (and the header) mid-way.
        for (i, chunk_len) in [1usize, 3, 7, 64, text.len()].into_iter().enumerate() {
            let key = format!("s{i}");
            c.stream_begin(&key, "wl").unwrap();
            assert_eq!(c.streaming_key(), Some(key.as_str()));
            for chunk in text.chunks(chunk_len) {
                c.stream_chunk(chunk).unwrap();
            }
            let info = c.stream_finish(crc, text.len() as u64).unwrap();
            assert_eq!(info.raw_bytes, text.len() as u64);
            assert!(c.streaming_key().is_none());
            assert_eq!(text_of(&c, &key), text);
        }
        // Byte-for-byte the same accounting as the materialized path.
        let info = c.put_trace_bytes("mat", "wl", &text).unwrap();
        let streamed = c.entry_info(EntryKind::Trace, "s0").unwrap();
        assert_eq!(info.raw_bytes, streamed.raw_bytes);
        assert_eq!(info.records, streamed.records);
        assert_eq!(info.encoded_bytes, streamed.encoded_bytes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stream_crc_and_length_mismatches_abort_without_publishing() {
        let dir = tmp_dir("stream-crc");
        let mut c = Corpus::init(&dir).unwrap();
        let text = act_trace::io::trace_to_bytes(&sample_trace(50, 1));
        let crc = crate::crc32::crc32(&text);

        c.stream_begin("bad-crc", "wl").unwrap();
        c.stream_chunk(&text).unwrap();
        let err = c.stream_finish(crc ^ 1, text.len() as u64).unwrap_err();
        assert!(err.to_string().contains("crc mismatch"), "{err}");
        assert!(!c.contains(EntryKind::Trace, "bad-crc"));
        assert!(c.streaming_key().is_none(), "failed finish drops the stream");

        c.stream_begin("bad-len", "wl").unwrap();
        c.stream_chunk(&text).unwrap();
        let err = c.stream_finish(crc, text.len() as u64 + 1).unwrap_err();
        assert!(err.to_string().contains("length mismatch"), "{err}");
        assert!(!c.contains(EntryKind::Trace, "bad-len"));

        // The corpus is still fully usable afterwards.
        c.put_trace_bytes("ok", "wl", &text).unwrap();
        assert!(c.contains(EntryKind::Trace, "ok"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aborted_stream_leaves_no_partial_entry_after_reopen() {
        let dir = tmp_dir("stream-abort");
        let mut c = Corpus::init(&dir).unwrap();
        let text = act_trace::io::trace_to_bytes(&sample_trace(5000, 2));
        c.stream_begin("half", "wl").unwrap();
        // Feed enough to open the entry and flush real columnar chunks,
        // then drop the client mid-upload.
        c.stream_chunk(&text[..text.len() / 2]).unwrap();
        c.stream_abort();
        assert!(!c.contains(EntryKind::Trace, "half"));
        // Recovery on reopen sees no trace of the half-streamed entry.
        drop(c);
        let c = Corpus::open(&dir).unwrap();
        assert_eq!(c.entries(None).len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn materialized_puts_are_refused_while_a_stream_is_open() {
        let dir = tmp_dir("stream-lock");
        let mut c = Corpus::init(&dir).unwrap();
        let trace = sample_trace(20, 3);
        let text = act_trace::io::trace_to_bytes(&trace);
        c.stream_begin("s", "wl").unwrap();
        c.stream_chunk(&text[..10]).unwrap();
        assert!(c.put_trace("t", "wl", &trace).is_err());
        assert!(c.put_trace_bytes("t", "wl", &text).is_err());
        assert!(c.put_blob(EntryKind::Model, "m", "wl", b"w").is_err());
        assert!(c.stream_begin("s2", "wl").is_err(), "one stream at a time");
        // The open stream survives those refusals and still finishes.
        let rest = &text[10..];
        c.stream_chunk(rest).unwrap();
        c.stream_finish(crate::crc32::crc32(&text), text.len() as u64).unwrap();
        assert_eq!(text_of(&c, "s"), text);
        c.put_trace("t", "wl", &trace).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_mid_stream_aborts_and_truncates() {
        let dir = tmp_dir("stream-garbage");
        let mut c = Corpus::init(&dir).unwrap();
        c.stream_begin("bad", "wl").unwrap();
        c.stream_chunk(b"acttrace v1 10\n").unwrap();
        assert!(c.stream_chunk(b"L not a record\n").is_err());
        assert!(c.streaming_key().is_none(), "failed chunk aborts the stream");
        assert!(!c.contains(EntryKind::Trace, "bad"));
        drop(c);
        let c = Corpus::open(&dir).unwrap();
        assert_eq!(c.entries(None).len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keys_shadow_latest_wins_and_compact_reclaims() {
        let dir = tmp_dir("shadow");
        let mut c = Corpus::init(&dir).unwrap();
        c.put_trace("t", "wl", &sample_trace(50, 1)).unwrap();
        let newer = sample_trace(50, 2);
        c.put_trace("t", "wl", &newer).unwrap();
        c.put_blob(EntryKind::Model, "m", "wl", b"weights-v2").unwrap();
        assert_eq!(c.entries(None).len(), 2);
        let stat = c.compact().unwrap();
        assert_eq!(stat.entries_kept, 2);
        assert_eq!(stat.entries_dropped, 1);
        assert!(stat.disk_bytes_after <= stat.disk_bytes_before);
        assert_eq!(text_of(&c, "t"), act_trace::io::trace_to_bytes(&newer));
        assert_eq!(c.get_blob(EntryKind::Model, "m").unwrap(), b"weights-v2");
        // And the compacted corpus reopens cleanly.
        drop(c);
        let c = Corpus::open(&dir).unwrap();
        assert_eq!(c.entries(None).len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seal_rollover_and_reopen() {
        let dir = tmp_dir("rollover");
        let mut c = Corpus::init(&dir).unwrap();
        c.set_seal_bytes(256);
        for i in 0..6 {
            c.put_trace(&format!("t{i}"), "wl", &sample_trace(80, i)).unwrap();
        }
        let stat = c.stat().unwrap();
        assert!(stat.sealed_segments >= 1, "expected rollover, got {stat:?}");
        drop(c);
        let c = Corpus::open(&dir).unwrap();
        for i in 0..6 {
            assert_eq!(
                text_of(&c, &format!("t{i}")),
                act_trace::io::trace_to_bytes(&sample_trace(80, i))
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_filter_by_workload() {
        let dir = tmp_dir("filter");
        let mut c = Corpus::init(&dir).unwrap();
        c.put_trace("a", "w1", &sample_trace(10, 0)).unwrap();
        c.put_trace("b", "w2", &sample_trace(10, 0)).unwrap();
        assert_eq!(c.entries(Some("w1")).len(), 1);
        assert_eq!(c.entries(None).len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_key_is_not_found() {
        let dir = tmp_dir("missing");
        let c = Corpus::init(&dir).unwrap();
        assert!(matches!(c.get_trace("nope"), Err(StoreError::NotFound { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn init_refuses_existing_corpus() {
        let dir = tmp_dir("reinit");
        let _ = Corpus::init(&dir).unwrap();
        assert!(Corpus::init(&dir).is_err());
        assert!(Corpus::open_or_init(&dir).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }
}

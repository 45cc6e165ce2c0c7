//! Append-only segment files: CRC-checksummed blocks with a footer index.
//!
//! Layout:
//!
//! ```text
//! "ACTSEG1\n"                                    8-byte file magic
//! block*                                         append-only block stream
//! [INDEX block]  [index_off:u64le "ACTSEND1"]    footer, sealed files only
//! ```
//!
//! Every block is `kind:u8  len:u32le  crc:u32le  body:len bytes` where
//! `crc` is the CRC-32 of the body. An entry is the block run
//! `ENTRY_BEGIN DATA* ENTRY_END`; it is **committed** iff its `ENTRY_END`
//! is present and valid, which is what makes recovery a pure prefix scan:
//! walk blocks until the first damaged or partial one, keep every entry
//! committed before that point, drop the rest.
//!
//! A sealed segment ends with an `INDEX` block (the entry table) and a
//! 16-byte trailer pointing at it, so opening a sealed file costs two seeks.
//! The active segment of a corpus has no footer yet and is recovered by
//! scanning.

use crate::column::{decode_chunk, encode_chunk, CHUNK_RECORDS};
use crate::crc32::crc32;
use crate::error::StoreError;
use crate::varint::{get_varint, put_varint};
use act_trace::io::TraceSink;
use act_trace::TraceRecord;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic at offset 0.
pub const SEG_MAGIC: &[u8; 8] = b"ACTSEG1\n";
/// Trailer magic ending a sealed segment.
pub const SEG_TRAILER_MAGIC: &[u8; 8] = b"ACTSEND1";
/// `kind + len + crc` prefix of every block.
pub const BLOCK_HEADER_BYTES: usize = 9;
/// Trailer size (`index_off:u64le` + trailer magic).
pub const TRAILER_BYTES: usize = 16;
/// Upper bound on one block body — checked before any allocation, mirroring
/// `act-serve`'s pre-allocation cap so hostile length fields cannot OOM.
pub const MAX_BLOCK_BYTES: usize = 16 << 20;
/// Upper bound on key / workload strings.
pub const MAX_KEY_BYTES: usize = 4096;

const BLOCK_ENTRY_BEGIN: u8 = 0x01;
const BLOCK_DATA: u8 = 0x02;
const BLOCK_ENTRY_END: u8 = 0x03;
const BLOCK_INDEX: u8 = 0x7f;

/// What an entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// A columnar-encoded execution trace.
    Trace,
    /// Trained model weights (opaque `act-core` weight-store bytes).
    Model,
    /// A serialized Correct Set (opaque `act-serve` text format).
    CorrectSet,
}

impl EntryKind {
    fn as_u8(self) -> u8 {
        match self {
            EntryKind::Trace => 0,
            EntryKind::Model => 1,
            EntryKind::CorrectSet => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, StoreError> {
        match v {
            0 => Ok(EntryKind::Trace),
            1 => Ok(EntryKind::Model),
            2 => Ok(EntryKind::CorrectSet),
            other => Err(StoreError::corrupt(0, format!("unknown entry kind {other}"))),
        }
    }

    /// Stable lowercase name (for `act store ls` output).
    pub fn name(self) -> &'static str {
        match self {
            EntryKind::Trace => "trace",
            EntryKind::Model => "model",
            EntryKind::CorrectSet => "cset",
        }
    }
}

/// Identity of an entry, written in its `ENTRY_BEGIN` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryMeta {
    /// What the entry holds.
    pub kind: EntryKind,
    /// Lookup key — for models this is `ModelKey::canonical()` form, for
    /// traces any caller-chosen name.
    pub key: String,
    /// Workload the entry belongs to (listing filter).
    pub workload: String,
    /// Program length for PC normalization (traces; 0 for blobs).
    pub code_len: u64,
}

/// Index row: identity plus location and size accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryInfo {
    /// The entry identity.
    pub meta: EntryMeta,
    /// Byte offset of the entry's `ENTRY_BEGIN` block in its segment.
    pub offset: u64,
    /// Total `DATA` body bytes (the compressed payload size).
    pub encoded_bytes: u64,
    /// Uncompressed payload size (text-codec bytes for traces, blob length
    /// for models) — the numerator of the compression ratio.
    pub raw_bytes: u64,
    /// Trace records in the entry (0 for blobs).
    pub records: u64,
}

fn put_lenstr(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_lenstr(buf: &[u8], pos: &mut usize) -> Result<String, StoreError> {
    let len = get_varint(buf, pos)? as usize;
    if len > MAX_KEY_BYTES {
        return Err(StoreError::corrupt(*pos as u64, format!("string length {len} exceeds cap")));
    }
    let Some(bytes) = buf.get(*pos..*pos + len) else {
        return Err(StoreError::corrupt(*pos as u64, "string overruns block"));
    };
    *pos += len;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| StoreError::corrupt(*pos as u64, "string is not UTF-8"))
}

fn encode_meta(meta: &EntryMeta) -> Vec<u8> {
    let mut body = Vec::with_capacity(meta.key.len() + meta.workload.len() + 16);
    body.push(meta.kind.as_u8());
    put_lenstr(&mut body, &meta.key);
    put_lenstr(&mut body, &meta.workload);
    put_varint(&mut body, meta.code_len);
    body
}

fn decode_meta(body: &[u8]) -> Result<EntryMeta, StoreError> {
    let mut pos = 0;
    let Some(&kind) = body.first() else {
        return Err(StoreError::corrupt(0, "empty entry header"));
    };
    pos += 1;
    let kind = EntryKind::from_u8(kind)?;
    let key = get_lenstr(body, &mut pos)?;
    let workload = get_lenstr(body, &mut pos)?;
    let code_len = get_varint(body, &mut pos)?;
    if pos != body.len() {
        return Err(StoreError::corrupt(pos as u64, "trailing bytes in entry header"));
    }
    Ok(EntryMeta { kind, key, workload, code_len })
}

fn encode_entry_end(records: u64, encoded: u64, raw: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(24);
    put_varint(&mut body, records);
    put_varint(&mut body, encoded);
    put_varint(&mut body, raw);
    body
}

fn decode_entry_end(body: &[u8]) -> Result<(u64, u64, u64), StoreError> {
    let mut pos = 0;
    let records = get_varint(body, &mut pos)?;
    let encoded = get_varint(body, &mut pos)?;
    let raw = get_varint(body, &mut pos)?;
    if pos != body.len() {
        return Err(StoreError::corrupt(pos as u64, "trailing bytes in entry end"));
    }
    Ok((records, encoded, raw))
}

fn encode_index(entries: &[EntryInfo]) -> Vec<u8> {
    let mut body = Vec::new();
    put_varint(&mut body, entries.len() as u64);
    for e in entries {
        body.push(e.meta.kind.as_u8());
        put_lenstr(&mut body, &e.meta.key);
        put_lenstr(&mut body, &e.meta.workload);
        put_varint(&mut body, e.meta.code_len);
        put_varint(&mut body, e.offset);
        put_varint(&mut body, e.encoded_bytes);
        put_varint(&mut body, e.raw_bytes);
        put_varint(&mut body, e.records);
    }
    body
}

fn decode_index(body: &[u8]) -> Result<Vec<EntryInfo>, StoreError> {
    let mut pos = 0;
    let count = get_varint(body, &mut pos)? as usize;
    // Each row is ≥ 8 bytes; reject absurd counts before reserving.
    if count > body.len() / 8 + 1 {
        return Err(StoreError::corrupt(0, format!("index claims {count} entries")));
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let Some(&kind) = body.get(pos) else {
            return Err(StoreError::corrupt(pos as u64, "index row truncated"));
        };
        pos += 1;
        let kind = EntryKind::from_u8(kind)?;
        let key = get_lenstr(body, &mut pos)?;
        let workload = get_lenstr(body, &mut pos)?;
        let code_len = get_varint(body, &mut pos)?;
        let offset = get_varint(body, &mut pos)?;
        let encoded_bytes = get_varint(body, &mut pos)?;
        let raw_bytes = get_varint(body, &mut pos)?;
        let records = get_varint(body, &mut pos)?;
        entries.push(EntryInfo {
            meta: EntryMeta { kind, key, workload, code_len },
            offset,
            encoded_bytes,
            raw_bytes,
            records,
        });
    }
    if pos != body.len() {
        return Err(StoreError::corrupt(pos as u64, "trailing bytes in index"));
    }
    Ok(entries)
}

/// Read one block from `r`, advancing `*pos` (a byte offset used in error
/// reports). `Ok(None)` means clean EOF exactly at a block boundary; any
/// partial header/body, oversize length, or CRC mismatch is `Corrupt`.
fn read_block(r: &mut impl Read, pos: &mut u64) -> Result<Option<(u8, Vec<u8>)>, StoreError> {
    let mut body = Vec::new();
    Ok(read_block_into(r, pos, &mut body)?.map(|kind| (kind, body)))
}

/// [`read_block`] into a caller-owned buffer, so a streaming decode loop
/// reuses one allocation across every block instead of paying a fresh
/// `Vec` per chunk.
fn read_block_into(
    r: &mut impl Read,
    pos: &mut u64,
    body: &mut Vec<u8>,
) -> Result<Option<u8>, StoreError> {
    let mut header = [0u8; BLOCK_HEADER_BYTES];
    let mut got = 0;
    while got < header.len() {
        let n = r.read(&mut header[got..])?;
        if n == 0 {
            break;
        }
        got += n;
    }
    if got == 0 {
        return Ok(None);
    }
    if got < header.len() {
        return Err(StoreError::corrupt(*pos, "partial block header"));
    }
    let kind = header[0];
    let len = u32::from_le_bytes(header[1..5].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(header[5..9].try_into().unwrap());
    if len > MAX_BLOCK_BYTES {
        return Err(StoreError::corrupt(*pos, format!("block length {len} exceeds cap")));
    }
    body.clear();
    body.resize(len, 0);
    let mut filled = 0;
    while filled < len {
        let n = r.read(&mut body[filled..])?;
        if n == 0 {
            return Err(StoreError::corrupt(*pos, "block body truncated"));
        }
        filled += n;
    }
    if crc32(body) != crc {
        return Err(StoreError::corrupt(*pos, "block CRC mismatch"));
    }
    *pos += (BLOCK_HEADER_BYTES + len) as u64;
    Ok(Some(kind))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct Pending {
    meta: EntryMeta,
    offset: u64,
    encoded: u64,
    records: u64,
}

/// Streaming writer for one segment file.
pub struct SegmentWriter {
    path: PathBuf,
    file: BufWriter<File>,
    offset: u64,
    entries: Vec<EntryInfo>,
    pending: Option<Pending>,
    scratch: Vec<u8>,
    /// The open trace entry's records not yet written as a chunk.
    chunk: Vec<TraceRecord>,
}

impl SegmentWriter {
    /// Create a fresh segment at `path` (truncating any existing file) and
    /// write the magic.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let path = path.into();
        let mut file = BufWriter::new(File::create(&path)?);
        file.write_all(SEG_MAGIC)?;
        file.flush()?;
        Ok(SegmentWriter {
            path,
            file,
            offset: SEG_MAGIC.len() as u64,
            entries: Vec::new(),
            pending: None,
            scratch: Vec::new(),
            chunk: Vec::new(),
        })
    }

    /// Resume appending to an unsealed segment whose committed prefix is
    /// `committed_len` bytes and whose committed entries are `entries`
    /// (both from a recovery scan). The caller must already have truncated
    /// the file to `committed_len`.
    pub fn resume(
        path: impl Into<PathBuf>,
        committed_len: u64,
        entries: Vec<EntryInfo>,
    ) -> Result<Self, StoreError> {
        let path = path.into();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        file.seek(SeekFrom::Start(committed_len))?;
        Ok(SegmentWriter {
            path,
            file: BufWriter::new(file),
            offset: committed_len,
            entries,
            pending: None,
            scratch: Vec::new(),
            chunk: Vec::new(),
        })
    }

    /// Path of the file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current append offset (== committed file length between entries).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Entries committed to this segment so far.
    pub fn entries(&self) -> &[EntryInfo] {
        &self.entries
    }

    fn write_block(&mut self, kind: u8, body: &[u8]) -> Result<(), StoreError> {
        if body.len() > MAX_BLOCK_BYTES {
            return Err(StoreError::InvalidInput(format!("block body {} too large", body.len())));
        }
        let mut header = [0u8; BLOCK_HEADER_BYTES];
        header[0] = kind;
        header[1..5].copy_from_slice(&(body.len() as u32).to_le_bytes());
        header[5..9].copy_from_slice(&crc32(body).to_le_bytes());
        self.file.write_all(&header)?;
        self.file.write_all(body)?;
        self.offset += (BLOCK_HEADER_BYTES + body.len()) as u64;
        Ok(())
    }

    /// Open a new entry. Errors if another entry is still open or the key /
    /// workload strings exceed [`MAX_KEY_BYTES`].
    pub fn begin_entry(&mut self, meta: EntryMeta) -> Result<(), StoreError> {
        if self.pending.is_some() {
            return Err(StoreError::InvalidInput("entry already open".into()));
        }
        if meta.key.is_empty() || meta.key.len() > MAX_KEY_BYTES {
            return Err(StoreError::InvalidInput(format!("bad key length {}", meta.key.len())));
        }
        if meta.workload.len() > MAX_KEY_BYTES {
            return Err(StoreError::InvalidInput("workload name too long".into()));
        }
        let offset = self.offset;
        let body = encode_meta(&meta);
        self.write_block(BLOCK_ENTRY_BEGIN, &body)?;
        self.pending = Some(Pending { meta, offset, encoded: 0, records: 0 });
        Ok(())
    }

    /// Append one trace record to the open entry. Records are written in
    /// [`CHUNK_RECORDS`]-sized columnar chunks; the last, short one at
    /// `end_entry`.
    pub fn write_record(&mut self, rec: &TraceRecord) -> Result<(), StoreError> {
        let Some(p) = &self.pending else {
            return Err(StoreError::InvalidInput("no open entry".into()));
        };
        if p.meta.kind != EntryKind::Trace {
            return Err(StoreError::InvalidInput("record written to a blob entry".into()));
        }
        self.chunk.push(*rec);
        if self.chunk.len() == CHUNK_RECORDS {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Write the buffered records as one columnar chunk of the open entry.
    fn flush_chunk(&mut self) -> Result<(), StoreError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        encode_chunk(&self.chunk, &mut scratch);
        let res = self.write_block(BLOCK_DATA, &scratch);
        let body_len = scratch.len() as u64;
        self.scratch = scratch;
        res?;
        let p = self.pending.as_mut().expect("records buffer only inside an open entry");
        p.encoded += body_len;
        p.records += self.chunk.len() as u64;
        self.chunk.clear();
        Ok(())
    }

    /// Append opaque blob bytes to the open (non-trace) entry.
    pub fn write_blob(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let Some(p) = &self.pending else {
            return Err(StoreError::InvalidInput("no open entry".into()));
        };
        if p.meta.kind == EntryKind::Trace {
            return Err(StoreError::InvalidInput("blob written to a trace entry".into()));
        }
        self.write_block(BLOCK_DATA, bytes)?;
        self.pending.as_mut().unwrap().encoded += bytes.len() as u64;
        Ok(())
    }

    /// Commit the open entry. `raw_bytes` is the uncompressed payload size
    /// (the compression-ratio numerator). Flushes so a reader opening the
    /// file immediately afterwards sees the committed entry.
    pub fn end_entry(&mut self, raw_bytes: u64) -> Result<EntryInfo, StoreError> {
        if !self.chunk.is_empty() {
            self.flush_chunk()?;
        }
        let Some(p) = self.pending.take() else {
            return Err(StoreError::InvalidInput("no open entry".into()));
        };
        let body = encode_entry_end(p.records, p.encoded, raw_bytes);
        self.write_block(BLOCK_ENTRY_END, &body)?;
        self.file.flush()?;
        let info = EntryInfo {
            meta: p.meta,
            offset: p.offset,
            encoded_bytes: p.encoded,
            raw_bytes,
            records: p.records,
        };
        self.entries.push(info.clone());
        Ok(info)
    }

    /// Abandon the open entry, truncating the file back to where it began —
    /// the in-process equivalent of crash recovery dropping an uncommitted
    /// tail. No-op when no entry is open.
    pub fn abort_entry(&mut self) -> Result<(), StoreError> {
        self.chunk.clear();
        let Some(p) = self.pending.take() else {
            return Ok(());
        };
        self.file.flush()?;
        let f = self.file.get_mut();
        f.set_len(p.offset)?;
        f.seek(SeekFrom::Start(p.offset))?;
        self.offset = p.offset;
        Ok(())
    }

    /// Write the footer (INDEX block + trailer), flush, and sync. After
    /// sealing the file is immutable.
    pub fn seal(mut self) -> Result<PathBuf, StoreError> {
        if self.pending.is_some() {
            return Err(StoreError::InvalidInput("cannot seal with an open entry".into()));
        }
        let index_offset = self.offset;
        let body = encode_index(&self.entries);
        self.write_block(BLOCK_INDEX, &body)?;
        self.file.write_all(&index_offset.to_le_bytes())?;
        self.file.write_all(SEG_TRAILER_MAGIC)?;
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        Ok(self.path)
    }
}

/// A [`TraceSink`] that streams records into an open segment entry in
/// [`CHUNK_RECORDS`]-sized columnar chunks — `act-store`'s implementation of
/// the one shared trace codec interface (the text codec in `act_trace::io`
/// is the other). The writer holds the partly filled chunk, so an entry
/// can be fed through several sinks in turn (a chunked upload, one sink
/// per chunk) and still be cut into the same chunks.
pub struct TraceEntrySink<'a> {
    writer: &'a mut SegmentWriter,
    key: &'a str,
    workload: &'a str,
}

impl<'a> TraceEntrySink<'a> {
    /// Prepare a sink; the entry opens when the source calls `begin` (which
    /// supplies `code_len`).
    pub fn new(writer: &'a mut SegmentWriter, key: &'a str, workload: &'a str) -> Self {
        TraceEntrySink { writer, key, workload }
    }
}

impl TraceSink for TraceEntrySink<'_> {
    type Error = StoreError;

    fn begin(&mut self, code_len: usize) -> Result<(), StoreError> {
        self.writer.begin_entry(EntryMeta {
            kind: EntryKind::Trace,
            key: self.key.to_string(),
            workload: self.workload.to_string(),
            code_len: code_len as u64,
        })
    }

    fn record(&mut self, rec: &TraceRecord) -> Result<(), StoreError> {
        self.writer.write_record(rec)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Result of scanning a (possibly damaged) segment sequentially.
#[derive(Debug)]
pub struct SegmentScan {
    /// Entries whose `ENTRY_END` was reached intact, in file order.
    pub entries: Vec<EntryInfo>,
    /// Byte length of the committed prefix (safe truncation point).
    pub committed_len: u64,
    /// Actual file length.
    pub file_len: u64,
    /// Whether the scan stopped at a damaged block (vs clean EOF).
    pub corrupt: bool,
    /// Whether a valid footer (INDEX + trailer) was seen.
    pub sealed: bool,
}

impl SegmentScan {
    /// Bytes past the committed prefix (the dropped tail).
    pub fn dropped_bytes(&self) -> u64 {
        self.file_len - self.committed_len
    }
}

/// Read a sealed segment's entry table via its footer. `Ok(None)` when the
/// file has no (or a partial) trailer — i.e. it is unsealed and must be
/// scanned. A present-but-invalid footer is `Corrupt`.
pub fn read_sealed_index(path: &Path) -> Result<Option<Vec<EntryInfo>>, StoreError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let min = (SEG_MAGIC.len() + TRAILER_BYTES) as u64;
    if file_len < min {
        return Ok(None);
    }
    let mut magic = [0u8; 8];
    file.read_exact(&mut magic)?;
    if &magic != SEG_MAGIC {
        return Err(StoreError::corrupt(0, "bad segment magic"));
    }
    file.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))?;
    let mut trailer = [0u8; TRAILER_BYTES];
    file.read_exact(&mut trailer)?;
    if &trailer[8..] != SEG_TRAILER_MAGIC {
        return Ok(None);
    }
    let index_offset = u64::from_le_bytes(trailer[..8].try_into().unwrap());
    if index_offset < SEG_MAGIC.len() as u64 || index_offset >= file_len - TRAILER_BYTES as u64 {
        return Err(StoreError::corrupt(index_offset, "index offset out of range"));
    }
    file.seek(SeekFrom::Start(index_offset))?;
    let mut pos = index_offset;
    let mut r = BufReader::new(file);
    let Some((kind, body)) = read_block(&mut r, &mut pos)? else {
        return Err(StoreError::corrupt(index_offset, "missing index block"));
    };
    if kind != BLOCK_INDEX {
        return Err(StoreError::corrupt(index_offset, "trailer does not point at an index block"));
    }
    Ok(Some(decode_index(&body)?))
}

/// Scan a segment block-by-block, recovering the committed prefix. Never
/// fails on damage past the magic — damage truncates the result instead
/// (`corrupt` reports it). Only IO errors and a bad file magic are `Err`.
pub fn scan_segment(path: &Path) -> Result<SegmentScan, StoreError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut magic = [0u8; 8];
    if file_len < SEG_MAGIC.len() as u64 {
        return Err(StoreError::corrupt(0, "file shorter than segment magic"));
    }
    file.read_exact(&mut magic)?;
    if &magic != SEG_MAGIC {
        return Err(StoreError::corrupt(0, "bad segment magic"));
    }
    let mut r = BufReader::new(file);
    let mut pos = SEG_MAGIC.len() as u64;
    let mut scan = SegmentScan {
        entries: Vec::new(),
        committed_len: pos,
        file_len,
        corrupt: false,
        sealed: false,
    };
    let mut pending: Option<Pending> = None;
    loop {
        let block_start = pos;
        let (kind, body) = match read_block(&mut r, &mut pos) {
            Ok(Some(b)) => b,
            Ok(None) => break,
            Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
            Err(_) => {
                scan.corrupt = true;
                break;
            }
        };
        let ok = match kind {
            BLOCK_ENTRY_BEGIN => match (&pending, decode_meta(&body)) {
                (None, Ok(meta)) => {
                    pending = Some(Pending { meta, offset: block_start, encoded: 0, records: 0 });
                    true
                }
                _ => false,
            },
            BLOCK_DATA => {
                if let Some(p) = pending.as_mut() {
                    p.encoded += body.len() as u64;
                    if p.meta.kind == EntryKind::Trace {
                        // Count records from the chunk header without
                        // decoding the columns.
                        let mut cpos = 0;
                        match get_varint(&body, &mut cpos) {
                            Ok(n) if (n as usize) <= CHUNK_RECORDS => {
                                p.records += n;
                                true
                            }
                            _ => false,
                        }
                    } else {
                        true
                    }
                } else {
                    false
                }
            }
            BLOCK_ENTRY_END => match (pending.take(), decode_entry_end(&body)) {
                (Some(p), Ok((records, encoded, raw)))
                    if records == p.records && encoded == p.encoded =>
                {
                    scan.entries.push(EntryInfo {
                        meta: p.meta,
                        offset: p.offset,
                        encoded_bytes: p.encoded,
                        raw_bytes: raw,
                        records: p.records,
                    });
                    scan.committed_len = pos;
                    true
                }
                _ => false,
            },
            BLOCK_INDEX => {
                // A footer: valid only with the trailer right behind it.
                if pending.is_none()
                    && pos + TRAILER_BYTES as u64 == file_len
                    && decode_index(&body).is_ok()
                {
                    scan.sealed = true;
                    scan.committed_len = file_len;
                }
                break;
            }
            _ => false,
        };
        if !ok {
            scan.corrupt = true;
            break;
        }
    }
    Ok(scan)
}

/// Verified block-level view of one entry (used by the streaming decoders).
pub struct EntryStream {
    reader: BufReader<File>,
    pos: u64,
    meta: EntryMeta,
    done: bool,
}

/// Open the entry whose `ENTRY_BEGIN` block is at `offset` in `path`.
pub fn open_entry(path: &Path, offset: u64) -> Result<EntryStream, StoreError> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    let mut reader = BufReader::new(file);
    let mut pos = offset;
    let Some((kind, body)) = read_block(&mut reader, &mut pos)? else {
        return Err(StoreError::corrupt(offset, "entry offset past end of segment"));
    };
    if kind != BLOCK_ENTRY_BEGIN {
        return Err(StoreError::corrupt(offset, "offset does not point at an entry"));
    }
    let meta = decode_meta(&body)?;
    Ok(EntryStream { reader, pos, meta, done: false })
}

impl EntryStream {
    /// The entry's identity header.
    pub fn meta(&self) -> &EntryMeta {
        &self.meta
    }

    /// Read the next verified `DATA` payload into `body` (`false` once the
    /// entry's `ENTRY_END` has been consumed). A streaming decoder calls
    /// this with the same buffer every time, so steady-state decode does
    /// not allocate per chunk.
    pub fn next_data_into(&mut self, body: &mut Vec<u8>) -> Result<bool, StoreError> {
        if self.done {
            return Ok(false);
        }
        let Some(kind) = read_block_into(&mut self.reader, &mut self.pos, body)? else {
            return Err(StoreError::corrupt(self.pos, "entry truncated before its end block"));
        };
        match kind {
            BLOCK_DATA => Ok(true),
            BLOCK_ENTRY_END => {
                decode_entry_end(body)?;
                self.done = true;
                Ok(false)
            }
            other => Err(StoreError::corrupt(self.pos, format!("unexpected block kind {other}"))),
        }
    }
}

/// Streaming decoder over a stored trace entry: decodes one chunk at a
/// time, so memory is bounded by [`CHUNK_RECORDS`] regardless of trace
/// length — the "stream-decode without materializing" contract.
pub struct TraceEntrySource {
    stream: EntryStream,
    buf: Vec<TraceRecord>,
    body: Vec<u8>,
    next: usize,
    /// Compressed bytes consumed so far (for throughput metrics).
    pub encoded_bytes_read: u64,
}

impl TraceEntrySource {
    /// Wrap an [`EntryStream`]; errors unless the entry is a trace.
    pub fn new(stream: EntryStream) -> Result<Self, StoreError> {
        if stream.meta().kind != EntryKind::Trace {
            return Err(StoreError::InvalidInput(format!(
                "entry `{}` is a {}, not a trace",
                stream.meta().key,
                stream.meta().kind.name()
            )));
        }
        Ok(TraceEntrySource {
            stream,
            buf: Vec::new(),
            body: Vec::new(),
            next: 0,
            encoded_bytes_read: 0,
        })
    }

    /// The entry's identity header.
    pub fn meta(&self) -> &EntryMeta {
        self.stream.meta()
    }

    fn refill(&mut self) -> Result<bool, StoreError> {
        // Both buffers are reused across refills: block payload and
        // decoded records — steady-state streaming decode is allocation
        // free once the buffers reach chunk size.
        if !self.stream.next_data_into(&mut self.body)? {
            return Ok(false);
        }
        self.encoded_bytes_read += self.body.len() as u64;
        self.buf.clear();
        self.next = 0;
        decode_chunk(&self.body, &mut self.buf)?;
        Ok(true)
    }

    /// The next record, or `None` after the entry's last.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, StoreError> {
        while self.next == self.buf.len() {
            if !self.refill()? {
                return Ok(None);
            }
        }
        let rec = self.buf[self.next];
        self.next += 1;
        Ok(Some(rec))
    }
}

/// Materialize a blob entry (models, correct sets). Total size is capped by
/// `limit` — allocation never exceeds the declared, verified block sizes.
pub fn read_blob(stream: &mut EntryStream, limit: usize) -> Result<Vec<u8>, StoreError> {
    let (mut out, mut body) = (Vec::new(), Vec::new());
    while stream.next_data_into(&mut body)? {
        if out.len() + body.len() > limit {
            return Err(StoreError::corrupt(0, format!("blob exceeds {limit} byte cap")));
        }
        out.extend_from_slice(&body);
    }
    Ok(out)
}

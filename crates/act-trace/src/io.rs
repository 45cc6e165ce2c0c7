//! Trace (de)serialization: a line-oriented text format so traces can be
//! archived and shipped between the collection machine and the offline
//! trainer, like the paper's PIN trace files.
//!
//! Format (one record per line, space-separated):
//!
//! ```text
//! acttrace v1 <code_len>
//! L <seq> <cycle> <tid> <pc> <addr> [<store_pc> <load_pc> <inter>]
//! S <seq> <cycle> <tid> <pc> <addr>
//! B <seq> <cycle> <tid> <pc> <taken>
//! T <seq> <cycle> <tid>
//! E <seq> <cycle> <tid>
//! ```
//!
//! There is exactly **one** event codec boundary in the workspace:
//! [`TraceSink`], which consumes a header and then records in order.
//! Producers push into it — [`stream_trace`] from a [`Trace`], the text
//! reader [`parse_text`], and `act-store`'s columnar decoder — and writers
//! implement it: the text writer [`TextTraceSink`], `act-store`'s columnar
//! encoder, and [`TraceBuilder`]. Everything that moves traces — files,
//! protocol frames, the corpus store — goes through it instead of growing
//! a private copy of the record schema.
//!
//! [`parse_text`] is the only code that reads the text format, and it reads
//! one whole buffer: a file, a protocol payload, or an upload the daemon
//! received whole. Each gets the same checks: the header, the
//! [`MAX_CODE_LEN`] and [`MAX_LINE_BYTES`] caps, and a 1-based line number
//! on every malformed line. It reads each line in one pass over its bytes,
//! accumulating a field's digits as it scans them. The format is ASCII:
//! fields are separated by runs of the six ASCII bytes `char::is_whitespace`
//! accepts (`\t \n \x0B \x0C \r`, space), and a line holding a byte ≥ 0x80
//! is rejected — `line is not valid UTF-8` if it is not UTF-8, else `line
//! is not ASCII`.
//!
//! Two paths read a line. A record line in the writer's own form — a known
//! tag, exactly that tag's fields (each one space and 1 to 19 digits, every
//! value in its field's range), then `\n` — takes a tight canonical path
//! that knows the line is well formed. Every other line — the header, a
//! blank or CRLF line, runs of separators, a `+` sign, a 20-digit field, an
//! extra field, anything malformed — gets the general parser's verdict, so
//! the canonical path never decides an error. [`TextTraceSink`] writes each
//! line into the one line buffer it keeps, two digits at a time from a
//! table of the pairs `00`–`99`, and appends it whole.

use crate::event::{Trace, TraceKind, TraceRecord};
use act_sim::events::RawDep;
use std::convert::Infallible;
use std::io::{self, Write};

/// Upper bound on a serialized trace accepted by [`trace_from_bytes`] —
/// the same 64 MiB pre-allocation cap `act-serve` applies to protocol
/// payloads, so a hostile length cannot balloon memory anywhere a trace
/// enters the process.
pub const MAX_TRACE_BYTES: usize = 64 << 20;

/// Upper bound on the `code_len` a trace header may declare. PCs are
/// `u32`, so any honest program fits; a larger declared value is corrupt
/// input, not a big program.
pub const MAX_CODE_LEN: u64 = u32::MAX as u64;

/// Upper bound on one line of the text format, newline excluded. A valid
/// record line is under ~200 bytes; the cap bounds the copy an
/// unterminated last line costs, and it applies to every line.
pub const MAX_LINE_BYTES: usize = 64 << 10;

/// Error produced when parsing a serialized trace.
#[derive(Debug)]
pub enum ParseTraceError {
    /// A malformed line, with its 1-based line number.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseTraceError::Malformed { line, reason } => {
                write!(f, "malformed trace at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseTraceError {}

/// A parse into a sink that cannot fail (a [`TraceBuilder`]) fails only on
/// its input.
impl From<CopyError<Infallible>> for ParseTraceError {
    fn from(e: CopyError<Infallible>) -> Self {
        match e {
            CopyError::Source(e) => e,
            CopyError::Sink(never) => match never {},
        }
    }
}

// ---------------------------------------------------------------------
// The shared codec surface.
// ---------------------------------------------------------------------

/// The consuming half of the trace codec: receives the header once, then
/// every record in trace order. Implemented by the text writer below and
/// by `act-store`'s columnar encoder.
pub trait TraceSink {
    /// What a failing sink reports (I/O for writers, never for builders).
    type Error;

    /// Called once, before any record, with the trace's code length.
    fn begin(&mut self, code_len: usize) -> Result<(), Self::Error>;

    /// Called once per record, in trace order.
    fn record(&mut self, rec: &TraceRecord) -> Result<(), Self::Error>;

    /// Called after the last record; flush any buffered state.
    fn finish(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// Stream `trace` into `sink`: header, every record in order, finish.
/// This is the only encode loop in the workspace — every writer (text
/// file, protocol frame, columnar segment) is a [`TraceSink`] fed by it.
///
/// # Errors
///
/// Propagates the sink's error.
pub fn stream_trace<S: TraceSink>(trace: &Trace, sink: &mut S) -> Result<(), S::Error> {
    sink.begin(trace.code_len)?;
    for rec in trace.iter() {
        sink.record(rec)?;
    }
    sink.finish()
}

/// Which side of a [`parse_text`] failed.
#[derive(Debug)]
pub enum CopyError<E> {
    /// The input was malformed or failed to read.
    Source(ParseTraceError),
    /// The sink failed to accept a record.
    Sink(E),
}

/// A [`TraceSink`] that materializes a [`Trace`] in memory — the bridge
/// from any streaming producer back to the owned form the analyses take.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    trace: Trace,
}

impl TraceBuilder {
    /// An empty builder.
    pub fn new() -> TraceBuilder {
        TraceBuilder::default()
    }

    /// The accumulated trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl TraceSink for TraceBuilder {
    type Error = Infallible;

    fn begin(&mut self, code_len: usize) -> Result<(), Self::Error> {
        self.trace.code_len = code_len;
        Ok(())
    }

    fn record(&mut self, rec: &TraceRecord) -> Result<(), Self::Error> {
        self.trace.records.push(*rec);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Text implementation of the codec.
// ---------------------------------------------------------------------

/// The decimal digit pairs `00` to `99`, two bytes each: the digit writer
/// emits two digits per division by 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// The longest line the writer emits: a tag, eight fields of a space and
/// up to 20 digits, and `\n`.
const MAX_RECORD_LINE: usize = 1 + 8 * 21 + 1;

/// How many decimal digits `v` has. Trace fields are mostly short, and a
/// comparison per digit beats `ilog10` below five digits.
fn digit_count(v: u64) -> usize {
    match v {
        0..=9 => 1,
        10..=99 => 2,
        100..=999 => 3,
        1000..=9999 => 4,
        _ => 1 + v.ilog10() as usize,
    }
}

/// Write ` <v>` in decimal at `line[at..]`, two digits per step from the
/// right; returns the offset past it. The digit writer behind every text
/// field, inlined into the line loop: as a call it cost the writer a fifth
/// of its throughput.
#[inline(always)]
fn put_field(line: &mut [u8; MAX_RECORD_LINE], at: usize, mut v: u64) -> usize {
    let end = at + 1 + digit_count(v);
    line[at] = b' ';
    let mut pos = end;
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        pos -= 2;
        line[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        line[pos - 2..pos].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        line[pos - 1] = b'0' + v as u8;
    }
    end
}

/// The v1 text writer as a [`TraceSink`]: each line is written into one
/// line buffer, then appended once to a buffer the sink owns and hands
/// over whole.
#[derive(Debug)]
pub struct TextTraceSink {
    buf: Vec<u8>,
    /// The line being written; only its written prefix is ever read, so
    /// it is not cleared between lines.
    line: [u8; MAX_RECORD_LINE],
}

impl Default for TextTraceSink {
    fn default() -> Self {
        TextTraceSink::with_capacity(0)
    }
}

impl TextTraceSink {
    /// A sink whose buffer has room for `capacity` bytes up front.
    pub fn with_capacity(capacity: usize) -> TextTraceSink {
        TextTraceSink { buf: Vec::with_capacity(capacity), line: [0; MAX_RECORD_LINE] }
    }

    /// The text written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl TraceSink for TextTraceSink {
    type Error = Infallible;

    fn begin(&mut self, code_len: usize) -> Result<(), Infallible> {
        let (line, head) = (&mut self.line, b"acttrace v1");
        line[..head.len()].copy_from_slice(head);
        let end = put_field(line, head.len(), code_len as u64);
        line[end] = b'\n';
        self.buf.extend_from_slice(&line[..=end]);
        Ok(())
    }

    fn record(&mut self, r: &TraceRecord) -> Result<(), Infallible> {
        // The tag, and its first `n` fields.
        let (seq, cycle, tid, pc) = (r.seq, r.cycle, r.tid.into(), r.pc.into());
        let (tag, fields, n) = match r.kind {
            TraceKind::Load { addr, dep: None } => (b'L', [seq, cycle, tid, pc, addr, 0, 0, 0], 5),
            TraceKind::Load { addr, dep: Some(d) } => {
                let (store, load) = (d.store_pc.into(), d.load_pc.into());
                (b'L', [seq, cycle, tid, pc, addr, store, load, d.inter_thread.into()], 8)
            }
            TraceKind::Store { addr } => (b'S', [seq, cycle, tid, pc, addr, 0, 0, 0], 5),
            TraceKind::Branch { taken } => (b'B', [seq, cycle, tid, pc, taken.into(), 0, 0, 0], 5),
            TraceKind::ThreadStart => (b'T', [seq, cycle, tid, 0, 0, 0, 0, 0], 3),
            TraceKind::ThreadEnd => (b'E', [seq, cycle, tid, 0, 0, 0, 0, 0], 3),
        };
        let line = &mut self.line;
        line[0] = tag;
        let mut end = 1;
        for &v in &fields[..n] {
            end = put_field(line, end, v);
        }
        line[end] = b'\n';
        self.buf.extend_from_slice(&line[..=end]);
        Ok(())
    }
}

/// The v1 text parser, and the only code that reads the format: it hands
/// the header and every record of `bytes`, in order, to `sink`, then
/// finishes it. A field is a decimal with an optional `+`; fields past a
/// record's last are ignored, and lines empty once one trailing `\r` is
/// dropped are skipped. Every line is parsed in place, but for an
/// unterminated last line, which is copied to end it in `\n`.
///
/// # Errors
///
/// [`CopyError::Source`] names the first malformed line, or line 1 of an
/// input with no header line at all; [`CopyError::Sink`] is the sink's own
/// failure.
pub fn parse_text<S: TraceSink>(bytes: &[u8], sink: &mut S) -> Result<(), CopyError<S::Error>> {
    let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl + 1);
    let mut lineno = lines(&bytes[..whole], 0, sink)?;
    let tail = &bytes[whole..];
    if !tail.is_empty() {
        // Refused before it is copied, with the verdict `lines` would give.
        if tail.len() > MAX_LINE_BYTES {
            return Err(malformed(lineno + 1, line_cap()));
        }
        let mut last = Vec::with_capacity(tail.len() + 1);
        last.extend_from_slice(tail);
        last.push(b'\n');
        lineno = lines(&last, lineno, sink)?;
    }
    if lineno == 0 {
        return Err(malformed(1, "empty input".into()));
    }
    sink.finish().map_err(CopyError::Sink)
}

/// Parse `bytes`, a run of whole lines each ending in `\n`, in one pass,
/// numbering them on from `lineno` lines already seen (the first line is
/// the header); returns the lines seen. A record line in the writer's own
/// form takes the canonical path; every other line the general one, where
/// each field is checked and its digits accumulated as it is scanned, and
/// only what follows a record's last field is scanned to be ASCII.
fn lines<S: TraceSink>(
    bytes: &[u8],
    mut lineno: usize,
    sink: &mut S,
) -> Result<usize, CopyError<S::Error>> {
    let mut f = Fields { bytes, pos: 0 };
    while f.pos < bytes.len() {
        lineno += 1;
        if lineno > 1 {
            if let Some(rec) = f.canonical_record() {
                sink.record(&rec).map_err(CopyError::Sink)?;
                continue;
            }
        }
        let start = f.pos;
        let parsed = if lineno == 1 {
            header(&mut f).map(Line::Header)
        } else if bytes[start..].starts_with(b"\n") || bytes[start..].starts_with(b"\r\n") {
            Ok(Line::Blank)
        } else {
            record(&mut f).map(Line::Record)
        };
        // A parsed line's fields are ASCII: only the rest is checked.
        let rest_ascii = f.seek_line_end();
        let line = &bytes[start..f.pos];
        f.pos += 1;
        match parsed {
            Ok(parsed) if rest_ascii && line.len() <= MAX_LINE_BYTES => match parsed {
                Line::Header(code_len) => sink.begin(code_len).map_err(CopyError::Sink)?,
                Line::Record(rec) => sink.record(&rec).map_err(CopyError::Sink)?,
                Line::Blank => {}
            },
            parsed => return Err(malformed(lineno, rejection(line, parsed.err()))),
        }
    }
    Ok(lineno)
}

/// Why `line` is rejected: the cap outranks a non-ASCII byte, which
/// outranks the line's parse error. Only a non-ASCII line is checked for
/// UTF-8, to name its fault.
fn rejection(line: &[u8], parse_error: Option<String>) -> String {
    if line.len() > MAX_LINE_BYTES {
        line_cap()
    } else if line.is_ascii() {
        parse_error.expect("an ASCII line under the cap is rejected only by its parse")
    } else if line.utf8_chunks().all(|chunk| chunk.invalid().is_empty()) {
        "line is not ASCII".into()
    } else {
        "line is not valid UTF-8".into()
    }
}

/// A parse failure of the input at a 1-based line.
fn malformed<E>(line: usize, reason: String) -> CopyError<E> {
    CopyError::Source(ParseTraceError::Malformed { line, reason })
}

fn line_cap() -> String {
    format!("line exceeds the {MAX_LINE_BYTES}-byte cap")
}

/// What one well-formed line holds.
enum Line {
    Header(usize),
    Record(TraceRecord),
    Blank,
}

/// Whether `b` separates fields: the six ASCII bytes `char::is_whitespace`
/// accepts (`\t \n \x0B \x0C \r` and space). `u8::is_ascii_whitespace`
/// omits `\x0B`.
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// A cursor over whole lines. Every line ends in `\n`, a separator, so a
/// scan that stops at a separator never runs off the slice.
struct Fields<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Fields<'a> {
    /// Skip separators up to the next field or the line's `\n`, and return
    /// the byte there.
    fn skip_space(&mut self) -> u8 {
        loop {
            let b = self.bytes[self.pos];
            if b == b'\n' || !is_space(b) {
                return b;
            }
            self.pos += 1;
        }
    }

    /// The next field's bytes; empty at the end of the line.
    fn token(&mut self) -> &'a [u8] {
        self.skip_space();
        let start = self.pos;
        while !is_space(self.bytes[self.pos]) {
            self.pos += 1;
        }
        &self.bytes[start..self.pos]
    }

    /// The next field as a `T`: an optional `+` and decimal digits, as
    /// `str::parse` reads an unsigned integer. `None` when the field is
    /// missing, holds anything else, or does not fit `T`.
    fn number<T: TryFrom<u64>>(&mut self) -> Option<T> {
        if self.skip_space() == b'+' {
            self.pos += 1;
        }
        let start = self.pos;
        let mut v = 0u64;
        loop {
            let b = self.bytes[self.pos];
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                return if self.pos > start && is_space(b) { T::try_from(v).ok() } else { None };
            }
            v = v.checked_mul(10)?.checked_add(digit.into())?;
            self.pos += 1;
        }
    }

    /// The next field as a `T`, or `missing/bad <name>`.
    fn field<T: TryFrom<u64>>(&mut self, name: &str) -> Result<T, String> {
        self.number().ok_or_else(|| format!("missing/bad {name}"))
    }

    /// The next field in the writer's own form: one space and 1 to 19
    /// digits, so it cannot overflow a `u64`. `None` for anything else.
    /// Inlined into the line: as a call it cost the canonical path a
    /// quarter of its throughput.
    #[inline(always)]
    fn canonical(&mut self) -> Option<u64> {
        if self.bytes[self.pos] != b' ' {
            return None;
        }
        let start = self.pos + 1;
        let mut end = start;
        let mut v = 0u64;
        loop {
            let digit = self.bytes[end].wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            // Wraps only past 19 digits, and such a field is refused below.
            v = v.wrapping_mul(10).wrapping_add(digit.into());
            end += 1;
        }
        if end == start || end - start > 19 {
            return None;
        }
        self.pos = end;
        Some(v)
    }

    /// The next canonical field as a `T`; `None` when it does not fit.
    #[inline(always)]
    fn canonical_as<T: TryFrom<u64>>(&mut self) -> Option<T> {
        T::try_from(self.canonical()?).ok()
    }

    /// The record line at the cursor when it is in the writer's own form:
    /// a known tag, exactly that tag's fields, each [`Fields::canonical`],
    /// then `\n`, with every value in its field's range. The cursor moves
    /// past the line's `\n` on success and stays put on `None`, and the
    /// line then gets the general parser's verdict, so this path never
    /// decides an error.
    fn canonical_record(&mut self) -> Option<TraceRecord> {
        let mut c = Fields { bytes: self.bytes, pos: self.pos + 1 };
        let tag = self.bytes[self.pos];
        let (seq, cycle, tid) = match tag {
            b'L' | b'S' | b'B' | b'T' | b'E' => (c.canonical()?, c.canonical()?, c.canonical_as()?),
            _ => return None,
        };
        let (pc, kind) = match tag {
            b'L' => {
                let (pc, addr) = (c.canonical_as()?, c.canonical()?);
                let dep = if c.bytes[c.pos] == b'\n' {
                    None
                } else {
                    let (store_pc, load_pc) = (c.canonical_as()?, c.canonical_as()?);
                    let inter: u8 = c.canonical_as()?;
                    Some(RawDep { store_pc, load_pc, inter_thread: inter != 0 })
                };
                (pc, TraceKind::Load { addr, dep })
            }
            b'S' => (c.canonical_as()?, TraceKind::Store { addr: c.canonical()? }),
            b'B' => (c.canonical_as()?, TraceKind::Branch { taken: c.canonical()? != 0 }),
            b'T' => (0, TraceKind::ThreadStart),
            _ => (0, TraceKind::ThreadEnd),
        };
        if c.bytes[c.pos] != b'\n' {
            return None;
        }
        self.pos = c.pos + 1;
        Some(TraceRecord { seq, cycle, tid, pc, kind })
    }

    /// Move to the line's `\n`; whether the bytes passed on the way are
    /// ASCII.
    fn seek_line_end(&mut self) -> bool {
        let mut ascii = true;
        loop {
            let b = self.bytes[self.pos];
            if b == b'\n' {
                return ascii;
            }
            ascii &= b.is_ascii();
            self.pos += 1;
        }
    }
}

/// The header line: `acttrace v1 <code_len>`.
fn header(f: &mut Fields<'_>) -> Result<usize, String> {
    if f.token() != b"acttrace" || f.token() != b"v1" {
        return Err("bad header".into());
    }
    let code_len: u64 = f.number().ok_or("bad code_len")?;
    if code_len > MAX_CODE_LEN {
        return Err(format!("code_len {code_len} exceeds the {MAX_CODE_LEN} cap"));
    }
    Ok(code_len as usize)
}

/// One record line. Fields are checked in order — the tag is read first
/// but judged after `seq`, `cycle` and `tid` — and a `tid` or `pc` must fit
/// a `u32`.
fn record(f: &mut Fields<'_>) -> Result<TraceRecord, String> {
    let tag = f.token();
    if tag.is_empty() {
        return Err("missing tag".into());
    }
    let seq = f.field("seq")?;
    let cycle = f.field("cycle")?;
    let tid = f.field("tid")?;
    let (pc, kind) = match tag {
        b"L" => {
            let pc = f.field("pc")?;
            let addr = f.field("addr")?;
            let dep = if f.skip_space() == b'\n' {
                None
            } else {
                let store_pc = f.number().ok_or("bad dep store_pc")?;
                let load_pc = f.field("dep load_pc")?;
                let inter: u8 = f.field("dep inter flag")?;
                Some(RawDep { store_pc, load_pc, inter_thread: inter != 0 })
            };
            (pc, TraceKind::Load { addr, dep })
        }
        b"S" => {
            let pc = f.field("pc")?;
            (pc, TraceKind::Store { addr: f.field("addr")? })
        }
        b"B" => {
            let pc = f.field("pc")?;
            (pc, TraceKind::Branch { taken: f.field::<u64>("taken")? != 0 })
        }
        b"T" => (0, TraceKind::ThreadStart),
        b"E" => (0, TraceKind::ThreadEnd),
        other => return Err(format!("unknown tag {}", String::from_utf8_lossy(other))),
    };
    Ok(TraceRecord { seq, cycle, tid, pc, kind })
}

// ---------------------------------------------------------------------
// The file/byte entry points, built on the codec.
// ---------------------------------------------------------------------

/// Serialize `trace` to `w` in the v1 text format.
///
/// # Errors
///
/// Propagates any I/O error from `w`.
pub fn write_trace<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    w.write_all(&trace_to_bytes(trace))
}

/// Serialize `trace` to an in-memory byte buffer — the binary-safe framing
/// of the v1 text format used when a trace travels inside a length-prefixed
/// protocol frame (`act-serve`) rather than a file.
pub fn trace_to_bytes(trace: &Trace) -> Vec<u8> {
    let mut sink = TextTraceSink::default();
    let Ok(()) = stream_trace(trace, &mut sink);
    sink.into_bytes()
}

/// Parse a trace from bytes previously produced by [`trace_to_bytes`] (or
/// any v1 trace file read into memory).
///
/// Hostile input is rejected, never trusted: payloads above
/// [`MAX_TRACE_BYTES`] and declared code lengths above [`MAX_CODE_LEN`]
/// fail before any proportional allocation, and every malformed byte
/// stream surfaces as a [`ParseTraceError`] — no panic, no OOM.
///
/// # Errors
///
/// Returns [`ParseTraceError`] on malformed input, including a line that
/// is not ASCII.
pub fn trace_from_bytes(bytes: &[u8]) -> Result<Trace, ParseTraceError> {
    if bytes.len() > MAX_TRACE_BYTES {
        return Err(ParseTraceError::Malformed {
            line: 1,
            reason: format!(
                "trace payload of {} bytes exceeds the {MAX_TRACE_BYTES}-byte cap",
                bytes.len()
            ),
        });
    }
    let mut builder = TraceBuilder::new();
    parse_text(bytes, &mut builder)?;
    Ok(builder.into_trace())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            records: vec![
                TraceRecord { seq: 0, cycle: 1, tid: 0, pc: 0, kind: TraceKind::ThreadStart },
                TraceRecord {
                    seq: 1,
                    cycle: 4,
                    tid: 0,
                    pc: 7,
                    kind: TraceKind::Store { addr: 0x2000 },
                },
                TraceRecord {
                    seq: 2,
                    cycle: 9,
                    tid: 1,
                    pc: 9,
                    kind: TraceKind::Load {
                        addr: 0x2000,
                        dep: Some(RawDep { store_pc: 7, load_pc: 9, inter_thread: true }),
                    },
                },
                TraceRecord {
                    seq: 3,
                    cycle: 10,
                    tid: 1,
                    pc: 11,
                    kind: TraceKind::Load { addr: 0x3000, dep: None },
                },
                TraceRecord {
                    seq: 4,
                    cycle: 12,
                    tid: 1,
                    pc: 12,
                    kind: TraceKind::Branch { taken: true },
                },
                TraceRecord { seq: 5, cycle: 20, tid: 1, pc: 0, kind: TraceKind::ThreadEnd },
            ],
            code_len: 42,
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let trace = sample();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = trace_from_bytes(&buf).unwrap();
        assert_eq!(back.code_len, trace.code_len);
        assert_eq!(back.records, trace.records);
    }

    #[test]
    fn rejects_bad_header() {
        let err = trace_from_bytes(b"nottrace v1 10\n").unwrap_err();
        assert!(matches!(err, ParseTraceError::Malformed { line: 1, .. }));
    }

    #[test]
    fn rejects_unknown_tag() {
        let err = trace_from_bytes(b"acttrace v1 10\nX 1 2 3\n").unwrap_err();
        assert!(err.to_string().contains("unknown tag"));
    }

    #[test]
    fn rejects_truncated_record() {
        let err = trace_from_bytes(b"acttrace v1 10\nS 1 2\n").unwrap_err();
        assert!(matches!(err, ParseTraceError::Malformed { line: 2, .. }));
    }

    #[test]
    fn bytes_round_trip_matches_file_form() {
        let trace = sample();
        let bytes = trace_to_bytes(&trace);
        let mut file_form = Vec::new();
        write_trace(&trace, &mut file_form).unwrap();
        assert_eq!(bytes, file_form, "framed bytes are exactly the v1 file format");
        let back = trace_from_bytes(&bytes).unwrap();
        assert_eq!(back.records, trace.records);
        assert_eq!(back.code_len, trace.code_len);
    }

    #[test]
    fn bytes_reject_non_utf8() {
        let err = trace_from_bytes(&[0xff, 0xfe, 0x00, 0x01]).unwrap_err();
        assert!(err.to_string().contains("UTF-8"));
    }

    #[test]
    fn empty_body_is_an_empty_trace() {
        let t = trace_from_bytes(b"acttrace v1 99\n").unwrap();
        assert_eq!(t.code_len, 99);
        assert!(t.records.is_empty());
    }

    #[test]
    fn rejects_oversized_code_len_before_anything_else() {
        let huge = format!("acttrace v1 {}\n", u64::MAX);
        let err = trace_from_bytes(huge.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("cap"), "got: {err}");
    }

    #[test]
    fn rejects_oversized_payload_before_parsing() {
        // A declared length check, not an allocation: the slice is real
        // here, but a hostile frame's would not be. Use a cheap synthetic
        // buffer (one giant line of spaces is never parsed — the length
        // gate fires first).
        let bytes = vec![b' '; MAX_TRACE_BYTES + 1];
        let err = trace_from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("cap"), "got: {err}");
    }

    /// The verdict on one input, comparable across parses.
    fn verdict(r: Result<Trace, ParseTraceError>) -> Result<(usize, Vec<TraceRecord>), String> {
        r.map(|t| (t.code_len, t.records)).map_err(|e| e.to_string())
    }

    /// What a sink saw, in order: the header, each record, the finish.
    #[derive(Default)]
    struct Log(Vec<String>);

    impl TraceSink for Log {
        type Error = Infallible;

        fn begin(&mut self, code_len: usize) -> Result<(), Infallible> {
            self.0.push(format!("begin {code_len}"));
            Ok(())
        }

        fn record(&mut self, rec: &TraceRecord) -> Result<(), Infallible> {
            self.0.push(format!("record {}", rec.seq));
            Ok(())
        }

        fn finish(&mut self) -> Result<(), Infallible> {
            self.0.push("finish".into());
            Ok(())
        }
    }

    #[test]
    fn streaming_source_yields_records_in_order() {
        let trace = sample();
        let mut bytes = trace_to_bytes(&trace);
        let mut want = vec!["begin 42".to_string()];
        want.extend(trace.records.iter().map(|r| format!("record {}", r.seq)));
        want.push("finish".into());
        // Terminated or not, the last line is the last record.
        for _ in 0..2 {
            let mut log = Log::default();
            parse_text(&bytes, &mut log).unwrap();
            assert_eq!(log.0, want);
            bytes.pop();
        }
    }

    #[test]
    fn copy_trace_pipes_source_to_sink_without_a_trace() {
        let bytes = trace_to_bytes(&sample());
        let mut sink = TextTraceSink::default();
        parse_text(&bytes, &mut sink).unwrap();
        assert_eq!(sink.into_bytes(), bytes, "text -> text copy is byte-identical");
    }

    #[test]
    fn rejects_tid_and_pc_beyond_u32() {
        for line in ["S 1 2 4294967297 7 8", "S 1 2 0 4294967303 8"] {
            let text = format!("acttrace v1 10\n{line}\n");
            let err = trace_from_bytes(text.as_bytes()).unwrap_err();
            assert!(matches!(err, ParseTraceError::Malformed { line: 2, .. }), "{line}: {err}");
        }
    }

    #[test]
    fn line_cap_holds_on_every_line() {
        // A valid record padded with spaces: only the cap can reject it,
        // on a line in the middle and on an unterminated last line alike.
        let padded = |len: usize, last: bool| {
            let mut text = b"acttrace v1 10\nS 1 2 0 7 8".to_vec();
            text.resize(15 + len, b' ');
            if !last {
                text.extend_from_slice(b"\nT 2 3 0\n");
            }
            text
        };
        for last in [false, true] {
            let fits = trace_from_bytes(&padded(MAX_LINE_BYTES, last)).unwrap();
            assert_eq!(fits.records.len(), 2 - usize::from(last), "last line: {last}");
            let over = trace_from_bytes(&padded(MAX_LINE_BYTES + 1, last)).unwrap_err();
            assert!(matches!(over, ParseTraceError::Malformed { line: 2, .. }), "{over}");
            assert!(over.to_string().contains("cap"), "{over}");
        }
    }

    /// The sample trace under 512 seeded byte mutations: replaced,
    /// inserted and truncated bytes, and appended `u64::MAX` fields.
    fn mutated_inputs() -> Vec<Vec<u8>> {
        use proptest::prelude::*;
        let base = trace_to_bytes(&sample());
        (0..512u64)
            .map(|case| {
                let mut rng = proptest::rng_for("corrupt_input_fuzz_never_panics", case);
                let mut bytes = base.clone();
                let mutations = (any::<u8>().generate(&mut rng) % 8) as usize + 1;
                for _ in 0..mutations {
                    match any::<u8>().generate(&mut rng) % 4 {
                        0 if !bytes.is_empty() => {
                            let i = (any::<u64>().generate(&mut rng) as usize) % bytes.len();
                            bytes[i] = any::<u8>().generate(&mut rng);
                        }
                        1 => {
                            let i = (any::<u64>().generate(&mut rng) as usize) % (bytes.len() + 1);
                            bytes.insert(i, any::<u8>().generate(&mut rng));
                        }
                        2 if !bytes.is_empty() => {
                            let keep = (any::<u64>().generate(&mut rng) as usize) % bytes.len();
                            bytes.truncate(keep);
                        }
                        _ => bytes.extend_from_slice(b" 18446744073709551615"),
                    }
                }
                bytes
            })
            .collect()
    }

    /// The str-based reader the byte parser replaced, kept as its
    /// reference: each line checked as UTF-8, split with
    /// `split_whitespace` and read with `str::parse` — plus the one
    /// intended change, that a line must be ASCII.
    fn reference_parse(bytes: &[u8]) -> Result<Trace, ParseTraceError> {
        let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        if lines.last().is_some_and(|l| l.is_empty()) {
            lines.pop();
        }
        if lines.is_empty() {
            return Err(ParseTraceError::Malformed { line: 1, reason: "empty input".into() });
        }
        let mut trace = Trace::default();
        for (i, line) in lines.into_iter().enumerate() {
            let lineno = i + 1;
            let bad = |reason: String| ParseTraceError::Malformed { line: lineno, reason };
            if line.len() > MAX_LINE_BYTES {
                return Err(bad(format!("line exceeds the {MAX_LINE_BYTES}-byte cap")));
            }
            let text =
                std::str::from_utf8(line).map_err(|_| bad("line is not valid UTF-8".into()))?;
            if !text.is_ascii() {
                return Err(bad("line is not ASCII".into()));
            }
            let text = text.strip_suffix('\r').unwrap_or(text);
            if lineno == 1 {
                let mut hp = text.split_whitespace();
                if hp.next() != Some("acttrace") || hp.next() != Some("v1") {
                    return Err(bad("bad header".into()));
                }
                let code_len: u64 = hp
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad("bad code_len".into()))?;
                if code_len > MAX_CODE_LEN {
                    return Err(bad(format!("code_len {code_len} exceeds the {MAX_CODE_LEN} cap")));
                }
                trace.code_len = code_len as usize;
            } else if !text.is_empty() {
                trace.records.push(parse_record_line(text, lineno)?);
            }
        }
        Ok(trace)
    }

    /// The next whitespace-separated field of a record line, parsed as `T`.
    fn ref_field<T: std::str::FromStr>(
        t: &mut std::str::SplitWhitespace<'_>,
        name: &str,
        lineno: usize,
    ) -> Result<T, ParseTraceError> {
        t.next().and_then(|v| v.parse().ok()).ok_or_else(|| ParseTraceError::Malformed {
            line: lineno,
            reason: format!("missing/bad {name}"),
        })
    }

    /// One record line, as the str-based reader parsed it.
    fn parse_record_line(line: &str, lineno: usize) -> Result<TraceRecord, ParseTraceError> {
        let mut t = line.split_whitespace();
        let bad =
            |reason: &str| ParseTraceError::Malformed { line: lineno, reason: reason.to_string() };
        let tag = t.next().ok_or_else(|| bad("missing tag"))?;
        let seq = ref_field(&mut t, "seq", lineno)?;
        let cycle = ref_field(&mut t, "cycle", lineno)?;
        let tid = ref_field(&mut t, "tid", lineno)?;
        let (pc, kind) = match tag {
            "L" => {
                let pc = ref_field(&mut t, "pc", lineno)?;
                let addr = ref_field(&mut t, "addr", lineno)?;
                let dep = match t.next() {
                    None => None,
                    Some(sp) => {
                        let store_pc: u32 = sp.parse().map_err(|_| bad("bad dep store_pc"))?;
                        let load_pc = ref_field(&mut t, "dep load_pc", lineno)?;
                        let inter: u8 = ref_field(&mut t, "dep inter flag", lineno)?;
                        Some(RawDep { store_pc, load_pc, inter_thread: inter != 0 })
                    }
                };
                (pc, TraceKind::Load { addr, dep })
            }
            "S" => {
                let pc = ref_field(&mut t, "pc", lineno)?;
                let addr = ref_field(&mut t, "addr", lineno)?;
                (pc, TraceKind::Store { addr })
            }
            "B" => {
                let pc = ref_field(&mut t, "pc", lineno)?;
                let taken = ref_field::<u64>(&mut t, "taken", lineno)? != 0;
                (pc, TraceKind::Branch { taken })
            }
            "T" => (0, TraceKind::ThreadStart),
            "E" => (0, TraceKind::ThreadEnd),
            other => return Err(bad(&format!("unknown tag {other}"))),
        };
        Ok(TraceRecord { seq, cycle, tid, pc, kind })
    }

    /// 1,200 seeded ASCII inputs aimed at the grammar's edges: good and bad
    /// headers, all five tags and unknown ones, runs of each separator,
    /// `+`, `-` and missing fields, values at and past the `u8`, `u32` and
    /// `u64` maximums, CRLF endings, blank lines and extra fields.
    fn grammar_inputs() -> Vec<Vec<u8>> {
        use proptest::prelude::*;
        // `\n` last: a clean input draws its separators from the first five.
        const SEPARATORS: &[u8] = b"\t\x0B\x0C\r \n";
        const VALUES: &[&str] = &[
            "0",
            "7",
            "+7",
            "-3",
            "+",
            "-",
            "",
            "007",
            "+0",
            "1x",
            "x",
            "++1",
            "255",
            "256",
            "4294967295",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999999",
            "000000000000000000000000042",
        ];
        const TAGS: &[&str] = &["L", "S", "B", "T", "E", "X", "l", "LL", "#", "+1"];
        // The first seven are good.
        const HEADERS: &[&str] = &[
            "acttrace v1 42",
            "acttrace v1 +42",
            "acttrace v1 0",
            "acttrace v1 4294967295",
            "acttrace  v1\t42 extra",
            " acttrace v1 42",
            "acttrace v1 42\r",
            "acttrace v1 4294967296",
            "acttrace v1 -1",
            "acttrace v1",
            "acttrace v2 42",
            "ACTTRACE v1 42",
            "acttracev1 42",
            "",
        ];
        (0..1200u64)
            .map(|case| {
                let mut rng = proptest::rng_for("grammar_inputs", case);
                let pick = |rng: &mut proptest::TestRng, n: usize| (0..n).generate(rng);
                // Half the inputs are clean: every line well formed.
                let clean = pick(&mut rng, 2) == 0;
                let kinds = if clean { 5 } else { 6 };
                let sep = |rng: &mut proptest::TestRng| -> Vec<u8> {
                    // Mostly one space; otherwise a run of one separator
                    // byte, or a mixed run.
                    match pick(rng, 8) {
                        0..=4 => b" ".to_vec(),
                        5 | 6 => vec![SEPARATORS[pick(rng, kinds)]; pick(rng, 3) + 1],
                        _ => (0..pick(rng, 4) + 1).map(|_| SEPARATORS[pick(rng, kinds)]).collect(),
                    }
                };
                let mut out = Vec::new();
                let headers = if clean { 7 } else { HEADERS.len() };
                out.extend_from_slice(HEADERS[pick(&mut rng, headers)].as_bytes());
                for _ in 0..pick(&mut rng, 9) {
                    // After a blank line, `\r\r\n` leaves a line of one `\r`.
                    out.extend_from_slice(match pick(&mut rng, 12) {
                        0 => b"\r\n",
                        1 if !clean => b"\r\r\n",
                        _ => b"\n",
                    });
                    if pick(&mut rng, 12) == 0 {
                        continue; // a blank line
                    }
                    if pick(&mut rng, 10) == 0 {
                        out.extend_from_slice(&sep(&mut rng));
                    }
                    let valid = clean || pick(&mut rng, 3) != 0;
                    let tag = if valid {
                        TAGS[pick(&mut rng, 5)]
                    } else {
                        TAGS[pick(&mut rng, TAGS.len())]
                    };
                    out.extend_from_slice(tag.as_bytes());
                    let arity = match (valid, tag) {
                        (true, "L") => [5, 8][pick(&mut rng, 2)],
                        (true, "S" | "B") => 5,
                        (true, _) => 3,
                        (false, _) => pick(&mut rng, 10),
                    };
                    for _ in 0..arity {
                        out.extend_from_slice(&sep(&mut rng));
                        let value = if clean || valid && pick(&mut rng, 8) != 0 {
                            // In range for every field, inter flag included.
                            pick(&mut rng, 256).to_string()
                        } else {
                            VALUES[pick(&mut rng, VALUES.len())].to_string()
                        };
                        out.extend_from_slice(value.as_bytes());
                    }
                    if pick(&mut rng, 8) == 0 {
                        out.extend_from_slice(b" 1 2 extra");
                    }
                }
                if pick(&mut rng, 3) != 0 {
                    out.push(b'\n');
                }
                out
            })
            .collect()
    }

    #[test]
    fn byte_parser_matches_the_str_reference() {
        let mut inputs = vec![trace_to_bytes(&sample())];
        inputs.extend(mutated_inputs());
        inputs.extend(grammar_inputs());
        let mut accepted = 0;
        for (case, bytes) in inputs.iter().enumerate() {
            let reference = verdict(reference_parse(bytes));
            accepted += usize::from(reference.is_ok());
            let show = String::from_utf8_lossy(bytes);
            assert_eq!(verdict(trace_from_bytes(bytes)), reference, "input {case}: {show:?}");
        }
        // Both verdicts are well represented, so neither path goes untested.
        assert!(accepted > 600 && inputs.len() - accepted > 600, "{accepted}/{}", inputs.len());
    }

    #[test]
    fn canonical_lines_at_the_field_limits_match_the_reference() {
        // Record lines in the writer's own form, with fields at and past the
        // 19-digit canonical limit and each field type's range: each must
        // get the reference's verdict, whichever path reads it.
        let lines: [(&str, bool); 18] = [
            ("S 9999999999999999999 1 0 7 8", true),
            ("S 0000000000000000042 1 0 7 8", true),
            ("S 00000000000000000042 1 0 7 8", true),
            ("S 10000000000000000000 1 0 7 8", true),
            ("S 18446744073709551615 1 0 7 8", true),
            ("S 18446744073709551616 1 0 7 8", false),
            ("S 99999999999999999999 1 0 7 8", false),
            ("E 1 18446744073709551616 0", false),
            ("T 1 2 4294967295", true),
            ("T 1 2 4294967296", false),
            ("L 1 2 0 4294967296 8", false),
            ("L 1 2 0 7 8 9 10 255", true),
            ("L 1 2 0 7 8 9 10 256", false),
            ("L 1 2 0 7 8 4294967295 4294967295 1", true),
            ("L 1 2 0 7 8 4294967296 10 1", false),
            ("L 1 2 0 7 8 9 4294967296 1", false),
            ("B 1 2 0 7 18446744073709551615", true),
            ("B 1 2 0 7 18446744073709551616", false),
        ];
        for (line, ok) in lines {
            let text = format!("acttrace v1 10\n{line}\nT 3 4 0\n");
            let reference = verdict(reference_parse(text.as_bytes()));
            assert_eq!(reference.is_ok(), ok, "{line}: {reference:?}");
            assert_eq!(verdict(trace_from_bytes(text.as_bytes())), reference, "{line}");
        }
    }

    /// One correct trace of every registry workload, and one failing trace
    /// of every workload with a bug, as the writer emits them.
    fn workload_traces() -> Vec<(String, Vec<u8>)> {
        use act_workloads::registry;
        use act_workloads::run::{correct_runs, first_failure, norm_of};
        use act_workloads::spec::{Params, WorkloadKind};
        let mut out = Vec::new();
        for w in registry::all() {
            let norm = norm_of(w.as_ref());
            let collect = |_: &_| crate::collector::TraceCollector::new(norm);
            let correct = correct_runs(w.as_ref(), w.default_params(), 0..16, collect)
                .next()
                .unwrap_or_else(|| panic!("{}: no correct run", w.name()));
            out.push((
                format!("{} correct", w.name()),
                trace_to_bytes(&correct.observer.into_trace()),
            ));
            if w.kind() != WorkloadKind::CleanKernel {
                // An injected bug sits in new code, absent from clean runs.
                let new_code = w.kind() == WorkloadKind::InjectedBug;
                let params = Params { new_code, ..w.default_params().triggered() };
                let failure = first_failure(w.as_ref(), params, 0..64, collect)
                    .unwrap_or_else(|| panic!("{}: no failing run", w.name()));
                out.push((
                    format!("{} failing", w.name()),
                    trace_to_bytes(&failure.observer.into_trace()),
                ));
            }
        }
        out
    }

    /// `bytes` with every record line rewritten by `rewrite`, which gets
    /// the line's fields (tag first) and returns the new line, `\n` and
    /// all. The header line is kept.
    fn rewrite_records(bytes: &[u8], rewrite: impl Fn(&[&str]) -> String) -> Vec<u8> {
        let text = std::str::from_utf8(bytes).expect("the writer emits ASCII");
        let mut lines = text.lines();
        let mut out = format!("{}\n", lines.next().expect("a header"));
        for line in lines {
            out.push_str(&rewrite(&line.split(' ').collect::<Vec<_>>()));
        }
        out.into_bytes()
    }

    #[test]
    fn workload_traces_parse_like_the_reference_in_and_out_of_canonical_form() {
        // Each rewrite leaves the canonical form, so its lines take the
        // general path and must give the records the canonical path gave.
        type Rewrite = fn(&[&str]) -> String;
        let rewrites: [(&str, Rewrite); 5] = [
            ("doubled spaces", |f| format!("{}\n", f.join("  "))),
            ("tabs", |f| format!("{}\n", f.join("\t"))),
            ("plus signs", |f| format!("{} +{}\n", f[0], f[1..].join(" +"))),
            ("CRLF", |f| format!("{}\r\n", f.join(" "))),
            // A dep-less load's next field would be its dep's store_pc.
            ("an extra field", |f| {
                let extra = if f[0] == "L" && f.len() == 6 { "" } else { " 7" };
                format!("{}{extra}\n", f.join(" "))
            }),
        ];
        let traces = workload_traces();
        assert!(traces.len() > 40, "{} traces", traces.len());
        for (name, bytes) in &traces {
            let parsed = trace_from_bytes(bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(verdict(Ok(parsed.clone())), verdict(reference_parse(bytes)), "{name}");
            assert_eq!(trace_to_bytes(&parsed), *bytes, "{name}: the text round trips");
            for (how, rewrite) in &rewrites {
                let text = rewrite_records(bytes, rewrite);
                let back = verdict(trace_from_bytes(&text));
                assert_eq!(back, verdict(reference_parse(&text)), "{name}, {how}");
                assert_eq!(back, verdict(Ok(parsed.clone())), "{name}, {how}");
            }
        }
    }

    #[test]
    fn a_line_of_unicode_separators_is_not_ascii() {
        // U+3000 is whitespace to `split_whitespace`, so the str reader took
        // this line as a record; the format is ASCII, and it is now refused.
        let line = "S\u{3000}1\u{3000}2 0 7 8";
        assert!(parse_record_line(line, 2).is_ok(), "the str reader accepted it");
        let err = trace_from_bytes(format!("acttrace v1 10\n{line}\n").as_bytes()).unwrap_err();
        assert_eq!(err.to_string(), "malformed trace at line 2: line is not ASCII");
        let err = trace_from_bytes(b"acttrace v1 10\nS 1 2 0 7 \xff\n").unwrap_err();
        assert_eq!(err.to_string(), "malformed trace at line 2: line is not valid UTF-8");
    }

    /// A record line as `write!` formats it: the writer's reference.
    fn reference_line(r: &TraceRecord) -> String {
        let head = format!("{} {} {}", r.seq, r.cycle, r.tid);
        match r.kind {
            TraceKind::Load { addr, dep: None } => format!("L {head} {} {addr}\n", r.pc),
            TraceKind::Load { addr, dep: Some(d) } => format!(
                "L {head} {} {addr} {} {} {}\n",
                r.pc, d.store_pc, d.load_pc, d.inter_thread as u8
            ),
            TraceKind::Store { addr } => format!("S {head} {} {addr}\n", r.pc),
            TraceKind::Branch { taken } => format!("B {head} {} {}\n", r.pc, taken as u8),
            TraceKind::ThreadStart => format!("T {head}\n"),
            TraceKind::ThreadEnd => format!("E {head}\n"),
        }
    }

    #[test]
    fn digit_writer_matches_format() {
        use proptest::prelude::*;
        let edge64 = [0, 1, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX - 1, u64::MAX];
        let edge32 = [0, 1, 9, 10, u32::MAX - 1, u32::MAX];
        for case in 0..200u64 {
            let mut rng = proptest::rng_for("digit_writer_matches_format", case);
            let v64 = |rng: &mut proptest::TestRng| match (0..3u8).generate(rng) {
                0 => edge64[(0..edge64.len()).generate(rng)],
                1 => any::<u64>().generate(rng) >> (0..64u32).generate(rng),
                _ => any::<u64>().generate(rng),
            };
            let v32 = |rng: &mut proptest::TestRng| match (0..2u8).generate(rng) {
                0 => edge32[(0..edge32.len()).generate(rng)],
                _ => any::<u32>().generate(rng) >> (0..32u32).generate(rng),
            };
            let code_len = [0, 42, u32::MAX as usize][(case % 3) as usize];
            let mut trace = Trace { records: Vec::new(), code_len };
            for _ in 0..(0..40usize).generate(&mut rng) {
                let kind = match (0..6u8).generate(&mut rng) {
                    0 => TraceKind::Load { addr: v64(&mut rng), dep: None },
                    1 => TraceKind::Load {
                        addr: v64(&mut rng),
                        dep: Some(RawDep {
                            store_pc: v32(&mut rng),
                            load_pc: v32(&mut rng),
                            inter_thread: any::<bool>().generate(&mut rng),
                        }),
                    },
                    2 => TraceKind::Store { addr: v64(&mut rng) },
                    3 => TraceKind::Branch { taken: any::<bool>().generate(&mut rng) },
                    4 => TraceKind::ThreadStart,
                    _ => TraceKind::ThreadEnd,
                };
                let pc = if matches!(kind, TraceKind::ThreadStart | TraceKind::ThreadEnd) {
                    0
                } else {
                    v32(&mut rng)
                };
                let (seq, cycle, tid) = (v64(&mut rng), v64(&mut rng), v32(&mut rng));
                trace.records.push(TraceRecord { seq, cycle, tid, pc, kind });
            }
            let mut expected = format!("acttrace v1 {code_len}\n");
            expected.extend(trace.records.iter().map(reference_line));
            let bytes = trace_to_bytes(&trace);
            assert_eq!(String::from_utf8_lossy(&bytes), expected, "case {case}");
            let back = trace_from_bytes(&bytes).unwrap();
            assert_eq!((back.code_len, back.records), (trace.code_len, trace.records));
        }
    }

    #[test]
    fn corrupt_input_fuzz_never_panics() {
        // Mutated real traces and raw garbage: every outcome must be
        // Ok(_) or Err(ParseTraceError) — never a panic or runaway
        // allocation.
        for bytes in mutated_inputs() {
            let _ = trace_from_bytes(&bytes); // must return, not panic
        }
    }
}

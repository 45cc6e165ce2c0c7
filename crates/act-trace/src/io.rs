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
//! There is exactly **one** event codec in the workspace, and this module
//! defines its two halves: [`TraceSink`] (consume a header + records in
//! order) and [`TraceSource`] (produce them). `act-store`'s columnar
//! segment codec implements both; the text format's writer is
//! [`TextTraceSink`] and its reader is [`TextParser`]. Everything that
//! moves traces — files, protocol frames, the corpus store — goes through
//! these instead of growing a private copy of the record schema.
//!
//! [`TextParser`] is the only code that reads the text format. It is fed
//! chunks of any size and emits records to a [`TraceSink`], so a file
//! ([`read_trace`]), a whole protocol payload ([`trace_from_bytes`]) and
//! the daemon's chunked uploads all run the same checks: the header, the
//! [`MAX_CODE_LEN`] and [`MAX_LINE_BYTES`] caps, UTF-8 per line, and a
//! 1-based line number on every malformed line.

use crate::event::{Trace, TraceKind, TraceRecord};
use act_sim::events::RawDep;
use std::convert::Infallible;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

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
/// record line is under ~200 bytes; the cap bounds what a chunked reader
/// must buffer for a line split across chunks, and it applies to every
/// line, so no input's verdict depends on how it was chunked.
pub const MAX_LINE_BYTES: usize = 64 << 10;

/// Error produced when parsing a serialized trace.
#[derive(Debug)]
pub enum ParseTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
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
            ParseTraceError::Io(e) => write!(f, "i/o error: {e}"),
            ParseTraceError::Malformed { line, reason } => {
                write!(f, "malformed trace at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseTraceError {}

impl From<io::Error> for ParseTraceError {
    fn from(e: io::Error) -> Self {
        ParseTraceError::Io(e)
    }
}

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
// The shared codec surface: sinks consume, sources produce.
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

/// The producing half of the trace codec: yields the header, then records
/// one at a time — a reader can process a trace without materializing it.
pub trait TraceSource {
    /// The trace's declared code length (available after construction).
    fn code_len(&self) -> usize;

    /// The next record, or `None` at the end of the trace.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] on I/O failure or malformed input.
    fn next_record(&mut self) -> Result<Option<TraceRecord>, ParseTraceError>;
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

/// Drain `source` into `sink` record by record (no intermediate [`Trace`]).
///
/// # Errors
///
/// [`CopyError::Source`] when the source fails to read or yields malformed
/// input, [`CopyError::Sink`] when the sink refuses a record.
pub fn copy_trace<Src, S>(source: &mut Src, sink: &mut S) -> Result<(), CopyError<S::Error>>
where
    Src: TraceSource,
    S: TraceSink,
{
    sink.begin(source.code_len()).map_err(CopyError::Sink)?;
    while let Some(rec) = source.next_record().map_err(CopyError::Source)? {
        sink.record(&rec).map_err(CopyError::Sink)?;
    }
    sink.finish().map_err(CopyError::Sink)
}

/// Which side of a [`copy_trace`] or a [`TextParser`] feed failed.
#[derive(Debug)]
pub enum CopyError<E> {
    /// The input was malformed or failed to read.
    Source(ParseTraceError),
    /// The sink failed to accept a record.
    Sink(E),
}

/// A [`TraceSink`] that materializes a [`Trace`] in memory — the bridge
/// from any streaming source back to the owned form the analyses take.
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

/// Flush threshold for the text writer's internal buffer: large enough to
/// amortize `write_all` syscalls, small enough to stay streaming.
const TEXT_FLUSH_BYTES: usize = 64 << 10;

/// The v1 text writer as a [`TraceSink`]: one line per record, buffered
/// writes to any `W: Write`.
pub struct TextTraceSink<W: Write> {
    w: W,
    buf: String,
}

impl<W: Write> TextTraceSink<W> {
    /// A sink writing the v1 text format to `w`.
    pub fn new(w: W) -> TextTraceSink<W> {
        TextTraceSink { w, buf: String::new() }
    }

    /// Recover the inner writer (call after `finish`; unflushed buffered
    /// lines are dropped).
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write> TraceSink for TextTraceSink<W> {
    type Error = io::Error;

    fn begin(&mut self, code_len: usize) -> Result<(), io::Error> {
        writeln!(self.buf, "acttrace v1 {code_len}").expect("string write");
        Ok(())
    }

    fn record(&mut self, r: &TraceRecord) -> Result<(), io::Error> {
        let buf = &mut self.buf;
        match r.kind {
            TraceKind::Load { addr, dep } => {
                write!(buf, "L {} {} {} {} {}", r.seq, r.cycle, r.tid, r.pc, addr)
                    .expect("string write");
                if let Some(d) = dep {
                    write!(buf, " {} {} {}", d.store_pc, d.load_pc, d.inter_thread as u8)
                        .expect("string write");
                }
                buf.push('\n');
            }
            TraceKind::Store { addr } => {
                writeln!(buf, "S {} {} {} {} {}", r.seq, r.cycle, r.tid, r.pc, addr)
                    .expect("string write");
            }
            TraceKind::Branch { taken } => {
                writeln!(buf, "B {} {} {} {} {}", r.seq, r.cycle, r.tid, r.pc, taken as u8)
                    .expect("string write");
            }
            TraceKind::ThreadStart => {
                writeln!(buf, "T {} {} {}", r.seq, r.cycle, r.tid).expect("string write");
            }
            TraceKind::ThreadEnd => {
                writeln!(buf, "E {} {} {}", r.seq, r.cycle, r.tid).expect("string write");
            }
        }
        if self.buf.len() >= TEXT_FLUSH_BYTES {
            self.w.write_all(self.buf.as_bytes())?;
            self.buf.clear();
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), io::Error> {
        if !self.buf.is_empty() {
            self.w.write_all(self.buf.as_bytes())?;
            self.buf.clear();
        }
        Ok(())
    }
}

/// The v1 text parser, and the only code that reads the format: feed it
/// chunks of any size with [`TextParser::feed`], end the input with
/// [`TextParser::finish`], and it hands the header and every record, in
/// order, to a [`TraceSink`].
///
/// Each line is counted (1-based), capped at [`MAX_LINE_BYTES`], checked to
/// be UTF-8, and loses one trailing `\r`. The first line is the header
/// (`acttrace v1 <code_len>`, `code_len` ≤ [`MAX_CODE_LEN`]) and goes to
/// [`TraceSink::begin`]; later empty lines are skipped, and every other
/// line is a record for [`TraceSink::record`]. A line that lies wholly
/// inside one chunk is parsed in place; only a line split across chunks
/// (or left unterminated) is copied. After an error the input is
/// rejected: feed the parser no more.
#[derive(Debug, Default)]
pub struct TextParser {
    /// The head of a line split across chunks.
    partial: Vec<u8>,
    /// Lines seen so far; the first is the header.
    lineno: usize,
}

impl TextParser {
    /// Parse every complete line of `bytes`, carrying an unterminated tail
    /// over to the next call.
    ///
    /// # Errors
    ///
    /// [`CopyError::Source`] names the first malformed line (a tail already
    /// longer than [`MAX_LINE_BYTES`] counts); [`CopyError::Sink`] is the
    /// sink's own failure.
    pub fn feed<S: TraceSink>(
        &mut self,
        mut bytes: &[u8],
        sink: &mut S,
    ) -> Result<(), CopyError<S::Error>> {
        while let Some(nl) = bytes.iter().position(|&b| b == b'\n') {
            let line = &bytes[..nl];
            bytes = &bytes[nl + 1..];
            self.cap(line.len())?;
            if self.partial.is_empty() {
                self.line(line, sink)?;
            } else {
                self.partial.extend_from_slice(line);
                let joined = std::mem::take(&mut self.partial);
                self.line(&joined, sink)?;
            }
        }
        self.cap(bytes.len())?;
        self.partial.extend_from_slice(bytes);
        Ok(())
    }

    /// End the input: parse an unterminated last line, then finish `sink`.
    ///
    /// # Errors
    ///
    /// As [`TextParser::feed`], and [`CopyError::Source`] when the input
    /// held no header line at all.
    pub fn finish<S: TraceSink>(mut self, sink: &mut S) -> Result<(), CopyError<S::Error>> {
        if !self.partial.is_empty() {
            self.feed(b"\n", sink)?;
        }
        if self.lineno == 0 {
            return Err(CopyError::Source(ParseTraceError::Malformed {
                line: 1,
                reason: "empty input".into(),
            }));
        }
        sink.finish().map_err(CopyError::Sink)
    }

    /// Refuse to let the next line, of which `partial` holds the head,
    /// grow by `more` bytes past [`MAX_LINE_BYTES`].
    fn cap<E>(&self, more: usize) -> Result<(), CopyError<E>> {
        if self.partial.len() + more <= MAX_LINE_BYTES {
            return Ok(());
        }
        Err(CopyError::Source(ParseTraceError::Malformed {
            line: self.lineno + 1,
            reason: format!("line exceeds the {MAX_LINE_BYTES}-byte cap"),
        }))
    }

    /// Parse one complete line, newline stripped and length capped.
    fn line<S: TraceSink>(&mut self, line: &[u8], sink: &mut S) -> Result<(), CopyError<S::Error>> {
        self.lineno += 1;
        let lineno = self.lineno;
        let bad =
            |reason: String| CopyError::Source(ParseTraceError::Malformed { line: lineno, reason });
        let text = std::str::from_utf8(line).map_err(|_| bad("line is not valid UTF-8".into()))?;
        let text = text.strip_suffix('\r').unwrap_or(text);
        if lineno == 1 {
            let mut hp = text.split_whitespace();
            if hp.next() != Some("acttrace") || hp.next() != Some("v1") {
                return Err(bad("bad header".into()));
            }
            let code_len: u64 =
                hp.next().and_then(|t| t.parse().ok()).ok_or_else(|| bad("bad code_len".into()))?;
            if code_len > MAX_CODE_LEN {
                return Err(bad(format!("code_len {code_len} exceeds the {MAX_CODE_LEN} cap")));
            }
            return sink.begin(code_len as usize).map_err(CopyError::Sink);
        }
        if text.is_empty() {
            return Ok(());
        }
        let rec = parse_record_line(text, lineno).map_err(CopyError::Source)?;
        sink.record(&rec).map_err(CopyError::Sink)
    }
}

/// The next whitespace-separated field of a record line, parsed as `T`.
fn field<T: std::str::FromStr>(
    t: &mut std::str::SplitWhitespace<'_>,
    name: &str,
    lineno: usize,
) -> Result<T, ParseTraceError> {
    t.next().and_then(|v| v.parse().ok()).ok_or_else(|| ParseTraceError::Malformed {
        line: lineno,
        reason: format!("missing/bad {name}"),
    })
}

/// Parse one record line of the v1 text format.
///
/// # Errors
///
/// Returns [`ParseTraceError::Malformed`] naming `lineno` for any schema
/// violation, including a `tid` or `pc` that does not fit a `u32`.
fn parse_record_line(line: &str, lineno: usize) -> Result<TraceRecord, ParseTraceError> {
    let mut t = line.split_whitespace();
    let bad =
        |reason: &str| ParseTraceError::Malformed { line: lineno, reason: reason.to_string() };
    let tag = t.next().ok_or_else(|| bad("missing tag"))?;
    let seq = field(&mut t, "seq", lineno)?;
    let cycle = field(&mut t, "cycle", lineno)?;
    let tid = field(&mut t, "tid", lineno)?;
    let (pc, kind) = match tag {
        "L" => {
            let pc = field(&mut t, "pc", lineno)?;
            let addr = field(&mut t, "addr", lineno)?;
            let dep = match t.next() {
                None => None,
                Some(sp) => {
                    let store_pc: u32 = sp.parse().map_err(|_| bad("bad dep store_pc"))?;
                    let load_pc = field(&mut t, "dep load_pc", lineno)?;
                    let inter: u8 = field(&mut t, "dep inter flag", lineno)?;
                    Some(RawDep { store_pc, load_pc, inter_thread: inter != 0 })
                }
            };
            (pc, TraceKind::Load { addr, dep })
        }
        "S" => {
            let pc = field(&mut t, "pc", lineno)?;
            let addr = field(&mut t, "addr", lineno)?;
            (pc, TraceKind::Store { addr })
        }
        "B" => {
            let pc = field(&mut t, "pc", lineno)?;
            let taken = field::<u64>(&mut t, "taken", lineno)? != 0;
            (pc, TraceKind::Branch { taken })
        }
        "T" => (0, TraceKind::ThreadStart),
        "E" => (0, TraceKind::ThreadEnd),
        other => return Err(bad(&format!("unknown tag {other}"))),
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
pub fn write_trace<W: Write>(trace: &Trace, w: W) -> io::Result<()> {
    stream_trace(trace, &mut TextTraceSink::new(w))
}

/// Parse a trace previously produced by [`write_trace`], feeding
/// [`TextParser`] the chunks `r` buffers.
///
/// # Errors
///
/// Returns [`ParseTraceError`] on I/O failure or any malformed line.
pub fn read_trace<R: BufRead>(mut r: R) -> Result<Trace, ParseTraceError> {
    let mut parser = TextParser::default();
    let mut builder = TraceBuilder::new();
    loop {
        let chunk = match r.fill_buf() {
            Ok([]) => break,
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let n = chunk.len();
        parser.feed(chunk, &mut builder)?;
        r.consume(n);
    }
    parser.finish(&mut builder)?;
    Ok(builder.into_trace())
}

/// Serialize `trace` to an in-memory byte buffer — the binary-safe framing
/// of the v1 text format used when a trace travels inside a length-prefixed
/// protocol frame (`act-serve`) rather than a file.
pub fn trace_to_bytes(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace(trace, &mut buf).expect("in-memory write cannot fail");
    buf
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
/// is not UTF-8 (the v1 format is text).
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
    read_trace(bytes)
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
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.code_len, trace.code_len);
        assert_eq!(back.records, trace.records);
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_trace(&b"nottrace v1 10\n"[..]).unwrap_err();
        assert!(matches!(err, ParseTraceError::Malformed { line: 1, .. }));
    }

    #[test]
    fn rejects_unknown_tag() {
        let err = read_trace(&b"acttrace v1 10\nX 1 2 3\n"[..]).unwrap_err();
        assert!(err.to_string().contains("unknown tag"));
    }

    #[test]
    fn rejects_truncated_record() {
        let err = read_trace(&b"acttrace v1 10\nS 1 2\n"[..]).unwrap_err();
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
        let t = read_trace(&b"acttrace v1 99\n"[..]).unwrap();
        assert_eq!(t.code_len, 99);
        assert!(t.records.is_empty());
    }

    #[test]
    fn rejects_oversized_code_len_before_anything_else() {
        let huge = format!("acttrace v1 {}\n", u64::MAX);
        let err = read_trace(huge.as_bytes()).unwrap_err();
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

    /// Parse `bytes` through [`TextParser`] in seeded random chunks of
    /// 1-64 bytes.
    fn parse_chunked(bytes: &[u8], seed: u64) -> Result<Trace, ParseTraceError> {
        use proptest::prelude::*;
        let mut rng = proptest::rng_for("parse_chunked", seed);
        let mut parser = TextParser::default();
        let mut builder = TraceBuilder::new();
        let mut rest = bytes;
        while !rest.is_empty() {
            let n = (any::<u8>().generate(&mut rng) % 64) as usize + 1;
            let (chunk, tail) = rest.split_at(n.min(rest.len()));
            parser.feed(chunk, &mut builder)?;
            rest = tail;
        }
        parser.finish(&mut builder)?;
        Ok(builder.into_trace())
    }

    /// The verdict on one input, comparable across parses.
    fn verdict(r: Result<Trace, ParseTraceError>) -> Result<(usize, Vec<TraceRecord>), String> {
        r.map(|t| (t.code_len, t.records)).map_err(|e| e.to_string())
    }

    #[test]
    fn streaming_source_yields_records_in_order() {
        let trace = sample();
        let bytes = trace_to_bytes(&trace);
        for seed in 0..32 {
            let back = parse_chunked(&bytes, seed).unwrap();
            assert_eq!(back.code_len, 42);
            assert_eq!(back.records, trace.records, "chunking seed {seed}");
        }
        let back = read_trace(std::io::BufReader::with_capacity(7, bytes.as_slice())).unwrap();
        assert_eq!(back.records, trace.records, "a reader that buffers 7 bytes at a time");
    }

    #[test]
    fn copy_trace_pipes_source_to_sink_without_a_trace() {
        let bytes = trace_to_bytes(&sample());
        let mut out = Vec::new();
        let mut sink = TextTraceSink::new(&mut out);
        let mut parser = TextParser::default();
        parser.feed(&bytes, &mut sink).unwrap();
        parser.finish(&mut sink).unwrap();
        assert_eq!(out, bytes, "text -> text copy is byte-identical");
    }

    #[test]
    fn rejects_tid_and_pc_beyond_u32() {
        for line in ["S 1 2 4294967297 7 8", "S 1 2 0 4294967303 8"] {
            let text = format!("acttrace v1 10\n{line}\n");
            let err = read_trace(text.as_bytes()).unwrap_err();
            assert!(matches!(err, ParseTraceError::Malformed { line: 2, .. }), "{line}: {err}");
        }
    }

    #[test]
    fn line_cap_holds_whole_and_chunked() {
        // A valid record padded with spaces: only the cap can reject it.
        let padded = |len: usize| {
            let mut text = b"acttrace v1 10\nS 1 2 0 7 8".to_vec();
            text.resize(15 + len, b' ');
            text.extend_from_slice(b"\nT 2 3 0\n");
            text
        };
        assert_eq!(trace_from_bytes(&padded(MAX_LINE_BYTES)).unwrap().records.len(), 2);
        let over = padded(MAX_LINE_BYTES + 1);
        let whole = trace_from_bytes(&over).unwrap_err();
        assert!(matches!(whole, ParseTraceError::Malformed { line: 2, .. }), "{whole}");
        assert!(whole.to_string().contains("cap"), "{whole}");
        for seed in 0..4 {
            assert_eq!(verdict(parse_chunked(&over, seed)), Err(whole.to_string()));
        }
    }

    #[test]
    fn chunking_never_changes_the_outcome() {
        let mut inputs = vec![trace_to_bytes(&sample())];
        inputs.extend(mutated_inputs());
        for (case, bytes) in inputs.iter().enumerate() {
            let whole = verdict(trace_from_bytes(bytes));
            let chunked = verdict(parse_chunked(bytes, case as u64));
            assert_eq!(chunked, whole, "input {case}: {:?}", String::from_utf8_lossy(bytes));
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

//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! Every message — request or reply — is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "ACTS"
//! 4       1     protocol version (always 4)
//! 5       1     frame kind (see [`FrameKind`])
//! 6       4     payload length, little-endian u32 (<= MAX_PAYLOAD)
//! 10      4     request id, little-endian u32
//! 14      n     payload
//! ```
//!
//! The client chooses each request's id and the reply echoes it, so
//! replies on one connection may arrive in any order. Every connection is
//! a session (see [`crate::conn`]): a first frame of
//! [`FrameKind::Hello`] asks for an in-flight window larger than one (the
//! [`FrameKind::HelloAck`] grants it), and any other first frame opens a
//! window-1 session with that frame as its first request. `BUSY` applies
//! per request and means the request was never queued.
//!
//! Chunked uploads ride on sessions: [`FrameKind::TracePutStart`] /
//! [`FrameKind::DiagnoseStart`] open one, [`FrameKind::StreamChunk`]
//! frames (each <= [`MAX_CHUNK`]) carry the trace text incrementally, and
//! [`FrameKind::StreamEnd`] seals it with a running CRC-32 and total
//! length — so a trace larger than one frame's [`MAX_PAYLOAD`] can be
//! ingested without ever being materialized whole.
//!
//! [`read_frame`] validates magic, version, kind and length from the first
//! ten bytes, before it reads the request id or allocates the payload. A
//! frame stamped with any version but [`VERSION`] is a
//! [`ProtoError::BadVersion`]. See `crates/act-serve/PROTOCOL.md` for the
//! full specification.
//!
//! Payload schemas are hand-rolled little-endian (the workspace is offline
//! and std-only — no serde): length-prefixed strings and byte blobs plus
//! fixed-width integers, via [`Cursor`].

use act_obs::MetricsSnapshot;
use std::borrow::Borrow;
use std::io::{self, Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"ACTS";
/// The protocol version every frame carries (v4 = request ids, sessions
/// and streaming ingest). Frames of any other version are rejected.
pub const VERSION: u8 = 4;
/// Upper bound on payload length; longer declared lengths are rejected
/// *before* any allocation, so a corrupt or hostile length prefix cannot
/// balloon memory.
pub const MAX_PAYLOAD: u32 = 64 << 20;
/// Upper bound on one [`FrameKind::StreamChunk`] payload. Far below
/// [`MAX_PAYLOAD`] on purpose: chunks interleave with other requests'
/// frames on a multiplexed session, so one chunk must never hog the pipe.
pub const MAX_CHUNK: u32 = 4 << 20;
/// Bytes of frame header before the payload, request id included.
pub const HEADER_LEN: usize = 14;
/// The header prefix [`read_frame`] validates before it reads further:
/// magic, version, kind and payload length.
const PREFIX_LEN: usize = 10;

/// What a frame carries. Requests are < 0x80, replies >= 0x80.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Request: train (or load) a model for a workload key.
    Train = 0x01,
    /// Request: diagnose a shipped failing trace against a model.
    Diagnose = 0x02,
    /// Request: the daemon's counters block and metrics snapshot.
    Status = 0x03,
    /// Request: graceful drain and exit.
    Shutdown = 0x04,
    /// Request: store a correct-run trace in the daemon's corpus.
    TracePut = 0x05,
    /// Request: read a stored trace back from the corpus.
    TraceGet = 0x06,
    /// Request: ask for an in-flight window; payload is the desired window
    /// (0 = server default). Only meaningful as a connection's first frame.
    Hello = 0x07,
    /// Request: open a chunked corpus upload for `(key, workload)`.
    TracePutStart = 0x08,
    /// Request: open a chunked diagnose upload for a model spec.
    DiagnoseStart = 0x09,
    /// Request: one chunk of an open upload (raw trace text bytes,
    /// <= [`MAX_CHUNK`]); shares the opener's request id.
    StreamChunk = 0x0a,
    /// Request: seal an open upload with its CRC-32 and total length.
    StreamEnd = 0x0b,
    /// Reply to [`FrameKind::Train`]: training summary text.
    Trained = 0x81,
    /// Reply to [`FrameKind::Diagnose`]: the ranked suspect list, text.
    Diagnosis = 0x82,
    /// Reply to [`FrameKind::Shutdown`]: acknowledged, draining.
    Bye = 0x84,
    /// Reply to [`FrameKind::Status`]: the counters block plus a
    /// serialized metrics snapshot.
    StatusMetrics = 0x85,
    /// Reply to [`FrameKind::TracePut`]: stored; text summary.
    Stored = 0x86,
    /// Reply to [`FrameKind::TraceGet`]: the trace, `act-trace::io` v1
    /// text bytes.
    TraceData = 0x87,
    /// Reply to [`FrameKind::Hello`]: payload is the granted in-flight
    /// window.
    HelloAck = 0x88,
    /// Reply: the job queue is full — retry later (backpressure; the
    /// request was *not* accepted).
    Busy = 0xe0,
    /// Reply: the request failed; payload is the error message.
    Error = 0xe1,
}

impl FrameKind {
    /// Every kind, in wire-byte order, with the `STATUS` counter that
    /// counts its frames (`req_*` for requests, `reply_*` for replies).
    pub(crate) const COUNTERS: [(FrameKind, &'static str); 20] = [
        (FrameKind::Train, "req_train"),
        (FrameKind::Diagnose, "req_diagnose"),
        (FrameKind::Status, "req_status"),
        (FrameKind::Shutdown, "req_shutdown"),
        (FrameKind::TracePut, "req_trace_put"),
        (FrameKind::TraceGet, "req_trace_get"),
        (FrameKind::Hello, "req_hello"),
        (FrameKind::TracePutStart, "req_trace_put_start"),
        (FrameKind::DiagnoseStart, "req_diagnose_start"),
        (FrameKind::StreamChunk, "req_stream_chunk"),
        (FrameKind::StreamEnd, "req_stream_end"),
        (FrameKind::Trained, "reply_trained"),
        (FrameKind::Diagnosis, "reply_diagnosis"),
        (FrameKind::Bye, "reply_bye"),
        (FrameKind::StatusMetrics, "reply_status"),
        (FrameKind::Stored, "reply_stored"),
        (FrameKind::TraceData, "reply_trace_data"),
        (FrameKind::HelloAck, "reply_hello_ack"),
        (FrameKind::Busy, "reply_busy"),
        (FrameKind::Error, "reply_error"),
    ];

    /// This kind's position in [`FrameKind::COUNTERS`].
    pub(crate) fn index(self) -> usize {
        FrameKind::COUNTERS.iter().position(|&(k, _)| k == self).expect("every kind is listed")
    }

    fn from_u8(v: u8) -> Option<FrameKind> {
        FrameKind::COUNTERS.iter().map(|&(k, _)| k).find(|&k| k as u8 == v)
    }
}

/// One protocol frame: a kind, a request id, and the raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload means.
    pub kind: FrameKind,
    /// Chosen by the client; a reply carries the id of the request it
    /// answers.
    pub request_id: u32,
    /// Schema depends on `kind`; see the module docs and `PROTOCOL.md`.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with request id 0.
    pub fn new(kind: FrameKind, payload: Vec<u8>) -> Frame {
        Frame { kind, request_id: 0, payload }
    }

    /// The same frame tagged with a request id.
    pub fn with_request(mut self, request_id: u32) -> Frame {
        self.request_id = request_id;
        self
    }
}

/// A frame handed to a decoder ([`Request::from_frame`],
/// [`Reply::from_frame`]): an owned [`Frame`] gives its payload up to the
/// decoded message, a borrowed one is copied from.
pub trait IntoPayload: Borrow<Frame> {
    /// The payload: moved out of an owned frame, copied from a borrowed one.
    fn into_payload(self) -> Vec<u8>;
}

impl IntoPayload for Frame {
    fn into_payload(self) -> Vec<u8> {
        self.payload
    }
}

impl IntoPayload for &Frame {
    fn into_payload(self) -> Vec<u8> {
        self.payload.clone()
    }
}

/// Everything that can go wrong reading or interpreting a frame.
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    UnknownKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The stream ended before the declared payload arrived.
    Truncated {
        /// Bytes the header promised.
        expected: usize,
    },
    /// The payload did not match its kind's schema.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            ProtoError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (only v{VERSION} is spoken)")
            }
            ProtoError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            ProtoError::Oversized(n) => {
                write!(f, "declared payload length {n} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            ProtoError::Truncated { expected } => {
                write!(f, "stream ended before the declared {expected}-byte payload arrived")
            }
            ProtoError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Write one frame to `w`.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD`] (a caller bug: requests
/// are built by this crate and replies are bounded text).
pub fn write_frame<W: Write>(mut w: W, frame: &Frame) -> io::Result<()> {
    let mut buf = Vec::with_capacity(HEADER_LEN + frame.payload.len());
    encode_frame(&mut buf, frame);
    w.write_all(&buf)?;
    w.flush()
}

/// Append one frame's wire bytes to `buf` without touching a socket — the
/// building block for batched replies, where a worker concatenates every
/// frame of a micro-batch and hands the writer a single `write_all`.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD`] (a caller bug: requests
/// are built by this crate and replies are bounded text).
pub fn encode_frame(buf: &mut Vec<u8>, frame: &Frame) {
    encode_in_place(buf, frame.kind, frame.request_id, |b| b.extend_from_slice(&frame.payload));
}

/// Append a `STREAM_CHUNK` frame carrying `bytes` under `request_id` to
/// `buf`: the bytes [`encode_frame`] gives the same chunk as a [`Frame`],
/// copied once, straight from the caller's read buffer.
///
/// # Panics
///
/// Panics if `bytes` exceeds [`MAX_CHUNK`].
pub fn encode_chunk(buf: &mut Vec<u8>, request_id: u32, bytes: &[u8]) {
    assert!(bytes.len() <= MAX_CHUNK as usize, "stream chunk over MAX_CHUNK");
    encode_in_place(buf, FrameKind::StreamChunk, request_id, |b| b.extend_from_slice(bytes));
}

/// Append one frame of `kind` under `request_id` to `buf`, its payload
/// written in place by `payload`: the header goes first, with the length
/// patched in once the payload is there, so no payload is built apart
/// and copied.
fn encode_in_place(
    buf: &mut Vec<u8>,
    kind: FrameKind,
    request_id: u32,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    let start = buf.len();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&[VERSION, kind as u8, 0, 0, 0, 0]);
    buf.extend_from_slice(&request_id.to_le_bytes());
    payload(buf);
    let len = buf.len() - start - HEADER_LEN;
    assert!(len <= MAX_PAYLOAD as usize, "frame payload too large");
    buf[start + 6..start + PREFIX_LEN].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Read one frame from `r`, validating magic, version, kind, and length
/// before reading the request id or allocating for the payload.
///
/// # Errors
///
/// Returns [`ProtoError`] for I/O failures, bad headers, oversized declared
/// lengths, and truncated frames.
pub fn read_frame<R: Read>(mut r: R) -> Result<Frame, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    read_all(&mut r, &mut header[..PREFIX_LEN])?;
    if header[0..4] != MAGIC {
        return Err(ProtoError::BadMagic([header[0], header[1], header[2], header[3]]));
    }
    if header[4] != VERSION {
        return Err(ProtoError::BadVersion(header[4]));
    }
    let kind = FrameKind::from_u8(header[5]).ok_or(ProtoError::UnknownKind(header[5]))?;
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if len > MAX_PAYLOAD {
        return Err(ProtoError::Oversized(len));
    }
    read_all(&mut r, &mut header[PREFIX_LEN..])?;
    let request_id = u32::from_le_bytes([header[10], header[11], header[12], header[13]]);
    let mut payload = vec![0u8; len as usize];
    read_all(&mut r, &mut payload)?;
    Ok(Frame { kind, request_id, payload })
}

/// `read_exact`, with a stream that ends early reported as
/// [`ProtoError::Truncated`].
fn read_all<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), ProtoError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated { expected: buf.len() }
        } else {
            ProtoError::Io(e)
        }
    })
}

// ---------------------------------------------------------------------
// Payload schemas.
// ---------------------------------------------------------------------

/// The model key + training parameters a client names in `TRAIN` and
/// `DIAGNOSE` requests. `(workload, seq_len, hidden, seed)` identifies the
/// cached model — `seq_len`/`hidden` pin the network topology (inputs are
/// `FEATURES_PER_DEP * seq_len`), so the cache key is the issue's
/// `(workload, topology, seed)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Workload name (resolved via `act-workloads::registry`). Names
    /// starting with `__` are reserved fault-injection hooks (see
    /// `PROTOCOL.md`).
    pub workload: String,
    /// Base seed for trace collection and training.
    pub seed: u64,
    /// Correct-run traces to train from.
    pub traces: u32,
    /// Dependence-sequence length `N`.
    pub seq_len: u16,
    /// Hidden-layer size.
    pub hidden: u16,
    /// Training epoch cap (0 = the server default).
    pub max_epochs: u32,
}

impl ModelSpec {
    /// Server-default parameters for `workload` (10 traces, the harness's
    /// pinned N = 2 / hidden = 10 topology, default epochs).
    pub fn new(workload: &str) -> Self {
        ModelSpec {
            workload: workload.to_string(),
            seed: 0,
            traces: 10,
            seq_len: 2,
            hidden: 10,
            max_epochs: 0,
        }
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_str(buf, &self.workload);
        buf.extend_from_slice(&self.seed.to_le_bytes());
        buf.extend_from_slice(&self.traces.to_le_bytes());
        buf.extend_from_slice(&self.seq_len.to_le_bytes());
        buf.extend_from_slice(&self.hidden.to_le_bytes());
        buf.extend_from_slice(&self.max_epochs.to_le_bytes());
    }

    fn decode(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        Ok(ModelSpec {
            workload: c.take_str()?,
            seed: c.take_u64()?,
            traces: c.take_u32()?,
            seq_len: c.take_u16()?,
            hidden: c.take_u16()?,
            max_epochs: c.take_u32()?,
        })
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Train (or load from cache/disk) the model for a key.
    Train(ModelSpec),
    /// Diagnose a shipped failing trace (`act-trace::io` v1 bytes) against
    /// the model for a key.
    Diagnose(ModelSpec, Vec<u8>),
    /// Fetch the counters block and metrics snapshot.
    Status,
    /// Drain and exit.
    Shutdown,
    /// Store a correct-run trace (`act-trace::io` v1 bytes) in the corpus
    /// under `(workload, key)` (daemons started with `--corpus`).
    TracePut {
        /// Corpus entry key.
        key: String,
        /// Workload the trace belongs to.
        workload: String,
        /// `act-trace::io` v1 text bytes.
        trace: Vec<u8>,
    },
    /// Read a stored trace back from the corpus.
    TraceGet {
        /// Corpus entry key.
        key: String,
    },
    /// Ask for an in-flight window; only meaningful as a connection's
    /// first frame.
    Hello {
        /// In-flight window the client wants (0 = server default). The
        /// server grants `min(desired, its own cap)` in the `HELLO_ACK`.
        window: u32,
    },
    /// Open a chunked corpus upload under `(workload, key)`.
    TracePutStart {
        /// Corpus entry key.
        key: String,
        /// Workload the trace belongs to.
        workload: String,
    },
    /// Open a chunked diagnose upload for a model key.
    DiagnoseStart(ModelSpec),
    /// One chunk of the open upload: raw `act-trace::io` v1 text bytes,
    /// at most [`MAX_CHUNK`] of them.
    StreamChunk(Vec<u8>),
    /// Seal the open upload. The server verifies both fields
    /// against its own running tallies before committing.
    StreamEnd {
        /// CRC-32 of every chunk byte, in order.
        crc32: u32,
        /// Total chunk bytes.
        total_len: u64,
    },
}

impl Request {
    /// Encode to a wire frame.
    pub fn to_frame(&self) -> Frame {
        let mut payload = Vec::new();
        self.put_payload(&mut payload);
        Frame::new(self.kind(), payload)
    }

    /// Append this request's frame under `request_id` to `buf`: the bytes
    /// [`encode_frame`] gives `self.to_frame().with_request(request_id)`,
    /// with the payload written once, straight into `buf`.
    ///
    /// # Panics
    ///
    /// As [`encode_frame`], and on a `STREAM_CHUNK` over [`MAX_CHUNK`].
    pub fn encode_into(&self, request_id: u32, buf: &mut Vec<u8>) {
        encode_in_place(buf, self.kind(), request_id, |b| self.put_payload(b));
    }

    /// The frame kind this request travels as.
    fn kind(&self) -> FrameKind {
        match self {
            Request::Train(_) => FrameKind::Train,
            Request::Diagnose(..) => FrameKind::Diagnose,
            Request::Status => FrameKind::Status,
            Request::Shutdown => FrameKind::Shutdown,
            Request::TracePut { .. } => FrameKind::TracePut,
            Request::TraceGet { .. } => FrameKind::TraceGet,
            Request::Hello { .. } => FrameKind::Hello,
            Request::TracePutStart { .. } => FrameKind::TracePutStart,
            Request::DiagnoseStart(_) => FrameKind::DiagnoseStart,
            Request::StreamChunk(_) => FrameKind::StreamChunk,
            Request::StreamEnd { .. } => FrameKind::StreamEnd,
        }
    }

    /// Append this request's payload to `buf`.
    fn put_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Train(spec) | Request::DiagnoseStart(spec) => spec.encode_into(buf),
            Request::Diagnose(spec, trace) => {
                spec.encode_into(buf);
                put_bytes(buf, trace);
            }
            Request::Status | Request::Shutdown => {}
            Request::TracePut { key, workload, trace } => {
                put_str(buf, key);
                put_str(buf, workload);
                put_bytes(buf, trace);
            }
            Request::TraceGet { key } => put_str(buf, key),
            Request::Hello { window } => buf.extend_from_slice(&window.to_le_bytes()),
            Request::TracePutStart { key, workload } => {
                put_str(buf, key);
                put_str(buf, workload);
            }
            Request::StreamChunk(bytes) => {
                assert!(bytes.len() <= MAX_CHUNK as usize, "stream chunk over MAX_CHUNK");
                buf.extend_from_slice(bytes);
            }
            Request::StreamEnd { crc32, total_len } => {
                buf.extend_from_slice(&crc32.to_le_bytes());
                buf.extend_from_slice(&total_len.to_le_bytes());
            }
        }
    }

    /// Decode a request frame. A `STREAM_CHUNK` taken by value keeps the
    /// frame's payload allocation.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Malformed`] when the frame is a reply kind or
    /// its payload does not match the schema.
    pub fn from_frame(frame: impl IntoPayload) -> Result<Request, ProtoError> {
        let f: &Frame = frame.borrow();
        let mut c = Cursor::new(&f.payload);
        let req = match f.kind {
            FrameKind::Train => Request::Train(ModelSpec::decode(&mut c)?),
            FrameKind::Diagnose => {
                let spec = ModelSpec::decode(&mut c)?;
                let trace = c.take_bytes()?;
                Request::Diagnose(spec, trace)
            }
            FrameKind::Status => Request::Status,
            FrameKind::Shutdown => Request::Shutdown,
            FrameKind::TracePut => {
                let key = c.take_str()?;
                let workload = c.take_str()?;
                let trace = c.take_bytes()?;
                Request::TracePut { key, workload, trace }
            }
            FrameKind::TraceGet => Request::TraceGet { key: c.take_str()? },
            FrameKind::Hello => Request::Hello { window: c.take_u32()? },
            FrameKind::TracePutStart => {
                let key = c.take_str()?;
                let workload = c.take_str()?;
                Request::TracePutStart { key, workload }
            }
            FrameKind::DiagnoseStart => Request::DiagnoseStart(ModelSpec::decode(&mut c)?),
            FrameKind::StreamChunk => {
                if f.payload.len() > MAX_CHUNK as usize {
                    return Err(ProtoError::Malformed(format!(
                        "stream chunk of {} bytes exceeds the {MAX_CHUNK}-byte cap",
                        f.payload.len()
                    )));
                }
                return Ok(Request::StreamChunk(frame.into_payload()));
            }
            FrameKind::StreamEnd => {
                let crc32 = c.take_u32()?;
                let total_len = c.take_u64()?;
                Request::StreamEnd { crc32, total_len }
            }
            other => return Err(ProtoError::Malformed(format!("{other:?} is not a request"))),
        };
        c.finish()?;
        Ok(req)
    }
}

/// A decoded reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Training finished (or the model was already cached); text summary.
    Trained(String),
    /// The ranked suspect list, rendered as text (see `PROTOCOL.md`).
    Diagnosis(String),
    /// The counters block plus the full metrics snapshot it was rendered
    /// from.
    StatusMetrics(String, MetricsSnapshot),
    /// The trace was stored in the corpus; text summary.
    Stored(String),
    /// A stored trace, `act-trace::io` v1 text bytes.
    TraceData(Vec<u8>),
    /// The granted in-flight window.
    HelloAck {
        /// How many requests the client may keep in flight at once.
        window: u32,
    },
    /// Shutdown acknowledged; the daemon is draining.
    Bye,
    /// Queue full — the request was rejected, not accepted-then-dropped.
    Busy,
    /// The request failed (bad workload, crash, deadline, parse error...).
    Error(String),
}

impl Reply {
    /// Encode to a wire frame.
    pub fn to_frame(&self) -> Frame {
        let mut payload = Vec::new();
        self.put_payload(&mut payload);
        Frame::new(self.kind(), payload)
    }

    /// Append this reply's frame under `request_id` to `buf`: the bytes
    /// [`encode_frame`] gives `self.to_frame().with_request(request_id)`,
    /// with the payload written once, straight into `buf`.
    ///
    /// # Panics
    ///
    /// As [`encode_frame`].
    pub fn encode_into(&self, request_id: u32, buf: &mut Vec<u8>) {
        encode_in_place(buf, self.kind(), request_id, |b| self.put_payload(b));
    }

    /// The frame kind this reply travels as.
    pub(crate) fn kind(&self) -> FrameKind {
        match self {
            Reply::Trained(_) => FrameKind::Trained,
            Reply::Diagnosis(_) => FrameKind::Diagnosis,
            Reply::StatusMetrics(..) => FrameKind::StatusMetrics,
            Reply::Stored(_) => FrameKind::Stored,
            Reply::TraceData(_) => FrameKind::TraceData,
            Reply::HelloAck { .. } => FrameKind::HelloAck,
            Reply::Bye => FrameKind::Bye,
            Reply::Busy => FrameKind::Busy,
            Reply::Error(_) => FrameKind::Error,
        }
    }

    /// Append this reply's payload to `buf`.
    fn put_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Reply::Trained(s) | Reply::Diagnosis(s) | Reply::Stored(s) | Reply::Error(s) => {
                buf.extend_from_slice(s.as_bytes());
            }
            Reply::StatusMetrics(s, snap) => {
                put_str(buf, s);
                buf.extend_from_slice(&snap.to_bytes());
            }
            Reply::TraceData(bytes) => buf.extend_from_slice(bytes),
            Reply::HelloAck { window } => buf.extend_from_slice(&window.to_le_bytes()),
            Reply::Bye | Reply::Busy => {}
        }
    }

    /// Decode a reply frame. A `TRACE_DATA` or text reply taken by value
    /// keeps the frame's payload allocation.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Malformed`] when the frame is a request kind
    /// or a text payload is not UTF-8.
    pub fn from_frame(frame: impl IntoPayload) -> Result<Reply, ProtoError> {
        let text = |payload: Vec<u8>| {
            String::from_utf8(payload)
                .map_err(|_| ProtoError::Malformed("reply text is not UTF-8".into()))
        };
        let f: &Frame = frame.borrow();
        Ok(match f.kind {
            FrameKind::Trained => Reply::Trained(text(frame.into_payload())?),
            FrameKind::Diagnosis => Reply::Diagnosis(text(frame.into_payload())?),
            FrameKind::StatusMetrics => {
                let mut c = Cursor::new(&f.payload);
                let status = c.take_str()?;
                let snap = MetricsSnapshot::from_bytes(c.rest)
                    .map_err(|e| ProtoError::Malformed(e.to_string()))?;
                Reply::StatusMetrics(status, snap)
            }
            FrameKind::Stored => Reply::Stored(text(frame.into_payload())?),
            FrameKind::TraceData => Reply::TraceData(frame.into_payload()),
            FrameKind::HelloAck => {
                let mut c = Cursor::new(&f.payload);
                let window = c.take_u32()?;
                c.finish()?;
                Reply::HelloAck { window }
            }
            FrameKind::Bye => Reply::Bye,
            FrameKind::Busy => Reply::Busy,
            FrameKind::Error => Reply::Error(text(frame.into_payload())?),
            other => return Err(ProtoError::Malformed(format!("{other:?} is not a reply"))),
        })
    }
}

// ---------------------------------------------------------------------
// Little-endian cursor helpers.
// ---------------------------------------------------------------------

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
    buf.extend_from_slice(b);
}

struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { rest: bytes }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.rest.len() < n {
            return Err(ProtoError::Malformed(format!(
                "payload truncated: wanted {n} more bytes, have {}",
                self.rest.len()
            )));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn take_u16(&mut self) -> Result<u16, ProtoError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn take_u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn take_u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn take_bytes(&mut self) -> Result<Vec<u8>, ProtoError> {
        let len = self.take_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn take_str(&mut self) -> Result<String, ProtoError> {
        String::from_utf8(self.take_bytes()?)
            .map_err(|_| ProtoError::Malformed("string field is not UTF-8".into()))
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::Malformed(format!("{} trailing payload bytes", self.rest.len())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ModelSpec {
        ModelSpec {
            workload: "apache".into(),
            seed: 7,
            traces: 10,
            seq_len: 2,
            hidden: 10,
            max_epochs: 300,
        }
    }

    #[test]
    fn frame_round_trips_over_a_byte_stream() {
        let frame = Frame::new(FrameKind::Diagnosis, b"ranked=3".to_vec());
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        assert_eq!(&wire[0..4], b"ACTS");
        assert_eq!(wire[4], VERSION);
        let back = read_frame(wire.as_slice()).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn status_metrics_reply_round_trips() {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("requests_served", 5);
        snap.push_gauge("queue_depth", 2);
        snap.push_histogram(
            "service_us",
            act_obs::HistogramSnapshot { bounds: vec![100, 1000], counts: vec![3, 1, 1], sum: 42 },
        );
        let reply = Reply::StatusMetrics("act-serve status\n".into(), snap);
        let frame = reply.to_frame();
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let back = Reply::from_frame(read_frame(wire.as_slice()).unwrap()).unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn status_metrics_rejects_corrupt_snapshot_bytes() {
        let mut frame = Reply::StatusMetrics("s".into(), MetricsSnapshot::new()).to_frame();
        frame.payload.push(0xff);
        assert!(matches!(Reply::from_frame(&frame), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn frames_carry_the_request_id_between_header_and_payload() {
        let frame = Request::TraceGet { key: "k".into() }.to_frame().with_request(0xdead_beef);
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        assert_eq!(wire.len(), HEADER_LEN + frame.payload.len());
        assert_eq!(&wire[10..14], &0xdead_beefu32.to_le_bytes());
        assert_eq!(&wire[HEADER_LEN..], &frame.payload[..]);
        let back = read_frame(wire.as_slice()).unwrap();
        assert_eq!(back.request_id, 0xdead_beef);
    }

    #[test]
    fn session_requests_round_trip() {
        let reqs = [
            Request::Hello { window: 0 },
            Request::Hello { window: 16 },
            Request::TracePutStart { key: "seq-clean-7".into(), workload: "seq".into() },
            Request::DiagnoseStart(spec()),
            Request::StreamChunk(b"L 0 5 0 14 100\n".to_vec()),
            Request::StreamEnd { crc32: 0xCBF4_3926, total_len: 1 << 33 },
        ];
        for (i, req) in reqs.into_iter().enumerate() {
            let frame = req.to_frame().with_request(i as u32 + 1);
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame).unwrap();
            let back = read_frame(wire.as_slice()).unwrap();
            assert_eq!(back.request_id, i as u32 + 1);
            assert_eq!(Request::from_frame(&back).unwrap(), req);
        }
    }

    #[test]
    fn hello_ack_round_trips_and_oversized_chunks_are_rejected() {
        let reply = Reply::HelloAck { window: 32 };
        let mut wire = Vec::new();
        write_frame(&mut wire, &reply.to_frame().with_request(1)).unwrap();
        let back = read_frame(wire.as_slice()).unwrap();
        assert_eq!(Reply::from_frame(&back).unwrap(), reply);

        let frame = Frame::new(FrameKind::StreamChunk, vec![0u8; MAX_CHUNK as usize + 1]);
        assert!(matches!(Request::from_frame(&frame), Err(ProtoError::Malformed(_))));
        let ok = Frame::new(FrameKind::StreamChunk, vec![0u8; MAX_CHUNK as usize]);
        assert!(Request::from_frame(&ok).is_ok());
    }

    #[test]
    fn every_request_round_trips() {
        let reqs = [
            Request::Train(spec()),
            Request::Diagnose(spec(), b"acttrace v1 10\n".to_vec()),
            Request::Status,
            Request::Shutdown,
            Request::TracePut {
                key: "seq-clean-7".into(),
                workload: "seq".into(),
                trace: b"acttrace v1 10\n".to_vec(),
            },
            Request::TraceGet { key: "seq-clean-7".into() },
            Request::Hello { window: 8 },
            Request::TracePutStart { key: "seq-clean-7".into(), workload: "seq".into() },
            Request::DiagnoseStart(spec()),
            Request::StreamChunk(b"S 1 6 0 15 200\n".to_vec()),
            Request::StreamEnd { crc32: 42, total_len: 99 },
        ];
        for (id, req) in (1u32..).zip(reqs) {
            let frame = req.to_frame();
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame).unwrap();
            let back = read_frame(wire.as_slice()).unwrap();
            assert_eq!(Request::from_frame(&back).unwrap(), req, "borrowed");
            assert_eq!(Request::from_frame(back).unwrap(), req, "owned");

            // Encoding in place gives the bytes of the frame built apart,
            // after whatever the buffer already holds.
            let mut framed = vec![0xaa];
            encode_frame(&mut framed, &frame.with_request(id));
            let mut direct = vec![0xaa];
            req.encode_into(id, &mut direct);
            assert_eq!(direct, framed, "{req:?}");
            if let Request::StreamChunk(bytes) = &req {
                let mut chunk = vec![0xaa];
                encode_chunk(&mut chunk, id, bytes);
                assert_eq!(chunk, framed, "a chunk from a borrowed slice");
            }
        }
    }

    #[test]
    fn every_reply_round_trips() {
        let replies = [
            Reply::Trained("topology 10x10x1".into()),
            Reply::Diagnosis("ranked=2\n#1 ...".into()),
            Reply::StatusMetrics("requests_served 5".into(), MetricsSnapshot::new()),
            Reply::Stored("stored seq-clean-7 (3.2x)".into()),
            Reply::TraceData(b"acttrace v1 10\n".to_vec()),
            Reply::HelloAck { window: 32 },
            Reply::Bye,
            Reply::Busy,
            Reply::Error("unknown workload".into()),
        ];
        for (id, reply) in (1u32..).zip(replies) {
            let frame = reply.to_frame();
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame).unwrap();
            let back = read_frame(wire.as_slice()).unwrap();
            assert_eq!(Reply::from_frame(&back).unwrap(), reply, "borrowed");
            assert_eq!(Reply::from_frame(back).unwrap(), reply, "owned");

            let mut framed = vec![0xaa];
            encode_frame(&mut framed, &frame.with_request(id));
            let mut direct = vec![0xaa];
            reply.encode_into(id, &mut direct);
            assert_eq!(direct, framed, "{reply:?}");
        }
    }

    #[test]
    fn decoding_an_owned_frame_keeps_its_payload_allocation() {
        let frame = Request::StreamChunk(b"S 1 6 0 15 200\n".to_vec()).to_frame();
        let at = frame.payload.as_ptr();
        match Request::from_frame(frame).unwrap() {
            Request::StreamChunk(bytes) => assert_eq!(bytes.as_ptr(), at),
            other => panic!("decoded {other:?}"),
        }
        let frame = Reply::TraceData(b"acttrace v1 10\n".to_vec()).to_frame();
        let at = frame.payload.as_ptr();
        match Reply::from_frame(frame).unwrap() {
            Reply::TraceData(bytes) => assert_eq!(bytes.as_ptr(), at),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Status.to_frame()).unwrap();
        let mut bad_magic = wire.clone();
        bad_magic[0] = b'X';
        assert!(matches!(read_frame(bad_magic.as_slice()), Err(ProtoError::BadMagic(_))));
        for version in [1, 2, 3, 5, 99] {
            let mut bad_version = wire.clone();
            bad_version[4] = version;
            let err = read_frame(bad_version.as_slice()).unwrap_err();
            assert!(matches!(err, ProtoError::BadVersion(v) if v == version), "got {err}");
        }
        // An old (v1-v3) frame has no request id: it is rejected from its
        // 10-byte prefix alone, without waiting for bytes that never come.
        let mut old = wire[..10].to_vec();
        old[4] = 3;
        assert!(matches!(read_frame(old.as_slice()), Err(ProtoError::BadVersion(3))));
        let mut bad_kind = wire;
        bad_kind[5] = 0x7f;
        assert!(matches!(read_frame(bad_kind.as_slice()), Err(ProtoError::UnknownKind(0x7f))));
    }

    #[test]
    fn rejects_oversized_declared_length_before_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.push(VERSION);
        wire.push(FrameKind::Status as u8);
        wire.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(read_frame(wire.as_slice()), Err(ProtoError::Oversized(_))));
    }

    #[test]
    fn rejects_truncated_header_and_payload() {
        // Truncated mid-header.
        assert!(matches!(read_frame(&b"ACTS"[..]), Err(ProtoError::Truncated { .. })));
        // Header promises 100 bytes; stream has 3.
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.push(VERSION);
        wire.push(FrameKind::Error as u8);
        wire.extend_from_slice(&100u32.to_le_bytes());
        wire.extend_from_slice(&7u32.to_le_bytes()); // v4 request id
        wire.extend_from_slice(b"abc");
        assert!(matches!(
            read_frame(wire.as_slice()),
            Err(ProtoError::Truncated { expected: 100 })
        ));
        // A v4 header with no request id behind it is truncated too.
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.push(VERSION);
        wire.push(FrameKind::Status as u8);
        wire.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(read_frame(wire.as_slice()), Err(ProtoError::Truncated { expected: 4 })));
    }

    #[test]
    fn rejects_schema_violations() {
        // Trailing garbage after a well-formed spec.
        let mut frame = Request::Train(spec()).to_frame();
        frame.payload.push(0);
        assert!(matches!(Request::from_frame(&frame), Err(ProtoError::Malformed(_))));
        // Truncated spec.
        let mut frame = Request::Train(spec()).to_frame();
        frame.payload.truncate(4);
        assert!(matches!(Request::from_frame(&frame), Err(ProtoError::Malformed(_))));
        // Reply kind decoded as request and vice versa.
        assert!(Request::from_frame(Reply::Busy.to_frame()).is_err());
        assert!(Reply::from_frame(Request::Status.to_frame()).is_err());
    }
}

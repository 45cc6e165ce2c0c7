//! Multiplexed, pipelined sessions: one connection, many requests in
//! flight, replies demultiplexed by request id.
//!
//! A [`Session`] opens with `HELLO` and learns its in-flight window from
//! the `HELLO_ACK`. Every request then takes one path:
//! [`Session::call_with`] claims a window slot, stamps the request with a
//! fresh id, registers a reply callback under that id, and writes the
//! frame; a background reader thread hands every arriving reply to its
//! callback and frees the slot. [`Session::call`] is `call_with` with a
//! callback that feeds a [`Pending`] handle, so a caller pipelines by
//! holding several `Pending`s before waiting on any of them.
//!
//! Chunked uploads ([`Session::stream`]) share the machinery: the opener
//! frame claims one slot and one id, the chunks ride under that id (each
//! at most [`act_serve::proto::MAX_CHUNK`] bytes), and the single reply to
//! `STREAM_END` resolves the handle. Chunk frames from one stream and
//! frames from concurrent requests interleave on the wire at frame
//! granularity — the writer lock is held per frame, never per request.

use act_serve::proto::{encode_chunk, read_frame, MAX_CHUNK};
use act_serve::{ClientConfig, ClientError, Conn, Endpoint, Reply, Request};
use act_store::UploadCheck;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

/// Bytes per `STREAM_CHUNK` frame the client emits (well under the
/// protocol's cap so chunks interleave fairly with other requests).
pub const STREAM_CHUNK_BYTES: usize = 1 << 20;

/// A request's reply, or the error that stands in for one.
type Answer = Result<Reply, ClientError>;

/// What a request's answer is handed to.
type OnReply = Box<dyn FnOnce(Answer) + Send>;

/// What the reader thread and the callers share. The reader holds only
/// this, never the [`Session`], so dropping the last `Session` handle
/// closes the connection.
struct Shared {
    state: Mutex<State>,
    /// Signaled when a window slot frees up (or the session dies).
    slot_free: Condvar,
}

struct State {
    /// The callback of every request in flight, by request id; each one
    /// holds a window slot until its reply lands.
    waiting: HashMap<u32, OnReply>,
    /// Set (with the reason) when the connection died; every present and
    /// future request fails fast once it is.
    dead: Option<String>,
}

/// One multiplexed session. Cheap to share (`Arc`); all methods take
/// `&self`. Dropping the last handle shuts the socket down, which stops
/// the reader thread and fails every request still in flight.
pub struct Session {
    /// Frame-granular write lock; whole frames only, so concurrent
    /// requests and stream chunks never interleave mid-frame.
    writer: Mutex<Conn>,
    shared: Arc<Shared>,
    window: u32,
    next_id: AtomicU32,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.shared.state.lock().expect("session state lock");
        f.debug_struct("Session")
            .field("window", &self.window)
            .field("in_flight", &st.waiting.len())
            .field("dead", &st.dead)
            .finish()
    }
}

impl Session {
    /// Connect, send `HELLO` asking for `depth` in-flight requests, and
    /// wait for the `HELLO_ACK`. The granted window (the server may trim
    /// the ask) is what [`Session::window`] reports.
    ///
    /// # Errors
    ///
    /// Connect, read, or write failure, and a `HELLO` answered with
    /// anything but `HELLO_ACK` (reported as an I/O error).
    pub fn open(
        endpoint: &Endpoint,
        cfg: &ClientConfig,
        depth: u32,
    ) -> Result<Arc<Session>, ClientError> {
        let mut conn = Conn::connect(endpoint, cfg)?;
        let mut hello = Vec::new();
        Request::Hello { window: depth }.encode_into(0, &mut hello);
        conn.write_all(&hello)?;
        let window = match Reply::from_frame(read_frame(&mut conn)?)? {
            Reply::HelloAck { window } => window.max(1),
            other => {
                let why = format!("HELLO answered with {other:?}");
                return Err(ClientError::Io(io::Error::other(why)));
            }
        };
        let writer = conn.try_clone()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State { waiting: HashMap::new(), dead: None }),
            slot_free: Condvar::new(),
        });
        let for_reader = shared.clone();
        std::thread::Builder::new()
            .name("act-client-demux".to_string())
            .spawn(move || reader_loop(conn, &for_reader))?;
        Ok(Arc::new(Session {
            writer: Mutex::new(writer),
            shared,
            window,
            next_id: AtomicU32::new(1),
        }))
    }

    /// The in-flight window the server granted.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Whether the connection has died (pools prune dead sessions).
    pub fn is_dead(&self) -> bool {
        self.shared.state.lock().expect("session state lock").dead.is_some()
    }

    /// Send one request and return its id without waiting for the reply.
    /// Blocks only while the window is full.
    ///
    /// `on_reply` runs exactly once, on the session's reader thread and
    /// outside every session lock: with the reply, or with the dead-session
    /// error if the connection dies first. It should hand the reply off
    /// and return — the session reads nothing else while it runs. The
    /// request's window slot is freed when the reply lands, before
    /// `on_reply` runs.
    ///
    /// # Errors
    ///
    /// Fails when the session is dead or the write fails; `on_reply` then
    /// never runs. If the connection dies while the frame is being
    /// written, the failure is reported once: here, or through `on_reply`
    /// when the reader saw the death first.
    pub fn call_with(
        &self,
        request: &Request,
        on_reply: impl FnOnce(Answer) + Send + 'static,
    ) -> Result<u32, ClientError> {
        let id = self.begin(Box::new(on_reply))?;
        let sent = self.send(id, request).map_err(ClientError::Io);
        self.sent(id, sent)
    }

    /// Send one request without waiting for its reply. Blocks only while
    /// the window is full; the returned [`Pending`] resolves to the reply.
    ///
    /// # Errors
    ///
    /// Fails when the session is dead or the write fails.
    pub fn call(&self, request: &Request) -> Result<Pending, ClientError> {
        let (on_reply, reply) = Pending::channel();
        let id = self.call_with(request, on_reply)?;
        Ok(Pending { id, reply })
    }

    /// Open a chunked upload (`TRACE_PUT_START` or `DIAGNOSE_START`),
    /// stream `reader` through `STREAM_CHUNK` frames with a running
    /// CRC-32, and seal it with `STREAM_END`. The single reply (STORED,
    /// DIAGNOSIS, or ERROR) resolves the returned [`Pending`].
    ///
    /// # Errors
    ///
    /// Fails on dead sessions, source-read failures, and write failures.
    pub fn stream(&self, start: &Request, mut reader: impl Read) -> Result<Pending, ClientError> {
        let (on_reply, reply) = Pending::channel();
        let id = self.begin(Box::new(on_reply))?;
        let sent = (|| -> Result<(), ClientError> {
            self.send(id, start)?;
            let mut check = UploadCheck::default();
            let mut buf = vec![0u8; STREAM_CHUNK_BYTES.min(MAX_CHUNK as usize)];
            let mut frame = Vec::new();
            loop {
                let n = reader.read(&mut buf).map_err(ClientError::Io)?;
                if n == 0 {
                    break;
                }
                check.update(&buf[..n]);
                frame.clear();
                encode_chunk(&mut frame, id, &buf[..n]);
                self.write(&frame)?;
            }
            let end = Request::StreamEnd { crc32: check.crc32(), total_len: check.total_len() };
            self.send(id, &end)?;
            Ok(())
        })();
        let id = self.sent(id, sent)?;
        Ok(Pending { id, reply })
    }

    /// Claim a window slot and a request id, and register `on_reply`
    /// under the id — before any frame goes out, so a fast reply always
    /// finds it.
    fn begin(&self, on_reply: OnReply) -> Result<u32, ClientError> {
        let mut st = self.shared.state.lock().expect("session state lock");
        while st.dead.is_none() && st.waiting.len() >= self.window as usize {
            st = self.shared.slot_free.wait(st).expect("session state lock");
        }
        if let Some(why) = &st.dead {
            return Err(dead_error(why));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        st.waiting.insert(id, on_reply);
        Ok(id)
    }

    /// Encode `request` under `id`, payload and all, straight into the
    /// buffer written as its frame.
    fn send(&self, id: u32, request: &Request) -> io::Result<()> {
        let mut frame = Vec::new();
        request.encode_into(id, &mut frame);
        self.write(&frame)
    }

    /// Write one whole encoded frame under the writer lock.
    fn write(&self, frame: &[u8]) -> io::Result<()> {
        let mut w = self.writer.lock().expect("session writer lock");
        w.write_all(frame)?;
        w.flush()
    }

    /// Settle the send of request `id`. On failure the callback is taken
    /// back unrun and its slot freed — unless the reader already failed it
    /// with the dead-session error, which then is the one report.
    fn sent(&self, id: u32, outcome: Result<(), ClientError>) -> Result<u32, ClientError> {
        let Err(e) = outcome else { return Ok(id) };
        let mut st = self.shared.state.lock().expect("session state lock");
        if st.waiting.remove(&id).is_none() {
            return Ok(id);
        }
        drop(st);
        self.shared.slot_free.notify_one();
        Err(e)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Shut the socket (not just our fd) so the server sees EOF and the
        // reader thread unblocks, failing whatever is still in flight.
        self.writer.lock().expect("session writer lock").shutdown();
    }
}

fn dead_error(why: &str) -> ClientError {
    ClientError::Io(io::Error::new(io::ErrorKind::BrokenPipe, format!("session dead: {why}")))
}

/// Drain replies off the socket, handing each to its request's callback;
/// on any read/decode failure, fail every outstanding and future request.
fn reader_loop(mut conn: Conn, shared: &Shared) {
    let why = loop {
        match read_frame(&mut conn).and_then(|f| Ok((f.request_id, Reply::from_frame(f)?))) {
            Ok((id, reply)) => {
                let on_reply = shared.state.lock().expect("session state lock").waiting.remove(&id);
                // An id nobody is waiting for (abandoned send) is dropped.
                if let Some(on_reply) = on_reply {
                    shared.slot_free.notify_one();
                    on_reply(Ok(reply));
                }
            }
            Err(e) => break e.to_string(),
        }
    };
    let orphans: Vec<OnReply> = {
        let mut st = shared.state.lock().expect("session state lock");
        st.dead = Some(why.clone());
        st.waiting.drain().map(|(_, on_reply)| on_reply).collect()
    };
    shared.slot_free.notify_all();
    for on_reply in orphans {
        on_reply(Err(dead_error(&why)));
    }
}

/// A request in flight on a [`Session`]; [`Pending::wait`] blocks for its
/// reply. The window slot is freed when the reply lands, so a `Pending`
/// dropped unwaited costs nothing but the reply it would have carried.
/// It does not keep the session open: once the last [`Session`] handle
/// is dropped, `wait` fails with the dead-session error.
#[must_use = "a Pending is the only way to read its request's reply"]
pub struct Pending {
    id: u32,
    reply: mpsc::Receiver<Answer>,
}

impl Pending {
    /// A callback that feeds a `Pending`, and the receiving end of it.
    fn channel() -> (impl FnOnce(Answer) + Send + 'static, mpsc::Receiver<Answer>) {
        let (tx, rx) = mpsc::sync_channel(1);
        (
            move |reply| {
                // The receiver is gone when the Pending was dropped.
                let _ = tx.send(reply);
            },
            rx,
        )
    }

    /// The request id this handle waits for.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Block until the reply for this request arrives.
    ///
    /// # Errors
    ///
    /// Fails when the session dies before the reply lands.
    pub fn wait(self) -> Result<Reply, ClientError> {
        self.reply.recv().unwrap_or_else(|_| Err(dead_error("reply callback dropped")))
    }
}

//! Multiplexed, pipelined sessions: one connection, many requests in
//! flight, replies demultiplexed by request id.
//!
//! A [`Session`] opens with `HELLO`, learns its in-flight window from the
//! `HELLO_ACK`, and then hands out [`Pending`] handles: [`Session::call`]
//! claims a window slot, stamps the request with a fresh id, and writes
//! the frame; a background reader thread matches every arriving reply to
//! its waiter. The caller decides how much pipelining it wants by simply
//! holding several `Pending`s before waiting on any of them.
//!
//! Chunked uploads ([`Session::stream`]) share the machinery: the opener
//! frame claims one slot and one id, the chunks ride under that id (each
//! at most [`act_serve::proto::MAX_CHUNK`] bytes), and the single reply to
//! `STREAM_END` resolves the handle. Chunk frames from one stream and
//! frames from concurrent requests interleave on the wire at frame
//! granularity — the writer lock is held per frame, never per request.

use act_serve::proto::{read_frame, write_frame, MAX_CHUNK};
use act_serve::{ClientConfig, ClientError, Conn, Endpoint, Reply, Request};
use act_store::Crc32;
use std::collections::HashMap;
use std::io::{self, Read};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Bytes per `STREAM_CHUNK` frame the client emits (well under the
/// protocol's cap so chunks interleave fairly with other requests).
pub const STREAM_CHUNK_BYTES: usize = 1 << 20;

/// Everything the reader thread and the waiters share, under one lock.
struct State {
    /// Per-request mailbox: `None` until the reply lands.
    replies: HashMap<u32, Option<Reply>>,
    /// Requests currently occupying window slots.
    in_flight: u32,
    /// Set (with the reason) when the connection died; every present and
    /// future waiter fails fast once it is.
    dead: Option<String>,
}

/// One multiplexed session. Cheap to share (`Arc`); all methods take
/// `&self`. Dropping the last handle shuts the socket down, which also
/// stops the reader thread.
pub struct Session {
    /// Frame-granular write lock; whole frames only, so concurrent
    /// requests and stream chunks never interleave mid-frame.
    writer: Mutex<Conn>,
    state: Mutex<State>,
    /// Signaled when a reply lands or the session dies.
    arrived: Condvar,
    /// Signaled when a window slot frees up (or the session dies).
    slot_free: Condvar,
    window: u32,
    next_id: AtomicU32,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().expect("session state lock");
        f.debug_struct("Session")
            .field("window", &self.window)
            .field("in_flight", &st.in_flight)
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
        write_frame(&mut conn, &Request::Hello { window: depth }.to_frame())?;
        let window = match Reply::from_frame(&read_frame(&mut conn)?)? {
            Reply::HelloAck { window } => window.max(1),
            other => {
                let why = format!("HELLO answered with {other:?}");
                return Err(ClientError::Io(io::Error::other(why)));
            }
        };
        let writer = conn.try_clone()?;
        let session = Arc::new(Session {
            writer: Mutex::new(writer),
            state: Mutex::new(State { replies: HashMap::new(), in_flight: 0, dead: None }),
            arrived: Condvar::new(),
            slot_free: Condvar::new(),
            window,
            next_id: AtomicU32::new(1),
        });
        let for_reader = session.clone();
        std::thread::Builder::new()
            .name("act-client-demux".to_string())
            .spawn(move || reader_loop(conn, for_reader))?;
        Ok(session)
    }

    /// The in-flight window the server granted.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Whether the connection has died (pools prune dead sessions).
    pub fn is_dead(&self) -> bool {
        self.state.lock().expect("session state lock").dead.is_some()
    }

    /// Send one request without waiting for its reply. Blocks only while
    /// the window is full; the returned [`Pending`] resolves to the reply.
    ///
    /// # Errors
    ///
    /// Fails when the session is dead or the write fails.
    pub fn call(self: &Arc<Session>, request: &Request) -> Result<Pending, ClientError> {
        let id = self.begin()?;
        let frame = request.to_frame().with_request(id);
        if let Err(e) = {
            let mut w = self.writer.lock().expect("session writer lock");
            write_frame(&mut *w, &frame)
        } {
            self.abandon(id);
            return Err(ClientError::Io(e));
        }
        Ok(Pending { session: self.clone(), id })
    }

    /// Open a chunked upload (`TRACE_PUT_START` or `DIAGNOSE_START`),
    /// stream `reader` through `STREAM_CHUNK` frames with a running
    /// CRC-32, and seal it with `STREAM_END`. The single reply (STORED,
    /// DIAGNOSIS, or ERROR) resolves the returned [`Pending`].
    ///
    /// # Errors
    ///
    /// Fails on dead sessions, source-read failures, and write failures.
    pub fn stream(
        self: &Arc<Session>,
        start: &Request,
        mut reader: impl Read,
    ) -> Result<Pending, ClientError> {
        let id = self.begin()?;
        let send = |frame: &act_serve::Frame| -> io::Result<()> {
            let mut w = self.writer.lock().expect("session writer lock");
            write_frame(&mut *w, frame)
        };
        let result = (|| -> Result<(), ClientError> {
            send(&start.to_frame().with_request(id))?;
            let mut crc = Crc32::new();
            let mut total = 0u64;
            let mut buf = vec![0u8; STREAM_CHUNK_BYTES.min(MAX_CHUNK as usize)];
            loop {
                let n = reader.read(&mut buf).map_err(ClientError::Io)?;
                if n == 0 {
                    break;
                }
                crc.update(&buf[..n]);
                total += n as u64;
                send(&Request::StreamChunk(buf[..n].to_vec()).to_frame().with_request(id))?;
            }
            let end = Request::StreamEnd { crc32: crc.finish(), total_len: total };
            send(&end.to_frame().with_request(id))?;
            Ok(())
        })();
        match result {
            Ok(()) => Ok(Pending { session: self.clone(), id }),
            Err(e) => {
                self.abandon(id);
                Err(e)
            }
        }
    }

    /// Claim a window slot and a request id.
    fn begin(&self) -> Result<u32, ClientError> {
        let mut st = self.state.lock().expect("session state lock");
        while st.dead.is_none() && st.in_flight >= self.window {
            st = self.slot_free.wait(st).expect("session state lock");
        }
        if let Some(why) = &st.dead {
            return Err(dead_error(why));
        }
        st.in_flight += 1;
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        st.replies.insert(id, None);
        Ok(id)
    }

    /// Give the slot back after a failed send (no reply will ever come).
    fn abandon(&self, id: u32) {
        let mut st = self.state.lock().expect("session state lock");
        st.replies.remove(&id);
        st.in_flight = st.in_flight.saturating_sub(1);
        drop(st);
        self.slot_free.notify_one();
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Shut the socket (not just our fd) so the server sees EOF and the
        // reader thread unblocks.
        self.writer.lock().expect("session writer lock").shutdown();
    }
}

fn dead_error(why: &str) -> ClientError {
    ClientError::Io(io::Error::new(io::ErrorKind::BrokenPipe, format!("session dead: {why}")))
}

/// Drain replies off the socket, waking the matching waiters; on any
/// read/decode failure, fail every outstanding and future request.
fn reader_loop(mut conn: Conn, session: Arc<Session>) {
    loop {
        let outcome =
            read_frame(&mut conn).and_then(|f| Ok((f.request_id, Reply::from_frame(&f)?)));
        match outcome {
            Ok((id, reply)) => {
                let mut st = session.state.lock().expect("session state lock");
                if let Some(slot) = st.replies.get_mut(&id) {
                    *slot = Some(reply);
                    drop(st);
                    session.arrived.notify_all();
                }
                // An id nobody is waiting for (abandoned send) is dropped.
            }
            Err(e) => {
                let mut st = session.state.lock().expect("session state lock");
                st.dead = Some(e.to_string());
                drop(st);
                session.arrived.notify_all();
                session.slot_free.notify_all();
                return;
            }
        }
    }
}

/// A request in flight on a [`Session`]. Resolve it with
/// [`Pending::wait`]; dropping it without waiting leaks the window slot
/// for the rest of the session's life, so don't.
#[must_use = "a Pending holds a window slot until waited on"]
pub struct Pending {
    session: Arc<Session>,
    id: u32,
}

impl Pending {
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
        let mut st = self.session.state.lock().expect("session state lock");
        loop {
            if st.replies.get(&self.id).is_some_and(|slot| slot.is_some()) {
                let reply = st.replies.remove(&self.id).flatten().expect("checked above");
                st.in_flight = st.in_flight.saturating_sub(1);
                drop(st);
                self.session.slot_free.notify_one();
                return Ok(reply);
            }
            if let Some(why) = &st.dead {
                let err = dead_error(why);
                st.replies.remove(&self.id);
                st.in_flight = st.in_flight.saturating_sub(1);
                drop(st);
                self.session.slot_free.notify_one();
                return Err(err);
            }
            st = self.session.arrived.wait(st).expect("session state lock");
        }
    }
}

//! The connection model of `act serve` and `act gate`: the Tcp/Unix
//! listener and socket types, the one accept loop both daemons run and
//! the wake-up a drain sends it, and the one session loop both run on
//! every connection, [`run_session`].
//!
//! The acceptor blocks in `accept` and never reads: every connection is a
//! session on a thread of its own. The acceptor hands a connection to a
//! session thread that an ended session left parked, and spawns a thread
//! only when none is; it never waits for one. A parked thread that gets
//! no connection within [`PARK`] exits, and a drain ends every parked
//! thread at once. A connection's first frame decides the window: a
//! `HELLO` asks for one (capped at [`SESSION_WINDOW`]), and any other first
//! frame opens a window-1 session with that frame as its first request —
//! so a client that wants one reply still sends one frame and reads one.
//!
//! The session loop owns the protocol: `STATUS` and `SHUTDOWN` are
//! answered at the session, every other request claims a window slot or
//! gets `BUSY`, a session has one upload open at most, a refused or
//! failed upload's later stream frames are dropped, and any other stray
//! stream frame is a protocol error. A daemon plugs in through
//! [`SessionHost`]: its `STATUS`, its drain, where a request goes, and
//! what an upload does with its frames.
//!
//! Every TCP socket either daemon accepts or connects has `TCP_NODELAY`
//! set. Frames are written whole, one `write_all` each, so Nagle's
//! algorithm has nothing useful to merge; all it would do is hold a
//! frame's tail segment behind an unacknowledged one until the peer's
//! delayed ACK fires, up to 40 ms later.

use crate::client::{connect_tcp, ClientConfig, Endpoint};
use crate::proto::{read_frame, Frame, FrameKind, ProtoError};
use crate::proto::{Reply, Request};
use act_obs::{events, Counter, Gauge, Level, Registry};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Ceiling on the in-flight window a `HELLO` can ask for (and what a
/// `HELLO` asking for 0 gets).
pub const SESSION_WINDOW: u32 = 32;

/// How long a session loop blocks waiting for the next frame's first byte
/// before re-checking the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// How long the accept loop backs off after a failed `accept` (e.g.
/// `EMFILE`) before trying again. An idle listener costs no wake-ups: the
/// loop blocks in `accept`.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// Connect timeout of the connection a drain opens to wake an acceptor.
const WAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// How long a session thread whose connection ended waits, parked, for
/// the acceptor to hand it the next one before it exits. A client that
/// sends one request per connection finds a parked thread every time, so
/// it pays a hand-off instead of a thread spawn and teardown.
pub const PARK: Duration = Duration::from_secs(5);

/// A bound listening socket, TCP or Unix-domain.
#[derive(Debug)]
pub enum Listener {
    /// TCP (remote or loopback).
    Tcp(TcpListener),
    /// Unix-domain socket (local, no network stack).
    Unix(UnixListener),
}

impl Listener {
    /// Block until a client connects. A TCP connection comes back with
    /// `TCP_NODELAY` set.
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                Ok(Conn::Tcp(stream))
            }
            Listener::Unix(l) => Ok(Conn::Unix(l.accept()?.0)),
        }
    }

    /// Where a drain connects to wake this listener's accept loop (see
    /// [`wake`]): the bound address, with an unspecified IP replaced by
    /// loopback, or the bound path.
    ///
    /// # Errors
    ///
    /// The socket has no address to report.
    pub fn wake_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Tcp(l) => {
                let mut addr = l.local_addr()?;
                if addr.ip().is_unspecified() {
                    addr.set_ip(if addr.is_ipv4() {
                        Ipv4Addr::LOCALHOST.into()
                    } else {
                        Ipv6Addr::LOCALHOST.into()
                    });
                }
                Ok(Endpoint::Tcp(addr.to_string()))
            }
            Listener::Unix(l) => match l.local_addr()?.as_pathname() {
                Some(path) => Ok(Endpoint::Unix(path.to_path_buf())),
                None => Err(io::Error::new(io::ErrorKind::InvalidInput, "unnamed unix listener")),
            },
        }
    }
}

/// The accept loop both daemons run, one per listener: block in `accept`
/// and hand each connection to a parked session thread of `sessions`, or
/// run `session` on a new thread (named `session_thread`) when none is
/// parked, until `draining` is set. The flag is checked after every
/// accept, and the connection that woke the loop then is dropped without
/// a session — a drain sets the flag, then [`wake`]s the loop with a
/// connection of its own. On the way out the loop ends every thread
/// parked in `sessions`.
pub fn accept_loop<F>(
    listener: &Listener,
    draining: &AtomicBool,
    sessions: &Arc<SessionThreads>,
    session_thread: &'static str,
    session: F,
) where
    F: Fn(Conn) + Clone + Send + 'static,
{
    while !draining.load(Ordering::SeqCst) {
        let accepted = listener.accept();
        if draining.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok(conn) => {
                if let Err(conn) = sessions.hand_off(conn) {
                    sessions.spawn(session_thread, conn, session.clone());
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
    sessions.close();
}

/// The session threads of a daemon's accept loops, counted from spawn to
/// exit, and the ones among them parked between connections. A daemon's
/// `join` waits for them after its acceptors stop, so the process never
/// exits under a session still writing its last frame (the `BYE` that
/// answers a `SHUTDOWN`): an idle session leaves within 25 ms of a drain,
/// and a parked thread at once. Every thread spawned counts in
/// `session_threads_started`; a hand-off to a parked thread does not.
#[derive(Debug, Default)]
pub struct SessionThreads {
    threads: Mutex<Threads>,
    /// Signaled for a parked thread: a connection was handed off, or the
    /// loops stopped.
    handed: Condvar,
    /// Signaled when the last thread ends.
    ended: Condvar,
    started: Counter,
}

/// The state behind [`SessionThreads`]' lock.
#[derive(Debug, Default)]
struct Threads {
    /// Threads spawned and not yet ended, parked ones included.
    live: usize,
    /// Threads parked or on their way to park. Never fewer than the
    /// connections in `handoffs`: each one has a thread to take it.
    parked: usize,
    /// Connections handed to parked threads and not yet taken.
    handoffs: VecDeque<Conn>,
    /// Set once an accept loop stops: no thread parks any more.
    closed: bool,
}

impl SessionThreads {
    /// Session threads whose spawns count in `registry`'s
    /// `session_threads_started`.
    pub fn new(registry: &Registry) -> SessionThreads {
        SessionThreads { started: registry.counter("session_threads_started"), ..Self::default() }
    }

    fn lock(&self) -> MutexGuard<'_, Threads> {
        // No lock holder can panic mid-update, and a drop must not panic.
        self.threads.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hand `conn` to a parked thread, if one is free to take it; else
    /// give it back.
    fn hand_off(&self, conn: Conn) -> Result<(), Conn> {
        let mut threads = self.lock();
        if threads.closed || threads.parked == threads.handoffs.len() {
            return Err(conn);
        }
        threads.handoffs.push_back(conn);
        drop(threads);
        self.handed.notify_one();
        Ok(())
    }

    /// Run `session` on `conn` on a new thread named `name`, which then
    /// parks for the next connection. A failed spawn drops `conn`.
    fn spawn<F>(self: &Arc<Self>, name: &str, conn: Conn, session: F)
    where
        F: Fn(Conn) + Send + 'static,
    {
        self.lock().live += 1;
        let live = LiveSession(Arc::clone(self));
        let spawned = std::thread::Builder::new().name(name.to_string()).spawn(move || {
            let mut next = Some(conn);
            while let Some(conn) = next {
                session(conn);
                next = live.0.park();
            }
        });
        match spawned {
            Ok(_) => self.started.inc(),
            Err(_) => events().emit(Level::Warn, "conn.accept", format!("failed to spawn {name}")),
        }
    }

    /// Park the calling thread until a connection is handed to it, for at
    /// most [`PARK`]. `None` means it should exit: the wait ran out, or
    /// the accept loops stopped.
    fn park(&self) -> Option<Conn> {
        let deadline = Instant::now() + PARK;
        let mut threads = self.lock();
        threads.parked += 1;
        loop {
            // A handed-off connection is taken even after a close: its
            // session sees the drain and ends at once.
            if let Some(conn) = threads.handoffs.pop_front() {
                threads.parked -= 1;
                return Some(conn);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if threads.closed || left.is_zero() {
                threads.parked -= 1;
                return None;
            }
            threads =
                self.handed.wait_timeout(threads, left).unwrap_or_else(PoisonError::into_inner).0;
        }
    }

    /// Let no thread park any more, and end the parked ones.
    fn close(&self) {
        self.lock().closed = true;
        self.handed.notify_all();
    }

    /// Block until every counted session thread has ended.
    pub fn wait(&self) {
        let mut threads = self.lock();
        while threads.live > 0 {
            threads = self.ended.wait(threads).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One session thread's place in its [`SessionThreads`], from its spawn
/// until it ends (or its spawn fails).
struct LiveSession(Arc<SessionThreads>);

impl Drop for LiveSession {
    fn drop(&mut self) {
        let mut threads = self.0.lock();
        threads.live -= 1;
        if threads.live == 0 {
            self.0.ended.notify_all();
        }
    }
}

/// Wake the accept loop listening on `endpoint` (its listener's
/// [`Listener::wake_endpoint`]) by connecting once, under a short connect
/// timeout, and hanging up. Best effort: a loop that is not blocked in
/// `accept` re-checks its flag after the next connection anyway.
pub fn wake(endpoint: &Endpoint) {
    let cfg = ClientConfig { connect_timeout: Some(WAKE_TIMEOUT), ..ClientConfig::default() };
    let _ = Conn::connect(endpoint, &cfg);
}

/// A connected socket, TCP or Unix-domain.
#[derive(Debug)]
pub enum Conn {
    /// TCP (remote or loopback).
    Tcp(TcpStream),
    /// Unix-domain socket (local, no network stack).
    Unix(UnixStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

impl Conn {
    /// Connect to `endpoint` under `cfg`'s connect and I/O timeouts.
    ///
    /// # Errors
    ///
    /// Connect failure or socket-option failure.
    pub fn connect(endpoint: &Endpoint, cfg: &ClientConfig) -> io::Result<Conn> {
        let conn = match endpoint {
            Endpoint::Tcp(addr) => Conn::Tcp(connect_tcp(addr, cfg.connect_timeout)?),
            Endpoint::Unix(path) => Conn::Unix(UnixStream::connect(path)?),
        };
        conn.set_read_timeout(cfg.io_timeout)?;
        conn.set_write_timeout(cfg.io_timeout)?;
        Ok(conn)
    }

    /// Bound every blocking read (`None` = block forever).
    ///
    /// # Errors
    ///
    /// Socket-option failure.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            Conn::Unix(s) => s.set_read_timeout(t),
        }
    }

    /// Bound every blocking write (`None` = block forever).
    ///
    /// # Errors
    ///
    /// Socket-option failure.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(t),
            Conn::Unix(s) => s.set_write_timeout(t),
        }
    }

    /// A second handle on the same socket, so one thread can write replies
    /// while another blocks reading the next frame.
    ///
    /// # Errors
    ///
    /// The OS refused to duplicate the descriptor.
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => Ok(Conn::Tcp(s.try_clone()?)),
            Conn::Unix(s) => Ok(Conn::Unix(s.try_clone()?)),
        }
    }

    /// Shut the socket down for every handle on it (best effort), so the
    /// peer sees EOF and a thread blocked reading it wakes up.
    pub fn shutdown(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }
}

/// The counters every session of one daemon keeps in that daemon's
/// registry: frames read and written per [`FrameKind`] (`req_*`,
/// `reply_*`), `protocol_errors`, the `BUSY`s the session loop writes
/// (`requests_rejected_busy`) and `sessions_open`. The window slots held
/// and the chunk bytes read go where the daemon says. Cells are found by
/// name, so a daemon reads them through handles of its own.
pub struct SessionStats {
    frames: Vec<Counter>,
    proto_errors: Counter,
    rejected_busy: Counter,
    sessions_open: Gauge,
    slots: Gauge,
    chunk_bytes: Counter,
}

impl SessionStats {
    /// The session counters in `registry`, plus where the window slots
    /// held and the `STREAM_CHUNK` bytes read are counted.
    pub fn new(registry: &Registry, slots: Gauge, chunk_bytes: Counter) -> SessionStats {
        SessionStats {
            frames: FrameKind::COUNTERS.iter().map(|(_, name)| registry.counter(name)).collect(),
            proto_errors: registry.counter("protocol_errors"),
            rejected_busy: registry.counter("requests_rejected_busy"),
            sessions_open: registry.gauge("sessions_open"),
            slots,
            chunk_bytes,
        }
    }

    /// Count one frame read or written, by its kind.
    pub(crate) fn note_frame(&self, kind: FrameKind) {
        self.frames[kind.index()].inc();
    }
}

/// The half of a session its reader shares with whoever answers its
/// requests: the write side of the socket, the in-flight window, and the
/// daemon's session counters. A frame goes out whole under the writer
/// lock, so replies written by concurrent threads never interleave.
pub struct SessionShared {
    writer: Mutex<Conn>,
    window: Window,
    stats: Arc<SessionStats>,
}

impl SessionShared {
    /// Count and write one reply frame tagged with the request id it
    /// answers.
    pub fn send(&self, request_id: u32, reply: &Reply) {
        let mut buf = Vec::new();
        reply.encode_into(request_id, &mut buf);
        self.stats.note_frame(reply.kind());
        self.write(&buf);
    }

    /// Send the final reply for a request holding a window slot,
    /// releasing the slot first: a client may send its next request the
    /// moment the reply lands, and must not find the slot still taken.
    pub fn send_final(&self, request_id: u32, reply: &Reply) {
        self.release();
        self.send(request_id, reply);
    }

    /// Send the final replies for several requests of one micro-batch in
    /// a single buffered write: every slot is released first (as in
    /// [`SessionShared::send_final`]), then one write under one lock —
    /// where a coalesced batch's reply-side win comes from.
    pub(crate) fn send_final_batch(&self, replies: &[(u32, Reply)]) {
        for _ in replies {
            self.release();
        }
        let mut buf = Vec::new();
        for (request_id, reply) in replies {
            reply.encode_into(*request_id, &mut buf);
            self.stats.note_frame(reply.kind());
        }
        self.write(&buf);
    }

    /// Write whole frames under the writer lock.
    fn write(&self, frames: &[u8]) {
        let mut w = self.writer.lock().expect("session writer lock");
        // A vanished client is noticed by the session reader; move on.
        let _ = w.write_all(frames).and_then(|()| w.flush());
    }

    /// Claim one window slot; `false` means the window is full.
    fn claim(&self) -> bool {
        let claimed = self.window.claim();
        if claimed {
            self.stats.slots.add(1);
        }
        claimed
    }

    /// Give back a slot taken by [`SessionShared::claim`].
    fn release(&self) {
        self.window.release();
        self.stats.slots.add(-1);
    }

    /// Answer `BUSY` to a request that holds no slot, counting it.
    fn refuse(&self, request_id: u32) {
        self.stats.rejected_busy.inc();
        self.send(request_id, &Reply::Busy);
    }
}

/// What a daemon plugs into the one session loop, [`run_session`]. The
/// loop owns the protocol; a daemon supplies only what differs: its
/// `STATUS` and its drain, where a request that holds a window slot goes,
/// and what an upload does with its frames.
pub trait SessionHost {
    /// One upload in progress: opened by its `TRACE_PUT_START` or
    /// `DIAGNOSE_START`, fed its chunks, sealed by its `STREAM_END`.
    type Upload;

    /// The counters every session of this daemon keeps.
    fn session_stats(&self) -> &Arc<SessionStats>;
    /// Set once the daemon drains; a session then stops reading.
    fn draining(&self) -> &AtomicBool;
    /// The read/write timeout of a session's socket.
    fn io_timeout(&self) -> Duration;

    /// The `STATUS` reply.
    fn status(&self) -> Reply;
    /// Begin the drain a `SHUTDOWN` asks for; the loop answers `BYE` once
    /// this returns.
    fn shutdown(&self);
    /// Take a `TRAIN`, `DIAGNOSE`, `TRACE_PUT` or `TRACE_GET` that holds a
    /// window slot. Its final reply goes out on `session` through
    /// [`SessionShared::send_final`], now or later.
    fn route(&self, session: &Arc<SessionShared>, request_id: u32, request: Request);
    /// Open the upload `opener` asks for; an `Err` is the final reply that
    /// refuses it.
    fn open(&self, opener: Request) -> Result<Self::Upload, Reply>;
    /// Feed the upload one `STREAM_CHUNK`'s bytes; an `Err` is the final
    /// reply that fails it.
    fn chunk(&self, upload: &mut Self::Upload, bytes: Vec<u8>) -> Result<(), Reply>;
    /// Seal the upload at its `STREAM_END`. As with
    /// [`SessionHost::route`], its final reply goes out on `session`.
    fn end(
        self: Arc<Self>,
        session: &Arc<SessionShared>,
        request_id: u32,
        upload: Self::Upload,
        crc32: u32,
        total_len: u64,
    );
    /// Drop an upload still open when its connection closed; the loop
    /// frees its slot.
    fn abandon(&self, upload: Self::Upload);
}

/// Drive one connection from its first frame until the client closes, the
/// daemon drains, or the byte stream breaks (see the module docs for the
/// rules). Replies are written by whichever thread finishes a request —
/// out of order is the point — while this thread keeps reading.
pub fn run_session<H: SessionHost>(mut conn: Conn, host: &Arc<H>) {
    let (io_timeout, draining) = (host.io_timeout(), host.draining());
    let _ = conn.set_write_timeout(Some(io_timeout));
    let Ok(writer) = conn.try_clone() else { return };
    let Some(first) = next_frame(&mut conn, io_timeout, draining) else { return };
    let hello = first.as_ref().ok().and_then(|f| Some((f.request_id, Window::asked_by(f)?)));
    let stats = host.session_stats();
    let session = Arc::new(SessionShared {
        writer: Mutex::new(writer),
        window: Window::new(hello.map_or(1, |(_, window)| window)),
        stats: stats.clone(),
    });
    // Counted before the ack goes out, so a client holding the ack never
    // reads a STATUS that misses its own session.
    stats.sessions_open.add(1);
    let mut pending = match hello {
        Some((hello_id, window)) => {
            stats.note_frame(FrameKind::Hello);
            session.send(hello_id, &Reply::HelloAck { window });
            None
        }
        None => Some(first),
    };
    let mut upload: Option<(u32, H::Upload)> = None;
    let mut dead = DeadUploads::default();

    while let Some(next) = pending.take().or_else(|| next_frame(&mut conn, io_timeout, draining)) {
        let frame = match next {
            Ok(frame) => frame,
            Err(e) => {
                // The stream position is unknown (or the peer speaks
                // another version): answer once, then close.
                stats.proto_errors.inc();
                session.send(0, &Reply::Error(format!("bad frame: {e}")));
                conn.shutdown();
                break;
            }
        };
        let (request_id, kind) = (frame.request_id, frame.kind);
        let request = match Request::from_frame(frame) {
            Ok(r) => r,
            Err(e) => {
                // Framing is intact — only this request is malformed.
                stats.proto_errors.inc();
                session.send(request_id, &Reply::Error(format!("bad request: {e}")));
                continue;
            }
        };
        stats.note_frame(kind);
        if let Request::StreamChunk(bytes) = &request {
            stats.chunk_bytes.add(bytes.len() as u64);
        }
        match request {
            Request::Hello { .. } => {
                session.send(request_id, &Reply::Error("session already open".into()));
            }
            Request::Status => session.send(request_id, &host.status()),
            Request::Shutdown => {
                // Draining before the BYE goes out, so a client holding the
                // BYE never finds the daemon still accepting.
                host.shutdown();
                session.send(request_id, &Reply::Bye);
                break;
            }
            opener @ (Request::TracePutStart { .. } | Request::DiagnoseStart(_)) => {
                // One upload per session, and it needs a slot; the client
                // retries.
                if upload.is_some() || !session.claim() {
                    session.refuse(request_id);
                    dead.insert(request_id);
                    continue;
                }
                match host.open(opener) {
                    Ok(open) => upload = Some((request_id, open)),
                    Err(reply) => {
                        if reply == Reply::Busy {
                            stats.rejected_busy.inc();
                        }
                        session.send_final(request_id, &reply);
                        dead.insert(request_id);
                    }
                }
            }
            Request::StreamChunk(_) | Request::StreamEnd { .. }
                if upload.as_ref().is_none_or(|(id, _)| *id != request_id) =>
            {
                // A refused or failed upload's frame is dropped; any other
                // belongs to no upload.
                if !dead.absorbs(request_id, kind == FrameKind::StreamEnd) {
                    stats.proto_errors.inc();
                    let reply = Reply::Error("stream frame outside an open stream".into());
                    session.send(request_id, &reply);
                }
            }
            Request::StreamChunk(bytes) => {
                let (_, open) = upload.as_mut().expect("an upload of this id is open");
                if let Err(reply) = host.chunk(open, bytes) {
                    // The rest of the failed upload's frames are dropped.
                    upload = None;
                    dead.insert(request_id);
                    session.send_final(request_id, &reply);
                }
            }
            Request::StreamEnd { crc32, total_len } => {
                let (_, open) = upload.take().expect("an upload of this id is open");
                Arc::clone(host).end(&session, request_id, open, crc32, total_len);
            }
            routable @ (Request::Train(_)
            | Request::Diagnose(..)
            | Request::TracePut { .. }
            | Request::TraceGet { .. }) => {
                if session.claim() {
                    host.route(&session, request_id, routable);
                } else {
                    // Window exhausted: BUSY for this request only.
                    session.refuse(request_id);
                }
            }
        }
    }
    if let Some((_, open)) = upload {
        // The client vanished mid-upload.
        host.abandon(open);
        session.release();
    }
    stats.sessions_open.add(-1);
}

/// Wait for the next frame on `conn`. Blocks at most 25 ms at a time
/// for the frame's first byte (an all-or-nothing one-byte read, so an idle
/// timeout never strands a partial header), re-checking `shutdown` in
/// between; once a frame has started, the rest must arrive within
/// `io_timeout`. `None` means the peer closed or the daemon is draining.
fn next_frame(
    conn: &mut Conn,
    io_timeout: Duration,
    shutdown: &AtomicBool,
) -> Option<Result<Frame, ProtoError>> {
    let mut first = [0u8; 1];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let _ = conn.set_read_timeout(Some(POLL));
        match conn.read(&mut first) {
            Ok(0) => return None,
            Ok(_) => break,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(_) => return None,
        }
    }
    let _ = conn.set_read_timeout(Some(io_timeout));
    Some(read_frame((&first[..]).chain(&mut *conn)))
}

/// The in-flight account of one session: how many of its requests hold a
/// slot and have not been answered yet, against the window its first
/// frame set.
#[derive(Debug)]
struct Window {
    cap: u32,
    in_flight: AtomicU32,
}

impl Window {
    /// The window a session whose first frame is `first` asks for: a
    /// well-formed `HELLO` gets its ask capped at [`SESSION_WINDOW`] (0
    /// asks for the cap). `None` for any other first frame, whose session
    /// gets a window of 1.
    fn asked_by(first: &Frame) -> Option<u32> {
        if first.kind != FrameKind::Hello {
            return None;
        }
        match Request::from_frame(first) {
            Ok(Request::Hello { window: 0 }) => Some(SESSION_WINDOW),
            Ok(Request::Hello { window }) => Some(window.min(SESSION_WINDOW)),
            _ => None,
        }
    }

    /// An empty window of `cap` slots.
    fn new(cap: u32) -> Window {
        Window { cap, in_flight: AtomicU32::new(0) }
    }

    /// Claim one slot; `false` means the window is full and the request
    /// must be answered `BUSY`. Only the session's reader claims, so a
    /// load-then-add cannot race another claimer.
    fn claim(&self) -> bool {
        if self.in_flight.load(Ordering::SeqCst) >= self.cap {
            return false;
        }
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        true
    }

    /// Give back a claimed slot. Callers release *before* writing the
    /// final reply: the reply tells the client the slot is free, so a
    /// client that sends its next request the moment a reply lands must
    /// never race a late release into `BUSY`.
    fn release(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The uploads a session refused (`BUSY` or `ERROR` to the opener) or
/// failed mid-stream, whose `STREAM_CHUNK` and `STREAM_END` frames may
/// still be on their way. Such an upload already had its one terminal
/// reply, so its later stream frames are dropped without a reply and are
/// not protocol errors; its id is forgotten at its `STREAM_END`. At most
/// [`SESSION_WINDOW`] ids are kept, the oldest going first — a client has
/// no more than its window of uploads in flight.
#[derive(Debug, Default)]
struct DeadUploads(VecDeque<u32>);

impl DeadUploads {
    /// Drop the rest of upload `id`'s stream frames.
    fn insert(&mut self, id: u32) {
        if self.0.len() == SESSION_WINDOW as usize {
            self.0.pop_front();
        }
        self.0.push_back(id);
    }

    /// Whether a stream frame under `id` belongs to a dead upload, and so
    /// is dropped. A `STREAM_END` (`end`) also forgets the id.
    fn absorbs(&mut self, id: u32, end: bool) -> bool {
        let Some(i) = self.0.iter().position(|&dead| dead == id) else { return false };
        if end {
            self.0.remove(i);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};

    #[test]
    fn accept_loop_hands_out_nodelay_sockets_until_a_drain_wakes_it() {
        let listener = Listener::Tcp(TcpListener::bind("127.0.0.1:0").expect("bind"));
        let endpoint = listener.wake_endpoint().expect("bound address");
        let Endpoint::Tcp(addr) = endpoint.clone() else { unreachable!("tcp listener") };
        let draining = Arc::new(AtomicBool::new(false));
        let (sessions, opened) = mpsc::channel();
        let acceptor = {
            let draining = draining.clone();
            std::thread::spawn(move || {
                let session = move |conn: Conn| {
                    let Conn::Tcp(stream) = conn else { unreachable!("tcp listener") };
                    sessions.send(stream.nodelay().expect("read option")).expect("test alive");
                };
                accept_loop(&listener, &draining, &Arc::default(), "test-session", session);
            })
        };

        // A client that leaves Nagle on: the option comes from the loop.
        let _client = TcpStream::connect(&addr).expect("connect");
        let nodelay = opened.recv_timeout(Duration::from_secs(2)).expect("a session opened");
        assert!(nodelay, "accepted sockets carry TCP_NODELAY");

        draining.store(true, Ordering::SeqCst);
        wake(&endpoint);
        acceptor.join().expect("the woken loop returns");
        assert!(opened.try_recv().is_err(), "the wake-up connection gets no session");
    }

    #[test]
    fn an_unspecified_address_is_woken_on_loopback() {
        let listener = Listener::Tcp(TcpListener::bind("0.0.0.0:0").expect("bind"));
        let Endpoint::Tcp(addr) = listener.wake_endpoint().expect("bound address") else {
            unreachable!("tcp listener")
        };
        assert!(addr.starts_with("127.0.0.1:"), "got {addr}");
    }

    #[test]
    fn hello_asks_for_a_capped_window_and_anything_else_gets_one() {
        let hello = |window| Request::Hello { window }.to_frame();
        assert_eq!(Window::asked_by(&hello(8)), Some(8));
        assert_eq!(Window::asked_by(&hello(0)), Some(SESSION_WINDOW));
        assert_eq!(Window::asked_by(&hello(SESSION_WINDOW + 1)), Some(SESSION_WINDOW));
        assert_eq!(Window::asked_by(&Request::Status.to_frame()), None);
        let mut malformed = hello(8);
        malformed.payload.pop();
        assert_eq!(Window::asked_by(&malformed), None);
    }

    #[test]
    fn dead_uploads_absorb_until_their_end_and_stay_bounded() {
        let mut dead = DeadUploads::default();
        dead.insert(7);
        assert!(dead.absorbs(7, false) && dead.absorbs(7, false), "chunks are dropped");
        assert!(!dead.absorbs(8, false), "another id is not dead");
        assert!(dead.absorbs(7, true), "the end is dropped too");
        assert!(!dead.absorbs(7, false), "and forgets the id");
        for id in 0..=SESSION_WINDOW {
            dead.insert(id);
        }
        assert!(!dead.absorbs(0, true), "the oldest id went first");
        assert!(dead.absorbs(SESSION_WINDOW, true));
    }

    #[test]
    fn window_claims_up_to_its_cap() {
        let w = Window::new(2);
        assert!(w.claim() && w.claim());
        assert!(!w.claim(), "third claim exceeds the window");
        w.release();
        assert!(w.claim(), "a released slot is reusable");
    }
}

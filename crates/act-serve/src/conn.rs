//! Connection plumbing shared by `act serve` and `act gate`: the Tcp/Unix
//! listener and socket types, the one accept loop both daemons run, the
//! wake-up a drain sends it, the frame read a session loop blocks in, and
//! the in-flight window.
//!
//! The acceptor blocks in `accept` and never reads: every connection is a
//! session on a thread of its own. Its first frame decides the window: a
//! `HELLO` asks for one (capped at [`SESSION_WINDOW`]), and any other first
//! frame opens a window-1 session with that frame as its first request —
//! so a client that wants one reply still sends one frame and reads one.
//!
//! Every TCP socket either daemon accepts or connects has `TCP_NODELAY`
//! set. Frames are written whole, one `write_all` each, so Nagle's
//! algorithm has nothing useful to merge; all it would do is hold a
//! frame's tail segment behind an unacknowledged one until the peer's
//! delayed ACK fires, up to 40 ms later.

use crate::client::{connect_tcp, ClientConfig, Endpoint};
use crate::proto::{read_frame, Frame, FrameKind, ProtoError, Request};
use act_obs::{events, Level};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::Duration;

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
/// and run `session` on a thread of its own (named `session_thread`) for
/// each connection, until `draining` is set. The flag is checked after
/// every accept, and the connection that woke the loop then is dropped
/// without a session — a drain sets the flag, then [`wake`]s the loop
/// with a connection of its own.
pub fn accept_loop<F>(
    listener: &Listener,
    draining: &AtomicBool,
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
                let session = session.clone();
                let spawned = std::thread::Builder::new()
                    .name(session_thread.to_string())
                    .spawn(move || session(conn));
                if spawned.is_err() {
                    let why = format!("failed to spawn {session_thread}");
                    events().emit(Level::Warn, "conn.accept", why);
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
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

/// Wait for the next frame on `conn`. Blocks at most 25 ms at a time
/// for the frame's first byte (an all-or-nothing one-byte read, so an idle
/// timeout never strands a partial header), re-checking `shutdown` in
/// between; once a frame has started, the rest must arrive within
/// `io_timeout`. `None` means the peer closed or the daemon is draining.
pub fn next_frame(
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

/// The in-flight account of one session: how many of its requests have
/// been claimed and not yet answered, against the window its first frame
/// set.
#[derive(Debug)]
pub struct Window {
    cap: u32,
    in_flight: AtomicU32,
}

impl Window {
    /// The window a session whose first frame is `first` asks for: a
    /// well-formed `HELLO` gets its ask capped at [`SESSION_WINDOW`] (0
    /// asks for the cap). `None` for any other first frame, whose session
    /// gets a window of 1.
    pub fn asked_by(first: &Frame) -> Option<u32> {
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
    pub fn new(cap: u32) -> Window {
        Window { cap, in_flight: AtomicU32::new(0) }
    }

    /// Claim one slot; `false` means the window is full and the request
    /// must be answered `BUSY`. Only the session's reader claims, so a
    /// load-then-add cannot race another claimer.
    pub fn claim(&self) -> bool {
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
    pub fn release(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
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
                accept_loop(&listener, &draining, "test-session", session);
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
    fn window_claims_up_to_its_cap() {
        let w = Window::new(2);
        assert!(w.claim() && w.claim());
        assert!(!w.claim(), "third claim exceeds the window");
        w.release();
        assert!(w.claim(), "a released slot is reusable");
    }
}

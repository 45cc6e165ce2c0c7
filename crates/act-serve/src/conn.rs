//! Connection plumbing shared by `act serve` and `act gate`: the Tcp/Unix
//! socket type, the frame read a session loop blocks in, and the in-flight
//! window.
//!
//! Every connection is a session. Its first frame decides the window: a
//! `HELLO` asks for one (capped at [`SESSION_WINDOW`]), and any other first
//! frame opens a window-1 session with that frame as its first request —
//! so a client that wants one reply still sends one frame and reads one.

use crate::client::{connect_tcp, ClientConfig, Endpoint};
use crate::proto::{read_frame, Frame, FrameKind, ProtoError, Request};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::Duration;

/// Ceiling on the in-flight window a `HELLO` can ask for (and what a
/// `HELLO` asking for 0 gets).
pub const SESSION_WINDOW: u32 = 32;

/// How long a session loop blocks waiting for the next frame's first byte
/// before re-checking the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

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

//! The client-side transport vocabulary: where a daemon listens
//! ([`Endpoint`]), how an exchange connects, waits and retries
//! ([`ClientConfig`], [`RetryPolicy`]), what can go wrong
//! ([`ClientError`]), and a TCP connect with a timeout ([`connect_tcp`]).
//! The `act-client` crate's `Client` builds on these; retry sleeps are
//! seeded through `act-rng`, so they are deterministic per caller.

use crate::proto::ProtoError;
use act_rng::rngs::StdRng;
use act_rng::{Rng, SeedableRng};
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::time::Duration;

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// TCP address, e.g. `127.0.0.1:7411`.
    Tcp(String),
    /// Unix-domain-socket path.
    Unix(PathBuf),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// Client-side failure: transport or protocol.
#[derive(Debug)]
pub enum ClientError {
    /// Connect/read/write failed.
    Io(io::Error),
    /// The daemon answered with something that is not a valid reply frame.
    Proto(ProtoError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        // A transport error mid-frame is more usefully reported as i/o.
        match e {
            ProtoError::Io(io) => ClientError::Io(io),
            other => ClientError::Proto(other),
        }
    }
}

/// Opt-in single retry: after a transport failure or a `BUSY` reply, sleep
/// a jittered backoff and try once more. The jitter stream is a pure
/// function of `seed`, keeping retrying campaign jobs deterministic.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Base backoff; the actual sleep is uniform in `[base/2, base*3/2)`.
    pub backoff: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// A policy with the given base backoff and jitter seed.
    pub fn new(backoff: Duration, seed: u64) -> RetryPolicy {
        RetryPolicy { backoff, seed }
    }

    /// The jittered sleep before retry `attempt` (0-based).
    pub fn sleep_for(&self, attempt: u64) -> Duration {
        let base = self.backoff.as_millis().max(1) as u64;
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(attempt));
        Duration::from_millis(base / 2 + rng.gen_range(0..base.max(1)))
    }
}

/// How an exchange connects, waits, and retries.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout (`None` = the OS default). Ignored for Unix
    /// sockets, whose connect cannot block on a dead network.
    pub connect_timeout: Option<Duration>,
    /// Socket read/write timeout (`None` = block forever).
    pub io_timeout: Option<Duration>,
    /// Retry once on transport failure or `BUSY` when set.
    pub retry: Option<RetryPolicy>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(10)),
            // Generous because a cold TRAIN legitimately takes a while —
            // but finite, so a wedged daemon cannot hang the caller.
            io_timeout: Some(Duration::from_secs(300)),
            retry: None,
        }
    }
}

impl ClientConfig {
    /// This config with a single-retry policy attached.
    pub fn with_retry(mut self, backoff: Duration, seed: u64) -> ClientConfig {
        self.retry = Some(RetryPolicy::new(backoff, seed));
        self
    }
}

/// Open a TCP connection with a connect timeout, trying each resolved
/// address, with `TCP_NODELAY` set (see [`crate::conn`] for why). Every
/// TCP connect in the workspace goes through here.
pub fn connect_tcp(addr: &str, timeout: Option<Duration>) -> io::Result<TcpStream> {
    let stream = match timeout {
        None => TcpStream::connect(addr)?,
        Some(t) => connect_first(addr, t)?,
    };
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// The first of `addr`'s resolved addresses that connects within `t`.
fn connect_first(addr: &str, t: Duration) -> io::Result<TcpStream> {
    let mut last = None;
    for sa in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sa, t) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(last
        .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no addresses resolved")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_display_with_scheme() {
        assert_eq!(Endpoint::Tcp("127.0.0.1:7411".into()).to_string(), "tcp://127.0.0.1:7411");
        assert_eq!(
            Endpoint::Unix(PathBuf::from("/tmp/act.sock")).to_string(),
            "unix:///tmp/act.sock"
        );
    }

    #[test]
    fn connect_to_dead_endpoint_is_io_error() {
        // Port 1 on loopback is essentially never listening.
        let err = connect_tcp("127.0.0.1:1", Some(Duration::from_millis(200)))
            .map_err(ClientError::from)
            .expect_err("connect must fail");
        assert!(matches!(err, ClientError::Io(_)), "got: {err}");
    }

    #[test]
    fn connected_streams_carry_tcp_nodelay() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        for timeout in [None, Some(Duration::from_secs(2))] {
            let stream = connect_tcp(&addr, timeout).expect("connect");
            assert!(stream.nodelay().expect("read option"), "timeout {timeout:?}");
        }
    }

    #[test]
    fn retry_policy_jitter_is_deterministic_and_bounded() {
        let policy = RetryPolicy::new(Duration::from_millis(100), 7);
        let a = policy.sleep_for(0);
        assert_eq!(a, policy.sleep_for(0), "same seed, same sleep");
        assert_ne!(a, policy.sleep_for(1), "attempts draw different jitter");
        for attempt in 0..32 {
            let s = policy.sleep_for(attempt).as_millis() as u64;
            assert!((50..150).contains(&s), "sleep {s}ms escaped [base/2, base*3/2)");
        }
    }
}

//! One warm, multiplexed session per backend, carrying every forward to
//! that backend.
//!
//! A session carries up to its whole window of requests at once, so one
//! per backend is plenty: a client's session thread sends on it and
//! returns (so does a forwarding worker, for a retry or a failover hop),
//! and the session's reader hands each answer to the forwarding queue. A
//! sender blocks only while the window is full, or while a backend that
//! stopped reading leaves the send unwritten.
//! A session that dies, is discarded or is cleared is dropped — which
//! closes its connection and fails whatever was still in flight on it —
//! and the next forward (or the next health probe) opens a replacement.

use act_client::session::Session;
use act_serve::{ClientConfig, ClientError, Conn, Endpoint, SESSION_WINDOW};
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Warm sessions for a fixed backend set.
pub struct SessionPool {
    backends: Vec<String>,
    slots: Vec<Mutex<Option<Arc<Session>>>>,
    cfg: ClientConfig,
}

impl SessionPool {
    /// An empty pool over `backends`; sessions open on first use.
    pub fn new(
        backends: Vec<String>,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> SessionPool {
        let slots = backends.iter().map(|_| Mutex::new(None)).collect();
        let cfg = ClientConfig {
            connect_timeout: Some(connect_timeout),
            io_timeout: Some(io_timeout),
            retry: None,
        };
        SessionPool { backends, slots, cfg }
    }

    /// The backend addresses, in index order.
    pub fn addrs(&self) -> &[String] {
        &self.backends
    }

    /// The live session to backend `i`, opening one if there is none.
    ///
    /// # Errors
    ///
    /// Transport failures opening the session (these count against the
    /// backend's health).
    pub fn session(&self, i: usize) -> Result<Arc<Session>, ClientError> {
        let mut slot = self.slots[i].lock().expect("pool lock");
        match slot.as_ref() {
            Some(s) if !s.is_dead() => Ok(s.clone()),
            _ => {
                let endpoint = Endpoint::Tcp(self.backends[i].clone());
                let fresh = Session::open(&endpoint, &self.cfg, SESSION_WINDOW)?;
                *slot = Some(fresh.clone());
                Ok(fresh)
            }
        }
    }

    /// Forget `stale` (its exchange just failed) so the next
    /// [`SessionPool::session`] for backend `i` opens a replacement.
    pub fn discard(&self, i: usize, stale: &Arc<Session>) {
        let mut slot = self.slots[i].lock().expect("pool lock");
        if slot.as_ref().is_some_and(|s| Arc::ptr_eq(s, stale)) {
            *slot = None;
        }
    }

    /// Open a fresh connection to backend `i` with the pool's timeouts —
    /// what each relayed chunked upload rides on.
    ///
    /// # Errors
    ///
    /// Connect failure or socket-option failure.
    pub fn connect(&self, i: usize) -> io::Result<Conn> {
        Conn::connect(&Endpoint::Tcp(self.backends[i].clone()), &self.cfg)
    }

    /// Warm backend `i` with a live session if it has none (the probe
    /// path). A failure is left for the health layer to judge.
    pub fn refill(&self, i: usize) {
        let _ = self.session(i);
    }

    /// Drop backend `i`'s session (it was marked down). Its connection
    /// closes once no caller holds it any more.
    pub fn clear(&self, i: usize) {
        *self.slots[i].lock().expect("pool lock") = None;
    }

    /// Whether backend `i` has a live session pooled.
    pub fn is_warm(&self, i: usize) -> bool {
        self.slots[i].lock().expect("pool lock").as_ref().is_some_and(|s| !s.is_dead())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_serve::server::{ServeConfig, Server};

    fn pool_for(addr: &str) -> SessionPool {
        SessionPool::new(
            vec![addr.to_string()],
            Duration::from_millis(500),
            Duration::from_millis(500),
        )
    }

    #[test]
    fn refill_fills_to_capacity_and_clear_empties() {
        let cfg = ServeConfig { workers: 1, queue_depth: 4, ..ServeConfig::default() };
        let server = Server::start(cfg).expect("backend boots");
        let pool = pool_for(&server.tcp_addr().unwrap().to_string());
        pool.refill(0);
        assert!(pool.is_warm(0));
        let warm = pool.session(0).expect("pooled session");
        pool.refill(0);
        assert!(Arc::ptr_eq(&warm, &pool.session(0).unwrap()), "a warm backend keeps its session");
        pool.clear(0);
        assert!(!pool.is_warm(0));
        server.shutdown();
        server.join();
    }

    #[test]
    fn refill_against_a_dead_backend_opens_nothing() {
        let pool = pool_for("127.0.0.1:1");
        pool.refill(0);
        assert!(!pool.is_warm(0));
        assert!(pool.session(0).is_err());
        assert!(pool.connect(0).is_err());
    }
}

//! `act-client` — the one public client façade for the ACT service.
//!
//! Everything that talks to an `act serve` daemon or an `act gate`
//! gateway goes through [`Client`]: the CLI, the benchmark harness, and
//! the gateway's own backend connections. A client is configured once
//! through [`Client::builder`] and then used concurrently from any number
//! of threads:
//!
//! ```no_run
//! use act_client::Client;
//! use std::time::Duration;
//!
//! let client = Client::builder()
//!     .addr("127.0.0.1:7411")
//!     .timeouts(Duration::from_secs(5), Duration::from_secs(120))
//!     .retry(Duration::from_millis(100), 42)
//!     .pipeline_depth(8)
//!     .build()?;
//! let report = client.train(&act_client::ModelSpec {
//!     workload: "seq".into(),
//!     seed: 7,
//!     traces: 4,
//!     seq_len: 3,
//!     hidden: 8,
//!     max_epochs: 50,
//! })?;
//! println!("{report}");
//! # Ok::<(), act_client::ActError>(())
//! ```
//!
//! Transport selection is automatic: with `pipeline_depth <= 1` each
//! request opens a fresh connection, sends one frame and reads one reply
//! (the daemon serves it as a window-1 session); with a larger depth the
//! client keeps one multiplexed [`session::Session`] open and pipelines
//! requests over it. The streaming methods
//! ([`Client::trace_put_streaming`], [`Client::diagnose_streaming`])
//! always use a session.
//!
//! One retry rule holds at every depth: with [`ClientBuilder::retry`] set,
//! a transport failure or a `BUSY` reply is retried exactly once, after
//! the policy's jittered sleep.
//!
//! All methods return [`ActError`], the workspace-wide error type, so
//! callers never juggle transport-level error enums.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod session;

pub use act_core::{ActError, ConfigError};
pub use act_obs::MetricsSnapshot;
pub use act_serve::{ClientConfig, Endpoint, ModelSpec, Reply, Request};

use act_serve::proto::read_frame;
use act_serve::{ClientError, Conn};
use session::Session;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A `STATUS` answer: the human-readable counters block and the metrics
/// snapshot it was rendered from.
#[derive(Debug, Clone)]
pub struct ServerStatus {
    /// The rendered counters block.
    pub text: String,
    /// The full metrics snapshot. Every daemon and gateway reply carries
    /// one; `None` only marks a status a caller put together without a
    /// `STATUS` reply.
    pub metrics: Option<MetricsSnapshot>,
}

/// Configures and creates a [`Client`]. Obtained from [`Client::builder`].
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    endpoint: Option<Endpoint>,
    cfg: ClientConfig,
    depth: u32,
}

impl ClientBuilder {
    /// Target a TCP daemon or gateway, e.g. `127.0.0.1:7411`.
    ///
    /// Replaces any endpoint set earlier (last call wins, same as
    /// repeating a CLI flag).
    pub fn addr(mut self, addr: impl Into<String>) -> ClientBuilder {
        self.endpoint = Some(Endpoint::Tcp(addr.into()));
        self
    }

    /// Target a Unix-domain-socket daemon.
    pub fn unix(mut self, path: impl Into<PathBuf>) -> ClientBuilder {
        self.endpoint = Some(Endpoint::Unix(path.into()));
        self
    }

    /// Set the TCP connect timeout and the per-read/write socket timeout.
    pub fn timeouts(mut self, connect: Duration, io: Duration) -> ClientBuilder {
        self.cfg.connect_timeout = Some(connect);
        self.cfg.io_timeout = Some(io);
        self
    }

    /// Retry once on transport failure or `BUSY`, at every pipeline depth,
    /// sleeping a jittered backoff in `[backoff/2, backoff*3/2)` in between
    /// (deterministic for a given `seed`).
    pub fn retry(mut self, backoff: Duration, seed: u64) -> ClientBuilder {
        self.cfg = self.cfg.with_retry(backoff, seed);
        self
    }

    /// How many requests to keep in flight at once. `0` and `1` mean one
    /// request per connection; larger depths open a multiplexed session.
    /// The server may grant a smaller window than asked.
    pub fn pipeline_depth(mut self, depth: u32) -> ClientBuilder {
        self.depth = depth;
        self
    }

    /// Use a pre-built transport config instead of the individual
    /// [`timeouts`](ClientBuilder::timeouts)/[`retry`](ClientBuilder::retry)
    /// setters.
    pub fn config(mut self, cfg: ClientConfig) -> ClientBuilder {
        self.cfg = cfg;
        self
    }

    /// Build the client. No connection is made yet; sessions open lazily
    /// on the first pipelined or streaming call.
    ///
    /// # Errors
    ///
    /// [`ActError::Config`] when no endpoint was set.
    pub fn build(self) -> Result<Client, ActError> {
        let endpoint = self.endpoint.ok_or_else(|| {
            ActError::Config(ConfigError::new("endpoint", "not set; use .addr() or .unix()"))
        })?;
        Ok(Client { endpoint, cfg: self.cfg, depth: self.depth, session: Mutex::new(None) })
    }
}

/// A typed, thread-safe client for one ACT daemon or gateway.
///
/// See the [crate docs](crate) for transport selection; the short version
/// is that every method blocks until its reply arrives and returns the
/// reply's natural payload, with every failure — transport, protocol, or
/// server-reported — as an [`ActError`].
#[derive(Debug)]
pub struct Client {
    endpoint: Endpoint,
    cfg: ClientConfig,
    depth: u32,
    /// The lazily opened session (pipelined and streaming calls only).
    session: Mutex<Option<Arc<Session>>>,
}

impl Client {
    /// Start configuring a client.
    pub fn builder() -> ClientBuilder {
        ClientBuilder { endpoint: None, cfg: ClientConfig::default(), depth: 1 }
    }

    /// The endpoint this client talks to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The configured pipeline depth (not the server-granted window).
    pub fn pipeline_depth(&self) -> u32 {
        self.depth
    }

    /// Train (or fetch from cache) the model for `spec`; returns the
    /// `TRAINED` summary line.
    ///
    /// # Errors
    ///
    /// Transport failures, `BUSY` after retry, and server-side `ERROR`s
    /// (e.g. unknown workload).
    pub fn train(&self, spec: &ModelSpec) -> Result<String, ActError> {
        match self.roundtrip(&Request::Train(spec.clone()))? {
            Reply::Trained(s) => Ok(s),
            other => Err(unexpected("TRAINED", &other)),
        }
    }

    /// Diagnose a failing trace (`act-trace::io` v1 text bytes) against
    /// the model for `spec`; returns the rendered ranked-suspect report.
    ///
    /// # Errors
    ///
    /// Transport failures, `BUSY` after retry, and server-side `ERROR`s.
    pub fn diagnose(&self, spec: &ModelSpec, trace: &[u8]) -> Result<String, ActError> {
        match self.roundtrip(&Request::Diagnose(spec.clone(), trace.to_vec()))? {
            Reply::Diagnosis(s) => Ok(s),
            other => Err(unexpected("DIAGNOSIS", &other)),
        }
    }

    /// Like [`diagnose`](Client::diagnose), but streams the trace from
    /// `reader` in chunks over a session instead of materializing one
    /// big frame — use for traces that are large or arriving piecewise.
    ///
    /// # Errors
    ///
    /// Transport and source-read failures, plus server-side `ERROR`s.
    pub fn diagnose_streaming(
        &self,
        spec: &ModelSpec,
        reader: impl Read,
    ) -> Result<String, ActError> {
        match self.stream_roundtrip(&Request::DiagnoseStart(spec.clone()), reader)? {
            Reply::Diagnosis(s) => Ok(s),
            other => Err(unexpected("DIAGNOSIS", &other)),
        }
    }

    /// Store a correct-run trace in the daemon's corpus under
    /// `(workload, key)`; returns the `STORED` summary line.
    ///
    /// # Errors
    ///
    /// Transport failures and server-side `ERROR`s (e.g. no corpus).
    pub fn trace_put(&self, key: &str, workload: &str, trace: &[u8]) -> Result<String, ActError> {
        let req = Request::TracePut {
            key: key.to_string(),
            workload: workload.to_string(),
            trace: trace.to_vec(),
        };
        match self.roundtrip(&req)? {
            Reply::Stored(s) => Ok(s),
            other => Err(unexpected("STORED", &other)),
        }
    }

    /// Like [`trace_put`](Client::trace_put), but streams the trace from
    /// `reader` in CRC-checked chunks, so the upload is not bounded by
    /// the one-frame payload cap.
    ///
    /// # Errors
    ///
    /// Transport and source-read failures, plus server-side `ERROR`s.
    pub fn trace_put_streaming(
        &self,
        key: &str,
        workload: &str,
        reader: impl Read,
    ) -> Result<String, ActError> {
        let start = Request::TracePutStart { key: key.to_string(), workload: workload.to_string() };
        match self.stream_roundtrip(&start, reader)? {
            Reply::Stored(s) => Ok(s),
            other => Err(unexpected("STORED", &other)),
        }
    }

    /// Read a stored trace back from the corpus.
    ///
    /// # Errors
    ///
    /// Transport failures and server-side `ERROR`s (e.g. unknown key).
    pub fn trace_get(&self, key: &str) -> Result<Vec<u8>, ActError> {
        match self.roundtrip(&Request::TraceGet { key: key.to_string() })? {
            Reply::TraceData(bytes) => Ok(bytes),
            other => Err(unexpected("TRACE_DATA", &other)),
        }
    }

    /// Fetch the daemon's counters block and metrics snapshot.
    ///
    /// # Errors
    ///
    /// Transport failures and server-side `ERROR`s.
    pub fn status(&self) -> Result<ServerStatus, ActError> {
        match self.roundtrip(&Request::Status)? {
            Reply::StatusMetrics(text, snap) => Ok(ServerStatus { text, metrics: Some(snap) }),
            other => Err(unexpected("STATUS", &other)),
        }
    }

    /// Ask the daemon to drain and exit; returns once `BYE` arrives.
    ///
    /// # Errors
    ///
    /// Transport failures and server-side `ERROR`s.
    pub fn shutdown(&self) -> Result<(), ActError> {
        match self.roundtrip(&Request::Shutdown)? {
            Reply::Bye => Ok(()),
            other => Err(unexpected("BYE", &other)),
        }
    }

    /// The raw pipelined session, opening it if necessary. For callers —
    /// benchmarks, tests — that want many requests in flight at once
    /// ([`session::Pending`] handles or [`Session::call_with`] callbacks)
    /// instead of the blocking typed methods. Requires
    /// `pipeline_depth > 1`.
    ///
    /// # Errors
    ///
    /// [`ActError::Config`] at depth <= 1; otherwise connect/handshake
    /// failures.
    pub fn pipeline(&self) -> Result<Arc<Session>, ActError> {
        if self.depth <= 1 {
            return Err(ActError::Config(ConfigError::new(
                "pipeline_depth",
                "must be greater than 1 to use pipeline(); depth-1 clients hold no session",
            )));
        }
        self.live_session(self.depth).map_err(|e| self.convert(e))
    }

    /// Dispatch a unary request over the configured transport, under the
    /// retry rule: a transport failure or `BUSY` is retried exactly once,
    /// after the policy's jittered sleep, whatever the depth.
    fn roundtrip(&self, req: &Request) -> Result<Reply, ActError> {
        let exchange = || {
            if self.depth <= 1 {
                self.oneshot(req)
            } else {
                self.over_session(|s| s.call(req)?.wait())
            }
        };
        let outcome = match (exchange(), &self.cfg.retry) {
            (Err(ClientError::Io(_)) | Ok(Reply::Busy), Some(policy)) => {
                std::thread::sleep(policy.sleep_for(0));
                exchange()
            }
            (outcome, _) => outcome,
        };
        check_reply(outcome.map_err(|e| self.convert(e))?)
    }

    /// One request on a fresh connection: one frame each way.
    fn oneshot(&self, req: &Request) -> Result<Reply, ClientError> {
        let mut conn = Conn::connect(&self.endpoint, &self.cfg)?;
        let mut frame = Vec::new();
        req.encode_into(0, &mut frame);
        conn.write_all(&frame)?;
        Ok(Reply::from_frame(read_frame(&mut conn)?)?)
    }

    /// Dispatch a chunked upload; always a session, whatever the depth
    /// (a window of 1 still streams fine — chunks are not requests).
    fn stream_roundtrip(&self, start: &Request, reader: impl Read) -> Result<Reply, ActError> {
        let session = self.live_session(self.depth.max(1)).map_err(|e| self.convert(e))?;
        // No resend on failure: half a stream must not be replayed.
        let reply = session.stream(start, reader).and_then(session::Pending::wait);
        match reply {
            Ok(reply) => check_reply(reply),
            Err(e) => {
                self.drop_session(&session);
                Err(self.convert(e))
            }
        }
    }

    /// Run `f` against the live session. A cached session that turns out
    /// to be dead (daemon restarted, idle disconnect) is replaced and `f`
    /// runs once more on the fresh one; a session whose exchange fails is
    /// forgotten, so the next call opens a new one. Only safe for requests
    /// that are replayable.
    fn over_session(
        &self,
        f: impl Fn(&Arc<Session>) -> Result<Reply, ClientError>,
    ) -> Result<Reply, ClientError> {
        let failed =
            |outcome: &Result<Reply, ClientError>| matches!(outcome, Err(ClientError::Io(_)));
        let (mut session, cached) = self.cached_or_open(self.depth)?;
        let mut outcome = f(&session);
        if cached && failed(&outcome) {
            self.drop_session(&session);
            session = self.live_session(self.depth)?;
            outcome = f(&session);
        }
        if failed(&outcome) {
            self.drop_session(&session);
        }
        outcome
    }

    /// The cached session, or a freshly opened one.
    fn live_session(&self, depth: u32) -> Result<Arc<Session>, ClientError> {
        self.cached_or_open(depth).map(|(session, _)| session)
    }

    /// The cached session (`true`), or a freshly opened one (`false`).
    fn cached_or_open(&self, depth: u32) -> Result<(Arc<Session>, bool), ClientError> {
        let mut slot = self.session.lock().expect("client session lock");
        if let Some(s) = slot.as_ref() {
            return Ok((s.clone(), true));
        }
        let fresh = Session::open(&self.endpoint, &self.cfg, depth)?;
        *slot = Some(fresh.clone());
        Ok((fresh, false))
    }

    /// Forget `stale` so the next call opens a new session — but only if
    /// the cache still holds that exact session (another thread may have
    /// replaced it already).
    fn drop_session(&self, stale: &Arc<Session>) {
        let mut slot = self.session.lock().expect("client session lock");
        if slot.as_ref().is_some_and(|s| Arc::ptr_eq(s, stale)) {
            *slot = None;
        }
    }

    /// Fold a transport error into [`ActError`], naming the endpoint.
    fn convert(&self, e: ClientError) -> ActError {
        let target = match &self.endpoint {
            Endpoint::Tcp(addr) => addr.clone(),
            Endpoint::Unix(path) => path.display().to_string(),
        };
        match e {
            ClientError::Io(io) => ActError::io(format!("request to {target}"), io),
            ClientError::Proto(p) => {
                ActError::from(format!("protocol error talking to {target}: {p}"))
            }
        }
    }
}

/// Turn server-reported failure replies into errors; pass the rest on.
fn check_reply(reply: Reply) -> Result<Reply, ActError> {
    match reply {
        Reply::Error(msg) => Err(ActError::from(format!("server error: {msg}"))),
        Reply::Busy => Err(ActError::from("server busy (queue full); retry later".to_string())),
        other => Ok(other),
    }
}

/// The server answered with a reply kind the request can't produce.
fn unexpected(wanted: &str, got: &Reply) -> ActError {
    ActError::from(format!("expected {wanted} reply, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_requires_an_endpoint() {
        let err = Client::builder().build().unwrap_err();
        assert!(matches!(err, ActError::Config(_)), "got {err:?}");
    }

    #[test]
    fn builder_last_endpoint_wins_and_depth_sticks() {
        let client = Client::builder()
            .unix("/tmp/ignored.sock")
            .addr("127.0.0.1:1")
            .pipeline_depth(8)
            .build()
            .unwrap();
        assert!(matches!(client.endpoint(), Endpoint::Tcp(a) if a == "127.0.0.1:1"));
        assert_eq!(client.pipeline_depth(), 8);
    }

    #[test]
    fn pipeline_handle_is_refused_for_one_shot_clients() {
        let client = Client::builder().addr("127.0.0.1:1").build().unwrap();
        let err = client.pipeline().unwrap_err();
        assert!(matches!(err, ActError::Config(_)), "got {err:?}");
    }

    #[test]
    fn connection_failures_name_the_endpoint() {
        // Port 1 refuses immediately; no retry configured, so this is fast.
        let client = Client::builder()
            .addr("127.0.0.1:1")
            .timeouts(Duration::from_millis(200), Duration::from_millis(200))
            .build()
            .unwrap();
        let err = client.status().unwrap_err();
        assert!(err.to_string().contains("127.0.0.1:1"), "got {err}");
    }
}

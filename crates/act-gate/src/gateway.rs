//! The gateway daemon: accept client connections, shard their requests
//! across the backend fleet, fail over, and answer aggregated `STATUS`.
//!
//! The acceptor only accepts: each connection gets a session thread of its
//! own (see [`crate::session`]), with the same connection model as
//! act-serve — a first frame of `HELLO` asks for a window, anything else
//! opens a window-1 session. The session answers `STATUS` (the aggregated
//! fleet view) and `SHUTDOWN` itself, and queues every routable request —
//! decoded, with its shard key and its reply target — on a bounded queue,
//! answering `BUSY` when full (the same refused-not-dropped backpressure
//! contract as act-serve). Forwarding workers drain the queue: the
//! consistent-hash ring orders the backends for the key, dead backends are
//! skipped, and the request gets the owner plus at most one failover
//! attempt on the next ring owner when the owner is down or answers
//! `BUSY`. Requests from one session therefore route, fail over, and
//! complete independently.
//!
//! Backend links are warm pooled sessions ([`crate::pool`]), one per
//! backend, shared by all workers.

use crate::health::Health;
use crate::pool::SessionPool;
use crate::ring::HashRing;
use crate::session::{run_gate_session, GateSessionShared};
use act_client::{ActError, Client, ServerStatus};
use act_fleet::{BoundedQueue, ModelKey};
use act_obs::{
    events, latency_bounds_us, Counter, Gauge, Histogram, Level, MetricsSnapshot, Registry,
};
use act_serve::{ClientError, Conn, Reply, Request};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the acceptor and prober sleep between polls of an idle
/// listener / probe schedule.
const POLL: Duration = Duration::from_millis(5);

/// Gateway configuration.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// TCP listen address (`"127.0.0.1:0"` picks an ephemeral port).
    pub listen: String,
    /// Backend act-serve TCP addresses. Must be non-empty.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the consistent-hash ring.
    pub vnodes: usize,
    /// Forwarding worker threads.
    pub workers: usize,
    /// Bounded queue depth; a full queue answers `BUSY`.
    pub queue_depth: usize,
    /// Backend TCP connect timeout.
    pub connect_timeout: Duration,
    /// Client-facing socket read/write timeout.
    pub io_timeout: Duration,
    /// Backend read/write timeout for forwarded requests (generous: a
    /// cold TRAIN runs the whole offline pipeline).
    pub backend_timeout: Duration,
    /// How often up backends get a STATUS probe.
    pub probe_interval: Duration,
    /// Connect + I/O timeout for health probes and STATUS aggregation.
    pub probe_timeout: Duration,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            listen: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            vnodes: 64,
            workers: 4,
            queue_depth: 64,
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(30),
            backend_timeout: Duration::from_secs(300),
            probe_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_secs(1),
        }
    }
}

/// The gateway's own observability surface, backed by a per-gateway
/// [`Registry`] (tests boot several gateways in one process).
pub struct GateStats {
    registry: Registry,
    pub(crate) routed: Counter,
    pub(crate) relayed: Counter,
    pub(crate) failovers: Counter,
    pub(crate) busy_failovers: Counter,
    pub(crate) failed: Counter,
    pub(crate) rejected_busy: Counter,
    pub(crate) proto_errors: Counter,
    pub(crate) probes_ok: Counter,
    pub(crate) probes_failed: Counter,
    pub(crate) streams_relayed: Counter,
    pub(crate) stream_chunks_relayed: Counter,
    pub(crate) forwarded_by: Vec<Counter>,
    pub(crate) failures_by: Vec<Counter>,
    backends_up: Gauge,
    queue_depth: Gauge,
    uptime_ms: Gauge,
    pub(crate) sessions_open: Gauge,
    service_us: Histogram,
}

impl GateStats {
    fn new(backends: usize) -> GateStats {
        let registry = Registry::new();
        GateStats {
            routed: registry.counter("requests_routed"),
            relayed: registry.counter("replies_relayed"),
            failovers: registry.counter("failovers"),
            busy_failovers: registry.counter("busy_failovers"),
            failed: registry.counter("requests_failed"),
            rejected_busy: registry.counter("requests_rejected_busy"),
            proto_errors: registry.counter("protocol_errors"),
            probes_ok: registry.counter("probes_ok"),
            probes_failed: registry.counter("probes_failed"),
            streams_relayed: registry.counter("streams_relayed"),
            stream_chunks_relayed: registry.counter("stream_chunks_relayed"),
            forwarded_by: (0..backends)
                .map(|i| registry.counter(&format!("backend{i}_forwarded")))
                .collect(),
            failures_by: (0..backends)
                .map(|i| registry.counter(&format!("backend{i}_failures")))
                .collect(),
            backends_up: registry.gauge("backends_up"),
            queue_depth: registry.gauge("queue_depth"),
            uptime_ms: registry.gauge("uptime_ms"),
            sessions_open: registry.gauge("sessions_open"),
            service_us: registry.histogram("gate_service_us", &latency_bounds_us()),
            registry,
        }
    }

    /// Requests relayed to a client after a successful backend exchange.
    pub fn relayed(&self) -> u64 {
        self.relayed.get()
    }

    /// Requests that needed the next ring owner because their owner's
    /// exchange failed.
    pub fn failovers(&self) -> u64 {
        self.failovers.get()
    }

    /// Requests forwarded onward because a backend answered `BUSY`.
    pub fn busy_failovers(&self) -> u64 {
        self.busy_failovers.get()
    }

    /// Requests answered `ERROR` after every candidate failed.
    pub fn failed(&self) -> u64 {
        self.failed.get()
    }

    /// Requests refused because the gateway's own queue was full.
    pub fn rejected_busy(&self) -> u64 {
        self.rejected_busy.get()
    }

    /// Chunked uploads relayed to a backend through to their verdict.
    pub fn streams_relayed(&self) -> u64 {
        self.streams_relayed.get()
    }

    /// Probes attempted so far, successful or not. The prober sweeps every
    /// backend once at startup, so a value of at least the backend count
    /// means the initial health marks and warm pools are in place.
    pub fn probes_completed(&self) -> u64 {
        self.probes_ok.get() + self.probes_failed.get()
    }

    /// Client sessions currently open.
    pub fn sessions_open(&self) -> i64 {
        self.sessions_open.get()
    }

    /// The gateway's own counters as one snapshot, gauges stamped.
    fn snapshot(&self, uptime: Duration, queue_len: usize, up: usize) -> MetricsSnapshot {
        self.uptime_ms.set(uptime.as_millis() as i64);
        self.queue_depth.set(queue_len as i64);
        self.backends_up.set(up as i64);
        self.registry.snapshot()
    }

    /// The grep-stable plain-text block heading every gateway `STATUS`.
    fn render(&self, uptime: Duration, queue_len: usize, up: usize, backends: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("act-gate status\n");
        let mut line = |k: &str, v: u64| writeln!(out, "{k} {v}").expect("string write");
        line("uptime_ms", uptime.as_millis() as u64);
        line("backends", backends as u64);
        line("backends_up", up as u64);
        line("requests_routed", self.routed.get());
        line("replies_relayed", self.relayed.get());
        line("failovers", self.failovers.get());
        line("busy_failovers", self.busy_failovers.get());
        line("requests_failed", self.failed.get());
        line("requests_rejected_busy", self.rejected_busy.get());
        line("protocol_errors", self.proto_errors.get());
        line("streams_relayed", self.streams_relayed.get());
        line("stream_chunks_relayed", self.stream_chunks_relayed.get());
        line("sessions_open", self.sessions_open.get().max(0) as u64);
        line("queue_depth", queue_len as u64);
        out
    }
}

/// One accepted, routable request waiting for a forwarding worker.
pub(crate) struct GateJob {
    /// The client session the request arrived on; the reply goes back on
    /// it and releases the request's window slot.
    pub(crate) session: Arc<GateSessionShared>,
    /// The client's id for the request.
    pub(crate) request_id: u32,
    pub(crate) request: Request,
    /// Shard key (ModelKey canonical form, or `trace:<key>`).
    pub(crate) key: String,
    pub(crate) accepted: Instant,
}

/// Everything the acceptor, workers, session readers, and prober share.
pub(crate) struct GateState {
    pub(crate) ring: HashRing,
    pub(crate) health: Health,
    pub(crate) pool: SessionPool,
    pub(crate) stats: GateStats,
    started: Instant,
    pub(crate) queue: BoundedQueue<GateJob>,
    /// One act-client per backend, probe-timeout-configured, for health
    /// probes and STATUS aggregation.
    probe_clients: Vec<Client>,
    pub(crate) shutdown: AtomicBool,
    /// Client-facing socket read/write timeout.
    pub(crate) io_timeout: Duration,
}

impl GateState {
    /// One STATUS probe of backend `i`, updating health marks and the
    /// session pool. Returns the status on success; a backend that
    /// answers *something* — even not a STATUS reply — is alive.
    pub(crate) fn probe(&self, i: usize) -> Option<ServerStatus> {
        match self.probe_clients[i].status() {
            Ok(status) => {
                self.stats.probes_ok.inc();
                self.note_backend_up(i);
                self.pool.refill(i);
                Some(status)
            }
            Err(e @ ActError::Io { .. }) => {
                self.stats.probes_failed.inc();
                self.note_backend_down(i, &e.to_string());
                None
            }
            Err(_) => {
                // It answered, just not with STATUS. Alive is alive;
                // there's no fleet data in it.
                self.stats.probes_ok.inc();
                self.note_backend_up(i);
                self.pool.refill(i);
                Some(ServerStatus { text: String::new(), metrics: None })
            }
        }
    }

    pub(crate) fn note_backend_up(&self, i: usize) {
        if self.health.note_success(i) {
            events().emit(
                Level::Info,
                "gate.up",
                format!("backend {i} ({}) marked up", self.pool.addrs()[i]),
            );
        }
    }

    pub(crate) fn note_backend_down(&self, i: usize, why: &str) {
        self.stats.failures_by[i].inc();
        self.pool.clear(i);
        if self.health.note_failure(i) {
            events().emit(
                Level::Warn,
                "gate.down",
                format!("backend {i} ({}) marked down: {why}", self.pool.addrs()[i]),
            );
        }
    }

    /// Stop accepting and close the queue; workers drain what it holds.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    /// One request/reply exchange with backend `i` over its pooled
    /// session. A dead pooled session gets one fresh-session retry before
    /// the failure counts against the backend.
    fn attempt(&self, i: usize, request: &Request) -> Result<Reply, ClientError> {
        let session = self.pool.session(i)?;
        match session.call(request).and_then(|p| p.wait()) {
            Err(ClientError::Io(_)) => {
                self.pool.discard(i, &session);
                self.pool.session(i)?.call(request).and_then(|p| p.wait())
            }
            outcome => outcome,
        }
    }

    /// Route, forward with single-retry failover, and deliver the reply.
    pub(crate) fn forward(&self, job: GateJob) {
        let order = self.ring.route(&job.key);
        let mut candidates: Vec<usize> =
            order.iter().copied().filter(|&b| self.health.is_up(b)).collect();
        if candidates.is_empty() {
            // Every backend is marked down: try the ring order anyway —
            // a mark can be stale, and failing loudly beats guessing.
            candidates = order;
        }
        // The owner plus one failover hop; more would turn a fleet-wide
        // outage into a retry storm.
        candidates.truncate(2);

        let mut outcome = None;
        let mut last_busy = false;
        let mut last_err = String::new();
        for (hop, &b) in candidates.iter().enumerate() {
            if hop > 0 {
                if last_busy {
                    self.stats.busy_failovers.inc();
                } else {
                    self.stats.failovers.inc();
                }
                events().emit(
                    Level::Info,
                    "gate.failover",
                    format!("key {} failing over to backend {b}", job.key),
                );
            }
            match self.attempt(b, &job.request) {
                Ok(Reply::Busy) => {
                    self.note_backend_up(b); // it answered; busy is healthy
                    last_busy = true;
                }
                Ok(reply) => {
                    self.note_backend_up(b);
                    self.stats.forwarded_by[b].inc();
                    self.stats.relayed.inc();
                    self.stats.service_us.observe(job.accepted.elapsed().as_micros() as u64);
                    outcome = Some(reply);
                    break;
                }
                Err(e) => {
                    self.note_backend_down(b, &e.to_string());
                    last_busy = false;
                    last_err = e.to_string();
                }
            }
        }
        let reply = match outcome {
            Some(reply) => reply,
            None if last_busy => Reply::Busy,
            None => {
                // Both candidates exhausted.
                self.stats.failed.inc();
                Reply::Error(format!("no backend could serve key {}: {last_err}", job.key))
            }
        };
        job.session.send_final(job.request_id, &reply);
    }

    /// The aggregated `STATUS`: the gateway's own block, a fleet rollup
    /// summed across live backends (via `MetricsSnapshot::merge_sum`),
    /// and each backend's own status section. The returned snapshot
    /// namespaces the rollup under `fleet.` and each backend's metrics
    /// under `backendN.`.
    pub(crate) fn aggregated_status(&self) -> (String, MetricsSnapshot) {
        let uptime = self.started.elapsed();
        let queue_len = self.queue.len();
        let mut fleet = MetricsSnapshot::new();
        let mut sections = String::new();
        let mut per_backend = Vec::new();
        for i in 0..self.pool.addrs().len() {
            let addr = self.pool.addrs()[i].clone();
            match self.probe(i) {
                Some(ServerStatus { text, metrics: Some(bsnap) }) => {
                    fleet.merge_sum(&bsnap);
                    sections.push_str(&format!("-- backend {i} {addr}: up --\n{text}"));
                    per_backend.push((i, bsnap));
                }
                Some(_) => sections.push_str(&format!("-- backend {i} {addr}: up --\n")),
                None => sections.push_str(&format!("-- backend {i} {addr}: down --\n")),
            }
        }
        let up = self.health.up_count();
        let mut text = self.stats.render(uptime, queue_len, up, self.pool.addrs().len());
        let served = fleet.counter("requests_served").unwrap_or(0);
        let hits = fleet.counter("cache_memory_hits").unwrap_or(0)
            + fleet.counter("cache_disk_loads").unwrap_or(0)
            + fleet.counter("cache_store_loads").unwrap_or(0);
        let misses = fleet.counter("cache_trained").unwrap_or(0);
        text.push_str(&format!(
            "fleet_requests_served {served}\nfleet_cache_hits {hits}\nfleet_cache_misses {misses}\n"
        ));
        if hits + misses > 0 {
            text.push_str(&format!(
                "fleet_cache_hit_rate {:.1}%\n",
                100.0 * hits as f64 / (hits + misses) as f64
            ));
        }
        text.push_str(&sections);

        let mut snap = self.stats.snapshot(uptime, queue_len, up);
        snap.merge_prefixed("fleet", fleet);
        for (i, bsnap) in per_backend {
            snap.merge_prefixed(&format!("backend{i}"), bsnap);
        }
        (text, snap)
    }
}

/// The shard key of a routable request. `STATUS`/`SHUTDOWN` have none
/// (the session answers them itself), and neither do the session-control
/// and stream-continuation kinds (they never enter the forwarding queue).
pub(crate) fn route_key(request: &Request) -> Option<String> {
    match request {
        Request::Train(spec) | Request::Diagnose(spec, _) | Request::DiagnoseStart(spec) => Some(
            ModelKey::new(&spec.workload, spec.seq_len as usize, spec.hidden as usize, spec.seed)
                .canonical(),
        ),
        // Trace frames shard by corpus key so a TRACE_GET finds the
        // backend its TRACE_PUT landed on — streamed or not.
        Request::TracePut { key, .. }
        | Request::TraceGet { key }
        | Request::TracePutStart { key, .. } => Some(format!("trace:{key}")),
        Request::Status
        | Request::Shutdown
        | Request::Hello { .. }
        | Request::StreamChunk(_)
        | Request::StreamEnd { .. } => None,
    }
}

/// A running gateway. Like [`act_serve::Server`], dropping the handle does
/// not stop it; call [`Gateway::shutdown`] then [`Gateway::join`].
pub struct Gateway {
    state: Arc<GateState>,
    threads: Vec<JoinHandle<()>>,
    tcp_addr: SocketAddr,
}

impl Gateway {
    /// Bind the listener and spawn the acceptor, forwarding workers, and
    /// the health prober.
    ///
    /// # Errors
    ///
    /// Fails when `backends` is empty, a count is zero, or the bind fails.
    pub fn start(cfg: GateConfig) -> io::Result<Gateway> {
        let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidInput, what.to_string());
        if cfg.backends.is_empty() {
            return Err(invalid("at least one backend is required"));
        }
        if cfg.workers == 0 {
            return Err(invalid("workers must be >= 1"));
        }
        if cfg.queue_depth == 0 {
            return Err(invalid("queue depth must be >= 1"));
        }
        if cfg.vnodes == 0 {
            return Err(invalid("vnodes must be >= 1"));
        }

        let n = cfg.backends.len();
        let probe_clients = cfg
            .backends
            .iter()
            .map(|addr| {
                Client::builder()
                    .addr(addr.clone())
                    .timeouts(cfg.probe_timeout, cfg.probe_timeout)
                    .build()
                    .expect("endpoint is set")
            })
            .collect();
        let state = Arc::new(GateState {
            ring: HashRing::new(n, cfg.vnodes),
            health: Health::new(n, 0x6761_7465), // "gate"
            pool: SessionPool::new(cfg.backends.clone(), cfg.connect_timeout, cfg.backend_timeout),
            stats: GateStats::new(n),
            started: Instant::now(),
            queue: BoundedQueue::new(cfg.queue_depth),
            probe_clients,
            shutdown: AtomicBool::new(false),
            io_timeout: cfg.io_timeout,
        });
        let mut threads = Vec::new();

        let listener = TcpListener::bind(&cfg.listen)?;
        listener.set_nonblocking(true)?;
        let tcp_addr = listener.local_addr()?;

        {
            // The acceptor only accepts: each connection gets a session
            // thread of its own, so a silent client holds nobody up.
            let state = state.clone();
            threads.push(std::thread::Builder::new().name("act-gate-accept".into()).spawn(
                move || {
                    while !state.shutdown.load(Ordering::SeqCst) {
                        let Ok((conn, _)) = listener.accept() else {
                            // Idle listener, or a transient accept error.
                            std::thread::sleep(POLL);
                            continue;
                        };
                        let state = state.clone();
                        let spawned = std::thread::Builder::new()
                            .name("act-gate-session".into())
                            .spawn(move || run_gate_session(Conn::Tcp(conn), &state));
                        if spawned.is_err() {
                            events().emit(Level::Warn, "gate.session", "failed to spawn session");
                        }
                    }
                },
            )?);
        }
        for i in 0..cfg.workers {
            let state = state.clone();
            threads.push(std::thread::Builder::new().name(format!("act-gate-worker-{i}")).spawn(
                move || {
                    while let Some(job) = state.queue.pop() {
                        state.forward(job);
                    }
                },
            )?);
        }
        {
            let state = state.clone();
            let interval = cfg.probe_interval;
            threads.push(std::thread::Builder::new().name("act-gate-probe".into()).spawn(
                move || {
                    let n = state.pool.addrs().len();
                    let mut last = vec![Instant::now(); n];
                    for i in 0..n {
                        state.probe(i); // initial sweep warms pools + marks
                    }
                    while !state.shutdown.load(Ordering::SeqCst) {
                        for (i, last) in last.iter_mut().enumerate() {
                            let due = if state.health.is_up(i) {
                                last.elapsed() >= interval
                            } else {
                                state.health.probe_due(i)
                            };
                            if due {
                                *last = Instant::now();
                                state.probe(i);
                            }
                        }
                        std::thread::sleep(POLL);
                    }
                },
            )?);
        }

        events().emit(
            Level::Info,
            "gate.start",
            format!(
                "gateway up on {tcp_addr}: {} backends, {} vnodes, {} workers, queue depth {}",
                n, cfg.vnodes, cfg.workers, cfg.queue_depth
            ),
        );
        Ok(Gateway { state, threads, tcp_addr })
    }

    /// The bound listen address (with the real port when `:0` was asked).
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// Live gateway counters.
    pub fn stats(&self) -> &GateStats {
        &self.state.stats
    }

    /// The consistent-hash ring (tests predict ownership through this).
    pub fn ring(&self) -> &HashRing {
        &self.state.ring
    }

    /// Backends currently marked up.
    pub fn backends_up(&self) -> usize {
        self.state.health.up_count()
    }

    /// The current aggregated `STATUS` text.
    pub fn status_text(&self) -> String {
        self.state.aggregated_status().0
    }

    /// Begin graceful drain: stop accepting, let workers finish queued
    /// forwards. Idempotent; also triggered by a `SHUTDOWN` frame. The
    /// backends are *not* shut down — they outlive their gateway.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Whether a drain has started.
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Wait for the drain to finish (every queued request answered).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_rejects_degenerate_configs() {
        let bad = |f: fn(&mut GateConfig)| {
            let mut cfg =
                GateConfig { backends: vec!["127.0.0.1:1".into()], ..GateConfig::default() };
            f(&mut cfg);
            Gateway::start(cfg).err().expect("config must be rejected")
        };
        assert!(bad(|c| c.backends.clear()).to_string().contains("backend"));
        assert!(bad(|c| c.workers = 0).to_string().contains("workers"));
        assert!(bad(|c| c.queue_depth = 0).to_string().contains("queue depth"));
        assert!(bad(|c| c.vnodes = 0).to_string().contains("vnodes"));
    }

    #[test]
    fn route_keys_shard_models_and_traces() {
        let spec = act_serve::ModelSpec::new("apache");
        assert_eq!(route_key(&Request::Train(spec.clone())).unwrap(), "apache-n2-h10-s0");
        assert_eq!(
            route_key(&Request::Diagnose(spec.clone(), Vec::new())).unwrap(),
            "apache-n2-h10-s0",
            "TRAIN and DIAGNOSE of one key share a backend"
        );
        assert_eq!(
            route_key(&Request::DiagnoseStart(spec)).unwrap(),
            "apache-n2-h10-s0",
            "a streamed DIAGNOSE lands where the one-frame one would"
        );
        assert_eq!(route_key(&Request::TraceGet { key: "seq-0".into() }).unwrap(), "trace:seq-0");
        assert_eq!(
            route_key(&Request::TracePutStart { key: "seq-0".into(), workload: "seq".into() })
                .unwrap(),
            "trace:seq-0",
            "a streamed TRACE_PUT lands where TRACE_GET will look"
        );
        assert!(route_key(&Request::Status).is_none());
        assert!(route_key(&Request::Shutdown).is_none());
        assert!(route_key(&Request::Hello { window: 4 }).is_none());
        assert!(route_key(&Request::StreamChunk(Vec::new())).is_none());
        assert!(route_key(&Request::StreamEnd { crc32: 0, total_len: 0 }).is_none());
    }

    #[test]
    fn stats_render_is_grep_stable() {
        let stats = GateStats::new(2);
        stats.routed.inc();
        stats.relayed.inc();
        let text = stats.render(Duration::from_secs(1), 0, 2, 2);
        for needle in [
            "act-gate status",
            "backends 2",
            "backends_up 2",
            "requests_routed 1",
            "replies_relayed 1",
            "failovers 0",
            "requests_rejected_busy 0",
            "streams_relayed 0",
            "sessions_open 0",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }
}

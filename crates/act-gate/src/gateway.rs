//! The gateway daemon: accept client connections, shard their requests
//! across the backend fleet, fail over, and answer aggregated `STATUS`.
//!
//! The acceptor only accepts: each connection gets a session thread of its
//! own (see [`crate::session`]), with the same connection model as
//! act-serve — a first frame of `HELLO` asks for a window, anything else
//! opens a window-1 session. The session answers `STATUS` (the aggregated
//! fleet view) and `SHUTDOWN` itself, and admits every routable request —
//! decoded, with its shard key and its reply target — to a bounded
//! forwarding queue, answering `BUSY` when full (the same
//! refused-not-dropped backpressure contract as act-serve).
//!
//! Forwarding workers never wait on a backend. A worker pops an admitted
//! request, routes it — the consistent-hash ring orders the backends for
//! the key, down-marked backends are skipped, and the request gets the
//! owner plus at most one failover hop — sends it on the backend's pooled
//! session ([`crate::pool`]) and goes back to the queue. The backend
//! session's reader puts the answered request back on the same queue and
//! does nothing else, so it blocks on nothing but its own socket. A
//! worker then settles the answer: it relays a reply to the client, or
//! applies the forwarding rule — one fresh-session retry when the pooled
//! session died, the next ring owner when the backend failed or answered
//! `BUSY`, then `BUSY` or `ERROR`. Every hop takes that one path, and
//! workers do every client write, so a client that stops reading stalls
//! one worker, never a backend link. Requests from one session therefore
//! route, fail over, and complete independently, and a backend session
//! carries up to its whole window of forwards at once.
//!
//! Each admitted request, and each relayed upload from its opener on,
//! counts as in flight (`requests_in_flight`) until its final reply; a
//! drain closes the queue when that count reaches 0, so [`Gateway::join`]
//! returns after every admitted request and upload is answered.

use crate::health::Health;
use crate::pool::SessionPool;
use crate::ring::HashRing;
use act_client::{ActError, Client, ServerStatus};
use act_fleet::{BoundedQueue, ModelKey};
use act_obs::{
    events, latency_bounds_us, Counter, Gauge, Histogram, Level, MetricsSnapshot, Registry,
};
use act_serve::conn::{accept_loop, run_session, wake, Listener, SessionShared, SessionStats};
use act_serve::{ClientError, Endpoint, Reply, Request};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the health prober wakes to see whether a probe is due (or
/// the gateway is draining).
const PROBE_TICK: Duration = Duration::from_millis(5);

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
    /// What the session loop counts. Its window slots are not reported:
    /// the gateway's `requests_in_flight` counts admitted forwards.
    pub(crate) session: Arc<SessionStats>,
    pub(crate) routed: Counter,
    pub(crate) relayed: Counter,
    pub(crate) failovers: Counter,
    pub(crate) busy_failovers: Counter,
    pub(crate) failed: Counter,
    /// Queue-full refusals, and the session loop's `BUSY`s.
    pub(crate) rejected_busy: Counter,
    proto_errors: Counter,
    pub(crate) probes_ok: Counter,
    pub(crate) probes_failed: Counter,
    pub(crate) streams_relayed: Counter,
    pub(crate) stream_chunks_relayed: Counter,
    pub(crate) forwarded_by: Vec<Counter>,
    pub(crate) failures_by: Vec<Counter>,
    backends_up: Gauge,
    queue_depth: Gauge,
    uptime_ms: Gauge,
    sessions_open: Gauge,
    requests_in_flight: Gauge,
    service_us: Histogram,
}

impl GateStats {
    fn new(backends: usize) -> GateStats {
        let registry = Registry::new();
        GateStats {
            session: Arc::new(SessionStats::new(&registry, Gauge::default(), Counter::detached())),
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
            requests_in_flight: registry.gauge("requests_in_flight"),
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

    /// Requests the gateway refused `BUSY` itself: its queue was full,
    /// the session's window was full, the session already had an upload
    /// open, or the gateway was draining.
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

    /// Admitted requests and relayed uploads that have not had their
    /// final reply yet — what a drain waits on. With forwards no longer
    /// parked at the gateway, this is how much work is out on the fleet.
    pub fn requests_in_flight(&self) -> i64 {
        self.requests_in_flight.get()
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
        line("requests_in_flight", self.requests_in_flight.get().max(0) as u64);
        line("queue_depth", queue_len as u64);
        out
    }
}

/// One admitted, routable request, as its client session handed it over.
pub(crate) struct Forward {
    /// The client session the request arrived on; the reply goes back on
    /// it and releases the request's window slot.
    pub(crate) session: Arc<SessionShared>,
    /// The client's id for the request.
    pub(crate) request_id: u32,
    pub(crate) request: Request,
    /// Shard key (ModelKey canonical form, or `trace:<key>`).
    pub(crate) key: String,
    pub(crate) accepted: Instant,
}

/// What the forwarding queue carries.
pub(crate) enum GateJob {
    /// Fresh from its client session, not yet routed.
    Admitted(Arc<Forward>),
    /// Back from the backend its route points at, with that backend's
    /// answer or the transport error that stands in for one.
    Answered(Arc<Forward>, Route, Result<Reply, ClientError>),
}

/// Where a request stands on its route: the backends it may try (the
/// ring owner and at most one failover hop), the one it is on, and
/// whether that one already got its fresh-session retry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Route {
    candidates: [usize; 2],
    hops: usize,
    hop: usize,
    retried: bool,
}

impl Route {
    /// The backend the request is on.
    fn backend(&self) -> usize {
        self.candidates[self.hop]
    }
}

/// Everything the acceptor, workers, session readers, and prober share.
pub(crate) struct GateState {
    pub(crate) ring: HashRing,
    pub(crate) health: Health,
    pub(crate) pool: SessionPool,
    pub(crate) stats: Arc<GateStats>,
    started: Instant,
    /// Shared with the reply callbacks, which hold nothing else of the
    /// gateway.
    queue: Arc<BoundedQueue<GateJob>>,
    /// Admitted requests and open uploads not yet finally answered
    /// (mirrored in `stats.requests_in_flight`). Admission, final replies
    /// and the start of a drain all decide under this lock, so the reply
    /// that empties a draining gateway cannot miss closing the queue.
    in_flight: Mutex<u64>,
    /// One act-client per backend, probe-timeout-configured, for health
    /// probes and STATUS aggregation.
    probe_clients: Vec<Client>,
    pub(crate) shutdown: AtomicBool,
    /// Client-facing socket read/write timeout.
    pub(crate) io_timeout: Duration,
    /// Where a drain connects to wake the acceptor.
    wake: Endpoint,
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

    /// Stop accepting and start the drain. The queue closes now if nothing
    /// is in flight, else on the last final reply; workers exit once it has
    /// closed and emptied. Only the first call wakes the acceptor.
    pub(crate) fn begin_shutdown(&self) {
        let in_flight = self.in_flight.lock().expect("gate in-flight lock");
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if *in_flight == 0 {
            self.queue.close();
        }
        drop(in_flight);
        wake(&self.wake);
    }

    /// Count a request or upload in flight if the gateway is not draining
    /// and `accepted` takes it. `false` means it was never taken, and the
    /// caller answers `BUSY`.
    pub(crate) fn enter(&self, accepted: impl FnOnce() -> bool) -> bool {
        let mut in_flight = self.in_flight.lock().expect("gate in-flight lock");
        let entered = !self.shutdown.load(Ordering::SeqCst) && accepted();
        if entered {
            *in_flight += 1;
            self.stats.requests_in_flight.set(*in_flight as i64);
        }
        entered
    }

    /// Count a request or upload out once its final reply is written; the
    /// last one out of a draining gateway closes the queue.
    pub(crate) fn leave(&self) {
        let mut in_flight = self.in_flight.lock().expect("gate in-flight lock");
        *in_flight -= 1;
        self.stats.requests_in_flight.set(*in_flight as i64);
        if *in_flight == 0 && self.shutdown.load(Ordering::SeqCst) {
            self.queue.close();
        }
    }

    /// Admit a routable request: queue it for a worker and count it in
    /// flight until its final reply. `false` means it was never queued —
    /// the queue is full or the gateway is draining — and the caller
    /// answers `BUSY`.
    pub(crate) fn admit(&self, forward: Forward) -> bool {
        self.enter(|| self.queue.try_push(GateJob::Admitted(Arc::new(forward))).is_ok())
    }

    /// Write an admitted request's final reply and count it out.
    fn finish(&self, forward: &Forward, reply: &Reply) {
        forward.session.send_final(forward.request_id, reply);
        self.leave();
    }

    /// The backends a request for `key` may try, in order: the ring order
    /// with down-marked backends skipped, cut to the owner plus one
    /// failover hop.
    pub(crate) fn candidates(&self, key: &str) -> Vec<usize> {
        let order = self.ring.route(key);
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
        candidates
    }

    /// One forwarding step for a job off the queue: route and send an
    /// admitted request, or settle an answered one.
    fn work(&self, job: GateJob) {
        match job {
            GateJob::Admitted(forward) => {
                let candidates = self.candidates(&forward.key);
                let route = Route {
                    candidates: [candidates[0], *candidates.last().expect("ring is non-empty")],
                    hops: candidates.len(),
                    hop: 0,
                    retried: false,
                };
                self.send(forward, route);
            }
            GateJob::Answered(forward, route, answer) => self.settle(forward, route, answer),
        }
    }

    /// Send `forward` to its route's backend over the pooled session and
    /// return without waiting: the session's reader requeues the answer.
    /// A send that fails is settled on the spot.
    fn send(&self, forward: Arc<Forward>, mut route: Route) {
        let b = route.backend();
        let session = match self.pool.session(b) {
            Ok(session) => session,
            Err(e) => {
                // A session that cannot open gets no fresh-session retry.
                route.retried = true;
                return self.settle(forward, route, Err(e));
            }
        };
        let queue = self.queue.clone();
        let answered = forward.clone();
        let sent = session.call_with(&forward.request, move |answer| {
            queue.requeue(GateJob::Answered(answered, route, answer));
        });
        if let Err(e) = sent {
            self.pool.discard(b, &session);
            self.settle(forward, route, Err(e));
        }
    }

    /// Settle backend `route.backend()`'s answer: relay a reply; give a
    /// dead pooled session one fresh-session retry; move a `BUSY` or a
    /// failed backend on to the next hop; with no hop left, answer `BUSY`
    /// (the last backend was busy) or `ERROR`.
    fn settle(&self, forward: Arc<Forward>, mut route: Route, answer: Result<Reply, ClientError>) {
        let b = route.backend();
        let failure = match answer {
            Ok(Reply::Busy) => {
                self.note_backend_up(b); // it answered; busy is healthy
                None
            }
            Ok(reply) => {
                self.note_backend_up(b);
                self.stats.forwarded_by[b].inc();
                self.stats.relayed.inc();
                self.stats.service_us.observe(forward.accepted.elapsed().as_micros() as u64);
                return self.finish(&forward, &reply);
            }
            Err(_) if !route.retried => {
                route.retried = true;
                return self.send(forward, route);
            }
            Err(e) => {
                self.note_backend_down(b, &e.to_string());
                Some(e.to_string())
            }
        };
        route.hop += 1;
        route.retried = false;
        if route.hop < route.hops {
            let counter =
                if failure.is_none() { &self.stats.busy_failovers } else { &self.stats.failovers };
            counter.inc();
            events().emit(
                Level::Info,
                "gate.failover",
                format!("key {} failing over to backend {}", forward.key, route.backend()),
            );
            return self.send(forward, route);
        }
        let reply = match failure {
            None => Reply::Busy,
            Some(why) => {
                self.stats.failed.inc();
                Reply::Error(format!("no backend could serve key {}: {why}", forward.key))
            }
        };
        self.finish(&forward, &reply);
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
        let listener = TcpListener::bind(&cfg.listen)?;
        let tcp_addr = listener.local_addr()?;
        let listener = Listener::Tcp(listener);
        let state = Arc::new(GateState {
            ring: HashRing::new(n, cfg.vnodes),
            health: Health::new(n, 0x6761_7465), // "gate"
            pool: SessionPool::new(cfg.backends.clone(), cfg.connect_timeout, cfg.backend_timeout),
            stats: Arc::new(GateStats::new(n)),
            started: Instant::now(),
            queue: Arc::new(BoundedQueue::new(cfg.queue_depth)),
            in_flight: Mutex::new(0),
            probe_clients,
            shutdown: AtomicBool::new(false),
            io_timeout: cfg.io_timeout,
            wake: listener.wake_endpoint()?,
        });
        let mut threads = Vec::new();

        {
            let state = state.clone();
            threads.push(std::thread::Builder::new().name("act-gate-accept".into()).spawn(
                move || {
                    let session = {
                        let state = state.clone();
                        move |conn| run_session(conn, &state)
                    };
                    accept_loop(&listener, &state.shutdown, "act-gate-session", session);
                },
            )?);
        }
        for i in 0..cfg.workers {
            let state = state.clone();
            threads.push(std::thread::Builder::new().name(format!("act-gate-worker-{i}")).spawn(
                move || {
                    while let Some(job) = state.queue.pop() {
                        state.work(job);
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
                        std::thread::sleep(PROBE_TICK);
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

    /// Live gateway counters (a handle that outlives [`Gateway::join`]).
    pub fn stats(&self) -> &Arc<GateStats> {
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

    /// Begin graceful drain: stop accepting and admitting, and let the
    /// workers finish every admitted request. Idempotent; also triggered
    /// by a `SHUTDOWN` frame. The backends are *not* shut down — they
    /// outlive their gateway.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Whether a drain has started.
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Wait for the drain to finish: every admitted request and relayed
    /// upload has had its one final reply.
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
        stats.requests_in_flight.set(3);
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
            "requests_in_flight 3",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        let snap = stats.snapshot(Duration::from_secs(1), 0, 2);
        assert_eq!(snap.gauge("requests_in_flight"), Some(3), "the snapshot carries it too");
    }
}

//! The daemon: listeners, acceptor threads, one session thread per
//! connection, the bounded job queue, and the counters block behind
//! `STATUS`.
//!
//! Life of a request: an acceptor thread accepts the connection and hands
//! it to a session thread of its own; the acceptor never reads. The
//! session's first frame decides its window (see [`crate::conn`]): `HELLO`
//! asks for one, anything else opens a window-1 session with that frame as
//! its first request. The session answers `STATUS` and `SHUTDOWN` itself —
//! always serviceable, even with a full queue — and wraps every other
//! request into a [`Job`](crate::pool::Job) that it `try_push`es onto the
//! bounded queue. A full queue or a full window yields an immediate `BUSY`
//! reply: the request was *refused*, never accepted-then-dropped. Workers
//! drain the queue (see [`crate::pool`]) and write replies onto the
//! session; `SHUTDOWN` (or [`Server::shutdown`], which the CLI wires to
//! SIGINT) wakes the acceptors out of `accept` and stops them, closes the
//! queue, and lets the workers finish every accepted job before
//! [`Server::join`] returns.

use crate::cache::{CacheOutcome, ModelCache};
use crate::client::Endpoint;
use crate::conn::{accept_loop, next_frame, wake, Conn, Listener, Window};
use crate::pool::{spawn_workers, Job, Responder, Work};
use crate::proto::{encode_frame, write_frame, FrameKind, ModelSpec, Reply, Request};
use act_fleet::BoundedQueue;
use act_obs::{
    events, latency_bounds_us, Counter, Gauge, Histogram, Level, MetricsSnapshot, Registry,
};
use act_store::Crc32;
use act_trace::io::{parse_record_line, TraceBuilder, TraceSink, MAX_CODE_LEN};
use act_trace::Trace;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ceiling on one streamed `DIAGNOSE` upload. Unlike streamed `TRACE_PUT`
/// (disk-backed, memory bounded by the chunk size) a streamed diagnose
/// materializes the parsed trace in memory, so it needs a cap; this one is
/// 4x the single-frame limit.
const MAX_STREAM_DIAGNOSE_BYTES: u64 = 256 << 20;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP listen address (`"127.0.0.1:0"` picks an ephemeral port). At
    /// least one of `tcp_addr`/`unix_path` must be set.
    pub tcp_addr: Option<String>,
    /// Unix-domain-socket path (a stale socket file is replaced).
    pub unix_path: Option<PathBuf>,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Bounded job-queue depth; a full queue answers `BUSY`.
    pub queue_depth: usize,
    /// Directory for persisted models (`None` = in-memory cache only).
    pub model_dir: Option<PathBuf>,
    /// Corpus store directory (`None` = no `TRACE_PUT`/`TRACE_GET`; the
    /// directory is created and initialized on first use).
    pub corpus_dir: Option<PathBuf>,
    /// Models kept resident in the LRU cache.
    pub cache_capacity: usize,
    /// Per-request deadline, measured from acceptance; a job popped after
    /// its deadline is answered with an error instead of being processed.
    pub deadline: Duration,
    /// Socket read/write timeout for each connection.
    pub io_timeout: Duration,
    /// Most diagnose requests coalesced into one micro-batch. `1`
    /// disables coalescing (every request dispatched alone); `0` is
    /// rejected at startup. A batch takes whatever compatible requests are
    /// already queued; it never waits for more.
    pub batch_size: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            tcp_addr: Some("127.0.0.1:0".to_string()),
            unix_path: None,
            workers: act_fleet::default_workers(),
            queue_depth: 64,
            model_dir: None,
            corpus_dir: None,
            cache_capacity: 32,
            deadline: Duration::from_secs(120),
            io_timeout: Duration::from_secs(30),
            batch_size: 16,
        }
    }
}

/// Counters behind `STATUS` — the daemon's observability surface, backed
/// by a per-server [`act_obs::Registry`] so the whole set serializes as
/// one [`MetricsSnapshot`] in `STATUS` replies. Per-server (not the
/// process-global registry) because the tests boot several daemons in one
/// process and their counters must not mix. Frames read and written are
/// counted per [`FrameKind`]; service time is a fixed-bucket latency
/// histogram.
pub struct ServerStats {
    registry: Registry,
    accepted: Counter,
    served: Counter,
    errored: Counter,
    rejected_busy: Counter,
    crashed: Counter,
    deadline_expired: Counter,
    proto_errors: Counter,
    cache_memory_hits: Counter,
    cache_disk_loads: Counter,
    cache_store_loads: Counter,
    cache_trained: Counter,
    coalesced_batches: Counter,
    coalesce_hits: Counter,
    coalesce_misses: Counter,
    /// One counter per frame kind, in [`FrameKind::COUNTERS`] order.
    frames: Vec<Counter>,
    stream_chunk_bytes: Counter,
    streams_opened: Counter,
    streams_aborted: Counter,
    uptime_ms: Gauge,
    queue_depth: Gauge,
    models_resident: Gauge,
    sessions_open: Gauge,
    requests_in_flight: Gauge,
    service_us: Histogram,
    enqueue_depth: Histogram,
    batch_size: Histogram,
}

impl Default for ServerStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerStats {
    /// Fresh stats over a fresh registry (all zeros).
    pub fn new() -> ServerStats {
        let registry = Registry::new();
        ServerStats {
            accepted: registry.counter("requests_accepted"),
            served: registry.counter("requests_served"),
            errored: registry.counter("requests_errored"),
            rejected_busy: registry.counter("requests_rejected_busy"),
            crashed: registry.counter("requests_crashed"),
            deadline_expired: registry.counter("requests_deadline_expired"),
            proto_errors: registry.counter("protocol_errors"),
            cache_memory_hits: registry.counter("cache_memory_hits"),
            cache_disk_loads: registry.counter("cache_disk_loads"),
            cache_store_loads: registry.counter("cache_store_loads"),
            cache_trained: registry.counter("cache_trained"),
            coalesced_batches: registry.counter("coalesced_batches"),
            coalesce_hits: registry.counter("coalesce_hits"),
            coalesce_misses: registry.counter("coalesce_misses"),
            frames: FrameKind::COUNTERS.iter().map(|(_, name)| registry.counter(name)).collect(),
            stream_chunk_bytes: registry.counter("stream_chunk_bytes"),
            streams_opened: registry.counter("streams_opened"),
            streams_aborted: registry.counter("streams_aborted"),
            uptime_ms: registry.gauge("uptime_ms"),
            queue_depth: registry.gauge("queue_depth"),
            models_resident: registry.gauge("models_resident"),
            sessions_open: registry.gauge("sessions_open"),
            requests_in_flight: registry.gauge("requests_in_flight"),
            service_us: registry.histogram("service_us", &latency_bounds_us()),
            enqueue_depth: registry
                .histogram("enqueue_depth", &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256]),
            batch_size: registry.histogram("batch_size", &[1, 2, 4, 8, 16, 32]),
            registry,
        }
    }

    /// The registry every counter lives in, so sibling subsystems (the
    /// corpus store's metrics) can join the same `STATUS` snapshot.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    pub(crate) fn bump_accepted(&self) {
        self.accepted.inc();
    }

    pub(crate) fn bump_served(&self) {
        self.served.inc();
    }

    pub(crate) fn bump_errored(&self) {
        self.errored.inc();
    }

    pub(crate) fn bump_rejected(&self) {
        self.rejected_busy.inc();
    }

    pub(crate) fn bump_crashed(&self) {
        self.crashed.inc();
    }

    pub(crate) fn bump_deadline_expired(&self) {
        self.deadline_expired.inc();
    }

    pub(crate) fn bump_proto_errors(&self) {
        self.proto_errors.inc();
    }

    /// Count one decoded request or one written reply by its frame kind.
    pub(crate) fn note_frame(&self, kind: FrameKind) {
        self.frames[kind.index()].inc();
    }

    /// Observe the queue depth seen by one enqueued request (the
    /// per-request queue-depth histogram behind `STATUS`).
    pub(crate) fn note_enqueue_depth(&self, depth: usize) {
        self.enqueue_depth.observe(depth as u64);
    }

    pub(crate) fn note_session_opened(&self) {
        self.sessions_open.add(1);
    }

    pub(crate) fn note_session_closed(&self) {
        self.sessions_open.add(-1);
    }

    pub(crate) fn note_request_started(&self) {
        self.requests_in_flight.add(1);
    }

    pub(crate) fn note_request_finished(&self) {
        self.requests_in_flight.add(-1);
    }

    pub(crate) fn note_stream_chunk(&self, bytes: usize) {
        self.stream_chunk_bytes.add(bytes as u64);
    }

    pub(crate) fn note_stream_opened(&self) {
        self.streams_opened.inc();
    }

    pub(crate) fn note_stream_aborted(&self) {
        self.streams_aborted.inc();
    }

    /// Record one dispatched micro-batch of `size` diagnose requests. A
    /// request that found companions is a coalesce *hit*; a request
    /// dispatched alone (nothing compatible was queued) is a *miss* — so
    /// `coalesce_hits + coalesce_misses` equals the number of
    /// batch-eligible requests, and the hit rate reads off directly.
    pub(crate) fn note_batch(&self, size: usize) {
        self.coalesced_batches.inc();
        self.batch_size.observe(size as u64);
        if size > 1 {
            self.coalesce_hits.add(size as u64);
        } else {
            self.coalesce_misses.inc();
        }
    }

    pub(crate) fn note_cache(&self, outcome: CacheOutcome) {
        match outcome {
            CacheOutcome::Memory => self.cache_memory_hits.inc(),
            CacheOutcome::Disk => self.cache_disk_loads.inc(),
            CacheOutcome::Store => self.cache_store_loads.inc(),
            CacheOutcome::Trained => self.cache_trained.inc(),
        }
    }

    pub(crate) fn record_service(&self, elapsed: Duration) {
        self.service_us.observe(elapsed.as_micros() as u64);
    }

    /// Every metric as one snapshot — what a `STATUS` reply carries. The
    /// point-in-time gauges (uptime, queue depth, resident models) are
    /// stamped first so the snapshot is self-contained.
    pub fn metrics_snapshot(
        &self,
        uptime: Duration,
        queue_len: usize,
        models_resident: usize,
    ) -> MetricsSnapshot {
        self.uptime_ms.set(uptime.as_millis() as i64);
        self.queue_depth.set(queue_len as i64);
        self.models_resident.set(models_resident as i64);
        self.registry.snapshot()
    }
}

/// Render the plain-text `STATUS` block from the snapshot it ships with:
/// `key value` per line. Scripts grep these keys, so the aggregates keep
/// their names: `cache_hits` is memory + disk + store hits, `cache_misses`
/// is models trained from scratch.
fn render_status(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let g = |name: &str| snap.gauge(name).unwrap_or(0).max(0) as u64;
    let mut out = String::from("act-serve status\n");
    for (key, value) in [
        ("uptime_ms", g("uptime_ms")),
        ("requests_accepted", c("requests_accepted")),
        ("requests_served", c("requests_served")),
        ("requests_errored", c("requests_errored")),
        ("requests_rejected_busy", c("requests_rejected_busy")),
        ("requests_crashed", c("requests_crashed")),
        ("requests_deadline_expired", c("requests_deadline_expired")),
        ("protocol_errors", c("protocol_errors")),
        ("cache_hits", c("cache_memory_hits") + c("cache_disk_loads") + c("cache_store_loads")),
        ("cache_misses", c("cache_trained")),
        ("coalesced_batches", c("coalesced_batches")),
        ("coalesce_hits", c("coalesce_hits")),
        ("coalesce_misses", c("coalesce_misses")),
        ("models_resident", g("models_resident")),
        ("queue_depth", g("queue_depth")),
    ] {
        writeln!(out, "{key} {value}").expect("string write");
    }
    let service = snap.histogram("service_us").cloned().unwrap_or_default();
    for (key, q) in [("service_ms_p50", 0.50), ("service_ms_p99", 0.99)] {
        writeln!(out, "{key} {:.3}", service.quantile(q) as f64 / 1e3).expect("string write");
    }
    out
}

/// What the acceptors, every session thread and the [`Server`] handle
/// share.
struct Daemon {
    queue: Arc<BoundedQueue<Job>>,
    cache: Arc<ModelCache>,
    stats: Arc<ServerStats>,
    shutdown: AtomicBool,
    io_timeout: Duration,
    started: Instant,
    /// Where a drain connects to wake each acceptor, one per listener.
    wake: Vec<Endpoint>,
}

impl Daemon {
    fn snapshot(&self) -> MetricsSnapshot {
        self.stats.metrics_snapshot(self.started.elapsed(), self.queue.len(), self.cache.resident())
    }

    /// The `STATUS` reply: one snapshot, and the text rendered from it.
    fn status_reply(&self) -> Reply {
        let snap = self.snapshot();
        Reply::StatusMetrics(render_status(&snap), snap)
    }

    /// Stop accepting and close the queue; workers drain what it holds.
    /// Only the first call wakes the acceptors.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.queue.close();
            self.wake.iter().for_each(wake);
        }
    }

    /// Queue `job`, or answer it `BUSY` right away when the queue is full.
    fn enqueue(&self, job: Job) {
        let depth = self.queue.len();
        match self.queue.try_push(job) {
            Ok(()) => {
                self.stats.bump_accepted();
                self.stats.note_enqueue_depth(depth);
            }
            Err(job) => {
                self.stats.bump_rejected();
                events().emit(Level::Debug, "serve.busy", "queue full: request rejected");
                job.responder.respond(&Reply::Busy, &self.stats);
            }
        }
    }
}

/// A running daemon. Dropping the handle does *not* stop it; call
/// [`Server::shutdown`] (or send a `SHUTDOWN` frame) and then
/// [`Server::join`].
pub struct Server {
    daemon: Arc<Daemon>,
    threads: Vec<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Bind the listeners and spawn acceptors + workers.
    ///
    /// # Errors
    ///
    /// Fails when no listener is configured, a bind fails, or `workers` /
    /// `queue_depth` / `cache_capacity` / `batch_size` is zero.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidInput, what.to_string());
        if cfg.workers == 0 {
            return Err(invalid("workers must be >= 1"));
        }
        if cfg.queue_depth == 0 {
            return Err(invalid("queue depth must be >= 1"));
        }
        if cfg.cache_capacity == 0 {
            return Err(invalid("cache capacity must be >= 1"));
        }
        if cfg.batch_size == 0 {
            return Err(invalid("batch size must be >= 1 (1 disables coalescing)"));
        }
        if cfg.tcp_addr.is_none() && cfg.unix_path.is_none() {
            return Err(invalid("at least one of tcp_addr/unix_path is required"));
        }

        let stats = Arc::new(ServerStats::default());
        let mut cache = ModelCache::new(cfg.cache_capacity, cfg.model_dir.clone());
        if let Some(dir) = &cfg.corpus_dir {
            let corpus = act_store::Corpus::open_or_init(dir)
                .map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corpus at {}: {e}", dir.display()),
                    )
                })?
                .with_registry(stats.registry());
            cache = cache.with_corpus(Arc::new(Mutex::new(corpus)));
        }

        // Every listener is bound before any thread starts, so a failed
        // bind leaves nothing behind.
        let mut listeners = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = &cfg.tcp_addr {
            let listener = TcpListener::bind(addr)?;
            tcp_addr = Some(listener.local_addr()?);
            listeners.push(("act-serve-accept-tcp", Listener::Tcp(listener)));
        }
        if let Some(path) = &cfg.unix_path {
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            listeners.push(("act-serve-accept-unix", Listener::Unix(UnixListener::bind(path)?)));
        }
        let daemon = Arc::new(Daemon {
            queue: Arc::new(BoundedQueue::new(cfg.queue_depth)),
            cache: Arc::new(cache),
            stats,
            shutdown: AtomicBool::new(false),
            io_timeout: cfg.io_timeout,
            started: Instant::now(),
            wake: listeners.iter().map(|(_, l)| l.wake_endpoint()).collect::<io::Result<_>>()?,
        });
        let mut server =
            Server { daemon, threads: Vec::new(), tcp_addr, unix_path: cfg.unix_path.clone() };
        server.threads = spawn_workers(
            cfg.workers,
            server.daemon.queue.clone(),
            server.daemon.cache.clone(),
            server.daemon.stats.clone(),
            cfg.deadline,
            cfg.batch_size,
        );
        for (name, listener) in listeners {
            let daemon = server.daemon.clone();
            let spawned = std::thread::Builder::new().name(name.to_string()).spawn(move || {
                let session = {
                    let daemon = daemon.clone();
                    move |conn| run_session(conn, &daemon)
                };
                accept_loop(&listener, &daemon.shutdown, "act-serve-session", session);
            });
            match spawned {
                Ok(t) => server.threads.push(t),
                Err(e) => {
                    // Stop what already runs rather than orphan it.
                    server.shutdown();
                    server.join();
                    return Err(e);
                }
            }
        }

        events().emit(
            Level::Info,
            "serve.start",
            format!(
                "daemon up: {} workers, queue depth {}, listening on {}",
                cfg.workers,
                cfg.queue_depth,
                match (&server.tcp_addr, &cfg.unix_path) {
                    (Some(a), Some(p)) => format!("{a} and {}", p.display()),
                    (Some(a), None) => a.to_string(),
                    (None, Some(p)) => p.display().to_string(),
                    (None, None) => unreachable!("validated above"),
                }
            ),
        );
        Ok(server)
    }

    /// The bound TCP address (with the real port when `:0` was requested).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Live counters (shared with the sessions and workers).
    pub fn stats(&self) -> Arc<ServerStats> {
        self.daemon.stats.clone()
    }

    /// The current `STATUS` block.
    pub fn status_text(&self) -> String {
        render_status(&self.daemon.snapshot())
    }

    /// Begin graceful drain: stop accepting, let workers finish accepted
    /// jobs. Idempotent; also triggered by a `SHUTDOWN` frame.
    pub fn shutdown(&self) {
        self.daemon.begin_shutdown();
    }

    /// Whether a drain has started.
    pub fn is_shutting_down(&self) -> bool {
        self.daemon.shutdown.load(Ordering::SeqCst)
    }

    /// Wait for the drain to finish (acceptors stopped, every accepted job
    /// answered). Removes the Unix socket file on the way out.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The half of a session shared between its reader thread and the workers
/// answering its requests: the write side of the socket plus the in-flight
/// window. Replies go out under the writer lock, one whole frame at a
/// time, so frames from concurrent workers never interleave mid-frame.
pub(crate) struct SessionShared {
    writer: Mutex<Conn>,
    window: Window,
}

impl SessionShared {
    /// Count and write one reply frame tagged with the request id it
    /// answers.
    pub(crate) fn send(&self, request_id: u32, reply: &Reply, stats: &ServerStats) {
        let frame = reply.to_frame().with_request(request_id);
        stats.note_frame(frame.kind);
        let mut w = self.writer.lock().expect("session writer lock");
        // A vanished client is noticed by the session reader; move on.
        let _ = write_frame(&mut *w, &frame);
    }

    /// Claim one in-flight slot; `false` means the window is full and the
    /// request must be answered `BUSY`.
    fn begin_request(&self, stats: &ServerStats) -> bool {
        let claimed = self.window.claim();
        if claimed {
            stats.note_request_started();
        }
        claimed
    }

    /// Release the slot claimed by [`SessionShared::begin_request`].
    pub(crate) fn finish_request(&self, stats: &ServerStats) {
        self.window.release();
        stats.note_request_finished();
    }

    /// Send the final reply for a claimed request, releasing its slot
    /// first (see [`Window::release`]).
    pub(crate) fn send_final(&self, request_id: u32, reply: &Reply, stats: &ServerStats) {
        self.finish_request(stats);
        self.send(request_id, reply, stats);
    }

    /// Send the final replies for several claimed requests of one
    /// micro-batch in a single buffered write. Every slot is released
    /// first (same ordering contract as [`SessionShared::send_final`]),
    /// then all frames are concatenated and written under one writer-lock
    /// acquisition — one syscall per batch per session instead of one per
    /// reply, which is where a coalesced batch's reply-side win comes
    /// from on a pipelined session.
    pub(crate) fn send_final_batch(&self, replies: &[(u32, Reply)], stats: &ServerStats) {
        for _ in replies {
            self.finish_request(stats);
        }
        let mut buf = Vec::new();
        for (request_id, reply) in replies {
            let frame = reply.to_frame().with_request(*request_id);
            stats.note_frame(frame.kind);
            encode_frame(&mut buf, &frame);
        }
        let mut w = self.writer.lock().expect("session writer lock");
        // A vanished client is noticed by the session reader; move on.
        let _ = w.write_all(&buf).and_then(|()| w.flush());
    }
}

/// The at-most-one inbound stream a session may have open.
enum SessionStream {
    /// A chunked `TRACE_PUT`; the corpus holds the parser/CRC state.
    TracePut { request_id: u32 },
    /// A chunked `DIAGNOSE`; the trace is parsed here, then queued whole.
    Diagnose { request_id: u32, spec: ModelSpec, parse: Box<DiagnoseStream> },
}

impl SessionStream {
    fn request_id(&self) -> u32 {
        match self {
            SessionStream::TracePut { request_id } => *request_id,
            SessionStream::Diagnose { request_id, .. } => *request_id,
        }
    }
}

/// Drive one connection from its first frame until the client closes, the
/// daemon drains, or the byte stream breaks. Replies are written by
/// whichever thread finishes a request — out of order is the point —
/// while this thread keeps reading.
fn run_session(mut conn: Conn, daemon: &Daemon) {
    let Daemon { cache, stats, shutdown, io_timeout, .. } = daemon;
    let _ = conn.set_write_timeout(Some(*io_timeout));
    let Ok(writer) = conn.try_clone() else { return };
    let Some(first) = next_frame(&mut conn, *io_timeout, shutdown) else { return };
    let hello = first.as_ref().ok().and_then(|f| Some((f.request_id, Window::asked_by(f)?)));
    let shared = Arc::new(SessionShared {
        writer: Mutex::new(writer),
        window: Window::new(hello.map_or(1, |(_, window)| window)),
    });
    // Counted before the ack goes out, so a client holding the ack never
    // reads a STATUS that misses its own session.
    stats.note_session_opened();
    let mut pending = match hello {
        Some((hello_id, window)) => {
            stats.note_frame(FrameKind::Hello);
            shared.send(hello_id, &Reply::HelloAck { window }, stats);
            None
        }
        None => Some(first),
    };
    let mut stream: Option<SessionStream> = None;

    while let Some(next) = pending.take().or_else(|| next_frame(&mut conn, *io_timeout, shutdown)) {
        let frame = match next {
            Ok(frame) => frame,
            Err(e) => {
                // The stream position is unknown (or the peer speaks
                // another version): answer once, then close.
                stats.bump_proto_errors();
                shared.send(0, &Reply::Error(format!("bad frame: {e}")), stats);
                conn.shutdown();
                break;
            }
        };
        let request_id = frame.request_id;
        let request = match Request::from_frame(&frame) {
            Ok(r) => r,
            Err(e) => {
                // Framing is intact — only this request is malformed.
                stats.bump_proto_errors();
                shared.send(request_id, &Reply::Error(format!("bad request: {e}")), stats);
                continue;
            }
        };
        stats.note_frame(frame.kind);
        match request {
            Request::Hello { .. } => {
                shared.send(request_id, &Reply::Error("session already open".into()), stats);
            }
            Request::Status => shared.send(request_id, &daemon.status_reply(), stats),
            Request::Shutdown => {
                // Draining before the BYE goes out, so a client holding the
                // BYE never finds the daemon still accepting.
                events().emit(Level::Info, "serve.shutdown", "shutdown requested; draining");
                daemon.begin_shutdown();
                shared.send(request_id, &Reply::Bye, stats);
                break;
            }
            Request::TracePutStart { key, workload } => {
                if stream.is_some() || !shared.begin_request(stats) {
                    // One inbound stream per session, and it needs a slot;
                    // the client retries.
                    shared.send(request_id, &Reply::Busy, stats);
                    continue;
                }
                let Some(corpus) = cache.corpus() else {
                    shared.send_final(
                        request_id,
                        &Reply::Error(
                            "no corpus store configured; start the daemon with --corpus".into(),
                        ),
                        stats,
                    );
                    continue;
                };
                let mut c = corpus.lock().expect("corpus lock");
                if c.streaming_key().is_some() {
                    // Another session owns the corpus stream right now.
                    drop(c);
                    shared.send_final(request_id, &Reply::Busy, stats);
                    continue;
                }
                let begun = c.stream_begin(&key, &workload);
                drop(c);
                match begun {
                    Ok(()) => {
                        stats.note_stream_opened();
                        stream = Some(SessionStream::TracePut { request_id });
                    }
                    Err(e) => {
                        let reply = Reply::Error(format!("trace put failed: {e}"));
                        shared.send_final(request_id, &reply, stats);
                    }
                }
            }
            Request::DiagnoseStart(spec) => {
                if stream.is_some() || !shared.begin_request(stats) {
                    shared.send(request_id, &Reply::Busy, stats);
                    continue;
                }
                stats.note_stream_opened();
                stream = Some(SessionStream::Diagnose {
                    request_id,
                    spec,
                    parse: Box::new(DiagnoseStream::new()),
                });
            }
            Request::StreamChunk(bytes) => {
                stats.note_stream_chunk(bytes.len());
                let Some(open) = stream.as_mut() else {
                    stats.bump_proto_errors();
                    let reply = Reply::Error("stream frame outside an open stream".into());
                    shared.send(request_id, &reply, stats);
                    continue;
                };
                let owner = open.request_id();
                let failed = match open {
                    SessionStream::TracePut { .. } => {
                        let corpus = cache.corpus().expect("stream opened with a corpus");
                        let mut c = corpus.lock().expect("corpus lock");
                        c.stream_chunk(&bytes).err().map(|e| format!("trace put failed: {e}"))
                    }
                    SessionStream::Diagnose { parse, .. } => parse.feed(&bytes).err(),
                };
                if let Some(why) = failed {
                    // The corpus/parser side already aborted; drop ours.
                    stream = None;
                    stats.note_stream_aborted();
                    shared.send_final(owner, &Reply::Error(why), stats);
                }
            }
            Request::StreamEnd { crc32, total_len } => {
                let Some(open) = stream.take() else {
                    stats.bump_proto_errors();
                    let reply = Reply::Error("stream frame outside an open stream".into());
                    shared.send(request_id, &reply, stats);
                    continue;
                };
                match open {
                    SessionStream::TracePut { request_id } => {
                        let corpus = cache.corpus().expect("stream opened with a corpus");
                        let finished =
                            corpus.lock().expect("corpus lock").stream_finish(crc32, total_len);
                        let reply = match finished {
                            Ok(info) => Reply::Stored(stored_summary(&info.meta.key, &info)),
                            Err(e) => {
                                stats.note_stream_aborted();
                                Reply::Error(format!("trace put failed: {e}"))
                            }
                        };
                        shared.send_final(request_id, &reply, stats);
                    }
                    SessionStream::Diagnose { request_id, spec, parse } => {
                        match parse.finish(crc32, total_len) {
                            Ok(trace) => daemon.enqueue(Job {
                                responder: Responder { session: shared.clone(), request_id },
                                work: Work::DiagnoseTrace(spec, Box::new(trace)),
                                accepted: Instant::now(),
                            }),
                            Err(why) => {
                                stats.note_stream_aborted();
                                shared.send_final(request_id, &Reply::Error(why), stats);
                            }
                        }
                    }
                }
            }
            req @ (Request::Train(_)
            | Request::Diagnose(..)
            | Request::TracePut { .. }
            | Request::TraceGet { .. }) => {
                if !shared.begin_request(stats) {
                    // Window exhausted: BUSY for this request only.
                    stats.bump_rejected();
                    shared.send(request_id, &Reply::Busy, stats);
                    continue;
                }
                daemon.enqueue(Job {
                    responder: Responder { session: shared.clone(), request_id },
                    work: Work::Request(req),
                    accepted: Instant::now(),
                });
            }
        }
    }

    // A stream still open here means the client died mid-upload: truncate
    // the half-written corpus entry so no partial segment survives.
    if let Some(open) = stream {
        stats.note_stream_aborted();
        if matches!(open, SessionStream::TracePut { .. }) {
            if let Some(corpus) = cache.corpus() {
                corpus.lock().expect("corpus lock").stream_abort();
            }
        }
        shared.finish_request(stats);
        events().emit(Level::Warn, "serve.stream", "session closed mid-stream; upload aborted");
    }
    stats.note_session_closed();
}

/// The `STORED` reply text — shared verbatim by the one-frame and the
/// streamed `TRACE_PUT` paths, so clients see one format.
pub(crate) fn stored_summary(key: &str, info: &act_store::EntryInfo) -> String {
    format!(
        "stored {} ({} records, {} -> {} bytes, {:.2}x)",
        key,
        info.records,
        info.raw_bytes,
        info.encoded_bytes,
        info.raw_bytes as f64 / info.encoded_bytes.max(1) as f64
    )
}

/// Incremental parser for a streamed `DIAGNOSE` upload: text-codec lines
/// arrive in arbitrary chunk splits, records accumulate in a
/// [`TraceBuilder`], and the CRC-32/length tallies are checked at the end
/// — the same state machine the corpus runs for streamed `TRACE_PUT`, but
/// materializing in memory since the trace is diagnosed, not stored.
struct DiagnoseStream {
    crc: Crc32,
    bytes_in: u64,
    lineno: usize,
    partial: Vec<u8>,
    header_seen: bool,
    builder: TraceBuilder,
}

/// Longest line a streamed upload may contain (matches the corpus cap).
const MAX_STREAM_LINE_BYTES: usize = 64 << 10;

impl DiagnoseStream {
    fn new() -> DiagnoseStream {
        DiagnoseStream {
            crc: Crc32::new(),
            bytes_in: 0,
            lineno: 0,
            partial: Vec::new(),
            header_seen: false,
            builder: TraceBuilder::new(),
        }
    }

    fn feed(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.crc.update(bytes);
        self.bytes_in += bytes.len() as u64;
        if self.bytes_in > MAX_STREAM_DIAGNOSE_BYTES {
            return Err(format!(
                "streamed diagnose exceeds the {MAX_STREAM_DIAGNOSE_BYTES}-byte cap"
            ));
        }
        let mut rest = bytes;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = rest.split_at(nl);
            rest = &tail[1..];
            let line = if self.partial.is_empty() {
                head.to_vec()
            } else {
                self.partial.extend_from_slice(head);
                std::mem::take(&mut self.partial)
            };
            self.line(&line)?;
        }
        self.partial.extend_from_slice(rest);
        if self.partial.len() > MAX_STREAM_LINE_BYTES {
            return Err(format!(
                "streamed line exceeds {MAX_STREAM_LINE_BYTES} bytes without a newline"
            ));
        }
        Ok(())
    }

    fn line(&mut self, line: &[u8]) -> Result<(), String> {
        self.lineno += 1;
        let text = std::str::from_utf8(line)
            .map_err(|_| format!("stream line {} is not UTF-8", self.lineno))?;
        let text = text.strip_suffix('\r').unwrap_or(text);
        if !self.header_seen {
            let mut hp = text.split_whitespace();
            if hp.next() != Some("acttrace") || hp.next() != Some("v1") {
                return Err("stream header: bad header".into());
            }
            let code_len: u64 = hp
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| "stream header: bad code_len".to_string())?;
            if code_len > MAX_CODE_LEN {
                return Err(format!("stream header: code_len {code_len} exceeds the cap"));
            }
            let Ok(()) = self.builder.begin(code_len as usize);
            self.header_seen = true;
            return Ok(());
        }
        if text.is_empty() {
            return Ok(());
        }
        let rec =
            parse_record_line(text, self.lineno).map_err(|e| format!("bad trace payload: {e}"))?;
        let Ok(()) = self.builder.record(&rec);
        Ok(())
    }

    fn finish(mut self, crc32: u32, total_len: u64) -> Result<Trace, String> {
        if self.bytes_in != total_len {
            return Err(format!(
                "stream length mismatch: received {} bytes, client sealed {total_len}",
                self.bytes_in
            ));
        }
        let got = self.crc.finish();
        if got != crc32 {
            return Err(format!(
                "stream crc mismatch: received {got:#010x}, client sealed {crc32:#010x}"
            ));
        }
        if !self.partial.is_empty() {
            let line = std::mem::take(&mut self.partial);
            self.line(&line)?;
        }
        if !self.header_seen {
            return Err("stream ended before the header line".into());
        }
        Ok(self.builder.into_trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_render_has_the_required_counters() {
        let stats = ServerStats::default();
        stats.bump_accepted();
        stats.bump_served();
        stats.bump_rejected();
        stats.bump_crashed();
        stats.note_cache(CacheOutcome::Memory);
        stats.note_cache(CacheOutcome::Trained);
        stats.record_service(Duration::from_millis(4));
        let text = render_status(&stats.metrics_snapshot(Duration::from_secs(1), 3, 2));
        for needle in [
            "uptime_ms 1000",
            "requests_served 1",
            "requests_rejected_busy 1",
            "requests_crashed 1",
            "cache_hits 1",
            "cache_misses 1",
            "queue_depth 3",
            "models_resident 2",
            "service_ms_p50",
            "service_ms_p99",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn metrics_snapshot_carries_counters_gauges_and_latency() {
        let stats = ServerStats::default();
        stats.note_frame(FrameKind::Status);
        stats.note_frame(FrameKind::Train);
        stats.note_frame(FrameKind::Busy);
        stats.bump_served();
        stats.note_cache(CacheOutcome::Disk);
        stats.record_service(Duration::from_micros(180));
        let snap = stats.metrics_snapshot(Duration::from_secs(2), 5, 1);
        assert_eq!(snap.counter("req_status"), Some(1));
        assert_eq!(snap.counter("req_train"), Some(1));
        assert_eq!(snap.counter("reply_busy"), Some(1));
        assert_eq!(snap.counter("reply_status"), Some(0));
        for (_, name) in FrameKind::COUNTERS {
            assert!(snap.counter(name).is_some(), "no `{name}` counter");
        }
        assert_eq!(snap.counter("requests_served"), Some(1));
        assert_eq!(snap.counter("cache_disk_loads"), Some(1));
        assert_eq!(snap.gauge("uptime_ms"), Some(2000));
        assert_eq!(snap.gauge("queue_depth"), Some(5));
        assert_eq!(snap.gauge("models_resident"), Some(1));
        let service = snap.histogram("service_us").expect("latency histogram");
        assert_eq!(service.count(), 1);
        // Identical after a wire round-trip — what a STATUS reply carries.
        let bytes = snap.to_bytes();
        assert_eq!(act_obs::MetricsSnapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn start_rejects_degenerate_configs() {
        let bad = |f: fn(&mut ServeConfig)| {
            let mut cfg = ServeConfig::default();
            f(&mut cfg);
            Server::start(cfg).err().expect("config must be rejected")
        };
        assert!(bad(|c| c.workers = 0).to_string().contains("workers"));
        assert!(bad(|c| c.queue_depth = 0).to_string().contains("queue depth"));
        assert!(bad(|c| c.cache_capacity = 0).to_string().contains("cache"));
        assert!(bad(|c| {
            c.tcp_addr = None;
            c.unix_path = None;
        })
        .to_string()
        .contains("at least one"));
    }
}

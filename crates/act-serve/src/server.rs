//! The daemon: listeners, acceptor threads, one session thread per
//! connection, the bounded job queue, and the counters block behind
//! `STATUS`.
//!
//! Life of a request: an acceptor thread accepts the connection and hands
//! it to a session thread of its own — one that an ended connection left
//! parked, or a new one when none is (see [`crate::conn::accept_loop`]);
//! the acceptor never reads. The session runs the loop both daemons share
//! ([`crate::conn::run_session`]):
//! its first frame decides its window, `STATUS` and `SHUTDOWN` are answered
//! there — always serviceable, even with a full queue — and every other
//! request claims a window slot or gets `BUSY`. The daemon is the loop's
//! [`SessionHost`]: it wraps a claimed request into a
//! [`Job`](crate::pool::Job) that it `try_push`es onto the bounded queue,
//! and parses a streamed `DIAGNOSE` or feeds a streamed `TRACE_PUT` to the
//! corpus as its chunks arrive. A full queue or a full window yields an
//! immediate `BUSY` reply: the request was *refused*, never
//! accepted-then-dropped. Workers drain the queue (see [`crate::pool`])
//! and write replies onto the session; `SHUTDOWN` (or
//! [`Server::shutdown`], which the CLI wires to SIGINT) wakes the
//! acceptors out of `accept` and stops them, ends the parked session
//! threads, closes the queue, and lets the workers finish every accepted
//! job before [`Server::join`] returns.

use crate::cache::{cache_hits_misses, CacheOutcome, ModelCache};
use crate::client::Endpoint;
use crate::conn::{accept_loop, run_session, wake, Listener, SessionThreads};
use crate::conn::{SessionHost, SessionShared, SessionStats};
use crate::pool::{no_corpus, spawn_workers, Job, Responder, Work};
use crate::proto::{ModelSpec, Reply, Request};
use act_fleet::BoundedQueue;
use act_obs::{
    events, latency_bounds_us, Counter, Gauge, Histogram, Level, MetricsSnapshot, Registry,
};
use act_store::UploadCheck;
use act_trace::io::{CopyError, ParseTraceError, TextParser, TraceBuilder};
use act_trace::Trace;
use std::convert::Infallible;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
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
    /// Corpus store directory (`None` = no `TRACE_PUT`/`TRACE_GET`, and
    /// trained models live in memory only; the directory is created and
    /// initialized on first use).
    pub corpus_dir: Option<PathBuf>,
    /// Models kept resident in the LRU cache.
    pub cache_capacity: usize,
    /// Per-request deadline, measured from acceptance; a job popped after
    /// its deadline is answered with an error instead of being processed.
    pub deadline: Duration,
    /// Socket read/write timeout for each connection.
    pub io_timeout: Duration,
    /// Most diagnose requests coalesced into one micro-batch. `1`
    /// disables coalescing (every request a batch of one); `0` is
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
/// one [`MetricsSnapshot`] in `STATUS` replies. Per-server because the
/// tests boot several daemons in one process and their counters must not
/// mix. The counters every session keeps — frames read and written per
/// [`crate::FrameKind`] among them — are a [`SessionStats`] in the same
/// registry; service time is a fixed-bucket latency histogram.
pub struct ServerStats {
    /// The registry every counter lives in, so sibling subsystems (the
    /// corpus store's metrics) can join the same `STATUS` snapshot.
    pub(crate) registry: Registry,
    /// What the session loop counts; `requests_in_flight` follows the
    /// window slots its sessions hold.
    session: Arc<SessionStats>,
    pub(crate) accepted: Counter,
    pub(crate) served: Counter,
    pub(crate) errored: Counter,
    /// Queue-full refusals, and the session loop's `BUSY`s.
    pub(crate) rejected_busy: Counter,
    pub(crate) crashed: Counter,
    pub(crate) deadline_expired: Counter,
    /// One counter per [`CacheOutcome`], indexed by `outcome as usize`.
    cache: [Counter; 3],
    coalesced_batches: Counter,
    coalesce_hits: Counter,
    coalesce_misses: Counter,
    pub(crate) streams_opened: Counter,
    pub(crate) streams_aborted: Counter,
    uptime_ms: Gauge,
    queue_depth: Gauge,
    models_resident: Gauge,
    pub(crate) service_us: Histogram,
    pub(crate) enqueue_depth: Histogram,
    batch_size: Histogram,
}

impl Default for ServerStats {
    /// Fresh stats over a fresh registry (all zeros).
    fn default() -> Self {
        let registry = Registry::new();
        ServerStats {
            session: Arc::new(SessionStats::new(
                &registry,
                registry.gauge("requests_in_flight"),
                registry.counter("stream_chunk_bytes"),
            )),
            accepted: registry.counter("requests_accepted"),
            served: registry.counter("requests_served"),
            errored: registry.counter("requests_errored"),
            rejected_busy: registry.counter("requests_rejected_busy"),
            crashed: registry.counter("requests_crashed"),
            deadline_expired: registry.counter("requests_deadline_expired"),
            cache: CacheOutcome::ALL.map(|outcome| registry.counter(outcome.counter())),
            coalesced_batches: registry.counter("coalesced_batches"),
            coalesce_hits: registry.counter("coalesce_hits"),
            coalesce_misses: registry.counter("coalesce_misses"),
            streams_opened: registry.counter("streams_opened"),
            streams_aborted: registry.counter("streams_aborted"),
            uptime_ms: registry.gauge("uptime_ms"),
            queue_depth: registry.gauge("queue_depth"),
            models_resident: registry.gauge("models_resident"),
            service_us: registry.histogram("service_us", &latency_bounds_us()),
            enqueue_depth: registry
                .histogram("enqueue_depth", &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256]),
            batch_size: registry.histogram("batch_size", &[1, 2, 4, 8, 16, 32]),
            registry,
        }
    }
}

impl ServerStats {
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
        self.cache[outcome as usize].inc();
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
/// their names: `cache_hits` is memory + store hits, `cache_misses` is
/// models trained from scratch (see [`cache_hits_misses`]).
fn render_status(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let (cache_hits, cache_misses) = cache_hits_misses(snap);
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
        ("cache_hits", cache_hits),
        ("cache_misses", cache_misses),
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

    /// Stop accepting and close the queue; workers drain what it holds.
    /// Only the first call wakes the acceptors.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.queue.close();
            self.wake.iter().for_each(wake);
        }
    }

    /// Queue `work` for the request `request_id` of `session`, or answer
    /// it `BUSY` right away when the queue is full.
    fn enqueue(&self, session: &Arc<SessionShared>, request_id: u32, work: Work) {
        let responder = Responder { session: session.clone(), request_id };
        let depth = self.queue.len();
        match self.queue.try_push(Job { responder, work, accepted: Instant::now() }) {
            Ok(()) => {
                self.stats.accepted.inc();
                self.stats.enqueue_depth.observe(depth as u64);
            }
            Err(job) => {
                self.stats.rejected_busy.inc();
                events().emit(Level::Debug, "serve.busy", "queue full: request rejected");
                job.responder.respond(&Reply::Busy);
            }
        }
    }

    /// The corpus a `TRACE_PUT` upload writes to, locked.
    fn upload_corpus(&self) -> MutexGuard<'_, act_store::Corpus> {
        self.cache.corpus().expect("upload opened with a corpus").lock().expect("corpus lock")
    }
}

/// The at-most-one upload a session may have open.
enum Upload {
    /// A chunked `TRACE_PUT`; the corpus holds the parser/CRC state.
    TracePut,
    /// A chunked `DIAGNOSE`; the trace is parsed here, then queued whole.
    Diagnose { spec: ModelSpec, parse: Box<DiagnoseStream> },
}

impl SessionHost for Daemon {
    type Upload = Upload;

    fn session_stats(&self) -> &Arc<SessionStats> {
        &self.stats.session
    }

    fn draining(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn io_timeout(&self) -> Duration {
        self.io_timeout
    }

    /// One snapshot, and the text rendered from it.
    fn status(&self) -> Reply {
        let snap = self.snapshot();
        Reply::StatusMetrics(render_status(&snap), snap)
    }

    fn shutdown(&self) {
        events().emit(Level::Info, "serve.shutdown", "shutdown requested; draining");
        self.begin_shutdown();
    }

    fn route(&self, session: &Arc<SessionShared>, request_id: u32, request: Request) {
        self.enqueue(session, request_id, Work::Request(request));
    }

    fn open(&self, opener: Request) -> Result<Upload, Reply> {
        let upload = match opener {
            Request::DiagnoseStart(spec) => Upload::Diagnose { spec, parse: Box::default() },
            Request::TracePutStart { key, workload } => {
                let Some(corpus) = self.cache.corpus() else { return Err(no_corpus()) };
                let mut c = corpus.lock().expect("corpus lock");
                if c.streaming_key().is_some() {
                    // Another session owns the corpus stream right now.
                    return Err(Reply::Busy);
                }
                c.stream_begin(&key, &workload)
                    .map_err(|e| Reply::Error(format!("trace put failed: {e}")))?;
                Upload::TracePut
            }
            _ => unreachable!("not a stream opener"),
        };
        self.stats.streams_opened.inc();
        Ok(upload)
    }

    fn chunk(&self, upload: &mut Upload, bytes: Vec<u8>) -> Result<(), Reply> {
        let fed = match upload {
            Upload::TracePut => self
                .upload_corpus()
                .stream_chunk(&bytes)
                .map_err(|e| format!("trace put failed: {e}")),
            Upload::Diagnose { parse, .. } => parse.feed(&bytes),
        };
        // A failed feed has already aborted the corpus/parser side.
        fed.map_err(|why| {
            self.stats.streams_aborted.inc();
            Reply::Error(why)
        })
    }

    fn end(
        self: Arc<Self>,
        session: &Arc<SessionShared>,
        request_id: u32,
        upload: Upload,
        crc32: u32,
        total_len: u64,
    ) {
        let failed = match upload {
            Upload::TracePut => match self.upload_corpus().stream_finish(crc32, total_len) {
                Ok(info) => {
                    let reply = Reply::Stored(stored_summary(&info.meta.key, &info));
                    return session.send_final(request_id, &reply);
                }
                Err(e) => format!("trace put failed: {e}"),
            },
            Upload::Diagnose { spec, parse } => match parse.finish(crc32, total_len) {
                Ok(trace) => {
                    let work = Work::DiagnoseTrace(spec, Box::new(trace));
                    return self.enqueue(session, request_id, work);
                }
                Err(why) => why,
            },
        };
        self.stats.streams_aborted.inc();
        session.send_final(request_id, &Reply::Error(failed));
    }

    /// The client died mid-upload: truncate the half-written corpus entry
    /// so no partial segment survives.
    fn abandon(&self, upload: Upload) {
        self.stats.streams_aborted.inc();
        if matches!(upload, Upload::TracePut) {
            self.upload_corpus().stream_abort();
        }
        events().emit(Level::Warn, "serve.stream", "session closed mid-stream; upload aborted");
    }
}

/// A running daemon. Dropping the handle does *not* stop it; call
/// [`Server::shutdown`] (or send a `SHUTDOWN` frame) and then
/// [`Server::join`].
pub struct Server {
    daemon: Arc<Daemon>,
    threads: Vec<JoinHandle<()>>,
    sessions: Arc<SessionThreads>,
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
        let corpus = match &cfg.corpus_dir {
            Some(dir) => {
                let corpus = act_store::Corpus::open_or_init(dir).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corpus at {}: {e}", dir.display()),
                    )
                })?;
                Some(Arc::new(Mutex::new(corpus.with_registry(&stats.registry))))
            }
            None => None,
        };
        let cache = ModelCache::new(cfg.cache_capacity, corpus);

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
        let mut server = Server {
            sessions: Arc::new(SessionThreads::new(&daemon.stats.registry)),
            daemon,
            threads: Vec::new(),
            tcp_addr,
            unix_path: cfg.unix_path.clone(),
        };
        server.threads = spawn_workers(
            cfg.workers,
            server.daemon.queue.clone(),
            server.daemon.cache.clone(),
            server.daemon.stats.clone(),
            cfg.deadline,
            cfg.batch_size,
        );
        for (name, listener) in listeners {
            let (daemon, sessions) = (server.daemon.clone(), server.sessions.clone());
            let spawned = std::thread::Builder::new().name(name.to_string()).spawn(move || {
                let session = {
                    let daemon = daemon.clone();
                    move |conn| run_session(conn, &daemon)
                };
                accept_loop(&listener, &daemon.shutdown, &sessions, "act-serve-session", session);
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
    /// answered, every session thread ended, parked ones included — so a
    /// `SHUTDOWN`'s `BYE` is out). Removes the Unix socket file on the way
    /// out.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        self.sessions.wait();
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
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

/// A streamed `DIAGNOSE` upload in progress: the text parser fills a
/// [`TraceBuilder`], since the trace is diagnosed, not stored, and the
/// upload check is verified at `STREAM_END`.
#[derive(Default)]
struct DiagnoseStream {
    check: UploadCheck,
    parser: TextParser,
    builder: TraceBuilder,
}

impl DiagnoseStream {
    fn feed(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.check.update(bytes);
        if self.check.total_len() > MAX_STREAM_DIAGNOSE_BYTES {
            return Err(format!(
                "streamed diagnose exceeds the {MAX_STREAM_DIAGNOSE_BYTES}-byte cap"
            ));
        }
        self.parser.feed(bytes, &mut self.builder).map_err(bad_payload)
    }

    fn finish(mut self, crc32: u32, total_len: u64) -> Result<Trace, String> {
        self.check.verify(crc32, total_len)?;
        self.parser.finish(&mut self.builder).map_err(bad_payload)?;
        Ok(self.builder.into_trace())
    }
}

fn bad_payload(e: CopyError<Infallible>) -> String {
    format!("bad trace payload: {}", ParseTraceError::from(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::FrameKind;

    impl ServerStats {
        /// Count one frame by its kind, as a session does.
        fn note_frame(&self, kind: FrameKind) {
            self.session.note_frame(kind);
        }
    }

    #[test]
    fn status_render_has_the_required_counters() {
        let stats = ServerStats::default();
        stats.accepted.inc();
        stats.served.inc();
        stats.rejected_busy.inc();
        stats.crashed.inc();
        stats.note_cache(CacheOutcome::Memory);
        stats.note_cache(CacheOutcome::Trained);
        stats.service_us.observe(4_000);
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
        stats.served.inc();
        stats.note_cache(CacheOutcome::Store);
        stats.service_us.observe(180);
        let snap = stats.metrics_snapshot(Duration::from_secs(2), 5, 1);
        assert_eq!(snap.counter("req_status"), Some(1));
        assert_eq!(snap.counter("req_train"), Some(1));
        assert_eq!(snap.counter("reply_busy"), Some(1));
        assert_eq!(snap.counter("reply_status"), Some(0));
        for (_, name) in FrameKind::COUNTERS {
            assert!(snap.counter(name).is_some(), "no `{name}` counter");
        }
        assert_eq!(snap.counter("requests_served"), Some(1));
        assert_eq!(snap.counter("cache_store_loads"), Some(1));
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

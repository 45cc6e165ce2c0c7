//! End-to-end daemon tests: boot an in-process server on an ephemeral
//! loopback port and drive it with real client connections.
//!
//! Covers the acceptance criteria for the service:
//! - a crashing request (`__panic`) gets an `ERROR` reply while the daemon
//!   keeps serving others;
//! - a repeated request is answered from the model cache (the `STATUS`
//!   cache-hit counter increases);
//! - a model trained from simulator runs persists in the corpus store, so
//!   a restarted daemon loads it instead of retraining;
//! - a full queue yields `BUSY` immediately, never accepted-then-dropped;
//! - a client that connects and stays silent holds up nobody else;
//! - a frame of any protocol version but 4 gets one `ERROR`, then EOF;
//! - `join` returns only after every session thread has ended, and within
//!   a second of a drain with session threads parked;
//! - one-shot requests reuse parked session threads instead of spawning
//!   one per connection;
//! - a start that fails on its second listener leaves the first unbound.

use act_serve::client::{ClientConfig, ClientError, Endpoint};
use act_serve::conn::Conn;
use act_serve::proto::{read_frame, write_frame, ModelSpec, Reply, Request};
use act_serve::server::{ServeConfig, Server};
use act_trace::collector::TraceCollector;
use act_trace::io::trace_to_bytes;
use act_workloads::registry;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Boot a daemon on 127.0.0.1:0 and return it with its client endpoint.
fn boot(workers: usize, queue_depth: usize) -> (Server, Endpoint) {
    let cfg = ServeConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        workers,
        queue_depth,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("daemon boots");
    let endpoint = Endpoint::Tcp(server.tcp_addr().expect("tcp bound").to_string());
    (server, endpoint)
}

/// Boot a one-worker daemon on 127.0.0.1:0 backed by the corpus at `dir`.
fn boot_on_corpus(dir: &Path) -> (Server, Endpoint) {
    let cfg = ServeConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        workers: 1,
        queue_depth: 8,
        corpus_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("daemon boots with corpus");
    let endpoint = Endpoint::Tcp(server.tcp_addr().expect("tcp bound").to_string());
    (server, endpoint)
}

/// A small spec that trains in well under a second.
fn tiny_spec(workload: &str) -> ModelSpec {
    let mut spec = ModelSpec::new(workload);
    spec.traces = 2;
    spec.seq_len = 2;
    spec.hidden = 4;
    spec.max_epochs = 30;
    spec
}

/// Serialize a failing `seq` trace the way a production client would ship
/// one (run the triggered configuration until it actually fails).
fn failing_trace_bytes() -> Vec<u8> {
    let w = registry::by_name("seq").expect("seq workload");
    let norm = w.norm_code_len().unwrap_or_else(|| w.build(&w.default_params()).program.code_len());
    for seed in 0..64 {
        let built = w.build(&w.default_params().triggered().with_seed(seed));
        let mut collector = TraceCollector::new(norm);
        let run_cfg =
            act_sim::config::MachineConfig { seed, jitter_ppm: 10_000, ..Default::default() };
        let mut machine = act_sim::machine::Machine::new(&built.program, run_cfg);
        let outcome = machine.run_observed(&mut collector);
        if built.is_failure(&outcome) {
            return trace_to_bytes(&collector.into_trace());
        }
    }
    panic!("no failing seq run in 64 seeds");
}

/// Pull one `key value` counter out of a `STATUS` reply.
fn counter(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key).map(|rest| rest.trim().parse().expect("counter value")))
        .unwrap_or_else(|| panic!("no `{key}` in status:\n{status}"))
}

/// One request on a fresh connection: one frame each way, under `cfg`.
fn request_under(
    endpoint: &Endpoint,
    request: &Request,
    cfg: &ClientConfig,
) -> Result<Reply, ClientError> {
    let mut conn = Conn::connect(endpoint, cfg)?;
    write_frame(&mut conn, &request.to_frame())?;
    Ok(Reply::from_frame(&read_frame(&mut conn)?)?)
}

/// [`request_under`] with the default client timeouts.
fn request(endpoint: &Endpoint, request: &Request) -> Result<Reply, ClientError> {
    request_under(endpoint, request, &ClientConfig::default())
}

/// The session threads the daemon at `endpoint` has spawned so far, from
/// its `STATUS` snapshot.
fn threads_started(endpoint: &Endpoint) -> u64 {
    match request(endpoint, &Request::Status).expect("status reply") {
        Reply::StatusMetrics(_, snap) => {
            snap.counter("session_threads_started").expect("session_threads_started counter")
        }
        other => panic!("unexpected status reply: {other:?}"),
    }
}

fn status_of(endpoint: &Endpoint) -> String {
    match request(endpoint, &Request::Status).expect("status reply") {
        // The text block is the part these tests grep.
        Reply::StatusMetrics(text, _) => text,
        other => panic!("unexpected status reply: {other:?}"),
    }
}

#[test]
fn concurrent_clients_crash_isolation_and_cache_hits() {
    let (server, endpoint) = boot(2, 16);
    let spec = tiny_spec("seq");
    let trace = failing_trace_bytes();

    // Warm the model once so the concurrent phase exercises cache hits.
    match request(&endpoint, &Request::Train(spec.clone())).expect("train reply") {
        Reply::Trained(summary) => {
            assert!(summary.contains("trained seq"), "summary: {summary}")
        }
        other => panic!("unexpected train reply: {other:?}"),
    }

    // Four concurrent clients: three real diagnoses plus one crasher.
    let mut clients = Vec::new();
    for _ in 0..3 {
        let endpoint = endpoint.clone();
        let req = Request::Diagnose(spec.clone(), trace.clone());
        clients.push(std::thread::spawn(move || request(&endpoint, &req).expect("reply")));
    }
    let crasher = {
        let endpoint = endpoint.clone();
        let req = Request::Diagnose(ModelSpec::new("__panic"), trace.clone());
        std::thread::spawn(move || request(&endpoint, &req).expect("reply"))
    };

    for client in clients {
        match client.join().expect("client thread") {
            Reply::Diagnosis(text) => {
                assert!(text.starts_with("diagnosis workload=seq"), "text: {text}");
                assert!(text.contains("model=cache-hit"), "expected a cache hit: {text}");
            }
            other => panic!("unexpected diagnose reply: {other:?}"),
        }
    }
    match crasher.join().expect("crasher thread") {
        Reply::Error(msg) => {
            assert!(msg.contains("request crashed"), "msg: {msg}");
            assert!(msg.contains("__panic"), "msg: {msg}");
        }
        other => panic!("crashing request must yield ERROR, got: {other:?}"),
    }

    // The daemon survived the crash and still serves.
    match request(&endpoint, &Request::Diagnose(spec.clone(), trace)).expect("post-crash reply") {
        Reply::Diagnosis(text) => assert!(text.contains("model=cache-hit"), "text: {text}"),
        other => panic!("unexpected post-crash reply: {other:?}"),
    }

    let status = status_of(&endpoint);
    assert!(counter(&status, "cache_hits") >= 4, "status:\n{status}");
    assert_eq!(counter(&status, "cache_misses"), 1, "status:\n{status}");
    assert_eq!(counter(&status, "requests_crashed"), 1, "status:\n{status}");
    assert!(counter(&status, "requests_served") >= 5, "status:\n{status}");

    match request(&endpoint, &Request::Shutdown).expect("shutdown reply") {
        Reply::Bye => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    server.join();
}

#[test]
fn full_queue_answers_busy_instead_of_accepting() {
    // One worker, queue depth one: a 600ms sleeper on the worker plus one
    // queued job saturate the daemon.
    let (server, endpoint) = boot(1, 1);
    let sleeper = |ms: u64| {
        let mut spec = ModelSpec::new("__sleep");
        spec.seed = ms;
        Request::Train(spec)
    };

    let occupant = {
        let endpoint = endpoint.clone();
        let req = sleeper(600);
        std::thread::spawn(move || request(&endpoint, &req).expect("reply"))
    };
    std::thread::sleep(Duration::from_millis(150)); // worker now busy
    let queued = {
        let endpoint = endpoint.clone();
        let req = sleeper(10);
        std::thread::spawn(move || request(&endpoint, &req).expect("reply"))
    };
    std::thread::sleep(Duration::from_millis(150)); // queue now full

    // STATUS still answers while saturated (the session answers it) ...
    let status = status_of(&endpoint);
    assert_eq!(counter(&status, "queue_depth"), 1, "status:\n{status}");

    // ... but new work is refused outright.
    match request(&endpoint, &sleeper(1)).expect("busy reply") {
        Reply::Busy => {}
        other => panic!("expected BUSY from a full queue, got: {other:?}"),
    }

    assert!(matches!(occupant.join().expect("occupant"), Reply::Trained(_)));
    assert!(matches!(queued.join().expect("queued"), Reply::Trained(_)));

    let status = status_of(&endpoint);
    assert_eq!(counter(&status, "requests_rejected_busy"), 1, "status:\n{status}");
    assert_eq!(counter(&status, "requests_served"), 2, "status:\n{status}");

    assert!(matches!(request(&endpoint, &Request::Shutdown).expect("bye"), Reply::Bye));
    server.join();
}

#[test]
fn status_text_is_rendered_from_the_snapshot_it_ships_with() {
    let (server, endpoint) = boot(1, 4);
    let mut spec = ModelSpec::new("__sleep");
    spec.seed = 1;
    assert!(matches!(request(&endpoint, &Request::Train(spec)).expect("train"), Reply::Trained(_)));
    match request(&endpoint, &Request::Status).expect("status reply") {
        Reply::StatusMetrics(text, snap) => {
            assert!(snap.counter("req_status").expect("req_status counter") >= 1);
            assert!(snap.histogram("service_us").is_some(), "latency histogram present");
            for key in ["requests_served", "requests_accepted", "coalesce_misses"] {
                assert_eq!(snap.counter(key), Some(counter(&text, key)), "{key} disagrees");
            }
            let uptime = snap.gauge("uptime_ms").expect("uptime gauge") as u64;
            assert_eq!(counter(&text, "uptime_ms"), uptime, "text and snapshot are one instant");
        }
        other => panic!("STATUS must get StatusMetrics, got {other:?}"),
    }
    assert!(matches!(request(&endpoint, &Request::Shutdown).expect("bye"), Reply::Bye));
    server.join();
}

/// A STATUS frame as a client of protocol `version` would lay it out:
/// versions 1–3 had no request id, so their header is 10 bytes; any later
/// version is assumed to keep v4's 14-byte header.
fn status_frame_at(version: u8) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, &Request::Status.to_frame().with_request(7)).expect("encode");
    wire[4] = version;
    if version < 4 {
        wire.truncate(10);
    }
    wire
}

/// Send `wire` on a fresh connection to `addr` and expect exactly one
/// `ERROR` reply naming the version, then EOF.
fn expect_one_error_then_eof(addr: &str, wire: &[u8], version: u8) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    stream.write_all(wire).expect("send");
    match Reply::from_frame(read_frame(&mut stream).expect("one reply frame")) {
        Ok(Reply::Error(msg)) => {
            assert!(msg.contains(&format!("protocol version {version}")), "v{version}: {msg}")
        }
        other => panic!("v{version} frame must get ERROR, got {other:?}"),
    }
    let mut rest = [0u8; 1];
    assert_eq!(stream.read(&mut rest).expect("clean close"), 0, "v{version}: EOF after the ERROR");
}

#[test]
fn frames_of_other_versions_get_one_error_then_eof() {
    let (server, endpoint) = boot(1, 4);
    let Endpoint::Tcp(addr) = &endpoint else { unreachable!("boot binds tcp") };
    for version in [1u8, 2, 3, 5] {
        expect_one_error_then_eof(addr, &status_frame_at(version), version);
    }
    let status = status_of(&endpoint);
    assert_eq!(counter(&status, "protocol_errors"), 4, "status:\n{status}");
    assert!(matches!(request(&endpoint, &Request::Shutdown).expect("bye"), Reply::Bye));
    server.join();
}

#[test]
fn a_silent_client_does_not_stall_other_clients() {
    let (server, endpoint) = boot(1, 4);
    let Endpoint::Tcp(addr) = &endpoint else { unreachable!("boot binds tcp") };
    // Connects and never sends a byte, for longer than the client below
    // is willing to wait. The listener accepts in arrival order, so this
    // connection is ahead of the client's.
    let silent = TcpStream::connect(addr).expect("connect");
    let cfg = ClientConfig {
        connect_timeout: Some(Duration::from_secs(2)),
        io_timeout: Some(Duration::from_secs(2)),
        retry: None,
    };
    match request_under(&endpoint, &Request::Status, &cfg) {
        Ok(Reply::StatusMetrics(text, _)) => assert!(text.contains("act-serve status")),
        other => panic!("STATUS behind a silent client must succeed, got {other:?}"),
    }
    drop(silent);
    assert!(matches!(request(&endpoint, &Request::Shutdown).expect("bye"), Reply::Bye));
    server.join();
}

/// Serialize one *correct* `seq` run (the kind a production client ships
/// into the corpus with `TRACE_PUT`).
fn correct_trace_bytes(base_seed: u64) -> Vec<u8> {
    let w = registry::by_name("seq").expect("seq workload");
    let norm = w.norm_code_len().unwrap_or_else(|| w.build(&w.default_params()).program.code_len());
    for seed in base_seed..base_seed + 64 {
        let built = w.build(&w.default_params().with_seed(seed));
        let mut collector = TraceCollector::new(norm);
        let run_cfg =
            act_sim::config::MachineConfig { seed, jitter_ppm: 10_000, ..Default::default() };
        let mut machine = act_sim::machine::Machine::new(&built.program, run_cfg);
        let outcome = machine.run_observed(&mut collector);
        if built.is_correct(&outcome) {
            return trace_to_bytes(&collector.into_trace());
        }
    }
    panic!("no correct seq run in 64 seeds");
}

#[test]
fn corpus_round_trips_traces_trains_from_store_and_persists_models() {
    let dir = std::env::temp_dir().join(format!("act-serve-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (server, endpoint) = boot_on_corpus(&dir);

    // Ship two correct-run traces into the store.
    let t0 = correct_trace_bytes(0);
    let t1 = correct_trace_bytes(100);
    for (key, bytes) in [("seq-clean-0", &t0), ("seq-clean-1", &t1)] {
        let req = Request::TracePut {
            key: key.to_string(),
            workload: "seq".to_string(),
            trace: bytes.clone(),
        };
        match request(&endpoint, &req).expect("put reply") {
            Reply::Stored(summary) => assert!(summary.contains(key), "summary: {summary}"),
            other => panic!("unexpected put reply: {other:?}"),
        }
    }

    // Round trip: TRACE_GET hands back byte-identical text.
    match request(&endpoint, &Request::TraceGet { key: "seq-clean-0".into() }).expect("get") {
        Reply::TraceData(bytes) => assert_eq!(bytes, t0, "trace round trip must be lossless"),
        other => panic!("unexpected get reply: {other:?}"),
    }
    match request(&endpoint, &Request::TraceGet { key: "no-such-key".into() }).expect("miss") {
        Reply::Error(msg) => assert!(msg.contains("trace get failed"), "msg: {msg}"),
        other => panic!("missing key must yield ERROR, got: {other:?}"),
    }

    // A hostile payload is rejected with ERROR, not stored.
    let bad = Request::TracePut {
        key: "bad".into(),
        workload: "seq".into(),
        trace: b"not a trace".to_vec(),
    };
    match request(&endpoint, &bad).expect("bad put reply") {
        Reply::Error(msg) => assert!(msg.contains("trace put failed"), "msg: {msg}"),
        other => panic!("hostile payload must yield ERROR, got: {other:?}"),
    }

    // TRAIN now prefers the two ingested traces over simulator runs.
    let spec = tiny_spec("seq");
    match request(&endpoint, &Request::Train(spec.clone())).expect("train reply") {
        Reply::Trained(summary) => {
            assert!(summary.contains("from corpus"), "summary: {summary}")
        }
        other => panic!("unexpected train reply: {other:?}"),
    }

    let status = status_of(&endpoint);
    assert_eq!(counter(&status, "requests_served"), 4, "status:\n{status}");
    assert_eq!(counter(&status, "requests_errored"), 2, "status:\n{status}");
    assert!(matches!(request(&endpoint, &Request::Shutdown).expect("bye"), Reply::Bye));
    server.join();

    // Restart on the same corpus: the model comes back from the store
    // (no retraining) and the traces survived.
    let (server, endpoint) = boot_on_corpus(&dir);
    match request(&endpoint, &Request::Train(spec)).expect("train reply") {
        Reply::Trained(summary) => {
            assert!(summary.contains("loaded from corpus store"), "summary: {summary}");
            assert!(summary.contains("cache-hit:store"), "summary: {summary}");
        }
        other => panic!("unexpected train reply: {other:?}"),
    }
    match request(&endpoint, &Request::TraceGet { key: "seq-clean-1".into() }).expect("get") {
        Reply::TraceData(bytes) => assert_eq!(bytes, t1, "trace survives a restart"),
        other => panic!("unexpected get reply: {other:?}"),
    }
    let status = status_of(&endpoint);
    assert!(counter(&status, "cache_hits") >= 1, "store hit counts as a hit:\n{status}");
    assert_eq!(counter(&status, "cache_misses"), 0, "status:\n{status}");
    assert!(matches!(request(&endpoint, &Request::Shutdown).expect("bye"), Reply::Bye));
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_simulator_trained_model_loads_from_the_corpus_after_a_restart() {
    let dir = std::env::temp_dir().join(format!("act-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = tiny_spec("seq");

    // An empty corpus holds no traces, so TRAIN runs the simulator.
    let (server, endpoint) = boot_on_corpus(&dir);
    match request(&endpoint, &Request::Train(spec.clone())).expect("train reply") {
        Reply::Trained(summary) => {
            assert!(summary.starts_with("trained seq:"), "summary: {summary}");
            assert!(summary.ends_with("[trained]"), "summary: {summary}");
        }
        other => panic!("unexpected train reply: {other:?}"),
    }
    assert!(matches!(request(&endpoint, &Request::Shutdown).expect("bye"), Reply::Bye));
    server.join();

    // Restart on the same directory: the same TRAIN loads the model.
    let (server, endpoint) = boot_on_corpus(&dir);
    match request(&endpoint, &Request::Train(spec)).expect("train reply") {
        Reply::Trained(summary) => {
            assert!(summary.starts_with("model seq-n2-h4-s0 "), "summary: {summary}");
            assert!(summary.contains("loaded from corpus store"), "summary: {summary}");
            assert!(summary.ends_with("[cache-hit:store]"), "summary: {summary}");
        }
        other => panic!("unexpected train reply: {other:?}"),
    }
    let status = status_of(&endpoint);
    assert_eq!(counter(&status, "cache_hits"), 1, "status:\n{status}");
    assert_eq!(counter(&status, "cache_misses"), 0, "status:\n{status}");
    assert!(matches!(request(&endpoint, &Request::Shutdown).expect("bye"), Reply::Bye));
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_frames_without_a_corpus_answer_error() {
    let (server, endpoint) = boot(1, 4);
    let req = Request::TracePut {
        key: "k".into(),
        workload: "seq".into(),
        trace: correct_trace_bytes(0),
    };
    match request(&endpoint, &req).expect("reply") {
        Reply::Error(msg) => assert!(msg.contains("--corpus"), "msg: {msg}"),
        other => panic!("expected ERROR without a corpus, got: {other:?}"),
    }
    match request(&endpoint, &Request::TraceGet { key: "k".into() }).expect("reply") {
        Reply::Error(msg) => assert!(msg.contains("--corpus"), "msg: {msg}"),
        other => panic!("expected ERROR without a corpus, got: {other:?}"),
    }
    assert!(matches!(request(&endpoint, &Request::Shutdown).expect("bye"), Reply::Bye));
    server.join();
}

#[test]
fn diagnose_on_a_cold_daemon_trains_then_ranks() {
    // A single DIAGNOSE against a cold daemon must train the model inline
    // and still come back with the ranked header.
    let (server, endpoint) = boot(1, 4);
    let req = Request::Diagnose(tiny_spec("seq"), failing_trace_bytes());
    match request(&endpoint, &req).expect("reply") {
        Reply::Diagnosis(text) => {
            assert!(text.starts_with("diagnosis workload=seq model=trained"), "text: {text}");
            assert!(text.contains("logged="), "text: {text}");
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    assert!(matches!(request(&endpoint, &Request::Shutdown).expect("bye"), Reply::Bye));
    server.join();
}

/// `join` returns only once every session thread has ended — the idle one
/// and the one that wrote the `BYE` — so an `act serve` process never
/// exits under a session still writing its last frame.
#[test]
fn join_waits_for_every_session_thread() {
    let (server, endpoint) = boot(1, 4);
    let stats = server.stats();
    let mut idle = Conn::connect(&endpoint, &ClientConfig::default()).expect("connect");
    write_frame(&mut idle, &Request::Hello { window: 4 }.to_frame()).expect("send HELLO");
    let ack = Reply::from_frame(read_frame(&mut idle).expect("ack")).expect("decode");
    assert_eq!(ack, Reply::HelloAck { window: 4 });
    assert_eq!(request(&endpoint, &Request::Shutdown).expect("reply"), Reply::Bye);
    server.join();
    let open = stats.metrics_snapshot(Duration::ZERO, 0, 0).gauge("sessions_open");
    assert_eq!(open, Some(0), "join returned under a live session thread");
}

/// A client that sends one request per connection and hangs up — how a
/// production machine reports a failure — finds a session thread parked
/// by the connection before it, instead of costing a thread spawn each.
#[test]
fn one_shot_requests_reuse_parked_session_threads() {
    let (server, endpoint) = boot(1, 4);
    let train = Request::Train(tiny_spec("seq"));
    assert!(matches!(request(&endpoint, &train).expect("warm-up"), Reply::Trained(_)));
    let before = threads_started(&endpoint);
    for _ in 0..50 {
        assert!(matches!(request(&endpoint, &train).expect("train"), Reply::Trained(_)));
    }
    let started = threads_started(&endpoint) - before;
    assert!(started <= 5, "51 one-shot connections started {started} session threads");
    assert!(matches!(request(&endpoint, &Request::Shutdown).expect("bye"), Reply::Bye));
    server.join();
}

/// A drain ends the parked session threads at once: `join` does not wait
/// out their park.
#[test]
fn join_returns_promptly_with_session_threads_parked() {
    let (server, endpoint) = boot(1, 4);
    for _ in 0..3 {
        assert!(threads_started(&endpoint) >= 1, "STATUS came from a session thread");
    }
    let stats = server.stats();
    server.shutdown();
    let drained = Instant::now();
    server.join();
    assert!(drained.elapsed() < Duration::from_secs(1), "join took {:?}", drained.elapsed());
    let open = stats.metrics_snapshot(Duration::ZERO, 0, 0).gauge("sessions_open");
    assert_eq!(open, Some(0));
}

#[test]
fn a_failed_start_leaves_no_listener_behind() {
    // A loopback port nobody holds, and a socket path whose directory is
    // missing: the TCP bind succeeds, the Unix bind fails.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = probe.local_addr().expect("addr").to_string();
    drop(probe);
    let missing = std::env::temp_dir().join(format!("act-no-such-dir-{}", std::process::id()));
    let cfg = ServeConfig {
        tcp_addr: Some(addr.clone()),
        unix_path: Some(missing.join("act.sock")),
        ..ServeConfig::default()
    };
    assert!(Server::start(cfg).is_err(), "the unix bind must fail");
    assert!(TcpStream::connect(&addr).is_err(), "nothing may still accept on {addr}");
    std::net::TcpListener::bind(&addr).expect("the port is free again");
}

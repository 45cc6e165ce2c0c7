//! End-to-end client tests: boot an in-process `act-serve` daemon on an
//! ephemeral loopback port and drive it through the [`act_client::Client`]
//! façade at every transport depth.
//!
//! Covers the client acceptance criteria:
//! - typed methods produce identical results at pipeline depth 1 (one
//!   frame each way per connection) and depth 8 (multiplexed session);
//! - streamed uploads (`TRACE_PUT_START`/`DIAGNOSE_START` + chunks) answer
//!   with byte-identical summaries to their one-frame twins, at any chunk
//!   size;
//! - replies demultiplex out of order across a pipelined session;
//! - a connection killed mid-stream leaves no partial corpus segment;
//! - the in-flight window is negotiated down to the server's cap;
//! - any interleaving of pipelined requests yields the same replies as
//!   the same requests issued one per connection (proptest);
//! - a raw client that sends one frame gets a window-1 session;
//! - the retry rule (one jittered retry after a transport failure or
//!   `BUSY`) holds at depth 1 and at depth 8;
//! - a Unix-socket daemon serves the client, and a drain wakes acceptors
//!   blocked in `accept` on either listener;
//! - `Session::call_with` runs each reply callback exactly once, on the
//!   session's reader thread — with the reply, or with an error when the
//!   connection dies with requests in flight;
//! - a dropped `Pending` frees its window slot, and dropping the last
//!   `Session` handle closes its connection.

use act_client::session::Session;
use act_client::{ActError, Client, ClientConfig, ModelSpec, Reply, Request};
use act_serve::proto::{read_frame, write_frame, FrameKind};
use act_serve::server::{ServeConfig, Server};
use act_serve::{Endpoint, SESSION_WINDOW};
use act_store::{Corpus, EntryKind};
use act_trace::collector::TraceCollector;
use act_trace::io::trace_to_bytes;
use act_workloads::registry;
use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use std::io::Write as _;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Boot a daemon on 127.0.0.1:0 and return it with its client endpoint.
fn boot(cfg: ServeConfig) -> (Server, Endpoint) {
    let cfg = ServeConfig { tcp_addr: Some("127.0.0.1:0".to_string()), ..cfg };
    let server = Server::start(cfg).expect("daemon boots");
    let endpoint = Endpoint::Tcp(server.tcp_addr().expect("tcp bound").to_string());
    (server, endpoint)
}

fn small(workers: usize, queue_depth: usize) -> ServeConfig {
    ServeConfig { workers, queue_depth, ..ServeConfig::default() }
}

/// A client for `endpoint` with snappy test timeouts.
fn client_at(endpoint: &Endpoint, depth: u32) -> Client {
    let builder = match endpoint {
        Endpoint::Tcp(addr) => Client::builder().addr(addr.clone()),
        Endpoint::Unix(path) => Client::builder().unix(path.clone()),
    };
    builder
        .timeouts(Duration::from_secs(2), Duration::from_secs(30))
        .pipeline_depth(depth)
        .build()
        .expect("client builds")
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

/// A `TRAIN` of the `__sleep` fault hook: a backend worker sleeps `ms`
/// milliseconds and answers `slept {ms}ms`.
fn sleeper(ms: u64) -> Request {
    let mut spec = ModelSpec::new("__sleep");
    spec.seed = ms;
    Request::Train(spec)
}

/// Serialize a `seq` run: failing when `failing`, else correct.
fn trace_bytes(base_seed: u64, failing: bool) -> Vec<u8> {
    let w = registry::by_name("seq").expect("seq workload");
    let norm = w.norm_code_len().unwrap_or_else(|| w.build(&w.default_params()).program.code_len());
    for seed in base_seed..base_seed + 64 {
        let params = if failing {
            w.default_params().triggered().with_seed(seed)
        } else {
            w.default_params().with_seed(seed)
        };
        let built = w.build(&params);
        let mut collector = TraceCollector::new(norm);
        let run_cfg =
            act_sim::config::MachineConfig { seed, jitter_ppm: 10_000, ..Default::default() };
        let mut machine = act_sim::machine::Machine::new(&built.program, run_cfg);
        let outcome = machine.run_observed(&mut collector);
        let wanted = if failing { built.is_failure(&outcome) } else { built.is_correct(&outcome) };
        if wanted {
            return trace_to_bytes(&collector.into_trace());
        }
    }
    panic!("no matching seq run in 64 seeds from {base_seed}");
}

fn scratch_corpus(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("act-client-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// How a drain starts: one `shutdown()` call, two, or a `SHUTDOWN` frame.
#[derive(Debug, Clone, Copy)]
enum Drain {
    Call,
    CallTwice,
    Frame,
}

const DRAINS: [Drain; 3] = [Drain::Call, Drain::CallTwice, Drain::Frame];

/// Start `server`'s drain as `how` says (a frame goes to `endpoint`), then
/// report whether `join` returns within 2 s. The join runs on a helper
/// thread, so an acceptor left blocked fails the test instead of hanging it.
fn drain_joins_promptly(server: Server, how: Drain, endpoint: &Endpoint) -> bool {
    match how {
        Drain::Call => server.shutdown(),
        Drain::CallTwice => {
            server.shutdown();
            server.shutdown();
        }
        Drain::Frame => client_at(endpoint, 1).shutdown().expect("shutdown acked with BYE"),
    }
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = done.send(());
    });
    joined.recv_timeout(Duration::from_secs(2)).is_ok()
}

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("act-client-{tag}-{}.sock", std::process::id()))
}

#[test]
fn a_unix_only_daemon_serves_the_client_and_drains_promptly() {
    let spec = tiny_spec("seq");
    let failing = trace_bytes(0, true);
    for how in DRAINS {
        let path = socket_path(&format!("unix-{how:?}"));
        let cfg = ServeConfig { tcp_addr: None, unix_path: Some(path.clone()), ..small(1, 4) };
        let server = Server::start(cfg).expect("daemon boots");
        let endpoint = Endpoint::Unix(path.clone());
        let client = client_at(&endpoint, 1);
        let status = client.status().expect("status over the unix socket");
        assert!(status.text.contains("requests_served"), "{how:?}: {}", status.text);
        let report = client.diagnose(&spec, &failing).expect("diagnose over the unix socket");
        assert!(report.starts_with("diagnosis workload=seq"), "{how:?}: {report}");
        assert!(drain_joins_promptly(server, how, &endpoint), "{how:?}: join took over 2 s");
        assert!(!path.exists(), "{how:?}: the socket file outlived join");
    }
}

#[test]
fn a_daemon_on_both_listeners_drains_promptly() {
    for how in DRAINS {
        let path = socket_path(&format!("both-{how:?}"));
        let (server, endpoint) = boot(ServeConfig { unix_path: Some(path.clone()), ..small(1, 4) });
        assert!(path.exists(), "{how:?}: the unix listener is bound");
        assert!(drain_joins_promptly(server, how, &endpoint), "{how:?}: join took over 2 s");
        assert!(!path.exists(), "{how:?}: the socket file outlived join");
    }
}

#[test]
fn typed_methods_agree_between_depth_one_and_depth_eight() {
    let dir = scratch_corpus("typed");
    let cfg = ServeConfig { corpus_dir: Some(dir.clone()), ..small(2, 16) };
    let (server, endpoint) = boot(cfg);
    let spec = tiny_spec("seq");
    let failing = trace_bytes(0, true);
    let correct = trace_bytes(0, false);

    // Warm the model once so both depths diagnose against the same cache
    // state and the reports can be compared byte-for-byte.
    client_at(&endpoint, 1).train(&spec).expect("warm train");

    let mut reports = Vec::new();
    for depth in [1u32, 8] {
        let client = client_at(&endpoint, depth);
        let trained = client.train(&spec).expect("train");
        assert!(trained.contains("cache-hit"), "depth {depth}: {trained}");
        let report = client.diagnose(&spec, &failing).expect("diagnose");
        assert!(report.starts_with("diagnosis workload=seq"), "depth {depth}: {report}");
        let key = format!("clean-depth-{depth}");
        let stored = client.trace_put(&key, "seq", &correct).expect("trace put");
        assert!(stored.contains(&key), "depth {depth}: {stored}");
        let back = client.trace_get(&key).expect("trace get");
        assert_eq!(back, correct, "depth {depth}: trace round trip must be lossless");
        let status = client.status().expect("status");
        assert!(status.text.contains("requests_served"), "depth {depth}: {}", status.text);
        let snap = status.metrics.expect("metrics snapshot");
        if depth > 1 {
            assert!(snap.counter("req_hello").unwrap_or(0) >= 1, "session handshake counted");
            assert!(
                snap.counter("sessions_open").is_some() || snap.gauge("sessions_open").is_some()
            );
        }
        reports.push(report);
    }
    assert_eq!(reports[0], reports[1], "reports must be byte-identical at any pipeline depth");

    client_at(&endpoint, 1).shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streamed_uploads_match_their_one_frame_twins() {
    let dir = scratch_corpus("stream");
    let cfg = ServeConfig { corpus_dir: Some(dir.clone()), ..small(2, 16) };
    let (server, endpoint) = boot(cfg);
    let spec = tiny_spec("seq");
    let failing = trace_bytes(0, true);
    let correct = trace_bytes(0, false);
    let client = client_at(&endpoint, 4);

    // One-frame and streamed TRACE_PUT of the same bytes: summaries differ
    // only in the key, and both read back losslessly.
    let one_frame = client.trace_put("one-frame", "seq", &correct).expect("one-frame put");
    let streamed =
        client.trace_put_streaming("streamed", "seq", &correct[..]).expect("streamed put");
    assert_eq!(
        one_frame.replace("one-frame", "KEY"),
        streamed.replace("streamed", "KEY"),
        "streamed and one-frame summaries must agree"
    );
    assert_eq!(client.trace_get("streamed").expect("get"), correct);

    // Materialized and streamed DIAGNOSE of the same trace: identical text.
    client.train(&spec).expect("warm");
    let materialized = client.diagnose(&spec, &failing).expect("diagnose");
    let streamed = client.diagnose_streaming(&spec, &failing[..]).expect("streamed diagnose");
    assert_eq!(materialized, streamed, "streamed diagnose must match the one-frame report");

    client.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A raw session on `endpoint`: `HELLO` for a window of 4, ack read.
fn raw_session(endpoint: &Endpoint) -> TcpStream {
    let Endpoint::Tcp(addr) = endpoint else { unreachable!("boot binds tcp") };
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, &Request::Hello { window: 4 }.to_frame().with_request(0))
        .expect("hello");
    assert_eq!(read_frame(&mut stream).expect("hello ack").kind, FrameKind::HelloAck);
    stream
}

/// Send each of `requests` as one frame under request id `id`.
fn send_all(stream: &mut TcpStream, id: u32, requests: &[Request]) {
    for request in requests {
        write_frame(&mut *stream, &request.to_frame().with_request(id)).expect("send");
    }
}

/// `bytes` as `STREAM_CHUNK`s of `chunk` bytes.
fn chunks(bytes: &[u8], chunk: usize) -> Vec<Request> {
    bytes.chunks(chunk).map(|c| Request::StreamChunk(c.to_vec())).collect()
}

/// The `STREAM_END` that seals an upload of `bytes`.
fn seal(bytes: &[u8]) -> Request {
    Request::StreamEnd { crc32: act_store::crc32::crc32(bytes), total_len: bytes.len() as u64 }
}

/// Read one reply frame: its request id and decoded reply.
fn read_reply(stream: &mut TcpStream) -> (u32, Reply) {
    let frame = read_frame(stream).expect("reply frame");
    (frame.request_id, Reply::from_frame(&frame).expect("decode"))
}

#[test]
fn streamed_diagnose_in_tiny_chunks_matches_the_one_frame_report() {
    let (server, endpoint) = boot(small(2, 16));
    let spec = tiny_spec("seq");
    let failing = trace_bytes(0, true);
    let client = client_at(&endpoint, 1);
    client.train(&spec).expect("warm");
    let one_frame = client.diagnose(&spec, &failing).expect("diagnose");

    // Chunks this small split the header and nearly every record line.
    let mut session = raw_session(&endpoint);
    for (id, chunk) in [(1u32, 1usize), (2, 3), (3, 7)] {
        send_all(&mut session, id, &[Request::DiagnoseStart(spec.clone())]);
        send_all(&mut session, id, &chunks(&failing, chunk));
        send_all(&mut session, id, &[seal(&failing)]);
        let reply = read_reply(&mut session);
        assert_eq!(reply, (id, Reply::Diagnosis(one_frame.clone())), "{chunk}-byte chunks");
    }

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn pipelined_replies_demultiplex_out_of_order() {
    let (server, endpoint) = boot(small(2, 16));
    let client = client_at(&endpoint, 4);
    let session = client.pipeline().expect("session");

    // The slow request is issued first; with two workers the fast one
    // finishes (and is demultiplexed) while the slow one still runs.
    let slow = session.call(&sleeper(400)).expect("send slow");
    let fast = session.call(&sleeper(10)).expect("send fast");
    let t0 = std::time::Instant::now();
    match fast.wait().expect("fast reply") {
        Reply::Trained(s) => assert_eq!(s, "slept 10ms"),
        other => panic!("unexpected fast reply: {other:?}"),
    }
    assert!(t0.elapsed() < Duration::from_millis(350), "fast reply must not wait for the slow one");
    match slow.wait().expect("slow reply") {
        Reply::Trained(s) => assert_eq!(s, "slept 400ms"),
        other => panic!("unexpected slow reply: {other:?}"),
    }

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn window_is_negotiated_down_to_the_server_cap() {
    let (server, endpoint) = boot(small(1, 8));

    let cfg = act_client::ClientConfig::default();
    let asked = SESSION_WINDOW + 8;
    let session =
        act_client::session::Session::open(&endpoint, &cfg, asked).expect("session opens");
    assert_eq!(session.window(), SESSION_WINDOW, "server caps the asked-for window");
    drop(session);
    let session = act_client::session::Session::open(&endpoint, &cfg, 2).expect("session opens");
    assert_eq!(session.window(), 2, "a smaller ask is granted as is");
    drop(session);

    client_at(&endpoint, 1).shutdown().expect("shutdown");
    server.join();
}

#[test]
fn mid_stream_kill_leaves_no_partial_corpus_segment() {
    let dir = scratch_corpus("kill");
    let cfg = ServeConfig { corpus_dir: Some(dir.clone()), ..small(1, 8) };
    let (server, endpoint) = boot(cfg);
    let addr = match &endpoint {
        Endpoint::Tcp(addr) => addr.clone(),
        other => panic!("tcp endpoint expected, got {other}"),
    };
    let correct = trace_bytes(0, false);

    // Open a raw session, start a chunked TRACE_PUT, feed half the trace,
    // then kill the socket without STREAM_END.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write_frame(&mut stream, &Request::Hello { window: 2 }.to_frame().with_request(0))
        .expect("hello");
    let ack = read_frame(&mut stream).expect("hello ack");
    assert_eq!(ack.kind, FrameKind::HelloAck);
    let start = Request::TracePutStart { key: "half".into(), workload: "seq".into() };
    write_frame(&mut stream, &start.to_frame().with_request(1)).expect("start");
    let half = &correct[..correct.len() / 2];
    write_frame(&mut stream, &Request::StreamChunk(half.to_vec()).to_frame().with_request(1))
        .expect("chunk");
    stream.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(100)); // let the server ingest the chunk
    stream.shutdown(Shutdown::Both).expect("kill connection");
    drop(stream);
    std::thread::sleep(Duration::from_millis(200)); // let the session clean up

    // The daemon still serves, and the key was never published.
    let client = client_at(&endpoint, 1);
    let err = client.trace_get("half").expect_err("half-streamed key must not exist");
    assert!(err.to_string().contains("trace get failed"), "got {err}");
    client.shutdown().expect("shutdown");
    server.join();

    // Offline reopen: recovery finds no trace of the aborted stream.
    let corpus = Corpus::open(&dir).expect("corpus reopens cleanly");
    assert!(!corpus.contains(EntryKind::Trace, "half"), "no partial entry may survive");
    assert_eq!(corpus.entries(None).len(), 0, "corpus must be empty after the aborted stream");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn raw_one_frame_clients_get_a_window_one_session() {
    let (server, endpoint) = boot(small(2, 8));
    let Endpoint::Tcp(addr) = &endpoint else { unreachable!("boot binds tcp") };

    // One frame out, one reply back, under the client's request id.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, &sleeper(1).to_frame().with_request(41)).expect("send");
    let frame = read_frame(&mut stream).expect("reply");
    assert_eq!(frame.request_id, 41, "the reply echoes the request id");
    assert_eq!(Reply::from_frame(&frame).expect("decode"), Reply::Trained("slept 1ms".into()));

    // The connection stays a session of window 1: a second request is
    // served once the first is answered, and one sent while another is
    // in flight is refused on its own.
    write_frame(&mut stream, &sleeper(200).to_frame().with_request(42)).expect("send");
    write_frame(&mut stream, &sleeper(1).to_frame().with_request(43)).expect("send");
    let first = read_frame(&mut stream).expect("reply");
    assert_eq!((first.request_id, first.kind), (43, FrameKind::Busy), "window 1 is full");
    let second = read_frame(&mut stream).expect("reply");
    assert_eq!((second.request_id, second.kind), (42, FrameKind::Trained));
    drop(stream);

    client_at(&endpoint, 1).shutdown().expect("shutdown");
    server.join();
}

#[test]
fn call_with_runs_each_callback_once_with_its_reply() {
    let (server, endpoint) = boot(small(2, 16));
    let session = Session::open(&endpoint, &ClientConfig::default(), 8).expect("session opens");
    let (tx, rx) = mpsc::channel();
    let mut ids = Vec::new();
    for ms in [40u64, 5, 30, 10, 20, 15] {
        let tx = tx.clone();
        let id = session
            .call_with(&sleeper(ms), move |reply| {
                let thread = std::thread::current().name().map(str::to_string);
                tx.send((ms, reply, thread)).expect("test receiver alive");
            })
            .expect("send");
        ids.push(id);
    }
    drop(tx);
    // The channel closes once every callback has run and been dropped.
    let mut seen: Vec<(u64, Reply, Option<String>)> = rx
        .iter()
        .map(|(ms, reply, thread)| (ms, reply.expect("a live session replies"), thread))
        .collect();
    seen.sort_by_key(|(ms, ..)| *ms);
    let got: Vec<u64> = seen.iter().map(|(ms, ..)| *ms).collect();
    assert_eq!(got, vec![5, 10, 15, 20, 30, 40], "every callback ran exactly once");
    for (ms, reply, thread) in seen {
        assert_eq!(reply, Reply::Trained(format!("slept {ms}ms")), "each gets its own reply");
        assert_eq!(thread.as_deref(), Some("act-client-demux"), "on the session's reader");
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 6, "every request got an id of its own");
    drop(session);

    client_at(&endpoint, 1).shutdown().expect("shutdown");
    server.join();
}

#[test]
fn a_connection_that_dies_fails_every_callback_in_flight_once() {
    // A stub that grants a window of 8, reads four request frames, and
    // then hangs up without answering any of them.
    let listener = TcpListener::bind("127.0.0.1:0").expect("stub binds");
    let endpoint = Endpoint::Tcp(listener.local_addr().expect("bound").to_string());
    let stub = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let hello = read_frame(&mut conn).expect("hello");
        let ack = Reply::HelloAck { window: 8 }.to_frame().with_request(hello.request_id);
        write_frame(&mut conn, &ack).expect("ack");
        for _ in 0..4 {
            read_frame(&mut conn).expect("request frame");
        }
    });

    let session = Session::open(&endpoint, &ClientConfig::default(), 8).expect("session opens");
    let (tx, rx) = mpsc::channel();
    for tag in 0..4u32 {
        let tx = tx.clone();
        session
            .call_with(&sleeper(1), move |reply| {
                tx.send((tag, reply.is_err())).expect("test receiver alive");
            })
            .expect("sent before the stub hangs up");
    }
    drop(tx);
    stub.join().expect("stub thread");
    let mut failed: Vec<(u32, bool)> = rx.iter().collect();
    failed.sort_unstable();
    assert_eq!(failed, (0..4).map(|tag| (tag, true)).collect::<Vec<_>>(), "each fails once");
    assert!(session.is_dead(), "the session knows its connection died");
    assert!(session.call_with(&sleeper(1), |_| panic!("must not run")).is_err());
}

#[test]
fn a_dropped_pending_frees_its_window_slot() {
    let (server, endpoint) = boot(small(2, 8));
    let session = Session::open(&endpoint, &ClientConfig::default(), 2).expect("session opens");
    assert_eq!(session.window(), 2);
    // Fill the window, then walk away from every reply.
    for _ in 0..session.window() {
        drop(session.call(&sleeper(1)).expect("send"));
    }
    // The next call needs a slot back; on a helper thread, so a leaked
    // window fails the test instead of hanging it.
    let (done, replied) = mpsc::channel();
    let caller = session.clone();
    std::thread::spawn(move || {
        let _ = done.send(caller.call(&sleeper(1)).and_then(|p| p.wait()));
    });
    let reply = replied.recv_timeout(Duration::from_secs(2)).expect("a slot freed within 2 s");
    assert_eq!(reply.expect("reply"), Reply::Trained("slept 1ms".into()));
    drop(session);

    client_at(&endpoint, 1).shutdown().expect("shutdown");
    server.join();
}

#[test]
fn dropping_the_last_session_handle_closes_its_connection() {
    let (server, endpoint) = boot(small(1, 4));
    // Whether the daemon's `sessions_open` reaches `want` within 2 s. The
    // STATUS probe's own connection is a session too, so it counts 1.
    let sessions_reach = |want: i64| {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let status = client_at(&endpoint, 1).status().expect("status");
            let open = status.metrics.and_then(|m| m.gauge("sessions_open"));
            if open == Some(want) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    assert!(sessions_reach(1), "only the probe's own session at first");
    let session = Session::open(&endpoint, &ClientConfig::default(), 4).expect("session opens");
    assert!(sessions_reach(2), "the open session counts");
    drop(session);
    assert!(sessions_reach(1), "dropping the last handle must close the connection");

    client_at(&endpoint, 1).shutdown().expect("shutdown");
    server.join();
}

/// A client for `endpoint` at `depth` with one retry after `backoff`.
fn retrying_client(endpoint: &Endpoint, depth: u32, backoff: Duration) -> Client {
    let Endpoint::Tcp(addr) = endpoint else { unreachable!("tcp endpoints only") };
    Client::builder()
        .addr(addr.clone())
        .timeouts(Duration::from_millis(500), Duration::from_secs(30))
        .retry(backoff, 7)
        .pipeline_depth(depth)
        .build()
        .expect("client builds")
}

fn dead_endpoint_is_tried_twice_at(depth: u32) {
    // Port 1 on loopback refuses at once, so the sleep between the two
    // tries is nearly all of the elapsed time.
    let backoff = Duration::from_millis(200);
    let client = retrying_client(&Endpoint::Tcp("127.0.0.1:1".into()), depth, backoff);
    let start = Instant::now();
    let err = client.status().expect_err("both tries must fail");
    assert!(matches!(err, ActError::Io { .. }), "depth {depth}: {err}");
    // The client sleeps only before a second try, at least backoff/2.
    assert!(start.elapsed() >= backoff / 2, "depth {depth}: no retry after {:?}", start.elapsed());
}

#[test]
fn retry_tries_a_dead_endpoint_twice_at_depth_1() {
    dead_endpoint_is_tried_twice_at(1);
}

#[test]
fn retry_tries_a_dead_endpoint_twice_at_depth_8() {
    dead_endpoint_is_tried_twice_at(8);
}

fn busy_is_absorbed_by_the_retry_at(depth: u32) {
    // One worker and a one-deep queue: a 300 ms sleeper on the worker
    // plus one queued behind it saturate the daemon.
    let (server, endpoint) = boot(small(1, 1));
    let sleeper = |ms: u64| {
        let mut spec = ModelSpec::new("__sleep");
        spec.seed = ms;
        spec
    };
    let occupants: Vec<_> = [300u64, 10]
        .into_iter()
        .map(|ms| {
            let client = client_at(&endpoint, 1);
            let occupant = std::thread::spawn(move || client.train(&sleeper(ms)));
            std::thread::sleep(Duration::from_millis(50)); // worker first, then the queue
            occupant
        })
        .collect();

    // The first try is refused with BUSY; the retry comes at least 300 ms
    // later, when the queue has room again.
    let client = retrying_client(&endpoint, depth, Duration::from_millis(600));
    let trained = client.train(&sleeper(1)).expect("the retry absorbs BUSY");
    assert_eq!(trained, "slept 1ms", "depth {depth}");
    for occupant in occupants {
        occupant.join().expect("occupant thread").expect("occupant served");
    }
    let status = client_at(&endpoint, 1).status().expect("status");
    assert!(
        status.text.contains("requests_rejected_busy 1"),
        "depth {depth}: the first try must have been refused:\n{}",
        status.text
    );
    client_at(&endpoint, 1).shutdown().expect("shutdown");
    server.join();
}

#[test]
fn retry_absorbs_busy_at_depth_1() {
    busy_is_absorbed_by_the_retry_at(1);
}

#[test]
fn retry_absorbs_busy_at_depth_8() {
    busy_is_absorbed_by_the_retry_at(8);
}

/// The fixed request vocabulary the equivalence property draws from. All
/// replies are deterministic and order-independent: fault-hook sleeps echo
/// their duration, diagnoses hit the pre-warmed model cache, and trace
/// gets return pre-stored bytes.
struct Vocabulary {
    endpoint: Endpoint,
    spec: ModelSpec,
    failing: Vec<u8>,
    stored: Vec<(String, Vec<u8>)>,
}

impl Vocabulary {
    fn request(&self, op: u8) -> Request {
        match op % 5 {
            0 | 1 => {
                let mut spec = ModelSpec::new("__sleep");
                spec.seed = 5 + (op as u64 % 7) * 3;
                Request::Train(spec)
            }
            2 => Request::Diagnose(self.spec.clone(), self.failing.clone()),
            3 => Request::TraceGet { key: self.stored[0].0.clone() },
            _ => Request::TraceGet { key: self.stored[1].0.clone() },
        }
    }
}

/// Render a reply for multiset comparison.
fn fingerprint(reply: &Reply) -> String {
    format!("{reply:?}")
}

/// The daemon the equivalence property runs against: a warm model and two
/// stored traces. Dropping it drains the daemon and removes its corpus.
struct Fixture {
    server: Option<Server>,
    dir: PathBuf,
    vocab: Vocabulary,
}

impl Fixture {
    fn boot() -> Fixture {
        let dir = scratch_corpus("prop");
        let cfg = ServeConfig { corpus_dir: Some(dir.clone()), ..small(2, 64) };
        let (server, endpoint) = boot(cfg);
        let spec = tiny_spec("seq");
        let failing = trace_bytes(0, true);
        let client = client_at(&endpoint, 1);
        client.train(&spec).expect("warm model");
        let stored: Vec<(String, Vec<u8>)> = [(0u64, "prop-a"), (100, "prop-b")]
            .into_iter()
            .map(|(seed, key)| {
                let bytes = trace_bytes(seed, false);
                client.trace_put(key, "seq", &bytes).expect("seed corpus");
                (key.to_string(), bytes)
            })
            .collect();
        let vocab = Vocabulary { endpoint, spec, failing, stored };
        Fixture { server: Some(server), dir, vocab }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn any_pipelined_interleaving_matches_sequential_one_frame_requests() {
    let fixture = Fixture::boot();
    let vocab = &fixture.vocab;
    let plans = (2u32..6, prop::collection::vec((any::<u8>(), any::<u8>()), 1..10));
    let mut runner = TestRunner::new(ProptestConfig::with_cases(12));
    let outcome = runner.run(&plans, |(depth, plan)| {
        // Sequential baseline: the same requests one at a time, each on a
        // raw connection of its own (one frame each way).
        let mut expected = Vec::new();
        for (op, _) in &plan {
            let req = vocab.request(*op);
            let addr = match &vocab.endpoint {
                Endpoint::Tcp(addr) => addr.clone(),
                other => panic!("tcp endpoint expected, got {other}"),
            };
            let mut stream = TcpStream::connect(&addr).expect("connect");
            write_frame(&mut stream, &req.to_frame()).expect("send");
            let frame = read_frame(&mut stream).expect("reply");
            expected.push(fingerprint(&Reply::from_frame(&frame).expect("decode")));
        }

        // Pipelined run: same requests over one session, issue/wait order
        // driven by the generated plan, replies collected per id.
        let session = act_client::session::Session::open(
            &vocab.endpoint,
            &act_client::ClientConfig::default(),
            depth,
        )
        .expect("session opens");
        let mut pending: Vec<(usize, act_client::session::Pending)> = Vec::new();
        let mut got: Vec<Option<String>> = vec![None; plan.len()];
        for (i, (op, pick)) in plan.iter().enumerate() {
            // Keep strictly under the granted window so `call` never blocks;
            // drain a plan-chosen pending once the window fills.
            while pending.len() >= session.window() as usize {
                let victim = (*pick as usize) % pending.len();
                let (slot, p) = pending.swap_remove(victim);
                got[slot] = Some(fingerprint(&p.wait().expect("pipelined reply")));
            }
            pending.push((i, session.call(&vocab.request(*op)).expect("send pipelined")));
        }
        while let Some((slot, p)) = pending.pop() {
            got[slot] = Some(fingerprint(&p.wait().expect("pipelined reply")));
        }
        let got: Vec<String> = got.into_iter().map(|g| g.expect("every reply collected")).collect();

        prop_assert_eq!(got, expected);
        Ok(())
    });
    outcome.unwrap();
}

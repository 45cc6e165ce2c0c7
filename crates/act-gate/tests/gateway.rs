//! End-to-end gateway tests: boot real in-process act-serve backends (and
//! a few misbehaving stubs) behind an act-gate daemon and drive it with
//! real client connections.
//!
//! Covers the gateway acceptance criteria:
//! - killing a key's owning backend mid-fleet fails the request over to
//!   the next ring owner with zero client-visible errors — one request per
//!   connection and with four pipelined requests in flight on one session;
//! - a backend answering `BUSY` gets the same failover treatment;
//! - an upload whose backend is lost mid-relay gets exactly one `ERROR`;
//! - one raw-frame script of the session rules holds against a daemon and
//!   against a gateway in front of it: a second `HELLO` is an error, a
//!   refused or failed upload gets exactly one reply and its later stream
//!   frames are dropped, a stream frame of no upload is a protocol error,
//!   and a full window answers `BUSY` — each `BUSY` counted once;
//! - request payloads and reply payloads pass through byte-identically,
//!   under the client's request id (proptest over payload shapes);
//! - `STATUS` aggregates every backend's metrics under one reply;
//! - a client that connects and stays silent holds up nobody else;
//! - a frame of any protocol version but 4 gets one `ERROR`, then EOF;
//! - a drain wakes the acceptor blocked in `accept`, and answers every
//!   forward in flight exactly once before `join` returns;
//! - `join` returns only after every session thread has ended, and within
//!   a second of a drain with session threads parked;
//! - one-shot requests reuse parked session threads instead of spawning
//!   one per connection;
//! - a backend that stops reading stalls only the sessions that send to
//!   it;
//! - a request past the in-flight cap (`queue_depth`) is answered `BUSY`
//!   and never reaches a backend; with the cap held by a window-1 backend,
//!   the client retry absorbs the `BUSY`;
//! - any interleaving of pipelined requests through a 2-backend gateway
//!   yields the replies the owners give one frame at a time (proptest).

use act_client::{Client, MetricsSnapshot};
use act_gate::{GateConfig, Gateway};
use act_serve::conn::{accept_loop, wake, Conn, Listener};
use act_serve::proto::{read_frame, write_frame, Frame, FrameKind};
use act_serve::{Endpoint, ModelSpec, Reply, Request};
use act_serve::{ServeConfig, Server};
use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Boot a real act-serve backend on an ephemeral port.
fn boot_backend() -> Server {
    let cfg = ServeConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        workers: 2,
        queue_depth: 16,
        ..ServeConfig::default()
    };
    Server::start(cfg).expect("backend boots")
}

fn addr_of(server: &Server) -> String {
    server.tcp_addr().expect("tcp bound").to_string()
}

/// Boot a gateway over `backends` with test-friendly timeouts.
fn boot_gateway(backends: Vec<String>) -> Gateway {
    let cfg = GateConfig {
        backends,
        connect_timeout: Duration::from_millis(500),
        probe_interval: Duration::from_millis(100),
        probe_timeout: Duration::from_millis(500),
        ..GateConfig::default()
    };
    Gateway::start(cfg).expect("gateway boots")
}

/// A depth-1 act-client pointed at the gateway.
fn gate_client(gate: &Gateway) -> Client {
    Client::builder()
        .addr(gate.tcp_addr().to_string())
        .timeouts(Duration::from_secs(2), Duration::from_secs(30))
        .build()
        .expect("client builds")
}

/// A spec that trains in well under a second, with a tweakable seed so
/// tests can steer which backend the ring picks.
fn tiny_spec(workload: &str, seed: u64) -> ModelSpec {
    let mut spec = ModelSpec::new(workload);
    spec.seed = seed;
    spec.traces = 2;
    spec.seq_len = 2;
    spec.hidden = 4;
    spec.max_epochs = 30;
    spec
}

/// The shard key the gateway derives for `spec` (must mirror `route_key`).
fn key_of(spec: &ModelSpec) -> String {
    act_fleet::ModelKey::new(&spec.workload, spec.seq_len as usize, spec.hidden as usize, spec.seed)
        .canonical()
}

/// Find a seed whose key is owned by backend `want` on `gate`'s ring.
fn seed_owned_by(gate: &Gateway, workload: &str, want: usize) -> u64 {
    (0..256)
        .find(|&seed| gate.ring().owner(&key_of(&tiny_spec(workload, seed))) == want)
        .expect("some seed in 0..256 must map to every backend")
}

#[test]
fn killing_the_owner_fails_over_to_the_ring_neighbor() {
    let backends: Vec<Server> = (0..3).map(|_| boot_backend()).collect();
    // An hour-long probe interval pins down-discovery to the forwarding
    // path itself: the gateway must find the corpse mid-request, not be
    // tipped off by a background probe first.
    let cfg = GateConfig {
        backends: backends.iter().map(addr_of).collect(),
        connect_timeout: Duration::from_millis(500),
        probe_interval: Duration::from_secs(3600),
        probe_timeout: Duration::from_millis(500),
        ..GateConfig::default()
    };
    let gate = Gateway::start(cfg).expect("gateway boots");
    let client = gate_client(&gate);

    // Let the startup probe sweep finish while every backend is alive, so
    // the kill below is discovered on the forwarding path — not by a probe
    // that happens to run first and quietly mark the victim down.
    for _ in 0..500 {
        if gate.stats().probes_completed() >= 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(gate.stats().probes_completed() >= 3, "startup probe sweep never finished");

    // A request through the healthy fleet lands on its ring owner.
    let victim = 1usize;
    let seed = seed_owned_by(&gate, "seq", victim);
    let spec = tiny_spec("seq", seed);
    let summary = client.train(&spec).expect("train through gateway");
    assert!(summary.contains("seq"), "odd summary: {summary}");
    assert_eq!(gate.stats().failovers(), 0, "healthy fleet must not fail over");

    // Kill the owner; the same key must now be served by its neighbor,
    // transparently, on the first try (one connect failure -> failover).
    let mut backends = backends;
    let victim_server = backends.remove(victim);
    victim_server.shutdown();
    victim_server.join();

    let summary = client.train(&spec).expect("train survives a dead owner");
    assert!(summary.contains("seq"), "odd summary: {summary}");
    // A dying backend may answer BUSY from its draining session for a few
    // milliseconds before the socket closes; either failover flavor counts.
    assert!(
        gate.stats().failovers() + gate.stats().busy_failovers() >= 1,
        "the dead owner must have triggered a failover"
    );
    assert_eq!(gate.stats().failed(), 0, "no client-visible failures");

    gate.shutdown();
    gate.join();
    for b in backends {
        b.shutdown();
        b.join();
    }
}

/// A stub backend listening on a loopback port until the guard drops:
/// the drop stops its accept loop, wakes it out of `accept` and joins it.
/// Its sessions end when the gateway hangs up.
struct Stub {
    addr: String,
    draining: Arc<AtomicBool>,
    wake: Endpoint,
    acceptor: Option<JoinHandle<()>>,
}

impl Stub {
    /// Accept connections on an ephemeral loopback port, running `serve`
    /// on each.
    fn serve<F>(serve: F) -> Stub
    where
        F: Fn(Conn) + Clone + Send + 'static,
    {
        let listener = Listener::Tcp(TcpListener::bind("127.0.0.1:0").expect("stub binds"));
        let wake = listener.wake_endpoint().expect("bound address");
        let Endpoint::Tcp(addr) = wake.clone() else { unreachable!("tcp listener") };
        let draining = Arc::new(AtomicBool::new(false));
        let flag = draining.clone();
        let acceptor = std::thread::spawn(move || {
            accept_loop(&listener, &flag, &Arc::default(), "stub-session", serve);
        });
        Stub { addr, draining, wake, acceptor: Some(acceptor) }
    }
}

impl Drop for Stub {
    fn drop(&mut self) {
        self.draining.store(true, Ordering::SeqCst);
        wake(&self.wake);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// A stub backend that speaks sessions: `HELLO` gets an ack, `STATUS` a
/// plausible status (so health checks pass), and every other frame
/// whatever `answer` makes of it, under the frame's request id.
fn spawn_stub(answer: fn(Frame) -> Reply) -> Stub {
    spawn_stub_with(32, answer)
}

/// [`spawn_stub`] whose `HELLO_ACK` grants `window` and which answers
/// request frames one at a time per connection.
fn spawn_stub_with<F>(window: u32, answer: F) -> Stub
where
    F: Fn(Frame) -> Reply + Clone + Send + 'static,
{
    Stub::serve(move |mut conn: Conn| {
        while let Ok(frame) = read_frame(&mut conn) {
            let id = frame.request_id;
            let reply = match frame.kind {
                FrameKind::Hello => Reply::HelloAck { window },
                FrameKind::Status => {
                    Reply::StatusMetrics("stub status\n".into(), MetricsSnapshot::new())
                }
                _ => answer(frame),
            };
            if write_frame(&mut conn, &reply.to_frame().with_request(id)).is_err() {
                break;
            }
        }
    })
}

#[test]
fn busy_owner_fails_over_to_the_next_backend() {
    let real = boot_backend();
    let stub = spawn_stub(|_| Reply::Busy);
    // Backend 0 is the always-busy stub, backend 1 the real server.
    let gate = boot_gateway(vec![stub.addr.clone(), addr_of(&real)]);
    let client = gate_client(&gate);

    let seed = seed_owned_by(&gate, "seq", 0);
    client.train(&tiny_spec("seq", seed)).expect("train via busy-failover");
    assert!(gate.stats().busy_failovers() >= 1, "stub BUSY must have forced a failover");
    assert_eq!(gate.stats().failed(), 0);

    gate.shutdown();
    gate.join();
    real.shutdown();
    real.join();
}

/// A backend that acks `HELLO` and answers `STATUS`, but hangs up on a
/// stream opener once the upload's first chunk has arrived — leaving it
/// unread, so the socket resets — and then reports on `hung_up`.
fn spawn_stream_dropper(hung_up: mpsc::Sender<()>) -> Stub {
    Stub::serve(move |mut conn: Conn| {
        while let Ok(frame) = read_frame(&mut conn) {
            let reply = match frame.kind {
                FrameKind::Hello => Reply::HelloAck { window: 32 },
                FrameKind::Status => {
                    Reply::StatusMetrics("stub status\n".into(), MetricsSnapshot::new())
                }
                _ => {
                    let Conn::Tcp(stream) = &conn else { unreachable!("tcp listener") };
                    let _ = stream.peek(&mut [0u8; 1]);
                    drop(conn);
                    let _ = hung_up.send(());
                    return;
                }
            };
            let reply = reply.to_frame().with_request(frame.request_id);
            if write_frame(&mut conn, &reply).is_err() {
                break;
            }
        }
    })
}

#[test]
fn an_upload_whose_backend_is_lost_mid_relay_gets_one_error() {
    let (hung_up, backend_gone) = mpsc::channel();
    let dropper = spawn_stream_dropper(hung_up);
    let gate = boot_gateway(vec![dropper.addr.clone()]);
    let mut conn = TcpStream::connect(gate.tcp_addr().to_string()).expect("connect");
    let send = |conn: &mut TcpStream, id: u32, request: Request| {
        write_frame(conn, &request.to_frame().with_request(id)).expect("send");
    };
    send(&mut conn, 0, Request::Hello { window: 4 });
    assert_eq!(read_frame(&mut conn).expect("hello ack").kind, FrameKind::HelloAck);

    send(&mut conn, 1, Request::DiagnoseStart(tiny_spec("seq", 0)));
    send(&mut conn, 1, Request::StreamChunk(b"acttrace v1 10\n".to_vec()));
    backend_gone.recv_timeout(Duration::from_secs(5)).expect("the backend hung up");
    for _ in 0..3 {
        send(&mut conn, 1, Request::StreamChunk(b"S 1 2 0 7 8\n".to_vec()));
    }
    send(&mut conn, 1, Request::StreamEnd { crc32: 0, total_len: 51 });
    send(&mut conn, 2, Request::Status);

    // Read until the upload's reply and the STATUS are both in, however
    // the backend's loss surfaced; a second STATUS then flushes out any
    // further reply to the upload.
    let mut upload_replies = Vec::new();
    let mut status_seen = false;
    while !status_seen || upload_replies.is_empty() {
        let frame = read_frame(&mut conn).expect("reply frame");
        match frame.request_id {
            1 => upload_replies.push(Reply::from_frame(&frame).expect("decode")),
            2 => status_seen = true,
            other => panic!("reply for unknown request id {other}"),
        }
    }
    send(&mut conn, 3, Request::Status);
    let frame = read_frame(&mut conn).expect("reply frame");
    assert_eq!(frame.request_id, 3, "another reply to the upload: {:?}", Reply::from_frame(&frame));
    assert_eq!(upload_replies.len(), 1, "one terminal reply per request: {upload_replies:?}");
    assert!(
        matches!(&upload_replies[0], Reply::Error(why) if why.contains("backend lost")),
        "{upload_replies:?}"
    );
    assert_eq!(gate.stats().failed(), 1);

    gate.shutdown();
    gate.join();
}

/// A backend that acks `HELLO` and answers `STATUS`, takes a stream's
/// opener and chunks without a word, and answers its `STREAM_END` 300 ms
/// after reading it — reporting on `sealed` the moment it has.
fn spawn_slow_sealer(sealed: mpsc::Sender<()>) -> Stub {
    Stub::serve(move |mut conn: Conn| {
        while let Ok(frame) = read_frame(&mut conn) {
            let reply = match frame.kind {
                FrameKind::Hello => Reply::HelloAck { window: 32 },
                FrameKind::Status => {
                    Reply::StatusMetrics("stub status\n".into(), MetricsSnapshot::new())
                }
                FrameKind::StreamEnd => {
                    let _ = sealed.send(());
                    std::thread::sleep(Duration::from_millis(300));
                    Reply::Stored("stored slow-0".into())
                }
                _ => continue, // the opener and its chunks
            };
            let reply = reply.to_frame().with_request(frame.request_id);
            if write_frame(&mut conn, &reply).is_err() {
                break;
            }
        }
    })
}

#[test]
fn a_drain_waits_for_a_relayed_upload_verdict() {
    let (sealed, backend_sealed) = mpsc::channel();
    let sealer = spawn_slow_sealer(sealed);
    let gate = boot_gateway(vec![sealer.addr.clone()]);
    let stats = gate.stats().clone();
    let mut conn = raw_session(&gate.tcp_addr().to_string(), 4);
    conn.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let body = b"acttrace v1 10\nS 1 2 0 7 8\n";
    let opener = Request::TracePutStart { key: "slow-0".into(), workload: "seq".into() };
    send_all(&mut conn, 1, &[opener]);
    send_all(&mut conn, 1, &chunks(body, 8));
    send_all(&mut conn, 1, &[seal(body)]);
    backend_sealed.recv_timeout(Duration::from_secs(5)).expect("the backend read STREAM_END");

    gate.shutdown();
    gate.join();
    assert_eq!(stats.streams_relayed(), 1, "join returned only after the verdict was relayed");
    assert_eq!(stats.requests_in_flight(), 0, "nothing is left in flight after join");
    assert_eq!(read_reply(&mut conn), (1, Reply::Stored("stored slow-0".into())));
    assert!(read_frame(&mut conn).is_err(), "one reply, then the gateway lets go");
}

/// A raw session on `addr`: `HELLO` for `window`, ack read.
fn raw_session(addr: &str, window: u32) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_all(&mut stream, 0, &[Request::Hello { window }]);
    assert_eq!(read_frame(&mut stream).expect("hello ack").kind, FrameKind::HelloAck);
    stream
}

/// Send each of `requests` as one frame under request id `id`.
fn send_all(stream: &mut TcpStream, id: u32, requests: &[Request]) {
    for request in requests {
        write_frame(&mut *stream, &request.to_frame().with_request(id)).expect("send");
    }
}

/// Read one reply frame: its request id and decoded reply.
fn read_reply(stream: &mut TcpStream) -> (u32, Reply) {
    let frame = read_frame(stream).expect("reply frame");
    (frame.request_id, Reply::from_frame(&frame).expect("decode"))
}

/// `bytes` as `STREAM_CHUNK`s of `chunk` bytes.
fn chunks(bytes: &[u8], chunk: usize) -> Vec<Request> {
    bytes.chunks(chunk).map(|c| Request::StreamChunk(c.to_vec())).collect()
}

/// The `STREAM_END` that seals an upload of `bytes`.
fn seal(bytes: &[u8]) -> Request {
    Request::StreamEnd { crc32: act_store::crc32::crc32(bytes), total_len: bytes.len() as u64 }
}

/// A session's `STATUS` counter `name` (the gateway's own, not its fleet's).
fn status_counter(session: &mut TcpStream, id: u32, name: &str) -> u64 {
    send_all(session, id, &[Request::Status]);
    let (got, reply) = read_reply(session);
    let Reply::StatusMetrics(_, snap) = reply else { panic!("expected STATUS, got {reply:?}") };
    assert_eq!(got, id);
    snap.counter(name).expect("counter in the snapshot")
}

/// A backend, and a gateway in front of it: the two ends a client may
/// speak the session protocol to.
fn daemon_and_gateway() -> (Server, Gateway) {
    let backend = boot_backend();
    let gate = boot_gateway(vec![addr_of(&backend)]);
    (backend, gate)
}

#[test]
fn a_refused_or_failed_upload_gets_exactly_one_reply() {
    let (backend, gate) = daemon_and_gateway();
    let spec = tiny_spec("seq", 0);
    let failing = trace_bytes(0, true);
    for addr in [addr_of(&backend), gate.tcp_addr().to_string()] {
        Client::builder().addr(addr.clone()).build().unwrap().train(&spec).expect("warm");
        let mut session = raw_session(&addr, 4);
        let start = Request::DiagnoseStart(spec.clone());

        // A second HELLO: one ERROR, and the session goes on.
        send_all(&mut session, 9, &[Request::Hello { window: 4 }]);
        assert_eq!(read_reply(&mut session), (9, Reply::Error("session already open".into())));

        // A bad record line in the first chunk: one ERROR naming the line,
        // once the upload's STREAM_END has come in.
        let upload = b"acttrace v1 10\nS 1 2 0 7 8\nX not a record\nS 3 4 0 7 8\n";
        let (head, tail) = upload.split_at(42);
        send_all(&mut session, 1, &[start.clone(), Request::StreamChunk(head.to_vec())]);
        send_all(&mut session, 1, &chunks(tail, 6));
        send_all(&mut session, 1, &[seal(upload)]);
        let (id, reply) = read_reply(&mut session);
        let Reply::Error(why) = reply else { panic!("{addr}: expected an ERROR, got {reply:?}") };
        assert_eq!(id, 1);
        assert!(why.contains("bad trace payload") && why.contains("line 3"), "{addr}: {why}");

        // A STREAM_END with the wrong CRC: one crc-mismatch ERROR.
        let wrong = Request::StreamEnd {
            crc32: act_store::crc32::crc32(&failing) ^ 1,
            total_len: failing.len() as u64,
        };
        send_all(&mut session, 2, &[start.clone(), Request::StreamChunk(failing.clone()), wrong]);
        let (id, reply) = read_reply(&mut session);
        assert!(matches!(&reply, Reply::Error(why) if why.contains("crc mismatch")), "{reply:?}");
        assert_eq!(id, 2);

        // An opener refused BUSY while another upload is open: its frames
        // are dropped, and the open upload's own frames still reach it.
        send_all(&mut session, 3, std::slice::from_ref(&start));
        send_all(&mut session, 4, std::slice::from_ref(&start));
        assert_eq!(read_reply(&mut session), (4, Reply::Busy));
        send_all(&mut session, 4, &chunks(&failing, 64));
        send_all(&mut session, 3, &chunks(&failing, 64));
        send_all(&mut session, 4, &[seal(&failing)]);
        send_all(&mut session, 3, &[seal(&failing)]);
        let (id, reply) = read_reply(&mut session);
        assert!(matches!(reply, Reply::Diagnosis(_)), "{addr}: {reply:?}");
        assert_eq!(id, 3);

        // The client made no protocol error, and the BUSY was counted.
        assert_eq!(status_counter(&mut session, 5, "protocol_errors"), 0, "{addr}");
        assert_eq!(status_counter(&mut session, 5, "requests_rejected_busy"), 1, "{addr}");

        // A STREAM_END under an id that never opened an upload is one.
        send_all(&mut session, 6, &[seal(&failing)]);
        let reply = Reply::Error("stream frame outside an open stream".into());
        assert_eq!(read_reply(&mut session), (6, reply), "{addr}");
        assert_eq!(status_counter(&mut session, 7, "protocol_errors"), 1, "{addr}");
    }

    gate.shutdown();
    gate.join();
    backend.shutdown();
    backend.join();
}

#[test]
fn a_full_window_answers_busy_and_counts_it() {
    let (backend, gate) = daemon_and_gateway();
    let sleeper = Request::Train(ModelSpec { seed: 500, ..ModelSpec::new("__sleep") });
    for addr in [addr_of(&backend), gate.tcp_addr().to_string()] {
        let mut session = raw_session(&addr, 2);
        for id in 1..=3 {
            send_all(&mut session, id, std::slice::from_ref(&sleeper));
        }
        let mut replies: Vec<_> = (0..3).map(|_| read_reply(&mut session)).collect();
        replies.sort_by_key(|&(id, _)| id);
        let slept = Reply::Trained("slept 500ms".into());
        assert_eq!(replies, [(1, slept.clone()), (2, slept), (3, Reply::Busy)], "{addr}");
        assert_eq!(status_counter(&mut session, 4, "requests_rejected_busy"), 1, "{addr}");
    }
    assert_eq!(gate.stats().rejected_busy(), 1);

    gate.shutdown();
    gate.join();
    backend.shutdown();
    backend.join();
}

/// One raw framed exchange with the gateway, no client-library smarts.
fn raw_exchange(addr: &str, frame: &Frame) -> Frame {
    let mut conn = TcpStream::connect(addr).expect("connect to gateway");
    write_frame(&mut conn, frame).expect("send frame");
    read_frame(&mut conn).expect("reply frame")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any well-formed request passes through the gateway byte-identically:
    /// an echo backend hands its payload straight back, and the client
    /// sees it unchanged, under its own request id.
    #[test]
    fn frames_pass_through_byte_identical(
        request_id in any::<u32>(),
        workload_ix in 0usize..4,
        seed in 0u64..1000,
        traces in 1u32..32,
    ) {
        let echo = spawn_stub(|frame| Reply::TraceData(frame.payload));
        let gate = boot_gateway(vec![echo.addr.clone()]);
        let addr = gate.tcp_addr().to_string();

        let workload = ["seq", "prodcons", "pipeline", "mutex"][workload_ix];
        let mut spec = tiny_spec(workload, seed);
        spec.traces = traces;
        let sent = Request::Train(spec).to_frame().with_request(request_id);
        let got = raw_exchange(&addr, &sent);

        prop_assert_eq!(got.kind, FrameKind::TraceData);
        prop_assert_eq!(got.request_id, request_id);
        prop_assert_eq!(&got.payload, &sent.payload);

        gate.shutdown();
        gate.join();
    }
}

#[test]
fn frames_of_other_versions_get_one_error_then_eof() {
    let backend = boot_backend();
    let gate = boot_gateway(vec![addr_of(&backend)]);
    let addr = gate.tcp_addr().to_string();

    for version in [1u8, 2, 3, 5] {
        // Versions 1-3 had no request id, so their header is 10 bytes;
        // a later version is assumed to keep v4's 14-byte header.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Status.to_frame().with_request(7)).expect("encode");
        wire[4] = version;
        if version < 4 {
            wire.truncate(10);
        }
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        stream.write_all(&wire).expect("send");
        match Reply::from_frame(read_frame(&mut stream).expect("one reply frame")) {
            Ok(Reply::Error(msg)) => {
                assert!(msg.contains(&format!("protocol version {version}")), "v{version}: {msg}")
            }
            other => panic!("v{version} frame must get ERROR, got {other:?}"),
        }
        let mut rest = [0u8; 1];
        assert_eq!(stream.read(&mut rest).expect("clean close"), 0, "v{version}: EOF after ERROR");
    }

    gate.shutdown();
    gate.join();
    backend.shutdown();
    backend.join();
}

#[test]
fn a_silent_client_does_not_stall_other_clients() {
    let backend = boot_backend();
    let gate = boot_gateway(vec![addr_of(&backend)]);
    // Connects and never sends a byte, for longer than the client below
    // is willing to wait. The listener accepts in arrival order, so this
    // connection is ahead of the client's.
    let silent = TcpStream::connect(gate.tcp_addr()).expect("connect");
    let client = Client::builder()
        .addr(gate.tcp_addr().to_string())
        .timeouts(Duration::from_secs(2), Duration::from_secs(2))
        .build()
        .expect("client builds");
    let status = client.status().expect("STATUS behind a silent client must succeed");
    assert!(status.text.contains("act-gate status"), "odd status:\n{}", status.text);
    drop(silent);

    gate.shutdown();
    gate.join();
    backend.shutdown();
    backend.join();
}

#[test]
fn status_aggregates_the_whole_fleet() {
    let backends: Vec<Server> = (0..2).map(|_| boot_backend()).collect();
    let gate = boot_gateway(backends.iter().map(addr_of).collect());
    let client = gate_client(&gate);

    // Put one trained model on each backend's shard.
    for want in 0..2 {
        let seed = seed_owned_by(&gate, "seq", want);
        client.train(&tiny_spec("seq", seed)).expect("train");
    }

    let status = client.status().expect("status");
    let (text, snap) = (status.text, status.metrics.expect("metrics from the gateway"));
    for needle in [
        "act-gate status",
        "backends 2",
        "backends_up 2",
        "replies_relayed 2",
        "fleet_cache_misses 2",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
    for i in 0..2 {
        assert!(text.contains(&format!("-- backend {i} ")), "no backend {i} section:\n{text}");
    }
    // The snapshot namespaces the fleet rollup and each backend's metrics.
    let fleet_trained = snap.counter("fleet.cache_trained").expect("fleet rollup in snapshot");
    assert_eq!(fleet_trained, 2, "one cold train per backend");
    let per_backend: u64 = (0..2)
        .map(|i| snap.counter(&format!("backend{i}.cache_trained")).expect("backend section"))
        .sum();
    assert_eq!(per_backend, fleet_trained, "rollup must equal the sum of the parts");

    gate.shutdown();
    gate.join();
    for b in backends {
        b.shutdown();
        b.join();
    }
}

#[test]
fn gateway_shutdown_drains_without_touching_backends() {
    let backend = boot_backend();
    let gate = boot_gateway(vec![addr_of(&backend)]);
    gate_client(&gate).shutdown().expect("shutdown acked with BYE");
    assert!(gate.is_shutting_down());
    gate.join();

    // The backend outlives its gateway.
    let direct = Client::builder().addr(addr_of(&backend)).build().expect("client builds");
    direct.status().expect("backend still up");
    backend.shutdown();
    backend.join();
}

/// `join` returns only once every session thread has ended, so an
/// `act gate` process never exits under a session still writing its `BYE`.
#[test]
fn join_waits_for_every_session_thread() {
    let backend = boot_backend();
    let gate = boot_gateway(vec![addr_of(&backend)]);
    let stats = gate.stats().clone();
    let addr = gate.tcp_addr().to_string();
    let _idle = raw_session(&addr, 4);
    let mut bye = TcpStream::connect(&addr).expect("connect");
    send_all(&mut bye, 7, &[Request::Shutdown]);
    assert_eq!(read_reply(&mut bye), (7, Reply::Bye));
    gate.join();
    assert_eq!(stats.sessions_open(), 0, "join returned under a live session thread");
    backend.shutdown();
    backend.join();
}

#[test]
fn a_drain_wakes_the_blocked_acceptor() {
    let backend = boot_backend();
    for how in ["shutdown()", "shutdown() twice", "a SHUTDOWN frame"] {
        let gate = boot_gateway(vec![addr_of(&backend)]);
        match how {
            "shutdown()" => gate.shutdown(),
            "shutdown() twice" => {
                gate.shutdown();
                gate.shutdown();
            }
            _ => gate_client(&gate).shutdown().expect("shutdown acked with BYE"),
        }
        // Joined on a helper thread, so an acceptor left blocked fails the
        // test instead of hanging it.
        let (done, joined) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            gate.join();
            let _ = done.send(());
        });
        assert!(
            joined.recv_timeout(Duration::from_secs(2)).is_ok(),
            "drained by {how}: join took over 2 s"
        );
    }
    backend.shutdown();
    backend.join();
}

#[test]
fn client_retry_rides_through_a_gateway_queue_spike() {
    // The backend grants its pooled session a window of 1 and holds every
    // answer until the test releases it. With `queue_depth: 1` the gateway
    // holds one request — on the backend — and answers the rest BUSY; the
    // act-client retry absorbs that. The backend is released only once
    // every client's first try has been admitted or refused, so the held
    // request is answered long before any retry, which waits at least half
    // its 400 ms backoff.
    let released = Arc::new(AtomicBool::new(false));
    let hold = released.clone();
    let stub = spawn_stub_with(1, move |_| {
        while !hold.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Reply::Trained("stub".into())
    });
    let cfg = GateConfig {
        backends: vec![stub.addr.clone()],
        workers: 1,
        queue_depth: 1,
        connect_timeout: Duration::from_millis(500),
        probe_timeout: Duration::from_millis(500),
        ..GateConfig::default()
    };
    let gate = Gateway::start(cfg).expect("gateway boots");
    let addr = gate.tcp_addr().to_string();

    let start = Arc::new(Barrier::new(5));
    let threads: Vec<_> = (0..5)
        .map(|i| {
            let addr = addr.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                let client = Client::builder()
                    .addr(addr)
                    .retry(Duration::from_millis(400), 7 + i)
                    .build()
                    .expect("client builds");
                start.wait();
                client.train(&tiny_spec("seq", i))
            })
        })
        .collect();
    let stats = gate.stats().clone();
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats.requests_in_flight() as u64 + stats.rejected_busy() < 5 {
        assert!(Instant::now() < deadline, "the five first tries never all landed");
        std::thread::sleep(Duration::from_millis(1));
    }
    released.store(true, Ordering::SeqCst);
    let replies: Vec<_> = threads.into_iter().map(|t| t.join().expect("client thread")).collect();
    assert!(gate.stats().rejected_busy() >= 1, "the full queue must have answered BUSY");
    for reply in &replies {
        assert_eq!(reply.as_deref().ok(), Some("stub"), "the retry absorbs BUSY: {replies:?}");
    }
    assert_eq!(gate.stats().relayed(), 5);

    gate.shutdown();
    gate.join();
}

/// The gateway's own `session_threads_started`, read on a one-shot
/// connection (which may start one more).
fn gate_threads_started(gate: &Gateway) -> u64 {
    let mut conn = TcpStream::connect(gate.tcp_addr()).expect("connect");
    status_counter(&mut conn, 1, "session_threads_started")
}

/// A client that sends one request per connection and hangs up finds a
/// session thread parked by the connection before it, instead of costing
/// the gateway a thread spawn each.
#[test]
fn one_shot_requests_reuse_parked_session_threads() {
    let (backend, gate) = daemon_and_gateway();
    let client = gate_client(&gate);
    let spec = tiny_spec("seq", 0);
    client.train(&spec).expect("warm-up");
    let before = gate_threads_started(&gate);
    for _ in 0..50 {
        client.train(&spec).expect("train through the gateway");
    }
    let started = gate_threads_started(&gate) - before;
    assert!(started <= 5, "51 one-shot connections started {started} session threads");

    gate.shutdown();
    gate.join();
    backend.shutdown();
    backend.join();
}

/// A drain ends the parked session threads at once: `join` does not wait
/// out their park.
#[test]
fn join_returns_promptly_with_session_threads_parked() {
    let (backend, gate) = daemon_and_gateway();
    for _ in 0..3 {
        assert!(gate_threads_started(&gate) >= 1, "STATUS came from a session thread");
    }
    let stats = gate.stats().clone();
    gate.shutdown();
    let drained = Instant::now();
    gate.join();
    assert!(drained.elapsed() < Duration::from_secs(1), "join took {:?}", drained.elapsed());
    assert_eq!(stats.sessions_open(), 0);
    backend.shutdown();
    backend.join();
}

#[test]
fn a_backend_that_stops_reading_stalls_only_the_sessions_sending_to_it() {
    // Backend 0 grants its pooled session a window of 1, reads one
    // request, and then neither answers nor reads until released.
    let released = Arc::new(AtomicBool::new(false));
    let hold = released.clone();
    let stalled = spawn_stub_with(1, move |_| {
        while !hold.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Reply::Trained("stub".into())
    });
    let real = boot_backend();
    // One forwarding worker: a worker that sent to the stalled backend
    // would hold up every other session's requests.
    let cfg = GateConfig {
        backends: vec![stalled.addr.clone(), addr_of(&real)],
        workers: 1,
        connect_timeout: Duration::from_millis(500),
        probe_interval: Duration::from_millis(100),
        probe_timeout: Duration::from_millis(500),
        ..GateConfig::default()
    };
    let gate = Gateway::start(cfg).expect("gateway boots");
    let addr = gate.tcp_addr().to_string();

    // Two requests for the stalled backend: the first fills its window,
    // so the second waits for a slot that does not come.
    let stuck = Request::Train(tiny_spec("seq", seed_owned_by(&gate, "seq", 0)));
    let mut waiting = raw_session(&addr, 4);
    send_all(&mut waiting, 1, std::slice::from_ref(&stuck));
    send_all(&mut waiting, 2, std::slice::from_ref(&stuck));
    let deadline = Instant::now() + Duration::from_secs(5);
    while gate.stats().requests_in_flight() < 2 {
        assert!(Instant::now() < deadline, "the two requests never got admitted");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Another session's request routes to the live backend and is served.
    let spec = tiny_spec("seq", seed_owned_by(&gate, "seq", 1));
    let other = Client::builder()
        .addr(addr.clone())
        .timeouts(Duration::from_secs(2), Duration::from_secs(5))
        .build()
        .expect("client builds");
    let summary = other.train(&spec).expect("a session sending elsewhere is not stalled");
    assert!(summary.contains("trained seq"), "odd summary: {summary}");

    // Released, the stalled backend answers both, in order.
    released.store(true, Ordering::SeqCst);
    waiting.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let stub = Reply::Trained("stub".into());
    assert_eq!(read_reply(&mut waiting), (1, stub.clone()));
    assert_eq!(read_reply(&mut waiting), (2, stub));

    gate.shutdown();
    gate.join();
    real.shutdown();
    real.join();
}

#[test]
fn a_request_past_the_in_flight_cap_gets_busy_and_is_never_sent() {
    let backend = boot_backend();
    let cfg = GateConfig {
        backends: vec![addr_of(&backend)],
        queue_depth: 1,
        connect_timeout: Duration::from_millis(500),
        probe_timeout: Duration::from_millis(500),
        ..GateConfig::default()
    };
    let gate = Gateway::start(cfg).expect("gateway boots");
    let mut session = raw_session(&gate.tcp_addr().to_string(), 4);
    let sleeper = Request::Train(ModelSpec { seed: 500, ..ModelSpec::new("__sleep") });
    send_all(&mut session, 1, &[sleeper]);
    let deadline = Instant::now() + Duration::from_secs(2);
    while gate.stats().requests_in_flight() < 1 {
        assert!(Instant::now() < deadline, "the sleeper never got admitted");
        std::thread::sleep(Duration::from_millis(1));
    }

    // One forward is out, so the next request is refused at the door.
    send_all(&mut session, 2, &[Request::Train(tiny_spec("seq", 0))]);
    assert_eq!(read_reply(&mut session), (2, Reply::Busy));
    assert_eq!(read_reply(&mut session), (1, Reply::Trained("slept 500ms".into())));
    assert_eq!(gate.stats().rejected_busy(), 1);

    // The backend read the sleeper and nothing else.
    let direct = Client::builder().addr(addr_of(&backend)).build().expect("client builds");
    let snap = direct.status().expect("backend status").metrics.expect("metrics");
    assert_eq!(snap.counter("req_train"), Some(1), "the refused request reached the backend");

    gate.shutdown();
    gate.join();
    backend.shutdown();
    backend.join();
}

#[test]
fn a_drain_answers_every_forward_in_flight_exactly_once() {
    let backend = boot_backend();
    let gate = boot_gateway(vec![addr_of(&backend)]);
    let stats = gate.stats().clone();

    // Six 200 ms sleeps in flight on one raw session, so every reply frame
    // the gateway writes is seen.
    let mut conn = TcpStream::connect(gate.tcp_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    write_frame(&mut conn, &Request::Hello { window: 8 }.to_frame()).expect("hello");
    assert_eq!(read_frame(&mut conn).expect("ack").kind, FrameKind::HelloAck);
    let sleeper = Request::Train(ModelSpec { seed: 200, ..ModelSpec::new("__sleep") });
    for id in 1..=6 {
        write_frame(&mut conn, &sleeper.to_frame().with_request(id)).expect("send");
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    while stats.requests_in_flight() < 6 {
        assert!(Instant::now() < deadline, "six requests never got admitted");
        std::thread::sleep(Duration::from_millis(5));
    }

    gate.shutdown();
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        gate.join();
        let _ = done.send((stats.relayed(), stats.requests_in_flight()));
    });
    // Every request gets one reply; once the last one is out, the
    // gateway lets go of the connection.
    let mut answered = Vec::new();
    while let Ok(frame) = read_frame(&mut conn) {
        let reply = Reply::from_frame(&frame).expect("decode");
        assert_eq!(reply, Reply::Trained("slept 200ms".into()), "id {}", frame.request_id);
        answered.push(frame.request_id);
    }
    answered.sort_unstable();
    assert_eq!(answered, (1..=6).collect::<Vec<u32>>(), "one reply per request");
    let (relayed, in_flight) =
        joined.recv_timeout(Duration::from_secs(5)).expect("join returned within 5 s");
    assert_eq!(relayed, 6, "join returned only after the last reply");
    assert_eq!(in_flight, 0, "nothing is left in flight after join");

    backend.shutdown();
    backend.join();
}

#[test]
fn pipelined_session_fails_over_with_four_requests_in_flight() {
    let backends: Vec<Server> = (0..2).map(|_| boot_backend()).collect();
    // An hour-long probe interval again pins down-discovery to the
    // forwarding path: the corpse must be found under pipelined load.
    let cfg = GateConfig {
        backends: backends.iter().map(addr_of).collect(),
        connect_timeout: Duration::from_millis(500),
        probe_interval: Duration::from_secs(3600),
        probe_timeout: Duration::from_millis(500),
        ..GateConfig::default()
    };
    let gate = Gateway::start(cfg).expect("gateway boots");

    // Let the startup probe sweep finish while both backends are alive, so
    // the kill below is discovered on the forwarding path — not by a probe
    // that happens to run first and quietly mark the victim down.
    for _ in 0..500 {
        if gate.stats().probes_completed() >= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(gate.stats().probes_completed() >= 2, "startup probe sweep never finished");

    // Four distinct keys, every one owned by the backend about to die.
    let victim = 0usize;
    let seeds: Vec<u64> = (0..256)
        .filter(|&seed| gate.ring().owner(&key_of(&tiny_spec("seq", seed))) == victim)
        .take(4)
        .collect();
    assert_eq!(seeds.len(), 4, "need four keys on the victim backend");

    let mut backends = backends;
    let victim_server = backends.remove(victim);
    victim_server.shutdown();
    victim_server.join();

    let client = Client::builder()
        .addr(gate.tcp_addr().to_string())
        .pipeline_depth(8)
        .build()
        .expect("client builds");
    let session = client.pipeline().expect("session to the gateway");
    assert_eq!(gate.stats().sessions_open(), 1, "the HELLO must have opened a gateway session");

    // Fire all four before waiting on any: four requests genuinely in
    // flight on one session, each needing its own failover to survive.
    let pending: Vec<_> = seeds
        .iter()
        .map(|&seed| session.call(&Request::Train(tiny_spec("seq", seed))).expect("call enqueues"))
        .collect();
    for p in pending {
        match p.wait().expect("pipelined reply") {
            Reply::Trained(summary) => assert!(summary.contains("seq"), "odd summary: {summary}"),
            other => panic!("expected Trained after failover, got {other:?}"),
        }
    }
    // The draining victim may answer BUSY before its socket closes; either
    // failover flavor proves the requests hopped off the dead owner.
    assert!(
        gate.stats().failovers() + gate.stats().busy_failovers() >= 1,
        "the dead owner must have triggered a failover"
    );
    assert_eq!(gate.stats().failed(), 0, "no client-visible failures");
    assert_eq!(gate.stats().relayed(), 4, "all four pipelined replies relayed");

    drop(session);
    drop(client);
    gate.shutdown();
    gate.join();
    for b in backends {
        b.shutdown();
        b.join();
    }
}

/// Serialize a `seq` run from `base_seed` on: a failing one when
/// `failing`, else a correct one.
fn trace_bytes(base_seed: u64, failing: bool) -> Vec<u8> {
    let w = act_workloads::registry::by_name("seq").expect("seq workload");
    let norm = w.norm_code_len().unwrap_or_else(|| w.build(&w.default_params()).program.code_len());
    for seed in base_seed..base_seed + 64 {
        let params = w.default_params().with_seed(seed);
        let built = w.build(&if failing { params.triggered() } else { params });
        let mut collector = act_trace::collector::TraceCollector::new(norm);
        let run_cfg =
            act_sim::config::MachineConfig { seed, jitter_ppm: 10_000, ..Default::default() };
        let outcome =
            act_sim::machine::Machine::new(&built.program, run_cfg).run_observed(&mut collector);
        if if failing { built.is_failure(&outcome) } else { built.is_correct(&outcome) } {
            return act_trace::io::trace_to_bytes(&collector.into_trace());
        }
    }
    panic!("no matching seq run in 64 seeds from {base_seed}");
}

/// A 2-backend gateway whose fleet holds a warm model and one stored
/// trace per backend, all put there through the gateway. Dropping it
/// drains the gateway and the backends and removes their corpora.
struct ShardedFleet {
    gate: Option<Gateway>,
    backends: Vec<String>,
    spec: ModelSpec,
    failing: Vec<u8>,
    /// One corpus key per backend (index = owner).
    stored: Vec<String>,
    servers: Vec<Server>,
    corpora: Vec<PathBuf>,
}

impl Drop for ShardedFleet {
    fn drop(&mut self) {
        if let Some(gate) = self.gate.take() {
            gate.shutdown();
            gate.join();
        }
        for server in self.servers.drain(..) {
            server.shutdown();
            server.join();
        }
        for dir in &self.corpora {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl ShardedFleet {
    /// The request `op` draws from a fixed vocabulary whose replies are
    /// deterministic and order-independent: fault-hook sleeps echo their
    /// duration, diagnoses hit the warm model, trace gets return stored
    /// bytes.
    fn request(&self, op: u8) -> Request {
        match op % 5 {
            0 | 1 => Request::Train(ModelSpec {
                seed: 5 + (op as u64 % 7) * 3,
                ..ModelSpec::new("__sleep")
            }),
            2 => Request::Diagnose(self.spec.clone(), self.failing.clone()),
            n => Request::TraceGet { key: self.stored[n as usize - 3].clone() },
        }
    }

    /// The backend the gateway's ring gives `request`.
    fn owner(&self, request: &Request) -> &str {
        let key = match request {
            Request::Train(spec) | Request::Diagnose(spec, _) => key_of(spec),
            Request::TraceGet { key } => format!("trace:{key}"),
            other => panic!("not in the vocabulary: {other:?}"),
        };
        &self.backends[self.gate().ring().owner(&key)]
    }

    fn gate(&self) -> &Gateway {
        self.gate.as_ref().expect("the gateway runs until the fleet drops")
    }
}

fn sharded_fleet() -> ShardedFleet {
    let corpora: Vec<PathBuf> = (0..2)
        .map(|i| std::env::temp_dir().join(format!("act-gate-prop-{i}-{}", std::process::id())))
        .collect();
    let servers: Vec<Server> = corpora
        .iter()
        .map(|dir| {
            let _ = std::fs::remove_dir_all(dir);
            let cfg = ServeConfig {
                tcp_addr: Some("127.0.0.1:0".to_string()),
                workers: 2,
                queue_depth: 64,
                corpus_dir: Some(dir.clone()),
                ..ServeConfig::default()
            };
            Server::start(cfg).expect("backend boots")
        })
        .collect();
    let backends: Vec<String> = servers.iter().map(addr_of).collect();
    let gate = boot_gateway(backends.clone());
    let client = gate_client(&gate);
    let spec = tiny_spec("seq", 0);
    client.train(&spec).expect("warm the model through the gateway");
    let stored: Vec<String> = (0..2)
        .map(|want| {
            let key = (0..)
                .map(|n| format!("prop-{n}"))
                .find(|key| gate.ring().owner(&format!("trace:{key}")) == want)
                .expect("some key lands on every backend");
            let bytes = trace_bytes(100 * want as u64, false);
            client.trace_put(&key, "seq", &bytes).expect("store through the gateway");
            key
        })
        .collect();
    ShardedFleet {
        gate: Some(gate),
        backends,
        spec,
        failing: trace_bytes(0, true),
        stored,
        servers,
        corpora,
    }
}

/// Pipelined through a 2-backend gateway at any depth and in any
/// issue/wait order, every reply is byte-identical to the one its owner
/// gives the same request sent straight to it, one frame on a connection
/// of its own.
#[test]
fn any_pipelined_interleaving_through_a_gateway_matches_one_frame_requests_to_the_owners() {
    let fleet = sharded_fleet();
    let plans = (2u32..9, prop::collection::vec((any::<u8>(), any::<u8>()), 1..12));
    let mut runner = TestRunner::new(ProptestConfig::with_cases(12));
    let outcome = runner.run(&plans, |(depth, plan)| {
        let mut expected = Vec::new();
        for (op, _) in &plan {
            let req = fleet.request(*op);
            let mut conn = TcpStream::connect(fleet.owner(&req)).expect("connect to owner");
            write_frame(&mut conn, &req.to_frame()).expect("send");
            let frame = read_frame(&mut conn).expect("reply");
            expected.push((frame.kind, frame.payload));
        }

        let gate = act_serve::Endpoint::Tcp(fleet.gate().tcp_addr().to_string());
        let session =
            act_client::session::Session::open(&gate, &act_client::ClientConfig::default(), depth)
                .expect("session opens");
        prop_assert_eq!(session.window(), depth);
        let wire = |p: act_client::session::Pending| {
            let frame = p.wait().expect("pipelined reply").to_frame();
            (frame.kind, frame.payload)
        };
        let mut pending: Vec<(usize, act_client::session::Pending)> = Vec::new();
        let mut got = vec![None; plan.len()];
        for (i, (op, pick)) in plan.iter().enumerate() {
            // Wait on a plan-chosen request whenever the window is full.
            while pending.len() >= session.window() as usize {
                let (slot, p) = pending.swap_remove(*pick as usize % pending.len());
                got[slot] = Some(wire(p));
            }
            pending.push((i, session.call(&fleet.request(*op)).expect("send pipelined")));
        }
        while let Some((slot, p)) = pending.pop() {
            got[slot] = Some(wire(p));
        }
        let got: Vec<_> = got.into_iter().map(|g| g.expect("every reply collected")).collect();

        prop_assert_eq!(got, expected);
        Ok(())
    });
    outcome.unwrap();
}

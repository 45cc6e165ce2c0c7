//! End-to-end gateway tests: boot real in-process act-serve backends (and
//! a few misbehaving stubs) behind an act-gate daemon and drive it with
//! real client connections.
//!
//! Covers the gateway acceptance criteria:
//! - killing a key's owning backend mid-fleet fails the request over to
//!   the next ring owner with zero client-visible errors — one request per
//!   connection and with four pipelined requests in flight on one session;
//! - a backend answering `BUSY` gets the same failover treatment;
//! - request payloads and reply payloads pass through byte-identically,
//!   under the client's request id (proptest over payload shapes);
//! - `STATUS` aggregates every backend's metrics under one reply;
//! - a client that connects and stays silent holds up nobody else;
//! - a frame of any protocol version but 4 gets one `ERROR`, then EOF;
//! - a drain wakes the acceptor blocked in `accept`.

use act_client::{Client, MetricsSnapshot};
use act_gate::{GateConfig, Gateway};
use act_serve::conn::{accept_loop, Conn, Listener};
use act_serve::proto::{read_frame, write_frame, Frame, FrameKind};
use act_serve::{ModelSpec, Reply, Request};
use act_serve::{ServeConfig, Server};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::time::Duration;

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

/// A stub backend that speaks sessions: `HELLO` gets an ack, `STATUS` a
/// plausible status (so health checks pass), and every other frame
/// whatever `answer` makes of it, under the frame's request id.
fn spawn_stub(answer: fn(Frame) -> Reply) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("stub binds");
    let addr = listener.local_addr().unwrap().to_string();
    let listener = Listener::Tcp(listener);
    std::thread::spawn(move || {
        let serve = move |mut conn: Conn| {
            while let Ok(frame) = read_frame(&mut conn) {
                let id = frame.request_id;
                let reply = match frame.kind {
                    FrameKind::Hello => Reply::HelloAck { window: 32 },
                    FrameKind::Status => {
                        Reply::StatusMetrics("stub status\n".into(), MetricsSnapshot::new())
                    }
                    _ => answer(frame),
                };
                if write_frame(&mut conn, &reply.to_frame().with_request(id)).is_err() {
                    break;
                }
            }
        };
        // Never drained: the stub lives as long as the test process.
        accept_loop(&listener, &AtomicBool::new(false), "stub-session", serve);
    });
    addr
}

#[test]
fn busy_owner_fails_over_to_the_next_backend() {
    let real = boot_backend();
    let stub_addr = spawn_stub(|_| Reply::Busy);
    // Backend 0 is the always-busy stub, backend 1 the real server.
    let gate = boot_gateway(vec![stub_addr, addr_of(&real)]);
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
        let gate = boot_gateway(vec![echo]);
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
        match Reply::from_frame(&read_frame(&mut stream).expect("one reply frame")) {
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
    // A 1-worker, 1-deep gateway queue over a slow backend: concurrent
    // clients see BUSY, and the act-serve client retry (satellite of this
    // change) absorbs one round of it.
    let backend = boot_backend();
    let cfg = GateConfig {
        backends: vec![addr_of(&backend)],
        workers: 1,
        queue_depth: 1,
        connect_timeout: Duration::from_millis(500),
        probe_timeout: Duration::from_millis(500),
        ..GateConfig::default()
    };
    let gate = Gateway::start(cfg).expect("gateway boots");
    let addr = gate.tcp_addr().to_string();

    let threads: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let client = Client::builder()
                    .addr(addr)
                    .retry(Duration::from_millis(50), 7 + i)
                    .build()
                    .expect("client builds");
                // __sleep holds a worker for `seed` milliseconds.
                client.train(&tiny_spec("__sleep", 30 + i))
            })
        })
        .collect();
    let replies: Vec<_> = threads.into_iter().map(|t| t.join().expect("client thread")).collect();
    let served = replies.iter().filter(|r| r.is_ok()).count();
    assert!(served >= 1, "at least one client must get through: {replies:?}");

    gate.shutdown();
    gate.join();
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

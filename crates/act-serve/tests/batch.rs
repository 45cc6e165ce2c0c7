//! Coalescing-scheduler tests: drive raw sessions against a one-worker
//! daemon with batching on. Batches form from backlog: a `__sleep`
//! occupant holds the worker while the burst queues up behind it, so the
//! next pop finds every companion already queued. The properties the
//! scheduler must hold —
//! - coalesced replies are byte-identical to what a non-batching daemon
//!   answers (batching is invisible on the wire);
//! - requests for different models never share a batch, and every
//!   request id is answered exactly once.

use act_serve::proto::{read_frame, write_frame, ModelSpec, Reply, Request};
use act_serve::server::{ServeConfig, Server};
use act_trace::collector::TraceCollector;
use act_trace::io::trace_to_bytes;
use act_workloads::registry;
use std::collections::HashMap;
use std::net::TcpStream;

/// Boot a one-worker daemon on 127.0.0.1:0 with the given batch size.
fn boot(batch_size: usize) -> (Server, String) {
    let cfg = ServeConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        workers: 1,
        queue_depth: 32,
        batch_size,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("daemon boots");
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    (server, addr)
}

/// A small spec that trains in well under a second.
fn tiny_spec(seed: u64) -> ModelSpec {
    let mut spec = ModelSpec::new("seq");
    spec.traces = 2;
    spec.seq_len = 2;
    spec.hidden = 4;
    spec.max_epochs = 30;
    spec.seed = seed;
    spec
}

/// Serialize a failing `seq` trace the way a production client ships one.
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

/// One raw exchange on a fresh connection, one frame each way.
fn oneshot(addr: &str, request: &Request) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, &request.to_frame()).expect("send");
    let frame = read_frame(&mut stream).expect("reply frame");
    Reply::from_frame(&frame).expect("decode reply")
}

/// A raw multiplexed session (HELLO already acknowledged).
struct RawSession {
    stream: TcpStream,
}

impl RawSession {
    fn open(addr: &str, window: u32) -> RawSession {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_frame(&mut stream, &Request::Hello { window }.to_frame()).expect("send HELLO");
        let frame = read_frame(&mut stream).expect("HELLO_ACK frame");
        match Reply::from_frame(&frame).expect("decode") {
            Reply::HelloAck { window: granted } => assert!(granted >= window, "window granted"),
            other => panic!("expected HELLO_ACK, got {other:?}"),
        }
        RawSession { stream }
    }

    fn send(&mut self, request_id: u32, request: &Request) {
        write_frame(&mut self.stream, &request.to_frame().with_request(request_id))
            .expect("send request");
    }

    /// Hold the daemon's only worker for a while (request id 0), so what
    /// is sent next queues up behind it.
    fn occupy_worker(&mut self) {
        let mut spec = ModelSpec::new("__sleep");
        spec.seed = 300;
        self.send(0, &Request::Train(spec));
    }

    /// Read `n` replies, keyed by the request id each answers.
    fn collect(&mut self, n: usize) -> HashMap<u32, Reply> {
        let mut replies = HashMap::new();
        for _ in 0..n {
            let frame = read_frame(&mut self.stream).expect("reply frame");
            let id = frame.request_id;
            let reply = Reply::from_frame(&frame).expect("decode reply");
            assert!(replies.insert(id, reply).is_none(), "request {id} answered twice");
        }
        replies
    }
}

/// Pull one `key value` counter out of the `STATUS` text block.
fn counter(addr: &str, key: &str) -> u64 {
    let text = match oneshot(addr, &Request::Status) {
        Reply::StatusMetrics(text, _) => text,
        other => panic!("unexpected status reply: {other:?}"),
    };
    text.lines()
        .find_map(|l| l.strip_prefix(key).map(|rest| rest.trim().parse().expect("counter value")))
        .unwrap_or_else(|| panic!("no `{key}` in status:\n{text}"))
}

fn shutdown(server: Server, addr: &str) {
    assert!(matches!(oneshot(addr, &Request::Shutdown), Reply::Bye));
    server.join();
}

#[test]
fn coalesced_replies_are_byte_identical_to_sequential_ones() {
    let (batched, batched_addr) = boot(16);
    let (sequential, sequential_addr) = boot(1);
    let spec = tiny_spec(0);
    let trace = failing_trace_bytes();

    // Warm both daemons so every diagnose is a cache hit (training is
    // deterministic, so the two models are identical).
    for addr in [&batched_addr, &sequential_addr] {
        match oneshot(addr, &Request::Train(spec.clone())) {
            Reply::Trained(_) => {}
            other => panic!("unexpected train reply: {other:?}"),
        }
    }
    let expected = match oneshot(&sequential_addr, &Request::Diagnose(spec.clone(), trace.clone()))
    {
        Reply::Diagnosis(text) => text,
        other => panic!("unexpected sequential reply: {other:?}"),
    };

    let mut session = RawSession::open(&batched_addr, 16);
    session.occupy_worker();
    const BURST: u32 = 8;
    for id in 1..=BURST {
        session.send(id, &Request::Diagnose(spec.clone(), trace.clone()));
    }
    let replies = session.collect(BURST as usize + 1);
    assert!(matches!(replies.get(&0), Some(Reply::Trained(_))), "the occupant is answered too");
    for id in 1..=BURST {
        match replies.get(&id) {
            Some(Reply::Diagnosis(text)) => assert_eq!(
                text, &expected,
                "coalesced reply {id} must be byte-identical to the sequential one"
            ),
            other => panic!("request {id}: unexpected reply {other:?}"),
        }
    }

    assert_eq!(counter(&batched_addr, "coalesced_batches"), 1, "the backlog is one batch");
    assert_eq!(counter(&batched_addr, "coalesce_hits"), BURST as u64);
    shutdown(batched, &batched_addr);
    shutdown(sequential, &sequential_addr);
}

#[test]
fn different_models_never_share_a_batch_and_every_id_is_answered() {
    let (server, addr) = boot(16);
    let (spec_a, spec_b) = (tiny_spec(0), tiny_spec(1));
    let trace = failing_trace_bytes();
    for spec in [&spec_a, &spec_b] {
        match oneshot(&addr, &Request::Train(spec.clone())) {
            Reply::Trained(_) => {}
            other => panic!("unexpected train reply: {other:?}"),
        }
    }

    // Interleave two model keys (same workload, different training seed)
    // on one session; the scheduler must split them into per-key batches
    // and still answer all twelve ids.
    let mut session = RawSession::open(&addr, 16);
    session.occupy_worker();
    const BURST: u32 = 12;
    for id in 1..=BURST {
        let spec = if id % 2 == 0 { &spec_b } else { &spec_a };
        session.send(id, &Request::Diagnose(spec.clone(), trace.clone()));
    }
    let replies = session.collect(BURST as usize + 1);
    for id in 1..=BURST {
        match replies.get(&id) {
            Some(Reply::Diagnosis(text)) => {
                assert!(text.starts_with("diagnosis workload=seq"), "text: {text}")
            }
            other => panic!("request {id}: unexpected reply {other:?}"),
        }
    }
    // The backlog splits into exactly one batch per key.
    assert_eq!(counter(&addr, "coalesced_batches"), 2);
    assert_eq!(counter(&addr, "coalesce_hits"), BURST as u64);
    shutdown(server, &addr);
}

#[test]
fn zero_batch_size_is_rejected_at_boot() {
    let cfg = ServeConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        batch_size: 0,
        ..ServeConfig::default()
    };
    match Server::start(cfg) {
        Err(err) => assert!(err.to_string().contains("batch size"), "err: {err}"),
        Ok(_) => panic!("batch_size 0 must be rejected"),
    }
}

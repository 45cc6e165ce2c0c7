//! The tracked perf-bench harness behind the `perf` binary.
//!
//! ACT's premise is that per-dependence neural validation is cheap enough to
//! run on every retired RAW dependence (§III); the software model has to keep
//! the same discipline. This module measures the four rates that gate it —
//! steady-state classify throughput, online-training throughput, offline
//! training wall-clock, and the end-to-end `table4` campaign — plus the
//! simulator's throughput with and without ACT attached, the service's own
//! kernels (window formation, prune and rank, the corpus codec, CRC-32,
//! text parse and write), and emits `BENCH_hotpath.json` so the trajectory
//! is recorded per PR instead of asserted in prose.
//!
//! Schema (one JSON array, one object per measurement):
//!
//! ```json
//! [
//!   {"bench": "classify_predictions_per_sec", "before": 1.0e6,
//!    "value": 2.5e6, "unit": "ops/s", "jobs": 1}
//! ]
//! ```
//!
//! `before` is optional: the `perf` binary fills it by re-reading a baseline
//! file recorded before an optimization (`--baseline`). Throughput benches
//! (`ops/s`, `MB/s`) and the store's compression `ratio` are
//! higher-is-better; wall-clock benches (`s`) are lower-is-better.

use crate::campaign::{executor_for, table4_spec};
use crate::{
    act_cfg_for, clean_traces, collect_clean_traces, machine_cfg, norm_of, train_workload,
};
use act_core::diagnosis::run_with_act;
use act_core::encoding::{Encoder, FEATURES_PER_DEP};
use act_core::module::DebugEntry;
use act_core::offline::offline_train;
use act_core::postprocess::postprocess;
use act_core::weights::shared;
use act_core::ActError;
use act_fleet::{run_campaign, CampaignSpec};
use act_nn::network::{Network, Topology};
use act_obs::{LocalCounter, Registry};
use act_sim::events::RawDep;
use act_store::column::{decode_chunk, encode_chunk, CHUNK_RECORDS};
use act_store::corpus::text_size_of;
use act_store::crc32::crc32;
use act_trace::correct_set::CorrectSet;
use act_trace::event::{Trace, TraceRecord};
use act_trace::input_gen::{DepRing, WindowFormer};
use act_trace::io::{trace_from_bytes, trace_to_bytes};
use act_workloads::registry;
use std::time::{Duration, Instant};

/// One measurement row of `BENCH_hotpath.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Measurement name (stable across PRs; the trajectory key).
    pub bench: String,
    /// The same measurement from the recorded baseline, if one was given.
    pub before: Option<f64>,
    /// Measured value.
    pub value: f64,
    /// `"ops/s"`, `"MB/s"`, or `"ratio"` (higher is better) — or `"s"`
    /// (lower is better).
    pub unit: String,
    /// Worker threads the measurement used.
    pub jobs: usize,
}

impl BenchEntry {
    fn new(bench: &str, value: f64, unit: &str, jobs: usize) -> Self {
        BenchEntry { bench: bench.to_string(), before: None, value, unit: unit.to_string(), jobs }
    }

    /// Speedup over the baseline (`ops/s`: value/before; `s`: before/value).
    pub fn speedup(&self) -> Option<f64> {
        let before = self.before?;
        if before <= 0.0 || self.value <= 0.0 {
            return None;
        }
        Some(if self.unit == "s" { before / self.value } else { self.value / before })
    }

    /// Percent regression against the baseline, respecting the unit's
    /// direction (positive = worse, negative = improvement). This is what
    /// `perf --gate` compares to its threshold.
    pub fn regression_pct(&self) -> Option<f64> {
        Some((1.0 - self.speedup()?) * 100.0)
    }
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

/// Batch size between clock reads: large enough that `Instant::now` is
/// amortized away, small enough that the target duration is respected.
const BATCH: u64 = 5_000;

/// Calibrated throughput: run `op` in batches until `target` elapses and
/// return operations per second. The returned f32s are folded into a sink so
/// the optimizer cannot delete the loop.
fn throughput(target: Duration, mut op: impl FnMut() -> f32) -> f64 {
    let mut sink = 0.0f32;
    for _ in 0..BATCH {
        sink += op(); // warm-up: touch caches, fault in lazy state
    }
    // Best of three windows: on a small host a single window can land
    // entirely inside a slow scheduling regime, and the CI perf gate
    // needs repeated draws to cluster well inside its threshold.
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        let mut ops = 0u64;
        loop {
            for _ in 0..BATCH {
                sink += op();
            }
            ops += BATCH;
            if start.elapsed() >= target {
                break;
            }
        }
        best = best.max(ops as f64 / start.elapsed().as_secs_f64());
    }
    std::hint::black_box(sink);
    best
}

/// Steady-state classify throughput: per retired dependence, slide the
/// input-generator window, encode the sequence, and run the forward pass —
/// exactly the per-dependence work of `ActModule::process` and of the
/// server-side `classify_trace` loop. The harness topology (N = 2, h = 10).
pub fn classify_predictions_per_sec(target: Duration) -> f64 {
    const SEQ_LEN: usize = 2;
    const IGB_CAP: usize = 8;
    let enc = Encoder::new(4096);
    let mut net = Network::random(Topology::new(FEATURES_PER_DEP * SEQ_LEN, 10), 0.2, 42);
    // A dependence stream with distinct PCs so the encoder's hash work is
    // realistic (constant inputs would let it fold). Power-of-two size and
    // a mask index: a `%` by a runtime length would put an integer divide
    // inside the measured op.
    let ring: [RawDep; 64] = std::array::from_fn(|i| {
        let i = i as u32;
        RawDep { store_pc: 17 * i + 3, load_pc: 29 * i + 7, inter_thread: i.is_multiple_of(3) }
    });
    let mut igb = DepRing::new(IGB_CAP);
    let mut x: Vec<f32> = Vec::new();
    let mut pushed = 0usize;
    throughput(target, move || {
        // `ActModule::process`: push into the input generator's ring, then
        // the last SEQ_LEN entries (oldest first) encoded straight from it.
        igb.push(ring[pushed & 63]);
        pushed += 1;
        if pushed < SEQ_LEN {
            return 0.0;
        }
        enc.encode_iter_into(igb.window(SEQ_LEN), &mut x);
        net.predict(&x)
    })
}

/// The classify loop of [`classify_predictions_per_sec`] with live
/// observability on top: a [`LocalCounter`] bump per prediction, flushed
/// into a registered `act-obs` counter every 256 ops — the pattern a
/// per-dependence counter on the classify path would follow. The gap
/// between this and the plain classify bench *is* the overhead of such a
/// counter; the budget is < 3%.
pub fn obs_classify_predictions_per_sec(target: Duration) -> f64 {
    const SEQ_LEN: usize = 2;
    const IGB_CAP: usize = 8;
    let enc = Encoder::new(4096);
    let mut net = Network::random(Topology::new(FEATURES_PER_DEP * SEQ_LEN, 10), 0.2, 42);
    let ring: [RawDep; 64] = std::array::from_fn(|i| {
        let i = i as u32;
        RawDep { store_pc: 17 * i + 3, load_pc: 29 * i + 7, inter_thread: i.is_multiple_of(3) }
    });
    let registry = Registry::new();
    let predictions = registry.counter("predictions");
    let mut local = LocalCounter::default();
    let mut igb = DepRing::new(IGB_CAP);
    let mut x: Vec<f32> = Vec::new();
    let mut pushed = 0usize;
    let rate = throughput(target, move || {
        igb.push(ring[pushed & 63]);
        pushed += 1;
        if pushed < SEQ_LEN {
            return 0.0;
        }
        enc.encode_iter_into(igb.window(SEQ_LEN), &mut x);
        local.inc();
        if pushed & 255 == 0 {
            local.flush(&predictions);
        }
        net.predict(&x)
    });
    std::hint::black_box(registry.snapshot());
    rate
}

/// Volume-throughput variant of [`throughput`]: run `pass` (one sweep over
/// a fixed payload) until `target` elapses and scale passes/second by the
/// payload's size — MiB, windows or simulated cycles per pass. The
/// per-pass work-product count is folded into a sink so the optimizer
/// cannot delete the sweep.
fn pass_rate(target: Duration, per_pass: f64, mut pass: impl FnMut() -> usize) -> f64 {
    let mut sink = pass(); // warm-up: touch caches, size scratch buffers
    let start = Instant::now();
    let mut passes = 0u64;
    loop {
        sink ^= pass();
        passes += 1;
        if start.elapsed() >= target {
            break;
        }
    }
    std::hint::black_box(sink);
    passes as f64 * per_pass / start.elapsed().as_secs_f64()
}

/// The corpus-store bench payload: clean `lu` traces (the representative
/// workload of the store's compression bar), flattened to one record run,
/// priced in text-codec MiB — the volume a daemon ingests per `TRACE_PUT`.
fn store_bench_payload() -> (Vec<TraceRecord>, f64) {
    let w = registry::by_name("lu").expect("lu kernel registered");
    let traces = collect_clean_traces(w.as_ref(), 0..4);
    assert!(!traces.is_empty(), "lu produced no clean traces");
    let mut records = Vec::new();
    let mut raw = 0u64;
    for t in &traces {
        raw += text_size_of(t);
        records.extend(t.records.iter().cloned());
    }
    (records, raw as f64 / (1 << 20) as f64)
}

/// Columnar encode throughput of the trace store, in text-codec MiB
/// ingested per second — the `act-store` half of a `TRACE_PUT`.
pub fn store_encode_mb_per_sec(target: Duration) -> f64 {
    let (records, mb) = store_bench_payload();
    let mut out = Vec::new();
    pass_rate(target, mb, move || {
        out.clear();
        let mut n = 0usize;
        for chunk in records.chunks(CHUNK_RECORDS) {
            n += encode_chunk(chunk, &mut out);
        }
        n
    })
}

/// Columnar decode throughput of the trace store, in text-codec MiB of
/// reconstructed trace per second — the `act-store` half of a `TRACE_GET`
/// or a train-from-corpus read.
pub fn store_decode_mb_per_sec(target: Duration) -> f64 {
    let (records, mb) = store_bench_payload();
    let mut bodies = Vec::new();
    for chunk in records.chunks(CHUNK_RECORDS) {
        let mut body = Vec::new();
        encode_chunk(chunk, &mut body);
        bodies.push(body);
    }
    let mut recs = Vec::new();
    pass_rate(target, mb, move || {
        let mut n = 0usize;
        for body in &bodies {
            recs.clear();
            decode_chunk(body, &mut recs).expect("bench chunk decodes");
            n += recs.len();
        }
        n
    })
}

/// The store's compression ratio on the representative payload: text-codec
/// bytes over columnar-encoded bytes (the issue's acceptance bar is >= 3).
pub fn store_compression_ratio() -> f64 {
    let (records, _) = store_bench_payload();
    let raw: u64 = {
        let mut t = Trace { records: records.clone(), code_len: 0 };
        t.code_len = 4096;
        text_size_of(&t)
    };
    let mut out = Vec::new();
    for chunk in records.chunks(CHUNK_RECORDS) {
        encode_chunk(chunk, &mut out);
    }
    raw as f64 / out.len().max(1) as f64
}

/// The text-codec bench payload: the store payload's records as one v1
/// text trace — the bytes a `DIAGNOSE` or `TRACE_PUT` carries — with its
/// size in MiB.
fn text_bench_payload() -> (Trace, Vec<u8>, f64) {
    let (records, _) = store_bench_payload();
    let trace = Trace { records, code_len: 4096 };
    let text = trace_to_bytes(&trace);
    let mb = text.len() as f64 / (1 << 20) as f64;
    (trace, text, mb)
}

/// Text parse throughput, in MiB of v1 text per second: the
/// `trace_from_bytes` a daemon runs on every `DIAGNOSE` (and, into the
/// columnar encoder, on every `TRACE_PUT`).
pub fn text_parse_mb_per_sec(target: Duration) -> f64 {
    let (_, text, mb) = text_bench_payload();
    pass_rate(target, mb, move || trace_from_bytes(&text).expect("bench text parses").len())
}

/// Text write throughput, in MiB of v1 text per second: the digit writer
/// behind every `TRACE_GET` reply and `trace_to_bytes`.
pub fn text_write_mb_per_sec(target: Duration) -> f64 {
    let (trace, _, mb) = text_bench_payload();
    pass_rate(target, mb, move || trace_to_bytes(&trace).len())
}

/// CRC-32 throughput, in MiB hashed per second: the check on every
/// segment block the store writes or verifies.
pub fn store_crc32_mb_per_sec(target: Duration) -> f64 {
    let (_, text, mb) = text_bench_payload();
    pass_rate(target, mb, move || crc32(&text) as usize)
}

/// The first correct `lu` run's trace: the representative service-side
/// trace (1,581 records, 529 windows at N = 2).
fn lu_trace() -> Trace {
    let w = registry::by_name("lu").expect("lu kernel registered");
    let trace = clean_traces(w.as_ref(), 0..8).next().expect("lu produced a clean trace");
    trace
}

/// Dependence windows formed and encoded per second over one `lu` trace at
/// N = 2: the Input Generator's former reading the trace's observed loads,
/// each window encoded straight from its thread's ring — the service's
/// classify up to, not including, the network.
pub fn windows_formed_per_sec(target: Duration) -> f64 {
    let trace = lu_trace();
    let enc = Encoder::new(norm_of(registry::by_name("lu").expect("lu").as_ref()));
    let mut former = WindowFormer::new(2);
    let mut x = Vec::new();
    let mut windows = 0;
    former.each_window(&trace, |_, _| windows += 1);
    pass_rate(target, windows as f64, move || {
        let mut sink = 0;
        former.each_window(&trace, |_, w| {
            enc.encode_iter_into(w, &mut x);
            sink ^= x[0].to_bits() as usize;
        });
        sink
    })
}

/// Prune-and-rank calls per second: a 60-entry debug buffer (the paper's
/// capacity) postprocessed against the Correct Set of four `lu` runs.
pub fn prune_rank_per_sec(target: Duration) -> f64 {
    let w = registry::by_name("lu").expect("lu kernel registered");
    let set = CorrectSet::from_traces(&collect_clean_traces(w.as_ref(), 0..4), 2);
    let entries: Vec<DebugEntry> = (0..60u32)
        .map(|i| DebugEntry {
            deps: vec![
                RawDep { store_pc: i % 7, load_pc: 40 + i % 5, inter_thread: i % 2 == 0 },
                RawDep { store_pc: i % 11, load_pc: 50 + i % 3, inter_thread: false },
            ],
            output: 0.1,
            cycle: i as u64,
            tid: 0,
        })
        .collect();
    throughput(target, move || postprocess(&entries, &set).ranked.len() as f32)
}

/// Simulated cycles per second of whole `fft` runs, plain or with a
/// trained ACT module attached to every core (the per-run cost behind the
/// Fig 8 overhead experiment).
pub fn sim_cycles_per_sec(target: Duration, with_act: bool) -> f64 {
    let w = registry::by_name("fft").expect("fft kernel registered");
    let built = w.build(&w.default_params());
    let cfg = act_cfg_for(w.as_ref());
    let store = with_act.then(|| train_workload(w.as_ref(), 4, &cfg).store);
    let run = move || match &store {
        Some(store) => {
            run_with_act(&built.program, machine_cfg(7), &cfg, &shared(store.clone()))
                .machine_stats
                .total_cycles
        }
        None => {
            let mut m = act_sim::machine::Machine::new(&built.program, machine_cfg(7));
            m.run();
            m.stats().total_cycles
        }
    };
    let cycles = run();
    pass_rate(target, cycles as f64, move || run() as usize)
}

/// Online back-propagation throughput on the harness topology: the work of
/// one `Network::train` step in training mode.
pub fn online_train_steps_per_sec(target: Duration) -> f64 {
    let mut net = Network::random(Topology::new(10, 10), 0.2, 7);
    let xs: Vec<Vec<f32>> =
        (0..8usize).map(|k| (0..10).map(|j| ((k * j + 3) % 11) as f32 / 11.0).collect()).collect();
    let mut i = 0usize;
    throughput(target, move || {
        let o = net.train(&xs[i & 7], 1.0);
        i += 1;
        o
    })
}

/// Offline training wall-clock on the `fft` kernel over a real topology
/// grid (the default `M²` search is what the parallel fan-out accelerates).
pub fn offline_train_wall_s(quick: bool, jobs: usize) -> f64 {
    let w = registry::by_name("fft").expect("fft kernel registered");
    let want = if quick { 4 } else { 8 };
    let traces: Vec<_> = clean_traces(w.as_ref(), 0..want as u64 * 2).take(want).collect();
    assert!(!traces.is_empty(), "fft produced no clean traces");
    let mut cfg = act_cfg_for(w.as_ref());
    cfg.search.seq_lens = if quick { vec![2] } else { vec![1, 2] };
    cfg.search.hidden_sizes = if quick { vec![4, 10] } else { vec![2, 4, 6, 8, 10] };
    cfg.train.max_epochs = if quick { 60 } else { 120 };
    cfg.search_workers = jobs;
    let start = Instant::now();
    let trained = offline_train(norm_of(w.as_ref()), &traces, &cfg);
    std::hint::black_box(trained.report.candidates);
    start.elapsed().as_secs_f64()
}

/// End-to-end `table4` campaign wall-clock (offline training of every clean
/// kernel; quick mode trains a three-kernel subset).
pub fn table4_wall_s(quick: bool, jobs: usize) -> f64 {
    let spec = if quick {
        let mut s = CampaignSpec::new("table4-quick", "train", &["lu", "fft", "swaptions"]);
        s.params.insert("traces".into(), "4".into());
        s
    } else {
        table4_spec()
    };
    let exec = executor_for(&spec).expect("train executor resolves");
    let start = Instant::now();
    let report = run_campaign(&spec, jobs, exec);
    assert_eq!(report.aggregate.crashed, 0, "table4 bench job crashed");
    start.elapsed().as_secs_f64()
}

/// End-to-end gateway DIAGNOSE round-trips per second: two in-process
/// act-serve backends behind an act-gate gateway, one pre-trained tiny
/// `seq` model, then timed DIAGNOSE exchanges through the gateway — each
/// op is a full connect + frame + shard + forward + cache-hit diagnose +
/// relay. Timed one op at a time, not with [`throughput`]'s batching: one
/// op is a millisecond-scale network round trip, so a 5000-op batch would
/// overshoot the target a thousandfold.
pub fn gate_diagnose_rps(target: Duration) -> f64 {
    use act_serve::{ServeConfig, Server};
    let backends: Vec<Server> = (0..2)
        .map(|_| {
            Server::start(ServeConfig {
                tcp_addr: Some("127.0.0.1:0".to_string()),
                workers: 2,
                queue_depth: 32,
                ..ServeConfig::default()
            })
            .expect("bench backend boots")
        })
        .collect();
    let gate = act_gate::Gateway::start(act_gate::GateConfig {
        backends: backends.iter().map(|b| b.tcp_addr().expect("tcp").to_string()).collect(),
        ..act_gate::GateConfig::default()
    })
    .expect("bench gateway boots");
    let client = act_client::Client::builder()
        .addr(gate.tcp_addr().to_string())
        .build()
        .expect("endpoint is set");

    let mut spec = act_serve::ModelSpec::new("seq");
    spec.traces = 2;
    spec.hidden = 4;
    spec.max_epochs = 30;
    let trace = crate::campaign::failing_trace_bytes("seq", 0);
    // Warm-up trains the model once; every timed op then measures the
    // serving path, not offline training.
    client.train(&spec).expect("gate bench warm-up train");

    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed() < target {
        client.diagnose(&spec, &trace).expect("gate bench diagnose");
        ops += 1;
    }
    let rate = ops as f64 / start.elapsed().as_secs_f64();
    gate.shutdown();
    gate.join();
    for b in backends {
        b.shutdown();
        b.join();
    }
    rate
}

/// DIAGNOSE round-trips per second against a single act-serve daemon at a
/// given pipeline depth. Depth 1 opens a fresh connection per request,
/// one request on the wire at a time; larger depths ride one
/// multiplexed session with `depth`
/// requests in flight, so the daemon's queue never drains between ops and
/// the per-request connect/teardown round trips disappear. The ratio of
/// a depth-8 run over a depth-1 run is the bench's reason to exist.
pub fn pipelined_diagnose_rps(target: Duration, depth: u32) -> f64 {
    use act_serve::{Reply, Request, ServeConfig, Server};
    use std::collections::VecDeque;
    let server = Server::start(ServeConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        workers: 2,
        queue_depth: 32,
        // Coalescing off: this bench prices *per-request* dispatch, and is
        // the denominator `batched_diagnose_rps` is compared against.
        batch_size: 1,
        ..ServeConfig::default()
    })
    .expect("bench daemon boots");
    let client = act_client::Client::builder()
        .addr(server.tcp_addr().expect("tcp").to_string())
        .pipeline_depth(depth)
        .build()
        .expect("endpoint is set");

    let mut spec = act_serve::ModelSpec::new("seq");
    spec.traces = 2;
    spec.hidden = 4;
    spec.max_epochs = 30;
    let trace = crate::campaign::failing_trace_bytes("seq", 0);
    // Warm-up trains the model once; every timed op is then a cache-hit
    // classify, so the depths compare transport overhead, not training.
    client.train(&spec).expect("pipelined bench warm-up train");

    // Same methodology as `batched_diagnose_rps` (whose recorded speedup
    // divides by this row): full-length windows, best of three trials, so
    // scheduler-interleaving noise on a small host cancels out of the
    // batched/pipelined ratio instead of inflating it.
    let window = target.max(Duration::from_millis(600));
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        let mut ops = 0u64;
        if depth <= 1 {
            while start.elapsed() < window {
                client.diagnose(&spec, &trace).expect("pipelined bench diagnose");
                ops += 1;
            }
        } else {
            let session = client.pipeline().expect("v4 session opens");
            let mut pending = VecDeque::new();
            while start.elapsed() < window {
                while pending.len() < depth as usize {
                    let req = Request::Diagnose(spec.clone(), trace.clone());
                    pending.push_back(session.call(&req).expect("pipelined call enqueues"));
                }
                match pending.pop_front().expect("window is full").wait() {
                    Ok(Reply::Diagnosis(_)) => ops += 1,
                    other => panic!("pipelined bench diagnose: {other:?}"),
                }
            }
            for p in pending {
                let _ = p.wait(); // drain the tail so the next trial starts clean
            }
        }
        best = best.max(ops as f64 / start.elapsed().as_secs_f64());
    }
    server.shutdown();
    server.join();
    best
}

/// DIAGNOSE round-trips per second against a daemon with its coalescing
/// scheduler on (micro-batches of up to `batch` same-model requests), fed
/// by a pipelined v4 session deep enough to keep the queue stocked. The
/// counterpart of [`pipelined_diagnose_rps`] — same host, same spec, same
/// trace — so the two rows isolate exactly what coalescing buys. Before
/// timing, one diagnosis from the batching daemon is compared
/// byte-for-byte against one from a non-batching daemon: coalescing must
/// be invisible in the reply bytes, or the speedup is disqualified.
pub fn batched_diagnose_rps(target: Duration, batch: usize) -> f64 {
    use act_serve::{Reply, Request, ServeConfig, Server};
    use std::collections::VecDeque;
    let boot = |batch_size: usize| {
        Server::start(ServeConfig {
            tcp_addr: Some("127.0.0.1:0".to_string()),
            workers: 2,
            queue_depth: 64,
            batch_size,
            ..ServeConfig::default()
        })
        .expect("bench daemon boots")
    };
    // Batches form from queue backlog alone: a worker never waits for
    // companions (DESIGN.md §12 measured any wait as a throughput loss).
    let server = boot(batch);
    let depth = (2 * batch).max(4) as u32;
    let client = act_client::Client::builder()
        .addr(server.tcp_addr().expect("tcp").to_string())
        .pipeline_depth(depth)
        .build()
        .expect("endpoint is set");

    let mut spec = act_serve::ModelSpec::new("seq");
    spec.traces = 2;
    spec.hidden = 4;
    spec.max_epochs = 30;
    let trace = crate::campaign::failing_trace_bytes("seq", 0);
    client.train(&spec).expect("batched bench warm-up train");

    // Byte-identity gate: training is deterministic, so a separate
    // non-batching daemon produces the same model and its sequential
    // diagnosis must match the batched one byte-for-byte.
    let batched_reply = client.diagnose(&spec, &trace).expect("batched bench diagnose");
    {
        let sequential = boot(1);
        let seq_client = act_client::Client::builder()
            .addr(sequential.tcp_addr().expect("tcp").to_string())
            .build()
            .expect("endpoint is set");
        seq_client.train(&spec).expect("sequential warm-up train");
        let seq_reply = seq_client.diagnose(&spec, &trace).expect("sequential diagnose");
        assert_eq!(
            batched_reply, seq_reply,
            "batched diagnosis must be byte-identical to sequential"
        );
        sequential.shutdown();
        sequential.join();
    }

    // Coalescing throughput on a small host depends on how the client and
    // worker threads happen to interleave (that is what decides batch
    // formation), and one scheduling regime can dominate a short window.
    // So this bench ignores quick mode's shorter target — a truncated
    // window here is pure noise — and takes the best of five full-length
    // trials over one warm session; this is what lets ci.sh gate the
    // number at a 10% threshold.
    let window = target.max(Duration::from_millis(600));
    let session = client.pipeline().expect("v4 session opens");
    let mut best = 0.0f64;
    for _ in 0..5 {
        let start = Instant::now();
        let mut ops = 0u64;
        let mut pending = VecDeque::new();
        while start.elapsed() < window {
            while pending.len() < depth as usize {
                let req = Request::Diagnose(spec.clone(), trace.clone());
                pending.push_back(session.call(&req).expect("batched call enqueues"));
            }
            match pending.pop_front().expect("window is full").wait() {
                Ok(Reply::Diagnosis(_)) => ops += 1,
                other => panic!("batched bench diagnose: {other:?}"),
            }
        }
        for p in pending {
            let _ = p.wait(); // drain the tail so the next trial starts clean
        }
        best = best.max(ops as f64 / start.elapsed().as_secs_f64());
    }
    server.shutdown();
    server.join();
    best
}

/// Model-cache hit lookups per second with `threads` threads hammering the
/// same key — the read path a coalesced batch leans on. The cache serves
/// hits through a shared read lock with an atomic LRU stamp, so adding
/// threads must not collapse throughput the way a mutex-serialized map
/// would.
pub fn cache_hit_lookups_per_sec(target: Duration, threads: usize) -> f64 {
    use act_serve::ModelCache;
    let cache = std::sync::Arc::new(ModelCache::new(4, None));
    let mut spec = act_serve::ModelSpec::new("seq");
    spec.traces = 2;
    spec.hidden = 4;
    spec.max_epochs = 30;
    cache.get_or_train(&spec).expect("bench model trains");

    let total: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                let cache = cache.clone();
                let spec = spec.clone();
                s.spawn(move || {
                    let start = Instant::now();
                    let mut ops = 0u64;
                    while start.elapsed() < target {
                        let (_, outcome) = cache.get_or_train(&spec).expect("bench cache hit");
                        assert_eq!(outcome, act_serve::CacheOutcome::Memory);
                        ops += 1;
                    }
                    ops
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("bench thread")).sum()
    });
    total as f64 / target.as_secs_f64()
}

/// Run the full suite. `jobs` is the worker count for the parallel variants
/// of the wall-clock benches (entries are only emitted when `jobs > 1`, so
/// a single-core host produces one row per bench). `only` restricts the
/// suite to benches whose name contains any of the comma-separated
/// filters (substring match) — `perf --only obs` runs just the
/// observability-overhead measurement, `--only classify,batched` the
/// CI-gated pair.
pub fn run_all(quick: bool, jobs: usize, only: Option<&str>) -> Vec<BenchEntry> {
    let target = if quick { Duration::from_millis(150) } else { Duration::from_millis(600) };
    let want = |name: &str| {
        only.is_none_or(|f| f.split(',').any(|part| !part.is_empty() && name.contains(part)))
    };
    let mut entries = Vec::new();
    let mut row = |bench: &str, jobs: usize, unit: &str, measure: &dyn Fn() -> f64| {
        if want(bench) {
            entries.push(BenchEntry::new(bench, measure(), unit, jobs));
        }
    };
    let ops = "ops/s";
    row("classify_predictions_per_sec", 1, ops, &|| classify_predictions_per_sec(target));
    row("obs_classify_predictions_per_sec", 1, ops, &|| obs_classify_predictions_per_sec(target));
    row("online_train_steps_per_sec", 1, ops, &|| online_train_steps_per_sec(target));
    row("offline_train_wall_s", 1, "s", &|| offline_train_wall_s(quick, 1));
    if jobs > 1 {
        row("offline_train_wall_s", jobs, "s", &|| offline_train_wall_s(quick, jobs));
    }
    row("store_encode_mb_per_sec", 1, "MB/s", &|| store_encode_mb_per_sec(target));
    row("store_decode_mb_per_sec", 1, "MB/s", &|| store_decode_mb_per_sec(target));
    row("store_compression_ratio", 1, "ratio", &store_compression_ratio);
    row("store_crc32_mb_per_sec", 1, "MB/s", &|| store_crc32_mb_per_sec(target));
    row("text_parse_mb_per_sec", 1, "MB/s", &|| text_parse_mb_per_sec(target));
    row("text_write_mb_per_sec", 1, "MB/s", &|| text_write_mb_per_sec(target));
    row("windows_formed_per_sec", 1, ops, &|| windows_formed_per_sec(target));
    row("prune_rank_per_sec", 1, ops, &|| prune_rank_per_sec(target));
    row("sim_cycles_per_sec", 1, ops, &|| sim_cycles_per_sec(target, false));
    row("sim_act_cycles_per_sec", 1, ops, &|| sim_cycles_per_sec(target, true));
    row("gate_diagnose_rps", 1, ops, &|| gate_diagnose_rps(target));
    // `jobs` records the pipeline depth: the depth-8 row over the depth-1
    // row is the pipelining speedup.
    row("pipelined_diagnose_rps", 1, ops, &|| pipelined_diagnose_rps(target, 1));
    row("pipelined_diagnose_rps", 8, ops, &|| pipelined_diagnose_rps(target, 8));
    // `jobs` records the batch bound, mirroring how the pipelined rows
    // record depth.
    row("batched_diagnose_rps", 16, ops, &|| batched_diagnose_rps(target, 16));
    row("cache_hit_lookups_per_sec", 1, ops, &|| cache_hit_lookups_per_sec(target, 1));
    // Four threads on one key: the contention row. The thread count is
    // fixed (not `jobs`) so the row is comparable across hosts.
    row("cache_hit_lookups_per_sec", 4, ops, &|| cache_hit_lookups_per_sec(target, 4));
    row("table4_wall_s", 1, "s", &|| table4_wall_s(quick, 1));
    if jobs > 1 {
        row("table4_wall_s", jobs, "s", &|| table4_wall_s(quick, jobs));
    }
    entries
}

/// The baseline row a bench compares against when the baseline file has no
/// row of its own name. `obs_classify_predictions_per_sec` falls back to
/// the *plain* classify bench: baselines recorded before the obs layer
/// existed still price its overhead (the speedup column then reads
/// directly as obs-on vs obs-off).
fn baseline_name(bench: &str) -> &str {
    match bench {
        "obs_classify_predictions_per_sec" => "classify_predictions_per_sec",
        other => other,
    }
}

/// Fill each entry's `before` from a baseline run: exact `(bench, jobs)`
/// match first, then the baseline's serial (`jobs = 1`) row — so a parallel
/// row still compares against the pre-optimization serial baseline when the
/// baseline predates the parallel path. A bench absent from the baseline
/// entirely falls back through [`baseline_name`].
pub fn merge_baseline(entries: &mut [BenchEntry], baseline: &[BenchEntry]) {
    for e in entries {
        let row = |name: &str, jobs: Option<usize>| {
            baseline.iter().find(|b| b.bench == name && jobs.is_none_or(|j| b.jobs == j))
        };
        e.before = row(&e.bench, Some(e.jobs))
            .or_else(|| row(&e.bench, Some(1)))
            .or_else(|| row(baseline_name(&e.bench), Some(1)))
            .map(|b| b.value);
    }
}

// ---------------------------------------------------------------------
// JSON (hand-rolled, like act-fleet's report: the workspace is offline)
// ---------------------------------------------------------------------

/// Render entries as the `BENCH_hotpath.json` array.
pub fn render_json(entries: &[BenchEntry]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str("  {");
        write!(out, "\"bench\":\"{}\"", e.bench).expect("string write");
        if let Some(b) = e.before {
            write!(out, ",\"before\":{b}").expect("string write");
        }
        write!(out, ",\"value\":{},\"unit\":\"{}\",\"jobs\":{}", e.value, e.unit, e.jobs)
            .expect("string write");
        out.push('}');
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Strict parser for the schema above (and only it): an array of flat
/// objects whose values are strings or numbers. Anything else — unknown
/// keys, missing fields, trailing garbage — is an error, which is exactly
/// what `ci.sh` wants from "malformed".
pub fn parse_json(text: &str) -> Result<Vec<BenchEntry>, ActError> {
    let mut p = Parser { b: text.as_bytes(), i: 0 };
    p.ws();
    p.expect(b'[')?;
    let mut entries = Vec::new();
    p.ws();
    if !p.eat(b']') {
        loop {
            entries.push(p.object()?);
            p.ws();
            if p.eat(b',') {
                p.ws();
                continue;
            }
            p.expect(b']')?;
            break;
        }
    }
    p.ws();
    if p.i != p.b.len() {
        return Err(ActError::Parse(format!("trailing garbage at byte {}", p.i)));
    }
    Ok(entries)
}

/// Validate a `BENCH_hotpath.json` body; returns the entry count.
pub fn validate(text: &str) -> Result<usize, ActError> {
    let entries = parse_json(text)?;
    if entries.is_empty() {
        return Err(ActError::Parse("no bench entries".to_string()));
    }
    for e in &entries {
        if e.bench.is_empty() {
            return Err(ActError::Parse("empty bench name".to_string()));
        }
        if !(e.value.is_finite() && e.value > 0.0) {
            return Err(ActError::Parse(format!("{}: non-positive value {}", e.bench, e.value)));
        }
        if !matches!(e.unit.as_str(), "ops/s" | "MB/s" | "ratio" | "s") {
            return Err(ActError::Parse(format!("{}: unknown unit `{}`", e.bench, e.unit)));
        }
        if e.jobs == 0 {
            return Err(ActError::Parse(format!("{}: jobs must be >= 1", e.bench)));
        }
        if let Some(b) = e.before {
            if !(b.is_finite() && b > 0.0) {
                return Err(ActError::Parse(format!("{}: non-positive before {b}", e.bench)));
            }
        }
    }
    Ok(entries.len())
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ActError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(ActError::Parse(format!("expected `{}` at byte {}", c as char, self.i)))
        }
    }

    fn string(&mut self) -> Result<String, ActError> {
        self.expect(b'"')?;
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i] != b'"' {
            if self.b[self.i] == b'\\' {
                return Err(ActError::Parse(format!("escapes unsupported at byte {}", self.i)));
            }
            self.i += 1;
        }
        let s = std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| ActError::Parse("non-utf8 string".to_string()))?
            .to_string();
        self.expect(b'"')?;
        Ok(s)
    }

    fn number(&mut self) -> Result<f64, ActError> {
        let start = self.i;
        while self.i < self.b.len()
            && matches!(self.b[self.i], b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E')
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| ActError::Parse(format!("bad number at byte {start}")))
    }

    fn object(&mut self) -> Result<BenchEntry, ActError> {
        self.expect(b'{')?;
        let (mut bench, mut before, mut value, mut unit, mut jobs) = (None, None, None, None, None);
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            match key.as_str() {
                "bench" => bench = Some(self.string()?),
                "unit" => unit = Some(self.string()?),
                "before" => before = Some(self.number()?),
                "value" => value = Some(self.number()?),
                "jobs" => jobs = Some(self.number()? as usize),
                other => return Err(ActError::Parse(format!("unknown key `{other}`"))),
            }
            self.ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}')?;
            break;
        }
        Ok(BenchEntry {
            bench: bench.ok_or("missing `bench`")?,
            before,
            value: value.ok_or("missing `value`")?,
            unit: unit.ok_or("missing `unit`")?,
            jobs: jobs.ok_or("missing `jobs`")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<BenchEntry> {
        vec![
            BenchEntry {
                bench: "classify_predictions_per_sec".into(),
                before: Some(1.0e6),
                value: 2.5e6,
                unit: "ops/s".into(),
                jobs: 1,
            },
            BenchEntry {
                bench: "table4_wall_s".into(),
                before: None,
                value: 2.75,
                unit: "s".into(),
                jobs: 4,
            },
        ]
    }

    #[test]
    fn json_round_trips() {
        let entries = sample();
        let text = render_json(&entries);
        let back = parse_json(&text).unwrap();
        assert_eq!(back, entries);
        assert_eq!(validate(&text).unwrap(), 2);
    }

    #[test]
    fn validate_rejects_malformed() {
        assert!(validate("").is_err());
        assert!(validate("[]").is_err(), "empty array is not a benchmark record");
        assert!(validate("[{\"bench\":\"x\"}]").is_err(), "missing fields");
        assert!(validate("[{\"bench\":\"x\",\"value\":0,\"unit\":\"s\",\"jobs\":1}]").is_err());
        assert!(
            validate("[{\"bench\":\"x\",\"value\":1,\"unit\":\"furlongs\",\"jobs\":1}]").is_err()
        );
        assert!(validate("[{\"bench\":\"x\",\"value\":1,\"unit\":\"s\",\"jobs\":0}]").is_err());
        assert!(
            validate("[{\"bench\":\"x\",\"value\":1,\"unit\":\"s\",\"jobs\":1,\"extra\":1}]")
                .is_err(),
            "unknown keys rejected"
        );
        assert!(validate("[{\"bench\":\"x\",\"value\":1,\"unit\":\"s\",\"jobs\":1}] tail").is_err());
    }

    #[test]
    fn speedup_respects_unit_direction() {
        let mut up = sample()[0].clone();
        assert!((up.speedup().unwrap() - 2.5).abs() < 1e-12);
        up.unit = "s".into(); // lower-is-better: 1e6 -> 2.5e6 s is a slowdown
        assert!(up.speedup().unwrap() < 1.0);
    }

    #[test]
    fn regression_pct_is_signed_and_direction_aware() {
        let mut e = sample()[0].clone(); // ops/s, 1.0e6 -> 2.5e6
        assert!((e.regression_pct().unwrap() - -150.0).abs() < 1e-9, "improvement is negative");
        e.value = 0.9e6; // 10% fewer ops/s
        assert!((e.regression_pct().unwrap() - 10.0).abs() < 1e-9);
        e.unit = "s".into(); // lower-is-better: 1.0s -> 0.9s is an improvement
        assert!(e.regression_pct().unwrap() < 0.0);
        e.before = None;
        assert_eq!(e.regression_pct(), None, "no baseline, no verdict");
    }

    #[test]
    fn baseline_merge_prefers_exact_then_serial() {
        let baseline = vec![
            BenchEntry { bench: "a".into(), before: None, value: 10.0, unit: "s".into(), jobs: 1 },
            BenchEntry { bench: "a".into(), before: None, value: 4.0, unit: "s".into(), jobs: 4 },
        ];
        let mut now = vec![
            BenchEntry { bench: "a".into(), before: None, value: 5.0, unit: "s".into(), jobs: 4 },
            BenchEntry { bench: "a".into(), before: None, value: 9.0, unit: "s".into(), jobs: 8 },
            BenchEntry { bench: "b".into(), before: None, value: 1.0, unit: "s".into(), jobs: 1 },
        ];
        merge_baseline(&mut now, &baseline);
        assert_eq!(now[0].before, Some(4.0), "exact (bench, jobs) match");
        assert_eq!(now[1].before, Some(10.0), "serial fallback");
        assert_eq!(now[2].before, None, "no baseline row");
    }
}

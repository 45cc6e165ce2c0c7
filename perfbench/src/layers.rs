//! Traced runs: spans, STATUS deltas, live probes and the in-process
//! replay that turn one measured phase into per-layer metrics.
//!
//! Every layer is seen from outside the daemons. After the measured phase
//! each distinct input is replayed through the public function of each
//! layer it crossed, in pipeline order; each replayed call is a span whose
//! parent is the first traced request that carried that input. A request's
//! residual is its latency minus its input's replayed calls, so the parts
//! add up to the request latency by construction.

use crate::daemon::{delta, Daemon, Fleet};
use crate::drive::{Done, Op, Session};
use crate::inputs::{model_spec, Inputs, WorkloadDef};
use crate::report::Metric;
use crate::stats::{mean, median};
use act_obs::{HistogramSnapshot, MetricsSnapshot};
use act_serve::proto::{encode_frame, read_frame};
use act_serve::{CacheOutcome, ModelCache, ModelKey, Reply, Request};
use act_store::Corpus;
use act_trace::io::{trace_from_bytes, trace_to_bytes};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Calls per replayed layer function; the median is kept.
const REPS: usize = 5;
/// Rounds of each live probe; the median is kept.
const PROBES: usize = 40;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Microseconds since the run's time origin.
    pub start_us: f64,
    pub dur_us: f64,
    pub op: &'static str,
    /// Model key (DIAGNOSE) or corpus key (PUT, GET).
    pub key: String,
    pub bytes: usize,
}

/// Spans kept in memory until the run ends.
pub struct Spans {
    origin: Instant,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans { origin, list: Vec::new() }
    }

    /// Record a span; returns its id.
    pub fn push(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        dur: Duration,
        (op, key, bytes): (&'static str, &str, usize),
    ) -> u64 {
        let id = self.list.len() as u64 + 1;
        let start_us = start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let dur_us = dur.as_secs_f64() * 1e6;
        self.list.push(Span { id, parent, name, start_us, dur_us, op, key: key.into(), bytes });
        id
    }

    /// One JSON object per line: `header` first, then every span.
    pub fn write(&self, path: &Path, header: &str) -> Result<(), String> {
        let mut out = String::with_capacity(160 * (self.list.len() + 1));
        out.push_str(header);
        out.push('\n');
        for s in &self.list {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {:.1}, \
                 \"dur_us\": {:.1}, \"op\": \"{}\", \"key\": \"{}\", \"bytes\": {}}}",
                s.id, s.name, s.start_us, s.dur_us, s.op, s.key, s.bytes
            )
            .expect("string write");
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The span tags of a request: op, key, bytes.
fn tags(inputs: &Inputs, d: &Done) -> (&'static str, String, usize) {
    let key = match d.sent.op {
        Op::Diagnose => {
            ModelKey::from(&model_spec(inputs.failing[d.sent.input].workload)).canonical()
        }
        _ => d.sent.key.clone().unwrap_or_default(),
    };
    (d.sent.op.name(), key, d.sent.bytes)
}

/// A request span per traced request; returns the span id of the first
/// traced request per (op, input), the parent of that input's replay.
pub fn request_spans(
    spans: &mut Spans,
    phase_start: Instant,
    inputs: &Inputs,
    done: &[Done],
) -> HashMap<(Op, usize), u64> {
    let mut first = HashMap::new();
    for d in done.iter().filter(|d| d.traced) {
        let (op, key, bytes) = tags(inputs, d);
        let id = spans.push(None, "request", phase_start + d.start, d.latency, (op, &key, bytes));
        first.entry((d.sent.op, d.sent.input)).or_insert(id);
    }
    first
}

/// STATUS snapshots of every process around the measured phase.
pub struct StatusDelta {
    /// Per daemon, in fleet order.
    pub serves: Vec<MetricsSnapshot>,
    pub gate: Option<MetricsSnapshot>,
}

/// STATUS of every process, gateway first.
pub fn snapshot(fleet: &Fleet) -> Result<Vec<MetricsSnapshot>, String> {
    fleet.all().map(Daemon::status).collect()
}

impl StatusDelta {
    pub fn new(fleet: &Fleet, before: &[MetricsSnapshot], after: &[MetricsSnapshot]) -> Self {
        let mut deltas: Vec<MetricsSnapshot> =
            before.iter().zip(after).map(|(b, a)| delta(b, a)).collect();
        let gate = fleet.gate.is_some().then(|| deltas.remove(0));
        StatusDelta { serves: deltas, gate }
    }

    fn counter(&self, name: &str) -> u64 {
        self.serves.iter().map(|s| s.counter(name).unwrap_or(0)).sum()
    }

    /// A histogram summed over the daemons.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        let mut merged: Option<HistogramSnapshot> = None;
        for h in self.serves.iter().filter_map(|s| s.histogram(name)) {
            match &mut merged {
                None => merged = Some(h.clone()),
                Some(m) => {
                    for (a, b) in m.counts.iter_mut().zip(&h.counts) {
                        *a += b;
                    }
                    m.sum += h.sum;
                }
            }
        }
        merged
    }
}

/// What the live probes measured after the measured phase.
pub struct Probes {
    pub connect_us: f64,
    pub status_rtt_us: f64,
    pub hop_us: f64,
    /// STATUS delta of the gateway the hop probe went through, for fleets
    /// that have no gateway of their own.
    pub probe_gate: Option<MetricsSnapshot>,
}

/// Time `f` `PROBES` times; the median in microseconds, each round a span.
fn probe<T>(
    spans: &mut Spans,
    name: &'static str,
    tag: (&'static str, &str, usize),
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let mut us = Vec::with_capacity(PROBES);
    for _ in 0..PROBES {
        let t = Instant::now();
        black_box(f()?);
        let dur = t.elapsed();
        spans.push(None, name, t, dur, tag);
        us.push(dur.as_secs_f64() * 1e6);
    }
    Ok(median(&us).expect("PROBES > 0"))
}

/// Connect, STATUS round trip and gateway hop, measured live. The hop is
/// the same DIAGNOSE, one in flight, through a gateway minus straight to
/// the daemon that owns its model; a fleet without a gateway gets one
/// booted in front of its daemon for the probe.
pub fn live_probes(
    fleet: &Fleet,
    act: &Path,
    inputs: &Inputs,
    spans: &mut Spans,
) -> Result<Probes, String> {
    let entry = fleet.entry();
    let connect_us = probe(spans, "probe.act-client.connect", ("CONNECT", entry, 0), || {
        act_serve::connect_tcp(entry, Some(Duration::from_secs(5))).map_err(|e| e.to_string())
    })?;
    let client = crate::daemon::client(entry)?;
    let status_rtt_us = probe(spans, "probe.act-client.status", ("STATUS", entry, 0), || {
        client.status().map_err(|e| e.to_string())
    })?;

    let trace = &inputs.failing[0];
    let spec = model_spec(trace.workload);
    let key = ModelKey::from(&spec).canonical();
    let extra_gate = match &fleet.gate {
        Some(_) => None,
        None => Some(Daemon::gate(act, &[&fleet.serves[0]])?),
    };
    let gate = fleet.gate.as_ref().or(extra_gate.as_ref()).expect("one of the two is set");
    // The gateway runs with the default vnode count.
    let vnodes = act_gate::GateConfig::default().vnodes;
    let owner = &fleet.serves[act_gate::HashRing::new(fleet.serves.len(), vnodes).owner(&key)];
    let before = extra_gate.as_ref().map(Daemon::status).transpose()?;
    // One request in flight on a session each way, so no accept poll is in
    // either figure and the difference is the gateway's forwarding.
    let mut via_gate = Session::open(&gate.addr, 1)?;
    let mut direct = Session::open(&owner.addr, 1)?;
    let mut frame = Request::Diagnose(spec.clone(), trace.bytes.clone()).to_frame();
    let tag = ("DIAGNOSE", key.as_str(), trace.bytes.len());
    let mut gated = Vec::with_capacity(PROBES);
    let mut straight = Vec::with_capacity(PROBES);
    for round in 1..=PROBES as u32 {
        for (session, name, out) in [
            (&mut via_gate, "probe.act-gate.via_gate", &mut gated),
            (&mut direct, "probe.act-gate.direct", &mut straight),
        ] {
            let sent = session.send(&mut frame, round)?;
            let (id, reply, at) = session.recv()?;
            if id != round || !matches!(reply, Reply::Diagnosis(_)) {
                return Err(format!("{name}: request {round} got {id}: {reply:?}"));
            }
            spans.push(None, name, sent, at - sent, tag);
            out.push((at - sent).as_secs_f64() * 1e6);
        }
    }
    drop((via_gate, direct));
    let hop_us = median(&gated).expect("PROBES > 0") - median(&straight).expect("PROBES > 0");
    let probe_gate = match (extra_gate, before) {
        (Some(g), Some(before)) => {
            let after = g.status()?;
            g.stop()?;
            Some(delta(&before, &after))
        }
        _ => None,
    };
    Ok(Probes { connect_us, status_rtt_us, hop_us, probe_gate })
}

/// Replayed cost of one input, in microseconds (counts where named so).
#[derive(Debug, Clone, Default)]
struct Cost {
    decode: f64,
    parse: f64,
    hit: f64,
    classify: f64,
    batch: f64,
    rank: f64,
    encode: f64,
    serialize: f64,
    put: f64,
    get: f64,
    /// Request frame bytes on the wire.
    frame: usize,
    records: usize,
    windows: usize,
    flagged: usize,
}

impl Cost {
    /// The replayed calls on a DIAGNOSE request's own path.
    fn diagnose_path(&self) -> f64 {
        self.decode + self.parse + self.hit + self.classify + self.rank + self.encode
    }
}

/// Everything the replay measured.
pub struct Replayed {
    /// Per failing trace.
    diagnose: Vec<Cost>,
    /// Per correct trace, as PUT and as GET.
    put: Vec<Cost>,
    get: Vec<Cost>,
    train_ms: Vec<f64>,
    /// Uncompressed and stored bytes of every replayed store write.
    raw_bytes: u64,
    stored_bytes: u64,
}

/// Time `f` `REPS` times; the median in microseconds and the last result.
/// The first call's start and the median duration become a span.
fn timed<T>(
    spans: &mut Spans,
    parent: Option<u64>,
    name: &'static str,
    tag: (&'static str, &str, usize),
    mut f: impl FnMut(usize) -> T,
) -> (f64, T) {
    let start = Instant::now();
    let mut us = Vec::with_capacity(REPS);
    let mut last = None;
    for rep in 0..REPS {
        let t = Instant::now();
        let out = black_box(f(rep));
        us.push(t.elapsed().as_secs_f64() * 1e6);
        last = Some(out);
    }
    let med = median(&us).expect("REPS > 0");
    spans.push(parent, name, start, Duration::from_secs_f64(med / 1e6), tag);
    (med, last.expect("REPS > 0"))
}

/// Encode `frame` as it crosses the wire (request id 1).
fn wire(frame: act_serve::Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame(&mut buf, &frame.with_request(1));
    buf
}

/// Replay every distinct input through the layers it crossed. The model
/// cache is filled cold first (timing `get_or_train`'s training path);
/// store calls go to a scratch corpus in `scratch`. Workloads without
/// store traffic put and get their failing traces there as an off-path
/// probe, so every layer is measured on every workload.
pub fn replay(
    def: &WorkloadDef,
    inputs: &Inputs,
    refs: &[String],
    batch: usize,
    parents: &HashMap<(Op, usize), u64>,
    scratch: &Path,
    spans: &mut Spans,
) -> Result<Replayed, String> {
    let cache = ModelCache::new(64, None);
    let mut train_ms = Vec::new();
    let mut models = Vec::new();
    for t in &inputs.failing {
        if models.contains(&t.workload) {
            continue;
        }
        let spec = model_spec(t.workload);
        let key = ModelKey::from(&spec).canonical();
        let start = Instant::now();
        let (_, outcome) = cache.get_or_train(&spec).map_err(|e| e.to_string())?;
        let dur = start.elapsed();
        if outcome != CacheOutcome::Trained {
            return Err(format!("{key}: cold lookup was {outcome:?}, not a training run"));
        }
        spans.push(None, "act-serve.cache.train", start, dur, ("TRAIN", &key, 0));
        train_ms.push(dur.as_secs_f64() * 1e3);
        models.push(t.workload);
    }

    let mut corpus = Corpus::open_or_init(scratch.join("replay-corpus"))
        .map_err(|e| format!("replay corpus: {e}"))?;
    let (mut raw_bytes, mut stored_bytes) = (0u64, 0u64);
    let mut put = |corpus: &mut Corpus, key: &str, workload: &str, bytes: &[u8]| {
        let info = corpus.put_trace_bytes(key, workload, bytes).expect("replay put");
        raw_bytes += info.raw_bytes;
        stored_bytes += info.encoded_bytes;
    };
    let probe_store = def.put.is_empty();

    let mut diagnose: Vec<Cost> = Vec::with_capacity(inputs.failing.len());
    for (i, t) in inputs.failing.iter().enumerate() {
        let spec = model_spec(t.workload);
        let key = ModelKey::from(&spec).canonical();
        let tag = ("DIAGNOSE", key.as_str(), t.bytes.len());
        let parent = parents.get(&(Op::Diagnose, i)).copied();
        let frame = wire(Request::Diagnose(spec.clone(), t.bytes.clone()).to_frame());
        let mut c = Cost { frame: frame.len(), ..Cost::default() };
        (c.decode, _) = timed(spans, parent, "act-serve.proto.decode", tag, |_| {
            Request::from_frame(&read_frame(&frame[..]).expect("replay frame")).expect("request")
        });
        let (parse, trace) = timed(spans, parent, "act-trace.io.parse", tag, |_| {
            trace_from_bytes(&t.bytes).expect("generated traces parse")
        });
        c.parse = parse;
        let (hit, (model, _)) = timed(spans, parent, "act-serve.cache.hit", tag, |_| {
            cache.get_or_train(&spec).expect("model is resident")
        });
        c.hit = hit;
        let (classify, entries) = timed(spans, parent, "act-core.diagnosis.classify", tag, |_| {
            act_core::diagnosis::classify_trace(&model.store, &trace, model.norm_code_len, 0.5)
        });
        c.classify = classify;
        (c.rank, _) = timed(spans, parent, "act-core.postprocess.rank", tag, |_| {
            act_core::postprocess::postprocess(&entries, &model.correct)
        });
        let mut buf = Vec::new();
        (c.encode, _) = timed(spans, parent, "act-serve.proto.encode", tag, |_| {
            buf.clear();
            encode_frame(&mut buf, &Reply::Diagnosis(refs[i].clone()).to_frame().with_request(1));
            buf.len()
        });
        c.records = trace.records.len();
        c.windows = act_trace::input_gen::positive_sequences(
            &act_trace::raw::observed_deps(&trace),
            model.store.seq_len(),
        )
        .len();
        c.flagged = entries.len();
        if probe_store {
            (c.serialize, _) =
                timed(spans, None, "act-trace.io.serialize", tag, |_| trace_to_bytes(&trace));
            (c.put, _) = timed(spans, None, "act-store.corpus.put", tag, |rep| {
                put(&mut corpus, &format!("d{i}-{rep}"), t.workload, &t.bytes)
            });
            (c.get, _) = timed(spans, None, "act-store.corpus.get", tag, |_| {
                corpus.get_trace(&format!("d{i}-0")).expect("replayed key reads back")
            });
        }
        diagnose.push(c);
    }

    // Coalesced classify at the measured batch size, per model.
    for &w in &models {
        let idx: Vec<usize> =
            (0..inputs.failing.len()).filter(|&i| inputs.failing[i].workload == w).collect();
        let spec = model_spec(w);
        let key = ModelKey::from(&spec).canonical();
        let (model, _) = cache.get_or_train(&spec).map_err(|e| e.to_string())?;
        let traces: Vec<_> = idx
            .iter()
            .map(|&i| trace_from_bytes(&inputs.failing[i].bytes).expect("generated traces parse"))
            .collect();
        for (chunk, ids) in traces.chunks(batch.max(1)).zip(idx.chunks(batch.max(1))) {
            let refs: Vec<_> = chunk.iter().collect();
            let tag = ("DIAGNOSE", key.as_str(), chunk.len());
            let (us, _) = timed(spans, None, "act-core.diagnosis.classify_batch", tag, |_| {
                act_core::diagnosis::classify_trace_batch(
                    &model.store,
                    &refs,
                    model.norm_code_len,
                    0.5,
                )
            });
            for &i in ids {
                diagnose[i].batch = us / chunk.len() as f64;
            }
        }
    }

    let (mut puts, mut gets) = (Vec::new(), Vec::new());
    for (j, t) in inputs.correct.iter().enumerate() {
        let key = format!("c{j}");
        let tag = ("TRACE_PUT", key.as_str(), t.bytes.len());
        let parent = parents.get(&(Op::Put, j)).copied();
        let request = Request::TracePut {
            key: key.clone(),
            workload: t.workload.to_string(),
            trace: t.bytes.clone(),
        };
        let frame = wire(request.to_frame());
        let mut p = Cost { frame: frame.len(), ..Cost::default() };
        (p.decode, _) = timed(spans, parent, "act-serve.proto.decode", tag, |_| {
            Request::from_frame(&read_frame(&frame[..]).expect("replay frame")).expect("request")
        });
        (p.put, _) = timed(spans, parent, "act-store.corpus.put", tag, |rep| {
            put(&mut corpus, &format!("{key}-{rep}"), t.workload, &t.bytes)
        });
        (p.encode, _) = timed(spans, parent, "act-serve.proto.encode", tag, |_| {
            wire(Reply::Stored(format!("stored {key}")).to_frame()).len()
        });
        puts.push(p);

        let tag = ("TRACE_GET", key.as_str(), t.bytes.len());
        let parent = parents.get(&(Op::Get, j)).copied();
        let frame = wire(Request::TraceGet { key: format!("{key}-0") }.to_frame());
        let mut g = Cost { frame: frame.len(), ..Cost::default() };
        (g.decode, _) = timed(spans, parent, "act-serve.proto.decode", tag, |_| {
            Request::from_frame(&read_frame(&frame[..]).expect("replay frame")).expect("request")
        });
        let (get, trace) = timed(spans, parent, "act-store.corpus.get", tag, |_| {
            corpus.get_trace(&format!("{key}-0")).expect("replayed key reads back")
        });
        g.get = get;
        let (serialize, bytes) =
            timed(spans, parent, "act-trace.io.serialize", tag, |_| trace_to_bytes(&trace));
        g.serialize = serialize;
        if bytes != t.bytes {
            return Err(format!("replay corpus changed correct trace {j} on the way through"));
        }
        (g.encode, _) = timed(spans, parent, "act-serve.proto.encode", tag, |_| {
            wire(Reply::TraceData(bytes.clone()).to_frame()).len()
        });
        gets.push(g);
    }
    Ok(Replayed { diagnose, put: puts, get: gets, train_ms, raw_bytes, stored_bytes })
}

/// The replayed cost of each request of the measured phase.
fn costs<'a>(r: &'a Replayed, done: &'a [Done]) -> impl Iterator<Item = (&'a Done, &'a Cost)> {
    done.iter().map(move |d| {
        let c = match d.sent.op {
            Op::Diagnose => &r.diagnose[d.sent.input],
            Op::Put => &r.put[d.sent.input],
            Op::Get => &r.get[d.sent.input],
        };
        (d, c)
    })
}

/// Mean of `f` over the requests of kind `op` (every kind when `None`).
fn per_request(r: &Replayed, done: &[Done], op: Option<Op>, f: impl Fn(&Cost) -> f64) -> f64 {
    let v: Vec<f64> = costs(r, done)
        .filter(|(d, _)| op.is_none_or(|o| d.sent.op == o))
        .map(|(_, c)| f(c))
        .collect();
    mean(&v)
}

/// Inputs to [`layer_metrics`] gathered over a traced run.
pub struct Traced<'a> {
    pub def: &'a WorkloadDef,
    pub done: &'a [Done],
    pub status: &'a StatusDelta,
    pub probes: &'a Probes,
    pub replayed: &'a Replayed,
    /// DIAGNOSE p50 in traced blocks over untraced blocks, minus one, in %.
    pub overhead_pct: f64,
    pub failed_share: f64,
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn layer_metrics(t: &Traced<'_>) -> Vec<Metric> {
    let (r, done, st) = (t.replayed, t.done, t.status);
    let diag = Some(Op::Diagnose);
    // Workloads without store traffic report the off-path store probe,
    // weighted by their DIAGNOSE requests.
    let store_op = |op: Op| if t.def.put.is_empty() { diag } else { Some(op) };
    let residual: Vec<f64> = costs(r, done)
        .filter(|(d, _)| d.traced && d.ok && d.sent.op == Op::Diagnose)
        .map(|(d, c)| d.latency.as_secs_f64() * 1e6 - c.diagnose_path())
        .collect();
    let hist = |name: &str| st.histogram(name).unwrap_or_default();
    let (hits, misses) = (st.counter("coalesce_hits"), st.counter("coalesce_misses"));
    let memory = st.counter("cache_memory_hits");
    let lookups = memory
        + st.counter("cache_disk_loads")
        + st.counter("cache_store_loads")
        + st.counter("cache_trained");
    let parse_us = per_request(r, done, diag, |c| c.parse);
    let trace_bytes = |op: Option<Op>| {
        let v: Vec<f64> = done
            .iter()
            .filter(|d| op.is_none_or(|o| d.sent.op == o))
            .map(|d| d.sent.bytes as f64)
            .collect();
        mean(&v)
    };
    let put_us = per_request(r, done, store_op(Op::Put), |c| c.put);
    let gate = t.status.gate.as_ref().or(t.probes.probe_gate.as_ref());
    let gate_counter = |n: &str| gate.and_then(|g| g.counter(n)).unwrap_or(0) as f64;
    let served: Vec<f64> =
        st.serves.iter().map(|s| s.counter("requests_served").unwrap_or(0) as f64).collect();
    let skew = served.iter().cloned().fold(0.0, f64::max)
        / served.iter().cloned().fold(f64::INFINITY, f64::min).max(1.0);
    let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        Metric::new("act-client.connect_us", t.probes.connect_us, "us"),
        Metric::new("act-client.status_rtt_us", t.probes.status_rtt_us, "us"),
        Metric::new("act-serve.server.residual_us", mean(&residual), "us"),
        Metric::new(
            "act-serve.server.enqueue_depth_p50",
            hist("enqueue_depth").quantile(0.5) as f64,
            "count",
        ),
        Metric::new(
            "act-serve.server.busy_rejects",
            st.counter("requests_rejected_busy") as f64,
            "count",
        ),
        Metric::new(
            "act-serve.server.errors",
            (st.counter("requests_errored")
                + st.counter("requests_crashed")
                + st.counter("requests_deadline_expired")) as f64,
            "count",
        ),
        Metric::new("act-serve.proto.decode_us", per_request(r, done, None, |c| c.decode), "us"),
        Metric::new("act-serve.proto.encode_us", per_request(r, done, None, |c| c.encode), "us"),
        Metric::new(
            "act-serve.proto.request_kb",
            per_request(r, done, None, |c| c.frame as f64) / 1024.0,
            "KB",
        ),
        Metric::new("act-serve.pool.batch_mean", hist("batch_size").mean(), "count"),
        Metric::new("act-serve.pool.coalesce_hit_share", share(hits, hits + misses), "ratio"),
        Metric::new("act-serve.pool.service_p50_us", hist("service_us").quantile(0.5) as f64, "us"),
        Metric::new("act-trace.io.parse_us", parse_us, "us"),
        Metric::new("act-trace.io.parse_mb_s", trace_bytes(diag) / parse_us.max(1e-9), "MB/s"),
        Metric::new(
            "act-trace.io.serialize_us",
            per_request(r, done, store_op(Op::Get), |c| c.serialize),
            "us",
        ),
        Metric::new(
            "act-trace.io.records",
            per_request(r, done, diag, |c| c.records as f64),
            "count",
        ),
        Metric::new("act-serve.cache.hit_us", per_request(r, done, diag, |c| c.hit), "us"),
        Metric::new("act-serve.cache.train_ms", mean(&r.train_ms), "ms"),
        Metric::new("act-serve.cache.hit_share", share(memory, lookups), "ratio"),
        Metric::new(
            "act-core.diagnosis.classify_us",
            per_request(r, done, diag, |c| c.classify),
            "us",
        ),
        Metric::new(
            "act-core.diagnosis.classify_batch_us",
            per_request(r, done, diag, |c| c.batch),
            "us",
        ),
        Metric::new(
            "act-core.diagnosis.windows",
            per_request(r, done, diag, |c| c.windows as f64),
            "count",
        ),
        Metric::new(
            "act-core.diagnosis.flagged",
            per_request(r, done, diag, |c| c.flagged as f64),
            "count",
        ),
        Metric::new("act-core.postprocess.rank_us", per_request(r, done, diag, |c| c.rank), "us"),
        Metric::new("act-store.corpus.put_us", put_us, "us"),
        Metric::new(
            "act-store.corpus.put_mb_s",
            trace_bytes(store_op(Op::Put)) / put_us.max(1e-9),
            "MB/s",
        ),
        Metric::new(
            "act-store.corpus.get_us",
            per_request(r, done, store_op(Op::Get), |c| c.get),
            "us",
        ),
        Metric::new(
            "act-store.corpus.compression_ratio",
            r.raw_bytes as f64 / r.stored_bytes.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "act-store.corpus.bytes_in_mb",
            st.counter("store_bytes_in") as f64 / 1e6,
            "MB",
        ),
        Metric::new("act-gate.hop_us", t.probes.hop_us, "us"),
        Metric::new(
            "act-gate.service_p50_us",
            gate.and_then(|g| g.histogram("gate_service_us")).map_or(0, |h| h.quantile(0.5)) as f64,
            "us",
        ),
        Metric::new(
            "act-gate.failovers",
            gate_counter("failovers")
                + gate_counter("busy_failovers")
                + gate_counter("requests_failed"),
            "count",
        ),
        Metric::new("act-gate.shard_skew", skew, "ratio"),
        Metric::new("perfbench.trace_overhead_pct", t.overhead_pct, "%"),
        Metric::new("perfbench.failed_share", t.failed_share, "ratio"),
    ]
}

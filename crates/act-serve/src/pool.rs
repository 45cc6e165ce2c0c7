//! Request workers: a pool of threads draining the daemon's bounded job
//! queue ([`act_fleet::BoundedQueue`]), each request executed inside
//! `catch_unwind` — the same crash-isolation discipline as `act-fleet`'s
//! campaign workers, so one poisoned request becomes an `ERROR` reply, not
//! a dead daemon.
//!
//! # Coalescing scheduler
//!
//! Workers do not dispatch one diagnose request at a time. A worker that
//! pops a batchable diagnose job becomes the *leader* of a micro-batch: it
//! drains every queued job targeting the same [`ModelKey`] up to the
//! configured batch size — without waiting for more to arrive, so batches
//! form from queue backlog alone — then runs the whole batch through
//! [`act_core::diagnosis::diagnose_trace_batch`] and answers every member.
//! Replies bound for the same session go out as one buffered write.
//! The win on a loaded daemon is amortization: one worker wakeup, one
//! model-cache lookup, one classify sweep, and one reply syscall per
//! *batch* instead of per request — while the batched kernel is
//! bit-identical to the sequential one, so coalescing is invisible in the
//! reply bytes. Fault-hook workloads (`__`-prefixed) are never coalesced;
//! their per-request semantics (panic/sleep injection) must hold exactly.

use crate::cache::{CacheOutcome, ModelCache, ModelKey};
use crate::conn::SessionShared;
use crate::proto::{ModelSpec, Reply, Request};
use crate::server::{stored_summary, ServerStats};
use act_core::diagnosis::{diagnose_trace, diagnose_trace_batch};
use act_core::postprocess::Diagnosis;
use act_fleet::{panic_message, BoundedQueue};
use act_obs::{events, Level};
use act_trace::io::trace_from_bytes;
use act_trace::Trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where a finished request's reply goes: a slot on the session the
/// request arrived on.
pub(crate) struct Responder {
    /// The session the request arrived on.
    pub session: Arc<SessionShared>,
    /// Which in-flight request this answers.
    pub request_id: u32,
}

impl Responder {
    /// Write `reply` onto the session and release the request's slot.
    pub(crate) fn respond(self, reply: &Reply) {
        self.session.send_final(self.request_id, reply);
    }
}

/// What a worker executes.
pub(crate) enum Work {
    /// An ordinary parsed request.
    Request(Request),
    /// A streamed `DIAGNOSE` whose trace the session already parsed
    /// chunk-by-chunk (the decode half of the decode→classify pipeline).
    DiagnoseTrace(ModelSpec, Box<Trace>),
}

/// One accepted request, queued for a worker.
pub(crate) struct Job {
    /// Where the reply goes.
    pub responder: Responder,
    /// The work itself (only diagnosable/trainable/corpus requests are
    /// queued; the session answers `STATUS` and `SHUTDOWN` itself).
    pub work: Work,
    /// When the session enqueued it — the deadline clock starts here, so
    /// time spent *queued* counts against the request.
    pub accepted: Instant,
}

/// Spawn `n` worker threads draining `queue` until it is closed and empty.
pub(crate) fn spawn_workers(
    n: usize,
    queue: Arc<BoundedQueue<Job>>,
    cache: Arc<ModelCache>,
    stats: Arc<ServerStats>,
    deadline: Duration,
    batch_size: usize,
) -> Vec<JoinHandle<()>> {
    (0..n.max(1))
        .map(|i| {
            let queue = queue.clone();
            let cache = cache.clone();
            let stats = stats.clone();
            std::thread::Builder::new()
                .name(format!("act-serve-worker-{i}"))
                .spawn(move || {
                    while let Some(job) = queue.pop() {
                        dispatch(job, &queue, &cache, &stats, deadline, batch_size);
                    }
                })
                .expect("spawn worker thread")
        })
        .collect()
}

/// The model a piece of work can coalesce under, or `None` when it must
/// run alone: non-diagnose requests, and the reserved `__` fault-hook
/// workloads whose injected panic/sleep must stay scoped to exactly one
/// request.
fn batch_key(work: &Work) -> Option<ModelKey> {
    let spec = match work {
        Work::Request(Request::Diagnose(spec, _)) => spec,
        Work::DiagnoseTrace(spec, _) => spec,
        Work::Request(_) => return None,
    };
    if spec.workload.starts_with("__") {
        return None;
    }
    Some(ModelKey::from(spec))
}

/// Route one popped job: gather a micro-batch around a batchable diagnose
/// leader, or fall through to the classic one-job path.
fn dispatch(
    job: Job,
    queue: &BoundedQueue<Job>,
    cache: &ModelCache,
    stats: &ServerStats,
    deadline: Duration,
    batch_size: usize,
) {
    let key = if batch_size > 1 { batch_key(&job.work) } else { None };
    let Some(key) = key else {
        process(job, cache, stats, deadline);
        return;
    };
    let mut batch = vec![job];
    batch.extend(
        queue.drain_matching(batch_size - 1, |j| batch_key(&j.work).as_ref() == Some(&key)),
    );
    stats.note_batch(batch.len());
    process_batch(batch, cache, stats, deadline);
}

/// Count and emit one expired request; build its `ERROR` reply.
fn deadline_reply(waited: Duration, deadline: Duration, stats: &ServerStats) -> Reply {
    stats.deadline_expired.inc();
    events().emit(
        Level::Warn,
        "serve.deadline",
        format!(
            "request expired after {}ms queued (limit {}ms)",
            waited.as_millis(),
            deadline.as_millis()
        ),
    );
    Reply::Error(format!(
        "deadline exceeded: request waited {}ms in queue (limit {}ms)",
        waited.as_millis(),
        deadline.as_millis()
    ))
}

/// Count one finished reply the way the `STATUS` block expects.
fn count_reply(reply: &Reply, stats: &ServerStats) {
    match reply {
        Reply::Trained(_) | Reply::Diagnosis(_) | Reply::Stored(_) | Reply::TraceData(_) => {
            stats.served.inc()
        }
        Reply::Error(_) => stats.errored.inc(),
        _ => {}
    }
}

/// Execute one job: deadline check, crash-isolated request handling, reply.
fn process(job: Job, cache: &ModelCache, stats: &ServerStats, deadline: Duration) {
    let Job { responder, work, accepted } = job;
    let waited = accepted.elapsed();
    let reply = if waited > deadline {
        deadline_reply(waited, deadline, stats)
    } else {
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| handle_work(&work, cache, stats)));
        stats.service_us.observe(started.elapsed().as_micros() as u64);
        match outcome {
            Ok(reply) => reply,
            Err(payload) => {
                stats.crashed.inc();
                let message = panic_message(&*payload);
                events().emit(
                    Level::Warn,
                    "serve.worker",
                    format!("request crashed (isolated): {message}"),
                );
                Reply::Error(format!("request crashed: {message}"))
            }
        }
    };
    count_reply(&reply, stats);
    responder.respond(&reply);
}

/// Execute one gathered micro-batch: per-member deadline checks and trace
/// parses (failures answered individually), one model-cache resolution
/// shared by every member, one batched classify sweep, then replies —
/// grouped per session into a single write. The whole sweep runs inside
/// `catch_unwind`; if it panics, every member is retried alone so one
/// poisoned trace cannot take down its batch-mates.
fn process_batch(batch: Vec<Job>, cache: &ModelCache, stats: &ServerStats, deadline: Duration) {
    let mut finished: Vec<(Responder, Reply)> = Vec::with_capacity(batch.len());
    let mut ready: Vec<(Responder, ModelSpec, Trace)> = Vec::with_capacity(batch.len());
    for job in batch {
        let Job { responder, work, accepted } = job;
        let waited = accepted.elapsed();
        if waited > deadline {
            finished.push((responder, deadline_reply(waited, deadline, stats)));
            continue;
        }
        match work {
            Work::Request(Request::Diagnose(spec, bytes)) => match trace_from_bytes(&bytes) {
                Ok(trace) => ready.push((responder, spec, trace)),
                Err(e) => {
                    finished.push((responder, Reply::Error(format!("bad trace payload: {e}"))))
                }
            },
            Work::DiagnoseTrace(spec, trace) => ready.push((responder, spec, *trace)),
            // `batch_key` admits only the two diagnose shapes; anything
            // else is a scheduler bug, but answer it normally anyway.
            work @ Work::Request(_) => {
                process(Job { responder, work, accepted }, cache, stats, deadline);
            }
        }
    }
    if !ready.is_empty() {
        let started = Instant::now();
        // The first member's spec resolves (or trains) the model — exactly
        // the request that would have trained it under sequential dispatch.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let spec0 = &ready[0].1;
            let (model, outcome) = cache.get_or_train(spec0).map_err(|e| e.to_string())?;
            let traces: Vec<&Trace> = ready.iter().map(|(_, _, t)| t).collect();
            let diags =
                diagnose_trace_batch(&model.store, &model.correct, &traces, model.norm_code_len);
            let replies: Vec<Reply> = ready
                .iter()
                .zip(diags.iter())
                .enumerate()
                .map(|(i, ((_, spec, _), diag))| {
                    // Members after the leader see a memory hit, same as
                    // they would arriving right behind it sequentially.
                    let tag = if i == 0 { outcome } else { CacheOutcome::Memory };
                    Reply::Diagnosis(render_diagnosis(&spec.workload, tag, diag))
                })
                .collect();
            Ok::<_, String>((outcome, replies))
        }));
        stats.service_us.observe(started.elapsed().as_micros() as u64);
        match result {
            Ok(Ok((outcome, replies))) => {
                stats.note_cache(outcome);
                for _ in 1..ready.len() {
                    stats.note_cache(CacheOutcome::Memory);
                }
                finished.extend(ready.into_iter().map(|(r, _, _)| r).zip(replies));
            }
            Ok(Err(msg)) => {
                for (responder, _, _) in ready {
                    finished.push((responder, Reply::Error(msg.clone())));
                }
            }
            Err(payload) => {
                let message = panic_message(&*payload);
                events().emit(
                    Level::Warn,
                    "serve.worker",
                    format!("batch crashed (isolated): {message}; retrying members alone"),
                );
                for (responder, spec, trace) in ready {
                    let work = Work::DiagnoseTrace(spec, Box::new(trace));
                    let one = catch_unwind(AssertUnwindSafe(|| handle_work(&work, cache, stats)));
                    let reply = match one {
                        Ok(reply) => reply,
                        Err(p) => {
                            stats.crashed.inc();
                            let m = panic_message(&*p);
                            events().emit(
                                Level::Warn,
                                "serve.worker",
                                format!("request crashed (isolated): {m}"),
                            );
                            Reply::Error(format!("request crashed: {m}"))
                        }
                    };
                    finished.push((responder, reply));
                }
            }
        }
    }
    for (_, reply) in &finished {
        count_reply(reply, stats);
    }
    respond_batch(finished);
}

/// One session's share of a batch: its replies, by request id.
type SessionReplies = (Arc<SessionShared>, Vec<(u32, Reply)>);

/// Deliver a batch's replies: replies sharing a session are concatenated
/// into a single buffered write via [`SessionShared::send_final_batch`].
fn respond_batch(finished: Vec<(Responder, Reply)>) {
    let mut sessions: Vec<SessionReplies> = Vec::new();
    for (Responder { session, request_id }, reply) in finished {
        match sessions.iter_mut().find(|(s, _)| Arc::ptr_eq(s, &session)) {
            Some((_, replies)) => replies.push((request_id, reply)),
            None => sessions.push((session, vec![(request_id, reply)])),
        }
    }
    for (shared, replies) in sessions {
        if let [(request_id, reply)] = &replies[..] {
            shared.send_final(*request_id, reply);
        } else {
            shared.send_final_batch(&replies);
        }
    }
}

/// Map queued work to its reply. Runs *inside* `catch_unwind`: panics out
/// of the diagnosis stack (malformed topologies, workload asserts,
/// injected faults) surface as `ERROR` frames.
fn handle_work(work: &Work, cache: &ModelCache, stats: &ServerStats) -> Reply {
    match work {
        Work::Request(request) => handle_request(request, cache, stats),
        Work::DiagnoseTrace(spec, trace) => {
            if let Some(reply) = fault_hook(spec) {
                return reply;
            }
            let (model, outcome) = match cache.get_or_train(spec) {
                Ok(pair) => pair,
                Err(e) => return Reply::Error(e.to_string()),
            };
            stats.note_cache(outcome);
            let diag = diagnose_trace(&model.store, &model.correct, trace, model.norm_code_len);
            Reply::Diagnosis(render_diagnosis(&spec.workload, outcome, &diag))
        }
    }
}

fn handle_request(request: &Request, cache: &ModelCache, stats: &ServerStats) -> Reply {
    match request {
        Request::Train(spec) => {
            if let Some(reply) = fault_hook(spec) {
                return reply;
            }
            match cache.get_or_train(spec) {
                Ok((model, outcome)) => {
                    stats.note_cache(outcome);
                    if outcome != CacheOutcome::Memory {
                        events().emit(Level::Info, "serve.model", model.summary.clone());
                    }
                    Reply::Trained(format!("{} [{}]", model.summary, outcome_tag(outcome)))
                }
                Err(e) => Reply::Error(e.to_string()),
            }
        }
        Request::Diagnose(spec, trace_bytes) => {
            if let Some(reply) = fault_hook(spec) {
                return reply;
            }
            let trace = match trace_from_bytes(trace_bytes) {
                Ok(t) => t,
                Err(e) => return Reply::Error(format!("bad trace payload: {e}")),
            };
            let (model, outcome) = match cache.get_or_train(spec) {
                Ok(pair) => pair,
                Err(e) => return Reply::Error(e.to_string()),
            };
            stats.note_cache(outcome);
            let diag = diagnose_trace(&model.store, &model.correct, &trace, model.norm_code_len);
            Reply::Diagnosis(render_diagnosis(&spec.workload, outcome, &diag))
        }
        Request::TracePut { key, workload, trace } => {
            let Some(corpus) = cache.corpus() else { return no_corpus() };
            let mut c = corpus.lock().expect("corpus lock");
            match c.put_trace_bytes(key, workload, trace) {
                Ok(info) => Reply::Stored(stored_summary(key, &info)),
                Err(e) => Reply::Error(format!("trace put failed: {e}")),
            }
        }
        Request::TraceGet { key } => {
            let Some(corpus) = cache.corpus() else { return no_corpus() };
            let c = corpus.lock().expect("corpus lock");
            match c.get_trace_text(key) {
                Ok(text) => Reply::TraceData(text),
                Err(e) => Reply::Error(format!("trace get failed: {e}")),
            }
        }
        // The session answers these itself; they never reach the queue.
        Request::Status
        | Request::Shutdown
        | Request::Hello { .. }
        | Request::TracePutStart { .. }
        | Request::DiagnoseStart(_)
        | Request::StreamChunk(_)
        | Request::StreamEnd { .. } => Reply::Error("session frames are session-handled".into()),
    }
}

/// The `ERROR` to a corpus request on a daemon without a corpus store.
pub(crate) fn no_corpus() -> Reply {
    Reply::Error("no corpus store configured; start the daemon with --corpus".into())
}

/// Reserved `__`-prefixed workload names inject faults for testing the
/// daemon's isolation properties (documented in `PROTOCOL.md`):
/// `__panic` panics inside the worker, `__sleep` holds the worker for
/// `seed` milliseconds. Neither touches the model cache.
fn fault_hook(spec: &ModelSpec) -> Option<Reply> {
    match spec.workload.as_str() {
        "__panic" => panic!("injected fault: __panic workload"),
        "__sleep" => {
            std::thread::sleep(Duration::from_millis(spec.seed));
            Some(Reply::Trained(format!("slept {}ms", spec.seed)))
        }
        _ => None,
    }
}

fn outcome_tag(outcome: CacheOutcome) -> &'static str {
    match outcome {
        CacheOutcome::Memory => "cache-hit",
        CacheOutcome::Disk => "cache-hit:disk",
        CacheOutcome::Store => "cache-hit:store",
        CacheOutcome::Trained => "trained",
    }
}

/// Render a diagnosis as the `DIAGNOSIS` reply text: one header line of
/// `key=value` counters, then one `#<rank>` line per suspect (top 10).
fn render_diagnosis(workload: &str, outcome: CacheOutcome, diag: &Diagnosis) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "diagnosis workload={} model={} ranked={} logged={} distinct={} pruned={} filter_pct={:.1}",
        workload,
        outcome_tag(outcome),
        diag.ranked.len(),
        diag.total_logged,
        diag.distinct,
        diag.pruned,
        diag.filter_pct()
    )
    .expect("string write");
    for (i, c) in diag.ranked.iter().take(10).enumerate() {
        let deps: Vec<String> = c
            .deps
            .iter()
            .map(|d| {
                format!("{}->{}{}", d.store_pc, d.load_pc, if d.inter_thread { "*" } else { "" })
            })
            .collect();
        writeln!(
            out,
            "#{} nn={:.3} matched={} occurrences={} tid={} deps={}",
            i + 1,
            c.output,
            c.matched,
            c.occurrences,
            c.tid,
            deps.join(",")
        )
        .expect("string write");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_core::postprocess::RankedSequence;
    use act_sim::events::RawDep;

    #[test]
    fn diagnosis_rendering_is_grep_stable() {
        let diag = Diagnosis {
            ranked: vec![RankedSequence {
                deps: vec![
                    RawDep { store_pc: 7, load_pc: 9, inter_thread: true },
                    RawDep { store_pc: 3, load_pc: 5, inter_thread: false },
                ],
                output: 0.123,
                matched: 1,
                cycle: 42,
                tid: 2,
                occurrences: 4,
            }],
            total_logged: 10,
            distinct: 6,
            pruned: 5,
        };
        let text = render_diagnosis("apache", CacheOutcome::Trained, &diag);
        assert!(text.starts_with("diagnosis workload=apache model=trained ranked=1 "));
        assert!(text.contains("#1 nn=0.123 matched=1 occurrences=4 tid=2 deps=7->9*,3->5"));
    }

    #[test]
    fn sleep_hook_replies_without_touching_the_cache() {
        let mut spec = ModelSpec::new("__sleep");
        spec.seed = 1;
        let reply = fault_hook(&spec).expect("sleep hook fires");
        assert!(matches!(reply, Reply::Trained(s) if s.contains("slept 1ms")));
        assert!(fault_hook(&ModelSpec::new("fft")).is_none());
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn panic_hook_panics() {
        let _ = fault_hook(&ModelSpec::new("__panic"));
    }
}

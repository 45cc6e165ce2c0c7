//! Request workers: a pool of threads draining the daemon's bounded job
//! queue ([`act_fleet::BoundedQueue`]), each unit of work executed inside
//! `catch_unwind` — the same crash-isolation discipline as `act-fleet`'s
//! campaign workers, so one poisoned request becomes an `ERROR` reply, not
//! a dead daemon.
//!
//! # One path: every popped job runs as a micro-batch
//!
//! A worker that pops a batchable diagnose job becomes the *leader* of a
//! micro-batch: it drains every queued job targeting the same [`ModelKey`]
//! up to the configured batch size — without waiting for more to arrive,
//! so batches form from queue backlog alone. Every other job is a batch of
//! one: `TRAIN`, `TRACE_PUT`, `TRACE_GET`, a fault-hook workload
//! (`__`-prefixed, whose per-request panic/sleep injection must hold
//! exactly), and any job on a daemon with batch size 1. A batch runs
//! through [`run_batch`]: per-member deadline checks, each member's fault
//! hook and trace parse, then one *sweep* — one model-cache lookup and one
//! [`act_core::diagnosis::diagnose_trace_batch`] classify sweep for the
//! whole batch — and every member's reply, those bound for the same
//! session going out as one buffered write. The win on a loaded daemon is
//! amortization: one worker wakeup, one lookup, one sweep and one reply
//! syscall per *batch* instead of per request — while the batched kernel
//! is bit-identical to the sequential one, so coalescing is invisible in
//! the reply bytes.

use crate::cache::{CacheOutcome, ModelCache, ModelKey};
use crate::conn::SessionShared;
use crate::proto::{ModelSpec, Reply, Request};
use crate::server::{stored_summary, ServerStats};
use act_core::diagnosis::diagnose_trace_batch;
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
    /// A `DIAGNOSE` whose trace is parsed: a streamed one the session
    /// parsed chunk by chunk (the decode half of the decode→classify
    /// pipeline), or a one-frame one once its batch member parsed it.
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

/// Route one popped job: a batchable diagnose leader gathers its queued
/// companions (and is counted as a batch); every other job is a batch of
/// one.
fn dispatch(
    job: Job,
    queue: &BoundedQueue<Job>,
    cache: &ModelCache,
    stats: &ServerStats,
    deadline: Duration,
    batch_size: usize,
) {
    let mut batch = vec![job];
    if let Some(key) = batch_key(&batch[0].work).filter(|_| batch_size > 1) {
        batch.extend(
            queue.drain_matching(batch_size - 1, |j| batch_key(&j.work).as_ref() == Some(&key)),
        );
        stats.note_batch(batch.len());
    }
    run_batch(batch, cache, stats, deadline);
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

/// Run one request's unit of work — its fault hook and trace parse, or a
/// sweep of one — inside `catch_unwind`. `Err` is the request's final
/// reply; a panic becomes one: counted in `requests_crashed`, emitted as a
/// `serve.worker` event, and answered `ERROR`.
fn isolated<T>(stats: &ServerStats, unit: impl FnOnce() -> Result<T, Reply>) -> Result<T, Reply> {
    catch_unwind(AssertUnwindSafe(unit)).unwrap_or_else(|payload| {
        stats.crashed.inc();
        let message = panic_message(&*payload);
        events().emit(
            Level::Warn,
            "serve.worker",
            format!("request crashed (isolated): {message}"),
        );
        Err(Reply::Error(format!("request crashed: {message}")))
    })
}

/// Execute one batch: per-member deadline checks, each member's fault hook
/// and trace parse (failures answered individually), one sweep over the
/// members left, then replies — grouped per session into a single write.
/// `service_us` records one observation per batch that has a member
/// within its deadline: from the first parse to the end of the sweep.
fn run_batch(batch: Vec<Job>, cache: &ModelCache, stats: &ServerStats, deadline: Duration) {
    let started = Instant::now();
    let mut finished: Vec<(Responder, Reply)> = Vec::with_capacity(batch.len());
    let mut ready: Vec<(Responder, Work)> = Vec::with_capacity(batch.len());
    let mut serviced = false;
    for Job { responder, work, accepted } in batch {
        let waited = accepted.elapsed();
        if waited > deadline {
            finished.push((responder, deadline_reply(waited, deadline, stats)));
            continue;
        }
        serviced = true;
        match isolated(stats, || prepare(work)) {
            Ok(work) => ready.push((responder, work)),
            Err(reply) => finished.push((responder, reply)),
        }
    }
    sweep(ready, cache, stats, &mut finished);
    if serviced {
        stats.service_us.observe(started.elapsed().as_micros() as u64);
    }
    for (_, reply) in &finished {
        count_reply(reply, stats);
    }
    respond_batch(finished);
}

/// A member's own share of the work, before the sweep: its fault hook,
/// and the parse of a one-frame `DIAGNOSE`'s trace. `Err` is its reply.
fn prepare(work: Work) -> Result<Work, Reply> {
    let spec = match &work {
        Work::Request(Request::Train(spec) | Request::Diagnose(spec, _)) => spec,
        Work::DiagnoseTrace(spec, _) => spec,
        Work::Request(_) => return Ok(work),
    };
    if let Some(reply) = fault_hook(spec) {
        return Err(reply);
    }
    match work {
        Work::Request(Request::Diagnose(spec, bytes)) => match trace_from_bytes(&bytes) {
            Ok(trace) => Ok(Work::DiagnoseTrace(spec, Box::new(trace))),
            Err(e) => Err(Reply::Error(format!("bad trace payload: {e}"))),
        },
        work => Ok(work),
    }
}

/// Answer the members that passed their deadline and parse, appending to
/// `finished`. A sweep of one runs [`isolated`]; a sweep of several runs
/// inside `catch_unwind` too, and if it panics every member is retried as
/// a batch of one, so one poisoned trace cannot take down its batch-mates.
fn sweep(
    ready: Vec<(Responder, Work)>,
    cache: &ModelCache,
    stats: &ServerStats,
    finished: &mut Vec<(Responder, Reply)>,
) {
    let (responders, members): (Vec<Responder>, Vec<Work>) = ready.into_iter().unzip();
    let answered = match members.len() {
        0 => return,
        1 => isolated(stats, || answer(&members, cache, stats)),
        _ => match catch_unwind(AssertUnwindSafe(|| answer(&members, cache, stats))) {
            Ok(answered) => answered,
            Err(payload) => {
                let message = panic_message(&*payload);
                events().emit(
                    Level::Warn,
                    "serve.worker",
                    format!("batch crashed (isolated): {message}; retrying members alone"),
                );
                for member in responders.into_iter().zip(members) {
                    sweep(vec![member], cache, stats, finished);
                }
                return;
            }
        },
    };
    match answered {
        Ok(replies) => finished.extend(responders.into_iter().zip(replies)),
        Err(reply) => finished.extend(responders.into_iter().map(|r| (r, reply.clone()))),
    }
}

/// The sweep itself: one reply per member, or `Err` with the one reply
/// every member gets. A batch of several is diagnoses of one model; the
/// first member's spec resolves (or trains) it — exactly the request that
/// would have trained it alone — and its companions see a memory hit, as
/// they would arriving right behind it. Cache outcomes are counted once
/// the sweep has answered, so a sweep retried member by member counts
/// each lookup once.
fn answer(members: &[Work], cache: &ModelCache, stats: &ServerStats) -> Result<Vec<Reply>, Reply> {
    if let [Work::Request(request)] = members {
        return Ok(vec![handle_request(request, cache, stats)]);
    }
    let diagnoses: Vec<(&ModelSpec, &Trace)> = members
        .iter()
        .map(|member| match member {
            Work::DiagnoseTrace(spec, trace) => (spec, &**trace),
            Work::Request(_) => unreachable!("only parsed diagnoses share a batch"),
        })
        .collect();
    let (model, outcome) =
        cache.get_or_train(diagnoses[0].0).map_err(|e| Reply::Error(e.to_string()))?;
    let traces: Vec<&Trace> = diagnoses.iter().map(|&(_, trace)| trace).collect();
    let diags = diagnose_trace_batch(&model.store, &model.correct, &traces, model.norm_code_len);
    let tag = |i: usize| if i == 0 { outcome } else { CacheOutcome::Memory };
    let replies: Vec<Reply> = diagnoses
        .iter()
        .zip(&diags)
        .enumerate()
        .map(|(i, ((spec, _), diag))| {
            Reply::Diagnosis(render_diagnosis(&spec.workload, tag(i), diag))
        })
        .collect();
    for i in 0..replies.len() {
        stats.note_cache(tag(i));
    }
    Ok(replies)
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

/// Answer a request that is not a diagnosis: `TRAIN` and the corpus
/// requests.
fn handle_request(request: &Request, cache: &ModelCache, stats: &ServerStats) -> Reply {
    match request {
        Request::Train(spec) => match cache.get_or_train(spec) {
            Ok((model, outcome)) => {
                stats.note_cache(outcome);
                if outcome != CacheOutcome::Memory {
                    events().emit(Level::Info, "serve.model", model.summary.clone());
                }
                Reply::Trained(format!("{} [{}]", model.summary, outcome_tag(outcome)))
            }
            Err(e) => Reply::Error(e.to_string()),
        },
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
        // A one-frame DIAGNOSE is parsed before the sweep, and the session
        // answers the rest itself; none of these reaches here.
        Request::Diagnose(..)
        | Request::Status
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

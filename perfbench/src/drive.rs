//! The closed loops that drive the service, and the reply checks.
//!
//! One client, one connection at a time. A one-shot loop waits for each
//! reply before sending the next request on a fresh connection. A session
//! loop keeps `depth` requests in flight on one protocol-v4 connection: a
//! second thread reads replies and stamps their arrival, and each reply is
//! matched to its request by id, whatever order replies come back in.

use crate::inputs::{model_spec, Draw, Drawer, Inputs};
use act_serve::proto::{encode_frame, read_frame, write_frame, Frame};
use act_serve::{Reply, Request};
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Socket timeouts for the benchmark's own connections.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The three request kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Diagnose,
    Put,
    Get,
}

impl Op {
    pub const ALL: [Op; 3] = [Op::Diagnose, Op::Put, Op::Get];

    pub fn name(self) -> &'static str {
        match self {
            Op::Diagnose => "DIAGNOSE",
            Op::Put => "TRACE_PUT",
            Op::Get => "TRACE_GET",
        }
    }
}

/// One request as sent: what it was and what its reply must be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sent {
    pub op: Op,
    /// Failing-trace index (DIAGNOSE) or correct-trace index (PUT, GET).
    pub input: usize,
    /// Corpus key (PUT, GET).
    pub key: Option<String>,
    /// Request id (session) or sequence number (one-shot).
    pub id: u32,
    /// Trace bytes carried by the request (0 for GET).
    pub bytes: usize,
}

/// One finished request.
#[derive(Debug, Clone)]
pub struct Done {
    pub sent: Sent,
    /// Send time, relative to the phase start.
    pub start: Duration,
    pub latency: Duration,
    /// The reply passed its check.
    pub ok: bool,
    /// Sent during a traced block (traced runs alternate 250 ms blocks
    /// with and without span recording).
    pub traced: bool,
}

/// Requests in flight, keyed by request id.
#[derive(Debug, Default)]
pub struct Tracker {
    inflight: HashMap<u32, (Sent, Instant)>,
}

impl Tracker {
    /// Note that `sent` left at `at`.
    pub fn sent(&mut self, sent: Sent, at: Instant) {
        self.inflight.insert(sent.id, (sent, at));
    }

    /// The request a reply with `id` answers and its latency, if `id` is in
    /// flight.
    pub fn arrived(&mut self, id: u32, at: Instant) -> Option<(Sent, Duration)> {
        self.inflight.remove(&id).map(|(sent, t)| (sent, at.saturating_duration_since(t)))
    }

    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    /// Everything still in flight (lost when the connection dies).
    pub fn drain(&mut self) -> Vec<(Sent, Instant)> {
        self.inflight.drain().map(|(_, v)| v).collect()
    }
}

/// What a measured phase produced.
#[derive(Debug)]
pub struct Phase {
    /// When the first request was sent; [`Done::start`] counts from here.
    pub started: Instant,
    pub done: Vec<Done>,
    /// From the first send to the last reply.
    pub elapsed: Duration,
}

/// Everything the loops need to build requests and check replies.
pub struct Plan<'a> {
    pub inputs: &'a Inputs,
    /// The reference DIAGNOSIS text of each failing trace.
    pub refs: &'a [String],
    pub seed: u64,
    pub seconds: f64,
    /// Alternate traced and untraced 250 ms blocks.
    pub traced: bool,
}

/// The request stream and the corpus keys whose PUT has returned.
struct Source<'a> {
    plan: &'a Plan<'a>,
    drawer: Drawer,
    stored: Vec<(String, usize)>,
    next_key: u64,
}

impl<'a> Source<'a> {
    fn new(plan: &'a Plan<'a>, drawer: Drawer) -> Source<'a> {
        Source { plan, drawer, stored: Vec::new(), next_key: 0 }
    }

    fn next(&mut self, id: u32) -> Sent {
        let inputs = self.plan.inputs;
        match self.drawer.next(self.stored.len()) {
            Draw::Diagnose(i) => {
                let bytes = inputs.failing[i].bytes.len();
                Sent { op: Op::Diagnose, input: i, key: None, id, bytes }
            }
            Draw::Put(i) => {
                let key = format!("s{}-k{}", self.plan.seed, self.next_key);
                self.next_key += 1;
                let bytes = inputs.correct[i].bytes.len();
                Sent { op: Op::Put, input: i, key: Some(key), id, bytes }
            }
            Draw::Get { pick } => {
                let (key, i) = self.stored[(pick % self.stored.len() as u64) as usize].clone();
                Sent { op: Op::Get, input: i, key: Some(key), id, bytes: 0 }
            }
        }
    }

    /// Check `reply` against what `sent` must get back; a PUT that passes
    /// makes its key readable.
    fn check(&mut self, sent: &Sent, reply: &Reply) -> bool {
        let inputs = self.plan.inputs;
        let ok = match (sent.op, reply) {
            (Op::Diagnose, Reply::Diagnosis(text)) => *text == self.plan.refs[sent.input],
            (Op::Put, Reply::Stored(summary)) => {
                let key = sent.key.as_deref().unwrap_or_default();
                summary.starts_with(&format!("stored {key} "))
            }
            (Op::Get, Reply::TraceData(bytes)) => *bytes == inputs.correct[sent.input].bytes,
            _ => false,
        };
        if ok && sent.op == Op::Put {
            self.stored.push((sent.key.clone().expect("a PUT has a key"), sent.input));
        }
        ok
    }
}

fn in_traced_block(plan: &Plan<'_>, since_start: Duration) -> bool {
    plan.traced && (since_start.as_millis() / 250) % 2 == 1
}

/// One client, a fresh `act-client` connection per request.
pub fn oneshot_phase(addr: &str, plan: &Plan<'_>, drawer: Drawer) -> Result<Phase, String> {
    let client = crate::daemon::client(addr)?;
    let mut source = Source::new(plan, drawer);
    let start = Instant::now();
    let mut phase = Phase { started: start, done: Vec::new(), elapsed: Duration::ZERO };
    let limit = Duration::from_secs_f64(plan.seconds);
    let mut id = 0u32;
    while start.elapsed() < limit {
        id += 1;
        let sent = source.next(id);
        let inputs = plan.inputs;
        let t0 = Instant::now();
        let reply = match (sent.op, sent.key.as_deref()) {
            (Op::Diagnose, _) => {
                let t = &inputs.failing[sent.input];
                client.diagnose(&model_spec(t.workload), &t.bytes).map(Reply::Diagnosis)
            }
            (Op::Put, Some(key)) => {
                let t = &inputs.correct[sent.input];
                client.trace_put(key, t.workload, &t.bytes).map(Reply::Stored)
            }
            (Op::Get, Some(key)) => client.trace_get(key).map(Reply::TraceData),
            _ => unreachable!("PUT and GET always carry a key"),
        };
        let latency = t0.elapsed();
        let ok = reply.is_ok_and(|r| source.check(&sent, &r));
        let since = t0.duration_since(start);
        phase.done.push(Done {
            sent,
            start: since,
            latency,
            ok,
            traced: in_traced_block(plan, since),
        });
    }
    phase.elapsed = start.elapsed();
    Ok(phase)
}

/// A protocol-v4 session: the writing half, the granted window, and the
/// thread that reads replies and stamps their arrival.
pub struct Session {
    stream: TcpStream,
    pub window: u32,
    replies: mpsc::Receiver<Result<(Frame, Instant), String>>,
    reader: Option<std::thread::JoinHandle<()>>,
    buf: Vec<u8>,
}

impl Session {
    /// Connect and open a session asking for `depth` requests in flight.
    pub fn open(addr: &str, depth: u32) -> Result<Session, String> {
        let err = |e: std::io::Error| format!("session to {addr}: {e}");
        let stream = act_serve::connect_tcp(addr, Some(CONNECT_TIMEOUT)).map_err(err)?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(err)?;
        stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(err)?;
        write_frame(&stream, &Request::Hello { window: depth }.to_frame()).map_err(err)?;
        let ack = read_frame(&stream).map_err(|e| format!("session to {addr}: {e}"))?;
        let window = match Reply::from_frame(&ack) {
            Ok(Reply::HelloAck { window }) => window.clamp(1, depth),
            other => return Err(format!("session to {addr}: HELLO answered with {other:?}")),
        };
        let reading = stream.try_clone().map_err(err)?;
        let (tx, replies) = mpsc::channel();
        let reader = std::thread::spawn(move || loop {
            let got = read_frame(&reading).map(|f| (f, Instant::now())).map_err(|e| e.to_string());
            let stop = got.is_err();
            if tx.send(got).is_err() || stop {
                return;
            }
        });
        Ok(Session { stream, window, replies, reader: Some(reader), buf: Vec::new() })
    }

    /// Send `frame` stamped with `id`; returns the send time.
    pub fn send(&mut self, frame: &mut Frame, id: u32) -> Result<Instant, String> {
        frame.request_id = id;
        self.buf.clear();
        encode_frame(&mut self.buf, frame);
        let at = Instant::now();
        self.stream.write_all(&self.buf).map_err(|e| format!("session write: {e}"))?;
        Ok(at)
    }

    /// The next reply to arrive, with its arrival time.
    pub fn recv(&mut self) -> Result<(u32, Reply, Instant), String> {
        let (frame, at) =
            self.replies.recv().map_err(|_| "session reader stopped".to_string())??;
        let reply = Reply::from_frame(&frame).map_err(|e| format!("bad reply frame: {e}"))?;
        Ok((frame.request_id, reply, at))
    }

    /// Send every request with up to `window` in flight; replies in
    /// request order.
    pub fn call_all(&mut self, requests: &[Request]) -> Result<Vec<Reply>, String> {
        let mut replies: Vec<Option<Reply>> = vec![None; requests.len()];
        let (mut next, mut inflight) = (0usize, 0u32);
        while next < requests.len() || inflight > 0 {
            while next < requests.len() && inflight < self.window {
                self.send(&mut requests[next].to_frame(), next as u32 + 1)?;
                next += 1;
                inflight += 1;
            }
            let (id, reply, _) = self.recv()?;
            match replies.get_mut((id as usize).wrapping_sub(1)) {
                Some(slot @ None) if (id as usize) <= next => *slot = Some(reply),
                _ => return Err(format!("reply for request id {id}, which is not in flight")),
            }
            inflight -= 1;
        }
        Ok(replies.into_iter().map(|r| r.expect("every request answered")).collect())
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One client, one session, `depth` requests in flight.
pub fn session_phase(
    addr: &str,
    depth: u32,
    plan: &Plan<'_>,
    drawer: Drawer,
) -> Result<Phase, String> {
    let mut session = Session::open(addr, depth)?;
    // DIAGNOSE frames are built once per input; only the id changes.
    let mut diagnose_frames: Vec<Frame> = plan
        .inputs
        .failing
        .iter()
        .map(|t| Request::Diagnose(model_spec(t.workload), t.bytes.clone()).to_frame())
        .collect();
    let mut source = Source::new(plan, drawer);
    let mut tracker = Tracker::default();
    let limit = Duration::from_secs_f64(plan.seconds);
    let start = Instant::now();
    let mut phase = Phase { started: start, done: Vec::new(), elapsed: Duration::ZERO };
    let mut last = start;
    let mut id = 0u32;
    loop {
        while start.elapsed() < limit && (tracker.len() as u32) < session.window {
            id += 1;
            let sent = source.next(id);
            let at = match (sent.op, sent.key.clone()) {
                (Op::Diagnose, _) => session.send(&mut diagnose_frames[sent.input], id),
                (Op::Put, Some(key)) => {
                    let t = &plan.inputs.correct[sent.input];
                    let workload = t.workload.to_string();
                    let put = Request::TracePut { key, workload, trace: t.bytes.clone() };
                    session.send(&mut put.to_frame(), id)
                }
                (_, key) => {
                    let get = Request::TraceGet { key: key.unwrap_or_default() };
                    session.send(&mut get.to_frame(), id)
                }
            };
            match at {
                Ok(at) => tracker.sent(sent, at),
                Err(e) => {
                    eprintln!("{e}");
                    let since = start.elapsed();
                    let traced = in_traced_block(plan, since);
                    let latency = Duration::ZERO;
                    phase.done.push(Done { sent, start: since, latency, ok: false, traced });
                    break;
                }
            }
        }
        if tracker.len() == 0 {
            break;
        }
        match session.recv() {
            Ok((rid, reply, at)) => {
                last = at;
                let Some((sent, latency)) = tracker.arrived(rid, at) else {
                    eprintln!("reply for request id {rid}, which is not in flight");
                    continue;
                };
                let ok = source.check(&sent, &reply);
                if !ok {
                    eprintln!(
                        "{} request {rid}: unexpected reply {}",
                        sent.op.name(),
                        brief(&reply)
                    );
                }
                let since = (at - latency).duration_since(start);
                let traced = in_traced_block(plan, since);
                phase.done.push(Done { sent, start: since, latency, ok, traced });
            }
            Err(e) => {
                eprintln!("session lost: {e}");
                for (sent, at) in tracker.drain() {
                    let since = at.duration_since(start);
                    let traced = in_traced_block(plan, since);
                    let latency = Duration::ZERO;
                    phase.done.push(Done { sent, start: since, latency, ok: false, traced });
                }
                break;
            }
        }
    }
    phase.elapsed = last.duration_since(start).max(Duration::from_micros(1));
    Ok(phase)
}

/// A reply, shortened for an error message.
fn brief(reply: &Reply) -> String {
    let text = format!("{reply:?}");
    text.chars().take(160).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(id: u32) -> Sent {
        Sent { op: Op::Diagnose, input: id as usize, key: None, id, bytes: 100 }
    }

    #[test]
    fn replies_are_timed_by_request_id_not_send_order() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut tracker = Tracker::default();
        for id in 1..=3 {
            tracker.sent(sent(id), t0 + ms(u64::from(id)));
        }
        // Replies arrive 3, 1, 2.
        let (s3, l3) = tracker.arrived(3, t0 + ms(5)).unwrap();
        let (s1, l1) = tracker.arrived(1, t0 + ms(6)).unwrap();
        let (s2, l2) = tracker.arrived(2, t0 + ms(11)).unwrap();
        assert_eq!((s3.id, l3), (3, ms(2)));
        assert_eq!((s1.id, l1), (1, ms(5)));
        assert_eq!((s2.id, l2), (2, ms(9)));
        assert_eq!(tracker.len(), 0);
        // A duplicate or unknown id matches nothing.
        assert!(tracker.arrived(2, t0 + ms(12)).is_none());
        assert!(tracker.arrived(9, t0 + ms(12)).is_none());
    }

    #[test]
    fn lost_connection_drains_what_is_in_flight() {
        let mut tracker = Tracker::default();
        let t0 = Instant::now();
        tracker.sent(sent(7), t0);
        tracker.sent(sent(8), t0);
        let mut ids: Vec<u32> = tracker.drain().into_iter().map(|(s, _)| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![7, 8]);
        assert_eq!(tracker.len(), 0);
    }
}

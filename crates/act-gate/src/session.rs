//! Client sessions: the gateway end of a connection, plus the
//! chunked-stream relay.
//!
//! Every client connection gets its own session reader thread here,
//! mirroring act-serve's: the first frame decides the window (see
//! [`act_serve::conn`]), and the reader demultiplexes frames, claims a
//! window slot per routable request, and admits each one to the
//! forwarding queue on its own — so requests from one session fail over
//! *independently* (each picks its own backend by shard key) and replies
//! go back out of order, tagged with the client's request ids, written by
//! the forwarding workers.
//!
//! Chunked uploads cannot ride the shared backend sessions (a backend
//! allows one inbound stream per session), so each `TRACE_PUT_START` /
//! `DIAGNOSE_START` opens a dedicated backend connection whose first frame
//! is the opener — a window-1 backend session — and relays chunk frames as
//! they arrive. Failover happens only before the opener is forwarded; once
//! chunks have flowed, a backend failure is an error — half a stream must
//! never be replayed. After `STREAM_END` a one-off thread waits for the
//! backend's verdict so a slow ingest cannot stall the session's other
//! pipelined requests. An upload refused at its opener or lost mid-relay
//! gets its one reply then, and the rest of its stream frames are dropped
//! ([`DeadUploads`]).

use crate::gateway::{route_key, Forward, GateState};
use act_obs::{events, Level};
use act_serve::conn::{next_frame, Conn, DeadUploads, Window};
use act_serve::proto::{read_frame, write_frame, Frame, FrameKind};
use act_serve::{Reply, Request};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The request id stream frames travel under on their dedicated backend
/// connection (a window-1 session, so any fixed id works).
const BACKEND_STREAM_ID: u32 = 1;

/// The half of a client session shared between its reader thread and the
/// forwarding workers answering its requests: the write side of the
/// socket plus the in-flight window. Frames go out whole under the writer
/// lock, so replies from concurrent workers never interleave.
pub(crate) struct GateSessionShared {
    writer: Mutex<Conn>,
    window: Window,
}

impl GateSessionShared {
    /// Write one reply, tagged with the request id it answers.
    pub(crate) fn send(&self, request_id: u32, reply: &Reply) {
        let frame = reply.to_frame().with_request(request_id);
        let mut w = self.writer.lock().expect("gate session writer lock");
        // A vanished client is noticed by the session reader; move on.
        let _ = write_frame(&mut *w, &frame);
    }

    /// Send the final reply for a claimed request, releasing its slot
    /// first (see [`Window::release`]).
    pub(crate) fn send_final(&self, request_id: u32, reply: &Reply) {
        self.window.release();
        self.send(request_id, reply);
    }
}

/// One in-progress chunked upload being relayed to a backend over its own
/// dedicated window-1 session.
struct StreamRelay {
    backend: Conn,
    backend_index: usize,
    client_request_id: u32,
}

/// Drive one client connection from its first frame until the client
/// closes, the gateway drains, or the byte stream breaks.
pub(crate) fn run_gate_session(mut conn: Conn, state: &Arc<GateState>) {
    let _ = conn.set_write_timeout(Some(state.io_timeout));
    let Ok(writer) = conn.try_clone() else { return };
    let Some(first) = next_frame(&mut conn, state.io_timeout, &state.shutdown) else { return };
    let hello = first.as_ref().ok().and_then(|f| Some((f.request_id, Window::asked_by(f)?)));
    let shared = Arc::new(GateSessionShared {
        writer: Mutex::new(writer),
        window: Window::new(hello.map_or(1, |(_, window)| window)),
    });
    // Counted before the ack goes out, so a client holding the ack never
    // reads a count that misses its own session.
    state.stats.sessions_open.add(1);
    let mut pending = match hello {
        Some((hello_id, window)) => {
            shared.send(hello_id, &Reply::HelloAck { window });
            None
        }
        None => Some(first),
    };
    let mut relay: Option<StreamRelay> = None;
    let mut dead = DeadUploads::default();

    while let Some(next) =
        pending.take().or_else(|| next_frame(&mut conn, state.io_timeout, &state.shutdown))
    {
        let frame = match next {
            Ok(frame) => frame,
            Err(e) => {
                // The stream position is unknown (or the peer speaks
                // another version): answer once, then close.
                state.stats.proto_errors.inc();
                shared.send(0, &Reply::Error(format!("bad frame: {e}")));
                conn.shutdown();
                break;
            }
        };
        let request_id = frame.request_id;
        let request = match Request::from_frame(&frame) {
            Ok(r) => r,
            Err(e) => {
                // Framing is intact — only this request is malformed.
                state.stats.proto_errors.inc();
                shared.send(request_id, &Reply::Error(format!("bad request: {e}")));
                continue;
            }
        };
        match request {
            Request::Hello { .. } => {
                shared.send(request_id, &Reply::Error("session already open".into()));
            }
            Request::Status => {
                let (text, snap) = state.aggregated_status();
                shared.send(request_id, &Reply::StatusMetrics(text, snap));
            }
            Request::Shutdown => {
                // Draining before the BYE goes out, so a client holding the
                // BYE never finds the gateway still accepting.
                events().emit(Level::Info, "gate.shutdown", "shutdown requested; draining");
                state.begin_shutdown();
                shared.send(request_id, &Reply::Bye);
                break;
            }
            Request::TracePutStart { .. } | Request::DiagnoseStart(_) => {
                if relay.is_some() || !shared.window.claim() {
                    // One inbound stream per session, same as act-serve,
                    // and it needs a slot.
                    shared.send(request_id, &Reply::Busy);
                    dead.insert(request_id);
                    continue;
                }
                let key = route_key(&request).expect("stream openers carry a shard key");
                match open_relay(state, &frame, &key) {
                    Ok(r) => relay = Some(r),
                    Err(msg) => {
                        state.stats.failed.inc();
                        shared.send_final(request_id, &Reply::Error(msg));
                        dead.insert(request_id);
                    }
                }
            }
            Request::StreamChunk(_) | Request::StreamEnd { .. } => {
                let is_chunk = frame.kind == FrameKind::StreamChunk;
                let Some(active) = relay.as_mut().filter(|r| r.client_request_id == request_id)
                else {
                    if !dead.absorbs(request_id, !is_chunk) {
                        state.stats.proto_errors.inc();
                        let reply = Reply::Error("stream frame outside an open stream".into());
                        shared.send(request_id, &reply);
                    }
                    continue;
                };
                if let Err(e) =
                    write_frame(&mut active.backend, &frame.with_request(BACKEND_STREAM_ID))
                {
                    // Chunks have flowed: no failover, no replay.
                    let lost = relay.take().expect("relay checked above");
                    state.note_backend_down(lost.backend_index, &e.to_string());
                    state.stats.failed.inc();
                    shared.send_final(
                        request_id,
                        &Reply::Error(format!("backend lost mid-stream: {e}")),
                    );
                    if is_chunk {
                        dead.insert(request_id);
                    }
                    continue;
                }
                if is_chunk {
                    state.stats.stream_chunks_relayed.inc();
                    continue;
                }
                // STREAM_END went through: the backend's one reply settles
                // the stream. A one-off thread waits for it so a slow
                // ingest cannot stall this session's other requests.
                let done = relay.take().expect("relay checked above");
                let spawned = std::thread::Builder::new().name("act-gate-stream".into()).spawn({
                    let shared = shared.clone();
                    let state = state.clone();
                    move || finish_relay(done, &shared, &state)
                });
                if spawned.is_err() {
                    events().emit(Level::Warn, "gate.stream", "failed to spawn stream finisher");
                }
            }
            req @ (Request::Train(_)
            | Request::Diagnose(..)
            | Request::TracePut { .. }
            | Request::TraceGet { .. }) => {
                if !shared.window.claim() {
                    shared.send(request_id, &Reply::Busy);
                    continue;
                }
                let key = route_key(&req).expect("routable requests carry a shard key");
                let forward = Forward {
                    session: shared.clone(),
                    request_id,
                    request: req,
                    key,
                    accepted: Instant::now(),
                };
                if state.admit(forward) {
                    state.stats.routed.inc();
                } else {
                    state.stats.rejected_busy.inc();
                    shared.send_final(request_id, &Reply::Busy);
                }
            }
        }
    }
    if relay.is_some() {
        // Client vanished mid-stream. Dropping the backend connection
        // makes the backend abort its half-written stream; the window
        // slot just needs handing back.
        shared.window.release();
    }
    state.stats.sessions_open.add(-1);
}

/// Pick a backend for a new stream (ring order, one failover hop — but
/// only here, before any chunk has flowed), connect, and forward the
/// opener as the first frame of a window-1 backend session.
fn open_relay(state: &GateState, opener: &Frame, key: &str) -> Result<StreamRelay, String> {
    let fwd = opener.clone().with_request(BACKEND_STREAM_ID);
    let mut last_err = String::from("no backends configured");
    for b in state.candidates(key) {
        let sent = state.pool.connect(b).and_then(|mut backend| {
            write_frame(&mut backend, &fwd)?;
            Ok(backend)
        });
        match sent {
            Ok(backend) => {
                state.note_backend_up(b);
                return Ok(StreamRelay {
                    backend,
                    backend_index: b,
                    client_request_id: opener.request_id,
                });
            }
            Err(e) => {
                state.note_backend_down(b, &e.to_string());
                last_err = e.to_string();
            }
        }
    }
    Err(format!("no backend could accept a stream for key {key}: {last_err}"))
}

/// Wait for the backend's verdict on a sealed stream and forward it to
/// the client under its original request id.
fn finish_relay(mut done: StreamRelay, shared: &GateSessionShared, state: &GateState) {
    match read_frame(&mut done.backend).and_then(|f| Reply::from_frame(&f)) {
        Ok(reply) => {
            state.note_backend_up(done.backend_index);
            state.stats.forwarded_by[done.backend_index].inc();
            state.stats.relayed.inc();
            state.stats.streams_relayed.inc();
            shared.send_final(done.client_request_id, &reply);
        }
        Err(e) => {
            state.note_backend_down(done.backend_index, &e.to_string());
            state.stats.failed.inc();
            shared.send_final(
                done.client_request_id,
                &Reply::Error(format!("backend lost mid-stream: {e}")),
            );
        }
    }
}

//! Client sessions: where the gateway's requests and uploads go.
//!
//! A client connection runs act-serve's session loop
//! ([`act_serve::conn::run_session`]) — the same window, handshake,
//! errors, one-upload rule and stream routing as a daemon — and this
//! module is the gateway's side of it. `STATUS` gets the aggregated fleet
//! view, and the session thread admits, routes and sends each routable
//! request itself, so requests from one session fail over
//! *independently* (each picks its own backend by shard key) and replies
//! go back out of order, tagged with the client's request ids, written by
//! the forwarding workers that settle the backends' answers. A session
//! whose backend's window is full, or whose backend stops reading, waits
//! on that backend; no other session does.
//!
//! Chunked uploads cannot ride the shared backend sessions (a backend
//! allows one inbound stream per session), so each `TRACE_PUT_START` /
//! `DIAGNOSE_START` opens a dedicated backend connection whose first frame
//! is the opener — a window-1 backend session — and relays chunk frames as
//! they arrive. Failover happens only before the opener is forwarded; once
//! chunks have flowed, a backend failure is an error — half a stream must
//! never be replayed. After `STREAM_END` a one-off thread waits for the
//! backend's verdict so a slow ingest cannot stall the session's other
//! pipelined requests. An upload counts in `requests_in_flight` from its
//! opener to its one reply, so a drain waits for the verdict; a draining
//! gateway, or one at its in-flight cap, refuses new openers `BUSY`.

use crate::gateway::{route_key, Forward, GateState};
use act_obs::{events, Level};
use act_serve::conn::{Conn, SessionHost, SessionShared, SessionStats};
use act_serve::proto::{read_frame, write_frame, Frame, FrameKind};
use act_serve::{Reply, Request};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The request id stream frames travel under on their dedicated backend
/// connection (a window-1 session, so any fixed id works).
const BACKEND_STREAM_ID: u32 = 1;

/// One upload being relayed to a backend over its own dedicated window-1
/// session.
pub(crate) struct Relay {
    backend: Conn,
    backend_index: usize,
}

impl SessionHost for GateState {
    type Upload = Relay;

    fn session_stats(&self) -> &Arc<SessionStats> {
        &self.stats.session
    }

    fn draining(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn io_timeout(&self) -> Duration {
        self.io_timeout
    }

    fn status(&self) -> Reply {
        let (text, snap) = self.aggregated_status();
        Reply::StatusMetrics(text, snap)
    }

    fn shutdown(&self) {
        events().emit(Level::Info, "gate.shutdown", "shutdown requested; draining");
        self.begin_shutdown();
    }

    /// Admit the request and send it to its ring owner from this session's
    /// thread; past the in-flight cap, or in a drain, it is answered `BUSY`
    /// and never sent.
    fn route(&self, session: &Arc<SessionShared>, request_id: u32, request: Request) {
        if !self.enter() {
            self.stats.rejected_busy.inc();
            return session.send_final(request_id, &Reply::Busy);
        }
        self.stats.routed.inc();
        let key = route_key(&request).expect("routable requests carry a shard key");
        let forward = Forward {
            session: session.clone(),
            request_id,
            request,
            key,
            accepted: Instant::now(),
        };
        self.dispatch(Arc::new(forward));
    }

    /// Count the upload in flight, then open its relay. A failed open or
    /// chunk is counted out as the session loop writes its `ERROR`.
    fn open(&self, opener: Request) -> Result<Relay, Reply> {
        if !self.enter() {
            return Err(Reply::Busy);
        }
        let key = route_key(&opener).expect("stream openers carry a shard key");
        open_relay(self, &opener.to_frame().with_request(BACKEND_STREAM_ID), &key).map_err(|msg| {
            self.stats.failed.inc();
            self.leave();
            Reply::Error(msg)
        })
    }

    fn chunk(&self, relay: &mut Relay, bytes: Vec<u8>) -> Result<(), Reply> {
        self.relay(relay, Frame::new(FrameKind::StreamChunk, bytes))
            .inspect_err(|_| self.leave())?;
        self.stats.stream_chunks_relayed.inc();
        Ok(())
    }

    /// Relay the `STREAM_END`; the backend's one reply settles the upload.
    /// A one-off thread waits for it so a slow ingest cannot stall this
    /// session's other requests.
    fn end(
        self: Arc<Self>,
        session: &Arc<SessionShared>,
        request_id: u32,
        mut relay: Relay,
        crc32: u32,
        total_len: u64,
    ) {
        let end = Request::StreamEnd { crc32, total_len }.to_frame();
        if let Err(reply) = self.relay(&mut relay, end) {
            return self.answer_upload(session, request_id, &reply);
        }
        let (state, finisher_session) = (self.clone(), session.clone());
        let spawned = std::thread::Builder::new()
            .name("act-gate-stream".into())
            .spawn(move || finish_relay(relay, &finisher_session, request_id, &state));
        if spawned.is_err() {
            events().emit(Level::Warn, "gate.stream", "failed to spawn stream finisher");
            self.stats.failed.inc();
            let reply = Reply::Error("gateway could not start a stream finisher".into());
            self.answer_upload(session, request_id, &reply);
        }
    }

    /// Dropping the backend connection makes the backend abort its
    /// half-written upload.
    fn abandon(&self, _relay: Relay) {
        self.leave();
    }
}

impl GateState {
    /// Write an upload's one reply and count the upload out.
    fn answer_upload(&self, session: &SessionShared, request_id: u32, reply: &Reply) {
        session.send_final(request_id, reply);
        self.leave();
    }

    /// Relay one stream frame to its upload's backend. Chunks have flowed
    /// by now, so a failure ends the upload: no failover, no replay.
    fn relay(&self, relay: &mut Relay, frame: Frame) -> Result<(), Reply> {
        write_frame(&mut relay.backend, &frame.with_request(BACKEND_STREAM_ID)).map_err(|e| {
            self.note_backend_down(relay.backend_index, &e.to_string());
            self.stats.failed.inc();
            Reply::Error(format!("backend lost mid-stream: {e}"))
        })
    }
}

/// Pick a backend for a new stream (ring order, one failover hop — but
/// only here, before any chunk has flowed), connect, and forward the
/// opener as the first frame of a window-1 backend session.
fn open_relay(state: &GateState, opener: &Frame, key: &str) -> Result<Relay, String> {
    let mut last_err = String::from("no backends configured");
    for b in state.candidates(key) {
        let sent = state.pool.connect(b).and_then(|mut backend| {
            write_frame(&mut backend, opener)?;
            Ok(backend)
        });
        match sent {
            Ok(backend) => {
                state.note_backend_up(b);
                return Ok(Relay { backend, backend_index: b });
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
fn finish_relay(mut done: Relay, session: &SessionShared, request_id: u32, state: &GateState) {
    let reply = match read_frame(&mut done.backend).and_then(Reply::from_frame) {
        Ok(reply) => {
            state.note_backend_up(done.backend_index);
            state.stats.forwarded_by[done.backend_index].inc();
            state.stats.relayed.inc();
            state.stats.streams_relayed.inc();
            reply
        }
        Err(e) => {
            state.note_backend_down(done.backend_index, &e.to_string());
            state.stats.failed.inc();
            Reply::Error(format!("backend lost mid-stream: {e}"))
        }
    };
    state.answer_upload(session, request_id, &reply);
}

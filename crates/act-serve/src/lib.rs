//! act-serve: diagnosis-as-a-service for ACT.
//!
//! The paper's workflow is offline: run the instrumented program, collect
//! communication traces, train per-thread models, diagnose a failing run.
//! This crate wraps that pipeline in a long-lived daemon so a fleet of
//! production machines can *ship* a failing trace to a central diagnosis
//! service instead of carrying the training stack themselves — the
//! software analogue of the paper's centralized offline analysis step.
//!
//! Architecture (all std, no external dependencies):
//!
//! ```text
//!  clients ── TCP / Unix socket ──► acceptor threads (accept only)
//!                                          │ one thread per connection,
//!                                          │ parked between connections
//!                                          ▼
//!   session loop (conn::run_session, act-gate runs it too): first frame
//!   HELLO → asked window, else window 1; STATUS / SHUTDOWN answered here;
//!   window full ──► BUSY; uploads routed by request id
//!                                          │ SessionHost: the daemon
//!                                          ▼
//!              BoundedQueue<Job> ── full ──► BUSY
//!   (an upload's text is held to its STREAM_END, then queued as the
//!   one-frame TRACE_PUT or DIAGNOSE it spells out)
//!                                          │
//!                                          ▼
//!       worker pool: every popped job runs as a micro-batch
//!       (a DIAGNOSE gathers its queued companions; catch_unwind)
//!                                          │
//!                                          ▼
//!                ModelCache: memory ─► corpus store ─► train
//!                                          │
//!                                          ▼
//!              diagnose_trace_batch ─► ranked suspect list replies
//! ```
//!
//! - [`proto`] — the length-prefixed binary frame protocol (v4 only; see
//!   `PROTOCOL.md` for the wire spec).
//! - [`conn`] — what both daemons share: the Tcp/Unix [`Listener`] and
//!   [`Conn`], the one blocking accept loop and the wake-up a drain sends
//!   it, and the one session loop with the [`conn::SessionHost`] trait a
//!   daemon plugs into it.
//! - [`server`] — listeners, acceptors, the daemon's session host,
//!   backpressure, graceful drain.
//! - [`pool`] — crash-isolated request workers, one micro-batch path.
//! - [`cache`] — the LRU model cache keyed by (workload, topology, seed),
//!   persisted in the corpus store when the daemon has one.
//! - [`client`] — the transport vocabulary ([`Endpoint`], [`ClientConfig`],
//!   ...) that the `act-client` crate's typed `Client` builds on.

pub mod cache;
pub mod client;
pub mod conn;
pub(crate) mod pool;
pub mod proto;
pub mod server;

pub use cache::{cache_hits_misses, CacheOutcome, Model, ModelCache, ModelKey};
pub use client::{connect_tcp, ClientConfig, ClientError, Endpoint, RetryPolicy};
pub use conn::{Conn, Listener, SESSION_WINDOW};
pub use proto::{Frame, FrameKind, ModelSpec, ProtoError, Reply, Request};
pub use server::{ServeConfig, Server, ServerStats};

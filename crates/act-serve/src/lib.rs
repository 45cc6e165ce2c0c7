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
//!                                          │ one thread per connection
//!                                          ▼
//!        session reader: first frame HELLO → asked window, else window 1;
//!        STATUS / SHUTDOWN answered here; streamed chunks decoded here
//!                                          │
//!                                          ▼
//!                    BoundedQueue<Job>  ── full ──► BUSY reply
//!                                          │
//!                                          ▼
//!                            worker pool (catch_unwind)
//!                                          │
//!                                          ▼
//!                     ModelCache: memory ─► disk ─► train
//!                                          │
//!                                          ▼
//!                    diagnose_trace ─► ranked suspect list reply
//! ```
//!
//! - [`proto`] — the length-prefixed binary frame protocol (v4 only; see
//!   `PROTOCOL.md` for the wire spec).
//! - [`conn`] — what both daemons share: the Tcp/Unix [`Listener`] and
//!   [`Conn`], the one blocking accept loop and the wake-up a drain sends
//!   it, the polled frame read, and the in-flight [`Window`].
//! - [`server`] — listeners, acceptors, session readers, backpressure,
//!   graceful drain.
//! - [`pool`] — crash-isolated request workers.
//! - [`cache`] — the LRU model cache keyed by (workload, topology, seed),
//!   persisted through `act-core`'s weight store.
//! - [`client`] — the transport vocabulary ([`Endpoint`], [`ClientConfig`],
//!   ...) that the `act-client` crate's typed `Client` builds on.

pub mod cache;
pub mod client;
pub mod conn;
pub(crate) mod pool;
pub mod proto;
pub mod server;

pub use cache::{CacheOutcome, Model, ModelCache, ModelKey};
pub use client::{connect_tcp, ClientConfig, ClientError, Endpoint, RetryPolicy};
pub use conn::{Conn, Listener, Window, SESSION_WINDOW};
pub use proto::{Frame, FrameKind, ModelSpec, ProtoError, Reply, Request};
pub use server::{ServeConfig, Server, ServerStats};

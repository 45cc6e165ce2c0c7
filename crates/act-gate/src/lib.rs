//! act-gate: a sharded diagnosis gateway in front of an act-serve fleet.
//!
//! One gateway process speaks the act-serve wire protocol on its client
//! side — sessions of any window and chunked stream ingest — and fans
//! requests out to N backends:
//!
//! - [`ring`] — consistent-hash sharding over [`act_fleet::ModelKey`]
//!   canonical strings, with virtual nodes, so repeat TRAIN/DIAGNOSE for a
//!   workload × topology × seed hit the backend whose model cache is warm.
//! - [`health`] — per-backend up/down marks with jittered exponential
//!   backoff between probes of a dead backend.
//! - [`pool`] — one warm multiplexed session per backend, carrying every
//!   forward to that backend.
//! - [`gateway`] — the daemon: acceptor, a cap on requests in flight,
//!   routing, and forwarding workers that settle each answer when it comes
//!   back (nothing waits on a backend), transparent single-retry failover
//!   to the next ring owner, and an aggregated fleet `STATUS`.
//! - `session` — where a request goes: each client connection runs
//!   act-serve's session loop, and the gateway supplies only its
//!   `STATUS`, its drain, the admission, routing and send of each
//!   pipelined request on the session's own thread — routed per request,
//!   so each fails over independently — and the relay of chunked uploads
//!   over a dedicated backend connection.
//!
//! Clients need no changes: `act request`, `act-client` and act-fleet
//! campaigns point at the gateway address exactly as they would at a
//! single act-serve daemon.

pub mod gateway;
pub mod health;
pub mod pool;
pub mod ring;
mod session;

pub use gateway::{GateConfig, GateStats, Gateway};
pub use health::Health;
pub use pool::SessionPool;
pub use ring::{hash_key, HashRing};

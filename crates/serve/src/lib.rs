//! # sama-serve
//!
//! A zero-dependency HTTP/1.1 front door for the Sama engine —
//! `std::net` sockets and one thread per connection, per the
//! workspace's `third_party/` no-network precedent. The serving layer
//! is built robustness-first: every in-process protection the engine
//! already has (typed errors, per-query deadlines, admission shedding,
//! panic isolation) is carried across the process boundary instead of
//! being reinvented at it.
//!
//! ## Endpoints
//!
//! | Route | Behaviour |
//! |---|---|
//! | `POST /query[?k=N]` | SPARQL body → the engine's `--json` document, bit-identical to `sama query --json` |
//! | `POST /batch[?k=N]` | queries separated by `;;` lines → per-slot results + pool stats |
//! | `GET /metrics` | Prometheus exposition of the metric table |
//! | `GET /healthz` | liveness: `200 ok` whenever the listener breathes |
//! | `GET /readyz` | readiness: `200 ready` only after the index is open and a self-probe query succeeded; flips back to `503` while draining |
//!
//! ## Robustness model
//!
//! * **Deadlines** — an `X-Sama-Deadline-Ms` request header becomes a
//!   [`sama_core::QueryBudget`]; without it the engine's configured
//!   default applies.
//! * **Admission control** — a connection cap; accepts beyond it are
//!   shed immediately with `503` + `Retry-After`, mirroring
//!   [`sama_core::QueryError::Shed`].
//! * **Slow-loris** — read/write socket timeouts cut stalled clients
//!   (`serve.timeouts_total`).
//! * **Bounded bodies** — requests beyond the body cap get a typed
//!   `413` without buffering the payload.
//! * **Panic isolation** — a handler panic answers `500` and closes
//!   that one connection; the listener never dies.
//! * **Graceful drain** — SIGTERM/ctrl-c (or a [`ShutdownHandle`])
//!   stops accepting, lets in-flight queries finish or deadline-expire,
//!   and reports a [`DrainReport`].
//!
//! ## Fault sites
//!
//! The `SAMA_FAULTS` harness (see `sama_obs::fault`) gains four network
//! sites: `serve.accept`, `serve.read`, `serve.write`, `serve.handler`
//! — e.g. `SAMA_FAULTS=serve.handler:panic:every=3` panics every third
//! request worker, which the chaos suite uses to prove the listener
//! survives.

#![warn(missing_docs)]

pub mod http;
pub mod server;
pub mod signal;

pub use server::{DrainReport, Server, ShutdownHandle};

use std::time::Duration;

/// Tuning knobs for a [`Server`]. `Default` is sized for a laptop
/// demo; every field has a CLI flag on `sama serve`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port `0` picks a free port).
    pub addr: String,
    /// Default top-k when a request has no `?k=` parameter.
    pub k: usize,
    /// Connection cap: accepts beyond it are shed with `503`.
    pub max_connections: usize,
    /// Request-body cap in bytes; larger bodies get `413`.
    pub max_body_bytes: usize,
    /// Socket read timeout — the slow-loris cut.
    pub read_timeout: Duration,
    /// Socket write timeout — stalled readers are cut too.
    pub write_timeout: Duration,
    /// How long a drain waits for in-flight connections before
    /// giving up on stragglers.
    pub drain_grace: Duration,
    /// Worker threads for `POST /batch` (`0` = hardware threads).
    pub batch_threads: usize,
    /// `POST /batch` admission bound (`0` = unbounded queue).
    pub max_queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            k: 10,
            max_connections: 64,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            drain_grace: Duration::from_secs(5),
            batch_threads: 0,
            max_queue_depth: 0,
        }
    }
}

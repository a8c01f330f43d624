//! # rumor-serve
//!
//! A dependency-free (std-only) HTTP/1.1 JSON service exposing the
//! whole rumor-propagation pipeline as online queries — the deployment
//! mode the paper envisions for platform operators running containment
//! as a service:
//!
//! | Endpoint | Product |
//! |---|---|
//! | `POST /v1/simulate` | Eq. (1) heterogeneous SIR trajectories |
//! | `POST /v1/threshold` | `r0` (Theorem 1), `E0`/`E+` equilibria, Theorem-2 consistency |
//! | `POST /v1/optimize` | guarded-FBSM `ε1/ε2` schedule and cost `J` (Eqs. (15)–(19)) |
//! | `POST /v1/ensemble` | fault-isolated parallel ABM ensemble vs the mean field |
//! | `POST /v1/jobs` | submit a durable campaign (crash-safe sweep over `λ0` or replicas) |
//! | `GET /v1/jobs` / `GET /v1/jobs/{id}` | list / inspect campaign state and quarantine manifest |
//! | `GET /v1/jobs/{id}/results` | the durable per-point result set (partial mid-run) |
//! | `POST /v1/jobs/{id}/cancel` / `.../resume` | stop at a point boundary / re-queue with a fresh retry budget |
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | text counters: requests, cache, rejections, in-flight, latency histograms, job series |
//!
//! Production posture on a one-machine budget:
//!
//! * **One event loop** — a single epoll thread owns every socket
//!   ([`event_loop`]), so an idle keep-alive poller costs a
//!   registration, not a thread. Serving is Linux-only: elsewhere
//!   [`ServeConfig::validate`] rejects every configuration.
//! * **Admission control** — a fixed compute pool behind a *bounded*
//!   queue, plus a connection cap; overload is shed with `503` +
//!   `Retry-After`, never queued unboundedly ([`server`]).
//! * **Deadlines** — per-request wall-clock deadlines measured from
//!   the request's first byte; late answers become `504`.
//! * **Result caching** — deterministic engines make responses pure
//!   functions of the canonical request, so an LRU keyed by the
//!   canonical wire form serves repeats byte-identically ([`cache`],
//!   [`api`]).
//! * **Graceful shutdown** — SIGTERM/SIGINT close the listener and
//!   drain in-flight jobs before exit ([`signal`]).
//! * **Durable campaigns** — `/v1/jobs` submissions persist through a
//!   write-ahead journal (`rumor-jobs`); `kill -9` mid-campaign costs
//!   at most one checkpoint interval and the restarted server resumes
//!   from the durable checkpoint ([`jobs_api`], [`jobs_exec`]).
//!
//! The wire layer ([`wire`]) is a hand-rolled strict JSON
//! parser/serializer, because the offline vendored build has no serde.

pub mod api;
pub mod cache;
#[cfg(target_os = "linux")]
pub mod event_loop;
pub mod handlers;
pub mod http;
pub mod jobs_api;
pub mod jobs_exec;
pub mod metrics;
pub mod server;
pub mod signal;
pub mod wire;

pub use server::{serve, IoBackend, ServeConfig, Server, ServerHandle};

use std::fmt;

/// Top-level service failure.
#[derive(Debug)]
pub enum ServeError {
    /// The configuration was rejected before anything started.
    InvalidConfig(String),
    /// The listen address could not be bound.
    Bind {
        /// The requested address.
        addr: String,
        /// The underlying bind failure.
        source: std::io::Error,
    },
    /// Another I/O failure during startup (socket options, thread
    /// spawning).
    Io(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidConfig(m) => write!(f, "invalid service configuration: {m}"),
            ServeError::Bind { addr, source } => {
                write!(f, "cannot bind {addr}: {source}")
            }
            ServeError::Io(e) => write!(f, "service i/o failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::InvalidConfig(_) => None,
            ServeError::Bind { source, .. } => Some(source),
            ServeError::Io(e) => Some(e),
        }
    }
}

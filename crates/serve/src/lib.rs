//! # deepsd-serve — fault-contained serving daemon
//!
//! The paper's deployment target is Didi's dispatch system; this crate
//! is the missing process boundary around [`deepsd::OnlinePredictor`]:
//! a zero-dependency HTTP/1.1 daemon over `std::net` built to contain
//! faults rather than propagate them (DESIGN.md §4.6).
//!
//! Containment layers, outermost first:
//!
//! * **Socket timeouts** — every accepted connection gets read/write
//!   timeouts, so a slow-loris client stalls one handler thread for a
//!   bounded time, never the daemon.
//! * **Admission control** — predict/observe work enters a bounded
//!   queue; when it is full the request is shed immediately with
//!   `429 Too Many Requests` + `Retry-After`, and both admissions and
//!   sheds are counted in telemetry.
//! * **Deadlines** — each admitted request carries a deadline. Work
//!   that expires in the queue is answered `503` without touching the
//!   model; deadline arithmetic is confined to [`deadline`].
//! * **Micro-batching** — the single engine thread that owns the
//!   predictor coalesces queued predict requests for the same
//!   `(day, t)` slot into one `predict_all_report` call, which scores
//!   all areas in contiguous shares on the engine thread and the
//!   predictor's persistent workers.
//! * **Circuit breaker** — consecutive degraded feed reports trip a
//!   count-driven breaker: `/readyz` flips to 503 (load balancers stop
//!   routing) while `/healthz` stays 200 (the process is alive), and
//!   consecutive healthy reports close it again via half-open probes.
//! * **Graceful drain** — shutdown raises a flag and wakes the
//!   listener; the acceptor stops taking connections, the engine serves
//!   every already-admitted job, and in-flight handlers finish before
//!   [`Server::run`] returns.
//!
//! Everything is deterministic except wall-clock reads, which exist
//! only in [`deadline`] and behind `time_`-namespaced telemetry — the
//! breaker, queue order and batch grouping are all count-driven, which
//! is what makes the chaos harness in `deepsd-bench` reproducible.

#![warn(missing_docs)]
// Serving-critical crate: production code must not unwrap/expect (test
// code is exempt via clippy.toml's allow-unwrap-in-tests).
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod breaker;
pub mod deadline;
pub mod engine;
pub mod http;
pub mod queue;
pub mod server;

pub use breaker::{BreakerState, CircuitBreaker};
pub use deadline::Deadline;
pub use engine::{ContinualHooks, EngineStats};
pub use http::{Request, Response};
pub use queue::{Job, JobQueue, PushError};
pub use server::{ServeError, Server, ServerHandle};

/// Tunables for one daemon instance. The defaults suit the smoke-scale
/// chaos drills; production deployments mostly raise `queue_capacity`
/// and `deadline_ms`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Bounded request-queue capacity; pushes beyond it are shed with
    /// `429` + `Retry-After`.
    pub queue_capacity: usize,
    /// Per-request deadline. A request that cannot be answered within
    /// this budget gets `503 Service Unavailable`.
    pub deadline_ms: u64,
    /// Socket read timeout per connection (slow-loris bound).
    pub read_timeout_ms: u64,
    /// Socket write timeout per connection.
    pub write_timeout_ms: u64,
    /// Maximum jobs the engine dequeues per batching pass.
    pub max_batch: usize,
    /// Consecutive degraded predictions that trip the circuit breaker.
    pub breaker_trip: u32,
    /// Consecutive healthy predictions that close it again.
    pub breaker_restore: u32,
    /// `Retry-After` seconds advertised on shed responses.
    pub retry_after_secs: u32,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 64,
            deadline_ms: 500,
            read_timeout_ms: 1_000,
            write_timeout_ms: 1_000,
            max_batch: 64,
            breaker_trip: 3,
            breaker_restore: 2,
            retry_after_secs: 1,
            max_body_bytes: 1 << 20,
        }
    }
}

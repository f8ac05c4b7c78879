//! # chase-server
//!
//! Chase-as-a-service: a warm resident process that accepts chase and
//! termination-decision sessions over a unix or TCP socket speaking
//! line-delimited flat JSON, runs them concurrently with per-session
//! resource governance, and degrades gracefully under load and faults.
//!
//! The paper's deciders ([`chase_termination`]) and engines
//! ([`chase_engine`]) are CPU-bound batch procedures; amortising
//! process start-up and TGD-set compilation across many requests is
//! what makes interactive use (a notebook, a grader, a CI fleet)
//! practical. The server provides:
//!
//! * **Session isolation** — every request runs as a
//!   [`chase_engine::task`] unit with its own
//!   [`ResourceGovernor`](chase_engine::governor::ResourceGovernor)
//!   (deadline, step/atom budget, cancel token) behind `catch_unwind`
//!   containment at two levels (task and runner); a panicking,
//!   non-terminating or cancelled session leaves every other session's
//!   result bit-identical to a standalone run (see
//!   `tests/server_isolation.rs`).
//! * **Admission control** — a bounded fair-share [`scheduler`] with
//!   per-tenant queues; load is shed with a typed `overloaded` reply
//!   carrying a retry hint, never by blocking or silent drops.
//! * **Graceful degradation** — telemetry is best-effort per
//!   connection (write failures degrade the stream and are counted,
//!   results still delivered); shutdown drains queued and running
//!   sessions before exit.
//!
//! * **Program caching** — programs are compiled once
//!   ([`chase_core::compile`]) at admission and shared as
//!   `Arc<CompiledProgram>`; the content-addressed [`cache`] layer
//!   answers repeated rule sets without re-parsing, memoizes
//!   termination verdicts, and lets clients submit by fingerprint
//!   (`program_ref`).
//!
//! Module map: [`protocol`] (wire grammar), [`scheduler`] (fair-share
//! execution), [`cache`] (compiled programs + decide memoization),
//! [`session`] (one request's lifecycle), [`server`] (sockets,
//! registry, drain), [`client`] (submission + retry with backoff and
//! jitter).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod session;

pub use cache::{Caches, DecideCache, ProgramCache, ProgramCacheConfig};
pub use client::{
    run_session, run_session_with_fallback, ClientConfig, ClientError, SessionResult,
};
pub use protocol::{parse_request, Reply, Request};
pub use scheduler::{Rejected, Scheduler, SchedulerConfig};
pub use server::{ConnWriter, Endpoint, Server, ServerConfig};

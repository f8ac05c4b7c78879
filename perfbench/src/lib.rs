//! # perfbench
//!
//! The served-request benchmark. One run boots the real
//! `chase_server::Server` in-process on a unix socket with the default
//! `ServerConfig`, drives it from a closed loop of two client threads
//! with seeded request streams ([`workload`]), checks every reply
//! ([`check`]) and reports end-to-end metrics; a traced run replays the
//! same streams and reports per-layer metrics ([`layers`]).
//!
//! Workloads, metrics and sizes are recorded in `WORKLOADS.md` beside
//! this package's manifest.

#![forbid(unsafe_code)]

pub mod bench;
pub mod check;
pub mod layers;
pub mod serve;
pub mod sys;
pub mod workload;

//! # chase-telemetry
//!
//! Structured observability for the restricted-chase toolkit: a
//! [`ChaseObserver`] trait fed a stream of typed [`Event`]s by the
//! engines (`chase-engine`) and deciders (`chase-termination`), and
//! built-in sinks:
//!
//! * [`NullObserver`] — the default; reports `enabled() == false`, so
//!   monomorphised call sites fold event construction away entirely
//!   and an unobserved chase pays nothing;
//! * [`CountingObserver`] — aggregates events into named counters,
//!   log₂ [`HistogramSnapshot`]s and per-phase wall-clock, all plain
//!   data, and produces a [`TelemetrySummary`]; it folds parsed trace
//!   lines the same way (`chasectl stats`);
//! * [`JsonlWriter`] — serialises every event as one JSON object per
//!   line (JSON Lines) with the [`json`] module's flat-object encoder,
//!   flushing on drop so buffered traces keep their tail;
//! * [`RecordingObserver`] — buffers events in memory, for tests;
//! * [`SpanObserver`] — the profiler: aggregates the opt-in span /
//!   memory / heartbeat stream (see below) into a [`SpanProfile`]
//!   with per-TGD hot-spot tables, log₂ latency quantiles and
//!   collapsed (flamegraph-compatible) call stacks.
//!
//! The crate deliberately has **no dependencies**; everything is
//! `std`-only so the hot path stays transparent to the optimiser.
//!
//! ## Event schema
//!
//! Every event serialises to a flat JSON object whose `"event"` key is
//! the snake_case kind name (see [`Event::kind`]) and whose `"v"` key
//! is [`SCHEMA_VERSION`]; the remaining keys are the event's fields.
//! Example line produced by [`JsonlWriter`]:
//!
//! ```text
//! {"event":"trigger_checked","v":2,"engine":"restricted","tgd":0,"step":3,"active":true}
//! ```
//!
//! ## Profiling stream
//!
//! Span enter/exit events ([`spans`] names the vocabulary), memory
//! samples and progress heartbeats carry wall-clock readings, so they
//! are **opt-in** via [`ChaseObserver::profiling`] (default `false`):
//! ordinary traces stay byte-for-byte deterministic and the
//! [`NullObserver`] hot path is untouched. Opt in with a
//! [`SpanObserver`], or force the stream onto any sink with
//! [`Profiled`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc_track;
pub mod counters;
pub mod event;
pub mod json;
pub mod observer;
pub mod profiler;
pub mod sinks;
pub mod summary;

pub use counters::HistogramSnapshot;
pub use event::{EngineKind, Event, InterruptReason, NO_TGD, SCHEMA_VERSION};
pub use json::{parse_line, Scalar};
pub use observer::{
    emit, emit_detail, in_span, span_enter, span_enter_at, span_enter_sampled, time_phase,
    ChaseObserver, NullObserver, Profiled, SpanGuard, Tee,
};
pub use profiler::{HeartbeatSample, MemorySample, PathStat, SpanObserver, SpanProfile, SpanStat};
pub use sinks::{CountingObserver, JsonlWriter, RecordingObserver};
pub use summary::TelemetrySummary;

/// Well-known span names of the profiling stream, shared by the
/// engines (producers) and the profiler / `chasectl stats`
/// (consumers). The hierarchy is
/// `run → seed | step → {restriction_check, insert, match}`.
pub mod spans {
    /// A whole engine run.
    pub const RUN: &str = "run";
    /// Initial trigger discovery over the input database.
    pub const SEED: &str = "seed";
    /// Composite pair-index registration before a run. No engine emits
    /// it any more (the pair index was deleted, DESIGN §13.2); the name
    /// stays for readers that still subtract its total, which reads 0.
    pub const INDEX_MAINTAIN: &str = "index_maintain";
    /// One chase iteration, attributed to its TGD.
    pub const STEP: &str = "step";
    /// Delta trigger matching after an application.
    pub const MATCH: &str = "match";
    /// The head-satisfaction (restriction) check of a popped trigger.
    pub const RESTRICTION_CHECK: &str = "restriction_check";
    /// Head-atom insertion and null invention.
    pub const INSERT: &str = "insert";
    /// Top-level decider dispatch in `chase-termination`.
    pub const DECIDE: &str = "decide";
}

/// Well-known counter and phase names, shared by producers
/// (`CountingObserver`) and consumers (`report`, `chasectl stats`)
/// so the two sides cannot drift apart.
pub mod names {
    /// Candidate triggers enqueued (after dedup and the restricted
    /// chase's discovery-time drop).
    pub const TRIGGERS_DISCOVERED: &str = "triggers.discovered";
    /// Activeness checks performed on popped triggers.
    pub const TRIGGERS_CHECKED: &str = "triggers.checked";
    /// Checks that found the trigger still active.
    pub const TRIGGERS_ACTIVE: &str = "triggers.active";
    /// Triggers actually applied (chase steps).
    pub const TRIGGERS_APPLIED: &str = "triggers.applied";
    /// Popped triggers found deactivated (the restricted chase's
    /// defining saving over the oblivious chase).
    pub const TRIGGERS_DEACTIVATED: &str = "triggers.deactivated";
    /// Labelled nulls invented by trigger applications.
    pub const NULLS_INVENTED: &str = "nulls.invented";
    /// Atom insertions attempted (including duplicates).
    pub const ATOMS_INSERTED: &str = "atoms.inserted";
    /// Atom insertions that actually grew the instance.
    pub const ATOMS_FRESH: &str = "atoms.fresh";
    /// Histogram of sampled queue depths.
    pub const QUEUE_DEPTH: &str = "queue.depth";
    /// Runs stopped by a resource governor (deadline or cancellation).
    pub const RUNS_INTERRUPTED: &str = "runs.interrupted";
    /// Büchi states explored by the sticky decider.
    pub const AUTOMATON_STATES: &str = "sticky.automaton_states";
    /// Acyclic seed instances tried by the guarded decider.
    pub const GUARDED_SEEDS: &str = "guarded.seeds_tried";
    /// Progress heartbeats observed (profiling runs only).
    pub const HEARTBEATS: &str = "profile.heartbeats";
    /// Histogram of sampled total instance heap bytes (profiling
    /// runs only).
    pub const MEMORY_BYTES: &str = "memory.instance_bytes";
    /// Server program-cache lookups answered from cache (no compile).
    pub const PROGRAM_CACHE_HITS: &str = "server.program_cache.hits";
    /// Server program-cache lookups that required a fresh compile.
    pub const PROGRAM_CACHE_MISSES: &str = "server.program_cache.misses";
    /// Compiled programs evicted from the server cache (LRU, over the
    /// entry or byte cap).
    pub const PROGRAM_CACHE_EVICTIONS: &str = "server.program_cache.evictions";
    /// Full `compile()` runs performed by the server at admission.
    pub const PROGRAM_COMPILES: &str = "server.program_cache.compiles";
    /// Decide verdicts answered from the memoization cache without
    /// re-running a decider.
    pub const DECIDE_CACHE_HITS: &str = "server.decide_cache.hits";
    /// Decide requests that had to run a decider.
    pub const DECIDE_CACHE_MISSES: &str = "server.decide_cache.misses";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_disabled() {
        let mut obs = NullObserver;
        assert!(!ChaseObserver::enabled(&obs));
        // Must be callable anyway (trait object paths do not consult
        // `enabled` first).
        obs.on_event(&Event::PhaseEntered { phase: "x" });
    }

    #[test]
    fn emit_skips_construction_when_disabled() {
        let mut obs = NullObserver;
        let mut built = false;
        emit(&mut obs, || {
            built = true;
            Event::PhaseEntered { phase: "x" }
        });
        assert!(!built);

        let mut rec = RecordingObserver::default();
        emit(&mut rec, || Event::PhaseEntered { phase: "x" });
        assert_eq!(rec.events.len(), 1);
    }

    #[test]
    fn time_phase_produces_matched_span() {
        let mut rec = RecordingObserver::default();
        let out = time_phase(&mut rec, "work", |obs| {
            obs.on_event(&Event::QueueDepth {
                engine: EngineKind::Restricted,
                step: 0,
                depth: 1,
            });
            42
        });
        assert_eq!(out, 42);
        assert_eq!(rec.events.len(), 3);
        assert_eq!(rec.events[0], Event::PhaseEntered { phase: "work" });
        match rec.events[2] {
            Event::PhaseExited { phase, .. } => assert_eq!(phase, "work"),
            ref e => panic!("expected PhaseExited, got {e:?}"),
        }
    }

    #[test]
    fn tee_forwards_to_both() {
        let mut a = RecordingObserver::default();
        let mut b = CountingObserver::new();
        {
            let mut tee = Tee::new(&mut a, &mut b);
            tee.on_event(&Event::TriggerApplied {
                engine: EngineKind::Restricted,
                tgd: 0,
                step: 1,
                new_atoms: 1,
                new_nulls: 1,
            });
        }
        assert_eq!(a.events.len(), 1);
        let summary = b.summary();
        assert_eq!(summary.counter(names::TRIGGERS_APPLIED), Some(1));
        // Nulls are counted from `NullInvented` events, not from the
        // per-application totals, so no null was registered here.
        assert_eq!(summary.counter(names::NULLS_INVENTED), Some(0));
    }
}

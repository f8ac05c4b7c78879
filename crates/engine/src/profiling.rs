//! Shared helpers for the engines' opt-in profiling stream: periodic
//! memory / progress samples.
//!
//! Everything here is gated on `obs.enabled() && obs.profiling()`, so
//! a [`NullObserver`](chase_telemetry::NullObserver) run never reads
//! the clock, walks the instance or touches the allocation counter —
//! the zero-alloc and equivalence guarantees of the engines are
//! preserved bit for bit.

use std::time::Instant;

use chase_core::instance::Instance;
use chase_telemetry::{ChaseObserver, EngineKind, Event};

/// How many chase steps pass between periodic memory/heartbeat
/// samples when no explicit cadence is configured. A power of two so
/// the modulo folds to a mask.
pub(crate) const DEFAULT_HEARTBEAT_EVERY: u64 = 1024;

/// Default step-span sampling cadence: 1 in this many queue pops gets
/// a full `step`/`restriction_check`/`insert`/`match` span subtree
/// (pop 0 is always sampled). Per-pop span timing costs two to four
/// clock reads, which on sub-microsecond chase steps can double the
/// run time; sampling whole subtrees deterministically by pop index
/// keeps the stream well-nested while holding profiling overhead
/// inside the smoke gate's 10% budget. Trigger fire counts stay exact
/// (they come from `trigger_applied` events, not spans). Use
/// `profile_sample_every(1)` for exhaustive spans.
pub const DEFAULT_PROFILE_SAMPLE_EVERY: u64 = 64;

/// Where a profiled run started: the heartbeat reference clock and the
/// allocation count that its samples report allocations relative to.
#[derive(Clone, Copy)]
pub(crate) struct RunStart {
    clock: Instant,
    allocations: u64,
}

impl RunStart {
    /// The current instant and allocation count.
    pub(crate) fn now() -> RunStart {
        RunStart {
            clock: Instant::now(),
            allocations: chase_telemetry::alloc_track::allocations(),
        }
    }
}

/// Emits one [`Event::MemorySampled`] + [`Event::Heartbeat`] pair
/// describing the instance and run progress at a step boundary.
///
/// Callers hold a `Some(run_start)` exactly when the observer opted
/// into profiling, so unprofiled runs never read the clock, the
/// allocation counter or the [`Instance::memory_footprint`] for a
/// sample.
pub(crate) fn emit_profile_sample<O: ChaseObserver + ?Sized>(
    obs: &mut O,
    engine: EngineKind,
    run_start: RunStart,
    instance: &Instance,
    steps: u64,
    depth: u64,
) {
    let fp = instance.memory_footprint();
    obs.on_event(&Event::MemorySampled {
        engine,
        step: steps,
        atoms: instance.len() as u64,
        atom_bytes: fp.atom_bytes,
        arg_spill_bytes: fp.arg_spill_bytes,
        dedup_bytes: fp.dedup_bytes,
        index_bytes: fp.index_bytes,
        queue_depth: depth,
        allocations: chase_telemetry::alloc_track::allocations() - run_start.allocations,
    });
    let elapsed_ns = u64::try_from(run_start.clock.elapsed().as_nanos())
        .unwrap_or(u64::MAX)
        .max(1);
    let per_sec = |n: u64| n.saturating_mul(1_000_000_000) / elapsed_ns;
    obs.on_event(&Event::Heartbeat {
        engine,
        step: steps,
        elapsed_ns,
        steps_per_sec: per_sec(steps),
        atoms: instance.len() as u64,
        atoms_per_sec: per_sec(instance.len() as u64),
        queue_depth: depth,
    });
}

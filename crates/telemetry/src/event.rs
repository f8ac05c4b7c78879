//! The structured event vocabulary emitted by engines and deciders.

use std::borrow::BorrowMut;
use std::fmt;

use crate::json::Object;

/// Version of the JSONL event schema, emitted as the `"v"` key of
/// every serialised line so downstream consumers can detect drift.
/// Bump it on any change to the wire format and regenerate
/// `tests/golden/intro_trace.jsonl`.
pub const SCHEMA_VERSION: u64 = 2;

/// Sentinel `tgd` index for profiling spans not attributed to a
/// specific TGD (e.g. the whole-run or seeding spans). Serialisation
/// omits the `"tgd"` key for this value.
pub const NO_TGD: u32 = u32::MAX;

/// Which chase variant produced an engine event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The restricted (standard) chase.
    Restricted,
    /// The (fully) oblivious chase.
    Oblivious,
    /// The semi-oblivious chase.
    SemiOblivious,
    /// The real oblivious chase `ochase(D,T)` (labelled graph).
    RealOblivious,
}

impl EngineKind {
    /// Stable snake_case name used in the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Restricted => "restricted",
            EngineKind::Oblivious => "oblivious",
            EngineKind::SemiOblivious => "semi_oblivious",
            EngineKind::RealOblivious => "real_oblivious",
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a run was stopped by its resource governor before reaching a
/// natural end (termination or budget exhaustion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterruptReason {
    /// The wall-clock deadline passed (or an injected deadline fault
    /// tripped).
    Deadline,
    /// The cooperative cancellation token was set.
    Cancelled,
}

impl InterruptReason {
    /// Stable snake_case name used in the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            InterruptReason::Deadline => "deadline",
            InterruptReason::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A single telemetry event.
///
/// Engine events carry the `step` counter current when they were
/// emitted (the number of trigger applications performed so far), so a
/// trace can be replayed against a recorded derivation. Identifier
/// fields (`tgd`, `null`, `predicate`) are the raw `u32` indices of the
/// corresponding interned ids in `chase-core`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A candidate trigger passed the seen-set and was enqueued. A
    /// trigger the restricted chase drops at discovery, because its
    /// ground head already holds, emits none.
    TriggerDiscovered {
        /// Producing engine.
        engine: EngineKind,
        /// Index of the trigger's TGD.
        tgd: u32,
        /// Steps performed when the trigger was discovered.
        step: u64,
    },
    /// A popped trigger was tested for activeness (restricted chase
    /// only — the oblivious variants never check).
    TriggerChecked {
        /// Producing engine.
        engine: EngineKind,
        /// Index of the trigger's TGD.
        tgd: u32,
        /// Steps performed when the check ran.
        step: u64,
        /// Whether the trigger was still active.
        active: bool,
    },
    /// An active trigger was applied (one chase step).
    TriggerApplied {
        /// Producing engine.
        engine: EngineKind,
        /// Index of the trigger's TGD.
        tgd: u32,
        /// Step number of this application (1-based: the value of the
        /// step counter *after* the application).
        step: u64,
        /// Head atoms that were new to the instance.
        new_atoms: u32,
        /// Labelled nulls invented by this application.
        new_nulls: u32,
    },
    /// A popped trigger was found deactivated and dropped — the
    /// defining behaviour of the restricted chase (Section 3.2).
    TriggerDeactivated {
        /// Producing engine.
        engine: EngineKind,
        /// Index of the trigger's TGD.
        tgd: u32,
        /// Steps performed when the trigger was dropped.
        step: u64,
    },
    /// A labelled null was invented by the Skolem table.
    NullInvented {
        /// Producing engine.
        engine: EngineKind,
        /// Raw index of the invented null.
        null: u32,
        /// Steps performed when the null was invented.
        step: u64,
    },
    /// A head atom was inserted into the instance.
    AtomInserted {
        /// Producing engine.
        engine: EngineKind,
        /// Raw index of the atom's predicate.
        predicate: u32,
        /// Steps performed when the insertion happened.
        step: u64,
        /// Whether the atom was new (`false` = already present).
        fresh: bool,
    },
    /// The candidate-trigger queue depth, sampled after a step.
    QueueDepth {
        /// Producing engine.
        engine: EngineKind,
        /// Steps performed at the sample point.
        step: u64,
        /// Number of queued candidate triggers.
        depth: u64,
    },
    /// A named counter was bumped by a decider (e.g. automaton states
    /// explored, seeds tried) — the generic escape hatch for metrics
    /// without a dedicated event variant.
    CounterAdd {
        /// Counter name (use the [`crate::names`] constants where one
        /// exists).
        name: &'static str,
        /// Amount added.
        delta: u64,
    },
    /// The run was stopped by its resource governor (deadline or
    /// cooperative cancellation) with a truthful partial result.
    RunInterrupted {
        /// Producing engine.
        engine: EngineKind,
        /// Steps performed when the interruption was detected.
        step: u64,
        /// What stopped the run.
        reason: InterruptReason,
    },
    /// A named decider/engine phase began.
    PhaseEntered {
        /// Phase name (see the crate docs for the vocabulary).
        phase: &'static str,
    },
    /// A named phase ended after `nanos` of monotonic wall-clock.
    PhaseExited {
        /// Phase name matching the corresponding [`Event::PhaseEntered`].
        phase: &'static str,
        /// Elapsed monotonic nanoseconds.
        nanos: u64,
    },
    /// A profiling span began. Spans are strictly nested (every exit
    /// matches the innermost open span) and only emitted when the
    /// observer opts in via [`crate::ChaseObserver::profiling`] —
    /// they carry wall-clock readings, so they are kept out of the
    /// deterministic default stream.
    SpanEntered {
        /// Span name (see the [`crate::spans`] vocabulary).
        span: &'static str,
        /// TGD index the span is attributed to, or [`NO_TGD`].
        tgd: u32,
    },
    /// A profiling span ended after `nanos` of monotonic wall-clock.
    SpanExited {
        /// Span name matching the corresponding [`Event::SpanEntered`].
        span: &'static str,
        /// TGD index the span is attributed to, or [`NO_TGD`].
        tgd: u32,
        /// Elapsed monotonic nanoseconds.
        nanos: u64,
    },
    /// Instance memory accounting sampled at a step boundary
    /// (profiling runs only). All byte figures are heap footprints
    /// derived from container capacities, not allocator-reported RSS.
    MemorySampled {
        /// Producing engine.
        engine: EngineKind,
        /// Steps performed at the sample point.
        step: u64,
        /// Atoms in the instance.
        atoms: u64,
        /// Bytes of the inline atom storage.
        atom_bytes: u64,
        /// Bytes of spilled `ArgVec` argument storage.
        arg_spill_bytes: u64,
        /// Bytes of the dedup hash map (incl. spilled slot lists).
        dedup_bytes: u64,
        /// Bytes of the predicate and position indexes.
        index_bytes: u64,
        /// Queued candidate triggers at the sample point.
        queue_depth: u64,
        /// Process-wide heap allocations recorded since the run started
        /// (0 unless a counting allocator feeds [`crate::alloc_track`]).
        allocations: u64,
    },
    /// Periodic progress heartbeat (profiling runs only), sized for
    /// live streaming: rates are integer per-second figures over the
    /// whole run so far.
    Heartbeat {
        /// Producing engine.
        engine: EngineKind,
        /// Steps performed so far.
        step: u64,
        /// Monotonic nanoseconds since the run started.
        elapsed_ns: u64,
        /// Trigger applications per second since the run started.
        steps_per_sec: u64,
        /// Atoms in the instance.
        atoms: u64,
        /// Instance atoms per second since the run started.
        atoms_per_sec: u64,
        /// Queued candidate triggers.
        queue_depth: u64,
    },
}

impl Event {
    /// Stable snake_case kind name — the `"event"` key of the JSONL
    /// schema.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::TriggerDiscovered { .. } => "trigger_discovered",
            Event::TriggerChecked { .. } => "trigger_checked",
            Event::TriggerApplied { .. } => "trigger_applied",
            Event::TriggerDeactivated { .. } => "trigger_deactivated",
            Event::NullInvented { .. } => "null_invented",
            Event::AtomInserted { .. } => "atom_inserted",
            Event::QueueDepth { .. } => "queue_depth",
            Event::RunInterrupted { .. } => "run_interrupted",
            Event::CounterAdd { .. } => "counter_add",
            Event::PhaseEntered { .. } => "phase_entered",
            Event::PhaseExited { .. } => "phase_exited",
            Event::SpanEntered { .. } => "span_entered",
            Event::SpanExited { .. } => "span_exited",
            Event::MemorySampled { .. } => "memory_sampled",
            Event::Heartbeat { .. } => "heartbeat",
        }
    }

    /// Serialises the event as one flat JSON object (no trailing
    /// newline) into `out`. Every line carries the schema version as
    /// its `"v"` key.
    pub fn write_json(&self, out: &mut String) {
        self.write_fields(Object::open(out)).finish();
    }

    /// Writes the event's fields into an open object: `event` (the
    /// [`Event::kind`]), `v` ([`SCHEMA_VERSION`]), then the variant's
    /// own fields in declaration order. The server uses this to put an
    /// event behind its session prefix without encoding it twice.
    pub fn write_fields<S: BorrowMut<String>>(&self, obj: Object<S>) -> Object<S> {
        let obj = obj.str("event", self.kind()).num("v", SCHEMA_VERSION);
        match *self {
            Event::TriggerDiscovered { engine, tgd, step }
            | Event::TriggerDeactivated { engine, tgd, step } => obj
                .str("engine", engine.as_str())
                .num("tgd", tgd.into())
                .num("step", step),
            Event::TriggerChecked {
                engine,
                tgd,
                step,
                active,
            } => obj
                .str("engine", engine.as_str())
                .num("tgd", tgd.into())
                .num("step", step)
                .bool("active", active),
            Event::TriggerApplied {
                engine,
                tgd,
                step,
                new_atoms,
                new_nulls,
            } => obj
                .str("engine", engine.as_str())
                .num("tgd", tgd.into())
                .num("step", step)
                .num("new_atoms", new_atoms.into())
                .num("new_nulls", new_nulls.into()),
            Event::NullInvented { engine, null, step } => obj
                .str("engine", engine.as_str())
                .num("null", null.into())
                .num("step", step),
            Event::AtomInserted {
                engine,
                predicate,
                step,
                fresh,
            } => obj
                .str("engine", engine.as_str())
                .num("predicate", predicate.into())
                .num("step", step)
                .bool("fresh", fresh),
            Event::QueueDepth {
                engine,
                step,
                depth,
            } => obj
                .str("engine", engine.as_str())
                .num("step", step)
                .num("depth", depth),
            Event::RunInterrupted {
                engine,
                step,
                reason,
            } => obj
                .str("engine", engine.as_str())
                .num("step", step)
                .str("reason", reason.as_str()),
            Event::CounterAdd { name, delta } => obj.str("name", name).num("delta", delta),
            Event::PhaseEntered { phase } => obj.str("phase", phase),
            Event::PhaseExited { phase, nanos } => obj.str("phase", phase).num("nanos", nanos),
            Event::SpanEntered { span, tgd } => with_tgd(obj.str("span", span), tgd),
            Event::SpanExited { span, tgd, nanos } => {
                with_tgd(obj.str("span", span), tgd).num("nanos", nanos)
            }
            Event::MemorySampled {
                engine,
                step,
                atoms,
                atom_bytes,
                arg_spill_bytes,
                dedup_bytes,
                index_bytes,
                queue_depth,
                allocations,
            } => obj
                .str("engine", engine.as_str())
                .num("step", step)
                .num("atoms", atoms)
                .num("atom_bytes", atom_bytes)
                .num("arg_spill_bytes", arg_spill_bytes)
                .num("dedup_bytes", dedup_bytes)
                .num("index_bytes", index_bytes)
                .num("queue_depth", queue_depth)
                .num("allocations", allocations),
            Event::Heartbeat {
                engine,
                step,
                elapsed_ns,
                steps_per_sec,
                atoms,
                atoms_per_sec,
                queue_depth,
            } => obj
                .str("engine", engine.as_str())
                .num("step", step)
                .num("elapsed_ns", elapsed_ns)
                .num("steps_per_sec", steps_per_sec)
                .num("atoms", atoms)
                .num("atoms_per_sec", atoms_per_sec)
                .num("queue_depth", queue_depth),
        }
    }

    /// The serialised form as an owned string (convenience for tests
    /// and the CLI).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_json(&mut s);
        s
    }
}

/// A span's `tgd` field; omitted for [`NO_TGD`].
fn with_tgd<S: BorrowMut<String>>(obj: Object<S>, tgd: u32) -> Object<S> {
    if tgd == NO_TGD {
        obj
    } else {
        obj.num("tgd", tgd.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_snake_case() {
        let e = Event::TriggerChecked {
            engine: EngineKind::Restricted,
            tgd: 0,
            step: 3,
            active: true,
        };
        assert_eq!(e.kind(), "trigger_checked");
        assert_eq!(
            e.to_json(),
            "{\"event\":\"trigger_checked\",\"v\":2,\"engine\":\"restricted\",\"tgd\":0,\"step\":3,\"active\":true}"
        );
    }

    #[test]
    fn resilience_events_serialise_flat() {
        let e = Event::RunInterrupted {
            engine: EngineKind::Oblivious,
            step: 3,
            reason: InterruptReason::Deadline,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"run_interrupted\",\"v\":2,\"engine\":\"oblivious\",\"step\":3,\"reason\":\"deadline\"}"
        );
        assert_eq!(InterruptReason::Cancelled.as_str(), "cancelled");
    }

    #[test]
    fn phase_events_roundtrip_names() {
        let e = Event::PhaseExited {
            phase: "sticky.emptiness",
            nanos: 12345,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"phase_exited\",\"v\":2,\"phase\":\"sticky.emptiness\",\"nanos\":12345}"
        );
    }

    #[test]
    fn span_events_omit_the_sentinel_tgd() {
        let e = Event::SpanEntered {
            span: "step",
            tgd: 3,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"span_entered\",\"v\":2,\"span\":\"step\",\"tgd\":3}"
        );
        let e = Event::SpanExited {
            span: "run",
            tgd: NO_TGD,
            nanos: 99,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"span_exited\",\"v\":2,\"span\":\"run\",\"nanos\":99}"
        );
    }

    #[test]
    fn profiling_samples_serialise_flat() {
        let e = Event::MemorySampled {
            engine: EngineKind::Restricted,
            step: 4,
            atoms: 10,
            atom_bytes: 480,
            arg_spill_bytes: 0,
            dedup_bytes: 640,
            index_bytes: 320,
            queue_depth: 2,
            allocations: 55,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"memory_sampled\",\"v\":2,\"engine\":\"restricted\",\"step\":4,\
             \"atoms\":10,\"atom_bytes\":480,\"arg_spill_bytes\":0,\"dedup_bytes\":640,\
             \"index_bytes\":320,\"queue_depth\":2,\"allocations\":55}"
        );
        let e = Event::Heartbeat {
            engine: EngineKind::Restricted,
            step: 100,
            elapsed_ns: 2_000_000,
            steps_per_sec: 50_000,
            atoms: 210,
            atoms_per_sec: 105_000,
            queue_depth: 7,
        };
        let json = e.to_json();
        assert!(
            json.starts_with("{\"event\":\"heartbeat\",\"v\":2,"),
            "{json}"
        );
        assert!(json.contains("\"steps_per_sec\":50000"), "{json}");
        assert!(!json.contains('['), "flat schema only: {json}");
    }
}

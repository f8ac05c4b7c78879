//! Built-in observers: counting, JSON Lines, and in-memory recording.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Arc;

use crate::counters::{Counter, Counters, Histogram};
use crate::event::Event;
use crate::names;
use crate::observer::ChaseObserver;
use crate::summary::TelemetrySummary;

/// Aggregates the event stream into the [`Counters`] registry plus
/// per-phase wall-clock, and renders a [`TelemetrySummary`].
#[derive(Debug)]
pub struct CountingObserver {
    counters: Counters,
    // Cached handles for the hot counters, registered eagerly so the
    // registry lock is never taken on the event path.
    discovered: Arc<Counter>,
    checked: Arc<Counter>,
    active: Arc<Counter>,
    applied: Arc<Counter>,
    deactivated: Arc<Counter>,
    nulls: Arc<Counter>,
    inserted: Arc<Counter>,
    fresh: Arc<Counter>,
    interrupted: Arc<Counter>,
    queue_depth: Arc<Histogram>,
    heartbeats: Arc<Counter>,
    memory_bytes: Arc<Histogram>,
    /// Lazily registered `span.<name>` histograms, cached by the
    /// span's static name so the registry lock is taken once per
    /// distinct span, not once per event.
    span_hists: BTreeMap<&'static str, Arc<Histogram>>,
    /// `(phase, total nanos)` in completion order.
    phases: Vec<(String, u64)>,
}

impl Default for CountingObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl CountingObserver {
    /// An observer with all well-known metrics pre-registered at zero.
    pub fn new() -> Self {
        let counters = Counters::new();
        let discovered = counters.counter(names::TRIGGERS_DISCOVERED);
        let checked = counters.counter(names::TRIGGERS_CHECKED);
        let active = counters.counter(names::TRIGGERS_ACTIVE);
        let applied = counters.counter(names::TRIGGERS_APPLIED);
        let deactivated = counters.counter(names::TRIGGERS_DEACTIVATED);
        let nulls = counters.counter(names::NULLS_INVENTED);
        let inserted = counters.counter(names::ATOMS_INSERTED);
        let fresh = counters.counter(names::ATOMS_FRESH);
        let interrupted = counters.counter(names::RUNS_INTERRUPTED);
        let queue_depth = counters.histogram(names::QUEUE_DEPTH);
        let heartbeats = counters.counter(names::HEARTBEATS);
        let memory_bytes = counters.histogram(names::MEMORY_BYTES);
        CountingObserver {
            counters,
            discovered,
            checked,
            active,
            applied,
            deactivated,
            nulls,
            inserted,
            fresh,
            interrupted,
            queue_depth,
            heartbeats,
            memory_bytes,
            span_hists: BTreeMap::new(),
            phases: Vec::new(),
        }
    }

    /// The underlying registry, for registering decider-specific
    /// counters (e.g. automaton states explored).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The aggregated summary so far. Histograms with zero
    /// observations and counters still at zero are kept, so the
    /// summary's shape is stable across runs.
    pub fn summary(&self) -> TelemetrySummary {
        let mut counters = Vec::new();
        let mut histograms = Vec::new();
        for (name, snapshot) in self.counters.snapshot() {
            match snapshot {
                crate::counters::MetricSnapshot::Counter(v) => counters.push((name, v)),
                crate::counters::MetricSnapshot::Histogram(h) => histograms.push((name, h)),
            }
        }
        TelemetrySummary {
            phases: self.phases.clone(),
            counters,
            histograms,
        }
    }
}

impl ChaseObserver for CountingObserver {
    fn on_event(&mut self, event: &Event) {
        match *event {
            Event::TriggerDiscovered { .. } => self.discovered.incr(),
            Event::TriggerChecked { active, .. } => {
                self.checked.incr();
                if active {
                    self.active.incr();
                }
            }
            Event::TriggerApplied {
                new_atoms,
                new_nulls,
                ..
            } => {
                self.applied.incr();
                // `NullInvented`/`AtomInserted` events carry the same
                // information; the per-application totals here are
                // deliberately *not* double counted into those
                // counters.
                let _ = (new_atoms, new_nulls);
            }
            Event::TriggerDeactivated { .. } => self.deactivated.incr(),
            Event::NullInvented { .. } => self.nulls.incr(),
            Event::AtomInserted { fresh, .. } => {
                self.inserted.incr();
                if fresh {
                    self.fresh.incr();
                }
            }
            Event::QueueDepth { depth, .. } => self.queue_depth.record(depth),
            Event::RunInterrupted { .. } => self.interrupted.incr(),
            Event::CounterAdd { name, delta } => self.counters.counter(name).add(delta),
            Event::PhaseEntered { .. } => {}
            Event::PhaseExited { phase, nanos } => {
                match self.phases.iter_mut().find(|(p, _)| p == phase) {
                    Some((_, total)) => *total += nanos,
                    None => self.phases.push((phase.to_string(), nanos)),
                }
            }
            Event::SpanEntered { .. } => {}
            Event::SpanExited { span, nanos, .. } => {
                let counters = &self.counters;
                self.span_hists
                    .entry(span)
                    .or_insert_with(|| counters.histogram(&format!("span.{span}")))
                    .record(nanos);
            }
            Event::MemorySampled {
                atom_bytes,
                arg_spill_bytes,
                dedup_bytes,
                index_bytes,
                ..
            } => self
                .memory_bytes
                .record(atom_bytes + arg_spill_bytes + dedup_bytes + index_bytes),
            Event::Heartbeat { .. } => self.heartbeats.incr(),
        }
    }
}

/// Writes one JSON object per event, newline-terminated (JSON Lines).
///
/// I/O errors never abort the chase that is being observed: a failed
/// write drops *that event*, bumps [`JsonlWriter::io_errors`] and
/// remembers the first error for diagnostics, then the writer keeps
/// attempting subsequent events (a transient failure — a full pipe, a
/// rotated log — should not silence the rest of the trace).
/// [`JsonlWriter::finish`] reports only flush failures; callers that
/// care about dropped events inspect [`JsonlWriter::io_errors`]. The
/// writer buffers internally per event only; wrap the target in a
/// [`std::io::BufWriter`] for file output.
///
/// Degradation is reported **once**: with
/// [`JsonlWriter::warn_on_degrade`] set, the writer prints a single
/// stderr warning the first time a write fails, then counts every
/// further drop silently — a resident server tailing a broken sink
/// must not emit one warning line per dropped event. The final
/// dropped-event count is the caller's to report at flush time (see
/// `chasectl`'s trace summary).
///
/// Dropping the writer flushes it (errors ignored — `Drop` cannot
/// report them), so a trace wrapped in a `BufWriter` does not lose
/// its tail on an early return; call [`JsonlWriter::finish`] to
/// observe flush failures explicitly.
#[derive(Debug)]
pub struct JsonlWriter<W: Write> {
    /// `Some` until `finish` moves the writer out; `Drop` flushes the
    /// remaining case.
    out: Option<W>,
    buf: String,
    written: u64,
    io_errors: u64,
    first_error: Option<io::Error>,
    /// Label prepended to the one-time degrade warning; `None`
    /// disables the warning entirely (tests, in-memory sinks).
    warn_label: Option<String>,
    /// Degrade warnings actually emitted (0 or 1; observable so tests
    /// can assert the dedupe).
    warnings_emitted: u32,
}

impl<W: Write> JsonlWriter<W> {
    /// A writer over `out`.
    pub fn new(out: W) -> Self {
        JsonlWriter {
            out: Some(out),
            buf: String::with_capacity(128),
            written: 0,
            io_errors: 0,
            first_error: None,
            warn_label: None,
            warnings_emitted: 0,
        }
    }

    /// Enables the one-time stderr warning on the first failed write,
    /// prefixed with `label` (typically the sink's file name). Later
    /// failures are counted silently; report
    /// [`JsonlWriter::io_errors`] at flush time for the total.
    pub fn warn_on_degrade(mut self, label: impl Into<String>) -> Self {
        self.warn_label = Some(label.into());
        self
    }

    /// Number of events successfully written.
    pub fn events_written(&self) -> u64 {
        self.written
    }

    /// Number of events dropped because the underlying writer failed.
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    /// The first write error encountered, if any (later errors only
    /// bump [`JsonlWriter::io_errors`]).
    pub fn first_error(&self) -> Option<&io::Error> {
        self.first_error.as_ref()
    }

    /// Degrade warnings emitted so far — 0 before the first failed
    /// write, 1 ever after (the warning is deduplicated).
    pub fn degrade_warnings_emitted(&self) -> u32 {
        self.warnings_emitted
    }

    /// Flushes and returns the underlying writer. Dropped events are
    /// *not* an error here — check [`JsonlWriter::io_errors`]; only a
    /// failing flush is reported, and only for a sink that had not
    /// already degraded (a degraded sink's flush failure is part of
    /// the same breakage, already counted and warned about once).
    pub fn finish(mut self) -> io::Result<W> {
        let mut out = self.out.take().expect("writer present until finish");
        match out.flush() {
            Ok(()) => Ok(out),
            Err(_) if self.io_errors > 0 => Ok(out),
            Err(e) => Err(e),
        }
    }
}

impl<W: Write> Drop for JsonlWriter<W> {
    fn drop(&mut self) {
        if let Some(out) = self.out.as_mut() {
            // Best effort: a buffered trace must not lose its tail on
            // an early return, and `Drop` has nowhere to report a
            // failure.
            let _ = out.flush();
        }
    }
}

impl<W: Write> ChaseObserver for JsonlWriter<W> {
    fn on_event(&mut self, event: &Event) {
        self.buf.clear();
        event.write_json(&mut self.buf);
        self.buf.push('\n');
        let out = self.out.as_mut().expect("writer present until finish");
        match out.write_all(self.buf.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(err) => {
                self.io_errors += 1;
                if self.first_error.is_none() {
                    // First failure: warn once (if asked to), then
                    // degrade quietly — one warning per *sink*, never
                    // one per dropped event.
                    if let Some(label) = &self.warn_label {
                        self.warnings_emitted += 1;
                        eprintln!(
                            "{label}: warning: trace sink degraded ({err}); further dropped \
                             events are counted silently and reported at flush"
                        );
                    }
                    self.first_error = Some(err);
                }
            }
        }
    }
}

/// Serialises every event to its JSON line and hands the line to a
/// callback — the building block for routing one engine run's
/// telemetry into a larger multiplexed stream (the `chase-server`
/// wire protocol tags each line with its session id and forwards it
/// over the connection).
///
/// The closure receives the bare event object (no trailing newline);
/// framing and routing are the callback's business. `profiling`
/// controls whether the engines emit their span/memory/heartbeat
/// stream into this sink.
pub struct LineObserver<F: FnMut(&str)> {
    sink: F,
    buf: String,
    profiling: bool,
}

impl<F: FnMut(&str)> LineObserver<F> {
    /// An observer handing each event line to `sink`.
    pub fn new(sink: F) -> Self {
        LineObserver {
            sink,
            buf: String::with_capacity(128),
            profiling: false,
        }
    }

    /// Opts the observer into the profiling stream (spans, memory
    /// samples, heartbeats).
    pub fn with_profiling(mut self, profiling: bool) -> Self {
        self.profiling = profiling;
        self
    }
}

impl<F: FnMut(&str)> std::fmt::Debug for LineObserver<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineObserver")
            .field("profiling", &self.profiling)
            .finish()
    }
}

impl<F: FnMut(&str)> ChaseObserver for LineObserver<F> {
    fn profiling(&self) -> bool {
        self.profiling
    }

    fn on_event(&mut self, event: &Event) {
        self.buf.clear();
        event.write_json(&mut self.buf);
        (self.sink)(&self.buf);
    }
}

/// Buffers every event in memory; intended for tests and small traces.
#[derive(Debug, Clone, Default)]
pub struct RecordingObserver {
    /// The events in emission order.
    pub events: Vec<Event>,
}

impl ChaseObserver for RecordingObserver {
    fn on_event(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EngineKind;

    fn sample_events() -> Vec<Event> {
        let engine = EngineKind::Restricted;
        vec![
            Event::TriggerDiscovered {
                engine,
                tgd: 0,
                step: 0,
            },
            Event::TriggerChecked {
                engine,
                tgd: 0,
                step: 0,
                active: true,
            },
            Event::NullInvented {
                engine,
                null: 0,
                step: 1,
            },
            Event::AtomInserted {
                engine,
                predicate: 1,
                step: 1,
                fresh: true,
            },
            Event::TriggerApplied {
                engine,
                tgd: 0,
                step: 1,
                new_atoms: 1,
                new_nulls: 1,
            },
            Event::QueueDepth {
                engine,
                step: 1,
                depth: 0,
            },
            Event::PhaseExited {
                phase: "chase",
                nanos: 500,
            },
        ]
    }

    #[test]
    fn counting_observer_aggregates() {
        let mut obs = CountingObserver::new();
        for e in sample_events() {
            obs.on_event(&e);
        }
        let s = obs.summary();
        assert_eq!(s.counter(names::TRIGGERS_DISCOVERED), Some(1));
        assert_eq!(s.counter(names::TRIGGERS_CHECKED), Some(1));
        assert_eq!(s.counter(names::TRIGGERS_ACTIVE), Some(1));
        assert_eq!(s.counter(names::TRIGGERS_APPLIED), Some(1));
        assert_eq!(s.counter(names::TRIGGERS_DEACTIVATED), Some(0));
        assert_eq!(s.counter(names::NULLS_INVENTED), Some(1));
        assert_eq!(s.counter(names::ATOMS_INSERTED), Some(1));
        assert_eq!(s.counter(names::ATOMS_FRESH), Some(1));
        assert_eq!(s.phase_nanos("chase"), Some(500));
        let depth = s.histogram(names::QUEUE_DEPTH).unwrap();
        assert_eq!(depth.count, 1);
        assert_eq!(depth.max, 0);
    }

    #[test]
    fn jsonl_writer_emits_one_line_per_event() {
        let mut writer = JsonlWriter::new(Vec::new());
        for e in sample_events() {
            writer.on_event(&e);
        }
        assert_eq!(writer.events_written(), 7);
        let bytes = writer.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7);
        for line in &lines {
            assert!(line.starts_with("{\"event\":\""), "line: {line}");
            assert!(line.ends_with('}'), "line: {line}");
        }
        assert!(lines[0].contains("\"trigger_discovered\""));
        assert!(lines[6].contains("\"phase_exited\""));
    }

    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk full"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_writer_degrades_on_write_failure() {
        let mut writer = JsonlWriter::new(FailingWriter);
        writer.on_event(&Event::PhaseEntered { phase: "x" });
        writer.on_event(&Event::PhaseEntered { phase: "y" });
        assert_eq!(writer.events_written(), 0);
        assert_eq!(writer.io_errors(), 2);
        assert_eq!(writer.first_error().unwrap().to_string(), "disk full");
        // Dropped events never fail the run; only flush errors do.
        assert!(writer.finish().is_ok());
    }

    /// Fails the first `fail` writes, then recovers.
    struct FlakyVecWriter {
        fail: u32,
        out: Vec<u8>,
    }

    impl Write for FlakyVecWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.fail > 0 {
                self.fail -= 1;
                return Err(io::Error::other("transient"));
            }
            self.out.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_writer_warns_exactly_once_on_degrade() {
        let mut writer = JsonlWriter::new(FailingWriter).warn_on_degrade("test-sink");
        assert_eq!(writer.degrade_warnings_emitted(), 0);
        for _ in 0..5 {
            writer.on_event(&Event::PhaseEntered { phase: "x" });
        }
        assert_eq!(writer.io_errors(), 5);
        assert_eq!(
            writer.degrade_warnings_emitted(),
            1,
            "one warning per sink, not one per dropped event"
        );
        // A degraded sink's flush failure is part of the same
        // breakage: already counted, not a fresh error.
        assert!(writer.finish().is_ok());
    }

    /// A writer whose writes succeed but whose flush fails.
    struct FlushFailWriter;

    impl Write for FlushFailWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("flush failed"))
        }
    }

    #[test]
    fn jsonl_writer_still_reports_flush_failure_when_not_degraded() {
        let mut writer = JsonlWriter::new(FlushFailWriter);
        writer.on_event(&Event::PhaseEntered { phase: "x" });
        assert_eq!(writer.io_errors(), 0);
        assert!(writer.finish().is_err(), "healthy sink, failing flush");
    }

    #[test]
    fn line_observer_routes_each_event_line() {
        let mut lines: Vec<String> = Vec::new();
        {
            let mut obs = LineObserver::new(|line: &str| lines.push(line.to_string()));
            assert!(obs.enabled());
            assert!(!obs.profiling());
            obs.on_event(&Event::PhaseEntered { phase: "x" });
            obs.on_event(&Event::PhaseExited {
                phase: "x",
                nanos: 7,
            });
        }
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with("{\"event\":\""), "line: {line}");
            assert!(line.ends_with('}'), "no newline framing: {line}");
            assert!(crate::json::parse_line(line).is_ok());
        }
    }

    #[test]
    fn line_observer_profiling_gate() {
        let mut obs = LineObserver::new(|_line: &str| {}).with_profiling(true);
        assert!(obs.profiling());
        obs.on_event(&Event::PhaseEntered { phase: "x" });
    }

    #[test]
    fn jsonl_writer_keeps_writing_after_transient_failure() {
        let mut writer = JsonlWriter::new(FlakyVecWriter {
            fail: 1,
            out: Vec::new(),
        });
        writer.on_event(&Event::PhaseEntered { phase: "lost" });
        writer.on_event(&Event::PhaseEntered { phase: "kept" });
        assert_eq!(writer.events_written(), 1);
        assert_eq!(writer.io_errors(), 1);
        let inner = writer.finish().unwrap();
        let text = String::from_utf8(inner.out).unwrap();
        assert!(text.contains("\"kept\""));
        assert!(!text.contains("\"lost\""));
    }

    /// A writer that records whether `flush` was called, via a shared
    /// flag (the writer itself is consumed by the sink).
    struct FlushProbe {
        flushed: Arc<std::sync::atomic::AtomicBool>,
        buffered: Vec<u8>,
    }

    impl Write for FlushProbe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.buffered.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.flushed
                .store(true, std::sync::atomic::Ordering::SeqCst);
            Ok(())
        }
    }

    #[test]
    fn jsonl_writer_flushes_on_drop() {
        let flushed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        {
            let mut writer = JsonlWriter::new(FlushProbe {
                flushed: Arc::clone(&flushed),
                buffered: Vec::new(),
            });
            writer.on_event(&Event::PhaseEntered { phase: "tail" });
            // Dropped without `finish` — e.g. an early return.
        }
        assert!(flushed.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn jsonl_writer_finish_does_not_double_flush_in_drop() {
        let flushed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = JsonlWriter::new(FlushProbe {
            flushed: Arc::clone(&flushed),
            buffered: Vec::new(),
        });
        let inner = writer.finish().unwrap();
        assert!(flushed.load(std::sync::atomic::Ordering::SeqCst));
        assert!(inner.buffered.is_empty());
    }

    #[test]
    fn counting_observer_aggregates_profiling_events() {
        let mut obs = CountingObserver::new();
        obs.on_event(&Event::SpanEntered {
            span: "step",
            tgd: 0,
        });
        obs.on_event(&Event::SpanExited {
            span: "step",
            tgd: 0,
            nanos: 120,
        });
        obs.on_event(&Event::SpanExited {
            span: "step",
            tgd: 1,
            nanos: 80,
        });
        obs.on_event(&Event::MemorySampled {
            engine: EngineKind::Restricted,
            step: 2,
            atoms: 5,
            atom_bytes: 100,
            arg_spill_bytes: 0,
            dedup_bytes: 50,
            index_bytes: 30,
            queue_depth: 1,
            allocations: 7,
        });
        obs.on_event(&Event::Heartbeat {
            engine: EngineKind::Restricted,
            step: 2,
            elapsed_ns: 10,
            steps_per_sec: 1,
            atoms: 5,
            atoms_per_sec: 2,
            queue_depth: 1,
        });
        let s = obs.summary();
        let span = s.histogram("span.step").unwrap();
        assert_eq!(span.count, 2);
        assert_eq!(span.sum, 200);
        assert_eq!(s.histogram(names::MEMORY_BYTES).unwrap().max, 180);
        assert_eq!(s.counter(names::HEARTBEATS), Some(1));
    }

    #[test]
    fn counting_observer_tracks_resilience_events() {
        let mut obs = CountingObserver::new();
        obs.on_event(&Event::RunInterrupted {
            engine: EngineKind::Restricted,
            step: 5,
            reason: crate::event::InterruptReason::Deadline,
        });
        let s = obs.summary();
        assert_eq!(s.counter(names::RUNS_INTERRUPTED), Some(1));
    }
}

//! Built-in observers: counting, JSON Lines, and in-memory recording.

use std::collections::BTreeMap;
use std::io::{self, Write};

use crate::counters::HistogramSnapshot;
use crate::event::Event;
use crate::json::Scalar;
use crate::names;
use crate::observer::ChaseObserver;
use crate::summary::TelemetrySummary;

/// Aggregates the event stream into named counters, histograms and
/// per-phase wall-clock, and renders a [`TelemetrySummary`]. It folds
/// live [`Event`]s ([`ChaseObserver::on_event`]) and parsed trace lines
/// ([`CountingObserver::record_line`]) alike; both folds are here, so
/// the kind → metric mapping lives in one place.
///
/// Plain data: once a `CounterAdd` name, span or phase has been seen,
/// folding another event of it allocates nothing. Every add saturates.
/// Counters and histograms are separate namespaces.
#[derive(Debug, Default)]
pub struct CountingObserver {
    discovered: u64,
    checked: u64,
    active: u64,
    applied: u64,
    deactivated: u64,
    nulls: u64,
    inserted: u64,
    fresh: u64,
    interrupted: u64,
    heartbeats: u64,
    queue_depth: HistogramSnapshot,
    memory_bytes: HistogramSnapshot,
    /// `CounterAdd` totals by counter name.
    named: BTreeMap<String, u64>,
    /// Span latency histograms by bare span name; [`Self::summary`]
    /// reports them as `span.<name>`.
    spans: BTreeMap<String, HistogramSnapshot>,
    /// `(phase, total nanos)` in completion order.
    phases: Vec<(String, u64)>,
}

fn incr(counter: &mut u64) {
    *counter = counter.saturating_add(1);
}

impl CountingObserver {
    /// An observer with every well-known metric at zero.
    pub fn new() -> Self {
        Self::default()
    }

    fn add_named(&mut self, name: &str, delta: u64) {
        match self.named.get_mut(name) {
            Some(total) => *total = total.saturating_add(delta),
            None => {
                self.named.insert(name.to_string(), delta);
            }
        }
    }

    fn add_span(&mut self, span: &str, nanos: u64) {
        match self.spans.get_mut(span) {
            Some(hist) => hist.record(nanos),
            None => {
                let mut hist = HistogramSnapshot::empty();
                hist.record(nanos);
                self.spans.insert(span.to_string(), hist);
            }
        }
    }

    fn add_phase(&mut self, phase: &str, nanos: u64) {
        match self.phases.iter_mut().find(|(p, _)| p == phase) {
            Some((_, total)) => *total = total.saturating_add(nanos),
            None => self.phases.push((phase.to_string(), nanos)),
        }
    }

    fn add_memory_sample(&mut self, parts: [u64; 4]) {
        let total = parts.into_iter().fold(0, u64::saturating_add);
        self.memory_bytes.record(total);
    }

    /// Folds one parsed trace line (see [`crate::json::parse_line`])
    /// exactly as [`ChaseObserver::on_event`] folds the event it was
    /// written from. Unknown kinds — newer traces, or retired ones
    /// such as `worker_panicked` in older traces — are ignored; a
    /// known kind missing a field it needs is an error.
    pub fn record_line(&mut self, event: &BTreeMap<String, Scalar>) -> Result<(), String> {
        let kind = event
            .get("event")
            .and_then(Scalar::as_str)
            .ok_or("missing string \"event\" key")?;
        let num = |key: &str| -> Result<u64, String> {
            event
                .get(key)
                .and_then(Scalar::as_num)
                .ok_or_else(|| format!("{kind}: missing integer \"{key}\""))
        };
        let string = |key: &str| -> Result<&str, String> {
            event
                .get(key)
                .and_then(Scalar::as_str)
                .ok_or_else(|| format!("{kind}: missing string \"{key}\""))
        };
        match kind {
            "trigger_discovered" => incr(&mut self.discovered),
            "trigger_checked" => {
                let active = event
                    .get("active")
                    .and_then(Scalar::as_bool)
                    .ok_or("trigger_checked: missing boolean \"active\"")?;
                incr(&mut self.checked);
                if active {
                    incr(&mut self.active);
                }
            }
            "trigger_applied" => incr(&mut self.applied),
            "trigger_deactivated" => incr(&mut self.deactivated),
            "null_invented" => incr(&mut self.nulls),
            "atom_inserted" => {
                incr(&mut self.inserted);
                if event.get("fresh").and_then(Scalar::as_bool) == Some(true) {
                    incr(&mut self.fresh);
                }
            }
            "queue_depth" => self.queue_depth.record(num("depth")?),
            "run_interrupted" => incr(&mut self.interrupted),
            "counter_add" => self.add_named(string("name")?, num("delta")?),
            "phase_exited" => self.add_phase(string("phase")?, num("nanos")?),
            "span_exited" => self.add_span(string("span")?, num("nanos")?),
            "memory_sampled" => self.add_memory_sample([
                num("atom_bytes")?,
                num("arg_spill_bytes")?,
                num("dedup_bytes")?,
                num("index_bytes")?,
            ]),
            "heartbeat" => incr(&mut self.heartbeats),
            _ => {}
        }
        Ok(())
    }

    /// The aggregated summary so far. Histograms with zero
    /// observations and counters still at zero are kept, so the
    /// summary's shape is stable across runs.
    pub fn summary(&self) -> TelemetrySummary {
        let mut counters: BTreeMap<&str, u64> = BTreeMap::from([
            (names::TRIGGERS_DISCOVERED, self.discovered),
            (names::TRIGGERS_CHECKED, self.checked),
            (names::TRIGGERS_ACTIVE, self.active),
            (names::TRIGGERS_APPLIED, self.applied),
            (names::TRIGGERS_DEACTIVATED, self.deactivated),
            (names::NULLS_INVENTED, self.nulls),
            (names::ATOMS_INSERTED, self.inserted),
            (names::ATOMS_FRESH, self.fresh),
            (names::RUNS_INTERRUPTED, self.interrupted),
            (names::HEARTBEATS, self.heartbeats),
        ]);
        for (name, delta) in &self.named {
            let total = counters.entry(name).or_insert(0);
            *total = total.saturating_add(*delta);
        }
        let mut histograms = vec![
            (names::QUEUE_DEPTH.to_string(), self.queue_depth.clone()),
            (names::MEMORY_BYTES.to_string(), self.memory_bytes.clone()),
        ];
        histograms.extend(
            self.spans
                .iter()
                .map(|(span, hist)| (format!("span.{span}"), hist.clone())),
        );
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        TelemetrySummary {
            phases: self.phases.clone(),
            counters: counters
                .into_iter()
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
            histograms,
        }
    }
}

impl ChaseObserver for CountingObserver {
    fn on_event(&mut self, event: &Event) {
        match *event {
            Event::TriggerDiscovered { .. } => incr(&mut self.discovered),
            Event::TriggerChecked { active, .. } => {
                incr(&mut self.checked);
                if active {
                    incr(&mut self.active);
                }
            }
            // `NullInvented`/`AtomInserted` events carry the same
            // information as the per-application totals here, which
            // are deliberately *not* double counted.
            Event::TriggerApplied { .. } => incr(&mut self.applied),
            Event::TriggerDeactivated { .. } => incr(&mut self.deactivated),
            Event::NullInvented { .. } => incr(&mut self.nulls),
            Event::AtomInserted { fresh, .. } => {
                incr(&mut self.inserted);
                if fresh {
                    incr(&mut self.fresh);
                }
            }
            Event::QueueDepth { depth, .. } => self.queue_depth.record(depth),
            Event::RunInterrupted { .. } => incr(&mut self.interrupted),
            Event::CounterAdd { name, delta } => self.add_named(name, delta),
            Event::PhaseEntered { .. } | Event::SpanEntered { .. } => {}
            Event::PhaseExited { phase, nanos } => self.add_phase(phase, nanos),
            Event::SpanExited { span, nanos, .. } => self.add_span(span, nanos),
            Event::MemorySampled {
                atom_bytes,
                arg_spill_bytes,
                dedup_bytes,
                index_bytes,
                ..
            } => self.add_memory_sample([atom_bytes, arg_spill_bytes, dedup_bytes, index_bytes]),
            Event::Heartbeat { .. } => incr(&mut self.heartbeats),
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
/// Drops are silent: the dropped-event count is the caller's to
/// report at flush time (see `chasectl`'s trace summary).
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
        }
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

    /// Flushes and returns the underlying writer. Dropped events are
    /// *not* an error here — check [`JsonlWriter::io_errors`]; only a
    /// failing flush is reported, and only for a sink that had not
    /// already degraded (a degraded sink's flush failure is part of
    /// the same breakage, already counted).
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
                    self.first_error = Some(err);
                }
            }
        }
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
    use std::sync::Arc;

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
    fn record_line_reports_missing_fields() {
        let mut obs = CountingObserver::new();
        let line = |text: &str| crate::json::parse_line(text).unwrap();
        assert_eq!(
            obs.record_line(&line("{\"v\":2}")).unwrap_err(),
            "missing string \"event\" key"
        );
        assert_eq!(
            obs.record_line(&line("{\"event\":\"queue_depth\"}"))
                .unwrap_err(),
            "queue_depth: missing integer \"depth\""
        );
        assert_eq!(
            obs.record_line(&line("{\"event\":\"span_exited\",\"nanos\":1}"))
                .unwrap_err(),
            "span_exited: missing string \"span\""
        );
        assert_eq!(
            obs.record_line(&line("{\"event\":\"trigger_checked\"}"))
                .unwrap_err(),
            "trigger_checked: missing boolean \"active\""
        );
        // A rejected line folds nothing.
        assert_eq!(obs.summary(), CountingObserver::new().summary());
    }

    #[test]
    fn counter_names_never_collide_with_histograms() {
        let mut obs = CountingObserver::new();
        obs.on_event(&Event::CounterAdd {
            name: names::QUEUE_DEPTH,
            delta: 2,
        });
        obs.on_event(&Event::CounterAdd {
            name: "span.step",
            delta: 1,
        });
        obs.on_event(&Event::CounterAdd {
            name: names::TRIGGERS_APPLIED,
            delta: 3,
        });
        let s = obs.summary();
        assert_eq!(s.counter(names::QUEUE_DEPTH), Some(2));
        assert_eq!(s.counter("span.step"), Some(1));
        assert_eq!(s.counter(names::TRIGGERS_APPLIED), Some(3));
        assert_eq!(s.histogram(names::QUEUE_DEPTH).unwrap().count, 0);
        assert!(s.histogram("span.step").is_none());
        assert!(s.counters.windows(2).all(|w| w[0].0 < w[1].0));
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

//! `chasectl stats` — offline aggregation of `--trace` JSON Lines
//! files into the same counter/phase table the live `--metrics` flag
//! prints.
//!
//! Each line of a trace is one flat JSON object (see the event schema
//! in the `chase-telemetry` crate docs), decoded by the shared
//! [`chase_telemetry::json`] parser — the same grammar the
//! `chase-server` wire protocol speaks, so a captured session
//! transcript aggregates like any other trace. A malformed line is a
//! hard error with its line number, so `stats` doubles as a trace
//! validator.
//!
//! Several files (or a directory of `*.jsonl` files) merge into one
//! combined table; `--follow` tails a growing trace, rendering each
//! progress heartbeat as it lands and the merged table at the end
//! (`--idle-exit-ms N` stops once the file has been quiet that long).

use std::collections::BTreeMap;

use chase_telemetry::summary::format_nanos;
use chase_telemetry::CountingObserver;

pub use chase_telemetry::json::{parse_line, Scalar};

/// The aggregation of one or more trace files.
#[derive(Debug, Default)]
pub struct TraceStats {
    /// Lines (= events) seen.
    pub events: u64,
    /// Event kind → occurrence count.
    pub kinds: BTreeMap<String, u64>,
    /// Counters, histograms and phases, folded exactly as `--metrics`
    /// folds the live run.
    pub counting: CountingObserver,
}

/// Parses one trace line and folds it into `stats`, returning the
/// parsed event.
fn fold_line(stats: &mut TraceStats, line: &str) -> Result<BTreeMap<String, Scalar>, String> {
    let event = parse_line(line)?;
    stats.counting.record_line(&event)?;
    stats.events += 1;
    // `record_line` has checked the `"event"` key.
    if let Some(kind) = event.get("event").and_then(Scalar::as_str) {
        *stats.kinds.entry(kind.to_string()).or_insert(0) += 1;
    }
    Ok(event)
}

/// Folds a whole trace into `stats`, one event per non-empty line.
fn fold_text(stats: &mut TraceStats, text: &str) -> Result<(), String> {
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        fold_line(stats, line).map_err(|e| format!("line {}: {e}", idx + 1))?;
    }
    Ok(())
}

/// Expands `path` into the trace files it denotes: itself for a file,
/// its `*.jsonl` children (sorted by name) for a directory.
fn expand_path(path: &str) -> Result<Vec<String>, String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if !meta.is_dir() {
        return Ok(vec![path.to_string()]);
    }
    let mut files: Vec<String> = std::fs::read_dir(path)
        .map_err(|e| format!("cannot read {path}: {e}"))?
        .filter_map(|entry| {
            let p = entry.ok()?.path();
            (p.extension().and_then(|e| e.to_str()) == Some("jsonl"))
                .then(|| p.to_string_lossy().into_owned())
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{path}: no .jsonl files in directory"));
    }
    Ok(files)
}

/// Renders the merged statistics table.
fn render(stats: &TraceStats) {
    if stats.events == 0 {
        return;
    }
    println!("  {:<32} {:>12}", "event kind", "count");
    for (kind, count) in &stats.kinds {
        println!("  {kind:<32} {count:>12}");
    }
    let summary = stats.counting.summary();
    print!("{}", summary.render_table());
    let total_phase_nanos = summary
        .phases
        .iter()
        .fold(0u64, |total, &(_, nanos)| total.saturating_add(nanos));
    if total_phase_nanos > 0 {
        println!(
            "  {:<32} {:>12}",
            "total phase wall-clock",
            format_nanos(total_phase_nanos)
        );
    }
}

/// The `chasectl stats <path>...` entry point: merges every given
/// trace file (directories expand to their `*.jsonl` children) into
/// one table.
pub fn cmd_stats(paths: &[String]) -> Result<(), String> {
    let mut stats = TraceStats::default();
    let mut files = Vec::new();
    for path in paths {
        files.extend(expand_path(path)?);
    }
    for path in &files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let before = stats.events;
        fold_text(&mut stats, &text).map_err(|e| format!("{path}: {e}"))?;
        println!("trace: {path}: {} event(s)", stats.events - before);
    }
    if files.len() > 1 {
        println!("merged: {} file(s), {} event(s)", files.len(), stats.events);
    }
    render(&stats);
    Ok(())
}

/// One-line human rendering of a `heartbeat` event (follow mode).
fn heartbeat_line(event: &BTreeMap<String, Scalar>) -> String {
    let num = |key: &str| event.get(key).and_then(Scalar::as_num).unwrap_or(0);
    format!(
        "heartbeat: step {} | {} steps/s | {} atoms ({} atoms/s) | queue {} | {}",
        num("step"),
        num("steps_per_sec"),
        num("atoms"),
        num("atoms_per_sec"),
        num("queue_depth"),
        format_nanos(num("elapsed_ns")),
    )
}

/// Shortest and longest pauses of the follow-mode poll loop. An idle
/// trace costs one `read` per [`FOLLOW_MAX_SLEEP_MS`] rather than a
/// busy spin; the pause resets to [`FOLLOW_MIN_SLEEP_MS`] the moment
/// data arrives so an active producer is still tailed promptly.
const FOLLOW_MIN_SLEEP_MS: u64 = 10;
const FOLLOW_MAX_SLEEP_MS: u64 = 250;

/// Folds one line of a followed trace (blank lines are skipped) and
/// prints it if it is a heartbeat.
fn follow_line(stats: &mut TraceStats, line: &str) -> Result<(), String> {
    if line.trim().is_empty() {
        return Ok(());
    }
    let event = fold_line(stats, line)?;
    if event.get("event").and_then(Scalar::as_str) == Some("heartbeat") {
        println!("{}", heartbeat_line(&event));
    }
    Ok(())
}

/// The `chasectl stats --follow <file>` entry point: tails a growing
/// trace, printing a progress line per heartbeat, and the merged table
/// once the producer goes quiet for `idle_exit_ms` (forever if
/// `None`). While following, only complete (newline-terminated) lines
/// are consumed, so a line caught mid-write is never misparsed; at the
/// idle exit an unterminated last line is folded too, as `chasectl
/// stats` without `--follow` folds it. Polling backs off exponentially
/// while the file is quiet (10ms doubling to a 250ms cap) and snaps
/// back on new data.
pub fn cmd_stats_follow(path: &str, idle_exit_ms: Option<u64>) -> Result<(), String> {
    use std::io::Read;
    let mut file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut stats = TraceStats::default();
    let mut pending = String::new();
    let mut lines = 0usize;
    let mut last_data = std::time::Instant::now();
    let mut sleep_ms = FOLLOW_MIN_SLEEP_MS;
    loop {
        let mut chunk = String::new();
        file.read_to_string(&mut chunk)
            .map_err(|e| format!("reading {path}: {e}"))?;
        if chunk.is_empty() {
            let mut pause = sleep_ms;
            if let Some(ms) = idle_exit_ms {
                let idle = std::time::Duration::from_millis(ms);
                let elapsed = last_data.elapsed();
                if elapsed >= idle {
                    break;
                }
                // Never sleep past the idle deadline.
                pause = pause.min((idle - elapsed).as_millis().max(1) as u64);
            }
            std::thread::sleep(std::time::Duration::from_millis(pause));
            sleep_ms = (sleep_ms * 2).min(FOLLOW_MAX_SLEEP_MS);
            continue;
        }
        last_data = std::time::Instant::now();
        sleep_ms = FOLLOW_MIN_SLEEP_MS;
        pending.push_str(&chunk);
        while let Some(nl) = pending.find('\n') {
            let line: String = pending.drain(..=nl).collect();
            lines += 1;
            follow_line(&mut stats, line.trim_end())
                .map_err(|e| format!("{path}: line {lines}: {e}"))?;
        }
    }
    if !pending.is_empty() {
        lines += 1;
        follow_line(&mut stats, pending.trim_end())
            .map_err(|e| format!("{path}: line {lines}: {e}"))?;
    }
    println!("trace: {path}: {} event(s)", stats.events);
    render(&stats);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_telemetry::{names, EngineKind, Event};

    /// Parses a whole trace, one event per non-empty line.
    fn aggregate(text: &str) -> Result<TraceStats, String> {
        let mut stats = TraceStats::default();
        fold_text(&mut stats, text)?;
        Ok(stats)
    }

    #[test]
    fn parses_every_event_kind_the_writer_emits() {
        let engine = EngineKind::Restricted;
        let events = [
            Event::TriggerDiscovered {
                engine,
                tgd: 1,
                step: 0,
            },
            Event::TriggerChecked {
                engine,
                tgd: 1,
                step: 0,
                active: false,
            },
            Event::TriggerApplied {
                engine,
                tgd: 1,
                step: 1,
                new_atoms: 2,
                new_nulls: 1,
            },
            Event::TriggerDeactivated {
                engine,
                tgd: 1,
                step: 2,
            },
            Event::NullInvented {
                engine,
                null: 3,
                step: 1,
            },
            Event::AtomInserted {
                engine,
                predicate: 0,
                step: 1,
                fresh: true,
            },
            Event::QueueDepth {
                engine,
                step: 1,
                depth: 4,
            },
            Event::CounterAdd {
                name: "sticky.automaton_states",
                delta: 17,
            },
            Event::RunInterrupted {
                engine,
                step: 2,
                reason: chase_telemetry::InterruptReason::Deadline,
            },
            Event::PhaseEntered { phase: "classify" },
            Event::PhaseExited {
                phase: "classify",
                nanos: 1200,
            },
        ];
        for e in &events {
            let parsed = parse_line(&e.to_json()).unwrap_or_else(|err| panic!("{err}: {e:?}"));
            assert_eq!(
                parsed.get("event").and_then(Scalar::as_str),
                Some(e.kind()),
                "{e:?}"
            );
        }
    }

    #[test]
    fn parse_line_rejects_malformed_input() {
        assert!(parse_line("").is_err());
        assert!(parse_line("{").is_err());
        assert!(parse_line("{\"a\":1,}").is_err());
        assert!(parse_line("{\"a\":1} trailing").is_err());
        assert!(parse_line("{\"a\":[1]}").is_err()); // nesting unsupported
        assert!(parse_line("{\"a\":1,\"a\":2}").is_err()); // duplicate key
        assert!(parse_line("[1,2]").is_err());
    }

    #[test]
    fn parse_line_unescapes_strings() {
        let parsed = parse_line("{\"s\":\"a\\\"b\\\\c\\nd\\u0041\"}").unwrap();
        assert_eq!(
            parsed.get("s").and_then(Scalar::as_str),
            Some("a\"b\\c\nd\u{41}")
        );
    }

    #[test]
    fn aggregate_reproduces_counter_semantics() {
        let trace = "\
{\"event\":\"trigger_discovered\",\"engine\":\"restricted\",\"tgd\":0,\"step\":0}
{\"event\":\"trigger_checked\",\"engine\":\"restricted\",\"tgd\":0,\"step\":0,\"active\":true}
{\"event\":\"trigger_applied\",\"engine\":\"restricted\",\"tgd\":0,\"step\":1,\"new_atoms\":1,\"new_nulls\":1}
{\"event\":\"trigger_checked\",\"engine\":\"restricted\",\"tgd\":0,\"step\":1,\"active\":false}
{\"event\":\"trigger_deactivated\",\"engine\":\"restricted\",\"tgd\":0,\"step\":1}
{\"event\":\"queue_depth\",\"engine\":\"restricted\",\"step\":1,\"depth\":3}
{\"event\":\"counter_add\",\"name\":\"guarded.seeds_tried\",\"delta\":2}
{\"event\":\"worker_panicked\",\"engine\":\"restricted\",\"step\":1,\"panics\":2}
{\"event\":\"run_interrupted\",\"engine\":\"restricted\",\"step\":1,\"reason\":\"cancelled\"}
{\"event\":\"phase_exited\",\"phase\":\"classify\",\"nanos\":100}
{\"event\":\"phase_exited\",\"phase\":\"classify\",\"nanos\":50}
";
        let stats = aggregate(trace).unwrap();
        assert_eq!(stats.events, 11);
        let summary = stats.counting.summary();
        // A retired event kind from an older trace is counted but
        // feeds no counter.
        assert_eq!(stats.kinds["worker_panicked"], 1);
        assert_eq!(summary.counter("driver.worker_panics"), None);
        assert_eq!(summary.counter(names::RUNS_INTERRUPTED), Some(1));
        assert_eq!(summary.counter(names::TRIGGERS_CHECKED), Some(2));
        assert_eq!(summary.counter(names::TRIGGERS_ACTIVE), Some(1));
        assert_eq!(summary.counter(names::TRIGGERS_APPLIED), Some(1));
        assert_eq!(summary.counter(names::TRIGGERS_DEACTIVATED), Some(1));
        assert_eq!(summary.counter("guarded.seeds_tried"), Some(2));
        assert_eq!(summary.phase_nanos("classify"), Some(150));
        let depth = summary.histogram(names::QUEUE_DEPTH).unwrap();
        assert_eq!(depth.count, 1);
        assert_eq!(depth.max, 3);
    }

    #[test]
    fn aggregate_folds_profiling_events() {
        let trace = "\
{\"event\":\"span_entered\",\"v\":2,\"span\":\"run\"}
{\"event\":\"span_entered\",\"v\":2,\"span\":\"step\",\"tgd\":0}
{\"event\":\"span_exited\",\"v\":2,\"span\":\"step\",\"tgd\":0,\"nanos\":120}
{\"event\":\"span_exited\",\"v\":2,\"span\":\"run\",\"nanos\":500}
{\"event\":\"memory_sampled\",\"v\":2,\"engine\":\"restricted\",\"step\":1,\"atoms\":3,\"atom_bytes\":96,\"arg_spill_bytes\":0,\"dedup_bytes\":64,\"index_bytes\":32,\"queue_depth\":1,\"allocations\":10}
{\"event\":\"heartbeat\",\"v\":2,\"engine\":\"restricted\",\"step\":1,\"elapsed_ns\":1000,\"steps_per_sec\":5,\"atoms\":3,\"atoms_per_sec\":15,\"queue_depth\":1}
";
        let stats = aggregate(trace).unwrap();
        assert_eq!(stats.events, 6);
        let summary = stats.counting.summary();
        assert_eq!(summary.counter(names::HEARTBEATS), Some(1));
        let run = summary.histogram("span.run").unwrap();
        assert_eq!(run.count, 1);
        assert_eq!(run.max, 500);
        let step = summary.histogram("span.step").unwrap();
        assert_eq!(step.sum, 120);
        let mem = summary.histogram(names::MEMORY_BYTES).unwrap();
        assert_eq!(mem.max, 96 + 64 + 32);
    }

    #[test]
    fn aggregate_reports_the_failing_line() {
        let err =
            aggregate("{\"event\":\"phase_entered\",\"phase\":\"x\"}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn aggregate_saturates_overflowing_values() {
        let max = u64::MAX;
        let trace = format!(
            "\
{{\"event\":\"counter_add\",\"name\":\"sticky.automaton_states\",\"delta\":{max}}}
{{\"event\":\"counter_add\",\"name\":\"sticky.automaton_states\",\"delta\":1}}
{{\"event\":\"memory_sampled\",\"engine\":\"restricted\",\"step\":1,\"atoms\":3,\"atom_bytes\":{max},\"arg_spill_bytes\":1,\"dedup_bytes\":0,\"index_bytes\":0,\"queue_depth\":1,\"allocations\":10}}
{{\"event\":\"phase_exited\",\"phase\":\"classify\",\"nanos\":{max}}}
{{\"event\":\"phase_exited\",\"phase\":\"classify\",\"nanos\":1}}
{{\"event\":\"counter_add\",\"name\":\"queue.depth\",\"delta\":5}}
{{\"event\":\"queue_depth\",\"engine\":\"restricted\",\"step\":1,\"depth\":3}}
"
        );
        let stats = aggregate(&trace).unwrap();
        assert_eq!(stats.events, 7);
        let summary = stats.counting.summary();
        assert_eq!(summary.counter(names::AUTOMATON_STATES), Some(max));
        assert_eq!(summary.histogram(names::MEMORY_BYTES).unwrap().max, max);
        assert_eq!(summary.phase_nanos("classify"), Some(max));
        // A counter may share a histogram's name: separate namespaces.
        assert_eq!(summary.counter(names::QUEUE_DEPTH), Some(5));
        assert_eq!(summary.histogram(names::QUEUE_DEPTH).unwrap().max, 3);
    }
}

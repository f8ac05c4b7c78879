//! The plain-data summary deciders attach to their verdicts.

use std::fmt::Write as _;

use crate::counters::HistogramSnapshot;

/// Aggregated telemetry of one run: per-phase wall-clock (in the order
/// phases completed) plus final counter values and histograms. This is
/// what [`crate::CountingObserver::summary`] produces and what
/// `chase-termination` attaches to its verdicts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySummary {
    /// `(phase name, total nanoseconds)` in completion order. A phase
    /// entered several times contributes one entry with the summed
    /// time.
    pub phases: Vec<(String, u64)>,
    /// `(counter name, value)` sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(histogram name, snapshot)` sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl TelemetrySummary {
    /// Total nanoseconds recorded for `phase`, if it ever completed.
    pub fn phase_nanos(&self, phase: &str) -> Option<u64> {
        self.phases
            .iter()
            .find(|(name, _)| name == phase)
            .map(|&(_, nanos)| nanos)
    }

    /// The value of a named counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The snapshot of a named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Whether nothing was recorded at all.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Folds another summary into this one (used when a decider runs
    /// several sub-deciders): phase times and counters are summed,
    /// histograms merged name-wise (see [`HistogramSnapshot::merge`]).
    /// Every add saturates.
    pub fn absorb(&mut self, other: &TelemetrySummary) {
        for (phase, nanos) in &other.phases {
            match self.phases.iter_mut().find(|(p, _)| p == phase) {
                Some((_, total)) => *total = total.saturating_add(*nanos),
                None => self.phases.push((phase.clone(), *nanos)),
            }
        }
        for (name, value) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, total)) => *total = total.saturating_add(*value),
                None => self.counters.push((name.clone(), *value)),
            }
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, snap) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.merge(snap),
                None => self.histograms.push((name.clone(), snap.clone())),
            }
        }
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Renders a fixed-width, human-readable table: phases first (with
    /// times scaled to a readable unit), then counters, then
    /// histograms as `count/mean/p50/p95/p99/max` (quantiles estimated
    /// from the log₂ buckets, see [`HistogramSnapshot::quantile`]).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.phases.is_empty() {
            let _ = writeln!(out, "  {:<32} {:>12}", "phase", "wall-clock");
            for (phase, nanos) in &self.phases {
                let _ = writeln!(out, "  {:<32} {:>12}", phase, format_nanos(*nanos));
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "  {:<32} {:>12}", "counter", "value");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<32} {value:>12}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "  {:<32} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8}",
                "histogram", "count", "mean", "p50", "p95", "p99", "max"
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<32} {:>8} {:>10.2} {:>8} {:>8} {:>8} {:>8}",
                    name,
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.max
                );
            }
        }
        out
    }
}

/// Formats nanoseconds with a unit chosen for readability.
pub fn format_nanos(nanos: u64) -> String {
    let n = nanos as f64;
    if n >= 1e9 {
        format!("{:.2} s", n / 1e9)
    } else if n >= 1e6 {
        format!("{:.2} ms", n / 1e6)
    } else if n >= 1e3 {
        format!("{:.2} µs", n / 1e3)
    } else {
        format!("{nanos} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_helpers() {
        let summary = TelemetrySummary {
            phases: vec![("chase".into(), 1500)],
            counters: vec![("triggers.applied".into(), 7)],
            histograms: Vec::new(),
        };
        assert_eq!(summary.phase_nanos("chase"), Some(1500));
        assert_eq!(summary.phase_nanos("missing"), None);
        assert_eq!(summary.counter("triggers.applied"), Some(7));
        assert!(!summary.is_empty());
    }

    #[test]
    fn absorb_sums_matching_entries() {
        let mut a = TelemetrySummary {
            phases: vec![("p".into(), 10)],
            counters: vec![("c".into(), 1)],
            histograms: Vec::new(),
        };
        let b = TelemetrySummary {
            phases: vec![("p".into(), 5), ("q".into(), 2)],
            counters: vec![("c".into(), 2), ("d".into(), 3)],
            histograms: Vec::new(),
        };
        a.absorb(&b);
        assert_eq!(a.phase_nanos("p"), Some(15));
        assert_eq!(a.phase_nanos("q"), Some(2));
        assert_eq!(a.counter("c"), Some(3));
        assert_eq!(a.counter("d"), Some(3));

        // Adds saturate instead of overflowing.
        let mut hist = HistogramSnapshot::empty();
        hist.record(u64::MAX);
        let huge = TelemetrySummary {
            phases: vec![("p".into(), u64::MAX)],
            counters: vec![("c".into(), u64::MAX)],
            histograms: vec![("h".into(), hist)],
        };
        a.absorb(&huge);
        a.absorb(&huge);
        assert_eq!(a.phase_nanos("p"), Some(u64::MAX));
        assert_eq!(a.counter("c"), Some(u64::MAX));
        let h = a.histogram("h").unwrap();
        assert_eq!((h.count, h.sum, h.max), (2, u64::MAX, u64::MAX));
    }

    #[test]
    fn table_renders_all_sections() {
        let summary = TelemetrySummary {
            phases: vec![("guarded.provers".into(), 2_500_000)],
            counters: vec![("triggers.checked".into(), 42)],
            histograms: vec![("queue.depth".into(), {
                let mut h = HistogramSnapshot::empty();
                h.record(1);
                h.record(5);
                h
            })],
        };
        let table = summary.render_table();
        assert!(table.contains("guarded.provers"));
        assert!(table.contains("2.50 ms"));
        assert!(table.contains("triggers.checked"));
        assert!(table.contains("42"));
        assert!(table.contains("queue.depth"));
        // Quantile columns are rendered from the log₂ buckets.
        assert!(table.contains("p95"), "{table}");
        let row = table.lines().find(|l| l.contains("queue.depth")).unwrap();
        // p50 = 1 (bucket {1}), p95/p99 = 5 (bucket {4..7} clamped to max).
        assert!(row.contains(" 1 "), "{row}");
        assert!(row.trim_end().ends_with('5'), "{row}");
    }

    #[test]
    fn nanos_formatting_units() {
        assert_eq!(format_nanos(999), "999 ns");
        assert_eq!(format_nanos(1_500), "1.50 µs");
        assert_eq!(format_nanos(2_000_000), "2.00 ms");
        assert_eq!(format_nanos(3_000_000_000), "3.00 s");
    }
}

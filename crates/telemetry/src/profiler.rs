//! The span-profile aggregator: turns the profiling event stream
//! (span enter/exit, phase enter/exit, memory samples, heartbeats)
//! into per-span latency histograms, per-TGD attribution tables and
//! collapsed call stacks — the machinery behind `chasectl profile`
//! and the bench harness's phase-attribution reports.
//!
//! The aggregator is allocation-light *and* lookup-light by
//! construction: call paths are interned once into an adjacency list
//! (a span entry scans only its parent's interned children,
//! move-to-front, comparing static-string pointers), every span exit
//! is a direct index into the path accumulators, and no string or map
//! is built until [`SpanObserver::profile`] renders the final report.
//! Phase events are treated as unattributed spans, so decider phases
//! appear in profiles without any decider changes.

use std::collections::BTreeMap;

use crate::counters::HistogramSnapshot;
use crate::event::{Event, NO_TGD};
use crate::json::Object;
use crate::observer::ChaseObserver;
use crate::summary::format_nanos;

/// Identity of a span kind: its static name plus the TGD it is
/// attributed to ([`NO_TGD`] when unattributed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SpanKey {
    name: &'static str,
    tgd: u32,
}

impl SpanKey {
    fn label(&self) -> String {
        if self.tgd == NO_TGD {
            self.name.to_string()
        } else {
            format!("{}#{}", self.name, self.tgd)
        }
    }
}

/// Hot-path key equality: the engines always pass the same `&'static`
/// constants from [`crate::spans`], so a fat-pointer comparison
/// almost always decides; the content comparison only runs for
/// distinct literals with equal text (possible for phase names).
#[inline]
fn key_eq(a: &SpanKey, b: &SpanKey) -> bool {
    a.tgd == b.tgd && (std::ptr::eq(a.name, b.name) || a.name == b.name)
}

/// One open span on the aggregator's stack.
#[derive(Debug)]
struct Frame {
    key: SpanKey,
    /// Interned call-path id of this frame.
    path: usize,
    /// Summed durations of completed direct children, for self-time.
    child_nanos: u64,
}

#[derive(Debug, Default)]
struct SpanAcc {
    count: u64,
    total: u64,
    hist: HistogramSnapshot,
}

/// Per-call-path accumulator: the *only* state the hot path touches
/// on a span exit (a single `Vec` index). Per-key and per-name
/// aggregates are derived from these in [`SpanObserver::profile`].
#[derive(Debug, Default, Clone)]
struct PathAcc {
    count: u64,
    total_nanos: u64,
    self_nanos: u64,
    hist: HistogramSnapshot,
}

/// The last instance memory sample seen in a profiling stream
/// (mirrors [`Event::MemorySampled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemorySample {
    /// Steps performed at the sample point.
    pub step: u64,
    /// Atoms in the instance.
    pub atoms: u64,
    /// Bytes of the inline atom storage.
    pub atom_bytes: u64,
    /// Bytes of spilled `ArgVec` argument storage.
    pub arg_spill_bytes: u64,
    /// Bytes of the dedup hash map.
    pub dedup_bytes: u64,
    /// Bytes of the predicate/position/pair indexes.
    pub index_bytes: u64,
    /// Queued candidate triggers.
    pub queue_depth: u64,
    /// Process-wide allocations recorded since the run started.
    pub allocations: u64,
}

impl MemorySample {
    /// Total instance heap bytes across all accounted containers.
    pub fn total_bytes(&self) -> u64 {
        self.atom_bytes + self.arg_spill_bytes + self.dedup_bytes + self.index_bytes
    }
}

/// The last progress heartbeat seen (mirrors [`Event::Heartbeat`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeartbeatSample {
    /// Steps performed so far.
    pub step: u64,
    /// Nanoseconds since the run started.
    pub elapsed_ns: u64,
    /// Trigger applications per second.
    pub steps_per_sec: u64,
    /// Atoms in the instance.
    pub atoms: u64,
    /// Instance atoms per second.
    pub atoms_per_sec: u64,
    /// Queued candidate triggers.
    pub queue_depth: u64,
}

/// Aggregated statistics of one span name (summed over TGDs).
#[derive(Debug, Clone)]
pub struct SpanStat {
    /// Span name (see [`crate::spans`]).
    pub name: String,
    /// Completed spans.
    pub count: u64,
    /// Total nanoseconds (children included).
    pub total_nanos: u64,
    /// Log₂ latency histogram of individual span durations.
    pub hist: HistogramSnapshot,
}

/// Statistics of one `(span name, TGD)` pair.
#[derive(Debug, Clone)]
pub struct TgdSpanStat {
    /// Span name.
    pub name: String,
    /// TGD index.
    pub tgd: u32,
    /// Completed spans.
    pub count: u64,
    /// Total nanoseconds.
    pub total_nanos: u64,
}

/// One collapsed call path (flamegraph line).
#[derive(Debug, Clone)]
pub struct PathStat {
    /// `;`-joined frame labels, root first (`run;step#3;match`).
    pub path: String,
    /// Times the exact path completed.
    pub count: u64,
    /// Self nanoseconds: path total minus its children's totals.
    pub self_nanos: u64,
}

/// The finished profile: plain data plus text / collapsed-stack
/// renderers. Produced by [`SpanObserver::profile`].
#[derive(Debug, Clone, Default)]
pub struct SpanProfile {
    /// Per-span-name statistics, heaviest total first.
    pub spans: Vec<SpanStat>,
    /// Per-`(span, TGD)` statistics, heaviest total first.
    pub tgd_spans: Vec<TgdSpanStat>,
    /// Trigger applications per TGD (from `trigger_applied` events),
    /// sorted by TGD index.
    pub fires: Vec<(u32, u64)>,
    /// Collapsed call paths with self-time, heaviest first.
    pub paths: Vec<PathStat>,
    /// Span exits that did not match the innermost open span, plus
    /// spans left open at the end — 0 on a well-nested stream.
    pub unbalanced: u64,
    /// The last memory sample, if any.
    pub memory: Option<MemorySample>,
    /// Highest total instance bytes across all memory samples.
    pub peak_bytes: u64,
    /// Heartbeats observed.
    pub heartbeats: u64,
    /// The last heartbeat, if any.
    pub last_heartbeat: Option<HeartbeatSample>,
}

impl SpanProfile {
    /// Total nanoseconds recorded for span `name` (summed over TGDs),
    /// 0 when the span never completed.
    pub fn span_total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.total_nanos)
    }

    /// Total trigger applications across all TGDs.
    pub fn fires_total(&self) -> u64 {
        self.fires.iter().map(|&(_, n)| n).sum()
    }

    /// Renders the human-readable hot-spot report.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.unbalanced > 0 {
            let _ = writeln!(out, "WARNING: {} unbalanced span exit(s)", self.unbalanced);
        }
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "span", "count", "total", "p50", "p95", "p99", "max"
            );
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    s.name,
                    s.count,
                    format_nanos(s.total_nanos),
                    format_nanos(s.hist.p50()),
                    format_nanos(s.hist.p95()),
                    format_nanos(s.hist.p99()),
                    format_nanos(s.hist.max),
                );
            }
        }
        let per_tgd = self.per_tgd_table();
        if !per_tgd.is_empty() {
            let _ = writeln!(out, "per-TGD hot spots:");
            out.push_str(&per_tgd);
        }
        if let Some(m) = &self.memory {
            let _ = writeln!(
                out,
                "memory @ step {}: {} atoms, {} total ({} atoms, {} arg spill, {} dedup, \
                 {} indexes), queue {}, allocations {} (peak {})",
                m.step,
                m.atoms,
                format_bytes(m.total_bytes()),
                format_bytes(m.atom_bytes),
                format_bytes(m.arg_spill_bytes),
                format_bytes(m.dedup_bytes),
                format_bytes(m.index_bytes),
                m.queue_depth,
                m.allocations,
                format_bytes(self.peak_bytes),
            );
        }
        if let Some(h) = &self.last_heartbeat {
            let _ = writeln!(
                out,
                "progress ({} heartbeat(s)): step {} after {}, {} steps/s, {} atoms ({} atoms/s), \
                 queue {}",
                self.heartbeats,
                h.step,
                format_nanos(h.elapsed_ns),
                h.steps_per_sec,
                h.atoms,
                h.atoms_per_sec,
                h.queue_depth,
            );
        }
        out
    }

    /// The per-TGD attribution table: one row per TGD with its fire
    /// count and a column per span name that was attributed to TGDs.
    fn per_tgd_table(&self) -> String {
        use std::fmt::Write as _;
        let mut names: Vec<&str> = self
            .tgd_spans
            .iter()
            .map(|t| t.name.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        names.sort_unstable();
        let mut tgds: Vec<u32> = self
            .tgd_spans
            .iter()
            .map(|t| t.tgd)
            .chain(self.fires.iter().map(|&(t, _)| t))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        tgds.sort_unstable();
        if tgds.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let _ = write!(out, "  {:>4} {:>8}", "tgd", "fires");
        for n in &names {
            let _ = write!(out, " {n:>18}");
        }
        out.push('\n');
        for tgd in tgds {
            let fires = self
                .fires
                .iter()
                .find(|&&(t, _)| t == tgd)
                .map_or(0, |&(_, n)| n);
            let _ = write!(out, "  {tgd:>4} {fires:>8}");
            for n in &names {
                let total = self
                    .tgd_spans
                    .iter()
                    .find(|t| t.tgd == tgd && t.name == *n)
                    .map_or(0, |t| t.total_nanos);
                let _ = write!(out, " {:>18}", format_nanos(total));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the collapsed-stack (flamegraph-compatible) dump: one
    /// `path self_nanos` line per call path, heaviest first.
    pub fn collapsed(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for p in &self.paths {
            let _ = writeln!(out, "{} {}", p.path, p.self_nanos);
        }
        out
    }

    /// Appends the profile's numbers as fields of a flat-JSON object,
    /// such as the `chasectl profile --json` report. All values are
    /// unsigned integers.
    pub fn append_flat_json(&self, obj: Object) -> Object {
        let mut obj = obj
            .num("unbalanced", self.unbalanced)
            .num("fires_total", self.fires_total());
        for s in &self.spans {
            let n = &s.name;
            obj = obj
                .num(&format!("span.{n}.count"), s.count)
                .num(&format!("span.{n}.total_ns"), s.total_nanos)
                .num(&format!("span.{n}.p50_ns"), s.hist.p50())
                .num(&format!("span.{n}.p95_ns"), s.hist.p95())
                .num(&format!("span.{n}.p99_ns"), s.hist.p99())
                .num(&format!("span.{n}.max_ns"), s.hist.max);
        }
        for t in &self.tgd_spans {
            obj = obj.num(&format!("tgd.{}.{}.total_ns", t.tgd, t.name), t.total_nanos);
        }
        for &(tgd, fires) in &self.fires {
            obj = obj.num(&format!("tgd.{tgd}.fires"), fires);
        }
        if let Some(m) = &self.memory {
            obj = obj
                .num("memory.step", m.step)
                .num("memory.atoms", m.atoms)
                .num("memory.total_bytes", m.total_bytes())
                .num("memory.atom_bytes", m.atom_bytes)
                .num("memory.arg_spill_bytes", m.arg_spill_bytes)
                .num("memory.dedup_bytes", m.dedup_bytes)
                .num("memory.index_bytes", m.index_bytes)
                .num("memory.queue_depth", m.queue_depth)
                .num("memory.allocations", m.allocations)
                .num("memory.peak_bytes", self.peak_bytes);
        }
        if let Some(h) = &self.last_heartbeat {
            obj = obj
                .num("heartbeats", self.heartbeats)
                .num("heartbeat.step", h.step)
                .num("heartbeat.elapsed_ns", h.elapsed_ns)
                .num("heartbeat.steps_per_sec", h.steps_per_sec)
                .num("heartbeat.atoms_per_sec", h.atoms_per_sec);
        }
        obj
    }
}

/// Formats a byte count with a readable unit.
pub fn format_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
    } else if b >= 1024.0 * 1024.0 {
        format!("{:.2} MiB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.2} KiB", b / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

/// The concrete profiling observer: an extension of [`ChaseObserver`]
/// whose [`ChaseObserver::profiling`] is `true`, so engines emit the
/// span/memory/heartbeat stream to it; it aggregates everything into
/// a [`SpanProfile`]. Phase events are folded in as unattributed
/// spans, so decider phases show up in the same tree.
#[derive(Debug, Default)]
pub struct SpanObserver {
    stack: Vec<Frame>,
    /// Interned call paths: id → (parent id or `usize::MAX`, key).
    paths: Vec<(usize, SpanKey)>,
    /// Interned path ids whose parent is the root (`usize::MAX`),
    /// kept most-recently-entered first.
    roots: Vec<usize>,
    /// Interned child path ids per path id, most-recently-entered
    /// first — a span entry scans only its parent's children.
    children: Vec<Vec<usize>>,
    /// All timing accumulators, parallel to `paths`.
    path_acc: Vec<PathAcc>,
    /// Trigger applications indexed by TGD.
    fires: Vec<u64>,
    unbalanced: u64,
    memory: Option<MemorySample>,
    peak_bytes: u64,
    heartbeats: u64,
    last_heartbeat: Option<HeartbeatSample>,
}

impl SpanObserver {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, key: SpanKey) {
        let parent = self.stack.last().map_or(usize::MAX, |f| f.path);
        let bucket: &[usize] = if parent == usize::MAX {
            &self.roots
        } else {
            &self.children[parent]
        };
        // Scan the parent's interned children, most-recent first: the
        // engines alternate over a handful of span kinds per parent,
        // so this hits at index 0 or 1 almost always.
        let found = bucket
            .iter()
            .position(|&id| key_eq(&self.paths[id].1, &key));
        let path = match found {
            Some(i) => {
                let bucket = if parent == usize::MAX {
                    &mut self.roots
                } else {
                    &mut self.children[parent]
                };
                let id = bucket[i];
                if i != 0 {
                    bucket.swap(0, i);
                }
                id
            }
            None => {
                let id = self.paths.len();
                self.paths.push((parent, key));
                self.path_acc.push(PathAcc::default());
                self.children.push(Vec::new());
                let bucket = if parent == usize::MAX {
                    &mut self.roots
                } else {
                    &mut self.children[parent]
                };
                bucket.insert(0, id);
                id
            }
        };
        self.stack.push(Frame {
            key,
            path,
            child_nanos: 0,
        });
    }

    fn pop(&mut self, key: SpanKey, nanos: u64) {
        let Some(frame) = self.stack.pop() else {
            self.unbalanced += 1;
            return;
        };
        if !key_eq(&frame.key, &key) {
            // Exit does not match the innermost open span: count the
            // violation, but still close the popped frame so the
            // aggregator resynchronises instead of corrupting every
            // later span.
            self.unbalanced += 1;
        }
        let p = &mut self.path_acc[frame.path];
        p.count += 1;
        p.total_nanos += nanos;
        p.self_nanos += nanos.saturating_sub(frame.child_nanos);
        p.hist.record(nanos);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_nanos += nanos;
        }
    }

    fn path_string(&self, mut id: usize) -> String {
        let mut labels = Vec::new();
        while id != usize::MAX {
            let (parent, key) = self.paths[id];
            labels.push(key.label());
            id = parent;
        }
        labels.reverse();
        labels.join(";")
    }

    /// Finalises the aggregation into a [`SpanProfile`]. Open spans
    /// left on the stack count as unbalanced.
    pub fn profile(&self) -> SpanProfile {
        // Fold the per-path accumulators into per-key aggregates here,
        // in the cold path; several call paths can share a key (the
        // same span under different parents).
        let mut by_key: BTreeMap<SpanKey, SpanAcc> = BTreeMap::new();
        for (id, (_, key)) in self.paths.iter().enumerate() {
            let p = &self.path_acc[id];
            if p.count == 0 {
                continue;
            }
            let acc = by_key.entry(*key).or_default();
            acc.count += p.count;
            acc.total += p.total_nanos;
            acc.hist.merge(&p.hist);
        }
        let mut by_name: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
        let mut tgd_spans = Vec::new();
        for (key, acc) in &by_key {
            let stat = by_name.entry(key.name).or_insert_with(|| SpanStat {
                name: key.name.to_string(),
                count: 0,
                total_nanos: 0,
                hist: HistogramSnapshot::empty(),
            });
            stat.count += acc.count;
            stat.total_nanos += acc.total;
            stat.hist.merge(&acc.hist);
            if key.tgd != NO_TGD {
                tgd_spans.push(TgdSpanStat {
                    name: key.name.to_string(),
                    tgd: key.tgd,
                    count: acc.count,
                    total_nanos: acc.total,
                });
            }
        }
        let mut spans: Vec<SpanStat> = by_name.into_values().collect();
        spans.sort_by(|a, b| b.total_nanos.cmp(&a.total_nanos).then(a.name.cmp(&b.name)));
        tgd_spans.sort_by(|a, b| {
            b.total_nanos
                .cmp(&a.total_nanos)
                .then(a.tgd.cmp(&b.tgd))
                .then(a.name.cmp(&b.name))
        });
        let mut paths: Vec<PathStat> = self
            .path_acc
            .iter()
            .enumerate()
            .filter(|(_, acc)| acc.count > 0)
            .map(|(id, acc)| PathStat {
                path: self.path_string(id),
                count: acc.count,
                self_nanos: acc.self_nanos,
            })
            .collect();
        paths.sort_by(|a, b| b.self_nanos.cmp(&a.self_nanos).then(a.path.cmp(&b.path)));
        SpanProfile {
            spans,
            tgd_spans,
            fires: self
                .fires
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(t, &n)| (t as u32, n))
                .collect(),
            paths,
            unbalanced: self.unbalanced + self.stack.len() as u64,
            memory: self.memory,
            peak_bytes: self.peak_bytes,
            heartbeats: self.heartbeats,
            last_heartbeat: self.last_heartbeat,
        }
    }
}

impl ChaseObserver for SpanObserver {
    #[inline]
    fn profiling(&self) -> bool {
        true
    }

    // A pure profiler: per-step detail events would land in the
    // catch-all arm below, so opt out of them at the emission site.
    #[inline]
    fn detail(&self) -> bool {
        false
    }

    fn on_event(&mut self, event: &Event) {
        match *event {
            Event::SpanEntered { span, tgd } => self.push(SpanKey { name: span, tgd }),
            Event::SpanExited { span, tgd, nanos } => self.pop(SpanKey { name: span, tgd }, nanos),
            Event::PhaseEntered { phase } => self.push(SpanKey {
                name: phase,
                tgd: NO_TGD,
            }),
            Event::PhaseExited { phase, nanos } => self.pop(
                SpanKey {
                    name: phase,
                    tgd: NO_TGD,
                },
                nanos,
            ),
            Event::TriggerApplied { tgd, .. } => {
                let i = tgd as usize;
                if i >= self.fires.len() {
                    self.fires.resize(i + 1, 0);
                }
                self.fires[i] += 1;
            }
            Event::MemorySampled {
                step,
                atoms,
                atom_bytes,
                arg_spill_bytes,
                dedup_bytes,
                index_bytes,
                queue_depth,
                allocations,
                ..
            } => {
                let sample = MemorySample {
                    step,
                    atoms,
                    atom_bytes,
                    arg_spill_bytes,
                    dedup_bytes,
                    index_bytes,
                    queue_depth,
                    allocations,
                };
                self.peak_bytes = self.peak_bytes.max(sample.total_bytes());
                self.memory = Some(sample);
            }
            Event::Heartbeat {
                step,
                elapsed_ns,
                steps_per_sec,
                atoms,
                atoms_per_sec,
                queue_depth,
                ..
            } => {
                self.heartbeats += 1;
                self.last_heartbeat = Some(HeartbeatSample {
                    step,
                    elapsed_ns,
                    steps_per_sec,
                    atoms,
                    atoms_per_sec,
                    queue_depth,
                });
            }
            // Discovery/check/insert detail is aggregated by
            // `CountingObserver`; the profiler only needs spans,
            // fires and samples.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EngineKind;
    use crate::spans;

    fn enter(obs: &mut SpanObserver, span: &'static str, tgd: u32) {
        obs.on_event(&Event::SpanEntered { span, tgd });
    }

    fn exit(obs: &mut SpanObserver, span: &'static str, tgd: u32, nanos: u64) {
        obs.on_event(&Event::SpanExited { span, tgd, nanos });
    }

    #[test]
    fn aggregates_a_nested_tree_with_self_time() {
        let mut obs = SpanObserver::new();
        enter(&mut obs, spans::RUN, NO_TGD);
        enter(&mut obs, spans::STEP, 0);
        enter(&mut obs, spans::MATCH, 0);
        exit(&mut obs, spans::MATCH, 0, 30);
        exit(&mut obs, spans::STEP, 0, 100);
        enter(&mut obs, spans::STEP, 1);
        exit(&mut obs, spans::STEP, 1, 50);
        exit(&mut obs, spans::RUN, NO_TGD, 200);
        let p = obs.profile();
        assert_eq!(p.unbalanced, 0);
        assert_eq!(p.span_total(spans::RUN), 200);
        assert_eq!(p.span_total(spans::STEP), 150);
        assert_eq!(p.span_total(spans::MATCH), 30);
        // Self time: run = 200 - (100 + 50), step#0 = 100 - 30.
        let find = |path: &str| {
            p.paths
                .iter()
                .find(|s| s.path == path)
                .unwrap_or_else(|| panic!("missing path {path} in {:?}", p.paths))
        };
        assert_eq!(find("run").self_nanos, 50);
        assert_eq!(find("run;step#0").self_nanos, 70);
        assert_eq!(find("run;step#0;match#0").self_nanos, 30);
        assert_eq!(find("run;step#1").self_nanos, 50);
        // Per-TGD attribution splits step spans by TGD.
        assert!(p
            .tgd_spans
            .iter()
            .any(|t| t.name == spans::STEP && t.tgd == 0 && t.total_nanos == 100));
        assert!(p
            .tgd_spans
            .iter()
            .any(|t| t.name == spans::STEP && t.tgd == 1 && t.total_nanos == 50));
        // Renderers cover every section.
        let text = p.render_text();
        assert!(text.contains("run"), "{text}");
        assert!(text.contains("per-TGD hot spots"), "{text}");
        let collapsed = p.collapsed();
        assert!(collapsed.contains("run;step#0;match#0 30"), "{collapsed}");
    }

    #[test]
    fn phases_fold_in_as_unattributed_spans() {
        let mut obs = SpanObserver::new();
        obs.on_event(&Event::PhaseEntered { phase: "classify" });
        obs.on_event(&Event::PhaseExited {
            phase: "classify",
            nanos: 77,
        });
        let p = obs.profile();
        assert_eq!(p.span_total("classify"), 77);
        assert!(p.tgd_spans.is_empty());
    }

    #[test]
    fn mismatched_and_dangling_exits_are_counted_not_fatal() {
        let mut obs = SpanObserver::new();
        enter(&mut obs, spans::RUN, NO_TGD);
        exit(&mut obs, spans::STEP, 0, 10); // mismatch
        exit(&mut obs, spans::RUN, NO_TGD, 20); // stack already empty
        enter(&mut obs, spans::SEED, NO_TGD); // left open
        let p = obs.profile();
        assert_eq!(p.unbalanced, 3);
    }

    #[test]
    fn fires_and_samples_are_captured() {
        let mut obs = SpanObserver::new();
        for _ in 0..3 {
            obs.on_event(&Event::TriggerApplied {
                engine: EngineKind::Restricted,
                tgd: 1,
                step: 1,
                new_atoms: 1,
                new_nulls: 0,
            });
        }
        obs.on_event(&Event::MemorySampled {
            engine: EngineKind::Restricted,
            step: 3,
            atoms: 10,
            atom_bytes: 100,
            arg_spill_bytes: 20,
            dedup_bytes: 30,
            index_bytes: 40,
            queue_depth: 5,
            allocations: 9,
        });
        obs.on_event(&Event::Heartbeat {
            engine: EngineKind::Restricted,
            step: 3,
            elapsed_ns: 1000,
            steps_per_sec: 3_000_000,
            atoms: 10,
            atoms_per_sec: 10_000_000,
            queue_depth: 5,
        });
        let p = obs.profile();
        assert_eq!(p.fires, vec![(1, 3)]);
        assert_eq!(p.fires_total(), 3);
        let m = p.memory.unwrap();
        assert_eq!(m.total_bytes(), 190);
        assert_eq!(p.peak_bytes, 190);
        assert_eq!(p.heartbeats, 1);
        assert_eq!(p.last_heartbeat.unwrap().steps_per_sec, 3_000_000);
        let json = p
            .append_flat_json(Object::new().str("event", "profile_report").num("v", 2))
            .finish();
        assert!(json.contains("\"tgd.1.fires\":3"), "{json}");
        assert!(json.contains("\"memory.total_bytes\":190"), "{json}");
        assert!(!json.contains('['), "flat JSON only: {json}");
    }

    #[test]
    fn byte_formatting_units() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.00 KiB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.00 MiB");
        assert_eq!(format_bytes(5 * 1024 * 1024 * 1024), "5.00 GiB");
    }
}

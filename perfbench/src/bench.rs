//! The two kinds of run: the untraced end-to-end run, and the traced run
//! that reports per-layer metrics.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use chase_telemetry::{names, spans};

use crate::check::{chase_reference, check_reply, ChaseResult, Reply};
use crate::layers::{self, ratio};
use crate::serve::{closed_loop, send, Sample, Served, Window};
use crate::sys::{cpu_ms, peak_rss_mb, quantile};
use crate::workload::{Op, Stream};

/// Server boots per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 51;
/// Share of `--seconds` given to each served pass of the traced run.
const TRACE_PASS_SHARE: f64 = 0.3;
/// Threads that compute chase references after the timed window.
const CHECKERS: usize = 2;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Further figures printed above the JSON line, for people.
    pub notes: Vec<Metric>,
    /// Requests sent, warm-up included.
    pub attempted: u64,
    /// One message per failed request.
    pub failures: Vec<String>,
}

/// Sends the warm-up requests one by one; a sample's `index` is its
/// position in `Stream::warmup`.
fn warm_up(served: &Served, stream: &Stream) -> Vec<Sample> {
    (0u64..)
        .zip(stream.warmup())
        .map(|(i, request)| send(served.endpoint(), &request, i, &format!("w{i}"), false, 0))
        .collect()
}

fn source_key(source: &str) -> u64 {
    let mut h = DefaultHasher::new();
    source.hash(&mut h);
    h.finish()
}

/// Checks served replies after the window. `samples` pairs each reply
/// with the request it answered (`warm` marks warm-up requests).
/// Chase references are memoized by program text and computed on
/// [`CHECKERS`] threads.
fn verify(stream: &Stream, samples: &[(bool, &Sample)]) -> Vec<String> {
    let memo: Mutex<HashMap<u64, Result<ChaseResult, String>>> = Mutex::new(HashMap::new());
    let failures = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    let warm = stream.warmup();
    std::thread::scope(|scope| {
        for _ in 0..CHECKERS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(is_warm, sample)) = samples.get(i) else {
                    break;
                };
                let request = if is_warm {
                    warm[sample.index as usize].clone()
                } else {
                    stream.request(sample.index)
                };
                let outcome = match &sample.reply {
                    Err(e) => Err(format!("{}: {e}", request.family)),
                    Ok(reply) => check_reply(&request, reply, || {
                        let key = source_key(&request.source);
                        let cached = memo.lock().expect("checker panicked").get(&key).cloned();
                        cached.unwrap_or_else(|| {
                            let reference = chase_reference(&request.source);
                            let mut memo = memo.lock().expect("checker panicked");
                            memo.insert(key, reference.clone());
                            reference
                        })
                    }),
                };
                if let Err(e) = outcome {
                    failures
                        .lock()
                        .expect("checker panicked")
                        .push(format!("request {}: {e}", sample.index));
                }
            });
        }
    });
    failures.into_inner().expect("checker panicked")
}

fn latencies(samples: &[Sample], op: Option<Op>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| op.is_none_or(|op| s.op == op))
        .map(|s| s.latency_us)
        .collect()
}

fn socket(dir: &Path) -> std::path::PathBuf {
    dir.join(format!("{}.sock", std::process::id()))
}

/// The end-to-end run: [`SETUPS`] boots, the warm-up, then `seconds`
/// of closed-loop traffic with observers off.
pub fn end_to_end(stream: &Stream, seconds: u64, dir: &Path) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut served = None;
    for _ in 0..SETUPS {
        if let Some(old) = served.take() {
            Served::stop(old)?;
        }
        let (fresh, secs) = Served::boot(socket(dir))?;
        setups.push(secs);
        served = Some(fresh);
    }
    let served = served.expect("SETUPS > 0");
    let warm = warm_up(&served, stream);
    let cpu_before = cpu_ms()?;
    let window = closed_loop(
        served.endpoint(),
        stream,
        u64::MAX,
        Duration::from_secs(seconds),
        false,
    );
    let cpu = cpu_ms()? - cpu_before;
    let rss = peak_rss_mb()?;
    served.stop()?;

    let samples = &window.samples;
    let n = samples.len() as f64;
    let mut checked: Vec<(bool, &Sample)> = warm.iter().map(|s| (true, s)).collect();
    checked.extend(samples.iter().map(|s| (false, s)));
    let failures = verify(stream, &checked);

    let all = latencies(samples, None);
    let metrics = vec![
        metric("setup_s", quantile(&setups, 0.5), "s"),
        metric("throughput_rps", n / window.wall.as_secs_f64(), "req/s"),
        metric("p50_us", quantile(&all, 0.5), "us"),
        metric("p99_us", quantile(&all, 0.99), "us"),
        metric("peak_rss_mb", rss, "MB"),
        metric("cpu_ms_per_req", ratio(cpu, n), "ms"),
    ];
    let mut notes = vec![metric("requests", n, "count")];
    for (op, p50, p99, count) in [
        (Op::Decide, "decide_p50_us", "decide_p99_us", "decides"),
        (Op::Chase, "chase_p50_us", "chase_p99_us", "chases"),
    ] {
        let lat = latencies(samples, Some(op));
        if !lat.is_empty() {
            notes.push(metric(count, lat.len() as f64, "count"));
            notes.push(metric(p50, quantile(&lat, 0.5), "us"));
            notes.push(metric(p99, quantile(&lat, 0.99), "us"));
        }
    }
    let decides: Vec<&Sample> = samples.iter().filter(|s| s.op == Op::Decide).collect();
    if !decides.is_empty() {
        let definitive = decides
            .iter()
            .filter(|s| matches!(&s.reply, Ok(Reply::Verdict(v)) if v != "unknown"))
            .count();
        notes.push(metric(
            "definitive_ratio",
            definitive as f64 / decides.len() as f64,
            "ratio",
        ));
    }
    notes.push(metric(
        "failed_ratio",
        failures.len() as f64 / checked.len() as f64,
        "ratio",
    ));
    Ok(Report {
        metrics,
        notes,
        attempted: checked.len() as u64,
        failures,
    })
}

fn served_pass(
    stream: &Stream,
    dir: &Path,
    limit: u64,
    deadline: Duration,
    telemetry: bool,
) -> Result<(Vec<Sample>, Window), String> {
    let (served, _) = Served::boot(socket(dir))?;
    let warm = warm_up(&served, stream);
    let window = closed_loop(served.endpoint(), stream, limit, deadline, telemetry);
    served.stop()?;
    Ok((warm, window))
}

fn counter_total(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .map(|s| s.counters.get(name).copied().unwrap_or(0))
        .sum::<u64>() as f64
}

/// The traced run. Two served passes over the same stream prefix (the
/// first with telemetry off, the second with the per-session telemetry
/// stream on, whose `server.*` counters give the cache figures), then
/// the in-process plain and observed replays of that prefix.
pub fn traced(stream: &Stream, seconds: u64, dir: &Path) -> Result<Report, String> {
    let pass = Duration::from_secs_f64(seconds as f64 * TRACE_PASS_SHARE);
    let (warm_a, untraced) = served_pass(stream, dir, u64::MAX, pass, false)?;
    let count = untraced.samples.len() as u64;
    let (warm_b, traced) = served_pass(stream, dir, count, pass, true)?;
    let plain = layers::plain(stream, count)?;
    let observed = layers::observed(stream, count)?;

    let mut checked: Vec<(bool, &Sample)> = Vec::new();
    for (warm, window) in [(&warm_a, &untraced), (&warm_b, &traced)] {
        checked.extend(warm.iter().map(|s| (true, s)));
        checked.extend(window.samples.iter().map(|s| (false, s)));
    }
    let failures = verify(stream, &checked);

    let a = &untraced.samples;
    let b = &traced.samples;
    let n = a.len() as f64;
    // Pass 1 covers stream indices 0..n in order, as does the replay.
    let overhead_us: Vec<f64> = a
        .iter()
        .zip(&plain.layer_us)
        .map(|(s, layer)| s.latency_us - layer)
        .collect();
    let attempts: f64 = a.iter().map(|s| s.attempts as f64).sum();
    let per_req = |w: &Window| ratio(w.wall.as_secs_f64(), w.samples.len() as f64);
    let program_hits = counter_total(b, names::PROGRAM_CACHE_HITS);
    let program_misses = counter_total(b, names::PROGRAM_CACHE_MISSES);
    let decide_hits = counter_total(b, names::DECIDE_CACHE_HITS);
    let decide_misses = counter_total(b, names::DECIDE_CACHE_MISSES);

    let summary = observed.counting.summary();
    let profile = observed.spans.profile();
    let decides = observed.decides as f64;
    let phase_us = |phase: &str| {
        ratio(
            summary.phase_nanos(phase).unwrap_or(0) as f64 / 1e3,
            decides,
        )
    };
    let per_decide = |name: &str| ratio(summary.counter(name).unwrap_or(0) as f64, decides);
    let runs = profile
        .spans
        .iter()
        .find(|s| s.name == spans::RUN)
        .map_or(0, |s| s.count) as f64;
    let counter = |name: &str| summary.counter(name).unwrap_or(0) as f64;
    // The engines time whole step subtrees for only one queue pop in
    // `DEFAULT_PROFILE_SAMPLE_EVERY`, while `run`, `seed` and
    // `index_maintain` are always timed. Split the unsampled step time
    // (run minus seed and index upkeep) by each span's share of the
    // sampled steps.
    let step_us = profile
        .span_total(spans::RUN)
        .saturating_sub(profile.span_total(spans::SEED))
        .saturating_sub(profile.span_total(spans::INDEX_MAINTAIN)) as f64
        / 1e3;
    let sampled_us = |span: &str| {
        let share = ratio(
            profile.span_total(span) as f64,
            profile.span_total(spans::STEP) as f64,
        );
        ratio(step_us * share, runs)
    };

    let metrics = vec![
        metric(
            "core.compile.us_per_call",
            plain.compile.us_per_call(),
            "us",
        ),
        metric(
            "core.compile.ns_per_byte",
            ratio(plain.compile.nanos as f64, plain.compile_bytes as f64),
            "ns/B",
        ),
        metric(
            "server.cache.resolve_us_per_call",
            plain.resolve.us_per_call(),
            "us",
        ),
        metric(
            "server.cache.program_hit_ratio",
            ratio(program_hits, program_hits + program_misses),
            "ratio",
        ),
        metric(
            "server.cache.decide_hit_ratio",
            ratio(decide_hits, decide_hits + decide_misses),
            "ratio",
        ),
        metric(
            "server.cache.evictions_per_req",
            ratio(
                counter_total(b, names::PROGRAM_CACHE_EVICTIONS),
                b.len() as f64,
            ),
            "count",
        ),
        metric(
            "server.overhead_us_per_req",
            quantile(&overhead_us, 0.5),
            "us",
        ),
        metric(
            "server.request_bytes_per_req",
            ratio(a.iter().map(|s| s.request_bytes as f64).sum(), n),
            "B",
        ),
        metric("server.shed_ratio", ratio(attempts - n, attempts), "ratio"),
        metric(
            "classes.classify.us_per_call",
            plain.classify.us_per_call(),
            "us",
        ),
        metric(
            "termination.decide.us_per_call",
            plain.decide.us_per_call(),
            "us",
        ),
        metric(
            "termination.sticky.emptiness_us_per_call",
            phase_us("sticky.emptiness"),
            "us",
        ),
        metric(
            "termination.sticky.witness_us_per_call",
            phase_us("sticky.witness"),
            "us",
        ),
        metric(
            "termination.sticky.automaton_states_per_call",
            per_decide(names::AUTOMATON_STATES),
            "count",
        ),
        metric(
            "termination.guarded.provers_us_per_call",
            phase_us("guarded.provers"),
            "us",
        ),
        metric(
            "termination.guarded.seed_search_us_per_call",
            phase_us("guarded.seed_search"),
            "us",
        ),
        metric(
            "termination.guarded.seeds_tried_per_call",
            per_decide(names::GUARDED_SEEDS),
            "count",
        ),
        metric(
            "engine.run.us_per_call",
            ratio(profile.span_total(spans::RUN) as f64 / 1e3, runs),
            "us",
        ),
        metric(
            "engine.steps_per_call",
            ratio(counter(names::TRIGGERS_APPLIED), runs),
            "count",
        ),
        metric(
            "engine.atoms_per_call",
            ratio(counter(names::ATOMS_INSERTED), runs),
            "count",
        ),
        metric("engine.match_us_per_call", sampled_us(spans::MATCH), "us"),
        metric(
            "engine.restriction_check_us_per_call",
            sampled_us(spans::RESTRICTION_CHECK),
            "us",
        ),
        metric("engine.insert_us_per_call", sampled_us(spans::INSERT), "us"),
        metric(
            "engine.active_ratio",
            ratio(
                counter(names::TRIGGERS_APPLIED),
                counter(names::TRIGGERS_CHECKED),
            ),
            "ratio",
        ),
        metric("engine.peak_bytes", profile.peak_bytes as f64, "B"),
        metric(
            "trace.overhead_ratio",
            ratio(per_req(&traced), per_req(&untraced)),
            "ratio",
        ),
    ];
    let notes = vec![
        metric("untraced_requests", n, "count"),
        metric("traced_requests", b.len() as f64, "count"),
        metric("engine_runs", runs, "count"),
        metric("decider_runs", decides, "count"),
    ];
    Ok(Report {
        metrics,
        notes,
        attempted: checked.len() as u64,
        failures,
    })
}

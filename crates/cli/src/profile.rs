//! `chasectl profile` — a profiled chase run with hot-spot
//! attribution, memory accounting and an overhead gate.
//!
//! The command runs the workload twice per repetition — once
//! unprofiled (baseline) and once under a [`SpanObserver`],
//! interleaved — across `--runs` repetitions, and reports:
//!
//! * a span table (count, total, p50/p95/p99/max from log₂
//!   histograms) and per-TGD hot-spot pivot;
//! * instance memory accounting (atoms, spill, dedup map, indexes)
//!   and allocation counts from the final memory sample;
//! * profiling overhead as the median of per-repetition paired
//!   ratios (robust against machine noise, which inflates both
//!   halves of the pair it lands on), gated by `--max-overhead
//!   <pct>` (exit 1 when exceeded — `scripts/check.sh` uses this as
//!   its smoke gate);
//! * optionally a flat-JSON report (`--json`, itself a valid
//!   single-line trace that `chasectl stats` parses), a collapsed
//!   flamegraph dump (`--folded`) and a full profiling trace
//!   (`--trace`).
//!
//! Profiling never perturbs the derivation: the command asserts the
//! baseline and profiled instances are bit-identical.
//!
//! Step spans are 1-in-64 *sampled* by default (deterministic in the
//! pop index; trigger fire counts stay exact) so the overhead gate
//! holds even on workloads whose steps are sub-microsecond;
//! `--sample-every 1` switches to exhaustive spans when fidelity
//! matters more than overhead.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::time::Instant;

use chase_core::instance::Instance;
use chase_core::tgd::TgdSet;
use chase_core::vocab::Vocabulary;
use chase_engine::restricted::{Budget, ChaseVariant, Outcome, RestrictedChase};
use chase_engine::DEFAULT_PROFILE_SAMPLE_EVERY;
use chase_telemetry::json::Object;
use chase_telemetry::{
    ChaseObserver, EngineKind, JsonlWriter, SpanObserver, SpanProfile, Tee, SCHEMA_VERSION,
};

/// Everything `chasectl profile` parsed off the command line.
pub struct ProfileOptions {
    /// Step budget per run.
    pub steps: usize,
    /// Which chase to profile.
    pub variant: ChaseVariant,
    /// Timing repetitions; the minimum is reported (default 3).
    pub runs: usize,
    /// Periodic sample cadence in steps. The default is coarse enough
    /// that sampling stays a rounding error in the overhead gate while
    /// still streaming progress several times a second on dense
    /// workloads.
    pub heartbeat_every: u64,
    /// Step-span sampling cadence: 1 in this many queue pops gets a
    /// full span subtree (`None` = the engine default, 64; `1` spans
    /// every pop, at higher overhead).
    pub sample_every: Option<u64>,
    /// Write the flat-JSON report here.
    pub json: Option<String>,
    /// Write collapsed (flamegraph) stacks here.
    pub folded: Option<String>,
    /// Write the full profiling event stream here.
    pub trace: Option<String>,
    /// Fail (exit 1) when profiling overhead exceeds this percentage.
    pub max_overhead_pct: Option<u64>,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            steps: 10_000,
            variant: ChaseVariant::default(),
            runs: 3,
            heartbeat_every: 8192,
            sample_every: None,
            json: None,
            folded: None,
            trace: None,
            max_overhead_pct: None,
        }
    }
}

/// One measured run: outcome, steps, final instance, wall nanos.
struct Measured {
    outcome: Outcome,
    steps: usize,
    instance: Instance,
    nanos: u64,
}

fn run_once<O: ChaseObserver + ?Sized>(
    opts: &ProfileOptions,
    db: &Instance,
    set: &TgdSet,
    obs: &mut O,
) -> Measured {
    let budget = Budget::steps(opts.steps);
    let start = Instant::now();
    let sample_every = opts.sample_every.unwrap_or(DEFAULT_PROFILE_SAMPLE_EVERY);
    let run = RestrictedChase::new(set)
        .variant(opts.variant)
        .heartbeat_every(opts.heartbeat_every)
        .profile_sample_every(sample_every)
        .run_observed(db, budget, obs);
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Measured {
        outcome: run.outcome,
        steps: run.steps,
        instance: run.instance,
        nanos,
    }
}

/// Overhead of `profiled` over `baseline` in hundredths of a percent,
/// clamped at zero (a profiled run that happens to be faster reads as
/// 0, keeping the JSON report's integers unsigned).
fn overhead_pct_x100(baseline: u64, profiled: u64) -> u64 {
    if profiled <= baseline || baseline == 0 {
        return 0;
    }
    (profiled - baseline).saturating_mul(10_000) / baseline
}

/// The flat-JSON report: one line, scalar values only, starting with
/// the `event`/`v` keys — so the report is itself a valid trace line
/// for `chasectl stats`.
fn report_json(
    engine: EngineKind,
    baseline: &Measured,
    best_profiled_ns: u64,
    runs: usize,
    sample_every: u64,
    overhead_x100: u64,
    profile: &SpanProfile,
) -> String {
    let report = Object::new()
        .str("event", "profile_report")
        .num("v", SCHEMA_VERSION)
        .str("engine", engine.as_str())
        .str("outcome", &crate::outcome_label(baseline.outcome))
        .num("steps", baseline.steps as u64)
        .num("atoms", baseline.instance.len() as u64)
        .num("runs", runs as u64)
        .num("sample_every", sample_every)
        .num("baseline_ns", baseline.nanos)
        .num("profiled_ns", best_profiled_ns)
        .num("overhead_pct_x100", overhead_x100);
    profile.append_flat_json(report).finish()
}

/// The `chasectl profile <file>` entry point.
pub fn cmd_profile(
    db: &Instance,
    set: &TgdSet,
    _vocab: &Vocabulary,
    opts: &ProfileOptions,
) -> Result<(), String> {
    let runs = opts.runs.max(1);
    let engine_kind = opts.variant.kind();

    // Warm caches, the allocator and the CPU governor before any
    // timed rep; the result is discarded.
    run_once(opts, db, set, &mut chase_telemetry::NullObserver);

    // Baseline and profiled runs are *interleaved* per rep, with the
    // within-pair order alternating between reps. The reported nanos
    // are each side's minimum wall-clock, but the overhead figure is
    // the **median of per-rep paired ratios**: a noise burst (noisy
    // neighbour, governor dip) inflates both runs of the pair it
    // lands on, so the pair's ratio stays honest, and the median
    // discards the pairs it split. Comparing the two independent
    // minima instead would let a burst that straddles only one side
    // read as fake overhead; alternating the order keeps *periodic*
    // interference from always landing on the same half of a pair.
    //
    // The trace (if any) is written on the first profiled rep only,
    // whose IO cost the median then discards. The reported profile
    // comes from the fastest profiled rep.
    let mut trace = match &opts.trace {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            Some((path.clone(), JsonlWriter::new(BufWriter::new(file))))
        }
        None => None,
    };
    let mut baseline: Option<Measured> = None;
    let mut best: Option<(Measured, SpanObserver)> = None;
    let mut pair_ratios: Vec<u64> = Vec::with_capacity(runs);
    for rep in 0..runs {
        let baseline_first = rep % 2 == 0;
        let run_baseline = |baseline: &mut Option<Measured>| {
            let b = run_once(opts, db, set, &mut chase_telemetry::NullObserver);
            let nanos = b.nanos;
            match &baseline {
                Some(prev) if b.nanos >= prev.nanos => {}
                _ => *baseline = Some(b),
            }
            nanos
        };
        let b_nanos = baseline_first.then(|| run_baseline(&mut baseline));
        let mut obs = SpanObserver::new();
        let m = match (rep, trace.as_mut()) {
            (0, Some((_, writer))) => {
                let mut tee = Tee::new(&mut obs, writer);
                run_once(opts, db, set, &mut tee)
            }
            _ => run_once(opts, db, set, &mut obs),
        };
        let b_nanos = match b_nanos {
            Some(n) => n,
            None => run_baseline(&mut baseline),
        };
        pair_ratios.push(overhead_pct_x100(b_nanos, m.nanos));
        match &best {
            Some((prev, _)) if m.nanos >= prev.nanos => {}
            _ => best = Some((m, obs)),
        }
    }
    let baseline = baseline.expect("runs >= 1");
    let (profiled, span_obs) = best.expect("runs >= 1");
    pair_ratios.sort_unstable();
    let overhead = pair_ratios[pair_ratios.len() / 2];
    if let Some((path, writer)) = trace {
        let events = writer.events_written();
        writer
            .finish()
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("chasectl: trace: {events} event(s) written to {path}");
    }

    // Profiling must be an observer, not a participant.
    if profiled.instance != baseline.instance || profiled.steps != baseline.steps {
        return Err(
            "profiled run diverged from the unprofiled baseline (this is a bug)".to_string(),
        );
    }

    let profile = span_obs.profile();
    println!(
        "profile: {} chase: {} after {} steps, {} atoms",
        engine_kind.as_str(),
        crate::outcome_label(baseline.outcome),
        baseline.steps,
        baseline.instance.len()
    );
    println!(
        "overhead: baseline {} ns, profiled {} ns (+{}.{:02}%, paired median of {} run(s))",
        baseline.nanos,
        profiled.nanos,
        overhead / 100,
        overhead % 100,
        runs
    );
    let sample_every = opts.sample_every.unwrap_or(DEFAULT_PROFILE_SAMPLE_EVERY);
    if sample_every > 1 {
        println!(
            "sampling: 1 in {sample_every} step(s) carries spans (fires are exact; \
             --sample-every 1 for exhaustive spans)"
        );
    }
    print!("{}", profile.render_text());

    if let Some(path) = &opts.json {
        let line = report_json(
            engine_kind,
            &baseline,
            profiled.nanos,
            runs,
            sample_every,
            overhead,
            &profile,
        );
        std::fs::write(path, format!("{line}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("chasectl: profile: JSON report written to {path}");
    }
    if let Some(path) = &opts.folded {
        let mut f =
            BufWriter::new(File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?);
        f.write_all(profile.collapsed().as_bytes())
            .and_then(|()| f.flush())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("chasectl: profile: collapsed stacks written to {path}");
    }
    if let Some(max) = opts.max_overhead_pct {
        if overhead > max * 100 {
            return Err(format!(
                "profiling overhead {}.{:02}% exceeds the --max-overhead gate of {max}%",
                overhead / 100,
                overhead % 100
            ));
        }
    }
    Ok(())
}

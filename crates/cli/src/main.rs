//! `chasectl` — command-line front end for the restricted-chase
//! toolkit.
//!
//! ```text
//! chasectl classify <file>          syntactic classes + semi-oblivious critical check
//! chasectl chase <file> [--steps N] [--strategy fifo|lifo|random|priority] [--seed N]
//! chasectl oblivious <file> [--steps N] [--semi]
//! chasectl decide <file>            all-instances termination verdict (one governed run)
//! chasectl profile <file>           profiled run: span/memory report + overhead gate
//! chasectl dot <file> [--steps N]   chase, then emit the derivation as graphviz
//! chasectl suite [--metrics]        run the deciders over the labelled suite
//! chasectl stats <path>...          aggregate --trace files into a counter table
//! chasectl serve --socket E         resident chase server on unix:PATH or tcp:HOST:PORT
//! chasectl client E <op> [<file>]   submit ping|shutdown|cancel|chase|decide to a server
//!                                   (chase/decide take --program-ref <fp> to reuse a
//!                                   cached program; shutdown takes --abort)
//! ```
//!
//! `chase`, `oblivious` and `decide` additionally accept the telemetry
//! flags `--trace <file.jsonl>` (stream every event as JSON Lines),
//! `--metrics` (print a counter/phase table after the run) and
//! `--profile` (include the span/memory/heartbeat profiling stream in
//! those sinks), plus the resilience flags `--deadline-ms <N>`
//! (wall-clock deadline) and — for the chase commands —
//! `--cancel-after <N>` (cooperative cancellation after N steps,
//! exercising the same path a signal handler would).
//!
//! `decide` runs the decider once, under `--deadline-ms`; its
//! `classes:` line is the syntactic profile, and the certificate names
//! the semi-oblivious check when that check proved termination.
//! `classify` runs the check itself, under the decider's step budget.
//!
//! `chase`, `oblivious`, `profile` and `client chase` resolve the
//! chase they run through `ChaseVariant::parse`, the parser the server
//! uses for its requests: the same `--strategy`/`--seed` names and the
//! same default seed give the same run served or direct.
//!
//! `stats` merges any number of trace files (a directory expands to
//! its `*.jsonl` children) and understands the profiling events;
//! `stats --follow <file>` tails a growing trace live, with
//! `--idle-exit-ms <N>` to stop once the producer goes quiet.
//!
//! `serve` and `client` are the resident-server pair (DESIGN.md §17):
//! `serve` keeps compiled programs and matcher arenas warm across
//! requests and multiplexes concurrent, governed sessions; `client`
//! submits one session, relays its telemetry (`--telemetry`) and
//! retries `overloaded` sheds with exponential backoff (`--retries N`).
//!
//! ## Exit codes
//!
//! | code | meaning                                                |
//! |------|--------------------------------------------------------|
//! | 0    | success (including a decider's honest `Unknown`)       |
//! | 1    | runtime failure (I/O, parse error, suite disagreement) |
//! | 2    | usage error (unknown command/flag, malformed value)    |
//! | 3    | chase stopped: budget exhausted                        |
//! | 4    | stopped: wall-clock deadline exceeded                  |
//! | 5    | stopped: cancelled                                     |
//! | 6    | server overloaded after every client retry             |
//!
//! Rule files contain TGDs and facts in the syntax of DESIGN.md §5.

use std::fmt::Display;
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use chase_core::compile::compile;
use chase_core::vocab::Vocabulary;
use chase_engine::faults::FaultPlan;
use chase_engine::governor::ResourceGovernor;
use chase_engine::restricted::{
    Budget, ChaseVariant, Outcome, RestrictedChase, Strategy, DEFAULT_RANDOM_SEED, STRATEGY_NAMES,
};
use chase_telemetry::summary::format_nanos;
use chase_telemetry::{
    time_phase, ChaseObserver, CountingObserver, Event, JsonlWriter, TelemetrySummary,
};
use chase_termination::report::explain;
use chase_termination::{decide_observed, DeciderConfig, TerminationVerdict};
use chase_workloads::runner::run_labelled_suite;
use tgd_classes::baselines::{semi_oblivious_critical, CriterionOutcome};
use tgd_classes::profile::{render_tags, ClassProfile};

mod profile;
mod serve;
mod stats;

/// Counts every allocation (and reallocation) into
/// [`chase_telemetry::alloc_track`], where the engines' profiling
/// memory samples pick it up. The counter is a single relaxed atomic
/// increment, so the allocator stays wait-free; `chase-telemetry`
/// itself is `forbid(unsafe_code)`, which is why the `GlobalAlloc`
/// shim lives here in the binary.
struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the extra work is one
// relaxed atomic add, which cannot allocate, unwind or alias.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        chase_telemetry::alloc_track::note(1);
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        chase_telemetry::alloc_track::note(1);
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        chase_telemetry::alloc_track::note(1);
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Step cap applied to `chasectl dot` when no `--steps` is given; an
/// explicit `--steps` is always honoured verbatim.
const DEFAULT_DOT_STEPS: usize = 200;

/// Exit codes (documented in the module header and `usage`).
const EXIT_FAILURE: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_BUDGET: u8 = 3;
const EXIT_DEADLINE: u8 = 4;
const EXIT_CANCELLED: u8 = 5;
const EXIT_OVERLOADED: u8 = 6;

/// A CLI failure, split by who got it wrong: `Usage` is the caller's
/// command line (exit code 2, with a usage hint); `Runtime` is
/// everything else (exit code 1).
#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Runtime(msg)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            eprintln!("chasectl: {msg}");
            eprintln!("{}", usage_hint());
            ExitCode::from(EXIT_USAGE)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("chasectl: {msg}");
            ExitCode::from(EXIT_FAILURE)
        }
    }
}

/// The one-line hint appended to every usage error.
fn usage_hint() -> String {
    "usage: chasectl <classify|chase|oblivious|decide|profile|dot|suite|stats|serve|client> \
     [<file>] [options] (run 'chasectl help' for details)"
        .to_string()
}

fn usage() -> String {
    format!(
        "usage: chasectl <classify|chase|oblivious|decide|profile|dot|suite|stats|serve|client> \
     [<file>] [options]\n\
     options: --steps N     --strategy {STRATEGY_NAMES}   --semi\n\
     \u{20}        --seed N      RNG seed for --strategy random (default {DEFAULT_RANDOM_SEED:#X})\n\
     \u{20}        --trace F     write one JSON event per line to F (chase|oblivious|decide|profile)\n\
     \u{20}        --metrics     print counter/phase table (chase|oblivious|decide|suite)\n\
     \u{20}        --profile     include the span/memory profiling stream (chase|oblivious|decide)\n\
     \u{20}        --deadline-ms N  wall-clock deadline (chase|oblivious|decide)\n\
     \u{20}        --cancel-after N cancel after N chase steps (chase|oblivious)\n\
     profile: --runs N --heartbeat-every N --sample-every N --json F --folded F\n\
     \u{20}        --max-overhead PCT (spans are 1-in-64 sampled by default; --sample-every 1 = exhaustive)\n\
     \u{20}        (plus --steps/--strategy/--seed/--trace; --oblivious [--semi] switches engine,\n\
     \u{20}        which checks but ignores --strategy)\n\
     stats:   <path>... (files or directories of .jsonl traces, merged)\n\
     \u{20}        --follow      tail one growing trace live, printing heartbeats\n\
     \u{20}        --idle-exit-ms N  with --follow: exit after N ms without new events\n\
     serve:   --socket unix:PATH|tcp:HOST:PORT  (required)\n\
     \u{20}        --runners N --tenant-queue-cap N --global-queue-cap N --retry-after-ms N\n\
     client:  <endpoint> ping|shutdown|cancel|chase|decide [<file>]\n\
     \u{20}        cancel: --id S;  chase/decide: --id S --tenant S --deadline-ms N\n\
     \u{20}        --telemetry (relay event lines) --retries N (overload backoff)\n\
     \u{20}        chase also: --strategy --seed --steps --max-atoms (the server resolves\n\
     \u{20}        --strategy/--seed like chase: same names, same default seed)\n\
     exit codes: 0 ok, 1 runtime error, 2 usage error, 3 budget exhausted,\n\
     \u{20}           4 deadline exceeded, 5 cancelled, 6 server overloaded"
    )
}

/// Rejects any `--flag` not in the command's vocabulary, and any flag
/// given twice, so a typo fails fast (exit code 2) instead of being
/// silently ignored or overridden. `value_flags` consume the following
/// argument, which must be there and must not be another flag;
/// `switch_flags` stand alone. Returns every other argument, in order:
/// the operands, for the command to count (see [`at_most`]).
fn check_flags<'a>(
    args: &'a [String],
    value_flags: &[&str],
    switch_flags: &[&str],
) -> Result<Vec<&'a str>, CliError> {
    let mut seen: Vec<&str> = Vec::new();
    let mut operands = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if !arg.starts_with("--") {
            operands.push(arg);
            i += 1;
            continue;
        }
        if value_flags.contains(&arg) {
            value_at(args, i, arg)?;
            i += 2;
        } else if switch_flags.contains(&arg) {
            i += 1;
        } else {
            return Err(CliError::Usage(format!("unknown option '{arg}'")));
        }
        if seen.contains(&arg) {
            return Err(CliError::Usage(format!("option '{arg}' given twice")));
        }
        seen.push(arg);
    }
    Ok(operands)
}

/// Rejects the operands past the first `max` of `command`'s.
fn at_most(operands: &[&str], max: usize, command: &str) -> Result<(), CliError> {
    match operands.get(max) {
        Some(extra) => Err(CliError::Usage(format!(
            "{command}: unexpected operand '{extra}'"
        ))),
        None => Ok(()),
    }
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage("missing command".into()));
    };
    match command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        "suite" => {
            let operands = check_flags(&args[1..], &[], &["--metrics"])?;
            at_most(&operands, 0, command)?;
            cmd_suite(args.iter().any(|a| a == "--metrics"))?;
            Ok(ExitCode::SUCCESS)
        }
        "serve" => serve::cmd_serve(&args[1..]),
        "client" => serve::cmd_client(&args[1..]),
        "stats" => {
            let paths = check_flags(&args[1..], &["--idle-exit-ms"], &["--follow"])?;
            let follow = args.iter().any(|a| a == "--follow");
            let idle_exit_ms = num_flag(args, "--idle-exit-ms")?;
            if idle_exit_ms.is_some() && !follow {
                return Err(CliError::Usage(
                    "--idle-exit-ms only makes sense with --follow".into(),
                ));
            }
            if paths.is_empty() {
                return Err(CliError::Usage(
                    "stats requires at least one <trace.jsonl> file or directory".into(),
                ));
            }
            if follow {
                let [path] = paths.as_slice() else {
                    return Err(CliError::Usage(
                        "stats --follow takes exactly one trace file".into(),
                    ));
                };
                stats::cmd_stats_follow(path, idle_exit_ms)?;
            } else {
                stats::cmd_stats(&paths)?;
            }
            Ok(ExitCode::SUCCESS)
        }
        "classify" | "chase" | "oblivious" | "decide" | "profile" | "dot" => {
            let rest = &args[1..];
            let operands = match command.as_str() {
                "classify" => check_flags(rest, &[], &[])?,
                "chase" => check_flags(
                    rest,
                    &[
                        "--steps",
                        "--strategy",
                        "--seed",
                        "--trace",
                        "--deadline-ms",
                        "--cancel-after",
                    ],
                    &["--metrics", "--profile"],
                )?,
                "oblivious" => check_flags(
                    rest,
                    &["--steps", "--trace", "--deadline-ms", "--cancel-after"],
                    &["--semi", "--metrics", "--profile"],
                )?,
                "decide" => check_flags(
                    rest,
                    &["--trace", "--deadline-ms"],
                    &["--metrics", "--profile"],
                )?,
                "profile" => check_flags(
                    rest,
                    &[
                        "--steps",
                        "--strategy",
                        "--seed",
                        "--runs",
                        "--heartbeat-every",
                        "--sample-every",
                        "--json",
                        "--folded",
                        "--trace",
                        "--max-overhead",
                    ],
                    &["--oblivious", "--semi"],
                )?,
                "dot" => check_flags(rest, &["--steps"], &[])?,
                _ => unreachable!(),
            };
            at_most(&operands, 1, command)?;
            let path = operands
                .first()
                .ok_or_else(|| CliError::Usage(format!("{command} requires a rule <file>")))?;
            let src =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            // One compile() call replaces the parse → vocab → tgd_set
            // boilerplate; the same bundle the server caches.
            let compiled = compile(&src).map_err(|e| e.to_string())?;
            let (set, vocab) = (compiled.tgd_set(), compiled.vocab());
            let steps_flag = num_flag(args, "--steps")?;
            let steps = steps_flag.unwrap_or(10_000);
            match command.as_str() {
                "classify" => {
                    cmd_classify(set, vocab);
                    Ok(ExitCode::SUCCESS)
                }
                "chase" | "oblivious" => {
                    let engine = (command == "oblivious").then(|| oblivious_engine(args));
                    let variant = variant_from_flags(args, engine)?;
                    if flag_value(args, "--seed")?.is_some()
                        && !matches!(variant, ChaseVariant::Restricted(Strategy::Random(_)))
                    {
                        eprintln!("chasectl: note: --seed only affects --strategy random");
                    }
                    let gov = governor_from_flags(args, steps)?;
                    let mut telemetry = CliTelemetry::from_args(args)?;
                    let outcome = cmd_chase(
                        compiled.database(),
                        set,
                        vocab,
                        variant,
                        &gov,
                        &mut telemetry,
                    )?;
                    telemetry.finish(true)?;
                    Ok(ExitCode::from(outcome_exit(outcome)))
                }
                "decide" => {
                    let config = DeciderConfig {
                        deadline: deadline_from_flags(args)?,
                        ..DeciderConfig::default()
                    };
                    let mut telemetry = CliTelemetry::from_args(args)?;
                    let verdict = cmd_decide(set, vocab, &config, &mut telemetry);
                    // `explain` already embedded the metrics table.
                    telemetry.finish(false)?;
                    Ok(ExitCode::from(verdict_exit(&verdict)))
                }
                "profile" => {
                    let oblivious = args.iter().any(|a| a == "--oblivious");
                    if args.iter().any(|a| a == "--semi") && !oblivious {
                        return Err(CliError::Usage(
                            "--semi requires --oblivious (the restricted chase has no \
                             semi-oblivious variant)"
                                .into(),
                        ));
                    }
                    let variant =
                        variant_from_flags(args, oblivious.then(|| oblivious_engine(args)))?;
                    let defaults = profile::ProfileOptions::default();
                    let opts = profile::ProfileOptions {
                        steps,
                        variant,
                        runs: num_flag(args, "--runs")?.unwrap_or(defaults.runs),
                        heartbeat_every: num_flag(args, "--heartbeat-every")?
                            .unwrap_or(defaults.heartbeat_every),
                        sample_every: num_flag(args, "--sample-every")?,
                        json: flag_value(args, "--json")?,
                        folded: flag_value(args, "--folded")?,
                        trace: flag_value(args, "--trace")?,
                        max_overhead_pct: num_flag(args, "--max-overhead")?,
                    };
                    profile::cmd_profile(compiled.database(), set, vocab, &opts)?;
                    Ok(ExitCode::SUCCESS)
                }
                "dot" => {
                    cmd_dot(compiled.database(), set, vocab, steps_flag)?;
                    Ok(ExitCode::SUCCESS)
                }
                _ => unreachable!(),
            }
        }
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    }
}

/// Looks up `flag`'s value. A flag present without a following value
/// is an error, not a silent fallback to the default; so is one
/// followed by another flag (`--trace --metrics` names no file).
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, CliError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => value_at(args, i, flag).map(|v| Some(v.clone())),
    }
}

/// Parses `flag`'s numeric value, if the flag is present.
fn num_flag<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, CliError>
where
    T::Err: Display,
{
    flag_value(args, flag)?
        .map(|s| {
            s.parse::<T>()
                .map_err(|e| CliError::Usage(format!("invalid {flag} '{s}': {e}")))
        })
        .transpose()
}

/// The value following the flag at `args[i]`.
fn value_at<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a String, CliError> {
    args.get(i + 1)
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))
}

/// The engine `chasectl oblivious` and `profile --oblivious` name:
/// the semi-oblivious chase with `--semi`.
fn oblivious_engine(args: &[String]) -> &'static str {
    if args.iter().any(|a| a == "--semi") {
        "semi"
    } else {
        "oblivious"
    }
}

/// Resolves `engine` plus the `--strategy`/`--seed` flags through
/// [`ChaseVariant::parse`], the parser the server uses too.
fn variant_from_flags(args: &[String], engine: Option<&str>) -> Result<ChaseVariant, CliError> {
    let seed = match flag_value(args, "--seed")? {
        Some(s) => Some(parse_seed(&s)?),
        None => None,
    };
    ChaseVariant::parse(engine, flag_value(args, "--strategy")?.as_deref(), seed)
        .map_err(CliError::Usage)
}

/// Parses a `--seed` value, accepting decimal or `0x`-prefixed hex.
fn parse_seed(s: &str) -> Result<u64, CliError> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse::<u64>(),
    };
    parsed.map_err(|e| CliError::Usage(format!("invalid --seed '{s}': {e}")))
}

/// Parses `--deadline-ms` into a [`Duration`], if present.
fn deadline_from_flags(args: &[String]) -> Result<Option<Duration>, CliError> {
    Ok(num_flag(args, "--deadline-ms")?.map(Duration::from_millis))
}

/// Builds the chase governor from `--deadline-ms` / `--cancel-after`
/// plus the step budget. `--cancel-after` rides on the deterministic
/// fault plan: it trips the governor's own cancellation token at the
/// requested step, exactly as an external canceller would.
fn governor_from_flags(args: &[String], steps: usize) -> Result<ResourceGovernor, CliError> {
    let mut gov = ResourceGovernor::from_budget(Budget::steps(steps));
    if let Some(deadline) = deadline_from_flags(args)? {
        gov = gov.with_deadline_in(deadline);
    }
    if let Some(after) = num_flag(args, "--cancel-after")? {
        gov = gov.with_faults(FaultPlan {
            cancel_at_step: Some(after),
            ..FaultPlan::default()
        });
    }
    Ok(gov)
}

/// Human-readable label for a chase outcome: its name, with spaces.
fn outcome_label(outcome: Outcome) -> String {
    outcome.name().replace('_', " ")
}

/// The exit code a chase outcome maps to (module-header table).
fn outcome_exit(outcome: Outcome) -> u8 {
    match outcome {
        Outcome::Terminated => 0,
        Outcome::BudgetExhausted => EXIT_BUDGET,
        Outcome::DeadlineExceeded => EXIT_DEADLINE,
        Outcome::Cancelled => EXIT_CANCELLED,
    }
}

/// The exit code a decider verdict maps to (see [`unknown_exit`]).
fn verdict_exit(verdict: &TerminationVerdict) -> u8 {
    match verdict {
        TerminationVerdict::Unknown { reason } => unknown_exit(reason),
        _ => 0,
    }
}

/// The exit code of an `Unknown` verdict with this reason, direct or
/// served: a deadline or a cancellation gets the same code as an
/// interrupted chase; any other honest `Unknown` is success.
fn unknown_exit(reason: &str) -> u8 {
    if reason.starts_with("deadline exceeded") {
        EXIT_DEADLINE
    } else if reason.starts_with("cancelled") {
        EXIT_CANCELLED
    } else {
        0
    }
}

/// The telemetry sinks requested on the command line: an optional
/// `--trace <file.jsonl>` JSON Lines stream and an optional
/// `--metrics` counter aggregation. Implements [`ChaseObserver`] by
/// fanning each event out to whichever sinks are present; with
/// neither flag it reports `enabled() == false` and the engines skip
/// event construction entirely. `--profile` additionally opts the
/// sinks into the engines' profiling stream (spans, memory samples,
/// heartbeats).
struct CliTelemetry {
    trace: Option<(String, JsonlWriter<BufWriter<File>>)>,
    metrics: Option<CountingObserver>,
    profiling: bool,
}

impl CliTelemetry {
    fn from_args(args: &[String]) -> Result<Self, CliError> {
        let trace = match flag_value(args, "--trace")? {
            Some(path) => {
                let file = File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
                Some((path, JsonlWriter::new(BufWriter::new(file))))
            }
            None => None,
        };
        let metrics = args
            .iter()
            .any(|a| a == "--metrics")
            .then(CountingObserver::new);
        let profiling = args.iter().any(|a| a == "--profile");
        if profiling && trace.is_none() && metrics.is_none() {
            eprintln!(
                "chasectl: note: --profile has no visible effect without --trace or --metrics"
            );
        }
        Ok(CliTelemetry {
            trace,
            metrics,
            profiling,
        })
    }

    /// The metrics aggregation so far, if `--metrics` was given.
    fn summary(&self) -> Option<TelemetrySummary> {
        self.metrics.as_ref().map(CountingObserver::summary)
    }

    /// Closes the trace file and, when `print_metrics`, renders the
    /// `--metrics` table to stdout. Dropped trace events (sink write
    /// failures) are a warning, not an error — the run they observed
    /// completed fine; only a failing final flush is fatal.
    fn finish(self, print_metrics: bool) -> Result<(), CliError> {
        if let Some((path, writer)) = self.trace {
            let events = writer.events_written();
            let dropped = writer.io_errors();
            let first_error = writer.first_error().map(|e| e.to_string());
            writer
                .finish()
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("chasectl: trace: {events} event(s) written to {path}");
            if dropped > 0 {
                eprintln!(
                    "chasectl: trace: warning: {dropped} event(s) dropped ({})",
                    first_error.unwrap_or_else(|| "unknown write error".into())
                );
            }
        }
        if print_metrics {
            if let Some(metrics) = self.metrics {
                println!("telemetry:");
                print!("{}", metrics.summary().render_table());
            }
        }
        Ok(())
    }
}

impl ChaseObserver for CliTelemetry {
    fn enabled(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    fn profiling(&self) -> bool {
        self.profiling
    }

    fn on_event(&mut self, event: &Event) {
        if let Some((_, writer)) = self.trace.as_mut() {
            writer.on_event(event);
        }
        if let Some(metrics) = self.metrics.as_mut() {
            metrics.on_event(event);
        }
    }
}

fn cmd_classify(set: &chase_core::tgd::TgdSet, vocab: &Vocabulary) {
    let profile = ClassProfile::analyse(set, vocab);
    let mut tags = profile.tags();
    let budget = Budget::steps(DeciderConfig::default().chase_budget);
    let so = semi_oblivious_critical(set, &mut vocab.clone(), budget);
    if let CriterionOutcome::Holds { .. } = so {
        tags.push("so-critical-terminating");
    }
    println!("rules: {}", set.len());
    println!(
        "schema: {} predicates, max arity {}",
        set.schema_preds().len(),
        set.max_arity()
    );
    println!("profile: {}", render_tags(&tags));
    println!(
        "decidable fragment (single-head guarded or sticky): {}",
        profile.in_decidable_fragment()
    );
}

fn cmd_chase(
    db: &chase_core::instance::Instance,
    set: &chase_core::tgd::TgdSet,
    vocab: &Vocabulary,
    variant: ChaseVariant,
    gov: &ResourceGovernor,
    telemetry: &mut CliTelemetry,
) -> Result<Outcome, String> {
    let run = time_phase(telemetry, "chase", |obs| {
        RestrictedChase::new(set)
            .variant(variant)
            .run_governed(db, gov, obs, None)
    });
    let name = match variant {
        ChaseVariant::Restricted(strategy) => format!("restricted chase ({strategy:?})"),
        ChaseVariant::Oblivious => "oblivious chase".to_string(),
        ChaseVariant::SemiOblivious => "semi-oblivious chase".to_string(),
    };
    println!(
        "{name}: {} after {} steps, {} atoms",
        outcome_label(run.outcome),
        run.steps,
        run.instance.len()
    );
    if run.instance.len() <= 50 {
        println!("{}", run.instance.display(vocab));
    }
    Ok(run.outcome)
}

fn cmd_decide(
    set: &chase_core::tgd::TgdSet,
    vocab: &Vocabulary,
    config: &DeciderConfig,
    telemetry: &mut CliTelemetry,
) -> TerminationVerdict {
    let verdict = decide_observed(set, vocab, config, telemetry);
    let profile = ClassProfile::analyse(set, vocab);
    let summary = telemetry.summary();
    print!(
        "{}",
        explain(&verdict, set, vocab, Some(&profile), summary.as_ref())
    );
    verdict
}

fn cmd_dot(
    db: &chase_core::instance::Instance,
    set: &chase_core::tgd::TgdSet,
    vocab: &Vocabulary,
    steps_flag: Option<usize>,
) -> Result<(), String> {
    // An explicit --steps is honoured verbatim; only the default
    // budget is capped (graph output for huge derivations is rarely
    // what anyone wants by accident).
    let steps = match steps_flag {
        Some(explicit) => explicit,
        None => {
            eprintln!(
                "chasectl dot: no --steps given; capping the derivation at {DEFAULT_DOT_STEPS} \
                 steps (pass --steps N to override)"
            );
            DEFAULT_DOT_STEPS
        }
    };
    let run = RestrictedChase::new(set)
        .strategy(Strategy::Fifo)
        .run(db, Budget::steps(steps));
    print!(
        "{}",
        chase_engine::dot::derivation_to_dot(&run.derivation(set), set, vocab)
    );
    Ok(())
}

fn cmd_suite(metrics: bool) -> Result<(), String> {
    let run = run_labelled_suite(&DeciderConfig::default());
    println!(
        "{:<34} {:>15} {:>16} {:>5} {:>10}",
        "entry", "expected", "verdict", "agree", "decide-in"
    );
    for entry in &run.entries {
        println!(
            "{:<34} {:>15} {:>16} {:>5} {:>10}",
            entry.name,
            entry.expected_label(),
            entry.verdict_label(),
            if entry.agrees() { "yes" } else { "NO" },
            format_nanos(entry.nanos)
        );
        if metrics {
            for (phase, nanos) in &entry.telemetry.phases {
                println!("    {:<30} {:>10}", phase, format_nanos(*nanos));
            }
        }
    }
    println!(
        "---\n{}/{} correct in {}",
        run.correct(),
        run.total(),
        format_nanos(run.total_nanos())
    );
    if metrics {
        println!("aggregate telemetry:");
        print!("{}", run.aggregate_telemetry().render_table());
    }
    if run.correct() == run.total() {
        Ok(())
    } else {
        Err("suite disagreement".into())
    }
}

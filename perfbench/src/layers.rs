//! The traced in-process replay: the same requests the server saw, run
//! through each layer's public functions in the order the server calls
//! them (admission `ProgramCache::resolve_source`, `decider_class`, the
//! `DecideCache`, then `decide` or `run_chase_task`), timed from here.
//!
//! Two passes over the same requests:
//! * the *plain* pass calls every layer without an observer and times
//!   each call, giving per-call costs and a per-request layer time;
//! * the *observed* pass runs deciders and chases under the existing
//!   `SpanObserver` + `CountingObserver` pair, giving decider phase
//!   times, engine spans and counters.

use std::sync::Arc;
use std::time::Instant;

use chase_core::compile::{compile, CompiledProgram};
use chase_engine::governor::Budget;
use chase_engine::task::{run_chase_task, ChaseTaskSpec};
use chase_server::cache::{DecideCache, ProgramCache, Resolution};
use chase_server::scheduler::RunnerCtx;
use chase_server::server::ServerConfig;
use chase_telemetry::observer::Tee;
use chase_telemetry::{ChaseObserver, CountingObserver, NullObserver, SpanObserver};
use chase_termination::{decide, decide_observed, decider_class, DeciderConfig};

use crate::workload::{Op, Request, Stream, MAX_STEPS};

/// Tenant the benchmark's requests run under (the protocol default).
const TENANT: &str = "default";

/// Summed nanoseconds and call count of one timed layer call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Total nanoseconds.
    pub nanos: u64,
    /// Calls made.
    pub calls: u64,
}

impl Timed {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, u64) {
        let started = Instant::now();
        let out = f();
        let nanos = started.elapsed().as_nanos() as u64;
        self.nanos += nanos;
        self.calls += 1;
        (out, nanos)
    }

    /// Mean microseconds per call (0 without calls).
    pub fn us_per_call(&self) -> f64 {
        ratio(self.nanos as f64 / 1e3, self.calls as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The server's caches, sized as `ServerConfig::default()` sizes them.
struct Caches {
    programs: ProgramCache,
    decide: DecideCache,
}

impl Caches {
    fn new() -> Self {
        let config = ServerConfig::default().cache;
        Caches {
            programs: ProgramCache::new(config.programs),
            decide: DecideCache::new(config.decide_entries),
        }
    }
}

fn chase_spec(program: &Arc<CompiledProgram>) -> ChaseTaskSpec {
    ChaseTaskSpec {
        budget: Budget::steps(MAX_STEPS as usize),
        ..ChaseTaskSpec::compiled(Arc::clone(program))
    }
}

/// Results of the plain pass.
#[derive(Debug, Default)]
pub struct Plain {
    /// Layer microseconds of each replayed request (resolve + classify +
    /// decide cache + decide or chase), in stream order.
    pub layer_us: Vec<f64>,
    /// `ProgramCache::resolve_source`.
    pub resolve: Timed,
    /// `compile`, re-run on every program-cache miss.
    pub compile: Timed,
    /// Source bytes of the compiled programs.
    pub compile_bytes: u64,
    /// `decider_class`.
    pub classify: Timed,
    /// `decide` on decide-cache misses.
    pub decide: Timed,
    /// `run_chase_task` on chase requests.
    pub chase: Timed,
}

/// The per-layer time of one request on the unobserved path.
fn replay_plain(
    caches: &Caches,
    runner: &mut RunnerCtx,
    request: &Request,
    out: &mut Plain,
) -> Result<f64, String> {
    let (resolved, mut nanos) = out
        .resolve
        .time(|| caches.programs.resolve_source(&request.source, TENANT));
    let resolved = resolved.map_err(|e| format!("{}: {e}", request.family))?;
    if resolved.resolution == Resolution::Compiled {
        let (compiled, _) = out.compile.time(|| compile(&request.source));
        compiled.map_err(|e| format!("{}: {e}", request.family))?;
        out.compile_bytes += request.source.len() as u64;
    }
    let program = resolved.program;
    match request.op {
        Op::Decide => {
            let (class, n) = out.classify.time(|| decider_class(program.tgd_set()));
            nanos += n;
            let started = Instant::now();
            let hit = caches.decide.get(program.fingerprint(), class);
            nanos += started.elapsed().as_nanos() as u64;
            if hit.is_none() {
                let (verdict, n) = out.decide.time(|| {
                    decide(
                        program.tgd_set(),
                        program.vocab(),
                        &DeciderConfig::default(),
                    )
                });
                let started = Instant::now();
                caches.decide.insert(program.fingerprint(), class, &verdict);
                nanos += n + started.elapsed().as_nanos() as u64;
            }
        }
        Op::Chase => {
            let spec = chase_spec(&program);
            let pool = runner.pool_for(None);
            let (run, n) = out
                .chase
                .time(|| run_chase_task(&spec, &mut NullObserver, Some(pool)));
            run.map_err(|e| format!("{}: {e}", request.family))?;
            nanos += n;
        }
    }
    Ok(nanos as f64 / 1e3)
}

/// Replays the warm-up and then stream indices `0..count` through the
/// layers without observers.
pub fn plain(stream: &Stream, count: u64) -> Result<Plain, String> {
    let caches = Caches::new();
    let mut runner = RunnerCtx::default();
    let mut scratch = Plain::default();
    for request in stream.warmup() {
        replay_plain(&caches, &mut runner, &request, &mut scratch)?;
    }
    let mut out = Plain::default();
    for index in 0..count {
        let us = replay_plain(&caches, &mut runner, &stream.request(index), &mut out)?;
        out.layer_us.push(us);
    }
    Ok(out)
}

/// Results of the observed pass.
#[derive(Debug)]
pub struct Observed {
    /// Decider runs (decide-cache misses).
    pub decides: u64,
    /// Span aggregate over every decider and chase run.
    pub spans: SpanObserver,
    /// Counter and phase aggregate over the same runs.
    pub counting: CountingObserver,
}

/// Replays the warm-up and then stream indices `0..count`, running each
/// decider and chase under `SpanObserver` + `CountingObserver`.
pub fn observed(stream: &Stream, count: u64) -> Result<Observed, String> {
    let caches = Caches::new();
    let mut runner = RunnerCtx::default();
    let mut out = Observed {
        decides: 0,
        spans: SpanObserver::new(),
        counting: CountingObserver::new(),
    };
    // The warm-up fills the caches with observers off.
    for request in stream.warmup() {
        replay_observed(&caches, &mut runner, &request, &mut NullObserver)?;
    }
    for index in 0..count {
        let request = stream.request(index);
        let mut tee = Tee::new(&mut out.spans, &mut out.counting);
        if replay_observed(&caches, &mut runner, &request, &mut tee)? {
            out.decides += 1;
        }
    }
    Ok(out)
}

/// Runs one request's decider or chase under `obs`; `true` when a
/// decider ran.
fn replay_observed<O: ChaseObserver>(
    caches: &Caches,
    runner: &mut RunnerCtx,
    request: &Request,
    obs: &mut O,
) -> Result<bool, String> {
    let program = caches
        .programs
        .resolve_source(&request.source, TENANT)
        .map_err(|e| format!("{}: {e}", request.family))?
        .program;
    match request.op {
        Op::Decide => {
            let class = decider_class(program.tgd_set());
            if caches.decide.get(program.fingerprint(), class).is_some() {
                return Ok(false);
            }
            let verdict = decide_observed(
                program.tgd_set(),
                program.vocab(),
                &DeciderConfig::default(),
                obs,
            );
            caches.decide.insert(program.fingerprint(), class, &verdict);
            Ok(true)
        }
        Op::Chase => {
            run_chase_task(&chase_spec(&program), obs, Some(runner.pool_for(None)))
                .map_err(|e| format!("{}: {e}", request.family))?;
            Ok(false)
        }
    }
}

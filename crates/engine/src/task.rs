//! Task-ified chase runs: one self-contained, panic-contained unit of
//! work per request.
//!
//! The interactive entry points ([`RestrictedChase::run_governed_observed`],
//! [`ObliviousChase::run_governed_observed`]) borrow a pre-parsed TGD
//! set and let panics unwind to the caller — the right shape for a CLI
//! process that dies with the run. A resident server needs the
//! opposite: an **owned** description of the whole job
//! ([`ChaseTaskSpec`], `Send` by construction, so it can hop onto a
//! scheduler thread), compilation included, and a hard containment
//! boundary so one poisoned session cannot take the process down.
//! [`run_chase_task`] is that boundary: it compiles (unless handed a
//! pre-compiled [`ProgramInput::Compiled`] bundle), builds the engine,
//! runs it under the spec's governor, and converts any panic — real or
//! injected via [`FaultPlan::task_panic_at_step`] — into
//! [`TaskError::Panicked`].
//!
//! Scratch sharing: a caller that runs many tasks (the chase server's
//! session runners) passes `Some(&mut scratch)` to reuse one warm
//! [`ChaseScratch`] across runs. The scratch carries no run-scoped
//! state, so results are bit-identical to fresh-scratch runs, which is
//! what the server's isolation suite asserts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use chase_core::cancel::CancelToken;
use chase_core::compile::{compile, CompiledProgram};
use chase_core::instance::Instance;
use chase_core::tgd::TgdSet;
use chase_core::vocab::Vocabulary;
use chase_telemetry::ChaseObserver;

use crate::faults::{silence_injected_panics, FaultPlan, InjectedPanic};
use crate::governor::{Budget, Outcome, ResourceGovernor};
use crate::oblivious::ObliviousChase;
use crate::restricted::{RestrictedChase, Strategy};
use crate::trigger::ChaseScratch;

/// Which chase procedure a task runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskEngine {
    /// The restricted (standard) chase under `strategy`.
    Restricted {
        /// Trigger-selection strategy for the run.
        strategy: Strategy,
    },
    /// The (semi-)oblivious chase.
    Oblivious {
        /// `true` for per-frontier Skolemisation (semi-oblivious).
        semi: bool,
    },
}

/// What a task runs: raw source (compiled inside the containment
/// boundary) or an already-compiled, `Arc`-shared program.
///
/// Raw source keeps the original contract — parse errors and parse
/// panics are contained per task, which is what one-shot callers want.
/// A [`CompiledProgram`] skips compilation entirely: the server's
/// program cache compiles once at admission and every session sharing
/// the rule set starts from the same immutable bundle. Results are
/// bit-identical either way ([`TaskOutput::fingerprint`] proves it in
/// the test suite).
#[derive(Debug, Clone)]
pub enum ProgramInput {
    /// Program text (database facts + TGDs) in the `chasectl` surface
    /// syntax; compiled inside the task so parse panics are contained
    /// too.
    Source(String),
    /// A pre-compiled program; the task clones nothing but the `Arc`.
    Compiled(Arc<CompiledProgram>),
}

/// An owned, `Send` description of one chase run: program (source or
/// compiled) plus everything needed to execute and stop it. Cloning is
/// cheap relative to a run; the spec is immutable once built.
#[derive(Debug, Clone)]
pub struct ChaseTaskSpec {
    /// The program to run.
    pub program: ProgramInput,
    /// Which engine to run.
    pub engine: TaskEngine,
    /// Step/atom budget.
    pub budget: Budget,
    /// Wall-clock deadline, measured from the moment the task starts
    /// (not from when it was enqueued).
    pub deadline: Option<Duration>,
    /// Deterministic fault plan (tests and the server's isolation
    /// suite).
    pub faults: FaultPlan,
    /// Cooperative cancellation; the caller keeps a clone.
    pub cancel: CancelToken,
}

impl ChaseTaskSpec {
    /// A restricted-chase task over `source` with defaults everywhere
    /// else (FIFO, unbounded budget, no deadline).
    pub fn restricted(source: impl Into<String>) -> Self {
        ChaseTaskSpec {
            program: ProgramInput::Source(source.into()),
            engine: TaskEngine::Restricted {
                strategy: Strategy::Fifo,
            },
            budget: Budget::unbounded(),
            deadline: None,
            faults: FaultPlan::none(),
            cancel: CancelToken::new(),
        }
    }

    /// A restricted-chase task over a pre-compiled program, defaults
    /// everywhere else; the task shares the `Arc` instead of parsing.
    pub fn compiled(program: Arc<CompiledProgram>) -> Self {
        ChaseTaskSpec {
            program: ProgramInput::Compiled(program),
            engine: TaskEngine::Restricted {
                strategy: Strategy::Fifo,
            },
            budget: Budget::unbounded(),
            deadline: None,
            faults: FaultPlan::none(),
            cancel: CancelToken::new(),
        }
    }

    /// The governor this spec describes (deadline anchored now).
    pub fn governor(&self) -> ResourceGovernor {
        let gov = ResourceGovernor::from_budget(self.budget)
            .with_cancel(self.cancel.clone())
            .with_faults(self.faults);
        match self.deadline {
            Some(timeout) => gov.with_deadline_in(timeout),
            None => gov,
        }
    }
}

/// How a chase task failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The program source did not parse or translate; the message is
    /// the parser's diagnostic.
    Parse(String),
    /// The run panicked (a real bug, or an injected
    /// [`FaultPlan::task_panic_at_step`]); contained here, the process
    /// survives.
    Panicked(String),
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Parse(msg) => write!(f, "parse error: {msg}"),
            TaskError::Panicked(msg) => write!(f, "task panicked: {msg}"),
        }
    }
}

impl std::error::Error for TaskError {}

/// The truthful result of a finished chase task.
#[derive(Debug, Clone)]
pub struct TaskOutput {
    /// How the run ended.
    pub outcome: Outcome,
    /// Trigger applications performed.
    pub steps: usize,
    /// The (possibly partial) result instance.
    pub instance: Instance,
    /// The vocabulary the instance's symbols live in.
    pub vocab: Vocabulary,
}

impl TaskOutput {
    /// Atoms in the result instance.
    pub fn atoms(&self) -> usize {
        self.instance.len()
    }

    /// A deterministic fingerprint of the run's observable result:
    /// outcome, step count and the canonical (sorted) rendering of the
    /// instance. Two runs of the same spec are bit-identical iff their
    /// fingerprints match — the server's isolation suite compares
    /// in-server fingerprints against direct [`run_chase_task`] runs.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = chase_core::ids::FxHasher::default();
        h.write(self.instance.display(&self.vocab).as_bytes());
        h.write_usize(self.steps);
        h.write_u8(match self.outcome {
            Outcome::Terminated => 0,
            Outcome::BudgetExhausted => 1,
            Outcome::DeadlineExceeded => 2,
            Outcome::Cancelled => 3,
        });
        h.finish()
    }
}

/// Renders a panic payload for [`TaskError::Panicked`].
fn describe_panic(payload: Box<dyn std::any::Any + Send>) -> String {
    if payload.downcast_ref::<InjectedPanic>().is_some() {
        return "injected task panic".to_string();
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    "opaque panic payload".to_string()
}

/// Runs one chase task to completion behind a `catch_unwind` boundary.
///
/// Parsing, engine construction and the run itself all happen inside
/// the boundary: any panic (including an injected
/// [`FaultPlan::task_panic_at_step`]) becomes
/// [`TaskError::Panicked`] instead of unwinding into the caller's
/// scheduler. The injected-panic silencing hook is installed up front
/// so contained panics do not spam stderr.
///
/// `scratch`: `Some` to reuse a caller-owned [`ChaseScratch`]; `None`
/// runs with a fresh one, identical behaviour either way.
///
/// The observer sees exactly the event stream a direct
/// `run_governed_observed` call would produce; on panic it may have
/// seen a prefix of that stream, which is truthful — those events did
/// happen.
pub fn run_chase_task<O: ChaseObserver + ?Sized>(
    spec: &ChaseTaskSpec,
    obs: &mut O,
    scratch: Option<&mut ChaseScratch>,
) -> Result<TaskOutput, TaskError> {
    silence_injected_panics();
    let result = catch_unwind(AssertUnwindSafe(|| run_task_inner(spec, obs, scratch)));
    match result {
        Ok(inner) => inner,
        Err(payload) => Err(TaskError::Panicked(describe_panic(payload))),
    }
}

fn run_task_inner<O: ChaseObserver + ?Sized>(
    spec: &ChaseTaskSpec,
    obs: &mut O,
    scratch: Option<&mut ChaseScratch>,
) -> Result<TaskOutput, TaskError> {
    // Source input compiles here, inside the containment boundary;
    // compiled input is consumed by reference so a cache-hit session
    // does zero re-parse/re-plan work.
    match &spec.program {
        ProgramInput::Source(source) => {
            let compiled = compile(source).map_err(|e| TaskError::Parse(e.to_string()))?;
            run_task_on(spec, &compiled, obs, scratch)
        }
        ProgramInput::Compiled(compiled) => run_task_on(spec, compiled, obs, scratch),
    }
}

fn run_task_on<O: ChaseObserver + ?Sized>(
    spec: &ChaseTaskSpec,
    program: &CompiledProgram,
    obs: &mut O,
    scratch: Option<&mut ChaseScratch>,
) -> Result<TaskOutput, TaskError> {
    let set: &TgdSet = program.tgd_set();
    let gov = spec.governor();
    let mut fresh = ChaseScratch::default();
    let scratch = scratch.unwrap_or(&mut fresh);
    let (outcome, steps, instance) = match spec.engine {
        TaskEngine::Restricted { strategy } => {
            let engine = RestrictedChase::new(set).strategy(strategy);
            let run = engine.run_governed_observed_in(program.database(), &gov, obs, scratch);
            (run.outcome, run.steps, run.instance)
        }
        TaskEngine::Oblivious { semi } => {
            let engine = if semi {
                ObliviousChase::new(set).semi_oblivious()
            } else {
                ObliviousChase::new(set)
            };
            let run = engine.run_governed_observed_in(program.database(), &gov, obs, scratch);
            (run.outcome, run.steps, run.instance)
        }
    };
    Ok(TaskOutput {
        outcome,
        steps,
        instance,
        vocab: program.vocab().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_telemetry::NullObserver;

    const FINITE: &str = "R(a,b).\nR(x,y) -> S(x).\n";
    const INFINITE: &str = "R(a,b).\nR(x,y) -> exists z. R(y,z).\n";

    #[test]
    fn finite_task_terminates() {
        let spec = ChaseTaskSpec::restricted(FINITE);
        let out = run_chase_task(&spec, &mut NullObserver, None).unwrap();
        assert_eq!(out.outcome, Outcome::Terminated);
        assert_eq!(out.steps, 1);
        assert_eq!(out.atoms(), 2);
    }

    #[test]
    fn parse_errors_are_typed_not_panics() {
        let spec = ChaseTaskSpec::restricted("this is not a program");
        match run_chase_task(&spec, &mut NullObserver, None) {
            Err(TaskError::Parse(_)) => {}
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn injected_task_panic_is_contained() {
        let mut spec = ChaseTaskSpec::restricted(INFINITE);
        spec.budget = Budget::steps(100);
        spec.faults = FaultPlan {
            task_panic_at_step: Some(3),
            ..FaultPlan::default()
        };
        match run_chase_task(&spec, &mut NullObserver, None) {
            Err(TaskError::Panicked(msg)) => assert_eq!(msg, "injected task panic"),
            other => panic!("expected contained panic, got {other:?}"),
        }
    }

    #[test]
    fn fingerprints_are_reproducible_and_discriminating() {
        let spec = ChaseTaskSpec::restricted(FINITE);
        let a = run_chase_task(&spec, &mut NullObserver, None).unwrap();
        let b = run_chase_task(&spec, &mut NullObserver, None).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());

        let mut capped = ChaseTaskSpec::restricted(INFINITE);
        capped.budget = Budget::steps(5);
        let c = run_chase_task(&capped, &mut NullObserver, None).unwrap();
        assert_eq!(c.outcome, Outcome::BudgetExhausted);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn shared_scratch_runs_are_bit_identical_to_fresh_scratch_runs() {
        let mut spec = ChaseTaskSpec::restricted(INFINITE);
        spec.budget = Budget::steps(64);
        let fresh = run_chase_task(&spec, &mut NullObserver, None).unwrap();
        let mut scratch = ChaseScratch::default();
        for _ in 0..3 {
            let shared = run_chase_task(&spec, &mut NullObserver, Some(&mut scratch)).unwrap();
            assert_eq!(shared.fingerprint(), fresh.fingerprint());
        }
    }

    #[test]
    fn compiled_input_is_bit_identical_to_source_input() {
        for (source, cap) in [(FINITE, usize::MAX), (INFINITE, 40)] {
            let mut from_source = ChaseTaskSpec::restricted(source);
            from_source.budget = Budget::steps(cap);
            let cold = run_chase_task(&from_source, &mut NullObserver, None).unwrap();

            let program = compile(source).unwrap();
            let mut from_compiled = ChaseTaskSpec::compiled(Arc::clone(&program));
            from_compiled.budget = Budget::steps(cap);
            // Re-running the same Arc many times mirrors a cache-hit
            // session storm: every run must match the cold compile.
            for _ in 0..3 {
                let warm = run_chase_task(&from_compiled, &mut NullObserver, None).unwrap();
                assert_eq!(warm.fingerprint(), cold.fingerprint());
                assert_eq!(warm.steps, cold.steps);
            }
        }
    }

    #[test]
    fn oblivious_task_runs() {
        let mut spec = ChaseTaskSpec::restricted(FINITE);
        spec.engine = TaskEngine::Oblivious { semi: true };
        let out = run_chase_task(&spec, &mut NullObserver, None).unwrap();
        assert_eq!(out.outcome, Outcome::Terminated);
    }
}

//! Deterministic fault-injection suite (`cargo test -p chase-engine
//! faults`): every scripted fault — injected deadlines, cancellations,
//! flaky telemetry sinks, and arbitrary seeded
//! combinations — must yield a clean [`Outcome`], intact telemetry and
//! no poisoned state. All test functions are named `faults_*` so the
//! CI gate can select exactly this suite.

use proptest::prelude::*;

use chase_core::parser::parse_program;
use chase_core::vocab::Vocabulary;
use chase_engine::faults::{FaultPlan, FlakyWriter};
use chase_engine::governor::{Budget, Outcome, ResourceGovernor};
use chase_engine::restricted::{ChaseRun, RestrictedChase};
use chase_telemetry::{Event, JsonlWriter, RecordingObserver};

/// A non-terminating multi-TGD program: an infinite chase so injected
/// step-indexed faults always get a chance to fire.
const PROGRAM: &str = "\
    R(a,b).\n\
    R(x,y) -> exists z. R(y,z).\n\
    R(x,y) -> S(x,y).\n\
    S(x,y) -> exists w. T(y,w).\n\
    T(x,y) -> S(y,x).";

fn build(vocab: &mut Vocabulary) -> (chase_core::instance::Instance, chase_core::tgd::TgdSet) {
    let program = parse_program(PROGRAM, vocab).expect("test program parses");
    let set = program.tgd_set(vocab).expect("test program is a TGD set");
    (program.database, set)
}

/// Runs the restricted chase under `gov`, recording telemetry.
fn run_recorded(
    set: &chase_core::tgd::TgdSet,
    db: &chase_core::instance::Instance,
    gov: &ResourceGovernor,
) -> (ChaseRun, Vec<Event>) {
    let mut rec = RecordingObserver::default();
    let run = RestrictedChase::new(set).run_governed_observed(db, gov, &mut rec);
    (run, rec.events)
}

/// Bit-identity of two runs: outcome, step count, final instance and
/// the full recorded derivation.
fn assert_runs_identical(a: &ChaseRun, b: &ChaseRun) {
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.instance, b.instance);
    assert_eq!(format!("{:?}", a.derivation), format!("{:?}", b.derivation));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// An injected deadline at step `n` stops the run with
    /// `DeadlineExceeded` after exactly `n` applications, and the
    /// partial derivation replays to the partial instance.
    #[test]
    fn faults_injected_deadline_stops_cleanly(n in 0usize..30) {
        let mut vocab = Vocabulary::new();
        let (db, set) = build(&mut vocab);
        let gov = ResourceGovernor::new().with_faults(FaultPlan {
            deadline_at_step: Some(n),
            ..FaultPlan::default()
        });
        let run = RestrictedChase::new(&set).run_governed(&db, &gov);
        prop_assert_eq!(run.outcome, Outcome::DeadlineExceeded);
        prop_assert_eq!(run.steps, n);
        let replayed = run.derivation.validate(&db, &set, false)
            .map_err(|f| TestCaseError::fail(format!("replay: {f}")))?;
        prop_assert_eq!(replayed, run.instance);
    }

    /// An injected cancellation at step `n` stops the run with
    /// `Cancelled` after exactly `n` applications and trips the
    /// governor's shared token (visible to any external holder).
    #[test]
    fn faults_injected_cancel_stops_cleanly(n in 0usize..30) {
        let mut vocab = Vocabulary::new();
        let (db, set) = build(&mut vocab);
        let gov = ResourceGovernor::new().with_faults(FaultPlan {
            cancel_at_step: Some(n),
            ..FaultPlan::default()
        });
        let handle = gov.cancel_token().clone();
        let run = RestrictedChase::new(&set).run_governed(&db, &gov);
        prop_assert_eq!(run.outcome, Outcome::Cancelled);
        prop_assert_eq!(run.steps, n);
        prop_assert!(handle.is_cancelled());
        let replayed = run.derivation.validate(&db, &set, false)
            .map_err(|f| TestCaseError::fail(format!("replay: {f}")))?;
        prop_assert_eq!(replayed, run.instance);
    }

    /// A telemetry sink that starts failing after `k` writes degrades
    /// instead of erroring: the first `k` events land, the rest are
    /// dropped and counted, and closing the sink still succeeds.
    #[test]
    fn faults_flaky_sink_degrades_without_erroring(k in 0u64..12) {
        let mut vocab = Vocabulary::new();
        let (db, set) = build(&mut vocab);
        let (_, events) = run_recorded(&set, &db, &ResourceGovernor::from_budget(Budget::steps(8)));
        prop_assert!(events.len() as u64 > 12, "program must out-emit the quota");
        let mut sink = JsonlWriter::new(FlakyWriter::new(Vec::new(), k));
        for event in &events {
            chase_telemetry::ChaseObserver::on_event(&mut sink, event);
        }
        prop_assert_eq!(sink.events_written(), k);
        prop_assert_eq!(sink.io_errors(), events.len() as u64 - k);
        prop_assert!(sink.first_error().is_some());
        let inner = sink.finish()
            .map_err(|e| TestCaseError::fail(format!("finish: {e}")))?;
        let text = String::from_utf8(inner.into_inner())
            .map_err(|e| TestCaseError::fail(format!("utf8: {e}")))?;
        // Whole events only: no torn lines from the failing writer.
        prop_assert_eq!(text.lines().count() as u64, k);
        for line in text.lines() {
            prop_assert!(line.starts_with('{') && line.ends_with('}'), "torn line: {line}");
        }
    }

    /// The headline property: *every* seeded fault plan — any mix of
    /// injected deadlines, cancellations and sink failures — yields a clean outcome consistent with the plan, a
    /// replayable partial derivation, an intact telemetry stream, and
    /// no state poisoning (a subsequent fault-free run is bit-identical
    /// to a never-faulted baseline).
    #[test]
    fn faults_any_seeded_plan_yields_a_clean_outcome(seed in 0u64..300) {
        let mut vocab = Vocabulary::new();
        let (db, set) = build(&mut vocab);
        let plan = FaultPlan::from_seed(seed);
        let budget = Budget::steps(20);
        let (baseline, baseline_events) =
            run_recorded(&set, &db, &ResourceGovernor::from_budget(budget));

        let gov = ResourceGovernor::from_budget(budget).with_faults(plan);
        let (run, events) = run_recorded(&set, &db, &gov);

        // The outcome is exactly what the plan dictates: cancellation
        // wins, then the injected deadline, then the step budget.
        let expected = match (plan.cancel_at_step, plan.deadline_at_step) {
            (Some(c), Some(d)) if c <= d => Outcome::Cancelled,
            (Some(_), Some(_)) => Outcome::DeadlineExceeded,
            (Some(_), None) => Outcome::Cancelled,
            (None, Some(_)) => Outcome::DeadlineExceeded,
            (None, None) => Outcome::BudgetExhausted,
        };
        prop_assert_eq!(run.outcome, expected, "plan {:?}", plan);

        // The partial state is never poisoned: the derivation replays.
        let replayed = run.derivation.validate(&db, &set, false)
            .map_err(|f| TestCaseError::fail(format!("replay: {f}")))?;
        prop_assert_eq!(replayed, run.instance);

        // Telemetry stayed intact: every event renders and the stream
        // survives a sink failing per the same plan.
        let quota = plan.sink_fail_after.unwrap_or(u64::MAX);
        let mut sink = JsonlWriter::new(FlakyWriter::new(Vec::new(), quota));
        for event in &events {
            chase_telemetry::ChaseObserver::on_event(&mut sink, event);
        }
        prop_assert_eq!(
            sink.events_written() + sink.io_errors(),
            events.len() as u64
        );
        prop_assert!(sink.finish().is_ok());

        // No cross-run poisoning: a fresh fault-free run still matches
        // the baseline exactly, telemetry included.
        let (again, again_events) =
            run_recorded(&set, &db, &ResourceGovernor::from_budget(budget));
        assert_runs_identical(&again, &baseline);
        prop_assert_eq!(again_events, baseline_events);
    }
}

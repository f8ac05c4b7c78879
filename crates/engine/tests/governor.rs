//! Edge-case tests for the [`ResourceGovernor`]: degenerate budgets,
//! deadlines that are already over, and cancellations requested before
//! the first step. Every case must stop with the *correct* outcome and
//! an empty-but-valid partial result — the database unchanged, zero
//! steps, and a derivation that replays cleanly.

use chase_core::parser::parse_program;
use chase_core::vocab::Vocabulary;
use chase_engine::governor::{Budget, Outcome, ResourceGovernor};
use chase_engine::restricted::{ChaseRun, ChaseVariant, RestrictedChase};
use chase_telemetry::NullObserver;
use std::time::{Duration, Instant};

/// A program with work to do: the chase from `R(a,b)` is infinite, so
/// none of these runs may stop because it ran out of triggers.
const PROGRAM: &str = "R(a,b).\nR(x,y) -> exists z. R(y,z).";

fn build(vocab: &mut Vocabulary) -> (chase_core::instance::Instance, chase_core::tgd::TgdSet) {
    let program = parse_program(PROGRAM, vocab).expect("test program parses");
    let set = program.tgd_set(vocab).expect("test program is a TGD set");
    (program.database, set)
}

/// The partial result must be exactly "no work done": the input
/// database, zero steps, and an empty derivation that validates.
fn assert_untouched(
    run: &ChaseRun,
    db: &chase_core::instance::Instance,
    set: &chase_core::tgd::TgdSet,
) {
    assert_eq!(run.steps, 0);
    assert_eq!(&run.instance, db);
    assert!(run.log.is_empty());
    let replayed = run
        .derivation(set)
        .validate(db, set, false)
        .expect("empty derivation replays");
    assert_eq!(&replayed, db);
}

#[test]
fn zero_step_budget_stops_before_any_application() {
    let mut vocab = Vocabulary::new();
    let (db, set) = build(&mut vocab);
    let gov = ResourceGovernor::from_budget(Budget::new(0, usize::MAX));
    let run = RestrictedChase::new(&set).run_governed(&db, &gov, &mut NullObserver, None);
    assert_eq!(run.outcome, Outcome::BudgetExhausted);
    assert_untouched(&run, &db, &set);
}

#[test]
fn zero_atom_budget_stops_before_any_application() {
    let mut vocab = Vocabulary::new();
    let (db, set) = build(&mut vocab);
    let gov = ResourceGovernor::from_budget(Budget::new(usize::MAX, 0));
    let run = RestrictedChase::new(&set).run_governed(&db, &gov, &mut NullObserver, None);
    assert_eq!(run.outcome, Outcome::BudgetExhausted);
    assert_untouched(&run, &db, &set);
}

#[test]
fn deadline_expired_at_start_stops_with_deadline_outcome() {
    let mut vocab = Vocabulary::new();
    let (db, set) = build(&mut vocab);
    let gov = ResourceGovernor::new().with_deadline(Instant::now() - Duration::from_secs(1));
    let run = RestrictedChase::new(&set).run_governed(&db, &gov, &mut NullObserver, None);
    assert_eq!(run.outcome, Outcome::DeadlineExceeded);
    assert_untouched(&run, &db, &set);
}

#[test]
fn cancel_before_first_step_stops_with_cancelled_outcome() {
    let mut vocab = Vocabulary::new();
    let (db, set) = build(&mut vocab);
    let gov = ResourceGovernor::new();
    gov.cancel_token().cancel();
    let run = RestrictedChase::new(&set).run_governed(&db, &gov, &mut NullObserver, None);
    assert_eq!(run.outcome, Outcome::Cancelled);
    assert_untouched(&run, &db, &set);
}

#[test]
fn oblivious_engine_honours_the_same_edge_cases() {
    let mut vocab = Vocabulary::new();
    let (db, set) = build(&mut vocab);

    let zero_steps = ResourceGovernor::from_budget(Budget::new(0, usize::MAX));
    let oblivious = RestrictedChase::new(&set).variant(ChaseVariant::Oblivious);
    let run = oblivious.run_governed(&db, &zero_steps, &mut NullObserver, None);
    assert_eq!(run.outcome, Outcome::BudgetExhausted);
    assert_eq!((run.steps, &run.instance), (0, &db));

    let expired = ResourceGovernor::new().with_deadline(Instant::now() - Duration::from_secs(1));
    let run = oblivious.run_governed(&db, &expired, &mut NullObserver, None);
    assert_eq!(run.outcome, Outcome::DeadlineExceeded);
    assert_eq!((run.steps, &run.instance), (0, &db));

    let cancelled = ResourceGovernor::new();
    cancelled.cancel_token().cancel();
    let run = RestrictedChase::new(&set)
        .variant(ChaseVariant::SemiOblivious)
        .run_governed(&db, &cancelled, &mut NullObserver, None);
    assert_eq!(run.outcome, Outcome::Cancelled);
    assert_eq!((run.steps, &run.instance), (0, &db));
}

#[test]
fn cancelling_mid_run_from_a_cloned_token_stops_the_run() {
    let mut vocab = Vocabulary::new();
    let (db, set) = build(&mut vocab);
    // The fault plan trips the governor's own (shared) token at step 5
    // — exactly what an external canceller holding a clone would do.
    let gov = ResourceGovernor::new().with_faults(chase_engine::faults::FaultPlan {
        cancel_at_step: Some(5),
        ..chase_engine::faults::FaultPlan::default()
    });
    let external_handle = gov.cancel_token().clone();
    let run = RestrictedChase::new(&set).run_governed(&db, &gov, &mut NullObserver, None);
    assert_eq!(run.outcome, Outcome::Cancelled);
    assert_eq!(run.steps, 5);
    assert!(external_handle.is_cancelled(), "clones share the flag");
    let replayed = run
        .derivation(&set)
        .validate(&db, &set, false)
        .expect("partial derivation replays");
    assert_eq!(replayed, run.instance);
}

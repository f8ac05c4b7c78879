//! Decider-level governor edge cases, mirroring the engine-level suite
//! in `crates/engine/tests/governor.rs`: a deadline that is already
//! over when `decide` is called, degenerate (zero) budgets, and a
//! cancellation raised before the first poll must each yield a *typed*
//! [`TerminationVerdict`] — never a panic, and never a confident
//! verdict the decider did not actually earn.

use std::time::{Duration, Instant};

use chase_core::cancel::CancelToken;
use chase_core::parser::parse_program;
use chase_core::vocab::Vocabulary;
use chase_termination::{decide, decider_class, DeciderConfig, TerminationVerdict};

/// Sticky and non-terminating: `R(a,b)` chases forever.
const INFINITE: &str = "R(x,y) -> exists z. R(y,z).";
/// Guarded and terminating on every instance.
const FINITE: &str = "R(x,y) -> S(x).";

fn tgd_set(src: &str, vocab: &mut Vocabulary) -> chase_core::tgd::TgdSet {
    let program = parse_program(src, vocab).expect("test program parses");
    program.tgd_set(vocab).expect("test program is a TGD set")
}

fn unknown_reason(verdict: TerminationVerdict) -> String {
    match verdict {
        TerminationVerdict::Unknown { reason } => reason,
        other => panic!("expected Unknown, got {other:?}"),
    }
}

#[test]
fn deadline_already_past_yields_typed_unknown() {
    let mut vocab = Vocabulary::new();
    let set = tgd_set(INFINITE, &mut vocab);
    let config = DeciderConfig {
        deadline: Some(Duration::ZERO),
        ..DeciderConfig::default()
    };
    let reason = unknown_reason(decide(&set, &vocab, &config));
    assert!(
        reason.starts_with("deadline exceeded"),
        "reason should name the deadline, got: {reason}"
    );
}

#[test]
fn cancel_before_first_poll_yields_typed_unknown() {
    let mut vocab = Vocabulary::new();
    let set = tgd_set(INFINITE, &mut vocab);
    let cancel = CancelToken::new();
    cancel.cancel();
    let config = DeciderConfig {
        cancel,
        ..DeciderConfig::default()
    };
    let reason = unknown_reason(decide(&set, &vocab, &config));
    assert!(
        reason.starts_with("cancelled"),
        "reason should name the cancellation, got: {reason}"
    );
}

#[test]
fn cancellation_wins_over_an_expired_deadline() {
    let mut vocab = Vocabulary::new();
    let set = tgd_set(FINITE, &mut vocab);
    let cancel = CancelToken::new();
    cancel.cancel();
    let config = DeciderConfig {
        deadline: Some(Duration::ZERO),
        cancel,
        ..DeciderConfig::default()
    };
    let reason = unknown_reason(decide(&set, &vocab, &config));
    assert!(
        reason.starts_with("cancelled"),
        "cancellation takes precedence, got: {reason}"
    );
}

/// Zero budgets must never panic and must never manufacture a verdict
/// the starved search could not have established: an unknown is fine,
/// the *correct* verdict is fine, the opposite verdict is not.
#[test]
fn zero_budgets_never_panic_or_invert_the_verdict() {
    let starved = DeciderConfig {
        chase_budget: 0,
        witness_steps: 0,
        max_seeds: 0,
        max_automaton_states: 0,
        ..DeciderConfig::default()
    };

    let mut vocab = Vocabulary::new();
    let set = tgd_set(INFINITE, &mut vocab);
    let verdict = decide(&set, &vocab, &starved);
    assert!(
        !verdict.is_terminating(),
        "a starved decider must not claim termination of {INFINITE:?}: {verdict:?}"
    );

    let mut vocab = Vocabulary::new();
    let set = tgd_set(FINITE, &mut vocab);
    let verdict = decide(&set, &vocab, &starved);
    assert!(
        !verdict.is_non_terminating(),
        "a starved decider must not claim non-termination of {FINITE:?}: {verdict:?}"
    );
}

/// A pre-cancelled decider must stay typed for every input class the
/// portfolio routes differently (sticky vs guarded), not just one.
#[test]
fn pre_cancelled_decider_is_typed_for_both_portfolio_routes() {
    for src in [INFINITE, FINITE] {
        let mut vocab = Vocabulary::new();
        let set = tgd_set(src, &mut vocab);
        let cancel = CancelToken::new();
        cancel.cancel();
        let config = DeciderConfig {
            cancel,
            ..DeciderConfig::default()
        };
        let reason = unknown_reason(decide(&set, &vocab, &config));
        assert!(reason.starts_with("cancelled"), "{src:?}: {reason}");
    }
}

/// Guarded, not sticky, and non-terminating: with a large budget the
/// semi-oblivious prover and every seed-search chase run long.
const GUARDED_LOOP: &str = "S(x1,y1) -> T(x1).
    R(x2,y2), T(y2) -> P(x2,y2).
    P(x3,y3) -> exists z3. P(y3,z3).";

/// The decide deadline reaches inside the guarded decider's own
/// chases (the semi-oblivious prover and the seed search): with a
/// chase budget that runs for seconds, decide stops within a few polls
/// of the deadline and answers a typed `Unknown`, never a verdict read
/// off an interrupted run.
#[test]
fn deadline_stops_the_guarded_decider_inside_its_chases() {
    let mut vocab = Vocabulary::new();
    let set = tgd_set(GUARDED_LOOP, &mut vocab);
    assert_eq!(decider_class(&set), "guarded");
    let config = DeciderConfig {
        chase_budget: 400_000,
        deadline: Some(Duration::from_millis(20)),
        ..DeciderConfig::default()
    };
    let start = Instant::now();
    let reason = unknown_reason(decide(&set, &vocab, &config));
    let elapsed = start.elapsed();
    assert!(
        reason.starts_with("deadline exceeded"),
        "reason should name the deadline, got: {reason}"
    );
    assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
}

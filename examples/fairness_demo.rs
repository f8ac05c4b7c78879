//! The Fairness Theorem (Section 4) in action:
//!
//! 1. an *unfair* strategy leaves a trigger active for ever while a
//!    single-head derivation runs to infinity;
//! 2. the paper's splice construction repairs the prefix, producing a
//!    valid derivation with the old triggers discharged (Lemma 4.5);
//! 3. Example B.1 shows why multi-head TGDs break the theorem: the
//!    stopped-set `A` of Lemma 4.4 grows without bound, and an early
//!    splice invalidates the tail.
//!
//! Run with `cargo run --example fairness_demo`.

use restricted_chase::prelude::*;

const SINGLE_HEAD: &str = "
    R(a,b).
    R(x,y) -> exists z. R(y,z).   % σ0: appliable for ever
    R(x,y) -> S(x).               % σ1: starved by the priority strategy
";

const EXAMPLE_B1: &str = "
    R(a,b,b).
    R(x,y,y) -> exists z. R(x,z,y), R(z,y,y).   % σ0 (multi-head)
    R(u,v,w) -> R(w,w,w).                        % σ1
";

fn main() {
    // ── 1. Unfairness under a priority strategy ──────────────────
    let mut vocab = Vocabulary::new();
    let program = parse_program(SINGLE_HEAD, &mut vocab).expect("valid");
    let set = program.tgd_set(&vocab).expect("valid");
    let unfair = RestrictedChase::new(&set)
        .strategy(Strategy::PriorityTgd)
        .run(&program.database, Budget::steps(30));
    let age =
        chase_engine::fairness::unfairness_age(&program.database, &set, &unfair.derivation(&set));
    println!(
        "priority strategy, 30 steps: unfairness age = {age} (σ1's first trigger was active the \
         whole run)"
    );
    let fair = RestrictedChase::new(&set)
        .strategy(Strategy::Fifo)
        .run(&program.database, Budget::steps(30));
    let fifo_age =
        chase_engine::fairness::unfairness_age(&program.database, &set, &fair.derivation(&set));
    println!("FIFO strategy,     30 steps: unfairness age = {fifo_age} (bounded by queue latency)");

    // ── 2. Repairing the unfair prefix (Theorem 4.1's construction) ─
    match repair(&program.database, &set, &unfair.derivation(&set), 20, 5) {
        RepairOutcome::Fair(fixed, rounds) => {
            println!(
                "\nrepair: {rounds} splices discharged every trigger older than cutoff 5; the \
                 spliced derivation ({} steps) validates (Lemma 4.5)",
                fixed.len()
            );
            fixed
                .validate(&program.database, &set, false)
                .expect("Lemma 4.5");
        }
        other => println!("\nunexpected repair outcome: {other:?}"),
    }

    // ── 3. Example B.1: multi-head TGDs break the theorem ─────────
    let mut vocab_b1 = Vocabulary::new();
    let program_b1 = parse_program(EXAMPLE_B1, &mut vocab_b1).expect("valid");
    let set_b1 = program_b1.tgd_set(&vocab_b1).expect("valid");

    // Unfair derivation: apply only σ0, for ever.
    let unfair_b1 = RestrictedChase::new(&set_b1)
        .strategy(Strategy::PriorityTgd)
        .run(&program_b1.database, Budget::steps(20));
    assert_eq!(unfair_b1.outcome, Outcome::BudgetExhausted);
    println!(
        "\nExample B.1: unfair derivation runs past {} steps (apply only the multi-head σ0)",
        unfair_b1.steps
    );

    // But every fair strategy terminates: once R(b,b,b) is derived,
    // all σ0 triggers are satisfied.
    for strategy in [Strategy::Fifo, Strategy::Random(11)] {
        let run = RestrictedChase::new(&set_b1)
            .strategy(strategy)
            .run(&program_b1.database, Budget::steps(100_000));
        println!(
            "  {strategy:?}: terminated after {} steps — every *valid* derivation is finite",
            run.steps
        );
        assert_eq!(run.outcome, Outcome::Terminated);
    }

    // Where the proof breaks: splicing σ1's result into the unfair
    // prefix deactivates every later σ0 trigger.
    let persistent = persistently_active(
        &program_b1.database,
        &set_b1,
        &unfair_b1.derivation(&set_b1),
    );
    let spliced = chase_engine::fairness::splice_at(
        &program_b1.database,
        &set_b1,
        &unfair_b1.derivation(&set_b1),
        &persistent[0].trigger,
        1,
    );
    match spliced.validate(&program_b1.database, &set_b1, false) {
        Err(DerivationFault::NotActive(i)) => println!(
            "  splicing R(b,b,b) at position 1 invalidates the derivation at step {i}: \
             Lemma 4.4's finiteness of A fails for multi-head TGDs"
        ),
        other => println!("  unexpected: {other:?}"),
    }
}

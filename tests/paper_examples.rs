//! Every worked example of the paper as an executable test, spanning
//! all crates through the public facade.

use restricted_chase::prelude::*;

/// §1, the introduction's flagship: `D = {R(a,b)}`,
/// `T = {R(x,y) → ∃z R(x,z)}` — the restricted chase detects the
/// database already satisfies the TGD, the oblivious chase builds an
/// infinite instance.
#[test]
fn intro_example_restricted_vs_oblivious() {
    let mut vocab = Vocabulary::new();
    let program = parse_program("R(a,b). R(x,y) -> exists z. R(x,z).", &mut vocab).unwrap();
    let set = program.tgd_set(&vocab).unwrap();

    let restricted = RestrictedChase::new(&set)
        .strategy(Strategy::Fifo)
        .run(&program.database, Budget::steps(1_000));
    assert_eq!(restricted.outcome, Outcome::Terminated);
    assert_eq!(restricted.steps, 0);
    assert_eq!(restricted.instance, program.database);

    let oblivious = RestrictedChase::new(&set)
        .variant(ChaseVariant::Oblivious)
        .run(&program.database, Budget::steps(100));
    assert_eq!(oblivious.outcome, Outcome::BudgetExhausted);
    assert_eq!(oblivious.instance.len(), 101); // R(a,b), R(a,ν1), R(a,ν2), ...
}

/// Example 3.2 / 3.4: the oblivious chase of `{P(a,b)}` is the finite
/// instance `{P(a,b), R(a,b), S(a), R(a,c)}`, but the *real* oblivious
/// chase is an infinite multiset in which `S(a)` has ambiguous parents.
#[test]
fn example_3_2_and_3_4_real_oblivious_chase() {
    let mut vocab = Vocabulary::new();
    let program = parse_program(
        "P(a,b).
         P(x1,y1) -> R(x1,y1).
         P(x2,y2) -> S(x2).
         R(x3,y3) -> S(x3).
         S(x4) -> exists y4. R(x4,y4).",
        &mut vocab,
    )
    .unwrap();
    let set = program.tgd_set(&vocab).unwrap();

    let oblivious = RestrictedChase::new(&set)
        .variant(ChaseVariant::Oblivious)
        .run(&program.database, Budget::steps(10_000));
    assert_eq!(oblivious.outcome, Outcome::Terminated);
    assert_eq!(oblivious.instance.len(), 4);

    let fragment = RealOchase::build(
        &program.database,
        &set,
        OchaseLimits {
            max_nodes: 500,
            max_depth: 2,
        },
    );
    // Two S(a) vertices with different parents (Example 3.4's point).
    let s = vocab.lookup_pred("S").unwrap();
    let s_nodes: Vec<_> = fragment.iter().filter(|(_, n)| n.atom.pred == s).collect();
    assert_eq!(s_nodes.len(), 2);
    let parents: Vec<_> = s_nodes
        .iter()
        .map(|(_, n)| fragment.node(n.parents[0]).atom.clone())
        .collect();
    assert_ne!(parents[0], parents[1]);
    // The atom set of the fragment never exceeds the oblivious chase.
    for node in fragment.nodes() {
        assert!(oblivious.instance.contains(&node.atom));
    }
    // And the full real oblivious chase is infinite (fragment is cut).
    assert!(!fragment.complete);
}

/// Example 5.6: `{R(a,b), S(b,c)}` admits an infinite derivation via
/// the remote side-parent `T(b)`, while `{R(a,b)}` alone admits no
/// chase step at all.
#[test]
fn example_5_6_remote_side_parents() {
    let src = "
        S(x1,y1) -> T(x1).
        R(x2,y2), T(y2) -> P(x2,y2).
        P(x3,y3) -> exists z3. P(y3,z3).
    ";
    let mut vocab = Vocabulary::new();
    let set = parse_tgds(src, &mut vocab).unwrap();

    let with_s = parse_program("R(a,b). S(b,c).", &mut vocab)
        .unwrap()
        .database;
    let run = RestrictedChase::new(&set)
        .strategy(Strategy::Fifo)
        .run(&with_s, Budget::steps(100));
    assert_eq!(run.outcome, Outcome::BudgetExhausted);

    let just_r = parse_program("R(a,b).", &mut vocab).unwrap().database;
    let run2 = RestrictedChase::new(&set)
        .strategy(Strategy::Fifo)
        .run(&just_r, Budget::steps(100));
    assert_eq!(run2.outcome, Outcome::Terminated);
    assert_eq!(run2.steps, 0);

    // The critical database D* is NOT critical for the restricted
    // chase here either: it saturates quickly...
    let mut scratch = vocab.clone();
    let dstar = critical_database(&set, &mut scratch);
    let run3 = RestrictedChase::new(&set)
        .strategy(Strategy::Fifo)
        .run(&dstar, Budget::steps(2_000));
    // (on D* = {R(c,c), S(c,c), T(c), P(c,c)} the P-rule head P(c,z)
    // is witnessed by P(c,c) itself, so nothing P-ish fires).
    assert_eq!(run3.outcome, Outcome::Terminated);
}

/// Section 2's stickiness figures: the projection over `S(y,w)` is
/// sticky, the projection over `S(x,w)` is not (the marking reaches
/// the join variable `y`).
#[test]
fn section_2_sticky_marking_figures() {
    let mut vocab = Vocabulary::new();
    let sticky_set = parse_tgds(
        "T(x1,y1,z1) -> exists w1. S(y1,w1).
         R(x2,y2), P(y2,z2) -> exists w2. T(x2,y2,w2).",
        &mut vocab,
    )
    .unwrap();
    assert!(is_sticky(&sticky_set));

    let mut vocab2 = Vocabulary::new();
    let non_sticky_set = parse_tgds(
        "T(x1,y1,z1) -> exists w1. S(x1,w1).
         R(x2,y2), P(y2,z2) -> exists w2. T(x2,y2,w2).",
        &mut vocab2,
    )
    .unwrap();
    let violation = check_sticky(&non_sticky_set).unwrap_err();
    assert_eq!(violation.tgd, TgdId(1)); // the join rule carries the marked double variable
}

/// Example B.1: the Fairness Theorem fails for multi-head TGDs — an
/// infinite unfair derivation exists, yet every valid derivation of
/// `{R(a,b,b)}` is finite.
#[test]
fn example_b1_multi_head_fairness_counterexample() {
    let mut vocab = Vocabulary::new();
    let program = parse_program(
        "R(a,b,b).
         R(x,y,y) -> exists z. R(x,z,y), R(z,y,y).
         R(u,v,w) -> R(w,w,w).",
        &mut vocab,
    )
    .unwrap();
    let set = program.tgd_set(&vocab).unwrap();

    // Unfair infinite derivation: only ever apply the first TGD.
    let unfair = RestrictedChase::new(&set)
        .strategy(Strategy::PriorityTgd)
        .run(&program.database, Budget::steps(200));
    assert_eq!(unfair.outcome, Outcome::BudgetExhausted);
    unfair
        .derivation(&set)
        .validate(&program.database, &set, false)
        .unwrap();

    // Every fair strategy terminates.
    for strategy in [Strategy::Fifo, Strategy::Random(1), Strategy::Random(2)] {
        let run = RestrictedChase::new(&set)
            .strategy(strategy)
            .run(&program.database, Budget::steps(100_000));
        assert_eq!(run.outcome, Outcome::Terminated, "{strategy:?}");
    }

    // The deciders refuse multi-head input (the theorems require
    // single-head TGDs).
    assert!(decide(&set, &vocab, &DeciderConfig::default()).is_unknown());
}

/// Theorem 5.3 round-trip on a concrete derivation: derivation ↦
/// chaseable subset of `ochase(D,T)` ↦ extracted derivation.
#[test]
fn theorem_5_3_roundtrip() {
    let mut vocab = Vocabulary::new();
    let program = parse_program(
        "E(a,b). E(b,c).
         E(x,y) -> exists z. F(x,z).
         F(u,v) -> G(u).",
        &mut vocab,
    )
    .unwrap();
    let set = program.tgd_set(&vocab).unwrap();
    let run = RestrictedChase::new(&set)
        .strategy(Strategy::Fifo)
        .run(&program.database, Budget::steps(100));
    assert_eq!(run.outcome, Outcome::Terminated);
    let fragment = RealOchase::build(&program.database, &set, OchaseLimits::default());
    assert!(fragment.complete);
    let members = chase_engine::chaseable::roundtrip_theorem_5_3(
        &program.database,
        &set,
        &run.derivation(&set),
        &fragment,
    )
    .unwrap();
    assert_eq!(members, program.database.len() + run.steps);
}

/// The paper's Fact 3.5: a trigger is active iff nothing stops its
/// result — cross-validated over every trigger of a mixed instance.
#[test]
fn fact_3_5_cross_validation() {
    let mut vocab = Vocabulary::new();
    let program = parse_program(
        "R(a,b). R(b,b). S(a,a). T(b).
         R(x,y) -> exists z. S(x,z).
         R(x,y), T(y) -> exists z. R(y,z).",
        &mut vocab,
    )
    .unwrap();
    let set = program.tgd_set(&vocab).unwrap();
    let mut skolem = SkolemTable::new(SkolemPolicy::PerTrigger);
    for trigger in all_triggers(&set, &program.database) {
        let result = trigger.result(set.tgd(trigger.tgd), &mut skolem);
        let (active, unstopped) = chase_engine::relations::active_iff_unstopped(
            &trigger,
            &set,
            &program.database,
            &result[0],
        );
        assert_eq!(active, unstopped);
    }
}

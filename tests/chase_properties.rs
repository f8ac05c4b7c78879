//! Property-based tests over randomly generated TGD sets and
//! databases: the chase engines' core invariants must hold for *every*
//! input, not just the hand-picked suite.

use proptest::prelude::*;
use restricted_chase::prelude::*;
// `proptest::prelude` exports a `Strategy` trait that shadows the
// chase engine's `Strategy` enum in glob imports; re-import explicitly.
use restricted_chase::engine::restricted::Strategy;

/// Parses a generated (rules, database) pair.
fn build(seed: u64, db_seed: u64) -> (Vocabulary, TgdSet, Instance) {
    let params = RandomTgdParams::default();
    let rules = random_tgds(&params, seed);
    let db = random_database(&params, 12, seed, db_seed);
    let mut vocab = Vocabulary::new();
    let program = parse_program(&format!("{rules}{db}"), &mut vocab).expect("generated input");
    let set = program.tgd_set(&vocab).expect("generated set");
    (vocab, set, program.database)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// A terminated restricted chase result is a model of the TGDs,
    /// and its recorded derivation replays to the same instance with
    /// saturation.
    #[test]
    fn terminated_restricted_chase_is_a_model(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&db, Budget::new(400, 4_000));
        if run.outcome == Outcome::Terminated {
            prop_assert!(satisfies_all(&run.instance, &set));
            let replayed = run.derivation(&set).validate(&db, &set, true)
                .map_err(|f| TestCaseError::fail(format!("replay: {f}")))?;
            prop_assert_eq!(replayed, run.instance);
        }
    }

    /// The restricted chase never builds a larger instance than the
    /// oblivious chase, and (when both terminate) the restricted
    /// result folds homomorphically into the oblivious result.
    #[test]
    fn restricted_folds_into_oblivious(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let r = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&db, Budget::new(300, 3_000));
        let o = RestrictedChase::new(&set)
            .variant(ChaseVariant::Oblivious)
            .run(&db, Budget::new(1_500, 15_000));
        if r.outcome == Outcome::Terminated && o.outcome == Outcome::Terminated {
            prop_assert!(r.instance.len() <= o.instance.len());
            prop_assert!(ground_homomorphism_exists(&r.instance, &o.instance));
        }
    }

    /// The semi-oblivious chase is coarser than the oblivious chase:
    /// on the same budget it never produces more atoms.
    #[test]
    fn semi_oblivious_is_coarser(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let budget = Budget::new(800, 8_000);
        let semi = RestrictedChase::new(&set).variant(ChaseVariant::SemiOblivious).run(&db, budget);
        let full = RestrictedChase::new(&set).variant(ChaseVariant::Oblivious).run(&db, budget);
        if semi.outcome == Outcome::Terminated && full.outcome == Outcome::Terminated {
            prop_assert!(semi.instance.len() <= full.instance.len());
        }
    }

    /// Strategy independence of termination *results as models*: if
    /// FIFO and LIFO both terminate, both results satisfy the TGDs and
    /// each folds into the other (homomorphic equivalence).
    #[test]
    fn terminating_strategies_give_homomorphically_equivalent_models(
        seed in 0u64..5_000, db_seed in 0u64..5_000
    ) {
        let (_vocab, set, db) = build(seed, db_seed);
        let a = RestrictedChase::new(&set).strategy(Strategy::Fifo).run(&db, Budget::new(300, 3_000));
        let b = RestrictedChase::new(&set).strategy(Strategy::Lifo).run(&db, Budget::new(300, 3_000));
        if a.outcome == Outcome::Terminated && b.outcome == Outcome::Terminated {
            prop_assert!(satisfies_all(&a.instance, &set));
            prop_assert!(satisfies_all(&b.instance, &set));
            prop_assert!(ground_homomorphism_exists(&a.instance, &b.instance));
            prop_assert!(ground_homomorphism_exists(&b.instance, &a.instance));
        }
    }

    /// Every trigger enumerated on a random instance satisfies
    /// Fact 3.5 (active ⇔ unstopped).
    #[test]
    fn fact_3_5_holds_on_random_instances(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let mut skolem = SkolemTable::new(SkolemPolicy::PerTrigger);
        for trigger in all_triggers(&set, &db).into_iter().take(50) {
            let tgd = set.tgd(trigger.tgd);
            if !tgd.is_single_head() {
                continue;
            }
            let result = trigger.result(tgd, &mut skolem);
            let (active, unstopped) = chase_engine::relations::active_iff_unstopped(
                &trigger, &set, &db, &result[0],
            );
            prop_assert_eq!(active, unstopped);
        }
    }

    /// Equality types canonicalise consistently: two atoms have the
    /// same equality type iff they are isomorphic as single atoms.
    #[test]
    fn equality_types_characterise_single_atom_isomorphism(
        args_a in proptest::collection::vec(0u32..4, 1..5),
        args_b in proptest::collection::vec(0u32..4, 1..5),
    ) {
        prop_assume!(args_a.len() == args_b.len());
        let a = Atom::new(PredId(0), args_a.iter().map(|&i| Term::Const(ConstId(i))).collect::<Vec<_>>());
        let b = Atom::new(PredId(0), args_b.iter().map(|&i| Term::Const(ConstId(i))).collect::<Vec<_>>());
        let same_type = EqType::of_atom(&a) == EqType::of_atom(&b);
        // Isomorphism of single ground atoms = identical repetition
        // pattern.
        let iso = (0..a.arity()).all(|i| (0..a.arity()).all(|j| {
            (a.args[i] == a.args[j]) == (b.args[i] == b.args[j])
        }));
        prop_assert_eq!(same_type, iso);
    }

    /// FIFO is fair in the measured sense: the unfairness age stays
    /// far below the horizon on random workloads.
    #[test]
    fn fifo_unfairness_age_is_bounded(seed in 0u64..2_000, db_seed in 0u64..2_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let horizon = 120;
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&db, Budget::new(horizon, 4_000));
        if run.outcome == Outcome::BudgetExhausted && run.steps == horizon {
            let age = chase_engine::fairness::unfairness_age(&db, &set, &run.derivation(&set));
            // Under FIFO a trigger waits at most one full queue drain;
            // random workloads here have small queues.
            prop_assert!(age <= horizon, "age {} at horizon {}", age, horizon);
        }
    }
}

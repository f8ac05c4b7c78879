//! Equivalence property suite for the restriction-check machinery:
//! composite two-position indexes, the dedup-map instance layout and
//! the columnar storage must leave the restricted engine
//! **bit-identical** to the frozen seed baseline — same outcome, same
//! step count, same final instance — on random programs, and its
//! recorded derivations must replay through [`Derivation::validate`].

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
        cases: 40,
        .. ProptestConfig::default()
    })]

    /// The restricted chase agrees exactly with the frozen seed engine
    /// on outcome, step count, and final instance, for every strategy.
    #[test]
    fn restricted_equals_seed_all_strategies(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let budget = Budget::new(200, 2_000);
        for strategy in [
            Strategy::Fifo,
            Strategy::Lifo,
            Strategy::Random((seed ^ db_seed) | 1),
            Strategy::PriorityTgd,
        ] {
            let reference = SeedRestrictedChase::new(&set).strategy(strategy).run(&db, budget);
            let run = RestrictedChase::new(&set).strategy(strategy).run(&db, budget);
            let label = format!("{strategy:?}");
            prop_assert_eq!(reference.outcome, run.outcome, "outcome: {}", &label);
            prop_assert_eq!(reference.steps, run.steps, "steps: {}", &label);
            prop_assert_eq!(
                reference.instance.len(),
                run.instance.len(),
                "len: {}",
                &label
            );
            prop_assert_eq!(&reference.instance, &run.instance, "instance: {}", &label);
        }
    }

    /// Recorded derivations replay cleanly: every step is an active
    /// trigger at its point in the sequence, every added atom is
    /// `result(σ,h)`, and terminated runs leave no active trigger. A
    /// stale activeness short-cut would record a step whose trigger was
    /// in fact already satisfied.
    #[test]
    fn derivation_replays(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let budget = Budget::new(200, 2_000);
        let run = RestrictedChase::new(&set).run(&db, budget);
        let must_saturate = run.outcome == Outcome::Terminated;
        match run.derivation(&set).validate(&db, &set, must_saturate) {
            Ok(final_instance) => prop_assert_eq!(&final_instance, &run.instance),
            Err(fault) => prop_assert!(false, "replay fault: {}", fault),
        }
    }
}

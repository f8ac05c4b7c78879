//! Equivalence property suite for the hot-path engine overhaul: the
//! optimised engines (iterative matcher, interned fingerprints,
//! bucketed priority queue) must be **bit-identical** to the frozen
//! seed engines — same outcome, same step count, same final instance
//! (nulls included) — on random programs, for every strategy.

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

fn assert_runs_equal(
    seed_run: &ChaseRun,
    opt: &ChaseRun,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(seed_run.outcome, opt.outcome, "outcome: {}", label);
    prop_assert_eq!(seed_run.steps, opt.steps, "steps: {}", label);
    // Instance equality is set equality; also check sizes so slot
    // bookkeeping bugs (duplicate atoms) cannot hide.
    prop_assert_eq!(
        seed_run.instance.len(),
        opt.instance.len(),
        "len: {}",
        label
    );
    prop_assert_eq!(&seed_run.instance, &opt.instance, "instance: {}", label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 40,
        .. ProptestConfig::default()
    })]

    /// Restricted chase: every strategy agrees exactly with the frozen
    /// seed engine.
    #[test]
    fn optimised_restricted_equals_seed(seed in 0u64..5_000, db_seed in 0u64..5_000) {
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
            assert_runs_equal(&reference, &run, &format!("{strategy:?}"))?;
        }
    }

    /// Oblivious and semi-oblivious chase: the optimised engine agrees
    /// exactly with the frozen seed engine.
    #[test]
    fn optimised_oblivious_equals_seed(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let budget = Budget::new(400, 4_000);
        for semi in [false, true] {
            let seed_engine = SeedObliviousChase::new(&set);
            let seed_engine = if semi { seed_engine.semi_oblivious() } else { seed_engine };
            let reference = seed_engine.run(&db, budget);
            let variant = if semi { ChaseVariant::SemiOblivious } else { ChaseVariant::Oblivious };
            let run = RestrictedChase::new(&set).variant(variant).run(&db, budget);
            prop_assert_eq!(reference.outcome, run.outcome, "semi={}", semi);
            prop_assert_eq!(reference.steps, run.steps, "semi={}", semi);
            prop_assert_eq!(&reference.instance, &run.instance, "semi={}", semi);
        }
    }

    /// A terminated restricted run is a model of the TGD set.
    #[test]
    fn terminated_run_satisfies_all(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let run = RestrictedChase::new(&set).run(&db, Budget::new(300, 3_000));
        if run.outcome == Outcome::Terminated {
            prop_assert!(satisfies_all(&run.instance, &set));
        }
    }

    /// Profiling is still equivalence-preserving: the optimised engine
    /// under a profiling span observer remains bit-identical to the
    /// frozen seed engine.
    #[test]
    fn profiled_restricted_equals_seed(seed in 0u64..2_500, db_seed in 0u64..2_500) {
        let (_vocab, set, db) = build(seed, db_seed);
        let budget = Budget::new(200, 2_000);
        for strategy in [Strategy::Fifo, Strategy::PriorityTgd] {
            let reference = SeedRestrictedChase::new(&set).strategy(strategy).run(&db, budget);
            let mut obs = restricted_chase::telemetry::SpanObserver::new();
            let profiled = RestrictedChase::new(&set)
                .strategy(strategy)
                .heartbeat_every(16)
                .run_observed(&db, budget, &mut obs);
            assert_runs_equal(&reference, &profiled, &format!("profiled {strategy:?}"))?;
            prop_assert_eq!(obs.profile().unbalanced, 0);
        }
    }
}

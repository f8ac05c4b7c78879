//! Equivalence property suite for the restriction-check machinery:
//! composite two-position indexes, the dedup-map instance layout and
//! the sharded storage must leave the restricted engine
//! **bit-identical** to the frozen seed baseline — same outcome, same
//! step count, same final instance — on random programs, and its
//! recorded derivations must replay through [`Derivation::validate`].
//! The telemetry event stream must not depend on the shard count.
//!
//! The seed engine has no observer hook, so telemetry equality is
//! checked between two runs of the optimised engine over differently
//! sharded copies of the same database.

use proptest::prelude::*;
use restricted_chase::prelude::*;
// `proptest::prelude` exports a `Strategy` trait that shadows the
// chase engine's `Strategy` enum in glob imports; re-import explicitly.
use restricted_chase::engine::restricted::Strategy;
use restricted_chase::telemetry::RecordingObserver;

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

/// A copy of `db` stored in `shards` shards (same atoms, same order).
fn resharded(db: &Instance, shards: usize) -> Instance {
    let mut out = Instance::with_shards(shards);
    for atom in db.iter() {
        out.insert(atom.to_atom());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 40,
        .. ProptestConfig::default()
    })]

    /// The restricted chase agrees exactly with the frozen seed engine
    /// on outcome, step count, and final instance, for every strategy.
    #[test]
    fn watermarked_restricted_equals_seed(seed in 0u64..5_000, db_seed in 0u64..5_000) {
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
    fn watermarked_derivation_replays(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let budget = Budget::new(200, 2_000);
        let run = RestrictedChase::new(&set).run(&db, budget);
        let must_saturate = run.outcome == Outcome::Terminated;
        match run.derivation.validate(&db, &set, must_saturate) {
            Ok(final_instance) => prop_assert_eq!(&final_instance, &run.instance),
            Err(fault) => prop_assert!(false, "replay fault: {}", fault),
        }
    }

    /// One-shard and default-sharded copies of the same database emit
    /// identical telemetry event streams.
    #[test]
    fn watermarked_event_streams_identical(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let budget = Budget::new(200, 2_000);
        let mut base_obs = RecordingObserver::default();
        let base = RestrictedChase::new(&set).run_observed(&db, budget, &mut base_obs);
        let mut one_obs = RecordingObserver::default();
        let one = RestrictedChase::new(&set).run_observed(&resharded(&db, 1), budget, &mut one_obs);
        prop_assert_eq!(base.outcome, one.outcome);
        prop_assert_eq!(base_obs.events, one_obs.events);
    }

    /// Every shard count {1, 2, 4, 7} must equal the seed run (outcome,
    /// steps, instance), emit the default-sharded run's telemetry
    /// stream, and record a derivation that replays cleanly through
    /// `Derivation::validate`.
    #[test]
    fn restricted_equals_seed_across_shards(seed in 0u64..5_000, db_seed in 0u64..5_000) {
        let (_vocab, set, db) = build(seed, db_seed);
        let budget = Budget::new(200, 2_000);
        let reference = SeedRestrictedChase::new(&set).run(&db, budget);
        let mut seq_obs = RecordingObserver::default();
        let seq = RestrictedChase::new(&set).run_observed(&db, budget, &mut seq_obs);
        for shards in [1usize, 2, 4, 7] {
            let sdb = resharded(&db, shards);
            let label = format!("{shards} shards");
            let mut obs = RecordingObserver::default();
            let run = RestrictedChase::new(&set).run_observed(&sdb, budget, &mut obs);
            prop_assert_eq!(reference.outcome, run.outcome, "outcome: {}", &label);
            prop_assert_eq!(reference.steps, run.steps, "steps: {}", &label);
            prop_assert_eq!(&reference.instance, &run.instance, "instance: {}", &label);
            prop_assert_eq!(&seq_obs.events, &obs.events, "telemetry: {}", &label);
            let must_saturate = run.outcome == Outcome::Terminated;
            let replayed = run.derivation.validate(&sdb, &set, must_saturate)
                .map_err(|f| TestCaseError::fail(format!("{label}: replay fault: {f}")))?;
            prop_assert_eq!(&replayed, &run.instance, "replay: {}", &label);
            prop_assert_eq!(&seq.instance, &run.instance, "seq instance: {}", &label);
        }
    }
}

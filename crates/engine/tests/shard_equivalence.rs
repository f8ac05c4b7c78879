//! Differential suite for sharded instance storage: the shard count is
//! a physical layout knob, never a semantic one. For every generated
//! database and every engine configuration, an unsharded run (one
//! shard) and runs over shard counts {2, 4, 7} must agree on the
//! outcome, the step count, every slot id (slot = insertion position,
//! so comparing atoms in slot order pins the whole directory), and the
//! default telemetry stream, event for event.

use proptest::prelude::*;

use chase_core::atom::Atom;
use chase_core::instance::Instance;
use chase_core::parser::parse_program;
use chase_core::tgd::TgdSet;
use chase_core::vocab::Vocabulary;
use chase_engine::oblivious::ObliviousChase;
use chase_engine::restricted::{Budget, Outcome, RestrictedChase};
use chase_telemetry::{Event, RecordingObserver};

/// The shard counts under test; `1` is the unsharded baseline.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Step budget: big enough that the terminating programs finish, small
/// enough that the non-terminating one stays cheap (a budget-exhausted
/// run is compared just like a terminated one).
const STEPS: usize = 400;

/// Rule sets exercising the layouts that matter for sharding: two-atom
/// existential heads (multi-shard write sets), full rules (single-shard
/// writes), joins (cross-shard probes), and head predicates that
/// collide on the same shard at low shard counts.
const RULES: [&str; 3] = [
    // Mixed: shared-null two-atom head, a full rule, and a join body.
    "R(x,y) -> exists z. S(x,z), T(x,z).\n\
     S(x,y) -> T(x,y).\n\
     T(x,y), S(x,z) -> R(y,z).",
    // Full-only cycle: pure propagation, terminates by saturation.
    "R(x,y) -> S(x,y).\n\
     S(x,y) -> T(y,x).\n\
     T(x,y) -> R(x,y).",
    // Two-level existential chain: nulls feed a second invention.
    "R(x,y) -> exists z. S(y,z).\n\
     S(x,y) -> exists w. T(x,w).",
];

const PREDS: [&str; 3] = ["R", "S", "T"];

/// One run's observable surface.
struct Observed {
    outcome: Outcome,
    steps: usize,
    /// Atoms in slot order — position IS the slot id.
    slots: Vec<Atom>,
    events: Vec<Event>,
}

fn parse(rules: usize, facts: &[(usize, usize, usize)]) -> (Vocabulary, TgdSet, Vec<Atom>) {
    let mut text = String::new();
    for (p, a, b) in facts {
        text.push_str(&format!("{}(c{a},c{b}).\n", PREDS[p % PREDS.len()]));
    }
    text.push_str(RULES[rules % RULES.len()]);
    let mut vocab = Vocabulary::new();
    let program = parse_program(&text, &mut vocab).expect("generated program parses");
    let set = program.tgd_set(&vocab).expect("generated rules are TGDs");
    let atoms: Vec<Atom> = program.database.iter().map(|a| a.to_atom()).collect();
    (vocab, set, atoms)
}

/// Rebuilds the database under `shards` shards, preserving insertion
/// order (and therefore slot ids) exactly.
fn db_with_shards(atoms: &[Atom], shards: usize) -> Instance {
    let mut db = Instance::with_shards(shards);
    for atom in atoms {
        db.insert(atom.clone());
    }
    db
}

fn observe_restricted(set: &TgdSet, db: &Instance) -> Observed {
    let mut rec = RecordingObserver::default();
    let run = RestrictedChase::new(set).run_observed(db, Budget::steps(STEPS), &mut rec);
    Observed {
        outcome: run.outcome,
        steps: run.steps,
        slots: run.instance.iter().map(|a| a.to_atom()).collect(),
        events: rec.events,
    }
}

fn observe_oblivious(set: &TgdSet, db: &Instance) -> Observed {
    let mut rec = RecordingObserver::default();
    let run = ObliviousChase::new(set).run_observed(db, Budget::steps(STEPS), &mut rec);
    Observed {
        outcome: run.outcome,
        steps: run.steps,
        slots: run.instance.iter().map(|a| a.to_atom()).collect(),
        events: rec.events,
    }
}

/// Asserts two observations are identical, with a label naming the
/// diverging configuration in the failure message.
fn assert_same(label: &str, base: &Observed, other: &Observed) -> Result<(), TestCaseError> {
    prop_assert_eq!(base.outcome, other.outcome, "outcome diverged: {}", label);
    prop_assert_eq!(base.steps, other.steps, "step count diverged: {}", label);
    prop_assert_eq!(&base.slots, &other.slots, "slot ids diverged: {}", label);
    prop_assert_eq!(&base.events, &other.events, "telemetry diverged: {}", label);
    Ok(())
}

fn facts_strategy() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec((0usize..3, 0usize..6, 0usize..6), 1..32)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Restricted chase: shard count changes nothing.
    #[test]
    fn shard_count_is_invisible_to_the_restricted_chase(
        rules in 0usize..RULES.len(),
        facts in facts_strategy(),
    ) {
        let (_vocab, set, atoms) = parse(rules, &facts);
        let base = observe_restricted(&set, &db_with_shards(&atoms, SHARD_COUNTS[0]));
        for &n in &SHARD_COUNTS[1..] {
            let other = observe_restricted(&set, &db_with_shards(&atoms, n));
            assert_same(&format!("rules {rules}, {n} shards, restricted"), &base, &other)?;
        }
    }

    /// Oblivious chase: same invariance (it shares the instance layer,
    /// not the restriction checks).
    #[test]
    fn shard_count_is_invisible_to_the_oblivious_chase(
        rules in 0usize..RULES.len(),
        facts in facts_strategy(),
    ) {
        let (_vocab, set, atoms) = parse(rules, &facts);
        let base = observe_oblivious(&set, &db_with_shards(&atoms, SHARD_COUNTS[0]));
        for &n in &SHARD_COUNTS[1..] {
            let other = observe_oblivious(&set, &db_with_shards(&atoms, n));
            assert_same(&format!("rules {rules}, {n} shards, oblivious"), &base, &other)?;
        }
    }
}

//! An executable rendition of the Fairness Theorem machinery
//! (Section 4, Lemmas 4.3–4.5).
//!
//! The paper turns an infinite *unfair* restricted chase derivation
//! into a fair one by repeatedly splicing in the earliest persistently
//! active trigger at a carefully chosen index `ℓ` (greater than the
//! round number, the trigger's discovery index `m`, and every index of
//! the set `A = {i : result(σ,h) ≺s result(σᵢ,hᵢ)}`), then taking the
//! diagonal. On a finite horizon (a derivation prefix) the same
//! transformation is executable verbatim; [`repair`] performs `k`
//! rounds of it and checks Lemma 4.5 — each spliced derivation must
//! again be a valid restricted chase derivation.
//!
//! For single-head TGDs the splice always validates (that is the
//! theorem). For multi-head TGDs it can fail — Example B.1 — and
//! [`repair`] reports exactly that via [`RepairOutcome::SpliceInvalid`].

use chase_core::atom::Atom;
use chase_core::instance::Instance;
use chase_core::term::Term;
use chase_core::tgd::{Tgd, TgdSet};

use crate::derivation::{Derivation, Step};
use crate::relations::stops;
use crate::skolem::{SkolemPolicy, SkolemTable};
use crate::trigger::{all_triggers, Trigger};

/// A trigger that is active from instance `I_m` to the end of the
/// recorded prefix and is never applied in it — the finite-horizon
/// stand-in for the paper's "remains active forever".
#[derive(Debug, Clone)]
pub struct PersistentTrigger {
    /// Smallest index `m` such that the trigger exists (and is active)
    /// on `I_m`.
    pub first_active: usize,
    /// The trigger itself.
    pub trigger: Trigger,
}

/// The positions of frontier variables in the `k`-th head atom of a
/// TGD (generalises [`Trigger::frontier_positions`] to multi-head).
fn frontier_positions_of_head(tgd: &Tgd, k: usize) -> Vec<usize> {
    tgd.head()[k]
        .args
        .iter()
        .enumerate()
        .filter(|(_, t)| matches!(t, Term::Var(v) if tgd.is_frontier(*v)))
        .map(|(i, _)| i)
        .collect()
}

/// Replays the derivation and returns the instances `I_0, ..., I_N`.
fn instances_along(database: &Instance, derivation: &Derivation) -> Vec<Instance> {
    let mut out = Vec::with_capacity(derivation.len() + 1);
    let mut current = database.clone();
    out.push(current.clone());
    for step in &derivation.steps {
        for atom in &step.added {
            current.insert(atom.clone());
        }
        out.push(current.clone());
    }
    out
}

/// Finds every persistently active trigger of the prefix, sorted by
/// `first_active`. Because activeness is anti-monotone along a
/// derivation, a trigger on `I_m` that is still active on the final
/// instance is active on every instance in between.
pub fn persistently_active(
    database: &Instance,
    set: &TgdSet,
    derivation: &Derivation,
) -> Vec<PersistentTrigger> {
    let instances = instances_along(database, derivation);
    let last = instances.last().expect("at least the database");
    let applied: Vec<_> = derivation
        .steps
        .iter()
        .map(|s| s.trigger.key(set.tgd(s.trigger.tgd)))
        .collect();
    let mut out = Vec::new();
    for trigger in all_triggers(set, last) {
        let tgd = set.tgd(trigger.tgd);
        if !trigger.is_active(tgd, last) {
            continue;
        }
        if applied.contains(&trigger.key(tgd)) {
            continue;
        }
        // Earliest instance on which the grounded body is present.
        let grounded: Vec<Atom> = tgd
            .body()
            .iter()
            .map(|a| trigger.binding.apply_atom(a))
            .collect();
        let m = instances
            .iter()
            .position(|inst| grounded.iter().all(|a| inst.contains(a)))
            .expect("body present on the final instance");
        out.push(PersistentTrigger {
            first_active: m,
            trigger,
        });
    }
    out.sort_by_key(|p| p.first_active);
    out
}

/// The *unfairness age* of a prefix: the largest number of steps any
/// never-applied trigger has been active, i.e.
/// `max (len − first_active)` over persistent triggers (0 if none).
///
/// Along an infinite derivation there are always pending active
/// triggers at any horizon (the next step's, for one), so "no pending
/// triggers" is the wrong finite-horizon notion of fairness. What
/// distinguishes a fair derivation is that this age stays bounded by
/// the queue latency: FIFO keeps it O(queue length), while an unfair
/// strategy lets it grow linearly with the horizon.
pub fn unfairness_age(database: &Instance, set: &TgdSet, derivation: &Derivation) -> usize {
    persistently_active(database, set, derivation)
        .first()
        .map(|p| derivation.len() - p.first_active)
        .unwrap_or(0)
}

/// Whether the prefix is fair within its horizon: no never-applied
/// trigger has been active since an instance older than `cutoff`.
pub fn is_fair_within_horizon(
    database: &Instance,
    set: &TgdSet,
    derivation: &Derivation,
    cutoff: usize,
) -> bool {
    persistently_active(database, set, derivation)
        .first()
        .map(|p| p.first_active > cutoff)
        .unwrap_or(true)
}

/// The set `A = {i : result(σ,h) ≺s result(σᵢ,hᵢ)}` of Lemma 4.4 for a
/// candidate trigger result against a derivation prefix: the step
/// indices whose produced atoms are stopped by `result`.
///
/// Lemma 4.4 proves `A` is finite for single-head TGDs; Example B.1
/// shows it can grow without bound for multi-head TGDs (every spliced
/// copy of `R(z,z,z)` stops every later `R(·,y,y)` atom) — which is
/// precisely where the Fairness Theorem breaks. Experiment E2 measures
/// this growth.
pub fn stopped_indices(set: &TgdSet, derivation: &Derivation, result: &[Atom]) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, step) in derivation.steps.iter().enumerate() {
        let step_tgd = set.tgd(step.trigger.tgd);
        for (k, added) in step.added.iter().enumerate() {
            let fpos = frontier_positions_of_head(step_tgd, k);
            if result.iter().any(|r| stops(r, added, &fpos)) {
                out.push(i);
                break;
            }
        }
    }
    out
}

/// Splices `result(σ,h)` of `trigger` into the derivation after index
/// `ell`, returning the spliced sequence (not yet validated). This is
/// the raw transformation of Section 4; [`repair`] chooses `ell` per
/// the paper, while tests use this directly to exhibit how a *bad*
/// choice of `ell` (one not exceeding every element of `A`) breaks the
/// derivation.
pub fn splice_at(
    database: &Instance,
    set: &TgdSet,
    derivation: &Derivation,
    trigger: &Trigger,
    ell: usize,
) -> Derivation {
    let tgd = set.tgd(trigger.tgd);
    let mut all_terms: Vec<Term> = database
        .iter()
        .flat_map(|a| a.args.iter().copied())
        .collect();
    for s in &derivation.steps {
        for a in &s.added {
            all_terms.extend(a.args.iter().copied());
        }
    }
    let mut skolem = SkolemTable::above(SkolemPolicy::PerTrigger, all_terms);
    let result = trigger.result(tgd, &mut skolem);
    let ell = ell.min(derivation.len());
    let mut steps = Vec::with_capacity(derivation.len() + 1);
    steps.extend(derivation.steps[..ell].iter().cloned());
    steps.push(Step {
        trigger: trigger.clone(),
        added: result,
    });
    steps.extend(derivation.steps[ell..].iter().cloned());
    Derivation { steps }
}

/// The result of [`repair`].
#[derive(Debug, Clone)]
pub enum RepairOutcome {
    /// The derivation was already fair within the horizon (possibly
    /// after some rounds); contains the final derivation and the
    /// number of splice rounds performed.
    Fair(Derivation, usize),
    /// `rounds` splices were performed and persistent triggers may
    /// remain; contains the repaired derivation (still valid).
    Partial(Derivation, usize),
    /// A splice produced an invalid derivation — impossible for
    /// single-head TGDs by Lemma 4.5, possible for multi-head TGDs
    /// (Example B.1). Contains the round and the validation fault.
    SpliceInvalid {
        /// Which round failed.
        round: usize,
        /// Why the spliced sequence is not a restricted derivation.
        fault: crate::derivation::DerivationFault,
        /// The invalid spliced derivation, for inspection.
        spliced: Derivation,
    },
}

/// One splice of the Section 4 construction: deactivate the earliest
/// persistent trigger by inserting its result after index `ℓ`.
///
/// Returns `None` if the prefix is already fair within the horizon.
fn splice_once(
    database: &Instance,
    set: &TgdSet,
    derivation: &Derivation,
    round: usize,
    cutoff: usize,
) -> Option<Derivation> {
    let persistent = persistently_active(database, set, derivation);
    let target = persistent.first().filter(|p| p.first_active <= cutoff)?;
    let tgd = set.tgd(target.trigger.tgd);
    // Compute A (Lemma 4.4) using a preview of result(σ,h) with
    // non-colliding nulls; splice_at recomputes the same atoms because
    // the skolem naming is deterministic in the trigger.
    let mut all_terms: Vec<Term> = database
        .iter()
        .flat_map(|a| a.args.iter().copied())
        .collect();
    for s in &derivation.steps {
        for a in &s.added {
            all_terms.extend(a.args.iter().copied());
        }
    }
    let mut skolem = SkolemTable::above(SkolemPolicy::PerTrigger, all_terms);
    let result = target.trigger.result(tgd, &mut skolem);
    let a_max = stopped_indices(set, derivation, &result)
        .last()
        .map(|&i| i + 1)
        .unwrap_or(0);
    let ell = [round, target.first_active, a_max]
        .into_iter()
        .max()
        .unwrap_or(0)
        .saturating_add(1);
    Some(splice_at(database, set, derivation, &target.trigger, ell))
}

/// Performs up to `rounds` splice rounds of the Fairness-Theorem
/// construction, validating each spliced derivation (Lemma 4.5).
///
/// Repair targets triggers whose `first_active` is at most `cutoff`:
/// along an infinite derivation, freshly discovered triggers are
/// always pending, so the construction — like the paper's diagonal —
/// only ever needs to discharge the triggers of a fixed finite past.
pub fn repair(
    database: &Instance,
    set: &TgdSet,
    derivation: &Derivation,
    rounds: usize,
    cutoff: usize,
) -> RepairOutcome {
    let mut current = derivation.clone();
    for round in 0..rounds {
        match splice_once(database, set, &current, round, cutoff) {
            None => return RepairOutcome::Fair(current, round),
            Some(spliced) => match spliced.validate(database, set, false) {
                Ok(_) => current = spliced,
                Err(fault) => {
                    return RepairOutcome::SpliceInvalid {
                        round,
                        fault,
                        spliced,
                    }
                }
            },
        }
    }
    if is_fair_within_horizon(database, set, &current, cutoff) {
        RepairOutcome::Fair(current, rounds)
    } else {
        RepairOutcome::Partial(current, rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restricted::{Budget, Outcome, RestrictedChase, Strategy};
    use chase_core::parser::parse_program;
    use chase_core::vocab::Vocabulary;

    fn setup(src: &str) -> (Vocabulary, TgdSet, Instance) {
        let mut vocab = Vocabulary::new();
        let p = parse_program(src, &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        (vocab, set, p.database)
    }

    /// A single-head set where the PriorityTgd strategy is unfair:
    /// σ0 : R(x,y) -> ∃z R(y,z)   (appliable for ever)
    /// σ1 : R(x,y) -> S(x)        (stays active, never chosen)
    const UNFAIR_SINGLE_HEAD: &str = "
        R(a,b).
        R(x,y) -> exists z. R(y,z).
        R(x,y) -> S(x).
    ";

    #[test]
    fn priority_strategy_is_unfair_here() {
        let (_, set, db) = setup(UNFAIR_SINGLE_HEAD);
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::PriorityTgd)
            .run(&db, Budget::steps(30));
        assert_eq!(run.outcome, Outcome::BudgetExhausted);
        let persistent = persistently_active(&db, &set, &run.derivation(&set));
        assert!(!persistent.is_empty());
        assert_eq!(persistent[0].first_active, 0);
        // σ1's trigger on R(a,b) has been active for the whole run.
        assert_eq!(unfairness_age(&db, &set, &run.derivation(&set)), 30);
        assert!(!is_fair_within_horizon(&db, &set, &run.derivation(&set), 5));
    }

    #[test]
    fn fifo_keeps_unfairness_age_bounded() {
        let (_, set, db) = setup(UNFAIR_SINGLE_HEAD);
        for horizon in [10usize, 20, 40] {
            let run = RestrictedChase::new(&set)
                .strategy(Strategy::Fifo)
                .run(&db, Budget::steps(horizon));
            // Under FIFO the oldest pending trigger was discovered
            // within the last queue-length steps; the age must not
            // grow linearly with the horizon (contrast with the
            // PriorityTgd test above, where age == horizon).
            let age = unfairness_age(&db, &set, &run.derivation(&set));
            assert!(age * 2 <= horizon + 8, "age {age} at horizon {horizon}");
        }
    }

    #[test]
    fn repair_deactivates_old_triggers_single_head() {
        let (_, set, db) = setup(UNFAIR_SINGLE_HEAD);
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::PriorityTgd)
            .run(&db, Budget::steps(20));
        let cutoff = 5;
        assert!(!is_fair_within_horizon(
            &db,
            &set,
            &run.derivation(&set),
            cutoff
        ));
        match repair(&db, &set, &run.derivation(&set), 20, cutoff) {
            RepairOutcome::Fair(fixed, rounds) => {
                assert!(rounds > 0);
                assert_eq!(fixed.len(), run.derivation(&set).len() + rounds);
                // Lemma 4.5: still a valid restricted derivation.
                fixed.validate(&db, &set, false).unwrap();
                assert!(is_fair_within_horizon(&db, &set, &fixed, cutoff));
            }
            other => panic!("expected Fair, got {other:?}"),
        }
    }

    /// Example B.1 rules (multi-head, Fairness Theorem fails).
    const EXAMPLE_B1: &str = "
        R(a,b,b).
        R(x,y,y) -> exists z. R(x,z,y), R(z,y,y).
        R(u,v,w) -> R(w,w,w).
    ";

    #[test]
    fn example_b1_lemma_4_4_fails_for_multi_head() {
        // For multi-head TGDs the set A of Lemma 4.4 can grow without
        // bound: R(b,b,b) stops every σ0-produced atom R(·,b,b).
        let (_, set, db) = setup(EXAMPLE_B1);
        let mut sizes = Vec::new();
        for horizon in [5usize, 10, 20] {
            let run = RestrictedChase::new(&set)
                .strategy(Strategy::PriorityTgd)
                .run(&db, Budget::steps(horizon));
            let persistent = persistently_active(&db, &set, &run.derivation(&set));
            let target = &persistent[0];
            let mut skolem = SkolemTable::above(
                SkolemPolicy::PerTrigger,
                run.instance.iter().flat_map(|a| a.args.iter().copied()),
            );
            let result = target
                .trigger
                .result(set.tgd(target.trigger.tgd), &mut skolem);
            sizes.push(stopped_indices(&set, &run.derivation(&set), &result).len());
        }
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "{sizes:?}");
        // Contrast: for the single-head unfair set, A is empty at any
        // horizon (S-atoms stop nothing).
        let (_, set1, db1) = setup(UNFAIR_SINGLE_HEAD);
        let run1 = RestrictedChase::new(&set1)
            .strategy(Strategy::PriorityTgd)
            .run(&db1, Budget::steps(20));
        let p1 = persistently_active(&db1, &set1, &run1.derivation(&set1));
        let mut skolem = SkolemTable::above(
            SkolemPolicy::PerTrigger,
            run1.instance.iter().flat_map(|a| a.args.iter().copied()),
        );
        let result1 = p1[0]
            .trigger
            .result(set1.tgd(p1[0].trigger.tgd), &mut skolem);
        assert!(stopped_indices(&set1, &run1.derivation(&set1), &result1).is_empty());
    }

    #[test]
    fn example_b1_early_splice_breaks_the_derivation() {
        // Splicing R(b,b,b) anywhere before the end deactivates every
        // later σ0 trigger — the mechanism behind Example B.1.
        let (_, set, db) = setup(EXAMPLE_B1);
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::PriorityTgd)
            .run(&db, Budget::steps(15));
        assert_eq!(run.outcome, Outcome::BudgetExhausted);
        let persistent = persistently_active(&db, &set, &run.derivation(&set));
        let spliced = splice_at(&db, &set, &run.derivation(&set), &persistent[0].trigger, 1);
        match spliced.validate(&db, &set, false) {
            Err(crate::derivation::DerivationFault::NotActive(i)) => assert!(i >= 1),
            other => panic!("expected NotActive fault, got {other:?}"),
        }
        // The paper-prescribed ℓ pushes the splice past every element
        // of A — but A covers the whole prefix here, so the "repair"
        // can only ever append at the horizon, never discharging the
        // trigger relative to a growing tail: Lemma 4.4's finiteness
        // is what the multi-head case lacks.
    }

    #[test]
    fn example_b1_fair_strategies_terminate() {
        // Under any fair strategy, Example B.1's set terminates on
        // {R(a,b,b)}: once R(b,b,b) is derived all σ0 triggers die.
        let (_, set, db) = setup(
            "R(a,b,b).
             R(x,y,y) -> exists z. R(x,z,y), R(z,y,y).
             R(u,v,w) -> R(w,w,w).",
        );
        for strategy in [Strategy::Fifo, Strategy::Random(3), Strategy::Random(99)] {
            let run = RestrictedChase::new(&set)
                .strategy(strategy)
                .run(&db, Budget::steps(10_000));
            assert_eq!(run.outcome, Outcome::Terminated, "{strategy:?}");
        }
    }
}

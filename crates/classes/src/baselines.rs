//! Baseline sufficient conditions for all-instances restricted chase
//! termination, used for the E8 comparison:
//!
//! * weak acyclicity (re-exported from [`crate::weakly_acyclic`]);
//! * termination of the **semi-oblivious** chase on the critical
//!   database (Marnette's criterion: the critical database is critical
//!   for the semi-oblivious chase, and semi-oblivious termination for
//!   every database implies restricted termination for every
//!   database).
//!
//! The chase-based check is budget-bounded: `Holds` proves the
//! criterion, and `BudgetExhausted` means the budget ran out first.
//! That establishes nothing: the chase may saturate under a larger
//! budget, and a set that fails the criterion may still be in
//! `CT^res_∀∀` (`R(x,y) → ∃z R(z,x)` below). Under a governor with a
//! deadline or cancellation token, `Interrupted` reports that the
//! check was stopped before either.
//!
//! [`semi_oblivious_critical_until_cyclic`] is the cheap first pass of
//! the guarded decider: it gives up with `CyclicTerm` at the first
//! cyclic Skolem term (see `chase_engine::skolem`). A cyclic term does
//! not mean the chase diverges, so a caller that needs the answer runs
//! the full check afterwards.

use chase_core::tgd::TgdSet;
use chase_core::vocab::Vocabulary;
use chase_engine::critical::critical_database;
use chase_engine::governor::ResourceGovernor;
use chase_engine::restricted::{
    Budget, ChaseObserver, ChaseRun, ChaseVariant, NullObserver, Outcome, RestrictedChase,
};

/// Outcome of a budget-bounded termination criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CriterionOutcome {
    /// The chase on the critical database reached a fixpoint: the
    /// criterion holds, hence `T ∈ CT^res_∀∀`.
    Holds {
        /// Trigger applications needed to saturate.
        steps: usize,
    },
    /// The budget was exhausted; the criterion is not established.
    BudgetExhausted,
    /// [`semi_oblivious_critical_until_cyclic`] met its first cyclic
    /// Skolem term before the chase saturated; nothing is established
    /// either way.
    CyclicTerm,
    /// A deadline or cancellation (the carried outcome) stopped the
    /// chase first; nothing is established either way.
    Interrupted(Outcome),
}

impl CriterionOutcome {
    /// `true` iff the criterion is established.
    pub fn holds(self) -> bool {
        matches!(self, CriterionOutcome::Holds { .. })
    }
}

/// Checks whether the *semi-oblivious* chase terminates on the
/// critical database within the budget (Marnette's criterion).
pub fn semi_oblivious_critical(
    set: &TgdSet,
    vocab: &mut Vocabulary,
    budget: Budget,
) -> CriterionOutcome {
    semi_oblivious_critical_governed(
        set,
        vocab,
        &ResourceGovernor::from_budget(budget),
        &mut NullObserver,
    )
}

/// [`semi_oblivious_critical`] under a full governor, so a deadline or
/// cancellation stops the check with [`CriterionOutcome::Interrupted`],
/// streaming the chase's events to `obs`.
pub fn semi_oblivious_critical_governed<O: ChaseObserver + ?Sized>(
    set: &TgdSet,
    vocab: &mut Vocabulary,
    gov: &ResourceGovernor,
    obs: &mut O,
) -> CriterionOutcome {
    let db = critical_database(set, vocab);
    criterion(
        RestrictedChase::new(set)
            .variant(ChaseVariant::SemiOblivious)
            .run_governed(&db, gov, obs, None),
    )
}

/// [`semi_oblivious_critical_governed`] that answers
/// [`CriterionOutcome::CyclicTerm`] at the chase's first cyclic Skolem
/// term. Its other answers are the full check's: the stop never cuts a
/// run that ends in them.
pub fn semi_oblivious_critical_until_cyclic<O: ChaseObserver + ?Sized>(
    set: &TgdSet,
    vocab: &mut Vocabulary,
    gov: &ResourceGovernor,
    obs: &mut O,
) -> CriterionOutcome {
    let db = critical_database(set, vocab);
    RestrictedChase::new(set)
        .variant(ChaseVariant::SemiOblivious)
        .run_until_cyclic_term(&db, gov, obs)
        .map_or(CriterionOutcome::CyclicTerm, criterion)
}

/// Reads a critical-database run as a criterion outcome.
fn criterion(run: ChaseRun) -> CriterionOutcome {
    match run.outcome {
        Outcome::Terminated => CriterionOutcome::Holds { steps: run.steps },
        Outcome::BudgetExhausted => CriterionOutcome::BudgetExhausted,
        interrupted @ (Outcome::DeadlineExceeded | Outcome::Cancelled) => {
            CriterionOutcome::Interrupted(interrupted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_tgds;

    /// The semi-oblivious criterion, or (`semi == false`) the same
    /// check under the oblivious chase, a still stronger requirement.
    fn outcome(src: &str, semi: bool) -> CriterionOutcome {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(src, &mut vocab).unwrap();
        let budget = Budget::steps(5_000);
        if semi {
            semi_oblivious_critical(&set, &mut vocab, budget)
        } else {
            let db = critical_database(&set, &mut vocab);
            criterion(
                RestrictedChase::new(&set)
                    .variant(ChaseVariant::Oblivious)
                    .run(&db, budget),
            )
        }
    }

    #[test]
    fn full_tgds_pass_both() {
        let src = "E(x,y), E(y,z) -> E(x,z).";
        assert!(outcome(src, false).holds());
        assert!(outcome(src, true).holds());
    }

    #[test]
    fn intro_rule_separates_the_criteria() {
        // R(x,y) -> ∃z R(x,z): oblivious diverges (new null every
        // round), semi-oblivious terminates (null keyed by frontier x),
        // restricted terminates for all instances. This is the paper's
        // flagship gap between the chase variants.
        let src = "R(x,y) -> exists z. R(x,z).";
        assert_eq!(outcome(src, false), CriterionOutcome::BudgetExhausted);
        assert!(outcome(src, true).holds());
    }

    #[test]
    fn right_recursion_fails_both() {
        let src = "R(x,y) -> exists z. R(y,z).";
        assert_eq!(outcome(src, false), CriterionOutcome::BudgetExhausted);
        assert_eq!(outcome(src, true), CriterionOutcome::BudgetExhausted);
    }

    #[test]
    fn semi_oblivious_divergence_detected() {
        // R(x,y) -> ∃z R(z,x): on the critical database {R(c,c)} the
        // restricted chase stops immediately (z ↦ c satisfies the
        // head), but the semi-oblivious chase keeps inventing nulls —
        // the frontier x takes ever-new values R(n0,c), R(n1,n0), ...
        let src = "R(x,y) -> exists z. R(z,x).";
        assert_eq!(outcome(src, true), CriterionOutcome::BudgetExhausted);
    }
}

//! The critical database (Section 1.2 / [Marnette, PODS'09]).
//!
//! For the **oblivious** chase, the database `D* = {R(c,...,c) : R ∈
//! sch(T)}` is critical: if any database yields an infinite oblivious
//! chase, `D*` already does. The paper stresses that `D*` is *not*
//! critical for the restricted chase — a fact our test below
//! demonstrates and experiment E8 quantifies.

use chase_core::atom::Atom;
use chase_core::instance::Instance;
use chase_core::term::Term;
use chase_core::tgd::TgdSet;
use chase_core::vocab::Vocabulary;

/// Builds the critical database for a TGD set: one atom
/// `R(c, ..., c)` per predicate of `sch(T)`, all sharing one constant.
pub fn critical_database(set: &TgdSet, vocab: &mut Vocabulary) -> Instance {
    let c = Term::Const(vocab.constant("⋆crit"));
    let mut db = Instance::new();
    for &pred in set.schema_preds() {
        let arity = vocab.arity(pred);
        db.insert(Atom::new(pred, vec![c; arity]));
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restricted::{Budget, ChaseVariant, Outcome, RestrictedChase, Strategy};
    use chase_core::parser::parse_program;

    #[test]
    fn critical_db_has_one_atom_per_predicate() {
        let mut vocab = Vocabulary::new();
        let p = parse_program("R(x,y) -> exists z. S(y,z,x).", &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let db = critical_database(&set, &mut vocab);
        assert_eq!(db.len(), 2);
        assert!(db.is_database());
        // All atoms use a single shared constant.
        assert_eq!(db.active_domain().len(), 1);
    }

    #[test]
    fn critical_db_detects_oblivious_divergence() {
        // Intro example: oblivious chase diverges on every non-empty
        // R-database, in particular on D*.
        let mut vocab = Vocabulary::new();
        let p = parse_program("R(x,y) -> exists z. R(x,z).", &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let db = critical_database(&set, &mut vocab);
        let run = RestrictedChase::new(&set)
            .variant(ChaseVariant::Oblivious)
            .run(&db, Budget::steps(100));
        assert_eq!(run.outcome, Outcome::BudgetExhausted);
    }

    #[test]
    fn critical_db_is_not_critical_for_restricted_chase() {
        // R(x,y) -> exists z. R(y,z): the restricted chase diverges on
        // {R(a,b)} but terminates immediately on D* = {R(c,c)} — the
        // paper's "easy exercise" of Section 1.2.
        let mut vocab = Vocabulary::new();
        let p = parse_program("R(x,y) -> exists z. R(y,z).", &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let dstar = critical_database(&set, &mut vocab);
        let on_dstar = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&dstar, Budget::steps(100));
        assert_eq!(on_dstar.outcome, Outcome::Terminated);
        assert_eq!(on_dstar.steps, 0);

        let witness = parse_program("R(a,b).", &mut vocab).unwrap().database;
        let on_witness = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&witness, Budget::steps(100));
        assert_eq!(on_witness.outcome, Outcome::BudgetExhausted);
    }
}

//! An independent decision procedure for **linear** single-head TGDs,
//! used as a cross-check of the sticky automaton (linear sets without
//! repeated body variables are sticky; on that common ground the two
//! procedures must agree).
//!
//! For linear TGDs, restricted chase behaviour from a database factors
//! through its individual atoms: a body is a single atom, so every
//! trigger chain starts at one database atom, and whether a trigger is
//! active depends only on atoms sharing its frontier terms — which,
//! along a linear derivation, all descend from the same start atom (or
//! are other database atoms, which can only *remove* derivations).
//! Consequently the canonical start atoms are the finitely many
//! equality types of `sch(T)` ([Leclère, Mugnier, Thomazo & Ulliana,
//! ICDT 2019] develop the corresponding one-atom critical-instance
//! theory for linear rules).
//!
//! The procedure examines every canonical single-atom database
//! two-sidedly, respecting the fact that `CT^res_∀∀` quantifies over
//! **all** derivation orders (order matters: a full rule can
//! deactivate a recursion that a lazier derivation keeps alive —
//! the first draft of this decider trusted the FIFO order alone and
//! was caught unsound by the random cross-check sweep against the
//! sticky automaton, see `tests/decider_consistency.rs`):
//!
//! * divergence is detected by replaying the chase restricted to rule
//!   *subsets* ([`crate::orders::diverging_subset_run`]) — an infinite
//!   subset derivation is an infinite (unfair) derivation of the full
//!   set, and the Fairness Theorem upgrades it to a fair one;
//! * termination is proven by exhaustive memoised search over the
//!   entire derivation space ([`crate::orders::all_orders_terminate`]).

use chase_core::eqtype::EqType;
use chase_core::instance::Instance;
use chase_core::tgd::TgdSet;
use chase_core::vocab::Vocabulary;
use chase_engine::restricted::{Budget, RestrictedChase, Strategy};
use tgd_classes::guarded::all_linear;

use crate::common::{
    DeciderConfig, NonTerminationWitness, TerminationCertificate, TerminationVerdict,
};
use crate::partitions::set_partitions;

/// The number of distinct "shapes" a derived atom can take: equality
/// type × constant/null pattern, summed over the schema. A safe
/// pumping bound for linear chains.
fn shape_bound(set: &TgdSet, vocab: &Vocabulary) -> usize {
    let mut total = 0usize;
    for &pred in set.schema_preds() {
        let a = vocab.arity(pred);
        let partitions = set_partitions(a).len();
        total += partitions << a; // × 2^a constant masks
    }
    total.max(4)
}

/// Decides `CT^res_∀∀` for a linear single-head TGD set by chasing the
/// canonical one-atom databases.
pub fn decide_linear(
    set: &TgdSet,
    vocab: &Vocabulary,
    config: &DeciderConfig,
) -> TerminationVerdict {
    if set.require_single_head().is_err() || !all_linear(set) {
        return TerminationVerdict::Unknown {
            reason: "decide_linear requires single-head linear TGDs".into(),
        };
    }
    let bound = shape_bound(set, vocab);
    let budget = Budget::steps((bound * set.len() * 4).max(config.chase_budget));
    // `CT^res_∀∀` quantifies over every derivation order, and order
    // matters (a full rule can deactivate a recursion that a lazier
    // derivation keeps alive — see `crate::orders`). So each canonical
    // atom is checked two-sidedly: subset runs detect divergence, and
    // an exhaustive derivation-space search proves all-orders
    // termination.
    let order_limits = crate::orders::OrderSearchLimits {
        max_states: 50_000,
        max_depth: (4 * bound).clamp(32, 256),
    };
    let mut scratch = vocab.clone();
    let mut seeds = 0usize;
    for &pred in set.schema_preds() {
        let arity = scratch.arity(pred);
        for classes in set_partitions(arity) {
            let ty = EqType { pred, classes };
            // Canonical atom with distinct constants per class.
            let class_count = ty.class_count();
            let consts: Vec<chase_core::term::Term> = (0..class_count)
                .map(|k| {
                    chase_core::term::Term::Const(scratch.constant(&format!("⋆lin_{}_{k}", pred.0)))
                })
                .collect();
            let atom = chase_core::atom::Atom::new(
                pred,
                ty.classes
                    .iter()
                    .map(|&c| consts[c as usize])
                    .collect::<chase_core::atom::ArgVec>(),
            );
            let db = Instance::from_atoms([atom]);
            seeds += 1;
            // Non-termination: a diverging subset run is an infinite
            // (possibly unfair) derivation of the full set.
            if let Some((subset, run)) =
                crate::orders::diverging_subset_run(set, &scratch, &db, budget)
            {
                let evidence = {
                    let sub_tgds: Vec<chase_core::tgd::Tgd> =
                        subset.iter().map(|&i| set.tgds()[i].clone()).collect();
                    let sub_set = chase_core::tgd::TgdSet::new(sub_tgds, &scratch)
                        .expect("subset of a valid set");
                    let short = RestrictedChase::new(&sub_set)
                        .strategy(Strategy::Fifo)
                        .run(&db, Budget::steps(config.witness_steps));
                    crate::orders::relabel_subset_derivation(&subset, &short.derivation(&sub_set))
                };
                if evidence.validate(&db, set, false).is_ok() {
                    let _ = run;
                    return TerminationVerdict::NonTerminating(Box::new(NonTerminationWitness {
                        database: db,
                        derivation: evidence,
                        description: format!(
                            "linear chase from canonical atom of equality type {ty:?} \
                                 diverges using rule subset {subset:?} (shape bound {bound})"
                        ),
                        finitary: true,
                    }));
                }
                return TerminationVerdict::Unknown {
                    reason: "linear witness failed validation (bug?)".into(),
                };
            }
            // Termination: every derivation order from this atom ends.
            match crate::orders::all_orders_terminate(set, &db, order_limits) {
                Some(true) => continue,
                Some(false) => {
                    return TerminationVerdict::Unknown {
                        reason: format!(
                            "derivation-space search found a deep branch from {ty:?} but no \
                             subset run confirmed divergence"
                        ),
                    }
                }
                None => {
                    return TerminationVerdict::Unknown {
                        reason: "derivation-space state cap reached".into(),
                    }
                }
            }
        }
    }
    TerminationVerdict::AllInstancesTerminating(TerminationCertificate::ExhaustedSearch { seeds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sticky::decide_sticky;
    use chase_core::parser::parse_tgds;

    fn both(src: &str) -> (TerminationVerdict, TerminationVerdict) {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(src, &mut vocab).unwrap();
        let config = DeciderConfig::default();
        (
            decide_linear(&set, &vocab, &config),
            decide_sticky(&set, &vocab, &config),
        )
    }

    #[test]
    fn agrees_with_sticky_on_classics() {
        for (src, terminating) in [
            ("R(x,y) -> exists z. R(x,z).", true),
            ("R(x,y) -> exists z. R(y,z).", false),
            ("R(x,y) -> exists z. R(z,x).", false),
            ("R(x,y) -> R(y,x).", true),
            (
                "A(x,y) -> exists z. B(y,z). B(u,v) -> exists w. A(v,w).",
                false,
            ),
            (
                "A(x,y) -> exists z. B(x,z). B(u,v) -> exists w. A(u,w).",
                true,
            ),
            ("G(x,y) -> exists z. G(z,z).", true),
            ("A(x) -> exists y. A(y).", true),
        ] {
            let (lin, sticky) = both(src);
            assert_eq!(
                lin.is_terminating(),
                terminating,
                "linear on {src}: {lin:?}"
            );
            assert_eq!(
                sticky.is_terminating(),
                terminating,
                "sticky on {src}: {sticky:?}"
            );
            assert_eq!(
                lin.is_terminating(),
                sticky.is_terminating(),
                "deciders disagree on {src}"
            );
        }
    }

    #[test]
    fn non_linear_input_refused() {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds("R(x,y), S(y) -> T(x).", &mut vocab).unwrap();
        assert!(decide_linear(&set, &vocab, &DeciderConfig::default()).is_unknown());
    }

    #[test]
    fn repeated_position_start_atoms_matter() {
        // R(x,x) -> ∃z R(x,z): on R(a,b) nothing fires... wait, the
        // body requires a *reflexive* atom, so the canonical databases
        // of type [0,0] drive the behaviour: R(a,a) fires R(a,ν),
        // then R(ν,?) does not match the body (ν,ν required). One step
        // and done — terminating.
        let (lin, sticky) = both("R(x,x) -> exists z. R(x,z).");
        assert!(lin.is_terminating(), "{lin:?}");
        assert!(sticky.is_terminating(), "{sticky:?}");
    }
}

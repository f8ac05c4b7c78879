//! Cores of instances: the minimal universal models underneath chase
//! results.
//!
//! The restricted chase builds smaller instances than the oblivious
//! chase (the paper's §1 selling point), but neither is minimal in
//! general. The *core* of an instance `I` is a ⊆-minimal retract — a
//! sub-instance `C ⊆ I` with a homomorphism `I → C` that is the
//! identity on `C`. Cores of universal models are the canonical
//! minimal universal models; computing them here lets experiment E9
//! quantify how far each chase variant is from minimal.

use std::ops::ControlFlow;

use chase_core::atom::Atom;
use chase_core::hom::for_each_homomorphism;
use chase_core::ids::{fx_map, FxHashMap, NullId, VarId};
use chase_core::instance::Instance;
use chase_core::subst::Binding;
use chase_core::term::Term;

/// Searches for an endomorphism `I → I` (constants fixed, every null
/// free to move) that eliminates the null `prey`, i.e. maps it to a
/// different term; returns the folded instance if one exists.
///
/// Iterating this per null reaches the core: an instance that is not a
/// core admits an idempotent proper retraction, which necessarily
/// moves (hence eliminates) at least one null.
fn retract_away(instance: &Instance, prey: NullId) -> Option<Instance> {
    // Replace every null by a dedicated variable.
    let mut var_of: FxHashMap<NullId, VarId> = fx_map();
    let mut next = 0u32;
    let patterns: Vec<Atom> = instance
        .iter()
        .map(|a| {
            Atom::new(
                a.pred,
                a.args
                    .iter()
                    .map(|&t| match t {
                        Term::Null(n) => {
                            let v = *var_of.entry(n).or_insert_with(|| {
                                let v = VarId(u32::MAX - next);
                                next += 1;
                                v
                            });
                            Term::Var(v)
                        }
                        ground => ground,
                    })
                    .collect::<chase_core::atom::ArgVec>(),
            )
        })
        .collect();
    let prey_var = *var_of.get(&prey)?;
    let mut result = None;
    let mut binding = Binding::new();
    let _ = for_each_homomorphism(&patterns, instance, &mut binding, |h| {
        if h.get(prey_var) == Some(Term::Null(prey)) {
            return ControlFlow::Continue(()); // prey not eliminated; keep searching
        }
        let folded: Vec<Atom> = patterns.iter().map(|p| h.apply_atom(p)).collect();
        // Guard against permutations: some *other* null could have
        // been mapped onto `prey`, leaving the null count unchanged
        // and the loop non-terminating. Accept only genuine shrinkage.
        let prey_survives = folded.iter().any(|a| a.args.contains(&Term::Null(prey)));
        if prey_survives {
            return ControlFlow::Continue(());
        }
        result = Some(Instance::from_atoms(folded));
        ControlFlow::Break(())
    });
    result
}

/// Computes the core of `instance` by repeatedly retracting away
/// single nulls until no null can be eliminated. Exponential-ish in
/// the worst case (core computation is intractable in general); meant
/// for the modest instances chase experiments produce.
pub fn core_of(instance: &Instance) -> Instance {
    let mut current = instance.clone();
    loop {
        let nulls: Vec<NullId> = {
            let mut seen = fx_map();
            let mut out = Vec::new();
            for atom in current.iter() {
                for &t in atom.args {
                    if let Term::Null(n) = t {
                        if seen.insert(n, ()).is_none() {
                            out.push(n);
                        }
                    }
                }
            }
            let _: &FxHashMap<NullId, ()> = &seen;
            out
        };
        let mut changed = false;
        for prey in nulls {
            if let Some(smaller) = retract_away(&current, prey) {
                current = smaller;
                changed = true;
                break; // null set changed; recompute
            }
        }
        if !changed {
            return current;
        }
    }
}

/// Whether `instance` is its own core (no null can be retracted away).
pub fn is_core(instance: &Instance) -> bool {
    core_of(instance).len() == instance.len()
        && core_of(instance).iter().all(|a| instance.contains(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restricted::{Budget, ChaseVariant, Outcome, RestrictedChase, Strategy};
    use chase_core::hom::ground_homomorphism_exists;
    use chase_core::ids::{ConstId, PredId};
    use chase_core::parser::parse_program;
    use chase_core::vocab::Vocabulary;

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }

    fn n(i: u32) -> Term {
        Term::Null(NullId(i))
    }

    fn atom(p: u32, args: &[Term]) -> Atom {
        Atom::new(PredId(p), args.to_vec())
    }

    #[test]
    fn redundant_null_folds_onto_constant() {
        // {R(a,b), R(a,ν0)}: ν0 folds onto b.
        let inst = Instance::from_atoms([atom(0, &[c(0), c(1)]), atom(0, &[c(0), n(0)])]);
        let core = core_of(&inst);
        assert_eq!(core.len(), 1);
        assert!(core.contains(&atom(0, &[c(0), c(1)])));
    }

    #[test]
    fn necessary_null_survives() {
        // {R(a,ν0)} with no constant alternative: the null stays.
        let inst = Instance::from_atoms([atom(0, &[c(0), n(0)])]);
        let core = core_of(&inst);
        assert_eq!(core.len(), 1);
        assert!(is_core(&inst));
    }

    #[test]
    fn null_chain_collapses() {
        // {E(a,ν0), E(ν0,ν1), E(a,a)}: everything folds onto E(a,a).
        let inst = Instance::from_atoms([
            atom(0, &[c(0), n(0)]),
            atom(0, &[n(0), n(1)]),
            atom(0, &[c(0), c(0)]),
        ]);
        let core = core_of(&inst);
        assert_eq!(core.len(), 1);
        assert!(core.contains(&atom(0, &[c(0), c(0)])));
    }

    #[test]
    fn oblivious_result_cores_down_to_restricted_size() {
        // Emp workload: the oblivious chase invents one manager per
        // employee, the restricted chase one per department; the core
        // of the oblivious result is exactly as small as the
        // restricted result.
        let mut vocab = Vocabulary::new();
        let p = parse_program(
            "Emp(p1,d). Emp(p2,d). Emp(p3,d).
             Emp(e,d) -> exists m. Mgr(d,m).",
            &mut vocab,
        )
        .unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let restricted = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&p.database, Budget::steps(1_000));
        let oblivious = RestrictedChase::new(&set)
            .variant(ChaseVariant::Oblivious)
            .run(&p.database, Budget::steps(1_000));
        assert_eq!(restricted.outcome, Outcome::Terminated);
        assert_eq!(oblivious.outcome, Outcome::Terminated);
        assert_eq!(restricted.instance.len(), 4); // 3 Emp + 1 Mgr
        assert_eq!(oblivious.instance.len(), 6); // 3 Emp + 3 Mgr
        let core = core_of(&oblivious.instance);
        assert_eq!(core.len(), restricted.instance.len());
        // The core and the restricted result are homomorphically
        // equivalent universal models.
        assert!(ground_homomorphism_exists(&core, &restricted.instance));
        assert!(ground_homomorphism_exists(&restricted.instance, &core));
    }

    #[test]
    fn core_is_idempotent() {
        let inst = Instance::from_atoms([
            atom(0, &[c(0), n(0)]),
            atom(0, &[c(0), n(1)]),
            atom(1, &[n(1)]),
        ]);
        let once = core_of(&inst);
        let twice = core_of(&once);
        assert_eq!(once, twice);
        assert!(is_core(&once));
    }
}

//! Chaseable sets (Definition 5.2) and the constructive direction of
//! Theorem 5.3: converting a chaseable subset of the real oblivious
//! chase into a restricted chase derivation, and vice versa.
//!
//! The paper's chaseable sets are generally infinite; on finite
//! fragments condition (1) (finitely many `≺b`-predecessors) is
//! automatic and the interesting content is conditions (2)
//! (parent-closure) and (3) (acyclicity of `≺b`).

#[allow(unused_imports)]
use chase_core::ids::fx_map;
use chase_core::ids::fx_set;
use chase_core::instance::Instance;
use chase_core::tgd::TgdSet;

use crate::derivation::{Derivation, Step};
use crate::real_oblivious::{NodeId, RealOchase};
use crate::relations::OchaseRelations;

/// Why a vertex set fails to be chaseable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaseableFault {
    /// Condition (2): `member`'s parent `parent` is outside the set.
    MissingParent {
        /// The offending member.
        member: NodeId,
        /// Its parent not in the set.
        parent: NodeId,
    },
    /// Condition (3): `≺b` restricted to the set has a cycle.
    BeforeCycle,
    /// Two members carry the same atom; copies stop each other, so
    /// this always induces a `≺b` cycle (reported separately for
    /// better diagnostics).
    DuplicateAtom(NodeId, NodeId),
}

/// Checks Definition 5.2 on a finite set of vertices. On success,
/// returns a `≺b`-topological order of the members, which is exactly
/// the order in which the extraction of Theorem 5.3 generates them.
pub fn check_chaseable(
    fragment: &RealOchase,
    relations: &OchaseRelations,
    members: &[NodeId],
) -> Result<Vec<NodeId>, ChaseableFault> {
    let member_set: chase_core::ids::FxHashSet<NodeId> = members.iter().copied().collect();
    // Duplicate atoms (diagnostic refinement of condition (3): copies
    // of the same atom stop each other, giving a ≺b cycle).
    let mut seen: chase_core::ids::FxHashMap<chase_core::atom::Atom, NodeId> =
        chase_core::ids::fx_map();
    for &m in members {
        let atom = fragment.node(m).atom.clone();
        if let Some(&first) = seen.get(&atom) {
            return Err(ChaseableFault::DuplicateAtom(first, m));
        }
        seen.insert(atom, m);
    }
    // Condition (2): parent-closure.
    for &m in members {
        for &p in &fragment.node(m).parents {
            if !member_set.contains(&p) {
                return Err(ChaseableFault::MissingParent {
                    member: m,
                    parent: p,
                });
            }
        }
    }
    // Condition (3): acyclicity of ≺b over the members.
    relations
        .topo_order(members)
        .ok_or(ChaseableFault::BeforeCycle)
}

/// Theorem 5.3, direction (2) ⇒ (1): extracts a restricted chase
/// derivation generating exactly the non-database members of a
/// chaseable set. The derivation starts from the fragment's database.
///
/// Follows the proof: repeatedly emit a `≺b`-minimal not-yet-emitted
/// member; the proof guarantees its trigger is active at that point.
pub fn derivation_from_chaseable(
    fragment: &RealOchase,
    relations: &OchaseRelations,
    members: &[NodeId],
    _set: &TgdSet,
) -> Result<Derivation, ChaseableFault> {
    let order = check_chaseable(fragment, relations, members)?;
    let mut steps = Vec::new();
    for id in order {
        let node = fragment.node(id);
        if let Some(trigger) = &node.trigger {
            steps.push(Step {
                trigger: trigger.clone(),
                added: vec![node.atom.clone()],
            });
        }
    }
    Ok(Derivation { steps })
}

/// Theorem 5.3, direction (1) ⇒ (2): maps a recorded restricted chase
/// derivation (from the fragment's database) to the corresponding
/// vertex set of the real oblivious chase — database vertices plus, in
/// order, one vertex per step. Returns `None` if a step's atom/trigger
/// cannot be located in the (possibly truncated) fragment.
pub fn chaseable_from_derivation(
    fragment: &RealOchase,
    derivation: &Derivation,
    set: &TgdSet,
) -> Option<Vec<NodeId>> {
    let mut members: Vec<NodeId> = fragment.database_nodes().collect();
    let mut chosen = fx_set();
    for m in &members {
        chosen.insert(*m);
    }
    for step in &derivation.steps {
        let key = step.trigger.key(set.tgd(step.trigger.tgd));
        // Find a fragment vertex generated by the same trigger whose
        // parents are already chosen.
        let found = fragment.iter().find(|(id, node)| {
            !chosen.contains(id)
                && node
                    .trigger
                    .as_ref()
                    .map(|t| t.key(set.tgd(t.tgd)) == key)
                    .unwrap_or(false)
                && node.parents.iter().all(|p| chosen.contains(p))
        });
        let (id, _) = found?;
        chosen.insert(id);
        members.push(id);
    }
    Some(members)
}

/// Convenience: runs the whole round-trip of Theorem 5.3 on a recorded
/// derivation — derivation → chaseable set (checked) → re-extracted
/// derivation (validated against the database). Returns the size of
/// the chaseable set. Used by tests and experiment E4.
pub fn roundtrip_theorem_5_3(
    database: &Instance,
    set: &TgdSet,
    derivation: &Derivation,
    fragment: &RealOchase,
) -> Result<usize, String> {
    let relations = OchaseRelations::compute(fragment, set);
    let members = chaseable_from_derivation(fragment, derivation, set)
        .ok_or("derivation not embeddable in fragment")?;
    check_chaseable(fragment, &relations, &members).map_err(|f| format!("{f:?}"))?;
    let extracted = derivation_from_chaseable(fragment, &relations, &members, set)
        .map_err(|f| format!("{f:?}"))?;
    // The extracted derivation must be valid from the same database.
    extracted
        .validate(database, set, false)
        .map_err(|f| format!("extracted derivation invalid: {f}"))?;
    if extracted.len() != derivation.len() {
        return Err(format!(
            "length mismatch: original {} vs extracted {}",
            derivation.len(),
            extracted.len()
        ));
    }
    Ok(members.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real_oblivious::OchaseLimits;
    use crate::restricted::{Budget, RestrictedChase, Strategy};
    use chase_core::parser::parse_program;
    use chase_core::vocab::Vocabulary;

    fn setup(src: &str) -> (Vocabulary, TgdSet, Instance) {
        let mut vocab = Vocabulary::new();
        let p = parse_program(src, &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        (vocab, set, p.database)
    }

    #[test]
    fn derivation_roundtrips_through_chaseable_set() {
        let (_, set, db) = setup(
            "E(a,b). E(b,c).
             E(x,y) -> exists z. F(x,z).
             F(u,v) -> G(u).",
        );
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&db, Budget::steps(100));
        let fragment = RealOchase::build(&db, &set, OchaseLimits::default());
        assert!(fragment.complete);
        let n = roundtrip_theorem_5_3(&db, &set, &run.derivation(&set), &fragment).unwrap();
        assert_eq!(n, db.len() + run.derivation(&set).len());
    }

    #[test]
    fn parent_closure_violation_detected() {
        let (_, set, db) = setup("P(a,b). P(x,y) -> Q(y). Q(u) -> S(u).");
        let fragment = RealOchase::build(&db, &set, OchaseLimits::default());
        let relations = OchaseRelations::compute(&fragment, &set);
        // Take the S-vertex without its Q-parent.
        let s_node = fragment
            .iter()
            .find(|(_, n)| !n.parents.is_empty() && fragment.node(n.parents[0]).trigger.is_some())
            .map(|(id, _)| id)
            .unwrap();
        let db0: Vec<NodeId> = fragment.database_nodes().collect();
        let members = vec![db0[0], s_node];
        assert!(matches!(
            check_chaseable(&fragment, &relations, &members),
            Err(ChaseableFault::MissingParent { .. })
        ));
    }

    #[test]
    fn duplicate_atoms_rejected() {
        let (vocab, set, db) = setup(
            "P(a,b).
             P(x1,y1) -> R(x1,y1).
             P(x2,y2) -> S(x2).
             R(x3,y3) -> S(x3).
             S(x4) -> exists y4. R(x4,y4).",
        );
        let fragment = RealOchase::build(
            &db,
            &set,
            OchaseLimits {
                max_nodes: 100,
                max_depth: 2,
            },
        );
        let relations = OchaseRelations::compute(&fragment, &set);
        let s = vocab.lookup_pred("S").unwrap();
        let r = vocab.lookup_pred("R").unwrap();
        // Database atoms, both S(a) copies, and the ground R(a,b) atom
        // (so parents are closed).
        let mut members: Vec<NodeId> = fragment.database_nodes().collect();
        for (id, n) in fragment.iter() {
            let ground_r = n.atom.pred == r && n.atom.args.iter().all(|t| t.is_const());
            if n.trigger.is_some() && (n.atom.pred == s || ground_r) {
                members.push(id);
            }
        }
        members.sort();
        let err = check_chaseable(&fragment, &relations, &members).unwrap_err();
        assert!(matches!(err, ChaseableFault::DuplicateAtom(_, _)));
    }

    #[test]
    fn extraction_validates_on_linear_growth() {
        // Non-terminating single rule; a finite prefix is chaseable.
        let (_, set, db) = setup("R(a,b). R(x,y) -> exists z. R(y,z).");
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&db, Budget::steps(8));
        let fragment = RealOchase::build(
            &db,
            &set,
            OchaseLimits {
                max_nodes: 1000,
                max_depth: 12,
            },
        );
        let n = roundtrip_theorem_5_3(&db, &set, &run.derivation(&set), &fragment).unwrap();
        assert_eq!(n, 1 + 8);
    }
}

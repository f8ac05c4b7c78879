//! The *real* oblivious chase (Definition 3.3): a labelled directed
//! graph whose vertices carry atoms and generating triggers, with an
//! unambiguous parent relation `≺p`.
//!
//! Unlike the oblivious chase (a set of atoms), the real oblivious
//! chase is a *multiset*: a fresh vertex is created for every
//! `(σ, h, parent-tuple)` combination, even when the produced atom
//! already exists (Example 3.4). The full object is usually infinite,
//! so [`RealOchase::build`] constructs the fragment up to configurable
//! depth/size limits and reports whether it is complete.

use std::ops::ControlFlow;

use chase_core::atom::Atom;
use chase_core::hom::for_each_homomorphism;
use chase_core::ids::{fx_map, fx_set, FxHashMap};
use chase_core::instance::Instance;
use chase_core::subst::Binding;
use chase_core::term::Term;
use chase_core::tgd::{TgdId, TgdSet};
use chase_telemetry::{emit, emit_detail, ChaseObserver, EngineKind, Event, NullObserver};

use crate::skolem::{SkolemPolicy, SkolemTable};
use crate::trigger::Trigger;

/// A vertex of the real oblivious chase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A labelled vertex: its atom `λ(v)`, its generating trigger `τ(v)`
/// (`None` = `⊥` for database atoms) and its parents.
#[derive(Debug, Clone)]
pub struct OchaseNode {
    /// `λ(v)`.
    pub atom: Atom,
    /// `τ(v)`; `None` for database atoms.
    pub trigger: Option<Trigger>,
    /// The parent vertices `{u : u ≺p v}`, in body-atom order.
    pub parents: Vec<NodeId>,
    /// Distance from the database: 0 for database atoms, otherwise
    /// `1 + max(parent depths)`.
    pub depth: usize,
}

/// Construction limits for the (generally infinite) real oblivious
/// chase.
#[derive(Debug, Clone, Copy)]
pub struct OchaseLimits {
    /// Stop after creating this many vertices.
    pub max_nodes: usize,
    /// Do not create vertices deeper than this.
    pub max_depth: usize,
}

impl Default for OchaseLimits {
    fn default() -> Self {
        OchaseLimits {
            max_nodes: 10_000,
            max_depth: 16,
        }
    }
}

/// A finite fragment of `ochase(D, T)`.
#[derive(Debug, Clone)]
pub struct RealOchase {
    nodes: Vec<OchaseNode>,
    /// Number of database vertices (a prefix of `nodes`).
    db_nodes: usize,
    /// Whether the fragment is the entire real oblivious chase (the
    /// fixpoint was reached within the limits).
    pub complete: bool,
}

impl RealOchase {
    /// Builds the fragment of `ochase(database, set)` within `limits`.
    pub fn build(database: &Instance, set: &TgdSet, limits: OchaseLimits) -> Self {
        Self::build_observed(database, set, limits, &mut NullObserver)
    }

    /// Builds the fragment, streaming telemetry [`Event`]s to `obs`:
    /// one `trigger_applied` per created vertex group, plus
    /// `atom_inserted` (with `fresh` = the atom is new to the
    /// *distinct-atom* view) and `null_invented` events. The `step`
    /// field carries the vertex count at emission time.
    pub fn build_observed<O: ChaseObserver + ?Sized>(
        database: &Instance,
        set: &TgdSet,
        limits: OchaseLimits,
        obs: &mut O,
    ) -> Self {
        const ENGINE: EngineKind = EngineKind::RealOblivious;
        let mut nodes: Vec<OchaseNode> = Vec::new();
        // Distinct-atom view used for homomorphism search, plus the
        // vertices carrying each atom.
        let mut inst = Instance::new();
        let mut nodes_of_atom: FxHashMap<Atom, Vec<NodeId>> = fx_map();
        let mut skolem = SkolemTable::above(
            SkolemPolicy::PerTrigger,
            database.iter().flat_map(|a| a.args.iter().copied()),
        );
        // Dedup of created vertices by (tgd, trigger key, parent tuple).
        let mut created = fx_set();

        for atom in database.iter() {
            let atom = atom.to_atom();
            let id = NodeId(nodes.len() as u32);
            nodes.push(OchaseNode {
                atom: atom.clone(),
                trigger: None,
                parents: Vec::new(),
                depth: 0,
            });
            inst.insert(atom.clone());
            nodes_of_atom.entry(atom.clone()).or_default().push(id);
        }
        let db_nodes = nodes.len();

        let mut complete = true;
        loop {
            // Enumerate all triggers over the current distinct atoms.
            let mut pending: Vec<(TgdId, Binding)> = Vec::new();
            for (tgd_id, tgd) in set.iter() {
                let mut binding = Binding::new();
                let _ = for_each_homomorphism(tgd.body(), &inst, &mut binding, |b| {
                    pending.push((tgd_id, b.clone()));
                    ControlFlow::Continue(())
                });
            }
            let mut grew = false;
            for (tgd_id, binding) in pending {
                let tgd = set.tgd(tgd_id);
                let trigger = Trigger {
                    tgd: tgd_id,
                    binding,
                };
                // Ground body atoms, then the vertex tuples carrying them.
                let grounded: Vec<Atom> = tgd
                    .body()
                    .iter()
                    .map(|a| trigger.binding.apply_atom(a))
                    .collect();
                let choices: Vec<Vec<NodeId>> = grounded
                    .iter()
                    .map(|a| nodes_of_atom.get(a).cloned().unwrap_or_default())
                    .collect();
                if choices.iter().any(|c| c.is_empty()) {
                    continue;
                }
                let trig_key = trigger.key(tgd);
                // Iterate the cartesian product of parent choices.
                let mut idx = vec![0usize; choices.len()];
                'product: loop {
                    let parents: Vec<NodeId> =
                        idx.iter().zip(choices.iter()).map(|(&i, c)| c[i]).collect();
                    let depth = 1 + parents
                        .iter()
                        .map(|p| nodes[p.index()].depth)
                        .max()
                        .unwrap_or(0);
                    if depth <= limits.max_depth {
                        let key = (trig_key.clone(), parents.clone());
                        if created.insert(key) {
                            if nodes.len() >= limits.max_nodes {
                                complete = false;
                                break 'product;
                            }
                            let nulls_before = skolem.invented();
                            let result = {
                                let atoms = trigger.result(tgd, &mut skolem);
                                debug_assert_eq!(atoms.len(), tgd.head().len());
                                atoms
                            };
                            let nulls_after = skolem.invented();
                            // The real oblivious chase of the paper is
                            // defined for single-head TGDs; for
                            // multi-head we create one vertex per head
                            // atom sharing the parents.
                            let mut fresh_atoms = 0u32;
                            for atom in result {
                                let id = NodeId(nodes.len() as u32);
                                nodes.push(OchaseNode {
                                    atom: atom.clone(),
                                    trigger: Some(trigger.clone()),
                                    parents: parents.clone(),
                                    depth,
                                });
                                let pred = atom.pred.0;
                                let (_, fresh) = inst.insert(atom.clone());
                                emit_detail(obs, || Event::AtomInserted {
                                    engine: ENGINE,
                                    predicate: pred,
                                    step: nodes.len() as u64,
                                    fresh,
                                });
                                if fresh {
                                    fresh_atoms += 1;
                                }
                                nodes_of_atom.entry(atom).or_default().push(id);
                                grew = true;
                            }
                            for null in nulls_before..nulls_after {
                                emit_detail(obs, || Event::NullInvented {
                                    engine: ENGINE,
                                    null,
                                    step: nodes.len() as u64,
                                });
                            }
                            emit(obs, || Event::TriggerApplied {
                                engine: ENGINE,
                                tgd: trigger.tgd.0,
                                step: nodes.len() as u64,
                                new_atoms: fresh_atoms,
                                new_nulls: nulls_after - nulls_before,
                            });
                        }
                    } else {
                        complete = false;
                    }
                    // Advance the product counter.
                    let mut k = 0;
                    loop {
                        if k == idx.len() {
                            break 'product;
                        }
                        idx[k] += 1;
                        if idx[k] < choices[k].len() {
                            break;
                        }
                        idx[k] = 0;
                        k += 1;
                    }
                }
                if nodes.len() >= limits.max_nodes {
                    complete = false;
                    break;
                }
            }
            if !grew || nodes.len() >= limits.max_nodes {
                if nodes.len() >= limits.max_nodes {
                    complete = false;
                }
                break;
            }
        }
        RealOchase {
            nodes,
            db_nodes,
            complete,
        }
    }

    /// All vertices.
    pub fn nodes(&self) -> &[OchaseNode] {
        &self.nodes
    }

    /// The vertex with the given identifier.
    pub fn node(&self, id: NodeId) -> &OchaseNode {
        &self.nodes[id.index()]
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fragment has no vertices.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Identifiers of the database vertices (the roots).
    pub fn database_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.db_nodes).map(|i| NodeId(i as u32))
    }

    /// Whether `id` is a database vertex.
    pub fn is_database_node(&self, id: NodeId) -> bool {
        id.index() < self.db_nodes
    }

    /// Iterates over `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &OchaseNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// The set of *distinct* atoms of the fragment — this coincides
    /// with (a fragment of) the plain oblivious chase.
    pub fn atom_set(&self) -> Instance {
        Instance::from_atoms(self.nodes.iter().map(|n| n.atom.clone()))
    }

    /// How many vertices carry each atom (multiset view).
    pub fn multiplicity(&self, atom: &Atom) -> usize {
        self.nodes.iter().filter(|n| &n.atom == atom).count()
    }

    /// The guard-parent of a node: the parent matched to the guard
    /// atom of the generating TGD, per the given guard index lookup.
    /// `guard_index(tgd)` must return the body position of the guard.
    pub fn guard_parent(
        &self,
        id: NodeId,
        guard_index: impl Fn(TgdId) -> Option<usize>,
    ) -> Option<NodeId> {
        let node = self.node(id);
        let trigger = node.trigger.as_ref()?;
        let gi = guard_index(trigger.tgd)?;
        node.parents.get(gi).copied()
    }

    /// All terms occurring in the fragment.
    pub fn terms(&self) -> Vec<Term> {
        self.atom_set().active_domain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_program;
    use chase_core::vocab::Vocabulary;

    /// Example 3.2/3.4 of the paper.
    fn example_3_2() -> (Vocabulary, TgdSet, Instance) {
        let mut vocab = Vocabulary::new();
        let p = parse_program(
            "P(a,b).
             P(x1,y1) -> R(x1,y1).
             P(x2,y2) -> S(x2).
             R(x3,y3) -> S(x3).
             S(x4) -> exists y4. R(x4,y4).",
            &mut vocab,
        )
        .unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        (vocab, set, p.database)
    }

    #[test]
    fn example_3_4_multiplicities() {
        let (mut vocab, set, db) = example_3_2();
        let fragment = RealOchase::build(
            &db,
            &set,
            OchaseLimits {
                max_nodes: 1000,
                max_depth: 2,
            },
        );
        // Up to depth 2, S(a) is produced twice: by σ2 from P(a,b) and
        // by σ3 from R(a,b). (Deeper fragments add further copies via
        // R(a,c); the full real oblivious chase is infinite.)
        let s = vocab.lookup_pred("S").unwrap();
        let a = chase_core::term::Term::Const(vocab.constant("a"));
        let s_a = Atom::new(s, vec![a]);
        assert_eq!(fragment.multiplicity(&s_a), 2);
        // The two S(a) vertices have different parents.
        let s_nodes: Vec<_> = fragment.iter().filter(|(_, n)| n.atom == s_a).collect();
        assert_eq!(s_nodes.len(), 2);
        let p0 = fragment.node(s_nodes[0].1.parents[0]).atom.clone();
        let p1 = fragment.node(s_nodes[1].1.parents[0]).atom.clone();
        assert_ne!(p0, p1);
        // Example 3.4 continues for ever; any bounded depth is a
        // strict fragment.
        assert!(!fragment.complete);
    }

    #[test]
    fn atom_set_matches_oblivious_chase() {
        let (_, set, db) = example_3_2();
        let fragment = RealOchase::build(
            &db,
            &set,
            OchaseLimits {
                max_nodes: 100_000,
                max_depth: 4,
            },
        );
        let oblivious = crate::restricted::RestrictedChase::new(&set)
            .variant(crate::restricted::ChaseVariant::Oblivious)
            .run(&db, crate::restricted::Budget::steps(100_000));
        // Example 3.2's oblivious chase is finite: {P,R,S,R(a,c)}.
        assert_eq!(oblivious.instance.len(), 4);
        // Every fragment atom is an oblivious-chase atom.
        for node in fragment.nodes() {
            assert!(oblivious.instance.contains(&node.atom));
        }
        // And at depth 4 we have found all of them.
        assert_eq!(fragment.atom_set().len(), 4);
    }

    #[test]
    fn database_nodes_are_roots() {
        let (_, set, db) = example_3_2();
        let fragment = RealOchase::build(&db, &set, OchaseLimits::default());
        for id in fragment.database_nodes() {
            let n = fragment.node(id);
            assert!(n.trigger.is_none());
            assert!(n.parents.is_empty());
            assert_eq!(n.depth, 0);
        }
        for (id, n) in fragment.iter() {
            if !fragment.is_database_node(id) {
                assert!(n.trigger.is_some());
                assert!(!n.parents.is_empty());
            }
        }
    }

    #[test]
    fn finite_case_is_complete() {
        let mut vocab = Vocabulary::new();
        let p = parse_program("P(a,b). P(x,y) -> Q(y).", &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let fragment = RealOchase::build(&p.database, &set, OchaseLimits::default());
        assert!(fragment.complete);
        assert_eq!(fragment.len(), 2);
    }

    #[test]
    fn node_limit_respected() {
        let (_, set, db) = example_3_2();
        let fragment = RealOchase::build(
            &db,
            &set,
            OchaseLimits {
                max_nodes: 5,
                max_depth: 100,
            },
        );
        assert!(fragment.len() <= 5 + 1);
        assert!(!fragment.complete);
    }
}

//! The Treeification Theorem machinery (Section 5.2, Appendix C.2):
//! guard-/side-parent analysis of a recorded derivation,
//! remote-side-parent situations, the *longs-for* relation over
//! database atoms, and the construction of the acyclic database
//! `D_ac` as a tree of renamed copies.

use chase_core::atom::Atom;
use chase_core::ids::{fx_map, FxHashMap};
use chase_core::instance::Instance;
use chase_core::term::Term;
use chase_core::tgd::TgdSet;
use chase_core::vocab::Vocabulary;
use chase_engine::derivation::Derivation;
use tgd_classes::guarded::guard_index;

/// The guard-parentage analysis of a derivation from a database.
pub struct GuardForest {
    /// For each step index: the grounded guard-parent atom.
    pub guard_parent: Vec<Option<Atom>>,
    /// For each step index: the grounded side atoms (non-guard body).
    pub side_parents: Vec<Vec<Atom>>,
    /// For each step index: the produced atom.
    pub produced: Vec<Atom>,
    /// For each step index: the database atom rooting its guard chain
    /// (follows guard parents transitively).
    pub root: Vec<Option<Atom>>,
}

impl GuardForest {
    /// Builds the forest for a guarded derivation. Steps whose TGD is
    /// unguarded get `None` entries.
    pub fn build(set: &TgdSet, database: &Instance, derivation: &Derivation) -> Self {
        let mut producer: FxHashMap<Atom, usize> = fx_map();
        let mut guard_parent = Vec::new();
        let mut side_parents = Vec::new();
        let mut produced = Vec::new();
        let mut root: Vec<Option<Atom>> = Vec::new();
        for (i, step) in derivation.steps.iter().enumerate() {
            let tgd = set.tgd(step.trigger.tgd);
            let out = step.added[0].clone();
            let gi = guard_index(tgd);
            let gp = gi.map(|g| step.trigger.binding.apply_atom(&tgd.body()[g]));
            let sides: Vec<Atom> = tgd
                .body()
                .iter()
                .enumerate()
                .filter(|(k, _)| Some(*k) != gi)
                .map(|(_, a)| step.trigger.binding.apply_atom(a))
                .collect();
            // Root: follow the guard chain.
            let r = gp.as_ref().and_then(|g| {
                if database.contains(g) {
                    Some(g.clone())
                } else {
                    producer.get(g).and_then(|&j| root[j].clone())
                }
            });
            producer.entry(out.clone()).or_insert(i);
            guard_parent.push(gp);
            side_parents.push(sides);
            produced.push(out);
            root.push(r);
        }
        GuardForest {
            guard_parent,
            side_parents,
            produced,
            root,
        }
    }

    /// The database atom whose guard-offspring is largest — the
    /// paper's `α∞` candidate (for an infinite derivation, the atom
    /// with infinite offspring).
    pub fn busiest_root(&self) -> Option<Atom> {
        let mut counts: FxHashMap<Atom, usize> = fx_map();
        for r in self.root.iter().flatten() {
            *counts.entry(r.clone()).or_insert(0) += 1;
        }
        counts.into_iter().max_by_key(|(_, c)| *c).map(|(a, _)| a)
    }
}

/// The *longs-for* relation (Definition 5.7): database atom `α` longs
/// for database atom `β` if some guard-descendant `α'` of `α` has a
/// side-parent `β'` that is a guard-descendant of `β ≠ α`.
pub fn longs_for(set: &TgdSet, database: &Instance, derivation: &Derivation) -> Vec<(Atom, Atom)> {
    let forest = GuardForest::build(set, database, derivation);
    let mut producer: FxHashMap<Atom, usize> = fx_map();
    for (i, a) in forest.produced.iter().enumerate() {
        producer.entry(a.clone()).or_insert(i);
    }
    let mut out: Vec<(Atom, Atom)> = Vec::new();
    for i in 0..forest.produced.len() {
        let Some(alpha) = forest.root[i].clone() else {
            continue;
        };
        for beta_prime in &forest.side_parents[i] {
            // β' must itself be a derived atom rooted at some β ≠ α
            // (if β' is a database atom it is an ordinary side atom,
            // not a *remote* side-parent).
            let beta = if database.contains(beta_prime) {
                continue;
            } else {
                match producer
                    .get(beta_prime)
                    .and_then(|&j| forest.root[j].clone())
                {
                    Some(b) => b,
                    None => continue,
                }
            };
            if beta != alpha && !out.contains(&(alpha.clone(), beta.clone())) {
                out.push((alpha.clone(), beta));
            }
        }
    }
    out
}

/// Builds the acyclic database `D_ac` (Appendix C.2, Step 1): the tree
/// of longs-for paths from `α∞` up to `max_depth`, each node labelled
/// with a renamed copy of its database atom sharing constants with its
/// tree father exactly where the original atoms share constants. The
/// result is acyclic by construction (it has a join tree: the tree
/// itself).
pub fn treeify(
    set: &TgdSet,
    vocab: &mut Vocabulary,
    database: &Instance,
    derivation: &Derivation,
    max_depth: usize,
) -> Option<Instance> {
    let forest = GuardForest::build(set, database, derivation);
    let alpha_inf = forest.busiest_root()?;
    let longs = longs_for(set, database, derivation);
    let mut out = Instance::new();
    // BFS over paths; each node: (original atom, copy atom, depth).
    let mut queue: Vec<(Atom, Atom, usize)> = Vec::new();
    let mut counter = 0usize;
    let mut rename_root = |atom: &Atom, vocab: &mut Vocabulary, shared: &FxHashMap<Term, Term>| {
        let args = atom
            .args
            .iter()
            .map(|t| {
                if let Some(&s) = shared.get(t) {
                    s
                } else {
                    counter += 1;
                    Term::Const(vocab.constant(&format!("⋆ac{counter}")))
                }
            })
            .collect::<chase_core::atom::ArgVec>();
        Atom::new(atom.pred, args)
    };
    let root_copy = rename_root(&alpha_inf, vocab, &fx_map());
    out.insert(root_copy.clone());
    queue.push((alpha_inf, root_copy, 0));
    while let Some((orig, copy, depth)) = queue.pop() {
        if depth >= max_depth {
            continue;
        }
        for (a, b) in &longs {
            if *a != orig {
                continue;
            }
            // The child copies β, sharing the copy's constants where
            // β shares constants with α.
            let mut shared: FxHashMap<Term, Term> = fx_map();
            for (i, t) in orig.args.iter().enumerate() {
                shared.entry(*t).or_insert(copy.args[i]);
            }
            let child_shared: FxHashMap<Term, Term> = b
                .args
                .iter()
                .filter_map(|t| shared.get(t).map(|&s| (*t, s)))
                .collect();
            let child_copy = rename_root(b, vocab, &child_shared);
            let fresh = out.insert(child_copy.clone()).1;
            if fresh {
                queue.push((b.clone(), child_copy, depth + 1));
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_program;
    use chase_engine::restricted::{Budget, Outcome, RestrictedChase, Strategy};

    const EXAMPLE_5_6: &str = "
        R(a,b). S(b,c).
        S(x1,y1) -> T(x1).
        R(x2,y2), T(y2) -> P(x2,y2).
        P(x3,y3) -> exists z3. P(y3,z3).
    ";

    fn setup() -> (Vocabulary, TgdSet, Instance, Derivation) {
        let mut vocab = Vocabulary::new();
        let p = parse_program(EXAMPLE_5_6, &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&p.database, Budget::steps(20));
        let derivation = run.derivation(&set);
        (vocab, set, p.database, derivation)
    }

    #[test]
    fn guard_forest_roots_follow_guard_chain() {
        let (vocab, set, db, derivation) = setup();
        let forest = GuardForest::build(&set, &db, &derivation);
        // Every step has a root database atom (the set is guarded).
        assert!(forest.root.iter().all(|r| r.is_some()));
        // The P-chain roots at R(a,b), which is the busiest root.
        let busiest = forest.busiest_root().unwrap();
        let r = vocab.lookup_pred("R").unwrap();
        assert_eq!(busiest.pred, r);
    }

    #[test]
    fn example_5_6_longs_for_discovered() {
        let (vocab, set, db, derivation) = setup();
        let pairs = longs_for(&set, &db, &derivation);
        // R(a,b) longs for S(b,c): P(a,b)'s side-parent T(b) is
        // S(b,c)'s offspring.
        assert_eq!(pairs.len(), 1);
        let (alpha, beta) = &pairs[0];
        assert_eq!(alpha.pred, vocab.lookup_pred("R").unwrap());
        assert_eq!(beta.pred, vocab.lookup_pred("S").unwrap());
    }

    #[test]
    fn treeified_database_reproduces_divergence() {
        let (mut vocab, set, db, derivation) = setup();
        let dac = treeify(&set, &mut vocab, &db, &derivation, 4).unwrap();
        // D_ac = {R(a°,b°), S(b°,c°)} up to renaming.
        assert_eq!(dac.len(), 2);
        // The shared constant survives: R's second argument is S's first.
        let r_atom = dac
            .iter()
            .find(|a| a.pred == vocab.lookup_pred("R").unwrap())
            .unwrap();
        let s_atom = dac
            .iter()
            .find(|a| a.pred == vocab.lookup_pred("S").unwrap())
            .unwrap();
        assert_eq!(r_atom.args[1], s_atom.args[0]);
        // And the chase from D_ac diverges, as from the original D.
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&dac, Budget::steps(50));
        assert_eq!(run.outcome, Outcome::BudgetExhausted);
    }

    #[test]
    fn singleton_example_5_6_does_not_diverge() {
        // The paper's point: {R(a,b)} alone admits no chase step.
        let mut vocab = Vocabulary::new();
        let p = parse_program(EXAMPLE_5_6, &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let just_r = parse_program("R(a,b).", &mut vocab).unwrap().database;
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&just_r, Budget::steps(50));
        assert_eq!(run.outcome, Outcome::Terminated);
        assert_eq!(run.steps, 0);
    }
}

//! Weak acyclicity [Fagin, Kolaitis, Miller & Popa, TCS 2005] — the
//! standard sufficient condition for all-instances restricted chase
//! termination, used as a baseline (experiment E8).
//!
//! The *dependency graph* has one node per schema position. For each
//! TGD σ and each frontier variable `x` occurring in the body at
//! position `π`:
//!
//! * a **regular** edge `π → π'` for every head position `π'` of `x`;
//! * a **special** edge `π → π''` for every position `π''` of an
//!   existentially quantified variable in the head.
//!
//! The set is weakly acyclic iff no cycle passes through a special
//! edge, equivalently: no strongly connected component contains a
//! special edge.

use chase_core::atom::Position;
use chase_core::ids::{fx_map, FxHashMap};
use chase_core::term::Term;
use chase_core::tgd::TgdSet;

/// The position dependency graph of a TGD set.
#[derive(Debug, Clone)]
pub struct DependencyGraph {
    /// All positions, densely numbered.
    pub positions: Vec<Position>,
    /// `(from, to, special)` edges over dense indexes.
    pub edges: Vec<(usize, usize, bool)>,
    index_of: FxHashMap<Position, usize>,
}

impl DependencyGraph {
    /// Builds the dependency graph of `set` given each predicate's
    /// arity via the vocabulary.
    pub fn build(set: &TgdSet, vocab: &chase_core::vocab::Vocabulary) -> Self {
        let mut positions = Vec::new();
        let mut index_of = fx_map();
        for &pred in set.schema_preds() {
            for i in 0..vocab.arity(pred) {
                let p = Position::new(pred, i);
                index_of.insert(p, positions.len());
                positions.push(p);
            }
        }
        let mut edges = Vec::new();
        for tgd in set.tgds() {
            // Body positions of every frontier variable.
            for &x in tgd.frontier() {
                let mut body_positions = Vec::new();
                for atom in tgd.body() {
                    for i in atom.positions_of_var(x) {
                        body_positions.push(Position::new(atom.pred, i));
                    }
                }
                for head in tgd.head() {
                    // Regular edges to x's head positions.
                    for i in head.positions_of_var(x) {
                        let to = index_of[&Position::new(head.pred, i)];
                        for &from in &body_positions {
                            edges.push((index_of[&from], to, false));
                        }
                    }
                    // Special edges to existential positions.
                    for (i, t) in head.args.iter().enumerate() {
                        if let Term::Var(v) = t {
                            if tgd.is_existential(*v) {
                                let to = index_of[&Position::new(head.pred, i)];
                                for &from in &body_positions {
                                    edges.push((index_of[&from], to, true));
                                }
                            }
                        }
                    }
                }
            }
        }
        edges.sort();
        edges.dedup();
        DependencyGraph {
            positions,
            edges,
            index_of,
        }
    }

    /// The dense index of a position, if it exists in the graph.
    pub fn index(&self, p: Position) -> Option<usize> {
        self.index_of.get(&p).copied()
    }

    /// Tarjan SCC over the dense graph; returns a component id per node.
    fn sccs(&self) -> Vec<usize> {
        let n = self.positions.len();
        let mut adj = vec![Vec::new(); n];
        for &(f, t, _) in &self.edges {
            adj[f].push(t);
        }
        // Iterative Tarjan.
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack = Vec::new();
        let mut comp = vec![usize::MAX; n];
        let mut next_index = 0usize;
        let mut next_comp = 0usize;
        #[derive(Clone)]
        struct Frame {
            v: usize,
            child: usize,
        }
        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            let mut call_stack = vec![Frame { v: root, child: 0 }];
            index[root] = next_index;
            low[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;
            while let Some(frame) = call_stack.last().cloned() {
                let v = frame.v;
                if frame.child < adj[v].len() {
                    let w = adj[v][frame.child];
                    call_stack.last_mut().expect("nonempty").child += 1;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call_stack.push(Frame { v: w, child: 0 });
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    call_stack.pop();
                    if let Some(parent) = call_stack.last() {
                        let p = parent.v;
                        low[p] = low[p].min(low[v]);
                    }
                    if low[v] == index[v] {
                        loop {
                            let w = stack.pop().expect("scc stack nonempty");
                            on_stack[w] = false;
                            comp[w] = next_comp;
                            if w == v {
                                break;
                            }
                        }
                        next_comp += 1;
                    }
                }
            }
        }
        comp
    }

    /// Whether some cycle passes through a special edge.
    pub fn has_special_cycle(&self) -> bool {
        let comp = self.sccs();
        self.edges
            .iter()
            .any(|&(f, t, special)| special && comp[f] == comp[t])
    }
}

/// Whether the TGD set is weakly acyclic.
pub fn is_weakly_acyclic(set: &TgdSet, vocab: &chase_core::vocab::Vocabulary) -> bool {
    !DependencyGraph::build(set, vocab).has_special_cycle()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_tgds;
    use chase_core::vocab::Vocabulary;

    fn check(src: &str) -> bool {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(src, &mut vocab).unwrap();
        is_weakly_acyclic(&set, &vocab)
    }

    #[test]
    fn intro_left_recursion_is_weakly_acyclic() {
        // R(x,y) -> ∃z R(x,z): special edge (R,1)→(R,2), regular
        // self-loop on (R,1); no cycle through the special edge.
        assert!(check("R(x,y) -> exists z. R(x,z)."));
    }

    #[test]
    fn right_recursion_is_not_weakly_acyclic() {
        // R(x,y) -> ∃z R(y,z): (R,2)→(R,1) regular and (R,1)→(R,2),
        // (R,2)→(R,2) special — special edge inside a cycle.
        assert!(!check("R(x,y) -> exists z. R(y,z)."));
    }

    #[test]
    fn full_tgds_are_weakly_acyclic() {
        assert!(check("E(x,y), E(y,z) -> E(x,z)."));
        assert!(check(
            "R(x,y) -> S(y,x).
             S(u,v) -> R(u,v)."
        ));
    }

    #[test]
    fn data_exchange_style_copy_is_weakly_acyclic() {
        assert!(check(
            "Emp(e,d) -> exists m. Mgr(d,m).
             Mgr(d,m) -> InDept(m,d)."
        ));
    }

    #[test]
    fn two_rule_existential_cycle_detected() {
        assert!(!check(
            "A(x) -> exists y. B(x,y).
             B(u,v) -> A(v)."
        ));
    }

    #[test]
    fn positions_enumerated_densely() {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds("R(x,y) -> exists z. S(y,z,x).", &mut vocab).unwrap();
        let g = DependencyGraph::build(&set, &vocab);
        assert_eq!(g.positions.len(), 5);
        for p in &g.positions {
            assert!(g.index(*p).is_some());
        }
    }
}

//! Abstract join trees (Definition 5.8) and their decoding `Δ(T)`
//! into instances — the finite-alphabet tree encoding over which the
//! paper's MSOL sentence `ϕ_T` speaks.
//!
//! A node label is a triple from `Λ_T = sch(T) × ({F} ∪ T) × EQ_T`:
//! the predicate of the encoded atom, its origin (database fact or
//! generating TGD), and an equivalence relation over
//! `{f, m} × [ar(T)]` recording term equalities within the atom (`m`)
//! and against its tree father (`f`).

use chase_core::atom::Atom;
use chase_core::ids::{PredId, VarId};
use chase_core::instance::Instance;
use chase_core::term::Term;
use chase_core::tgd::{TgdId, TgdSet};
use chase_core::vocab::Vocabulary;
use tgd_classes::guarded::guard_index;

/// Node origin: a database fact (`F`) or the TGD that generated it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// A database fact.
    Fact,
    /// Generated by this TGD.
    Rule(TgdId),
}

/// An equivalence relation over `{f, m} × [ar_T]` in canonical form:
/// slot `i < ar_T` is `(f, i)`, slot `ar_T + i` is `(m, i)`;
/// `classes[s]` is the first-occurrence class of slot `s`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqRel {
    classes: Vec<u8>,
}

impl EqRel {
    /// Builds the relation from explicit related-slot pairs over
    /// `2·ar_t` slots.
    pub fn from_pairs(ar_t: usize, pairs: &[(usize, usize)]) -> Self {
        // Union-find over 2·ar_t slots.
        let n = 2 * ar_t;
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for &(a, b) in pairs {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }
        let mut canon: Vec<Option<u8>> = vec![None; n];
        let mut classes = Vec::with_capacity(n);
        let mut next = 0u8;
        for s in 0..n {
            let r = find(&mut parent, s);
            let c = *canon[r].get_or_insert_with(|| {
                let c = next;
                next += 1;
                c
            });
            classes.push(c);
        }
        EqRel { classes }
    }

    /// `ar_T` of the ambient tree.
    pub fn ar_t(&self) -> usize {
        self.classes.len() / 2
    }

    /// Whether `(f, i)` and `(f, j)` are related.
    pub fn ff(&self, i: usize, j: usize) -> bool {
        self.classes[i] == self.classes[j]
    }

    /// Whether `(m, i)` and `(m, j)` are related.
    pub fn mm(&self, i: usize, j: usize) -> bool {
        self.classes[self.ar_t() + i] == self.classes[self.ar_t() + j]
    }

    /// Whether `(f, i)` and `(m, j)` are related.
    pub fn fm(&self, i: usize, j: usize) -> bool {
        self.classes[i] == self.classes[self.ar_t() + j]
    }
}

/// A node of an abstract join tree.
#[derive(Debug, Clone)]
pub struct AjtNode {
    /// `pr(x)`.
    pub pred: PredId,
    /// `org(x)`.
    pub origin: Origin,
    /// `eq(x)`.
    pub eq: EqRel,
    /// Children, in insertion order.
    pub children: Vec<usize>,
    /// Parent (`None` for the root).
    pub parent: Option<usize>,
}

/// A finite abstract join tree for a guarded TGD set.
#[derive(Debug, Clone)]
pub struct AbstractJoinTree {
    /// `ar(T)`.
    pub ar_t: usize,
    /// Nodes; node 0 is the root.
    pub nodes: Vec<AjtNode>,
}

/// A violation of Definition 5.8.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AjtFault {
    /// Condition (1): there must be at least one fact node.
    NoFactNodes,
    /// Condition (2): a fact node hangs below a generated node.
    FactBelowRule(usize),
    /// Condition (3): predicate of a node or its father disagrees with
    /// the generating TGD's head/guard.
    PredicateMismatch(usize),
    /// Condition (4): `[[m,i],[m,j]] ∈ eq(x)` iff `[[f,i],[f,j]] ∈ eq(y)`.
    FatherMeDisagreement(usize),
    /// Condition (5): the generating TGD forces equalities the label
    /// does not satisfy (or vice versa for existential positions).
    TgdEqualityViolation(usize),
}

impl AbstractJoinTree {
    /// Creates a tree with a single root node.
    pub fn new(ar_t: usize, pred: PredId, origin: Origin, eq: EqRel) -> Self {
        AbstractJoinTree {
            ar_t,
            nodes: vec![AjtNode {
                pred,
                origin,
                eq,
                children: Vec::new(),
                parent: None,
            }],
        }
    }

    /// Appends a child of `parent`; returns its index.
    pub fn add_child(&mut self, parent: usize, pred: PredId, origin: Origin, eq: EqRel) -> usize {
        let id = self.nodes.len();
        self.nodes.push(AjtNode {
            pred,
            origin,
            eq,
            children: Vec::new(),
            parent: Some(parent),
        });
        self.nodes[parent].children.push(id);
        id
    }

    /// Checks the conditions of Definition 5.8.
    pub fn validate(&self, set: &TgdSet, vocab: &Vocabulary) -> Result<(), AjtFault> {
        if !self.nodes.iter().any(|n| n.origin == Origin::Fact) {
            return Err(AjtFault::NoFactNodes);
        }
        for (y, node) in self.nodes.iter().enumerate() {
            let Some(x) = node.parent else { continue };
            let father = &self.nodes[x];
            // (2)
            if node.origin == Origin::Fact && father.origin != Origin::Fact {
                return Err(AjtFault::FactBelowRule(y));
            }
            // (4)
            for i in 0..self.ar_t {
                for j in 0..self.ar_t {
                    if father.eq.mm(i, j) != node.eq.ff(i, j) {
                        return Err(AjtFault::FatherMeDisagreement(y));
                    }
                }
            }
            let Origin::Rule(sigma) = node.origin else {
                continue;
            };
            let tgd = set.tgd(sigma);
            let Some(gi) = guard_index(tgd) else {
                return Err(AjtFault::PredicateMismatch(y));
            };
            let guard = &tgd.body()[gi];
            let head = match tgd.single_head() {
                Some(h) => h,
                None => return Err(AjtFault::PredicateMismatch(y)),
            };
            // (3)
            if father.pred != guard.pred || node.pred != head.pred {
                return Err(AjtFault::PredicateMismatch(y));
            }
            // (5a) guard[i] = head[j] ⇒ fm(i, j).
            for (i, g) in guard.args.iter().enumerate() {
                for (j, h) in head.args.iter().enumerate() {
                    if g == h && !node.eq.fm(i, j) {
                        return Err(AjtFault::TgdEqualityViolation(y));
                    }
                }
            }
            // (5b) guard[i] = guard[j] ⇒ ff(i, j).
            for i in 0..guard.arity() {
                for j in 0..guard.arity() {
                    if guard.args[i] == guard.args[j] && !node.eq.ff(i, j) {
                        return Err(AjtFault::TgdEqualityViolation(y));
                    }
                }
            }
            // (5c) existential head[j]: mm(i, j) iff head[i] = head[j].
            for (j, h) in head.args.iter().enumerate() {
                let Term::Var(v) = *h else { continue };
                if !tgd.is_existential(v) {
                    continue;
                }
                for i in 0..head.arity() {
                    if node.eq.mm(i, j) != (head.args[i] == head.args[j]) {
                        return Err(AjtFault::TgdEqualityViolation(y));
                    }
                }
            }
            let _ = vocab;
        }
        Ok(())
    }

    /// Decodes the tree into the instance `Δ(T)` (one atom per node,
    /// deduplicated).
    pub fn decode(&self, vocab: &Vocabulary) -> Instance {
        Instance::from_atoms(self.node_atoms(vocab))
    }

    /// The atom `δ(x)` of every node, in node order: terms are the
    /// equivalence classes of `Eq_T` (rendered as nulls).
    pub fn node_atoms(&self, vocab: &Vocabulary) -> Vec<Atom> {
        // Union-find over (node, position) pairs up to ar_t.
        let n = self.nodes.len() * self.ar_t;
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        let unite = |parent: &mut Vec<usize>, a: usize, b: usize| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        };
        for (x, node) in self.nodes.iter().enumerate() {
            for i in 0..self.ar_t {
                for j in 0..self.ar_t {
                    if node.eq.mm(i, j) {
                        unite(&mut parent, x * self.ar_t + i, x * self.ar_t + j);
                    }
                }
            }
            if let Some(f) = node.parent {
                for i in 0..self.ar_t {
                    for j in 0..self.ar_t {
                        if node.eq.fm(i, j) {
                            unite(&mut parent, f * self.ar_t + i, x * self.ar_t + j);
                        }
                    }
                }
            }
        }
        let mut atoms = Vec::new();
        for (x, node) in self.nodes.iter().enumerate() {
            let arity = vocab.arity(node.pred);
            let args: Vec<Term> = (0..arity)
                .map(|i| {
                    let root = find(&mut parent, x * self.ar_t + i);
                    Term::Null(chase_core::ids::NullId(root as u32))
                })
                .collect();
            atoms.push(Atom::new(node.pred, args));
        }
        atoms
    }
}

/// Builds the `eq(y)` label forced by Definition 5.8(5) for a child
/// generated by `sigma` (plus the condition-(4) copy of the father's
/// internal equalities), with no extra equalities — the *freest*
/// admissible label. `father_mm(i,j)` reports the father's internal
/// equalities.
pub fn forced_child_label(
    set: &TgdSet,
    ar_t: usize,
    sigma: TgdId,
    father_mm: impl Fn(usize, usize) -> bool,
) -> Option<EqRel> {
    let tgd = set.tgd(sigma);
    let gi = guard_index(tgd)?;
    let guard = &tgd.body()[gi];
    let head = tgd.single_head()?;
    let mut pairs = Vec::new();
    for i in 0..ar_t.min(guard.arity()) {
        for j in 0..ar_t.min(guard.arity()) {
            if father_mm(i, j) {
                pairs.push((i, j)); // (f,i) ~ (f,j)
            }
        }
    }
    for (i, g) in guard.args.iter().enumerate() {
        for (j, h) in head.args.iter().enumerate() {
            if g == h {
                pairs.push((i, ar_t + j)); // (f,i) ~ (m,j)
            }
        }
    }
    for (i, hi) in head.args.iter().enumerate() {
        for (j, hj) in head.args.iter().enumerate() {
            if hi == hj {
                pairs.push((ar_t + i, ar_t + j));
            }
        }
    }
    Some(EqRel::from_pairs(ar_t, &pairs))
}

/// The variable identifier type re-exported for label construction.
pub type Var = VarId;

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_tgds;

    /// σ: P(x,y) -> ∃z P(y,z), plus a root fact P.
    fn chain_tree(levels: usize) -> (Vocabulary, TgdSet, AbstractJoinTree) {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds("P(x,y) -> exists z. P(y,z).", &mut vocab).unwrap();
        let p = vocab.lookup_pred("P").unwrap();
        let ar_t = set.max_arity();
        // Root: a fact P(a,b) with distinct terms.
        let root_eq = EqRel::from_pairs(ar_t, &[]);
        let mut tree = AbstractJoinTree::new(ar_t, p, Origin::Fact, root_eq);
        let mut cur = 0;
        for _ in 0..levels {
            let label = forced_child_label(&set, ar_t, TgdId(0), |i, j| {
                i == j && tree.nodes[cur].eq.mm(i, i) || tree.nodes[cur].eq.mm(i, j)
            })
            .unwrap();
            cur = tree.add_child(cur, p, Origin::Rule(TgdId(0)), label);
        }
        (vocab, set, tree)
    }

    #[test]
    fn forced_chain_tree_validates() {
        let (vocab, set, tree) = chain_tree(4);
        tree.validate(&set, &vocab).unwrap();
    }

    #[test]
    fn decode_produces_a_path_of_atoms() {
        let (vocab, set, tree) = chain_tree(3);
        let inst = tree.decode(&vocab);
        // 4 nodes, all distinct atoms (fresh existential each level).
        assert_eq!(inst.len(), 4);
        // Each consecutive pair shares exactly one term (y = z of the
        // father), per σ: P(x,y) -> ∃z P(y,z).
        let atoms: Vec<chase_core::atom::AtomRef<'_>> = inst.iter().collect();
        for w in atoms.windows(2) {
            let shared: Vec<_> = w[0].args.iter().filter(|t| w[1].args.contains(t)).collect();
            assert_eq!(shared.len(), 1);
        }
        let _ = set;
    }

    #[test]
    fn fact_below_rule_rejected() {
        let (vocab, set, mut tree) = chain_tree(1);
        let p = vocab.lookup_pred("P").unwrap();
        let eq = EqRel::from_pairs(tree.ar_t, &[]);
        tree.add_child(1, p, Origin::Fact, eq);
        assert!(matches!(
            tree.validate(&set, &vocab),
            Err(AjtFault::FactBelowRule(_))
        ));
    }

    #[test]
    fn missing_forced_equality_rejected() {
        let (vocab, set, mut tree) = chain_tree(0);
        let p = vocab.lookup_pred("P").unwrap();
        // Child with the empty relation: misses (f,2)~(m,1) forced by
        // guard P(x,y) / head P(y,z) sharing y.
        let eq = EqRel::from_pairs(tree.ar_t, &[]);
        tree.add_child(0, p, Origin::Rule(TgdId(0)), eq);
        assert!(matches!(
            tree.validate(&set, &vocab),
            Err(AjtFault::TgdEqualityViolation(_))
        ));
    }

    #[test]
    fn eqrel_canonical_form() {
        let a = EqRel::from_pairs(2, &[(0, 2), (2, 0)]);
        let b = EqRel::from_pairs(2, &[(0, 2)]);
        assert_eq!(a, b);
        assert!(a.fm(0, 0));
        assert!(!a.fm(1, 1));
        assert!(!a.ff(0, 1));
    }
}

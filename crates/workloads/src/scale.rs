//! Ontology-scale workload generation: 10⁵–10⁷-fact databases under
//! rule sets with hundreds of TGDs, for large-instance benchmarks.
//!
//! Unlike [`crate::families`], which emits rule-file *text* (sized for
//! inspectability), this module builds the [`TgdSet`] and [`Instance`]
//! programmatically — parsing ten million facts through the text front
//! end would dominate any benchmark that uses them.
//!
//! A scale workload is shaped by a *predicate graph*: binary
//! predicates `P0..Pn` are the nodes, and each edge `(i, j)` becomes
//! one rule from `Pi` to `Pj`. A seeded coin decides per edge whether
//! the rule invents a null:
//!
//! * existential (probability [`ScaleParams::existential_density`]):
//!   `Pi(x,y) → ∃z. Pj(x,z), Pk(x,z)` with `k = (j + n/2) mod n` — a
//!   *two-atom* head sharing the invented null. Activeness is then a
//!   genuine conjunctive query (find `z'` with both `Pj(x,z')` and
//!   `Pk(x,z')`), not a single-atom index probe: each check scans the
//!   `Pj(x,·)` cell, whose size grows with `facts / constants`. This
//!   is the restriction-check-heavy regime;
//! * full: `Pi(x,y) → Pj(x,y)` — pair propagation along the graph
//!   (join-free insert throughput).
//!
//! Both rule kinds lead their heads with the body's first argument, so
//! every atom the chase ever derives keeps a first argument from the
//! original constant pool. That bounds the active existential triggers
//! by `edges × constants` (an applied trigger's inserted pair witnesses
//! every later trigger with the same first argument and head
//! predicates) and the full closure by `predicates × distinct pairs` —
//! the chase terminates for every shape, including the cyclic star and
//! clique graphs.
//!
//! Facts are distributed round-robin over the predicates with first
//! arguments drawn from a small constant pool (forcing deactivations)
//! and globally unique second arguments (so the database has exactly
//! [`ScaleParams::facts`] atoms — no accidental dedup).

use chase_core::atom::Atom;
use chase_core::instance::Instance;
use chase_core::term::Term;
use chase_core::tgd::{RuleBuilder, TgdSet};
use chase_core::vocab::Vocabulary;

/// The predicate graph connecting the generated predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `P0 → P1 → ... → Pn-1`: `n - 1` rules, longest derivation
    /// chains, weakly acyclic when fully existential.
    Chain,
    /// Spokes through a hub: `Pi → P0` and `P0 → Pi` for `i ≥ 1`
    /// (`2(n-1)` rules). The hub concentrates both discovery and
    /// restriction checks on one predicate's shards.
    Star,
    /// Every ordered pair `(i, j)`, `i ≠ j`: `n(n-1)` rules — the
    /// "hundreds of TGDs" regime at modest `n`.
    Clique,
}

impl Shape {
    fn edges(self, n: usize) -> Vec<(usize, usize)> {
        match self {
            Shape::Chain => (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect(),
            Shape::Star => (1..n).flat_map(|i| [(i, 0), (0, i)]).collect(),
            Shape::Clique => (0..n)
                .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
                .collect(),
        }
    }

    fn label(self) -> &'static str {
        match self {
            Shape::Chain => "chain",
            Shape::Star => "star",
            Shape::Clique => "clique",
        }
    }
}

/// Parameters of one scale workload. All generation is a pure function
/// of this struct, so a workload is reproducible from its `name()`.
#[derive(Debug, Clone)]
pub struct ScaleParams {
    /// Predicate-graph shape.
    pub shape: Shape,
    /// Number of binary predicates (graph nodes); the rule count is
    /// determined by the shape (see [`Shape`]).
    pub predicates: usize,
    /// Total database facts (exact: every generated fact is distinct).
    pub facts: usize,
    /// Size of the first-argument constant pool. Smaller pools mean
    /// more trigger deactivations (restriction-check-heavy), larger
    /// pools more null invention.
    pub constants: usize,
    /// Probability that an edge's rule is existential rather than
    /// full, in `0.0..=1.0`.
    pub existential_density: f64,
    /// Shard count for the generated database instance (engines
    /// inherit it).
    pub shards: usize,
    /// PRNG seed for fact placement and the existential coin.
    pub seed: u64,
}

impl ScaleParams {
    /// A compact, reproducibility-sufficient label for reports:
    /// `clique16_f100000_c64_d80_s8`.
    pub fn name(&self) -> String {
        format!(
            "{}{}_f{}_c{}_d{}_s{}",
            self.shape.label(),
            self.predicates,
            self.facts,
            self.constants,
            (self.existential_density * 100.0).round() as u64,
            self.shards,
        )
    }
}

/// The same xorshift step the other generators use; deterministic and
/// dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1)
            .max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A coin landing `true` with probability ~`p`.
    fn coin(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// Builds the rule set and database described by `params`.
///
/// The returned instance has exactly `params.facts` atoms stored under
/// `params.shards` shards; the rule set has one TGD per predicate-graph
/// edge, in edge order (deterministic TGD ids).
pub fn scale_workload(params: &ScaleParams) -> (Vocabulary, TgdSet, Instance) {
    assert!(params.predicates >= 2, "need at least two predicates");
    assert!(params.constants >= 1, "need a non-empty constant pool");
    let mut vocab = Vocabulary::new();
    let mut rng = Rng::new(params.seed);

    let pred_name = |i: usize| format!("P{i}");
    let mut tgds = Vec::new();
    for (e, (i, j)) in params.shape.edges(params.predicates).iter().enumerate() {
        let mut b = RuleBuilder::new(&mut vocab);
        let x = b.var(&format!("x{e}"));
        let y = b.var(&format!("y{e}"));
        b.body(&pred_name(*i), &[x, y]).expect("binary body");
        if rng.coin(params.existential_density) {
            let z = b.var(&format!("z{e}"));
            let k = (*j + params.predicates / 2) % params.predicates;
            b.head(&pred_name(*j), &[x, z]).expect("binary head");
            b.head(&pred_name(k), &[x, z]).expect("binary head");
        } else {
            b.head(&pred_name(*j), &[x, y]).expect("binary head");
        }
        tgds.push(b.build().expect("scale rule validates"));
    }
    let set = TgdSet::new(tgds, &vocab).expect("scale rules are variable-disjoint");

    let mut db = Instance::with_shards(params.shards);
    let preds: Vec<_> = (0..params.predicates)
        .map(|i| vocab.pred(&pred_name(i), 2).expect("arity is consistent"))
        .collect();
    let pool: Vec<_> = (0..params.constants)
        .map(|c| vocab.constant(&format!("c{c}")))
        .collect();
    for t in 0..params.facts {
        let pred = preds[t % preds.len()];
        let a = pool[(rng.next() as usize) % pool.len()];
        // Unique second argument: every fact is fresh by construction.
        let b = vocab.constant(&format!("d{t}"));
        db.insert(Atom::new(pred, vec![Term::Const(a), Term::Const(b)]));
    }
    debug_assert_eq!(db.len(), params.facts);

    (vocab, set, db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(shape: Shape) -> ScaleParams {
        ScaleParams {
            shape,
            predicates: 6,
            facts: 300,
            constants: 8,
            existential_density: 0.8,
            shards: 16,
            seed: 11,
        }
    }

    #[test]
    fn rule_counts_follow_the_shape() {
        let (_, chain, _) = scale_workload(&small(Shape::Chain));
        assert_eq!(chain.len(), 5);
        let (_, star, _) = scale_workload(&small(Shape::Star));
        assert_eq!(star.len(), 10);
        let (_, clique, _) = scale_workload(&small(Shape::Clique));
        assert_eq!(clique.len(), 30);
    }

    #[test]
    fn database_is_exact_and_sharded() {
        let p = small(Shape::Clique);
        let (_, _, db) = scale_workload(&p);
        assert_eq!(db.len(), p.facts, "unique second args forbid dedup");
        assert_eq!(db.shard_count(), p.shards);
        assert!(db.is_database());
    }

    #[test]
    fn generation_is_deterministic() {
        let p = small(Shape::Star);
        let (_, set_a, db_a) = scale_workload(&p);
        let (_, set_b, db_b) = scale_workload(&p);
        assert_eq!(db_a, db_b);
        assert_eq!(set_a.len(), set_b.len());
        for (a, b) in set_a.tgds().iter().zip(set_b.tgds()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn density_one_makes_every_rule_existential() {
        let mut p = small(Shape::Chain);
        p.existential_density = 1.0;
        let (_, set, _) = scale_workload(&p);
        assert!(set.tgds().iter().all(|t| !t.existentials().is_empty()));
        // Two-atom heads sharing the null defeat the single-atom
        // activeness probe (checks become conjunctive queries).
        assert!(set.tgds().iter().all(|t| t.head().len() == 2));
    }

    #[test]
    fn density_zero_makes_every_rule_full() {
        let mut p = small(Shape::Clique);
        p.existential_density = 0.0;
        let (_, set, _) = scale_workload(&p);
        assert!(set.tgds().iter().all(|t| t.existentials().is_empty()));
    }

    #[test]
    fn names_are_reproducibility_labels() {
        assert_eq!(
            small(Shape::Clique).name(),
            "clique6_f300_c8_d80_s16".to_string()
        );
    }
}

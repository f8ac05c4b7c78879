//! Deterministic null invention.
//!
//! Definition 3.1 of the paper maps each existentially quantified head
//! variable `x` of a trigger `(σ, h)` to a fresh null `c^{σ,h}_x`
//! "whose name is uniquely determined by the trigger and `x` itself".
//! [`SkolemTable`] realises exactly that: it memoises
//! `(σ, h, x) → NullId`, so re-presenting the same trigger yields the
//! same atom — which is what makes the (real) oblivious chase a
//! well-defined fixpoint.
//!
//! The semi-oblivious variant keys nulls by `(σ, h|fr(σ), x)` instead,
//! identifying triggers that agree on the frontier.
//!
//! The chase loop ([`crate::restricted`]) needs no memo. Its `seen`
//! set admits each trigger identity once, and two triggers with
//! different identities have different Skolem keys: the identity is
//! the sorted body-variable images for the oblivious chase and the
//! non-FIFO restricted chase, and the frontier images for the
//! semi-oblivious chase (its Skolem key) and the FIFO restricted chase
//! (distinct frontier images mean distinct body bindings); full TGDs
//! invent no nulls. Every lookup would miss, so the loop
//! takes consecutive nulls from [`SkolemTable::fresh_nulls`], and only
//! a head that repeats an existential variable reuses a null, within
//! its own trigger. The memo of [`SkolemTable::null_for`] stays for
//! the callers that can present one trigger twice: the chase-order
//! search (`chase_termination::orders`), the real oblivious chase
//! ([`crate::real_oblivious`]), the fairness repair
//! ([`crate::fairness`]) and the seed oracles ([`crate::seed`]).
//!
//! On request ([`SkolemTable::track_cycles`]) the table also reports
//! the first *cyclic* Skolem term: a null `c^{σ,h}_x` whose key terms
//! already descend from a null of the same `(σ, x)`, i.e. a term
//! `f_{σ,x}(…f_{σ,x}(…)…)`. This is the test behind model-faithful
//! acyclicity (Cuenca Grau et al., "Acyclicity notions for existential
//! rules", JAIR 2013): a chase that never builds a cyclic term invents
//! terms of bounded depth only.

use chase_core::ids::{fx_map, FxHashMap, NullId, VarId};
use chase_core::subst::Binding;
use chase_core::term::{NullFactory, Term};
use chase_core::tgd::{Tgd, TgdId};

/// Which part of the body homomorphism identifies a null.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SkolemPolicy {
    /// `c^{σ,h}_x` — the paper's oblivious-chase naming (Def 3.1).
    #[default]
    PerTrigger,
    /// `c^{σ,h|fr}_x` — semi-oblivious naming: triggers agreeing on
    /// the frontier reuse nulls.
    PerFrontier,
}

/// Memoising allocator of labelled nulls.
#[derive(Debug, Clone)]
pub struct SkolemTable {
    policy: SkolemPolicy,
    map: FxHashMap<(TgdId, Vec<Term>, VarId), NullId>,
    factory: NullFactory,
    /// `Some` once [`SkolemTable::track_cycles`] was called.
    cycles: Option<CycleTracker>,
}

/// The Skolem function symbols inside each invented null's term.
#[derive(Debug, Clone)]
struct CycleTracker {
    /// The first null the table invents; smaller nulls come from the
    /// database and carry no symbol.
    base: u32,
    /// Entry `n - base`: the sorted `(σ, x)` symbols of null `n`'s term.
    labels: Vec<Vec<(TgdId, VarId)>>,
    /// Whether a cyclic term was invented.
    cyclic: bool,
}

impl CycleTracker {
    /// Records the symbols of the fresh null `null = f_label(key)`.
    fn record(&mut self, null: NullId, label: (TgdId, VarId), key: &[Term]) {
        let mut symbols: Vec<(TgdId, VarId)> = Vec::new();
        for &t in key {
            if let Some(i) = t.as_null().and_then(|n| n.0.checked_sub(self.base)) {
                symbols.extend_from_slice(&self.labels[i as usize]);
            }
        }
        symbols.sort_unstable();
        symbols.dedup();
        match symbols.binary_search(&label) {
            Ok(_) => self.cyclic = true,
            Err(at) => symbols.insert(at, label),
        }
        debug_assert_eq!((null.0 - self.base) as usize, self.labels.len());
        self.labels.push(symbols);
    }
}

impl SkolemTable {
    /// Creates a table with the given policy, starting nulls at `ν0`.
    pub fn new(policy: SkolemPolicy) -> Self {
        SkolemTable {
            policy,
            map: fx_map(),
            factory: NullFactory::new(),
            cycles: None,
        }
    }

    /// Creates a table whose nulls will not collide with nulls already
    /// appearing in `existing` terms.
    pub fn above(policy: SkolemPolicy, existing: impl IntoIterator<Item = Term>) -> Self {
        SkolemTable {
            policy,
            map: fx_map(),
            factory: NullFactory::above(existing),
            cycles: None,
        }
    }

    /// Starts recording the Skolem symbols of every null invented from
    /// now on, so [`SkolemTable::cyclic_term_invented`] can answer.
    /// Untracked tables (the default) pay nothing for it.
    pub fn track_cycles(&mut self) {
        self.cycles = Some(CycleTracker {
            base: self.factory.allocated(),
            labels: Vec::new(),
            cyclic: false,
        });
    }

    /// Whether a tracked table has invented a cyclic Skolem term (see
    /// the module docs); always `false` without
    /// [`SkolemTable::track_cycles`].
    pub fn cyclic_term_invented(&self) -> bool {
        self.cycles.as_ref().is_some_and(|c| c.cyclic)
    }

    /// The key terms identifying the trigger under the current policy:
    /// images of all body variables (per-trigger) or frontier
    /// variables only (per-frontier), in sorted-variable order.
    fn key_terms(&self, tgd: &Tgd, binding: &Binding) -> Vec<Term> {
        let vars: &[VarId] = match self.policy {
            SkolemPolicy::PerTrigger => tgd.sorted_body_vars(),
            SkolemPolicy::PerFrontier => tgd.frontier(),
        };
        vars.iter()
            .map(|&v| binding.get(v).unwrap_or(Term::Var(v)))
            .collect()
    }

    /// Invents the nulls of a trigger that the caller presents only
    /// once: one fresh null per existential variable of `tgd`, in
    /// [`Tgd::existentials`] order, so variable `k` gets the returned
    /// id plus `k`. These are the nulls [`SkolemTable::null_for`] would
    /// hand out for a trigger it has not seen, without the memo entry:
    /// the chase loop admits each trigger identity once (see the module
    /// docs). A tracked table still records each null's symbols.
    pub fn fresh_nulls(&mut self, tgd_id: TgdId, tgd: &Tgd, binding: &Binding) -> u32 {
        let first = self.factory.allocated();
        let key = self.cycles.is_some().then(|| self.key_terms(tgd, binding));
        for &x in tgd.existentials() {
            let n = self.factory.fresh();
            if let (Some(cycles), Some(key)) = (&mut self.cycles, &key) {
                cycles.record(n, (tgd_id, x), key);
            }
        }
        first
    }

    /// The null witnessing existential variable `x` for trigger
    /// `(tgd_id, binding)`.
    pub fn null_for(&mut self, tgd_id: TgdId, tgd: &Tgd, binding: &Binding, x: VarId) -> NullId {
        let key = (tgd_id, self.key_terms(tgd, binding), x);
        if let Some(&n) = self.map.get(&key) {
            return n;
        }
        let n = self.factory.fresh();
        if let Some(cycles) = &mut self.cycles {
            cycles.record(n, (tgd_id, x), &key.1);
        }
        self.map.insert(key, n);
        n
    }

    /// Total nulls invented so far.
    pub fn invented(&self) -> u32 {
        self.factory.allocated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::prelude::*;

    /// `R(x,y) -> exists z. S(y,z)`.
    fn rule(vocab: &mut Vocabulary) -> (TgdSet, VarId, VarId, VarId) {
        let mut b = RuleBuilder::new(vocab);
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.body("R", &[x, y]).unwrap();
        b.head("S", &[y, z]).unwrap();
        let tgd = b.build().unwrap();
        let set = TgdSet::new(vec![tgd], vocab).unwrap();
        (
            set,
            x.as_var().unwrap(),
            y.as_var().unwrap(),
            z.as_var().unwrap(),
        )
    }

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }

    #[test]
    fn per_trigger_distinguishes_non_frontier_bindings() {
        let mut vocab = Vocabulary::new();
        let (set, x, y, z) = rule(&mut vocab);
        let tgd = set.tgd(TgdId(0));
        let mut table = SkolemTable::new(SkolemPolicy::PerTrigger);
        let h1 = Binding::from_pairs([(x, c(0)), (y, c(1))]);
        let h2 = Binding::from_pairs([(x, c(9)), (y, c(1))]); // same frontier y
        let n1 = table.null_for(TgdId(0), tgd, &h1, z);
        let n2 = table.null_for(TgdId(0), tgd, &h2, z);
        assert_ne!(n1, n2);
        // Memoisation: same trigger, same null.
        assert_eq!(table.null_for(TgdId(0), tgd, &h1, z), n1);
    }

    #[test]
    fn per_frontier_identifies_frontier_equal_triggers() {
        let mut vocab = Vocabulary::new();
        let (set, x, y, z) = rule(&mut vocab);
        let tgd = set.tgd(TgdId(0));
        let mut table = SkolemTable::new(SkolemPolicy::PerFrontier);
        let h1 = Binding::from_pairs([(x, c(0)), (y, c(1))]);
        let h2 = Binding::from_pairs([(x, c(9)), (y, c(1))]);
        let n1 = table.null_for(TgdId(0), tgd, &h1, z);
        let n2 = table.null_for(TgdId(0), tgd, &h2, z);
        assert_eq!(n1, n2);
    }

    /// `pred(x,y) -> exists z. pred(y,z)` (`right`) or `pred(x,y) ->
    /// exists z. pred(x,z)`, its variables `x`, `y`, `z` and a tracked
    /// per-frontier table.
    fn recursion(
        vocab: &mut Vocabulary,
        pred: &str,
        right: bool,
    ) -> (TgdSet, [VarId; 3], SkolemTable) {
        let mut b = RuleBuilder::new(vocab);
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.body(pred, &[x, y]).unwrap();
        b.head(pred, &[if right { y } else { x }, z]).unwrap();
        let set = TgdSet::new(vec![b.build().unwrap()], vocab).unwrap();
        let vars = [x, y, z].map(|v| v.as_var().unwrap());
        let mut table = SkolemTable::new(SkolemPolicy::PerFrontier);
        table.track_cycles();
        (set, vars, table)
    }

    #[test]
    fn right_recursion_is_cyclic_at_its_second_null() {
        // P(x,y) → ∃z P(y,z): from P(c,c) the chase invents
        // n0 = f(c), then n1 = f(n0), a term nested in its own symbol.
        let mut vocab = Vocabulary::new();
        let (set, [x, y, z], mut table) = recursion(&mut vocab, "P", true);
        let tgd = set.tgd(TgdId(0));
        let n0 = table.null_for(
            TgdId(0),
            tgd,
            &Binding::from_pairs([(x, c(0)), (y, c(0))]),
            z,
        );
        assert!(!table.cyclic_term_invented());
        let h1 = Binding::from_pairs([(x, c(0)), (y, Term::Null(n0))]);
        table.null_for(TgdId(0), tgd, &h1, z);
        assert!(table.cyclic_term_invented());
    }

    #[test]
    fn left_recursion_is_never_cyclic() {
        // R(x,y) → ∃z R(x,z): from R(c,c) every atom is R(c,·), so
        // every trigger presents the key (c) and gets n0 back.
        let mut vocab = Vocabulary::new();
        let (set, [x, y, z], mut table) = recursion(&mut vocab, "R", false);
        let tgd = set.tgd(TgdId(0));
        let n0 = table.null_for(
            TgdId(0),
            tgd,
            &Binding::from_pairs([(x, c(0)), (y, c(0))]),
            z,
        );
        let h1 = Binding::from_pairs([(x, c(0)), (y, Term::Null(n0))]);
        assert_eq!(table.null_for(TgdId(0), tgd, &h1, z), n0);
        assert!(!table.cyclic_term_invented());
    }

    #[test]
    fn untracked_tables_report_no_cycle() {
        let mut vocab = Vocabulary::new();
        let (set, x, y, z) = rule(&mut vocab);
        let tgd = set.tgd(TgdId(0));
        let mut table = SkolemTable::new(SkolemPolicy::PerFrontier);
        let n0 = table.null_for(
            TgdId(0),
            tgd,
            &Binding::from_pairs([(x, c(0)), (y, c(0))]),
            z,
        );
        let h1 = Binding::from_pairs([(x, c(0)), (y, Term::Null(n0))]);
        table.null_for(TgdId(0), tgd, &h1, z);
        assert!(!table.cyclic_term_invented());
    }

    #[test]
    fn starts_above_existing_nulls() {
        let mut vocab = Vocabulary::new();
        let (set, x, y, z) = rule(&mut vocab);
        let tgd = set.tgd(TgdId(0));
        let mut table = SkolemTable::above(SkolemPolicy::PerTrigger, [Term::Null(NullId(4))]);
        let h = Binding::from_pairs([(x, c(0)), (y, c(1))]);
        assert_eq!(table.null_for(TgdId(0), tgd, &h, z), NullId(5));
    }
}

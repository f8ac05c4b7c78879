//! Tuple-generating dependencies (TGDs) and validated sets thereof.
//!
//! The paper works with *single-head* TGDs `ϕ(x̄,ȳ) → ∃z̄ R(x̄,z̄)`.
//! The engine layer also supports multi-head TGDs (heads that are
//! conjunctions), which the paper needs exactly once: Example B.1
//! shows the Fairness Theorem fails for multi-head TGDs. The
//! termination deciders enforce single-headedness.

use crate::atom::Atom;
use crate::error::CoreError;
use crate::hom::Pattern;
use crate::ids::{fx_set, PredId, VarId};
use crate::term::Term;
use crate::vocab::Vocabulary;

/// A constant-time activeness probe for a single-head TGD whose head
/// carries at least one existential variable, none repeated.
///
/// For such a head `R(t̄)`, a homomorphism extending the trigger
/// binding exists **iff** some instance atom of predicate `R` agrees
/// with the binding on every frontier-carrying position: distinct
/// existential positions impose no constraints (each unifies freely
/// with whatever the candidate atom holds there), while a repeated
/// frontier variable simply contributes one constraint per occurrence.
/// This turns the head-satisfaction search of the restricted chase
/// (Definition 3.1) into a single index probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadProbe {
    /// The head predicate.
    pub pred: PredId,
    /// `(position, frontier variable)` constraints, position-ascending.
    /// May be empty (fully existential head): satisfaction then means
    /// "any atom of `pred` exists".
    pub constraints: Vec<(u16, VarId)>,
}

/// Simulates the iterative matcher's *first descent* over `patterns`
/// but the one at `skip` (the atom a delta search starts from), with
/// the variables in `seed` bound: repeatedly pick the pattern with the
/// most bound argument positions (first-maximum tie-break over a
/// `swap_remove` worklist, mirroring `hom::search_iterative`) and bind
/// its variables. Returns the pattern indexes in selection order.
///
/// This is a *heuristic* mirror only — after backtracking the real
/// matcher's worklist order can diverge on ties — so the result is
/// used to decide which composite indexes to register, never to fix
/// the matcher's own selection.
fn simulate_first_descent(patterns: &[Atom], skip: Option<usize>, seed: &[VarId]) -> Vec<u32> {
    let mut bound: Vec<VarId> = seed.to_vec();
    let mut remaining: Vec<u32> = (0..patterns.len() as u32)
        .filter(|&p| Some(p as usize) != skip)
        .collect();
    let mut order = Vec::with_capacity(patterns.len());
    while !remaining.is_empty() {
        let mut best_idx = 0usize;
        let mut best_score = 0usize;
        for (i, &p) in remaining.iter().enumerate() {
            let score = patterns[p as usize]
                .args
                .iter()
                .filter(|t| match t {
                    Term::Var(v) => bound.contains(v),
                    _ => true,
                })
                .count();
            if i == 0 || score > best_score {
                best_idx = i;
                best_score = score;
            }
        }
        let p = remaining.swap_remove(best_idx);
        for v in patterns[p as usize].vars() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        order.push(p);
    }
    order
}

/// Walks a simulated descent over `patterns` but the one at `skip`
/// (seeded with `seed` bound) and records, for every pattern probed with two or more
/// bound positions, the composite key the matcher would ask the
/// instance for: the predicate plus the *first two* bound positions in
/// position order. Deduplicates into `acc`.
fn collect_pair_keys(
    patterns: &[Atom],
    skip: Option<usize>,
    seed: &[VarId],
    acc: &mut Vec<(PredId, u16, u16)>,
) {
    let mut bound: Vec<VarId> = seed.to_vec();
    for &p in &simulate_first_descent(patterns, skip, seed) {
        let pat = &patterns[p as usize];
        let mut bound_positions = pat.args.iter().enumerate().filter_map(|(i, t)| match t {
            Term::Var(v) if bound.contains(v) => Some(i as u16),
            Term::Var(_) => None,
            _ => Some(i as u16),
        });
        if let (Some(a), Some(b)) = (bound_positions.next(), bound_positions.next()) {
            let key = (pat.pred, a, b);
            if !acc.contains(&key) {
                acc.push(key);
            }
        }
        for v in pat.vars() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
    }
}

/// Identifies a TGD within a [`TgdSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TgdId(pub u32);

impl TgdId {
    /// Raw index into the owning set.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A tuple-generating dependency.
///
/// Beyond the syntactic parts, a `Tgd` precomputes the layouts the
/// chase hot path needs — the body variables in sorted order (trigger
/// fingerprints, skolem keys) and the body compiled for the matcher
/// with the slot lists a trigger's identity and ground head are read
/// through — so engines never sort, rebuild atom lists or look
/// variables up per trigger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tgd {
    body: Vec<Atom>,
    head: Vec<Atom>,
    frontier: Vec<VarId>,
    existentials: Vec<VarId>,
    sorted_body_vars: Vec<VarId>,
    /// The compiled body; its variables are the body variables in
    /// first-occurrence order.
    body_pattern: Pattern,
    /// The body-pattern slots of the frontier, then of the sorted body
    /// variables, then (for a single-head full TGD) of the head's
    /// arguments.
    slot_lists: Vec<u32>,
    /// The head predicate of a single-head full TGD.
    ground_head_pred: Option<PredId>,
    body_pair_plan: Vec<(PredId, u16, u16)>,
    pair_plan: Vec<(PredId, u16, u16)>,
    head_probe: Option<HeadProbe>,
}

impl Tgd {
    /// Builds and validates a TGD from body and head atom lists.
    ///
    /// Validation: non-empty body and head; constant-free (atoms may
    /// not mention constants or nulls); every head variable either
    /// occurs in the body (frontier) or is existential.
    pub fn new(body: Vec<Atom>, head: Vec<Atom>) -> Result<Self, CoreError> {
        if body.is_empty() {
            return Err(CoreError::EmptyBody);
        }
        if head.is_empty() {
            return Err(CoreError::EmptyHead);
        }
        for atom in body.iter().chain(head.iter()) {
            for &t in &atom.args {
                if !t.is_var() {
                    return Err(CoreError::ConstantInRule {
                        constant: format!("{t:?}"),
                    });
                }
            }
        }
        // The compiled body: slot `i` is the `i`-th body variable in
        // first-occurrence order.
        let body_pattern = Pattern::compile(&body);
        let body_vars = body_pattern.vars();
        let mut frontier: Vec<VarId> = Vec::new();
        let mut existentials: Vec<VarId> = Vec::new();
        for atom in &head {
            for v in atom.vars() {
                if body_vars.contains(&v) {
                    if !frontier.contains(&v) {
                        frontier.push(v);
                    }
                } else if !existentials.contains(&v) {
                    existentials.push(v);
                }
            }
        }
        frontier.sort();
        existentials.sort();
        let mut sorted_body_vars = body_vars.to_vec();
        sorted_body_vars.sort();
        // Rules are constant-free, so every head argument is a variable,
        // and a full TGD's are all body variables.
        let ground_head = match head.as_slice() {
            [h] if existentials.is_empty() => Some(h),
            _ => None,
        };
        let slot_lists: Vec<u32> = frontier
            .iter()
            .chain(&sorted_body_vars)
            .copied()
            .chain(ground_head.into_iter().flat_map(Atom::vars))
            .map(|v| body_pattern.slot_of(v).expect("a body variable"))
            .collect();
        let ground_head_pred = ground_head.map(|h| h.pred);

        // Composite-index plan: every (pred, posA, posB) key a
        // simulated matcher descent would probe with two bound
        // positions, across all the searches the engines run — full
        // body enumeration, per-atom delta matching, and
        // head-satisfaction seeded with the frontier. The descent order
        // depends only on which variables are bound, so one simulated
        // descent per search covers every branch of the real one.
        // Full TGDs skip the head search: their activeness
        // check always takes the ground membership fast path (a fully
        // bound head never needs a candidate scan), so a pair index on
        // their head predicates would be maintained but never probed.
        // The body-only plan is kept separately for engines that never
        // run restriction checks (the oblivious chase probes body
        // joins only; head keys would be dead maintenance weight).
        let mut body_pair_plan: Vec<(PredId, u16, u16)> = Vec::new();
        collect_pair_keys(&body, None, &[], &mut body_pair_plan);
        for (i, atom) in body.iter().enumerate() {
            let seed: Vec<VarId> = atom.vars().collect();
            collect_pair_keys(&body, Some(i), &seed, &mut body_pair_plan);
        }
        let mut pair_plan = body_pair_plan.clone();
        if !existentials.is_empty() {
            collect_pair_keys(&head, None, &frontier, &mut pair_plan);
        }

        // O(1) activeness probe: single head atom, at least one
        // existential, none of which occurs twice in the head.
        let head_probe = if head.len() == 1 && !existentials.is_empty() {
            let h = &head[0];
            let repeats_existential = existentials
                .iter()
                .any(|&z| h.args.iter().filter(|t| **t == Term::Var(z)).count() > 1);
            if repeats_existential {
                None
            } else {
                let constraints = h
                    .args
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| match t {
                        Term::Var(v) if existentials.binary_search(v).is_err() => {
                            Some((i as u16, *v))
                        }
                        _ => None,
                    })
                    .collect();
                Some(HeadProbe {
                    pred: h.pred,
                    constraints,
                })
            }
        } else {
            None
        };

        Ok(Tgd {
            body,
            head,
            frontier,
            existentials,
            sorted_body_vars,
            body_pattern,
            slot_lists,
            ground_head_pred,
            body_pair_plan,
            pair_plan,
            head_probe,
        })
    }

    /// The body `ϕ(x̄,ȳ)` as a list of atoms.
    #[inline]
    pub fn body(&self) -> &[Atom] {
        &self.body
    }

    /// The head as a list of atoms (singleton for single-head TGDs).
    #[inline]
    pub fn head(&self) -> &[Atom] {
        &self.head
    }

    /// The head atom of a single-head TGD, or `None` for multi-head.
    pub fn single_head(&self) -> Option<&Atom> {
        if self.head.len() == 1 {
            Some(&self.head[0])
        } else {
            None
        }
    }

    /// Whether this TGD is single-head.
    pub fn is_single_head(&self) -> bool {
        self.head.len() == 1
    }

    /// The frontier `fr(σ)`: variables occurring in both body and
    /// head, sorted.
    #[inline]
    pub fn frontier(&self) -> &[VarId] {
        &self.frontier
    }

    /// The existentially quantified variables `z̄`, sorted.
    #[inline]
    pub fn existentials(&self) -> &[VarId] {
        &self.existentials
    }

    /// All body variables, in first-occurrence order.
    #[inline]
    pub fn body_vars(&self) -> &[VarId] {
        self.body_pattern.vars()
    }

    /// All body variables, sorted — the canonical variable order used
    /// by trigger fingerprints and skolem keys. Precomputed at
    /// construction so hot paths never sort.
    #[inline]
    pub fn sorted_body_vars(&self) -> &[VarId] {
        &self.sorted_body_vars
    }

    /// The body compiled for the matcher: slot `i` is
    /// [`Tgd::body_vars`]`[i]`.
    #[inline]
    pub fn body_pattern(&self) -> &Pattern {
        &self.body_pattern
    }

    /// The body-pattern slots of [`Tgd::frontier`], in its order.
    #[inline]
    pub fn frontier_slots(&self) -> &[u32] {
        &self.slot_lists[..self.frontier.len()]
    }

    /// The body-pattern slots of [`Tgd::sorted_body_vars`], in its order.
    #[inline]
    pub fn sorted_body_slots(&self) -> &[u32] {
        let start = self.frontier.len();
        &self.slot_lists[start..start + self.sorted_body_vars.len()]
    }

    /// For a single-head full TGD, the head predicate and the
    /// body-pattern slot of each head argument: a trigger's ground head
    /// `h(head(σ))` read straight from its slots. `None` otherwise.
    #[inline]
    pub fn ground_head(&self) -> Option<(PredId, &[u32])> {
        let start = self.frontier.len() + self.sorted_body_vars.len();
        self.ground_head_pred
            .map(|pred| (pred, &self.slot_lists[start..]))
    }

    /// The composite `(pred, posA, posB)` index keys a matcher descent
    /// over this TGD may probe (body joins, delta matching, and head
    /// satisfaction), deduplicated. Engines register these with
    /// [`crate::instance::Instance::register_pair_index`] before a run.
    #[inline]
    pub fn pair_plan(&self) -> &[(PredId, u16, u16)] {
        &self.pair_plan
    }

    /// The body-join subset of [`Tgd::pair_plan`]: keys a matcher may
    /// probe during body enumeration and delta matching, excluding the
    /// head-satisfaction keys. Engines that never run restriction
    /// checks (oblivious/semi-oblivious) register only these.
    #[inline]
    pub fn body_pair_plan(&self) -> &[(PredId, u16, u16)] {
        &self.body_pair_plan
    }

    /// The precomputed O(1) activeness probe, if this TGD admits one
    /// (single head atom with ≥1 existential, none repeated).
    #[inline]
    pub fn head_probe(&self) -> Option<&HeadProbe> {
        self.head_probe.as_ref()
    }

    /// Whether `v` is existentially quantified in this TGD.
    pub fn is_existential(&self, v: VarId) -> bool {
        self.existentials.binary_search(&v).is_ok()
    }

    /// Whether `v` belongs to the frontier.
    pub fn is_frontier(&self, v: VarId) -> bool {
        self.frontier.binary_search(&v).is_ok()
    }

    /// All predicates mentioned by this TGD (body then head, deduped).
    pub fn predicates(&self) -> Vec<PredId> {
        let mut out = Vec::new();
        for atom in self.body.iter().chain(self.head.iter()) {
            if !out.contains(&atom.pred) {
                out.push(atom.pred);
            }
        }
        out
    }

    /// Renders the TGD, e.g. `R(?x,?y), P(?y,?z) -> exists ?w . T(?x,?y,?w)`.
    pub fn display(&self, vocab: &Vocabulary) -> String {
        let body: Vec<String> = self.body.iter().map(|a| a.display(vocab)).collect();
        let head: Vec<String> = self.head.iter().map(|a| a.display(vocab)).collect();
        let ex = if self.existentials.is_empty() {
            String::new()
        } else {
            let vars: Vec<String> = self
                .existentials
                .iter()
                .map(|&v| format!("?{}", vocab.var_name(v)))
                .collect();
            format!("exists {} . ", vars.join(","))
        };
        format!("{} -> {}{}", body.join(", "), ex, head.join(", "))
    }
}

/// A validated, variable-disjoint set of TGDs (the paper's `T`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TgdSet {
    tgds: Vec<Tgd>,
    max_arity: usize,
    preds: Vec<PredId>,
    pair_plans: Vec<(PredId, u16, u16)>,
    body_pair_plans: Vec<(PredId, u16, u16)>,
    /// Every body atom as `(TGD, body position)`, grouped by predicate
    /// (declaration then body order within a group); predicate `p`'s
    /// group is `body_atoms[body_atom_starts[p]..body_atom_starts[p + 1]]`.
    body_atoms: Vec<(TgdId, u32)>,
    body_atom_starts: Vec<u32>,
}

impl TgdSet {
    /// Builds a TGD set, verifying that distinct TGDs do not share
    /// variables (the paper's standing w.l.o.g. assumption, which the
    /// stickiness marking procedure relies upon).
    pub fn new(tgds: Vec<Tgd>, vocab: &Vocabulary) -> Result<Self, CoreError> {
        let mut seen = fx_set();
        for tgd in &tgds {
            let mut mine = fx_set();
            for atom in tgd.body.iter().chain(tgd.head.iter()) {
                for v in atom.vars() {
                    mine.insert(v);
                }
            }
            for v in &mine {
                if !seen.insert(*v) {
                    return Err(CoreError::SharedVariables);
                }
            }
        }
        let mut preds: Vec<PredId> = Vec::new();
        let mut max_arity = 0;
        for tgd in &tgds {
            for p in tgd.predicates() {
                if !preds.contains(&p) {
                    preds.push(p);
                    max_arity = max_arity.max(vocab.arity(p));
                }
            }
        }
        let mut pair_plans: Vec<(PredId, u16, u16)> = Vec::new();
        let mut body_pair_plans: Vec<(PredId, u16, u16)> = Vec::new();
        for tgd in &tgds {
            for &key in &tgd.pair_plan {
                if !pair_plans.contains(&key) {
                    pair_plans.push(key);
                }
            }
            for &key in &tgd.body_pair_plan {
                if !body_pair_plans.contains(&key) {
                    body_pair_plans.push(key);
                }
            }
        }
        // A counting sort of the body atoms by predicate, which keeps
        // declaration then body order within a predicate.
        let body_atom_preds = || {
            tgds.iter()
                .flat_map(|tgd| tgd.body.iter().map(|a| a.pred.index()))
        };
        let n_preds = body_atom_preds().max().map_or(0, |p| p + 1);
        let mut body_atom_starts = vec![0u32; n_preds + 1];
        for p in body_atom_preds() {
            body_atom_starts[p + 1] += 1;
        }
        for p in 0..n_preds {
            body_atom_starts[p + 1] += body_atom_starts[p];
        }
        let mut next = body_atom_starts.clone();
        let mut body_atoms = vec![(TgdId(0), 0u32); body_atom_starts[n_preds] as usize];
        for (t, tgd) in tgds.iter().enumerate() {
            for (i, atom) in tgd.body.iter().enumerate() {
                let at = &mut next[atom.pred.index()];
                body_atoms[*at as usize] = (TgdId(t as u32), i as u32);
                *at += 1;
            }
        }
        Ok(TgdSet {
            tgds,
            max_arity,
            preds,
            pair_plans,
            body_pair_plans,
            body_atoms,
            body_atom_starts,
        })
    }

    /// The TGDs, in declaration order.
    #[inline]
    pub fn tgds(&self) -> &[Tgd] {
        &self.tgds
    }

    /// Number of TGDs.
    pub fn len(&self) -> usize {
        self.tgds.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tgds.is_empty()
    }

    /// The TGD with the given identifier.
    #[inline]
    pub fn tgd(&self, id: TgdId) -> &Tgd {
        &self.tgds[id.index()]
    }

    /// Iterates over `(id, tgd)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TgdId, &Tgd)> {
        self.tgds
            .iter()
            .enumerate()
            .map(|(i, t)| (TgdId(i as u32), t))
    }

    /// The schema `sch(T)`: predicates occurring in the set.
    #[inline]
    pub fn schema_preds(&self) -> &[PredId] {
        &self.preds
    }

    /// The paper's `ar(T)`: maximum arity over `sch(T)`.
    #[inline]
    pub fn max_arity(&self) -> usize {
        self.max_arity
    }

    /// The union of all member TGDs' composite-index plans (see
    /// [`Tgd::pair_plan`]), deduplicated. Engines register each key on
    /// their working instance once, before the run.
    #[inline]
    pub fn pair_plans(&self) -> &[(PredId, u16, u16)] {
        &self.pair_plans
    }

    /// The union of the body-join subsets (see
    /// [`Tgd::body_pair_plan`]), deduplicated. For engines that never
    /// run restriction checks.
    #[inline]
    pub fn body_pair_plans(&self) -> &[(PredId, u16, u16)] {
        &self.body_pair_plans
    }

    /// The body atoms with predicate `pred`, as `(TGD, body position)`
    /// pairs in declaration order, then body order: the atoms a new
    /// `pred` atom can be matched to in semi-naive delta matching.
    #[inline]
    pub fn body_atoms_with_pred(&self, pred: PredId) -> &[(TgdId, u32)] {
        match self.body_atom_starts.get(pred.index()..pred.index() + 2) {
            Some(&[start, end]) => &self.body_atoms[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Whether every TGD is single-head; the termination deciders
    /// require this.
    pub fn all_single_head(&self) -> bool {
        self.tgds.iter().all(Tgd::is_single_head)
    }

    /// Returns an error naming the first multi-head TGD, if any.
    pub fn require_single_head(&self) -> Result<(), CoreError> {
        match self.tgds.iter().position(|t| !t.is_single_head()) {
            None => Ok(()),
            Some(i) => Err(CoreError::NotSingleHead { tgd_index: i }),
        }
    }

    /// Renders the whole set, one TGD per line.
    pub fn display(&self, vocab: &Vocabulary) -> String {
        self.tgds
            .iter()
            .map(|t| t.display(vocab))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Convenience builder for constructing TGDs programmatically (used by
/// the workload generators and tests). Each builder owns a private
/// variable scope, so rules built by separate builders are
/// automatically variable-disjoint.
#[derive(Debug)]
pub struct RuleBuilder<'v> {
    vocab: &'v mut Vocabulary,
    vars: Vec<(String, VarId)>,
    body: Vec<Atom>,
    head: Vec<Atom>,
}

impl<'v> RuleBuilder<'v> {
    /// Starts a new rule with a fresh variable scope.
    pub fn new(vocab: &'v mut Vocabulary) -> Self {
        RuleBuilder {
            vocab,
            vars: Vec::new(),
            body: Vec::new(),
            head: Vec::new(),
        }
    }

    /// Returns the variable named `name` in this rule's scope,
    /// creating it on first use.
    pub fn var(&mut self, name: &str) -> Term {
        if let Some((_, v)) = self.vars.iter().find(|(n, _)| n == name) {
            return Term::Var(*v);
        }
        let v = self.vocab.fresh_var(name);
        self.vars.push((name.to_string(), v));
        Term::Var(v)
    }

    /// Adds a body atom.
    pub fn body(&mut self, pred: &str, args: &[Term]) -> Result<&mut Self, CoreError> {
        let p = self.vocab.pred(pred, args.len())?;
        self.body.push(Atom::new(p, args.to_vec()));
        Ok(self)
    }

    /// Adds a head atom.
    pub fn head(&mut self, pred: &str, args: &[Term]) -> Result<&mut Self, CoreError> {
        let p = self.vocab.pred(pred, args.len())?;
        self.head.push(Atom::new(p, args.to_vec()));
        Ok(self)
    }

    /// Finalises the rule.
    pub fn build(self) -> Result<Tgd, CoreError> {
        Tgd::new(self.body, self.head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds `R(x,y) -> exists z . R(x,z)` (the intro example).
    fn intro_rule(vocab: &mut Vocabulary) -> Tgd {
        let mut b = RuleBuilder::new(vocab);
        let x = b.var("x");
        let y = b.var("y");
        let z = b.var("z");
        b.body("R", &[x, y]).unwrap();
        b.head("R", &[x, z]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn frontier_and_existentials() {
        let mut vocab = Vocabulary::new();
        let tgd = intro_rule(&mut vocab);
        assert_eq!(tgd.frontier().len(), 1);
        assert_eq!(tgd.existentials().len(), 1);
        assert_eq!(tgd.body_vars().len(), 2);
        assert!(tgd.is_single_head());
        let x = tgd.body()[0].args[0].as_var().unwrap();
        let y = tgd.body()[0].args[1].as_var().unwrap();
        let z = tgd.head()[0].args[1].as_var().unwrap();
        assert!(tgd.is_frontier(x));
        assert!(!tgd.is_frontier(y));
        assert!(tgd.is_existential(z));
    }

    #[test]
    fn precomputed_layouts() {
        let mut vocab = Vocabulary::new();
        let mut b = RuleBuilder::new(&mut vocab);
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.body("R", &[y, x]).unwrap();
        b.body("S", &[x, z]).unwrap();
        b.head("T", &[x]).unwrap();
        let tgd = b.build().unwrap();
        // Sorted variable layout is sorted, regardless of occurrence order.
        let mut expect = tgd.body_vars().to_vec();
        expect.sort();
        assert_eq!(tgd.sorted_body_vars(), expect.as_slice());
        // Slot `i` is the `i`-th body variable, and the slot lists
        // name the frontier, the sorted body variables and the ground
        // head's arguments in their orders.
        assert_eq!(tgd.body_pattern().vars(), tgd.body_vars());
        let vars_of = |slots: &[u32]| -> Vec<VarId> {
            slots.iter().map(|&s| tgd.body_vars()[s as usize]).collect()
        };
        assert_eq!(vars_of(tgd.frontier_slots()), tgd.frontier());
        assert_eq!(vars_of(tgd.sorted_body_slots()), tgd.sorted_body_vars());
        let (pred, head) = tgd.ground_head().expect("single-head full TGD");
        assert_eq!(pred, tgd.head()[0].pred);
        assert_eq!(vars_of(head), [x.as_var().unwrap()]);
    }

    #[test]
    fn empty_body_rejected() {
        let mut vocab = Vocabulary::new();
        let p = vocab.pred("P", 1).unwrap();
        let x = vocab.fresh_var("x");
        let err = Tgd::new(vec![], vec![Atom::new(p, vec![Term::Var(x)])]).unwrap_err();
        assert_eq!(err, CoreError::EmptyBody);
    }

    #[test]
    fn constants_in_rules_rejected() {
        let mut vocab = Vocabulary::new();
        let p = vocab.pred("P", 1).unwrap();
        let a = vocab.constant("a");
        let err = Tgd::new(
            vec![Atom::new(p, vec![Term::Const(a)])],
            vec![Atom::new(p, vec![Term::Const(a)])],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::ConstantInRule { .. }));
    }

    #[test]
    fn tgd_set_rejects_shared_variables() {
        let mut vocab = Vocabulary::new();
        let p = vocab.pred("P", 1).unwrap();
        let x = vocab.fresh_var("x");
        let t1 = Tgd::new(
            vec![Atom::new(p, vec![Term::Var(x)])],
            vec![Atom::new(p, vec![Term::Var(x)])],
        )
        .unwrap();
        let t2 = t1.clone();
        let err = TgdSet::new(vec![t1, t2], &vocab).unwrap_err();
        assert_eq!(err, CoreError::SharedVariables);
    }

    #[test]
    fn tgd_set_schema_and_arity() {
        let mut vocab = Vocabulary::new();
        let t1 = intro_rule(&mut vocab);
        let mut b = RuleBuilder::new(&mut vocab);
        let (u, v, w) = (b.var("u"), b.var("v"), b.var("w"));
        b.body("T3", &[u, v, w]).unwrap();
        b.head("R", &[u, v]).unwrap();
        let t2 = b.build().unwrap();
        let set = TgdSet::new(vec![t1, t2], &vocab).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.max_arity(), 3);
        assert_eq!(set.schema_preds().len(), 2);
        assert!(set.all_single_head());
        assert!(set.require_single_head().is_ok());
    }

    #[test]
    fn multi_head_detected() {
        let mut vocab = Vocabulary::new();
        let mut b = RuleBuilder::new(&mut vocab);
        let (x, y) = (b.var("x"), b.var("y"));
        b.body("R", &[x, y]).unwrap();
        b.head("P", &[x]).unwrap();
        b.head("Q", &[y]).unwrap();
        let t = b.build().unwrap();
        assert!(!t.is_single_head());
        assert!(t.single_head().is_none());
        let set = TgdSet::new(vec![t], &vocab).unwrap();
        assert!(matches!(
            set.require_single_head(),
            Err(CoreError::NotSingleHead { tgd_index: 0 })
        ));
    }

    #[test]
    fn head_probe_shape() {
        let mut vocab = Vocabulary::new();
        // R(x,y) -> exists z . R(x,z): one frontier constraint at pos 0.
        let tgd = intro_rule(&mut vocab);
        let probe = tgd.head_probe().expect("existential single head");
        assert_eq!(probe.pred, tgd.head()[0].pred);
        let x = tgd.body()[0].args[0].as_var().unwrap();
        assert_eq!(probe.constraints, vec![(0u16, x)]);
    }

    #[test]
    fn head_probe_absent_for_full_and_multi_head() {
        let mut vocab = Vocabulary::new();
        // Full TGD (no existentials): no probe — the ground
        // membership fast path covers it.
        let mut b = RuleBuilder::new(&mut vocab);
        let (x, y) = (b.var("x"), b.var("y"));
        b.body("R", &[x, y]).unwrap();
        b.head("S", &[y, x]).unwrap();
        assert!(b.build().unwrap().head_probe().is_none());
        // Multi-head: no probe.
        let mut b = RuleBuilder::new(&mut vocab);
        let (u, w) = (b.var("u"), b.var("w"));
        b.body("R", &[u, u]).unwrap();
        b.head("P", &[u]).unwrap();
        b.head("Q", &[w]).unwrap();
        assert!(b.build().unwrap().head_probe().is_none());
    }

    #[test]
    fn head_probe_absent_for_repeated_existential() {
        let mut vocab = Vocabulary::new();
        // R(x) -> exists z . S(z,z): z's two occurrences constrain
        // each other, so the probe shortcut is unsound — must be None.
        let mut b = RuleBuilder::new(&mut vocab);
        let (x, z) = (b.var("x"), b.var("z"));
        b.body("R", &[x]).unwrap();
        b.head("S", &[z, z]).unwrap();
        assert!(b.build().unwrap().head_probe().is_none());
    }

    #[test]
    fn head_probe_handles_repeated_frontier_and_no_frontier() {
        let mut vocab = Vocabulary::new();
        // R(x) -> exists z . S(x,x,z): two constraints on x.
        let mut b = RuleBuilder::new(&mut vocab);
        let (x, z) = (b.var("x"), b.var("z"));
        b.body("R", &[x]).unwrap();
        b.head("S", &[x, x, z]).unwrap();
        let tgd = b.build().unwrap();
        let probe = tgd.head_probe().unwrap();
        let xv = x.as_var().unwrap();
        assert_eq!(probe.constraints, vec![(0u16, xv), (1u16, xv)]);
        // P(u) -> exists w . Q(w): no constraints at all.
        let mut b = RuleBuilder::new(&mut vocab);
        let (u, w) = (b.var("u"), b.var("w"));
        b.body("P", &[u]).unwrap();
        b.head("Q", &[w]).unwrap();
        assert!(b
            .build()
            .unwrap()
            .head_probe()
            .unwrap()
            .constraints
            .is_empty());
    }

    #[test]
    fn pair_plan_covers_join_bodies_and_heads() {
        let mut vocab = Vocabulary::new();
        // E(x,y), E(y,z), E(x,z) -> exists w. M(x,z,w): the full-body
        // descent reaches the third atom with both positions bound
        // (pair key on E), and the frontier-seeded head search probes
        // M on its two frontier positions (pair key on M).
        let mut b = RuleBuilder::new(&mut vocab);
        let (x, y, z, w) = (b.var("x"), b.var("y"), b.var("z"), b.var("w"));
        b.body("E", &[x, y]).unwrap();
        b.body("E", &[y, z]).unwrap();
        b.body("E", &[x, z]).unwrap();
        b.head("M", &[x, z, w]).unwrap();
        let tgd = b.build().unwrap();
        let e = tgd.body()[0].pred;
        let m = tgd.head()[0].pred;
        assert!(tgd.pair_plan().contains(&(e, 0, 1)));
        assert!(tgd.pair_plan().contains(&(m, 0, 1)));
        // The body-only plan keeps the join key but drops the
        // head-satisfaction key.
        assert!(tgd.body_pair_plan().contains(&(e, 0, 1)));
        assert!(!tgd.body_pair_plan().contains(&(m, 0, 1)));
        // Existential: no ground head.
        assert!(tgd.ground_head().is_none());
    }

    #[test]
    fn full_tgds_contribute_no_head_pair_keys() {
        // E(x,y), E(y,z) -> E(x,z): the activeness check of a full TGD
        // always takes the ground membership fast path, so its head
        // must not register a composite pair index that would be
        // maintained on every insert but never probed.
        let mut vocab = Vocabulary::new();
        let mut b = RuleBuilder::new(&mut vocab);
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.body("E", &[x, y]).unwrap();
        b.body("E", &[y, z]).unwrap();
        b.head("E", &[x, z]).unwrap();
        let tgd = b.build().unwrap();
        assert!(tgd.pair_plan().is_empty());
    }

    #[test]
    fn multi_head_pair_keys_follow_the_frontier_seeded_search() {
        // P(x,y) -> exists z. Q(x,z), S(x,z): the head search binds x,
        // matches Q(x,z) on one bound position, then probes S with x
        // and z bound. Q is never probed with two bound positions, so
        // it gets no pair index.
        let mut vocab = Vocabulary::new();
        let mut b = RuleBuilder::new(&mut vocab);
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.body("P", &[x, y]).unwrap();
        b.head("Q", &[x, z]).unwrap();
        b.head("S", &[x, z]).unwrap();
        let tgd = b.build().unwrap();
        let (q, s) = (tgd.head()[0].pred, tgd.head()[1].pred);
        assert_eq!(tgd.pair_plan(), [(s, 0, 1)]);
        assert!(!tgd.pair_plan().contains(&(q, 0, 1)));
    }

    #[test]
    fn tgd_set_aggregates_plans() {
        let mut vocab = Vocabulary::new();
        let t1 = intro_rule(&mut vocab); // single-atom body
        let mut b = RuleBuilder::new(&mut vocab);
        let (x, y, z, w) = (b.var("jx"), b.var("jy"), b.var("jz"), b.var("jw"));
        b.body("E", &[x, y]).unwrap();
        b.body("E", &[y, z]).unwrap();
        b.head("M", &[x, z, w]).unwrap();
        let t2 = b.build().unwrap();
        let set = TgdSet::new(vec![t1, t2], &vocab).unwrap();
        let m = set.tgd(TgdId(1)).head()[0].pred;
        assert!(set.pair_plans().contains(&(m, 0, 1)));
        assert!(!set.body_pair_plans().contains(&(m, 0, 1)));
        // Aggregation deduplicates across TGDs.
        let mut sorted = set.pair_plans().to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), set.pair_plans().len());
    }

    #[test]
    fn display_roundtrips_visually() {
        let mut vocab = Vocabulary::new();
        let tgd = intro_rule(&mut vocab);
        let s = tgd.display(&vocab);
        assert!(s.contains("R(?x,?y)"));
        assert!(s.contains("exists ?z"));
    }
}

//! The homomorphism engine: backtracking conjunctive matching of atom
//! lists against instances.
//!
//! This is the workhorse under every chase step (finding triggers,
//! checking whether a trigger is active) and under TGD satisfaction
//! checking. Candidate atoms are fetched through the instance's
//! inverted indexes when available; atoms are matched in a
//! most-bound-first dynamic order.
//!
//! ## Hot-path architecture
//!
//! The matcher is *iterative*, not recursive: the choice-point stack
//! lives in a reusable [`HomScratch`] arena (frames, candidate-slot
//! buffer, remaining-pattern worklist), so steady-state matching
//! performs **zero heap allocations** — every buffer reaches a
//! high-water capacity and is reused across calls. Engines own a
//! scratch and pass it to the `*_with` entry points; the plain entry
//! points borrow one from a thread-local pool so the public API is
//! unchanged.
//!
//! The original recursive matcher is preserved verbatim in
//! [`reference`](mod@reference) as the executable specification: the iterative
//! matcher enumerates homomorphisms in *exactly* the same order (same
//! dynamic selection, same tie-breaks, same candidate ordering), which
//! the equivalence test suite checks end-to-end through the engines.

use std::cell::RefCell;
use std::ops::ControlFlow;

use crate::atom::{Atom, AtomRef};
use crate::ids::{PredId, VarId};
use crate::instance::Instance;
use crate::subst::Binding;
use crate::term::Term;
use crate::tgd::{Tgd, TgdSet};

/// Attempts to unify `pattern` (which may contain variables) with the
/// ground atom `target` under `binding`, extending the binding.
/// Returns `Some(mark)` (the trail mark to truncate to on undo) on
/// success, `None` on failure (in which case the binding is restored).
fn unify_atom(pattern: &Atom, target: AtomRef<'_>, binding: &mut Binding) -> Option<usize> {
    debug_assert_eq!(pattern.pred, target.pred);
    debug_assert_eq!(pattern.arity(), target.arity());
    let mark = binding.mark();
    for (p, &t) in pattern.args.iter().zip(target.args.iter()) {
        match *p {
            Term::Var(v) => match binding.get(v) {
                Some(bound) => {
                    if bound != t {
                        binding.truncate(mark);
                        return None;
                    }
                }
                None => binding.push(v, t),
            },
            ground => {
                if ground != t {
                    binding.truncate(mark);
                    return None;
                }
            }
        }
    }
    Some(mark)
}

/// How "bound" a pattern atom is under the current binding: the number
/// of argument positions already forced to a ground term. Used to pick
/// the next atom to match (most selective first).
fn boundness(pattern: &Atom, binding: &Binding) -> usize {
    pattern
        .args
        .iter()
        .filter(|t| match **t {
            Term::Var(v) => binding.get(v).is_some(),
            _ => true,
        })
        .count()
}

/// Appends the slots of candidate atoms for `pattern` under `binding`
/// to `out`. Uses the tightest index available — a registered
/// composite two-position index over the pattern's first two ground
/// positions when it beats the best single-position list — falling
/// back to single-position indexes and then the per-predicate list.
///
/// The composite probe preserves the enumeration order of
/// [`reference::candidate_slots`]: every index lists slots ascending,
/// and the pair list is exactly the order-preserving subset of the
/// single lists whose atoms satisfy *both* position constraints.
/// Candidates it filters out would have failed `unify_atom` anyway, so
/// swapping it in changes the number of probes, never the sequence of
/// matches — the bit-identity the seed oracle suite checks.
fn push_candidates(pattern: &Atom, binding: &Binding, instance: &Instance, out: &mut Vec<usize>) {
    let mut best: Option<&[usize]> = None;
    let mut first_ground: Option<(usize, Term)> = None;
    let mut pair: Option<&[usize]> = None;
    for (i, term) in pattern.args.iter().enumerate() {
        let ground = match *term {
            Term::Var(v) => match binding.get(v) {
                Some(t) => t,
                None => continue,
            },
            t => t,
        };
        let slots = instance.slots_with_pred_pos(pattern.pred, i, ground);
        if slots.is_empty() {
            return;
        }
        if best.is_none_or(|b| slots.len() < b.len()) {
            best = Some(slots);
        }
        match first_ground {
            None => first_ground = Some((i, ground)),
            Some((fi, ft)) if pair.is_none() => {
                pair = instance.slots_with_pred_pair(pattern.pred, fi, ft, i, ground);
            }
            Some(_) => {}
        }
    }
    if let Some(p) = pair {
        if best.is_none_or(|b| p.len() < b.len()) {
            out.extend_from_slice(p);
            return;
        }
    }
    out.extend_from_slice(best.unwrap_or_else(|| instance.slots_with_pred(pattern.pred)));
}

/// One choice point of the iterative matcher: which pattern atom was
/// selected at this depth, where its candidate slots live in the
/// shared slot buffer, the enumeration cursor, and the binding mark of
/// the unification currently being explored below this frame.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    pattern: u32,
    slots_start: u32,
    slots_len: u32,
    cursor: u32,
    mark: u32,
}

/// Reusable scratch arena for the iterative homomorphism search.
///
/// Holds the choice-point stack, the concatenated candidate-slot
/// buffer, the remaining-pattern worklist, and a spare [`Binding`]
/// used by the borrowing entry points ([`exists_homomorphism`],
/// trigger enumeration). All buffers retain their capacity between
/// runs, so a warmed scratch performs no heap allocation.
#[derive(Debug)]
pub struct HomScratch {
    frames: Vec<Frame>,
    slots: Vec<usize>,
    remaining: Vec<u32>,
    binding: Binding,
    /// Reusable ground atom for the membership fast path of
    /// [`exists_homomorphism_with`]; its argument buffer keeps its
    /// capacity across probes.
    probe: Atom,
}

impl Default for HomScratch {
    fn default() -> Self {
        HomScratch {
            frames: Vec::new(),
            slots: Vec::new(),
            remaining: Vec::new(),
            binding: Binding::new(),
            probe: Atom::new(PredId(0), Vec::new()),
        }
    }
}

impl HomScratch {
    /// Creates an empty scratch arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the spare binding out of the scratch (leaving an empty
    /// one), so callers can seed and use it while the scratch itself
    /// drives a search. Pair with [`HomScratch::put_binding`].
    #[inline]
    pub fn take_binding(&mut self) -> Binding {
        std::mem::take(&mut self.binding)
    }

    /// Returns a binding taken via [`HomScratch::take_binding`],
    /// preserving its capacity for the next reuse.
    #[inline]
    pub fn put_binding(&mut self, binding: Binding) {
        self.binding = binding;
    }

    /// Selects the most-bound remaining pattern (first-max tie-break,
    /// identical to the reference matcher), removes it from the
    /// worklist and pushes a frame with its candidate slots.
    fn push_node(&mut self, patterns: &[Atom], instance: &Instance, binding: &Binding) {
        let mut best_idx = 0;
        let mut best_score = 0;
        for (i, &p) in self.remaining.iter().enumerate() {
            let score = boundness(&patterns[p as usize], binding);
            if i == 0 || score > best_score {
                best_idx = i;
                best_score = score;
            }
        }
        let pattern = self.remaining.swap_remove(best_idx);
        let start = self.slots.len();
        push_candidates(
            &patterns[pattern as usize],
            binding,
            instance,
            &mut self.slots,
        );
        self.frames.push(Frame {
            pattern,
            slots_start: start as u32,
            slots_len: (self.slots.len() - start) as u32,
            cursor: 0,
            mark: 0,
        });
    }
}

thread_local! {
    /// Pool of scratch arenas for the borrowing entry points. A pool
    /// (rather than a single slot) because matching re-enters: a
    /// satisfaction check runs the matcher inside a matcher callback.
    static SCRATCH_POOL: RefCell<Vec<HomScratch>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a scratch arena borrowed from the thread-local pool.
/// Re-entrant: nested calls borrow distinct arenas. Steady state pops
/// and pushes a pooled arena without allocating.
pub fn with_scratch<R>(f: impl FnOnce(&mut HomScratch) -> R) -> R {
    let mut scratch = SCRATCH_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default();
    let out = f(&mut scratch);
    SCRATCH_POOL.with(|p| p.borrow_mut().push(scratch));
    out
}

/// The iterative backtracking search. Replicates the enumeration
/// order of [`reference::for_each_homomorphism`] exactly; see the
/// module docs.
fn search_iterative(
    scratch: &mut HomScratch,
    patterns: &[Atom],
    instance: &Instance,
    binding: &mut Binding,
    f: &mut dyn FnMut(&Binding) -> ControlFlow<()>,
) -> ControlFlow<()> {
    if patterns.is_empty() {
        return f(binding);
    }
    let base = binding.mark();
    scratch.frames.clear();
    scratch.slots.clear();
    scratch.remaining.clear();
    scratch.remaining.extend(0..patterns.len() as u32);
    scratch.push_node(patterns, instance, binding);
    loop {
        // Advance the top frame to its next matching slot.
        let fi = scratch.frames.len() - 1;
        let mut descended = false;
        loop {
            let Frame {
                pattern,
                slots_start,
                slots_len,
                cursor,
                ..
            } = scratch.frames[fi];
            if cursor >= slots_len {
                break;
            }
            scratch.frames[fi].cursor += 1;
            let slot = scratch.slots[(slots_start + cursor) as usize];
            let pat = &patterns[pattern as usize];
            if let Some(mark) = unify_atom(pat, instance.atom(slot), binding) {
                if scratch.remaining.is_empty() {
                    let flow = f(binding);
                    binding.truncate(mark);
                    if flow.is_break() {
                        binding.truncate(base);
                        return ControlFlow::Break(());
                    }
                } else {
                    scratch.frames[fi].mark = mark as u32;
                    scratch.push_node(patterns, instance, binding);
                    descended = true;
                    break;
                }
            }
        }
        if descended {
            continue;
        }
        // Top frame exhausted: undo its selection and resume the parent.
        let done = scratch.frames.pop().expect("frame stack non-empty");
        scratch.remaining.push(done.pattern);
        scratch.slots.truncate(done.slots_start as usize);
        match scratch.frames.last() {
            None => {
                debug_assert_eq!(binding.mark(), base);
                return ControlFlow::Continue(());
            }
            Some(parent) => binding.truncate(parent.mark as usize),
        }
    }
}

/// Enumerates all homomorphisms from the conjunction `patterns` into
/// `instance` that extend `binding`, invoking `f` for each, using the
/// caller's scratch arena (allocation-free once warmed). Stops early
/// if `f` breaks. Returns the final flow.
pub fn for_each_homomorphism_with(
    scratch: &mut HomScratch,
    patterns: &[Atom],
    instance: &Instance,
    binding: &mut Binding,
    f: &mut dyn FnMut(&Binding) -> ControlFlow<()>,
) -> ControlFlow<()> {
    // Fast precheck: every pattern predicate must be populated.
    for p in patterns {
        if instance.slots_with_pred(p.pred).is_empty() {
            return ControlFlow::Continue(());
        }
    }
    search_iterative(scratch, patterns, instance, binding, f)
}

/// Enumerates all homomorphisms from the conjunction `patterns` into
/// `instance` that extend `binding`, invoking `f` for each. Stops
/// early if `f` breaks. Returns the final flow.
///
/// Borrows a scratch arena from the thread-local pool; engines hold
/// their own arena and call [`for_each_homomorphism_with`] instead.
pub fn for_each_homomorphism(
    patterns: &[Atom],
    instance: &Instance,
    binding: &mut Binding,
    f: &mut dyn FnMut(&Binding) -> ControlFlow<()>,
) -> ControlFlow<()> {
    with_scratch(|scratch| for_each_homomorphism_with(scratch, patterns, instance, binding, f))
}

/// Membership fast path for existence checks: when every pattern atom
/// is fully ground under `binding`, a homomorphism exists iff each
/// resolved atom is a member of the instance — one atom→slot hash
/// probe per atom instead of a candidate scan. Returns `None` when
/// some argument is an unbound variable, in which case the general
/// search must run. The probe atom is scratch-owned, so the fast path
/// allocates nothing once its argument buffer is warmed.
fn exists_ground_fast(
    scratch: &mut HomScratch,
    patterns: &[Atom],
    instance: &Instance,
    binding: &Binding,
) -> Option<bool> {
    let probe = &mut scratch.probe;
    for pat in patterns {
        probe.pred = pat.pred;
        probe.args.clear();
        for t in &pat.args {
            match *t {
                Term::Var(v) => probe.args.push(binding.get(v)?),
                ground => probe.args.push(ground),
            }
        }
        if !instance.contains(probe) {
            return Some(false);
        }
    }
    Some(true)
}

/// Whether some homomorphism from `patterns` into `instance` extends
/// `binding`, using the caller's scratch (allocation-free).
///
/// Existence does not care about enumeration order, so this entry
/// point may (unlike the `for_each` family) take the ground membership
/// fast path; the recursive [`reference::exists_homomorphism`] has no
/// such path and remains the benchmark baseline.
pub fn exists_homomorphism_with(
    scratch: &mut HomScratch,
    patterns: &[Atom],
    instance: &Instance,
    binding: &Binding,
) -> bool {
    if let Some(hit) = exists_ground_fast(scratch, patterns, instance, binding) {
        return hit;
    }
    let mut b = scratch.take_binding();
    b.copy_from(binding);
    let out = for_each_homomorphism_with(scratch, patterns, instance, &mut b, &mut |_| {
        ControlFlow::Break(())
    })
    .is_break();
    scratch.put_binding(b);
    out
}

/// Whether some homomorphism from `patterns` into `instance` extends
/// `binding`.
pub fn exists_homomorphism(patterns: &[Atom], instance: &Instance, binding: &Binding) -> bool {
    with_scratch(|scratch| exists_homomorphism_with(scratch, patterns, instance, binding))
}

/// Constant-time(ish) head-satisfaction check via a precomputed
/// [`crate::tgd::HeadProbe`].
///
/// Returns `Some(sat)` when the TGD admits a probe and every
/// constraint variable is bound; `None` means the caller must fall
/// back to the general search. The result equals
/// `exists_homomorphism(tgd.head(), instance, binding)`: the probe's
/// constraints are exactly what unification of the single head atom
/// enforces (distinct existentials are free).
pub fn head_satisfied_probe(tgd: &Tgd, instance: &Instance, binding: &Binding) -> Option<bool> {
    let probe = tgd.head_probe()?;
    let constraints = &probe.constraints;
    // Every constraint variable must be resolved (frontier variables
    // always are under a trigger binding).
    for &(_, var) in constraints {
        binding.get(var)?;
    }
    let hit = |slots: &[usize], check: &[(u16, VarId)]| -> bool {
        slots.iter().any(|&slot| {
            let atom = instance.atom(slot);
            check
                .iter()
                .all(|&(pos, var)| binding.get(var) == Some(atom.args[pos as usize]))
        })
    };
    // Composite probe on the first two constraints, when registered.
    if constraints.len() >= 2 {
        let (p0, v0) = constraints[0];
        let (p1, v1) = constraints[1];
        let t0 = binding.get(v0)?;
        let t1 = binding.get(v1)?;
        if let Some(slots) =
            instance.slots_with_pred_pair(probe.pred, p0 as usize, t0, p1 as usize, t1)
        {
            return Some(hit(slots, &constraints[2..]));
        }
    }
    // Tightest single-position index, else the predicate list.
    let mut best: Option<&[usize]> = None;
    for &(pos, var) in constraints {
        let t = binding.get(var)?;
        let slots = instance.slots_with_pred_pos(probe.pred, pos as usize, t);
        // No atom matches this constraint anywhere.
        if slots.is_empty() {
            return Some(false);
        }
        if best.is_none_or(|b| slots.len() < b.len()) {
            best = Some(slots);
        }
    }
    let slots = best.unwrap_or_else(|| instance.slots_with_pred(probe.pred));
    Some(hit(slots, constraints))
}

/// Collects every homomorphism from `patterns` into `instance` as an
/// owned [`Binding`]. Intended for tests and small inputs; engines use
/// [`for_each_homomorphism`] to avoid allocation.
pub fn all_homomorphisms(patterns: &[Atom], instance: &Instance) -> Vec<Binding> {
    let mut out = Vec::new();
    let mut binding = Binding::new();
    let _ = for_each_homomorphism(patterns, instance, &mut binding, &mut |b| {
        out.push(b.clone());
        ControlFlow::Continue(())
    });
    out
}

/// Whether `instance |= tgd`: for every homomorphism `h` of the body,
/// some extension of `h|fr` maps the head into the instance.
///
/// The head matcher is seeded with the *full* body homomorphism rather
/// than a materialised `h|fr`: head atoms mention only frontier and
/// existential variables, and TGD validation guarantees existentials
/// are disjoint from body variables, so the extra entries are never
/// consulted — same result, no allocation.
pub fn satisfies(instance: &Instance, tgd: &Tgd) -> bool {
    with_scratch(|outer| {
        let mut binding = outer.take_binding();
        binding.clear();
        let flow =
            for_each_homomorphism_with(outer, tgd.body(), instance, &mut binding, &mut |h| {
                if exists_homomorphism(tgd.head(), instance, h) {
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(())
                }
            });
        outer.put_binding(binding);
        flow.is_continue()
    })
}

/// Whether `instance |= T` for every TGD in the set.
pub fn satisfies_all(instance: &Instance, set: &TgdSet) -> bool {
    set.tgds().iter().all(|t| satisfies(instance, t))
}

/// Checks for a homomorphism from the set of ground atoms `from` onto
/// the set `to` (both as instances); used by tests for universal-model
/// reasoning. Nulls are treated as variables, constants are fixed.
pub fn ground_homomorphism_exists(from: &Instance, to: &Instance) -> bool {
    // Translate nulls of `from` into variables and reuse the matcher.
    use crate::ids::{fx_map, VarId};
    let mut var_of_null = fx_map();
    let mut next = 0u32;
    let patterns: Vec<Atom> = from
        .iter()
        .map(|a| {
            Atom::new(
                a.pred,
                a.args
                    .iter()
                    .map(|&t| match t {
                        Term::Null(n) => {
                            let v = *var_of_null.entry(n).or_insert_with(|| {
                                let v = VarId(u32::MAX - next);
                                next += 1;
                                v
                            });
                            Term::Var(v)
                        }
                        other => other,
                    })
                    .collect::<crate::atom::ArgVec>(),
            )
        })
        .collect();
    exists_homomorphism(&patterns, to, &Binding::new())
}

/// The pre-optimisation recursive matcher, kept verbatim as the
/// executable specification of enumeration order and as the baseline
/// for the hot-path benchmarks (`BENCH_hotpath.json`). Allocates a
/// candidate-slot `Vec` per search node; do not use on hot paths.
pub mod reference {
    use super::{boundness, unify_atom};
    use crate::atom::Atom;
    use crate::instance::Instance;
    use crate::subst::Binding;
    use crate::term::Term;
    use std::ops::ControlFlow;

    /// Fetches the slots of candidate atoms for `pattern` under
    /// `binding`. Uses the tightest single-position index available;
    /// falls back to the per-predicate list.
    pub(super) fn candidate_slots<'i>(
        pattern: &Atom,
        binding: &Binding,
        instance: &'i Instance,
    ) -> &'i [usize] {
        let mut best: Option<&[usize]> = None;
        for (i, term) in pattern.args.iter().enumerate() {
            let ground = match *term {
                Term::Var(v) => match binding.get(v) {
                    Some(t) => t,
                    None => continue,
                },
                t => t,
            };
            let slots = instance.slots_with_pred_pos(pattern.pred, i, ground);
            if slots.is_empty() {
                return slots;
            }
            if best.is_none_or(|b| slots.len() < b.len()) {
                best = Some(slots);
            }
        }
        best.unwrap_or_else(|| instance.slots_with_pred(pattern.pred))
    }

    fn search(
        remaining: &mut Vec<&Atom>,
        instance: &Instance,
        binding: &mut Binding,
        f: &mut dyn FnMut(&Binding) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if remaining.is_empty() {
            return f(binding);
        }
        // Pick the most-bound pattern atom (dynamic selectivity order).
        let mut best_idx = 0;
        let mut best_score = 0;
        for (i, atom) in remaining.iter().enumerate() {
            let score = boundness(atom, binding);
            if i == 0 || score > best_score {
                best_idx = i;
                best_score = score;
            }
        }
        let pattern = remaining.swap_remove(best_idx);
        let slots: Vec<usize> = candidate_slots(pattern, binding, instance).to_vec();
        for slot in slots {
            let target = instance.atom(slot);
            if let Some(mark) = unify_atom(pattern, target, binding) {
                let flow = search(remaining, instance, binding, f);
                binding.truncate(mark);
                if flow.is_break() {
                    // `remaining` only needs to hold the same multiset of
                    // atoms on exit; position is irrelevant.
                    remaining.push(pattern);
                    return ControlFlow::Break(());
                }
            }
        }
        remaining.push(pattern);
        ControlFlow::Continue(())
    }

    /// Reference (recursive, allocating) homomorphism enumeration.
    pub fn for_each_homomorphism(
        patterns: &[Atom],
        instance: &Instance,
        binding: &mut Binding,
        f: &mut dyn FnMut(&Binding) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        // Fast precheck: every pattern predicate must be populated.
        for p in patterns {
            if instance.slots_with_pred(p.pred).is_empty() {
                return ControlFlow::Continue(());
            }
        }
        let mut remaining: Vec<&Atom> = patterns.iter().collect();
        search(&mut remaining, instance, binding, f)
    }

    /// Reference existence check (clones the seed binding).
    pub fn exists_homomorphism(patterns: &[Atom], instance: &Instance, binding: &Binding) -> bool {
        let mut b = binding.clone();
        for_each_homomorphism(patterns, instance, &mut b, &mut |_| ControlFlow::Break(()))
            .is_break()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ConstId, NullId, PredId};
    use crate::vocab::Vocabulary;

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }

    fn v(i: u32) -> Term {
        Term::Var(crate::ids::VarId(i))
    }

    fn atom(p: u32, args: &[Term]) -> Atom {
        Atom::new(PredId(p), args.to_vec())
    }

    /// Instance { R(0,1), R(1,2), R(2,0), P(1) } with R=pred 0, P=pred 1.
    fn triangle() -> Instance {
        Instance::from_atoms([
            atom(0, &[c(0), c(1)]),
            atom(0, &[c(1), c(2)]),
            atom(0, &[c(2), c(0)]),
            atom(1, &[c(1)]),
        ])
    }

    #[test]
    fn single_atom_all_matches() {
        let inst = triangle();
        let homs = all_homomorphisms(&[atom(0, &[v(0), v(1)])], &inst);
        assert_eq!(homs.len(), 3);
    }

    #[test]
    fn join_two_atoms() {
        let inst = triangle();
        // R(x,y), R(y,z): paths of length 2 — three of them in a triangle.
        let homs = all_homomorphisms(&[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(2)])], &inst);
        assert_eq!(homs.len(), 3);
        for h in &homs {
            let x = h.get(crate::ids::VarId(0)).unwrap();
            let z = h.get(crate::ids::VarId(2)).unwrap();
            assert_ne!(x, z); // in a 3-cycle, 2-paths never close on themselves
        }
    }

    #[test]
    fn join_with_unary_filter() {
        let inst = triangle();
        // R(x,y), P(x): only x=1 has P.
        let homs = all_homomorphisms(&[atom(0, &[v(0), v(1)]), atom(1, &[v(0)])], &inst);
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0].get(crate::ids::VarId(0)), Some(c(1)));
    }

    #[test]
    fn repeated_variable_in_pattern() {
        let mut inst = triangle();
        inst.insert(atom(0, &[c(3), c(3)]));
        let homs = all_homomorphisms(&[atom(0, &[v(0), v(0)])], &inst);
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0].get(crate::ids::VarId(0)), Some(c(3)));
    }

    #[test]
    fn empty_predicate_short_circuits() {
        let inst = triangle();
        assert!(all_homomorphisms(&[atom(7, &[v(0)])], &inst).is_empty());
    }

    #[test]
    fn respects_initial_binding() {
        let inst = triangle();
        let mut binding = Binding::new();
        binding.push(crate::ids::VarId(0), c(2));
        let mut count = 0;
        let _ = for_each_homomorphism(&[atom(0, &[v(0), v(1)])], &inst, &mut binding, &mut |h| {
            assert_eq!(h.get(crate::ids::VarId(0)), Some(c(2)));
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn satisfaction_of_intro_example() {
        // D = {R(a,b)}, T = { R(x,y) -> exists z . R(x,z) }.
        // The restricted chase detects the TGD is already satisfied.
        let mut vocab = Vocabulary::new();
        let mut b = crate::tgd::RuleBuilder::new(&mut vocab);
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.body("R", &[x, y]).unwrap();
        b.head("R", &[x, z]).unwrap();
        let tgd = b.build().unwrap();
        let r = vocab.lookup_pred("R").unwrap();
        let inst = Instance::from_atoms([Atom::new(r, vec![c(0), c(1)])]);
        assert!(satisfies(&inst, &tgd));
    }

    #[test]
    fn violation_detected() {
        // R(x,y) -> exists z . R(y,z) is violated by {R(a,b)}.
        let mut vocab = Vocabulary::new();
        let mut b = crate::tgd::RuleBuilder::new(&mut vocab);
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.body("R", &[x, y]).unwrap();
        b.head("R", &[y, z]).unwrap();
        let tgd = b.build().unwrap();
        let r = vocab.lookup_pred("R").unwrap();
        let violated = Instance::from_atoms([Atom::new(r, vec![c(0), c(1)])]);
        assert!(!satisfies(&violated, &tgd));
        // ...but {R(a,a)} satisfies it.
        let loopy = Instance::from_atoms([Atom::new(r, vec![c(0), c(0)])]);
        assert!(satisfies(&loopy, &tgd));
    }

    #[test]
    fn ground_homomorphism_folds_nulls() {
        // {R(a, n0)} maps into {R(a, b)} by n0 -> b.
        let from = Instance::from_atoms([atom(0, &[c(0), Term::Null(NullId(0))])]);
        let to = Instance::from_atoms([atom(0, &[c(0), c(1)])]);
        assert!(ground_homomorphism_exists(&from, &to));
        // but not the other way round: constants are rigid.
        assert!(!ground_homomorphism_exists(&to, &from));
    }

    /// The iterative matcher must enumerate the same homomorphisms in
    /// the same order as the reference recursive matcher, on joins
    /// with shared variables, constants and repeated variables.
    #[test]
    fn iterative_matches_reference_order() {
        let mut inst = triangle();
        inst.insert(atom(0, &[c(3), c(3)]));
        inst.insert(atom(1, &[c(0)]));
        let patterns_sets: Vec<Vec<Atom>> = vec![
            vec![atom(0, &[v(0), v(1)])],
            vec![atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(2)])],
            vec![
                atom(0, &[v(0), v(1)]),
                atom(0, &[v(1), v(2)]),
                atom(1, &[v(0)]),
            ],
            vec![atom(0, &[v(0), v(0)])],
            vec![atom(0, &[c(1), v(0)]), atom(0, &[v(0), v(1)])],
        ];
        for patterns in &patterns_sets {
            let mut opt = Vec::new();
            let mut bind = Binding::new();
            let _ = for_each_homomorphism(patterns, &inst, &mut bind, &mut |b| {
                opt.push(b.clone());
                ControlFlow::Continue(())
            });
            let mut refr = Vec::new();
            let mut bind = Binding::new();
            let _ = reference::for_each_homomorphism(patterns, &inst, &mut bind, &mut |b| {
                refr.push(b.clone());
                ControlFlow::Continue(())
            });
            assert_eq!(opt, refr, "order diverged on {patterns:?}");
        }
    }

    /// The ground membership fast path of `exists_homomorphism_with`
    /// agrees with the reference search on ground, partially-ground
    /// and unbound seeds.
    #[test]
    fn exists_fast_path_agrees_with_reference() {
        let inst = triangle();
        let mut scratch = HomScratch::new();
        type Case = (Vec<Atom>, Vec<(u32, Term)>);
        let cases: Vec<Case> = vec![
            // Fully ground under the binding: present and absent.
            (vec![atom(0, &[v(0), v(1)])], vec![(0, c(0)), (1, c(1))]),
            (vec![atom(0, &[v(0), v(1)])], vec![(0, c(1)), (1, c(0))]),
            // Two atoms, second one missing.
            (
                vec![atom(0, &[v(0), v(1)]), atom(1, &[v(1)])],
                vec![(0, c(0)), (1, c(1))],
            ),
            (
                vec![atom(0, &[v(0), v(1)]), atom(1, &[v(0)])],
                vec![(0, c(0)), (1, c(1))],
            ),
            // Unbound variable: must fall back to the search.
            (vec![atom(0, &[v(0), v(1)])], vec![(0, c(0))]),
            (vec![atom(0, &[v(0), v(7)])], vec![(0, c(9))]),
            // Empty conjunction is vacuously satisfied.
            (vec![], vec![]),
        ];
        for (patterns, seed) in &cases {
            let mut binding = Binding::new();
            for &(var, t) in seed {
                binding.push(crate::ids::VarId(var), t);
            }
            assert_eq!(
                exists_homomorphism_with(&mut scratch, patterns, &inst, &binding),
                reference::exists_homomorphism(patterns, &inst, &binding),
                "diverged on {patterns:?} under {seed:?}"
            );
        }
    }

    /// Registering a composite pair index must not change the
    /// enumeration order — only the number of candidates probed.
    #[test]
    fn pair_index_preserves_enumeration_order() {
        let mut inst = triangle();
        inst.insert(atom(0, &[c(0), c(2)]));
        inst.insert(atom(0, &[c(3), c(3)]));
        inst.register_pair_index(PredId(0), 0, 1);
        // Triangle query: the third atom is probed with both
        // positions bound, hitting the pair index.
        let patterns = vec![
            atom(0, &[v(0), v(1)]),
            atom(0, &[v(1), v(2)]),
            atom(0, &[v(0), v(2)]),
        ];
        let mut opt = Vec::new();
        let mut bind = Binding::new();
        let _ = for_each_homomorphism(&patterns, &inst, &mut bind, &mut |b| {
            opt.push(b.clone());
            ControlFlow::Continue(())
        });
        // The reference matcher never consults the pair index.
        let mut refr = Vec::new();
        let mut bind = Binding::new();
        let _ = reference::for_each_homomorphism(&patterns, &inst, &mut bind, &mut |b| {
            refr.push(b.clone());
            ControlFlow::Continue(())
        });
        assert!(!opt.is_empty());
        assert_eq!(opt, refr);
    }

    /// `head_satisfied_probe` agrees with the reference existence check
    /// on every binding, with and without a registered pair index.
    #[test]
    fn head_probe_agrees_with_reference() {
        let mut vocab = Vocabulary::new();
        let mut b = crate::tgd::RuleBuilder::new(&mut vocab);
        let (x, y, z) = (b.var("x"), b.var("y"), b.var("z"));
        b.body("R", &[x, y]).unwrap();
        b.head("S", &[x, y, z]).unwrap();
        let tgd = b.build().unwrap();
        let s = vocab.lookup_pred("S").unwrap();
        let mut inst = Instance::from_atoms([
            Atom::new(s, vec![c(0), c(1), c(9)]),
            Atom::new(s, vec![c(0), c(2), c(9)]),
            Atom::new(s, vec![c(1), c(1), c(8)]),
        ]);
        for registered in [false, true] {
            if registered {
                inst.register_pair_index(s, 0, 1);
            }
            for xv in 0..3 {
                for yv in 0..3 {
                    let mut binding = Binding::new();
                    binding.push(x.as_var().unwrap(), c(xv));
                    binding.push(y.as_var().unwrap(), c(yv));
                    let got =
                        head_satisfied_probe(&tgd, &inst, &binding).expect("probe-eligible TGD");
                    let want = reference::exists_homomorphism(tgd.head(), &inst, &binding);
                    assert_eq!(
                        got, want,
                        "diverged at x={xv} y={yv} registered={registered}"
                    );
                }
            }
        }
    }

    /// Early break leaves a pre-seeded binding exactly as it was.
    #[test]
    fn break_restores_binding() {
        let inst = triangle();
        let mut binding = Binding::new();
        binding.push(crate::ids::VarId(9), c(0));
        let flow = for_each_homomorphism(
            &[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(2)])],
            &inst,
            &mut binding,
            &mut |_| ControlFlow::Break(()),
        );
        assert!(flow.is_break());
        assert_eq!(binding.len(), 1);
        assert_eq!(binding.get(crate::ids::VarId(9)), Some(c(0)));
    }

    /// A scratch arena can be reused across searches of different
    /// shapes without cross-talk.
    #[test]
    fn scratch_reuse_is_sound() {
        let inst = triangle();
        let mut scratch = HomScratch::new();
        for _ in 0..3 {
            let mut n = 0;
            let mut b = Binding::new();
            let _ = for_each_homomorphism_with(
                &mut scratch,
                &[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(2)])],
                &inst,
                &mut b,
                &mut |_| {
                    n += 1;
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(n, 3);
            let mut m = 0;
            let mut b = Binding::new();
            let _ = for_each_homomorphism_with(
                &mut scratch,
                &[atom(1, &[v(7)])],
                &inst,
                &mut b,
                &mut |_| {
                    m += 1;
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(m, 1);
        }
    }
}

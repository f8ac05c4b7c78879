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
//! The matcher runs over a compiled [`Pattern`]: each variable is a
//! dense *slot* (its first-occurrence index) and each argument a slot
//! or a ground term. A search keeps one value per slot plus a trail of
//! the slots it bound, in binding order, so binding, lookup and undo are
//! array operations. A
//! [`Tgd`] compiles its body once ([`Tgd::body_pattern`]); ad-hoc
//! patterns (queries, satisfaction checks) are compiled into the
//! scratch per call and go through the same search.
//!
//! The search is *iterative*, not recursive: the choice-point stack
//! lives in a reusable [`HomScratch`] arena (frames, candidate-slot
//! buffer, remaining-pattern worklist, slot values and trail), so
//! steady-state matching performs **zero heap allocations**. The last
//! remaining atom gets no frame: it is matched in a tight loop over its
//! index slice, borrowed from the instance. Callbacks are generic, so
//! an engine's per-match work inlines into that loop. Engines own a
//! scratch and pass it to the `*_with` entry points; the plain entry
//! points borrow one from a thread-local pool.
//!
//! The original recursive matcher is preserved verbatim in
//! [`reference`](mod@reference) as the executable specification: the iterative
//! matcher enumerates homomorphisms in *exactly* the same order (same
//! dynamic selection, same first-max tie-break over the same
//! `swap_remove`/push-back worklist, same candidate ordering), and
//! hands out bindings whose entries are in the same order.

use std::cell::RefCell;
use std::ops::ControlFlow;

use crate::atom::{Atom, AtomRef};
use crate::ids::{PredId, VarId};
use crate::instance::Instance;
use crate::subst::Binding;
use crate::term::Term;
use crate::tgd::{Tgd, TgdSet};

/// One argument of a compiled [`Pattern`] atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arg {
    /// The pattern variable with this slot.
    Slot(u32),
    /// A ground term the matched atom must hold here.
    Ground(Term),
}

/// A conjunction of atoms compiled for the matcher. Each variable gets
/// a dense slot, its index in first-occurrence order;
/// each argument becomes a slot or a ground term.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pattern {
    vars: Vec<VarId>,
    /// Per atom: its predicate and the range of its arguments in `args`.
    atoms: Vec<(PredId, u32, u32)>,
    args: Vec<Arg>,
}

impl Pattern {
    /// Compiles `atoms`.
    pub(crate) fn compile(atoms: &[Atom]) -> Pattern {
        let mut pattern = Pattern::default();
        pattern.compile_into(atoms);
        pattern
    }

    /// Recompiles `atoms` into this pattern, reusing its buffers.
    fn compile_into(&mut self, atoms: &[Atom]) {
        self.vars.clear();
        self.atoms.clear();
        self.args.clear();
        let n_args = atoms.iter().map(|a| a.args.len()).sum();
        self.atoms.reserve(atoms.len());
        self.args.reserve(n_args);
        self.vars.reserve(n_args);
        for atom in atoms {
            for &t in &atom.args {
                self.args.push(match t {
                    Term::Var(v) => Arg::Slot(match self.slot_of(v) {
                        Some(slot) => slot,
                        None => {
                            self.vars.push(v);
                            self.vars.len() as u32 - 1
                        }
                    }),
                    ground => Arg::Ground(ground),
                });
            }
            let start = self.args.len() - atom.args.len();
            self.atoms
                .push((atom.pred, start as u32, self.args.len() as u32));
        }
    }

    /// The variable of each slot: the pattern's variables in
    /// first-occurrence order.
    #[inline]
    pub(crate) fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// The slot of variable `v`, if the pattern mentions it.
    pub(crate) fn slot_of(&self, v: VarId) -> Option<u32> {
        self.vars.iter().position(|&w| w == v).map(|s| s as u32)
    }

    /// Number of atoms.
    #[inline]
    fn len(&self) -> usize {
        self.atoms.len()
    }

    /// The predicate and compiled arguments of atom `i`.
    #[inline]
    fn atom(&self, i: usize) -> (PredId, &[Arg]) {
        let (pred, start, end) = self.atoms[i];
        (pred, &self.args[start as usize..end as usize])
    }

    /// Whether every predicate of the pattern has an atom in `instance`
    /// (a cheap precheck: otherwise nothing matches).
    fn populated_in(&self, instance: &Instance) -> bool {
        self.atoms
            .iter()
            .all(|&(pred, ..)| !instance.slots_with_pred(pred).is_empty())
    }
}

/// A homomorphism found by the search, read through the pattern's
/// slots. Lives only for the callback that receives it.
#[derive(Debug, Clone, Copy)]
pub struct SlotBinding<'a> {
    vars: &'a [VarId],
    values: &'a [Option<Term>],
    trail: &'a [u32],
}

impl SlotBinding<'_> {
    /// The image of slot `slot` (the variable itself while unbound).
    #[inline]
    pub fn get(&self, slot: u32) -> Term {
        match self.values[slot as usize] {
            Some(t) => t,
            None => Term::Var(self.vars[slot as usize]),
        }
    }

    /// The `(variable, image)` pairs this search bound, in binding
    /// order: the entries a [`Binding`] built by the reference matcher
    /// would have gained, in the same order.
    #[inline]
    pub fn pairs(&self) -> impl Iterator<Item = (VarId, Term)> + '_ {
        self.trail
            .iter()
            .map(|&s| (self.vars[s as usize], self.get(s)))
    }

    /// The bound pairs as an owned [`Binding`].
    pub fn to_binding(&self) -> Binding {
        Binding::from_pairs(self.pairs())
    }
}

/// One choice point of the iterative matcher: which pattern atom was
/// selected at this depth, where its candidate slots live in the
/// shared slot buffer, the enumeration cursor, and the trail mark of
/// the unification currently being explored below this frame.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    pattern: u32,
    slots_start: u32,
    slots_len: u32,
    cursor: u32,
    mark: u32,
}

/// The search state: choice points, candidate buffer, worklist, and
/// the slot values with their trail.
#[derive(Debug, Default)]
struct Search {
    frames: Vec<Frame>,
    slots: Vec<u32>,
    remaining: Vec<u32>,
    values: Vec<Option<Term>>,
    trail: Vec<u32>,
    /// The last atom's plan: `(position, term)` for each position that
    /// is ground before it is matched.
    checks: Vec<(u32, Term)>,
    /// `(position, slot)` for each slot the last atom binds, at its
    /// first occurrence, in argument order.
    binds: Vec<(u32, u32)>,
    /// `(position, earlier position)` for each repeat of a slot the
    /// last atom binds.
    repeats: Vec<(u32, u32)>,
}

impl Search {
    /// Clears the state for a pattern of `n_vars` slots, all unbound.
    #[inline]
    fn reset(&mut self, n_vars: usize) {
        self.values.clear();
        self.values.resize(n_vars, None);
        self.trail.clear();
        self.remaining.clear();
    }

    #[inline]
    fn view<'a>(&'a self, pattern: &'a Pattern) -> SlotBinding<'a> {
        SlotBinding {
            vars: &pattern.vars,
            values: &self.values,
            trail: &self.trail,
        }
    }

    /// Unbinds every slot bound after trail position `mark`.
    #[inline]
    fn undo(&mut self, mark: usize) {
        for &s in &self.trail[mark..] {
            self.values[s as usize] = None;
        }
        self.trail.truncate(mark);
    }

    /// Unifies compiled `args` with the ground `target`, binding and
    /// trailing the slots it fixes in argument order. On failure the
    /// slots bound here are undone.
    #[inline]
    fn unify(&mut self, args: &[Arg], target: &[Term]) -> bool {
        debug_assert_eq!(args.len(), target.len());
        let mark = self.trail.len();
        for (a, &t) in args.iter().zip(target) {
            let ok = match *a {
                Arg::Slot(s) => match self.values[s as usize] {
                    Some(bound) => bound == t,
                    None => {
                        self.values[s as usize] = Some(t);
                        self.trail.push(s);
                        true
                    }
                },
                Arg::Ground(g) => g == t,
            };
            if !ok {
                self.undo(mark);
                return false;
            }
        }
        true
    }

    /// How "bound" compiled `args` are: the number of positions already
    /// forced to a ground term. Used to pick the next atom to match
    /// (most selective first).
    #[inline]
    fn boundness(&self, args: &[Arg]) -> usize {
        args.iter()
            .filter(|a| match **a {
                Arg::Slot(s) => self.values[s as usize].is_some(),
                Arg::Ground(_) => true,
            })
            .count()
    }

    /// The slots of candidate atoms for `pred(args)` under the current
    /// values. Uses the tightest index available — a registered
    /// composite two-position index over the atom's first two ground
    /// positions when it beats the best single-position list — falling
    /// back to single-position indexes and then the per-predicate list.
    ///
    /// The composite probe preserves the enumeration order of
    /// [`reference::candidate_slots`]: every index lists slots ascending,
    /// and the pair list is exactly the order-preserving subset of the
    /// single lists whose atoms satisfy *both* position constraints.
    /// Candidates it filters out would have failed unification anyway,
    /// so swapping it in changes the number of probes, never the
    /// sequence of matches.
    #[inline]
    fn candidates<'i>(&self, pred: PredId, args: &[Arg], instance: &'i Instance) -> &'i [u32] {
        let mut best: Option<&[u32]> = None;
        let mut first_ground: Option<(usize, Term)> = None;
        let mut pair: Option<&[u32]> = None;
        for (i, a) in args.iter().enumerate() {
            let ground = match *a {
                Arg::Slot(s) => match self.values[s as usize] {
                    Some(t) => t,
                    None => continue,
                },
                Arg::Ground(t) => t,
            };
            let slots = instance.slots_with_pred_pos(pred, i, ground);
            if slots.is_empty() {
                return slots;
            }
            if best.is_none_or(|b| slots.len() < b.len()) {
                best = Some(slots);
            }
            match first_ground {
                None => first_ground = Some((i, ground)),
                Some((fi, ft)) if pair.is_none() => {
                    pair = instance.slots_with_pred_pair(pred, fi, ft, i, ground);
                }
                Some(_) => {}
            }
        }
        if let Some(p) = pair {
            if best.is_none_or(|b| p.len() < b.len()) {
                return p;
            }
        }
        best.unwrap_or_else(|| instance.slots_with_pred(pred))
    }

    /// Selects the most-bound remaining pattern (first-max tie-break,
    /// identical to the reference matcher), removes it from the
    /// worklist and pushes a frame with its candidate slots.
    fn push_node(&mut self, pattern: &Pattern, instance: &Instance) {
        let mut best_idx = 0;
        let mut best_score = 0;
        for (i, &p) in self.remaining.iter().enumerate() {
            let score = self.boundness(pattern.atom(p as usize).1);
            if i == 0 || score > best_score {
                best_idx = i;
                best_score = score;
            }
        }
        let p = self.remaining.swap_remove(best_idx);
        let (pred, args) = pattern.atom(p as usize);
        let start = self.slots.len();
        let candidates = self.candidates(pred, args, instance);
        self.slots.extend_from_slice(candidates);
        self.frames.push(Frame {
            pattern: p,
            slots_start: start as u32,
            slots_len: (self.slots.len() - start) as u32,
            cursor: 0,
            mark: 0,
        });
    }

    /// Matches the one remaining atom, frameless: a tight loop over its
    /// candidate list, borrowed from the instance. What unification
    /// would do is planned once per call — the positions that must hold
    /// a known term, the slots bound (trailed once, in argument order,
    /// and overwritten per candidate) and the repeats among them — so a
    /// candidate costs a few compares. The worklist is left as it was,
    /// as the reference's `swap_remove` and push-back of a one-atom
    /// worklist leave it.
    #[inline]
    fn last_atom<F>(&mut self, pattern: &Pattern, instance: &Instance, f: &mut F) -> ControlFlow<()>
    where
        F: FnMut(&SlotBinding<'_>) -> ControlFlow<()>,
    {
        let (pred, args) = pattern.atom(self.remaining[0] as usize);
        let candidates = self.candidates(pred, args, instance);
        if candidates.is_empty() {
            return ControlFlow::Continue(());
        }
        self.checks.clear();
        self.binds.clear();
        self.repeats.clear();
        for (pos, a) in args.iter().enumerate() {
            let pos = pos as u32;
            match *a {
                Arg::Ground(t) => self.checks.push((pos, t)),
                Arg::Slot(s) => match self.values[s as usize] {
                    Some(t) => self.checks.push((pos, t)),
                    None => match self.binds.iter().find(|&&(_, b)| b == s) {
                        Some(&(first, _)) => self.repeats.push((pos, first)),
                        None => self.binds.push((pos, s)),
                    },
                },
            }
        }
        let mark = self.trail.len();
        self.trail.extend(self.binds.iter().map(|&(_, s)| s));
        let Search {
            values,
            trail,
            checks,
            binds,
            repeats,
            ..
        } = self;
        let mut flow = ControlFlow::Continue(());
        'candidates: for &slot in candidates {
            let target = instance.args(slot as usize);
            for &(pos, t) in checks.iter() {
                if target[pos as usize] != t {
                    continue 'candidates;
                }
            }
            for &(pos, first) in repeats.iter() {
                if target[pos as usize] != target[first as usize] {
                    continue 'candidates;
                }
            }
            for &(pos, s) in binds.iter() {
                values[s as usize] = Some(target[pos as usize]);
            }
            flow = f(&SlotBinding {
                vars: &pattern.vars,
                values,
                trail,
            });
            if flow.is_break() {
                break;
            }
        }
        self.undo(mark);
        flow
    }
}

/// The iterative backtracking search over the atoms of `pattern` listed
/// in `search.remaining`, from the slot values already in `search`.
/// Replicates the enumeration order of
/// [`reference::for_each_homomorphism`] exactly; see the module docs.
/// Leaves the values and trail as it found them.
fn search_iterative<F>(
    search: &mut Search,
    pattern: &Pattern,
    instance: &Instance,
    f: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&SlotBinding<'_>) -> ControlFlow<()>,
{
    match search.remaining.len() {
        0 => return f(&search.view(pattern)),
        1 => return search.last_atom(pattern, instance, f),
        _ => {}
    }
    let base = search.trail.len();
    search.frames.clear();
    search.slots.clear();
    search.push_node(pattern, instance);
    loop {
        // Advance the top frame to its next matching slot.
        let fi = search.frames.len() - 1;
        let mut descended = false;
        loop {
            let Frame {
                pattern: p,
                slots_start,
                slots_len,
                cursor,
                ..
            } = search.frames[fi];
            if cursor >= slots_len {
                break;
            }
            search.frames[fi].cursor += 1;
            let slot = search.slots[(slots_start + cursor) as usize];
            let mark = search.trail.len();
            let args = pattern.atom(p as usize).1;
            if !search.unify(args, instance.args(slot as usize)) {
                continue;
            }
            if search.remaining.len() > 1 {
                search.frames[fi].mark = mark as u32;
                search.push_node(pattern, instance);
                descended = true;
                break;
            }
            let flow = search.last_atom(pattern, instance, f);
            search.undo(mark);
            if flow.is_break() {
                search.undo(base);
                return ControlFlow::Break(());
            }
        }
        if descended {
            continue;
        }
        // Top frame exhausted: undo its selection and resume the parent.
        let done = search.frames.pop().expect("frame stack non-empty");
        search.remaining.push(done.pattern);
        search.slots.truncate(done.slots_start as usize);
        match search.frames.last() {
            None => {
                debug_assert_eq!(search.trail.len(), base);
                return ControlFlow::Continue(());
            }
            Some(parent) => {
                let mark = parent.mark as usize;
                search.undo(mark);
            }
        }
    }
}

/// Reusable scratch arena for the iterative homomorphism search.
///
/// Holds the search state, a pattern buffer that ad-hoc atom lists are
/// compiled into, and a spare [`Binding`] used by [`satisfies`]. All
/// buffers retain their capacity between runs, so a warmed scratch
/// performs no heap allocation.
#[derive(Debug)]
pub struct HomScratch {
    search: Search,
    pattern: Pattern,
    binding: Binding,
    /// Reusable ground atom for the membership fast path of
    /// [`exists_homomorphism_with`]; its argument buffer keeps its
    /// capacity across probes.
    probe: Atom,
}

impl Default for HomScratch {
    fn default() -> Self {
        HomScratch {
            search: Search::default(),
            pattern: Pattern::default(),
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

    /// Compiles the ad-hoc `patterns` into the scratch's pattern buffer
    /// and seeds each slot from `binding`; every atom is left to match.
    fn load(&mut self, patterns: &[Atom], binding: &Binding) {
        self.pattern.compile_into(patterns);
        let search = &mut self.search;
        search.reset(0);
        search
            .values
            .extend(self.pattern.vars.iter().map(|&v| binding.get(v)));
        search.remaining.extend(0..patterns.len() as u32);
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

/// Enumerates every homomorphism from the compiled `pattern` into
/// `instance`, from all slots unbound, handing each to `f` as a
/// [`SlotBinding`]. Allocation-free once the scratch is warmed. Stops
/// early if `f` breaks. Returns the final flow.
pub fn for_each_match_with<F>(
    scratch: &mut HomScratch,
    pattern: &Pattern,
    instance: &Instance,
    mut f: F,
) -> ControlFlow<()>
where
    F: FnMut(&SlotBinding<'_>) -> ControlFlow<()>,
{
    if !pattern.populated_in(instance) {
        return ControlFlow::Continue(());
    }
    let search = &mut scratch.search;
    search.reset(pattern.vars.len());
    search.remaining.extend(0..pattern.len() as u32);
    search_iterative(search, pattern, instance, &mut f)
}

/// The semi-naive delta of [`for_each_match_with`]: enumerates the
/// homomorphisms that map atom `i` of `pattern` onto `target` and the
/// other atoms into `instance`. The slots `target` fixes come first in
/// each [`SlotBinding::pairs`], in argument order, as if the reference
/// matcher had been seeded by unifying them.
pub fn for_each_match_using_with<F>(
    scratch: &mut HomScratch,
    pattern: &Pattern,
    i: usize,
    target: AtomRef<'_>,
    instance: &Instance,
    mut f: F,
) -> ControlFlow<()>
where
    F: FnMut(&SlotBinding<'_>) -> ControlFlow<()>,
{
    let (pred, args) = pattern.atom(i);
    debug_assert_eq!(pred, target.pred);
    let search = &mut scratch.search;
    search.reset(pattern.vars.len());
    if !search.unify(args, target.args) || !pattern.populated_in(instance) {
        return ControlFlow::Continue(());
    }
    search
        .remaining
        .extend((0..pattern.len() as u32).filter(|&j| j as usize != i));
    search_iterative(search, pattern, instance, &mut f)
}

/// Enumerates all homomorphisms from the conjunction `patterns` into
/// `instance` that extend `binding`, invoking `f` for each, using the
/// caller's scratch arena (allocation-free once warmed). `f` sees
/// `binding` extended by the variables the match bound, in binding
/// order. Stops early if `f` breaks. Returns the final flow, with
/// `binding` as it was.
pub fn for_each_homomorphism_with<F>(
    scratch: &mut HomScratch,
    patterns: &[Atom],
    instance: &Instance,
    binding: &mut Binding,
    mut f: F,
) -> ControlFlow<()>
where
    F: FnMut(&Binding) -> ControlFlow<()>,
{
    // Fast precheck: every pattern predicate must be populated.
    for p in patterns {
        if instance.slots_with_pred(p.pred).is_empty() {
            return ControlFlow::Continue(());
        }
    }
    scratch.load(patterns, binding);
    let base = binding.mark();
    let HomScratch {
        search, pattern, ..
    } = scratch;
    search_iterative(search, pattern, instance, &mut |m| {
        for (v, t) in m.pairs() {
            binding.push(v, t);
        }
        let flow = f(binding);
        binding.truncate(base);
        flow
    })
}

/// Enumerates all homomorphisms from the conjunction `patterns` into
/// `instance` that extend `binding`, invoking `f` for each. Stops
/// early if `f` breaks. Returns the final flow.
///
/// Borrows a scratch arena from the thread-local pool; engines hold
/// their own arena and call [`for_each_homomorphism_with`] instead.
pub fn for_each_homomorphism<F>(
    patterns: &[Atom],
    instance: &Instance,
    binding: &mut Binding,
    f: F,
) -> ControlFlow<()>
where
    F: FnMut(&Binding) -> ControlFlow<()>,
{
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
        if !instance.contains(&*probe) {
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
    if patterns
        .iter()
        .any(|p| instance.slots_with_pred(p.pred).is_empty())
    {
        return false;
    }
    scratch.load(patterns, binding);
    let HomScratch {
        search, pattern, ..
    } = scratch;
    search_iterative(search, pattern, instance, &mut |_| ControlFlow::Break(())).is_break()
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
    let hit = |slots: &[u32], check: &[(u16, VarId)]| -> bool {
        slots.iter().any(|&slot| {
            let atom = instance.atom(slot as usize);
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
    let mut best: Option<&[u32]> = None;
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
        let mut binding = std::mem::take(&mut outer.binding);
        binding.clear();
        let flow = for_each_homomorphism_with(outer, tgd.body(), instance, &mut binding, |h| {
            if exists_homomorphism(tgd.head(), instance, h) {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
        outer.binding = binding;
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
    use crate::atom::{Atom, AtomRef};
    use crate::instance::Instance;
    use crate::subst::Binding;
    use crate::term::Term;
    use std::ops::ControlFlow;

    /// Attempts to unify `pattern` (which may contain variables) with
    /// the ground atom `target` under `binding`, extending the binding.
    /// Returns `Some(mark)` (the trail mark to truncate to on undo) on
    /// success, `None` on failure (in which case the binding is
    /// restored).
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

    /// How "bound" a pattern atom is under the current binding: the
    /// number of argument positions already forced to a ground term.
    /// Used to pick the next atom to match (most selective first).
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

    /// Fetches the slots of candidate atoms for `pattern` under
    /// `binding`. Uses the tightest single-position index available;
    /// falls back to the per-predicate list.
    pub(super) fn candidate_slots<'i>(
        pattern: &Atom,
        binding: &Binding,
        instance: &'i Instance,
    ) -> &'i [u32] {
        let mut best: Option<&[u32]> = None;
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
        let slots: Vec<u32> = candidate_slots(pattern, binding, instance).to_vec();
        for slot in slots {
            let target = instance.atom(slot as usize);
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

    /// Every homomorphism from `patterns` into `instance`, owned.
    fn all_homomorphisms(patterns: &[Atom], instance: &Instance) -> Vec<Binding> {
        let mut out = Vec::new();
        let mut binding = Binding::new();
        let _ = for_each_homomorphism(patterns, instance, &mut binding, |b| {
            out.push(b.clone());
            ControlFlow::Continue(())
        });
        out
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
        let _ = for_each_homomorphism(&[atom(0, &[v(0), v(1)])], &inst, &mut binding, |h| {
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
            let _ = for_each_homomorphism(patterns, &inst, &mut bind, |b| {
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

    /// Arity of predicate `p` in the random enumeration-order cases.
    const ORDER_ARITY: [usize; 3] = [1, 2, 3];

    /// A random body's term: codes 0–4 are variables, 5–7 constants.
    fn body_term(k: u32) -> Term {
        if k < 5 {
            v(k)
        } else {
            c(k - 5)
        }
    }

    /// A random case's instance term: three constants and one null.
    fn instance_term(k: u32) -> Term {
        if k < 3 {
            c(k)
        } else {
            Term::Null(NullId(0))
        }
    }

    type OrderAtom = (u32, u32, u32, u32);

    fn order_atom((p, a, b, d): OrderAtom, term: fn(u32) -> Term) -> Atom {
        let codes = [a, b, d];
        let args: Vec<Term> = codes[..ORDER_ARITY[p as usize]]
            .iter()
            .map(|&k| term(k))
            .collect();
        Atom::new(PredId(p), args)
    }

    /// Every binding the reference matcher hands out, in order.
    fn reference_sequence(patterns: &[Atom], inst: &Instance, seed: &Binding) -> Vec<Binding> {
        let mut out = Vec::new();
        let mut b = seed.clone();
        let _ = reference::for_each_homomorphism(patterns, inst, &mut b, &mut |h| {
            out.push(h.clone());
            ControlFlow::Continue(())
        });
        out
    }

    /// The sequence of bindings — not the set — that the matcher hands
    /// out equals the reference's on a random body of 1–5 atoms (with
    /// repeated variables and constants) and a random instance, with
    /// random composite indexes registered: through an ad-hoc pattern
    /// and through the compiled pattern, from the empty binding, and
    /// as a delta from every instance atom unified into every body
    /// position (against the body minus atom `i`, seeded with that
    /// unifier).
    /// Ties in the most-bound-first choice are common on such bodies,
    /// so this pins the first-max tie-break and the `swap_remove` and
    /// push-back order of the worklist, which permutes later ties.
    fn check_enumeration_order(
        body: &[OrderAtom],
        atoms: &[OrderAtom],
        pairs: &[(u32, usize, usize)],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let body: Vec<Atom> = body.iter().map(|&a| order_atom(a, body_term)).collect();
        let mut inst = Instance::from_atoms(atoms.iter().map(|&a| order_atom(a, instance_term)));
        for &(p, a, b) in pairs {
            if a < b && b < ORDER_ARITY[p as usize] {
                inst.register_pair_index(PredId(p), a, b);
            }
        }
        let pattern = Pattern::compile(&body);
        let mut scratch = HomScratch::new();

        let want = reference_sequence(&body, &inst, &Binding::new());
        let mut got = Vec::new();
        let _ = for_each_homomorphism(&body, &inst, &mut Binding::new(), |h| {
            got.push(h.clone());
            ControlFlow::Continue(())
        });
        proptest::prop_assert_eq!(&got, &want, "ad-hoc pattern from the empty binding");
        got.clear();
        let _ = for_each_match_with(&mut scratch, &pattern, &inst, |m| {
            got.push(m.to_binding());
            ControlFlow::Continue(())
        });
        proptest::prop_assert_eq!(&got, &want, "compiled pattern from the empty binding");

        for slot in 0..inst.len() {
            let target = inst.atom(slot);
            for (i, atom) in body.iter().enumerate() {
                if atom.pred != target.pred {
                    continue;
                }
                let mut seed = Binding::new();
                let unifies = atom.args.iter().zip(target.args).all(|(&p, &t)| match p {
                    Term::Var(x) => match seed.get(x) {
                        Some(bound) => bound == t,
                        None => {
                            seed.push(x, t);
                            true
                        }
                    },
                    ground => ground == t,
                });
                let mut rest = body.clone();
                rest.remove(i);
                let want = if unifies {
                    reference_sequence(&rest, &inst, &seed)
                } else {
                    Vec::new()
                };
                got.clear();
                let _ = for_each_match_using_with(&mut scratch, &pattern, i, target, &inst, |m| {
                    got.push(m.to_binding());
                    ControlFlow::Continue(())
                });
                proptest::prop_assert_eq!(&got, &want, "compiled delta at slot {slot}, atom {i}");
                if unifies {
                    got.clear();
                    let _ = for_each_homomorphism(&rest, &inst, &mut seed, |h| {
                        got.push(h.clone());
                        ControlFlow::Continue(())
                    });
                    proptest::prop_assert_eq!(
                        &got,
                        &want,
                        "seeded ad-hoc at slot {slot}, atom {i}"
                    );
                }
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn enumeration_order_matches_reference(
            body in proptest::collection::vec((0u32..3, 0u32..8, 0u32..8, 0u32..8), 1..6),
            atoms in proptest::collection::vec((0u32..3, 0u32..4, 0u32..4, 0u32..4), 0..40),
            pairs in proptest::collection::vec((0u32..3, 0usize..3, 0usize..3), 0..3),
        ) {
            check_enumeration_order(&body, &atoms, &pairs)?;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 4096,
            ..proptest::test_runner::ProptestConfig::default()
        })]
        /// [`enumeration_order_matches_reference`] at 4,096 cases (run
        /// in release by `scripts/check.sh`).
        #[test]
        #[ignore = "4,096 cases; run in release by scripts/check.sh"]
        fn enumeration_order_matches_reference_at_scale(
            body in proptest::collection::vec((0u32..3, 0u32..8, 0u32..8, 0u32..8), 1..6),
            atoms in proptest::collection::vec((0u32..3, 0u32..4, 0u32..4, 0u32..4), 0..40),
            pairs in proptest::collection::vec((0u32..3, 0usize..3, 0usize..3), 0..3),
        ) {
            check_enumeration_order(&body, &atoms, &pairs)?;
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
        let _ = for_each_homomorphism(&patterns, &inst, &mut bind, |b| {
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
            |_| ControlFlow::Break(()),
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
                |_| {
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
                |_| {
                    m += 1;
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(m, 1);
        }
    }
}

//! Triggers and trigger application (Definition 3.1).
//!
//! ## Hot-path architecture
//!
//! The `*_with` enumeration entry points run the matcher over each
//! TGD's compiled body ([`Tgd::body_pattern`]) through a caller-owned
//! [`HomScratch`], and hand each trigger to a generic callback as a
//! [`SlotBinding`]: the body variables' images by slot, plus the
//! `(variable, image)` pairs in binding order. Nothing is allocated or
//! copied per enumerated trigger; the caller copies the pairs only for
//! a trigger it keeps.
//!
//! Engines identify triggers by an interned [`TriggerFp`] fingerprint —
//! the TGD id plus the images of a fixed list of slots (the frontier's
//! or every body variable's, in sorted-variable order), each packed
//! into a `u64` and stored inline for up to [`FP_INLINE_TERMS`] terms —
//! or, for a single-head full TGD, by its ground head, read from the
//! slots of [`Tgd::ground_head`]. Neither sorts nor allocates (for
//! inline-sized keys).

use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;

use chase_core::atom::{ArgVec, Atom, AtomRef};
use chase_core::hom::{
    exists_homomorphism, exists_homomorphism_with, for_each_match_using_with, for_each_match_with,
    head_satisfied_probe, with_scratch, HomScratch, SlotBinding,
};
use chase_core::ids::NullId;
use chase_core::instance::Instance;
use chase_core::subst::Binding;
use chase_core::term::Term;
use chase_core::tgd::{Tgd, TgdId, TgdSet};

use crate::skolem::SkolemTable;

/// A trigger `(σ, h)` for a TGD set on some instance: a TGD identifier
/// plus a homomorphism from its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trigger {
    /// Which TGD.
    pub tgd: TgdId,
    /// The body homomorphism `h`, with one entry per body variable.
    pub binding: Binding,
}

/// Number of packed terms a [`TriggerFp`] stores inline. Bodies with
/// more variables spill to a boxed slice (rare; random and benchmark
/// workloads stay inline).
pub const FP_INLINE_TERMS: usize = 6;

/// An interned trigger fingerprint: the TGD id plus the images of the
/// body variables in sorted-variable order, each packed into a `u64`
/// (term tag in the high bits, interned id in the low bits).
///
/// Two triggers denote the same trigger iff their fingerprints are
/// equal — this is [`Trigger::key`] compressed into a fixed-size,
/// allocation-free representation.
///
/// [`TriggerFp::of_ground_head`] builds the other kind of key, a
/// ground atom: the predicate tagged with a high bit plus the
/// packed arguments. It never equals a trigger's fingerprint, so both
/// kinds share one set.
#[derive(Debug, Clone)]
pub struct TriggerFp {
    /// The TGD id, or `GROUND_HEAD_TAG | predicate` for a ground head.
    owner: u32,
    len: u8,
    inline: [u64; FP_INLINE_TERMS],
    spill: Option<Box<[u64]>>,
}

/// The bit that marks a [`TriggerFp`] as a ground-head key. TGD ids
/// stay below it: a set of 2^31 TGDs does not fit in memory.
const GROUND_HEAD_TAG: u32 = 1 << 31;

/// Packs a term into a `u64`: tag in bits 32..34, interned id below.
#[inline]
fn pack_term(t: Term) -> u64 {
    match t {
        Term::Const(c) => c.0 as u64,
        Term::Null(n) => (1u64 << 32) | n.0 as u64,
        Term::Var(v) => (2u64 << 32) | v.0 as u64,
    }
}

impl TriggerFp {
    /// Builds the fingerprint of a match of TGD `tgd_id`'s body
    /// pattern: the images of `slots` (engines pass
    /// [`Tgd::sorted_body_slots`], or [`Tgd::frontier_slots`] for the
    /// semi-oblivious identification).
    #[inline]
    pub fn of_slots(tgd_id: TgdId, m: &SlotBinding<'_>, slots: &[u32]) -> TriggerFp {
        debug_assert!(
            tgd_id.0 < GROUND_HEAD_TAG,
            "TGD id collides with the head tag"
        );
        TriggerFp::packed(tgd_id.0, slots.iter().map(|&s| m.get(s)))
    }

    /// Builds the key of the ground atom `head`: equal for equal atoms,
    /// never equal to a trigger's fingerprint. Inline (no heap
    /// allocation) up to [`FP_INLINE_TERMS`] arguments.
    pub fn of_ground_head<'a>(head: impl Into<AtomRef<'a>>) -> TriggerFp {
        let head = head.into();
        TriggerFp::packed(GROUND_HEAD_TAG | head.pred.0, head.args.iter().copied())
    }

    fn packed(owner: u32, terms: impl ExactSizeIterator<Item = Term>) -> TriggerFp {
        let mut inline = [0u64; FP_INLINE_TERMS];
        if terms.len() <= FP_INLINE_TERMS {
            let len = terms.len() as u8;
            for (slot, t) in inline.iter_mut().zip(terms) {
                *slot = pack_term(t);
            }
            TriggerFp {
                owner,
                len,
                inline,
                spill: None,
            }
        } else {
            TriggerFp {
                owner,
                len: 0,
                inline,
                spill: Some(terms.map(pack_term).collect()),
            }
        }
    }

    /// The packed term images, in layout order.
    #[inline]
    pub fn terms(&self) -> &[u64] {
        match &self.spill {
            Some(b) => b,
            None => &self.inline[..self.len as usize],
        }
    }

    /// Whether the fingerprint fits inline (no heap allocation).
    #[inline]
    pub fn is_inline(&self) -> bool {
        self.spill.is_none()
    }
}

impl PartialEq for TriggerFp {
    fn eq(&self, other: &Self) -> bool {
        self.owner == other.owner && self.terms() == other.terms()
    }
}
impl Eq for TriggerFp {}

impl Hash for TriggerFp {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.owner);
        for &t in self.terms() {
            state.write_u64(t);
        }
    }
}

impl Trigger {
    /// A canonical fingerprint of this trigger: the TGD plus the
    /// images of its body variables in sorted-variable order. Two
    /// triggers are the same trigger iff their keys agree.
    ///
    /// Engines use the packed [`TriggerFp`] instead; this owned form
    /// remains for the fairness machinery and diagnostics.
    pub fn key(&self, tgd: &Tgd) -> (TgdId, Vec<Term>) {
        (
            self.tgd,
            tgd.sorted_body_vars()
                .iter()
                .map(|&v| self.binding.get(v).unwrap_or(Term::Var(v)))
                .collect(),
        )
    }

    /// Whether this trigger is *active* on `instance`: no extension of
    /// `h|fr(σ)` maps the head into the instance (Definition 3.1).
    ///
    /// The head matcher is seeded with the full body homomorphism
    /// rather than a materialised restriction `h|fr(σ)`: head atoms
    /// mention only frontier and existential variables, and
    /// existentials are disjoint from body variables, so the
    /// non-frontier entries are never consulted — same answer, no
    /// allocation.
    pub fn is_active(&self, tgd: &Tgd, instance: &Instance) -> bool {
        if let Some(sat) = head_satisfied_probe(tgd, instance, &self.binding) {
            return !sat;
        }
        !exists_homomorphism(tgd.head(), instance, &self.binding)
    }

    /// Computes `result(σ, h)` — the head atoms with frontier
    /// variables instantiated by `h` and existential variables
    /// witnessed by nulls from `skolem` (Definition 3.1). Single-head
    /// TGDs yield exactly one atom.
    pub fn result(&self, tgd: &Tgd, skolem: &mut SkolemTable) -> Vec<Atom> {
        let mut out = Vec::with_capacity(tgd.head().len());
        for head in tgd.head() {
            let args = head
                .args
                .iter()
                .map(|&t| match t {
                    Term::Var(v) => {
                        if let Some(image) = self.binding.get(v) {
                            image
                        } else {
                            Term::Null(skolem.null_for(self.tgd, tgd, &self.binding, v))
                        }
                    }
                    ground => ground,
                })
                .collect::<chase_core::atom::ArgVec>();
            out.push(Atom::new(head.pred, args));
        }
        out
    }

    /// `result(σ, h)` with the existential variables named by
    /// position instead of by a [`SkolemTable`]: `tgd.existentials()[k]`
    /// gets the null `first_null + k`. These are the nulls
    /// [`SkolemTable::fresh_nulls`] invents, and the ones
    /// [`Trigger::result`] gets for a trigger its table has not seen.
    /// Appends one atom per head atom to `out`.
    pub(crate) fn result_named(tgd: &Tgd, binding: &Binding, first_null: u32, out: &mut Vec<Atom>) {
        for head in tgd.head() {
            let args = head
                .args
                .iter()
                .map(|&t| match t {
                    Term::Var(v) => binding.get(v).unwrap_or_else(|| {
                        let k = tgd
                            .existentials()
                            .iter()
                            .position(|&e| e == v)
                            // invariant: a head variable the body does
                            // not bind is existential.
                            .expect("unbound head variable is existential");
                        Term::Null(NullId(first_null + k as u32))
                    }),
                    ground => ground,
                })
                .collect::<ArgVec>();
            out.push(Atom::new(head.pred, args));
        }
    }

    /// The 0-based positions of the (single) head atom that carry
    /// frontier terms — the paper's `fr(result(σ,h))` position set
    /// `⋃_{x∈fr(σ)} pos(head(σ), x)`.
    pub fn frontier_positions(tgd: &Tgd) -> Vec<usize> {
        let head = match tgd.single_head() {
            Some(h) => h,
            None => return Vec::new(),
        };
        head.args
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t, Term::Var(v) if tgd.is_frontier(*v)))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Reusable matcher arenas for one chase run. Engines borrow one per
/// run, so a caller that runs many chases (a server session runner)
/// keeps the arenas warm instead of reallocating them every run. The
/// scratch carries no run-scoped state: results never depend on which
/// scratch a run borrowed.
#[derive(Debug, Default)]
pub struct ChaseScratch {
    /// Drives trigger enumeration (homomorphism search).
    pub(crate) matcher: HomScratch,
    /// Probes head satisfaction for restriction checks.
    pub(crate) probe: HomScratch,
    /// Rebuilds a queued trigger's binding before its check.
    pub(crate) binding: Binding,
    /// A discovered trigger's ground head arguments (see
    /// [`crate::restricted::TriggerIdentity`]).
    pub(crate) head: Vec<Term>,
}

/// Head-satisfaction check for a `(tgd, binding)` pair: whether some
/// homomorphism of the head into `instance` extends `binding`.
///
/// This is the chase loop's pop-time restriction check; it answers
/// exactly as [`Trigger::is_active`] (negated). Dispatch order: the O(1)
/// [`head_satisfied_probe`] when the TGD admits one, else the general
/// search (whose ground membership fast path decides full TGDs with
/// one probe per head atom).
pub fn head_satisfied_with(
    scratch: &mut HomScratch,
    tgd: &Tgd,
    instance: &Instance,
    binding: &Binding,
) -> bool {
    if let Some(sat) = head_satisfied_probe(tgd, instance, binding) {
        return sat;
    }
    exists_homomorphism_with(scratch, tgd.head(), instance, binding)
}

/// Enumerates every trigger for `set` on `instance` through a
/// caller-owned scratch, handing out `(tgd, &match)` pairs without
/// constructing [`Trigger`] values — the caller copies the binding
/// only for triggers it decides to keep. Stops early when `f` breaks.
pub fn for_each_trigger_with<F>(
    scratch: &mut HomScratch,
    set: &TgdSet,
    instance: &Instance,
    mut f: F,
) -> ControlFlow<()>
where
    F: FnMut(TgdId, &SlotBinding<'_>) -> ControlFlow<()>,
{
    for (id, tgd) in set.iter() {
        for_each_match_with(scratch, tgd.body_pattern(), instance, |m| f(id, m))?;
    }
    ControlFlow::Continue(())
}

/// Enumerates, through a caller-owned scratch, the triggers for `set`
/// on `instance` in which the body atom at some position is matched to
/// the atom stored at `new_slot` — the semi-naive delta used after
/// inserting that atom. Triggers not involving the new atom are *not*
/// reported. The body atoms tried are the set's index of body atoms by
/// predicate ([`TgdSet::body_atoms_with_pred`]), in TGD then body
/// order; the new atom is unified into the compiled body in place and
/// the rest of the body completed against the instance, so the
/// enumeration allocates nothing. Each match lists the new atom's
/// bindings first, as if the body minus that atom had been matched
/// from them.
pub fn for_each_trigger_using_with<F>(
    scratch: &mut HomScratch,
    set: &TgdSet,
    instance: &Instance,
    new_slot: usize,
    mut f: F,
) -> ControlFlow<()>
where
    F: FnMut(TgdId, &SlotBinding<'_>) -> ControlFlow<()>,
{
    let new_atom = instance.atom(new_slot);
    for &(id, i) in set.body_atoms_with_pred(new_atom.pred) {
        let body = set.tgd(id).body_pattern();
        for_each_match_using_with(scratch, body, i as usize, new_atom, instance, |m| f(id, m))?;
    }
    ControlFlow::Continue(())
}

/// Enumerates every trigger for `set` on `instance`, calling `f` for
/// each; stops early when `f` breaks. Allocates one [`Trigger`] per
/// enumerated homomorphism; engines use [`for_each_trigger_with`].
pub fn for_each_trigger(
    set: &TgdSet,
    instance: &Instance,
    f: &mut dyn FnMut(Trigger) -> ControlFlow<()>,
) -> ControlFlow<()> {
    with_scratch(|scratch| {
        for_each_trigger_with(scratch, set, instance, |id, m| {
            f(Trigger {
                tgd: id,
                binding: m.to_binding(),
            })
        })
    })
}

/// Collects all triggers on an instance (test/diagnostic helper).
pub fn all_triggers(set: &TgdSet, instance: &Instance) -> Vec<Trigger> {
    let mut out = Vec::new();
    let _ = for_each_trigger(set, instance, &mut |t| {
        out.push(t);
        ControlFlow::Continue(())
    });
    out
}

/// Collects all *active* triggers on an instance.
pub fn active_triggers(set: &TgdSet, instance: &Instance) -> Vec<Trigger> {
    all_triggers(set, instance)
        .into_iter()
        .filter(|t| t.is_active(set.tgd(t.tgd), instance))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skolem::SkolemPolicy;
    use chase_core::parser::parse_program;
    use chase_core::vocab::Vocabulary;

    #[test]
    fn intro_example_has_trigger_but_not_active() {
        let mut vocab = Vocabulary::new();
        let p = parse_program("R(a,b). R(x,y) -> exists z. R(x,z).", &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let triggers = all_triggers(&set, &p.database);
        assert_eq!(triggers.len(), 1);
        assert!(!triggers[0].is_active(set.tgd(TgdId(0)), &p.database));
        assert!(active_triggers(&set, &p.database).is_empty());
    }

    #[test]
    fn violated_tgd_gives_active_trigger_and_result() {
        let mut vocab = Vocabulary::new();
        let p = parse_program("R(a,b). R(x,y) -> exists z. R(y,z).", &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let active = active_triggers(&set, &p.database);
        assert_eq!(active.len(), 1);
        let mut skolem = SkolemTable::new(SkolemPolicy::PerTrigger);
        let atoms = active[0].result(set.tgd(TgdId(0)), &mut skolem);
        assert_eq!(atoms.len(), 1);
        // result = R(b, ν0)
        let b = vocab.lookup_pred("R").unwrap();
        assert_eq!(atoms[0].pred, b);
        assert!(atoms[0].args[1].is_null());
        // Determinism: recomputing the result yields the same atom.
        let again = active[0].result(set.tgd(TgdId(0)), &mut skolem);
        assert_eq!(atoms, again);
    }

    #[test]
    fn frontier_positions_of_single_head() {
        let mut vocab = Vocabulary::new();
        // T(x,y,z) -> exists w. S(y,w): head S(y,w), frontier {y} at position 0.
        let p = parse_program("T(x,y,z) -> exists w. S(y,w).", &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        assert_eq!(Trigger::frontier_positions(set.tgd(TgdId(0))), vec![0]);
    }

    #[test]
    fn delta_enumeration_matches_full_enumeration() {
        let mut vocab = Vocabulary::new();
        let p = parse_program(
            "R(a,b). R(b,c). R(x,y), R(y,z) -> exists w. R(z,w).",
            &mut vocab,
        )
        .unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let full = all_triggers(&set, &p.database);
        assert_eq!(full.len(), 1); // only R(a,b),R(b,c) chains
                                   // Insert R(c,d); delta triggers using the new atom.
        let mut inst = p.database.clone();
        let r = vocab.lookup_pred("R").unwrap();
        let c = vocab.constant("c");
        let d = vocab.constant("d");
        let (slot, fresh) = inst.insert(Atom::new(r, vec![Term::Const(c), Term::Const(d)]));
        assert!(fresh);
        let mut delta = Vec::new();
        let mut scratch = HomScratch::new();
        let _ = for_each_trigger_using_with(&mut scratch, &set, &inst, slot, |id, m| {
            delta.push((id, m.to_binding()));
            ControlFlow::Continue(())
        });
        // New triggers: (R(b,c),R(c,d)) and (R(c,d),?) — only the former completes.
        assert_eq!(delta.len(), 1);
        let all_after = all_triggers(&set, &inst);
        assert_eq!(all_after.len(), 2);
    }

    #[test]
    fn trigger_key_canonical() {
        let mut vocab = Vocabulary::new();
        let p = parse_program("R(a,b). R(x,y) -> exists z. R(y,z).", &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let t = &all_triggers(&set, &p.database)[0];
        let k1 = t.key(set.tgd(t.tgd));
        let k2 = t.key(set.tgd(t.tgd));
        assert_eq!(k1, k2);
        assert_eq!(k1.1.len(), 2);
    }

    /// The fingerprint and the owned key of every trigger of `source`'s
    /// rules on its database, as `for_each_trigger_with` hands them out.
    fn fingerprints_and_keys(source: &str) -> Vec<(TriggerFp, (TgdId, Vec<Term>))> {
        let mut vocab = Vocabulary::new();
        let p = parse_program(source, &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let mut out = Vec::new();
        let _ = for_each_trigger_with(&mut HomScratch::new(), &set, &p.database, |id, m| {
            let tgd = set.tgd(id);
            let fp = TriggerFp::of_slots(id, m, tgd.sorted_body_slots());
            // Same match → same fingerprint.
            assert_eq!(fp, TriggerFp::of_slots(id, m, tgd.sorted_body_slots()));
            let t = Trigger {
                tgd: id,
                binding: m.to_binding(),
            };
            out.push((fp, t.key(tgd)));
            ControlFlow::Continue(())
        });
        out
    }

    #[test]
    fn fingerprint_agrees_with_key() {
        let found =
            fingerprints_and_keys("R(a,b). R(b,c). R(b,b). R(x,y), R(y,z) -> exists w. R(z,w).");
        assert!(found.len() > 1);
        // Fingerprints induce exactly the key equivalence: equal
        // fingerprints ⇔ equal keys, over every pair of triggers.
        for (fa, ka) in &found {
            assert!(fa.is_inline(), "benchmark-sized bodies stay inline");
            for (fb, kb) in &found {
                assert_eq!(fa == fb, ka == kb, "{ka:?} vs {kb:?}");
            }
        }
    }

    #[test]
    fn fingerprint_spills_beyond_inline_capacity() {
        // 8 distinct body variables force the spill representation.
        let found = fingerprints_and_keys(
            "P8(a,b,c,d,e,f,g,h). P8(x1,x2,x3,x4,x5,x6,x7,x8) -> exists u. Q(u).",
        );
        let [(fp, key)] = found.as_slice() else {
            panic!("one trigger, got {found:?}");
        };
        assert!(!fp.is_inline());
        assert_eq!(fp.terms().len(), 8);
        assert_eq!(key.1.len(), 8);
    }

    #[test]
    fn full_binding_activity_matches_restricted_binding() {
        // is_active seeds the head matcher with the full body
        // homomorphism; it must agree with the definition's h|fr(σ).
        let mut vocab = Vocabulary::new();
        let p = parse_program(
            "R(a,b). S(b,c). R(x,y), S(y,u) -> exists z. R(y,z).",
            &mut vocab,
        )
        .unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        for t in all_triggers(&set, &p.database) {
            let tgd = set.tgd(t.tgd);
            let restricted = t.binding.restricted_to(tgd.frontier());
            let by_definition =
                !chase_core::hom::exists_homomorphism(tgd.head(), &p.database, &restricted);
            assert_eq!(t.is_active(tgd, &p.database), by_definition);
        }
    }

    /// Multi-head TGDs get no probe: `head_satisfied_with` must run the
    /// general search and join the head atoms over the whole instance.
    #[test]
    fn head_satisfied_with_completes_multi_head_over_full_instance() {
        let mut vocab = Vocabulary::new();
        let p = parse_program("T(c7). R(x) -> exists w. S(x,w), T(w).", &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let tgd = set.tgd(TgdId(0));
        assert!(tgd.head_probe().is_none());
        let x = tgd.frontier()[0];
        let s = vocab.lookup_pred("S").unwrap();
        let (c0, c7) = (vocab.constant("c0"), vocab.constant("c7"));
        let mut binding = Binding::new();
        binding.push(x, Term::Const(c0));
        // T(c7) alone does not satisfy the head for x = c0...
        let mut inst = p.database.clone();
        let mut scratch = HomScratch::new();
        assert!(!head_satisfied_with(&mut scratch, tgd, &inst, &binding));
        // ...but S(c0,c7), inserted after it, completes the join.
        inst.insert(Atom::new(s, vec![Term::Const(c0), Term::Const(c7)]));
        assert!(head_satisfied_with(&mut scratch, tgd, &inst, &binding));
        assert_eq!(
            head_satisfied_with(&mut scratch, tgd, &inst, &binding),
            chase_core::hom::reference::exists_homomorphism(tgd.head(), &inst, &binding)
        );
    }
}

//! Triggers and trigger application (Definition 3.1).
//!
//! Hot-path notes: engines identify triggers by an interned
//! [`TriggerFp`] fingerprint — the TGD id plus the images of its body
//! variables in the precomputed sorted-variable layout, each packed
//! into a `u64` and stored inline for up to [`FP_INLINE_TERMS`]
//! variables. Computing a fingerprint neither sorts nor allocates (for
//! inline-sized bodies), so duplicate-trigger detection is free of the
//! per-trigger `Vec<Term>` sort the seed engine paid. The `*_with`
//! enumeration entry points thread a caller-owned
//! [`HomScratch`] through the matcher and hand bindings out by
//! reference, so enumerating already-seen triggers allocates nothing.

use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;

use chase_core::atom::Atom;
use chase_core::hom::{
    exists_homomorphism, exists_homomorphism_with, for_each_homomorphism_with,
    head_satisfied_probe, head_satisfied_since, with_scratch, HomScratch,
};
use chase_core::ids::VarId;
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
#[derive(Debug, Clone)]
pub struct TriggerFp {
    tgd: TgdId,
    len: u8,
    inline: [u64; FP_INLINE_TERMS],
    spill: Option<Box<[u64]>>,
}

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
    /// Builds the fingerprint of `(tgd_id, binding)` over the variable
    /// layout `vars` (engines pass `tgd.sorted_body_vars()`, or
    /// `tgd.frontier()` for the semi-oblivious identification).
    pub fn of(tgd_id: TgdId, binding: &Binding, vars: &[VarId]) -> TriggerFp {
        let mut inline = [0u64; FP_INLINE_TERMS];
        if vars.len() <= FP_INLINE_TERMS {
            for (i, &v) in vars.iter().enumerate() {
                inline[i] = pack_term(binding.get(v).unwrap_or(Term::Var(v)));
            }
            TriggerFp {
                tgd: tgd_id,
                len: vars.len() as u8,
                inline,
                spill: None,
            }
        } else {
            let spill: Box<[u64]> = vars
                .iter()
                .map(|&v| pack_term(binding.get(v).unwrap_or(Term::Var(v))))
                .collect();
            TriggerFp {
                tgd: tgd_id,
                len: 0,
                inline,
                spill: Some(spill),
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
        self.tgd == other.tgd && self.terms() == other.terms()
    }
}
impl Eq for TriggerFp {}

impl Hash for TriggerFp {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.tgd.0);
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

    /// The packed fingerprint of this trigger (see [`TriggerFp`]).
    #[inline]
    pub fn fingerprint(&self, tgd: &Tgd) -> TriggerFp {
        TriggerFp::of(self.tgd, &self.binding, tgd.sorted_body_vars())
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
        if let Some(sat) = head_satisfied_probe(tgd, instance, &self.binding, 0) {
            return !sat;
        }
        !exists_homomorphism(tgd.head(), instance, &self.binding)
    }

    /// [`Trigger::is_active`] with a caller-owned scratch arena
    /// (allocation-free once warmed).
    pub fn is_active_with(&self, tgd: &Tgd, instance: &Instance, scratch: &mut HomScratch) -> bool {
        !head_satisfied_with(scratch, tgd, instance, &self.binding, 0)
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
}

/// Incremental head-satisfaction check for a `(tgd, binding)` pair:
/// whether some homomorphism of the head into `instance` extends
/// `binding`, given that a previous search already **refuted**
/// satisfaction on the length-`since` prefix of `instance` under the
/// same binding. `since == 0` is an unconditional full check.
///
/// This single entry point is shared by [`Trigger::is_active_with`]
/// and the restricted engine's pop-time check, so every consumer
/// computes the exact same answer. Dispatch order: the O(1)
/// [`head_satisfied_probe`] when the TGD admits one, else the ground
/// membership fast path (`since == 0`), else the anchored delta search
/// [`head_satisfied_since`].
pub fn head_satisfied_with(
    scratch: &mut HomScratch,
    tgd: &Tgd,
    instance: &Instance,
    binding: &Binding,
    since: usize,
) -> bool {
    if let Some(sat) = head_satisfied_probe(tgd, instance, binding, since) {
        return sat;
    }
    if since == 0 || tgd.existentials().is_empty() {
        // Full TGDs have fully-ground heads under a trigger binding,
        // so this is one membership probe per head atom — valid at any
        // watermark: a member sitting below `since` would contradict
        // the caller's earlier refutation, so membership alone decides.
        exists_homomorphism_with(scratch, tgd.head(), instance, binding)
    } else {
        head_satisfied_since(scratch, tgd, instance, binding, since)
    }
}

/// Enumerates every trigger of the single TGD `(id, tgd)` on
/// `instance` through a caller-owned scratch, handing out
/// `(id, &binding)` pairs without constructing [`Trigger`] values.
/// Building block of [`for_each_trigger_with`].
pub fn for_each_trigger_of_tgd_with(
    scratch: &mut HomScratch,
    id: TgdId,
    tgd: &Tgd,
    instance: &Instance,
    f: &mut dyn FnMut(TgdId, &Binding) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut binding = scratch.take_binding();
    binding.clear();
    let flow = for_each_homomorphism_with(scratch, tgd.body(), instance, &mut binding, &mut |b| {
        f(id, b)
    });
    scratch.put_binding(binding);
    flow
}

/// Enumerates every trigger for `set` on `instance` through a
/// caller-owned scratch, handing out `(tgd, &binding)` pairs without
/// constructing [`Trigger`] values — the caller clones the binding
/// only for triggers it decides to keep. Stops early when `f` breaks.
pub fn for_each_trigger_with(
    scratch: &mut HomScratch,
    set: &TgdSet,
    instance: &Instance,
    f: &mut dyn FnMut(TgdId, &Binding) -> ControlFlow<()>,
) -> ControlFlow<()> {
    for (id, tgd) in set.iter() {
        for_each_trigger_of_tgd_with(scratch, id, tgd, instance, f)?;
    }
    ControlFlow::Continue(())
}

/// Enumerates, through a caller-owned scratch, the triggers for `set`
/// on `instance` in which the body atom at some position is matched to
/// the atom stored at `new_slot` — the semi-naive delta used after
/// inserting that atom. Triggers not involving the new atom are *not*
/// reported. The new atom is borrowed in place and the remaining body
/// is the TGD's precomputed `body_without(i)` view, so the enumeration
/// itself allocates nothing.
pub fn for_each_trigger_using_with(
    scratch: &mut HomScratch,
    set: &TgdSet,
    instance: &Instance,
    new_slot: usize,
    f: &mut dyn FnMut(TgdId, &Binding) -> ControlFlow<()>,
) -> ControlFlow<()> {
    for (id, tgd) in set.iter() {
        for_each_trigger_of_tgd_using_with(scratch, id, tgd, instance, new_slot, f)?;
    }
    ControlFlow::Continue(())
}

/// The single-TGD slice of [`for_each_trigger_using_with`]: delta
/// triggers of `(id, tgd)` whose body uses the atom at `new_slot`.
pub fn for_each_trigger_of_tgd_using_with(
    scratch: &mut HomScratch,
    id: TgdId,
    tgd: &Tgd,
    instance: &Instance,
    new_slot: usize,
    f: &mut dyn FnMut(TgdId, &Binding) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let new_atom = instance.atom(new_slot);
    for (i, body_atom) in tgd.body().iter().enumerate() {
        if body_atom.pred != new_atom.pred {
            continue;
        }
        // Seed the binding by unifying body_atom with the new atom.
        let mut binding = scratch.take_binding();
        binding.clear();
        let mut ok = true;
        for (p, &t) in body_atom.args.iter().zip(new_atom.args.iter()) {
            match *p {
                Term::Var(v) => match binding.get(v) {
                    Some(bound) if bound != t => {
                        ok = false;
                        break;
                    }
                    Some(_) => {}
                    None => binding.push(v, t),
                },
                ground => {
                    if ground != t {
                        ok = false;
                        break;
                    }
                }
            }
        }
        if !ok {
            scratch.put_binding(binding);
            continue;
        }
        // Complete the rest of the body against the instance.
        let flow = for_each_homomorphism_with(
            scratch,
            tgd.body_without(i),
            instance,
            &mut binding,
            &mut |b| f(id, b),
        );
        scratch.put_binding(binding);
        if flow.is_break() {
            return ControlFlow::Break(());
        }
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
        for_each_trigger_with(scratch, set, instance, &mut |id, b| {
            f(Trigger {
                tgd: id,
                binding: b.clone(),
            })
        })
    })
}

/// Enumerates the triggers for `set` on `instance` in which the body
/// atom at some position is matched to the atom stored at
/// `new_slot` — the semi-naive delta used after inserting that atom.
/// Triggers not involving the new atom are *not* reported.
pub fn for_each_trigger_using(
    set: &TgdSet,
    instance: &Instance,
    new_slot: usize,
    f: &mut dyn FnMut(Trigger) -> ControlFlow<()>,
) -> ControlFlow<()> {
    with_scratch(|scratch| {
        for_each_trigger_using_with(scratch, set, instance, new_slot, &mut |id, b| {
            f(Trigger {
                tgd: id,
                binding: b.clone(),
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
        let _ = for_each_trigger_using(&set, &inst, slot, &mut |t| {
            delta.push(t);
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

    #[test]
    fn fingerprint_agrees_with_key() {
        use chase_core::ids::fx_set;
        let mut vocab = Vocabulary::new();
        let p = parse_program(
            "R(a,b). R(b,c). R(b,b). R(x,y), R(y,z) -> exists w. R(z,w).",
            &mut vocab,
        )
        .unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let triggers = all_triggers(&set, &p.database);
        assert!(!triggers.is_empty());
        let mut keys = fx_set();
        let mut fps = fx_set();
        for t in &triggers {
            let tgd = set.tgd(t.tgd);
            let fp = t.fingerprint(tgd);
            assert!(fp.is_inline(), "benchmark-sized bodies stay inline");
            // Same trigger → same fingerprint.
            assert_eq!(fp, t.fingerprint(tgd));
            keys.insert(t.key(tgd));
            fps.insert(fp);
        }
        // Fingerprints induce exactly the key equivalence.
        assert_eq!(keys.len(), fps.len());
    }

    #[test]
    fn fingerprint_spills_beyond_inline_capacity() {
        use chase_core::ids::ConstId;
        // 8 distinct body variables force the spill representation.
        let mut vocab = Vocabulary::new();
        let p =
            parse_program("P8(x1,x2,x3,x4,x5,x6,x7,x8) -> exists u. Q(u).", &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let tgd = set.tgd(TgdId(0));
        let binding = Binding::from_pairs(
            tgd.body_vars()
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, Term::Const(ConstId(i as u32)))),
        );
        let t = Trigger {
            tgd: TgdId(0),
            binding,
        };
        let fp = t.fingerprint(tgd);
        assert!(!fp.is_inline());
        assert_eq!(fp.terms().len(), 8);
        assert_eq!(fp, t.fingerprint(tgd));
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
}

//! Chase derivations: recorded step sequences, replay and validation.
//!
//! A (finite prefix of a) restricted chase derivation `(I_i)` is
//! represented by its start database plus the sequence of trigger
//! applications. [`Derivation::validate`] replays the sequence and
//! checks the defining conditions of Section 3.2: every step's trigger
//! is a trigger on the current instance *and is active*; a derivation
//! claimed to be terminating must leave no active trigger.

use chase_core::atom::Atom;
use chase_core::ids::VarId;
use chase_core::instance::Instance;
use chase_core::subst::Binding;
use chase_core::term::Term;
use chase_core::tgd::{TgdId, TgdSet};
use chase_core::vocab::Vocabulary;

use crate::trigger::Trigger;

/// One chase step: the trigger applied and the atoms it added.
#[derive(Debug, Clone)]
pub struct Step {
    /// The applied trigger.
    pub trigger: Trigger,
    /// The atoms `result(σ,h)` (singleton for single-head TGDs).
    pub added: Vec<Atom>,
}

/// A recorded derivation prefix.
#[derive(Debug, Clone, Default)]
pub struct Derivation {
    /// The steps, in application order.
    pub steps: Vec<Step>,
}

/// The applied steps of a restricted chase run, as cheaply as its loop
/// can keep them: each step's TGD and the span of its body binding in
/// the binding arena the loop queued its triggers in, plus the run's
/// first invented null.
///
/// Every applied trigger is new to the run, so it invents one fresh
/// null per existential variable, in [`Tgd::existentials`] order (see
/// [`crate::skolem`]). The nulls of step `i` therefore follow from the
/// TGDs of the steps before it, and [`StepLog::derivation`] rebuilds
/// each step's `result(σ,h)` exactly, without the run having kept an
/// owned binding or atom per step.
///
/// [`Tgd::existentials`]: chase_core::tgd::Tgd::existentials
#[derive(Debug, Clone, Default)]
pub struct StepLog {
    /// The run's binding arena; the spans of queued and applied
    /// triggers index into it.
    pub(crate) arena: Vec<(VarId, Term)>,
    /// Per applied step: the TGD, and the start and length of its
    /// binding in `arena`.
    pub(crate) steps: Vec<(TgdId, u32, u32)>,
    /// The first null the run invented.
    pub(crate) first_null: u32,
}

impl StepLog {
    /// An empty log of a run whose first invented null is `first_null`.
    pub(crate) fn starting_at(first_null: u32) -> StepLog {
        StepLog {
            first_null,
            ..StepLog::default()
        }
    }

    /// Number of logged steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether no step was logged.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The TGD applied at step `i`.
    pub fn tgd(&self, i: usize) -> TgdId {
        self.steps[i].0
    }

    /// The body binding of step `i`'s trigger, one `(var, term)` pair
    /// per body variable.
    pub fn binding(&self, i: usize) -> &[(VarId, Term)] {
        let (_, start, len) = self.steps[i];
        &self.arena[start as usize..(start + len) as usize]
    }

    /// The derivation of the first `n` logged steps (all of them when
    /// `n` exceeds the log): each step's trigger and its `result(σ,h)`,
    /// nulls included, as the run applied them.
    pub fn derivation(&self, set: &TgdSet, n: usize) -> Derivation {
        let mut next_null = self.first_null;
        let steps = (0..n.min(self.len()))
            .map(|i| {
                let tgd = set.tgd(self.tgd(i));
                let trigger = Trigger {
                    tgd: self.tgd(i),
                    binding: Binding::from_pairs(self.binding(i).iter().copied()),
                };
                let mut added = Vec::with_capacity(tgd.head().len());
                Trigger::result_named(tgd, &trigger.binding, next_null, &mut added);
                next_null += tgd.existentials().len() as u32;
                Step { trigger, added }
            })
            .collect();
        Derivation { steps }
    }
}

/// Why a derivation failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DerivationFault {
    /// The trigger at this step index is not a homomorphism of its
    /// TGD body into the instance at that point.
    NotATrigger(usize),
    /// The trigger at this step index is not active (the restricted
    /// chase may only apply active triggers).
    NotActive(usize),
    /// The step claims to add atoms different from `result(σ,h)`.
    WrongResult(usize),
    /// The derivation is marked terminated but an active trigger
    /// remains on the final instance.
    NotSaturated,
}

impl std::fmt::Display for DerivationFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DerivationFault::NotATrigger(i) => write!(f, "step {i}: not a trigger"),
            DerivationFault::NotActive(i) => write!(f, "step {i}: trigger not active"),
            DerivationFault::WrongResult(i) => {
                write!(f, "step {i}: added atoms differ from result(σ,h)")
            }
            DerivationFault::NotSaturated => {
                write!(f, "final instance still has an active trigger")
            }
        }
    }
}

impl Derivation {
    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the derivation has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Replays the derivation from `database`, checking that each step
    /// applies an *active* trigger whose result matches the recorded
    /// atoms. If `must_saturate` is set, additionally checks that no
    /// active trigger remains at the end.
    ///
    /// Returns the final instance on success.
    pub fn validate(
        &self,
        database: &Instance,
        set: &TgdSet,
        must_saturate: bool,
    ) -> Result<Instance, DerivationFault> {
        let mut instance = database.clone();
        for (i, step) in self.steps.iter().enumerate() {
            let tgd = set.tgd(step.trigger.tgd);
            // (a) it is a trigger: h maps every body atom into I.
            let grounded_body: Vec<Atom> = tgd
                .body()
                .iter()
                .map(|a| step.trigger.binding.apply_atom(a))
                .collect();
            if !grounded_body
                .iter()
                .all(|a| a.is_ground() && instance.contains(a))
            {
                return Err(DerivationFault::NotATrigger(i));
            }
            // (b) it is active.
            if !step.trigger.is_active(tgd, &instance) {
                return Err(DerivationFault::NotActive(i));
            }
            // (c) the added atoms are result(σ,h) up to null renaming:
            // frontier positions must carry the frontier images and
            // existential positions must carry nulls consistent with
            // the head's variable repetition pattern.
            if !added_atoms_consistent(&step.added, tgd, &step.trigger) {
                return Err(DerivationFault::WrongResult(i));
            }
            for atom in &step.added {
                instance.insert(atom.clone());
            }
        }
        if must_saturate {
            let saturated = crate::trigger::active_triggers(set, &instance).is_empty();
            if !saturated {
                return Err(DerivationFault::NotSaturated);
            }
        }
        Ok(instance)
    }

    /// Renders the derivation for diagnostics.
    pub fn display(&self, _set: &TgdSet, vocab: &Vocabulary) -> String {
        let mut out = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            let added: Vec<String> = step.added.iter().map(|a| a.display(vocab)).collect();
            out.push_str(&format!(
                "{i:4}: σ{} ⇒ {}\n",
                step.trigger.tgd.0,
                added.join(", ")
            ));
        }
        out
    }
}

/// Checks that `added` instantiates the head pattern of `tgd` under
/// the trigger's binding: frontier variables carry their images and
/// existential variables carry nulls, equal nulls exactly where the
/// head repeats a variable.
fn added_atoms_consistent(added: &[Atom], tgd: &chase_core::tgd::Tgd, trigger: &Trigger) -> bool {
    if added.len() != tgd.head().len() {
        return false;
    }
    let mut witness: Vec<(chase_core::ids::VarId, chase_core::term::Term)> = Vec::new();
    for (head, atom) in tgd.head().iter().zip(added.iter()) {
        if head.pred != atom.pred {
            return false;
        }
        for (ht, &at) in head.args.iter().zip(atom.args.iter()) {
            match *ht {
                chase_core::term::Term::Var(v) => {
                    if let Some(image) = trigger.binding.get(v) {
                        if image != at {
                            return false;
                        }
                    } else {
                        // Existential: must be a null, consistently.
                        if !at.is_null() {
                            return false;
                        }
                        match witness.iter().find(|(w, _)| *w == v) {
                            Some(&(_, t)) => {
                                if t != at {
                                    return false;
                                }
                            }
                            None => witness.push((v, at)),
                        }
                    }
                }
                _ => return false, // heads are constant-free
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skolem::{SkolemPolicy, SkolemTable};
    use crate::trigger::active_triggers;
    use chase_core::parser::parse_program;
    use chase_core::vocab::Vocabulary;

    #[test]
    fn manual_derivation_validates() {
        let mut vocab = Vocabulary::new();
        let p = parse_program("R(a,b). R(x,y) -> S(y).", &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let inst = p.database.clone();
        let mut skolem = SkolemTable::new(SkolemPolicy::PerTrigger);
        let t = active_triggers(&set, &inst).pop().unwrap();
        let added = t.result(set.tgd(t.tgd), &mut skolem);
        let derivation = Derivation {
            steps: vec![Step { trigger: t, added }],
        };
        let final_inst = derivation.validate(&p.database, &set, true).unwrap();
        assert_eq!(final_inst.len(), 2);
    }

    #[test]
    fn non_active_step_rejected() {
        let mut vocab = Vocabulary::new();
        // The TGD is already satisfied: its only trigger is non-active.
        let p = parse_program("R(a,b). S(b). R(x,y) -> S(y).", &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let mut all = crate::trigger::all_triggers(&set, &p.database);
        let t = all.pop().unwrap();
        let mut skolem = SkolemTable::new(SkolemPolicy::PerTrigger);
        let added = t.result(set.tgd(t.tgd), &mut skolem);
        let d = Derivation {
            steps: vec![Step { trigger: t, added }],
        };
        assert_eq!(
            d.validate(&p.database, &set, false),
            Err(DerivationFault::NotActive(0))
        );
    }

    #[test]
    fn unsaturated_termination_claim_rejected() {
        let mut vocab = Vocabulary::new();
        let p = parse_program("R(a,b). R(x,y) -> S(y).", &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let d = Derivation::default();
        assert_eq!(
            d.validate(&p.database, &set, true),
            Err(DerivationFault::NotSaturated)
        );
        assert!(d.validate(&p.database, &set, false).is_ok());
    }

    #[test]
    fn wrong_result_rejected() {
        let mut vocab = Vocabulary::new();
        let p = parse_program("R(a,b). R(x,y) -> exists z. S(y,z).", &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let t = active_triggers(&set, &p.database).pop().unwrap();
        // Claim the step added S(y, b) — a constant instead of a null.
        let s = vocab.lookup_pred("S").unwrap();
        let b = vocab.constant("b");
        let d = Derivation {
            steps: vec![Step {
                trigger: t,
                added: vec![Atom::new(
                    s,
                    vec![
                        chase_core::term::Term::Const(b),
                        chase_core::term::Term::Const(b),
                    ],
                )],
            }],
        };
        assert_eq!(
            d.validate(&p.database, &set, false),
            Err(DerivationFault::WrongResult(0))
        );
    }
}

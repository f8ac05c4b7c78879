//! Frozen pre-optimisation chase engines, kept as the executable
//! specification of engine behaviour and as the baseline side of the
//! hot-path benchmarks (`BENCH_hotpath.json`).
//!
//! These engines deliberately reproduce the original implementation
//! choices the optimised engines replaced:
//!
//! * homomorphism search through [`chase_core::hom::reference`] (the
//!   recursive matcher that allocates a candidate vector per node);
//! * trigger identity via owned `(TgdId, Vec<Term>)` keys;
//! * delta enumeration that clones the new atom and rebuilds the
//!   "body minus position i" vector per position;
//! * activeness checks through a materialised frontier restriction
//!   `h|fr(σ)`.
//!
//! Because the optimised matcher enumerates in exactly the reference
//! order and the fingerprints refine exactly the key equivalence, a
//! seed run and an optimised run are **bit-identical** (same steps,
//! same outcome, same instance, nulls included). The equivalence
//! property suite drives both engines over random programs to pin
//! this down.

use std::collections::VecDeque;
use std::ops::ControlFlow;

use chase_core::atom::Atom;
use chase_core::hom::reference;
use chase_core::ids::fx_set;
use chase_core::instance::Instance;
use chase_core::subst::Binding;
use chase_core::term::Term;
use chase_core::tgd::TgdSet;

use crate::derivation::Derivation;
use crate::oblivious::ObliviousRun;
use crate::restricted::{Budget, ChaseRun, Outcome, Strategy};
use crate::skolem::{SkolemPolicy, SkolemTable};
use crate::trigger::Trigger;

/// Enumerates every trigger with the reference matcher, cloning one
/// [`Trigger`] per homomorphism (original behaviour).
fn seed_for_each_trigger(
    set: &TgdSet,
    instance: &Instance,
    f: &mut dyn FnMut(Trigger) -> ControlFlow<()>,
) -> ControlFlow<()> {
    for (id, tgd) in set.iter() {
        let mut binding = Binding::new();
        let flow = reference::for_each_homomorphism(tgd.body(), instance, &mut binding, &mut |b| {
            f(Trigger {
                tgd: id,
                binding: b.clone(),
            })
        });
        if flow.is_break() {
            return ControlFlow::Break(());
        }
    }
    ControlFlow::Continue(())
}

/// Delta enumeration with the original allocation pattern: clones the
/// new atom, rebuilds the rest-of-body vector per position.
fn seed_for_each_trigger_using(
    set: &TgdSet,
    instance: &Instance,
    new_slot: usize,
    f: &mut dyn FnMut(Trigger) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let new_atom = instance.atom(new_slot);
    for (id, tgd) in set.iter() {
        for (i, body_atom) in tgd.body().iter().enumerate() {
            if body_atom.pred != new_atom.pred {
                continue;
            }
            let mut binding = Binding::new();
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
                continue;
            }
            let rest: Vec<Atom> = tgd
                .body()
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, a)| a.clone())
                .collect();
            let flow = reference::for_each_homomorphism(&rest, instance, &mut binding, &mut |b| {
                f(Trigger {
                    tgd: id,
                    binding: b.clone(),
                })
            });
            if flow.is_break() {
                return ControlFlow::Break(());
            }
        }
    }
    ControlFlow::Continue(())
}

/// Activeness by the book: materialise `h|fr(σ)` and probe the head
/// with the reference matcher.
fn seed_is_active(trigger: &Trigger, set: &TgdSet, instance: &Instance) -> bool {
    let tgd = set.tgd(trigger.tgd);
    let restricted = trigger.binding.restricted_to(tgd.frontier());
    !reference::exists_homomorphism(tgd.head(), instance, &restricted)
}

/// The frozen restricted-chase engine (see module docs).
#[derive(Debug, Clone)]
pub struct SeedRestrictedChase<'a> {
    set: &'a TgdSet,
    strategy: Strategy,
}

impl<'a> SeedRestrictedChase<'a> {
    /// Creates a seed engine with the FIFO strategy.
    pub fn new(set: &'a TgdSet) -> Self {
        SeedRestrictedChase {
            set,
            strategy: Strategy::Fifo,
        }
    }

    /// Selects the queue discipline.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    fn pop(
        &self,
        queue: &mut VecDeque<Trigger>,
        rng: &mut Option<crate::restricted::XorShift64>,
    ) -> Option<Trigger> {
        if queue.is_empty() {
            return None;
        }
        match self.strategy {
            Strategy::Fifo => queue.pop_front(),
            Strategy::Lifo => queue.pop_back(),
            Strategy::Random(_) => {
                // invariant: the frozen run loop seeds `rng` with
                // `Some` exactly when the strategy is `Random`.
                let rng = rng.as_mut().expect("rng initialised for Random strategy");
                let i = rng.below(queue.len());
                queue.swap(i, 0);
                queue.pop_front()
            }
            Strategy::PriorityTgd => {
                // Naive realisation of the per-TGD-LIFO spec: newest
                // trigger of the smallest TGD id, removed in place so
                // the rest of the queue keeps its order.
                let min_tgd = queue.iter().map(|t| t.tgd).min()?;
                let i = queue
                    .iter()
                    .rposition(|t| t.tgd == min_tgd)
                    // invariant: `min_tgd` was just taken from this
                    // queue, so at least one element carries it.
                    .expect("min exists");
                queue.remove(i)
            }
        }
    }

    /// Runs the frozen restricted chase on `database` within `budget`.
    /// Derivations are not recorded (the field stays empty).
    pub fn run(&self, database: &Instance, budget: Budget) -> ChaseRun {
        let mut instance = database.clone();
        let mut skolem = SkolemTable::above(
            SkolemPolicy::PerTrigger,
            instance.iter().flat_map(|a| a.args.iter().copied()),
        );
        let mut queue: VecDeque<Trigger> = VecDeque::new();
        let mut seen = fx_set();
        let mut rng = match self.strategy {
            Strategy::Random(seed) => Some(crate::restricted::XorShift64::new(seed)),
            _ => None,
        };

        let _ = seed_for_each_trigger(self.set, &instance, &mut |t| {
            if seen.insert(t.key(self.set.tgd(t.tgd))) {
                queue.push_back(t);
            }
            ControlFlow::Continue(())
        });

        let mut steps = 0usize;
        while let Some(trigger) = self.pop(&mut queue, &mut rng) {
            if !seed_is_active(&trigger, self.set, &instance) {
                continue;
            }
            if steps >= budget.max_steps || instance.len() >= budget.max_atoms {
                queue.push_front(trigger);
                return ChaseRun {
                    outcome: Outcome::BudgetExhausted,
                    instance,
                    steps,
                    derivation: Derivation::default(),
                };
            }
            let tgd = self.set.tgd(trigger.tgd);
            let added = trigger.result(tgd, &mut skolem);
            let mut new_slots = Vec::with_capacity(added.len());
            for atom in added {
                let (slot, fresh) = instance.insert(atom);
                if fresh {
                    new_slots.push(slot);
                }
            }
            steps += 1;
            for slot in new_slots {
                let _ = seed_for_each_trigger_using(self.set, &instance, slot, &mut |t| {
                    if seen.insert(t.key(self.set.tgd(t.tgd))) {
                        queue.push_back(t);
                    }
                    ControlFlow::Continue(())
                });
            }
        }
        ChaseRun {
            outcome: Outcome::Terminated,
            instance,
            steps,
            derivation: Derivation::default(),
        }
    }
}

/// The frozen oblivious/semi-oblivious engine (see module docs).
#[derive(Debug, Clone)]
pub struct SeedObliviousChase<'a> {
    set: &'a TgdSet,
    policy: SkolemPolicy,
}

impl<'a> SeedObliviousChase<'a> {
    /// Creates a seed engine running the (fully) oblivious chase.
    pub fn new(set: &'a TgdSet) -> Self {
        SeedObliviousChase {
            set,
            policy: SkolemPolicy::PerTrigger,
        }
    }

    /// Switches to the semi-oblivious chase.
    pub fn semi_oblivious(mut self) -> Self {
        self.policy = SkolemPolicy::PerFrontier;
        self
    }

    /// Runs the frozen oblivious chase on `database` within `budget`.
    pub fn run(&self, database: &Instance, budget: Budget) -> ObliviousRun {
        let mut instance = database.clone();
        let mut skolem = SkolemTable::above(
            self.policy,
            instance.iter().flat_map(|a| a.args.iter().copied()),
        );
        let mut queue: VecDeque<Trigger> = VecDeque::new();
        let mut applied = fx_set();

        let key = |t: &Trigger, set: &TgdSet, policy: SkolemPolicy| {
            let tgd = set.tgd(t.tgd);
            match policy {
                SkolemPolicy::PerTrigger => t.key(tgd),
                SkolemPolicy::PerFrontier => (
                    t.tgd,
                    tgd.frontier()
                        .iter()
                        // invariant: a trigger's binding covers every
                        // body variable; the frontier is a subset.
                        .map(|&v| t.binding.get(v).expect("frontier bound"))
                        .collect(),
                ),
            }
        };

        let _ = seed_for_each_trigger(self.set, &instance, &mut |t| {
            if applied.insert(key(&t, self.set, self.policy)) {
                queue.push_back(t);
            }
            ControlFlow::Continue(())
        });

        let mut steps = 0usize;
        while let Some(trigger) = queue.pop_front() {
            if steps >= budget.max_steps || instance.len() >= budget.max_atoms {
                return ObliviousRun {
                    outcome: Outcome::BudgetExhausted,
                    instance,
                    steps,
                };
            }
            let tgd = self.set.tgd(trigger.tgd);
            let added = trigger.result(tgd, &mut skolem);
            steps += 1;
            let mut new_slots = Vec::new();
            for atom in added {
                let (slot, fresh) = instance.insert(atom);
                if fresh {
                    new_slots.push(slot);
                }
            }
            for slot in new_slots {
                let _ = seed_for_each_trigger_using(self.set, &instance, slot, &mut |t| {
                    if applied.insert(key(&t, self.set, self.policy)) {
                        queue.push_back(t);
                    }
                    ControlFlow::Continue(())
                });
            }
        }
        ObliviousRun {
            outcome: Outcome::Terminated,
            instance,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oblivious::ObliviousChase;
    use crate::restricted::RestrictedChase;
    use chase_core::parser::parse_program;
    use chase_core::vocab::Vocabulary;

    #[test]
    fn seed_and_optimised_restricted_agree() {
        let src = "
            R(a,b). R(b,c). R(c,a).
            R(x,y), R(y,z) -> exists w. R(z,w).
            R(x,y) -> S(y).
            S(x) -> exists u. T(x,u).
        ";
        let mut vocab = Vocabulary::new();
        let p = parse_program(src, &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        for strategy in [
            Strategy::Fifo,
            Strategy::Lifo,
            Strategy::Random(3),
            Strategy::PriorityTgd,
        ] {
            let budget = Budget::steps(60);
            let seed = SeedRestrictedChase::new(&set)
                .strategy(strategy)
                .run(&p.database, budget);
            let opt = RestrictedChase::new(&set)
                .strategy(strategy)
                .run(&p.database, budget);
            assert_eq!(seed.outcome, opt.outcome, "{strategy:?}");
            assert_eq!(seed.steps, opt.steps, "{strategy:?}");
            assert_eq!(seed.instance, opt.instance, "{strategy:?}");
        }
    }

    #[test]
    fn seed_and_optimised_oblivious_agree() {
        let src = "
            R(a,b). R(b,c).
            R(x,y) -> exists z. S(y,z).
            S(u,v) -> exists w. R(v,w).
        ";
        let mut vocab = Vocabulary::new();
        let p = parse_program(src, &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        for semi in [false, true] {
            let budget = Budget::steps(90);
            let seed_engine = SeedObliviousChase::new(&set);
            let seed_engine = if semi {
                seed_engine.semi_oblivious()
            } else {
                seed_engine
            };
            let opt_engine = ObliviousChase::new(&set);
            let opt_engine = if semi {
                opt_engine.semi_oblivious()
            } else {
                opt_engine
            };
            let seed = seed_engine.run(&p.database, budget);
            let opt = opt_engine.run(&p.database, budget);
            assert_eq!(seed.outcome, opt.outcome, "semi={semi}");
            assert_eq!(seed.steps, opt.steps, "semi={semi}");
            assert_eq!(seed.instance, opt.instance, "semi={semi}");
        }
    }
}

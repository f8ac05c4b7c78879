//! Exhaustive exploration of the *derivation space*: `CT^res_∀∀`
//! quantifies over every restricted chase derivation, not just the
//! FIFO one, and derivation order genuinely matters — e.g. with
//! `{ P(x,y) → P(y,x),  P(x,y) → ∃z P(z,x) }` the FIFO chase
//! terminates on every database (the swap deactivates the recursion)
//! while the derivation that only ever applies the second rule runs
//! for ever. This module provides:
//!
//! * [`all_orders_terminate`] — a sound *termination-for-all-orders*
//!   proof by memoised DFS over reachable instances (states are
//!   canonicalised up to null renaming);
//! * [`diverging_subset_run`] — a sound *non-termination* detector
//!   that replays the chase restricted to rule subsets: any infinite
//!   (possibly unfair) derivation using only a subset of the rules is
//!   an infinite derivation of the full set, and by the Fairness
//!   Theorem a fair one then exists too.

use chase_core::atom::Atom;
use chase_core::ids::{fx_map, fx_set, FxHashMap, NullId};
use chase_core::instance::Instance;
use chase_core::term::Term;
use chase_core::tgd::{Tgd, TgdSet};
use chase_core::vocab::Vocabulary;
use chase_engine::restricted::{Budget, Outcome, RestrictedChase, Strategy};
use chase_engine::skolem::{SkolemPolicy, SkolemTable};
use chase_engine::trigger::active_triggers;

/// A canonical fingerprint of an instance up to null renaming: atoms
/// are sorted, then nulls renumbered by first occurrence, then sorted
/// again (one refinement round is enough in practice; imperfect
/// canonicalisation only weakens memoisation, never soundness).
fn canonical_key(instance: &Instance) -> Vec<Atom> {
    let mut atoms: Vec<Atom> = instance.iter().map(|a| a.to_atom()).collect();
    atoms.sort();
    let mut rename: FxHashMap<NullId, NullId> = fx_map();
    let mut next = 0u32;
    let mut renamed: Vec<Atom> = atoms
        .iter()
        .map(|a| {
            Atom::new(
                a.pred,
                a.args
                    .iter()
                    .map(|&t| match t {
                        Term::Null(n) => {
                            let m = *rename.entry(n).or_insert_with(|| {
                                let m = NullId(next);
                                next += 1;
                                m
                            });
                            Term::Null(m)
                        }
                        other => other,
                    })
                    .collect::<chase_core::atom::ArgVec>(),
            )
        })
        .collect();
    renamed.sort();
    renamed
}

/// Resource limits for the derivation-space search.
#[derive(Debug, Clone, Copy)]
pub struct OrderSearchLimits {
    /// Maximum distinct (canonicalised) instances to visit.
    pub max_states: usize,
    /// Maximum derivation depth.
    pub max_depth: usize,
}

impl Default for OrderSearchLimits {
    fn default() -> Self {
        OrderSearchLimits {
            max_states: 20_000,
            max_depth: 64,
        }
    }
}

/// Explores every restricted chase derivation from `database` (up to
/// instance isomorphism). Returns `Some(true)` if every branch reaches
/// a trigger-free instance, `Some(false)` if some branch exceeds
/// `max_depth` (strong evidence of divergence — the caller should
/// confirm with a replay), and `None` if the state cap is hit.
pub fn all_orders_terminate(
    set: &TgdSet,
    database: &Instance,
    limits: OrderSearchLimits,
) -> Option<bool> {
    let mut done = fx_set();
    let mut visited = 0usize;
    // Iterative DFS over (instance, depth).
    let mut stack: Vec<(Instance, usize)> = vec![(database.clone(), 0)];
    while let Some((instance, depth)) = stack.pop() {
        let key = canonical_key(&instance);
        if !done.insert(key) {
            continue;
        }
        visited += 1;
        if visited > limits.max_states {
            return None;
        }
        if depth >= limits.max_depth {
            return Some(false);
        }
        let mut skolem = SkolemTable::above(
            SkolemPolicy::PerTrigger,
            instance.iter().flat_map(|a| a.args.iter().copied()),
        );
        for trigger in active_triggers(set, &instance) {
            let mut child = instance.clone();
            for atom in trigger.result(set.tgd(trigger.tgd), &mut skolem) {
                child.insert(atom);
            }
            stack.push((child, depth + 1));
        }
    }
    Some(true)
}

/// Runs the FIFO restricted chase from `database` using every rule
/// subset of size ≤ 2 plus the full set; returns the first subset
/// whose chase exhausts the budget (an infinite unfair derivation of
/// the full set), together with its run (whose step log is against
/// the subset's TGD identifiers).
pub fn diverging_subset_run(
    set: &TgdSet,
    vocab: &Vocabulary,
    database: &Instance,
    budget: Budget,
) -> Option<(Vec<usize>, chase_engine::restricted::ChaseRun)> {
    let n = set.len();
    let mut subsets: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        subsets.push(vec![i]);
    }
    for i in 0..n {
        for j in (i + 1)..n {
            subsets.push(vec![i, j]);
        }
    }
    subsets.push((0..n).collect());
    for subset in subsets {
        let tgds: Vec<Tgd> = subset.iter().map(|&i| set.tgds()[i].clone()).collect();
        let Ok(sub_set) = TgdSet::new(tgds, vocab) else {
            continue;
        };
        let run = RestrictedChase::new(&sub_set)
            .strategy(Strategy::Fifo)
            .run(database, budget);
        if run.outcome == Outcome::BudgetExhausted {
            return Some((subset, run));
        }
    }
    None
}

/// Translates a derivation recorded against a rule subset back to the
/// full set's TGD identifiers, so it validates against the full set.
pub fn relabel_subset_derivation(
    subset: &[usize],
    derivation: &chase_engine::derivation::Derivation,
) -> chase_engine::derivation::Derivation {
    use chase_core::tgd::TgdId;
    chase_engine::derivation::Derivation {
        steps: derivation
            .steps
            .iter()
            .map(|s| chase_engine::derivation::Step {
                trigger: chase_engine::trigger::Trigger {
                    tgd: TgdId(subset[s.trigger.tgd.index()] as u32),
                    binding: s.trigger.binding.clone(),
                },
                added: s.added.clone(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_program;

    /// The order-dependence witness that broke the naive linear
    /// decider: FIFO terminates everywhere, a σ1-only derivation
    /// diverges.
    const ORDER_DEPENDENT: &str = "
        P(x,y) -> P(y,x).
        P(u,v) -> exists z. P(z,u).
    ";

    #[test]
    fn fifo_termination_is_not_all_orders_termination() {
        let mut vocab = Vocabulary::new();
        let program = parse_program(&format!("{ORDER_DEPENDENT} P(a,b)."), &mut vocab).unwrap();
        let set = program.tgd_set(&vocab).unwrap();
        let fifo = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&program.database, Budget::steps(5_000));
        assert_eq!(fifo.outcome, Outcome::Terminated);
        // But the derivation space contains a diverging branch:
        assert_eq!(
            all_orders_terminate(&set, &program.database, OrderSearchLimits::default()),
            Some(false)
        );
        // ...witnessed concretely by the σ1-only subset run.
        let (subset, run) =
            diverging_subset_run(&set, &vocab, &program.database, Budget::steps(100))
                .expect("diverging subset");
        assert_eq!(subset, vec![1]);
        let sub_set = TgdSet::new(vec![set.tgds()[1].clone()], &vocab).unwrap();
        let relabelled = relabel_subset_derivation(&subset, &run.derivation(&sub_set));
        relabelled
            .validate(&program.database, &set, false)
            .expect("subset derivation is a valid unfair derivation of the full set");
    }

    #[test]
    fn truly_terminating_sets_pass_all_orders() {
        let mut vocab = Vocabulary::new();
        let program = parse_program(
            "R(a,b).
             R(x,y) -> exists z. R(x,z).
             R(u,v) -> R(v,u).",
            &mut vocab,
        )
        .unwrap();
        let set = program.tgd_set(&vocab).unwrap();
        assert_eq!(
            all_orders_terminate(&set, &program.database, OrderSearchLimits::default()),
            Some(true)
        );
        assert!(
            diverging_subset_run(&set, &vocab, &program.database, Budget::steps(500)).is_none()
        );
    }

    #[test]
    fn canonical_key_identifies_null_renamings() {
        let mut vocab = Vocabulary::new();
        let p = vocab.pred("P", 2).unwrap();
        let a = Term::Const(vocab.constant("a"));
        let i1 = Instance::from_atoms([
            Atom::new(p, vec![a, Term::Null(NullId(5))]),
            Atom::new(p, vec![Term::Null(NullId(5)), Term::Null(NullId(9))]),
        ]);
        let i2 = Instance::from_atoms([
            Atom::new(p, vec![a, Term::Null(NullId(0))]),
            Atom::new(p, vec![Term::Null(NullId(0)), Term::Null(NullId(77))]),
        ]);
        assert_eq!(canonical_key(&i1), canonical_key(&i2));
    }

    #[test]
    fn state_cap_yields_none() {
        let mut vocab = Vocabulary::new();
        let program = parse_program("R(a,b). R(x,y) -> exists z. R(y,z).", &mut vocab).unwrap();
        let set = program.tgd_set(&vocab).unwrap();
        // Divergence reported as Some(false) via the depth bound.
        assert_eq!(
            all_orders_terminate(
                &set,
                &program.database,
                OrderSearchLimits {
                    max_states: 10_000,
                    max_depth: 20
                }
            ),
            Some(false)
        );
    }
}

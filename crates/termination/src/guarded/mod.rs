//! The guarded decision procedure (Section 5), with the documented
//! substitution of DESIGN.md §4.2 for the final MSOL step.
//!
//! Faithfully implemented: sideatom types ([`sideatom`]), abstract
//! join trees and their `Δ(T)` semantics ([`ajt`]), and the
//! treeification machinery — remote-side-parent situations, the
//! longs-for relation and the acyclic database construction
//! ([`treeify`]).
//!
//! The MSOL-satisfiability emptiness check is replaced by a two-sided
//! certificate-producing portfolio ([`decide_guarded`]):
//!
//! * **Termination provers** (each sound): never-active-TGD
//!   elimination, full-TGD sets, weak acyclicity, joint acyclicity,
//!   semi-oblivious termination on the critical database.
//! * **Non-termination detector** (sound): one FIFO restricted chase
//!   per seed of a family of *acyclic seed databases* (Theorem 5.5
//!   justifies acyclic seeds) — canonical bodies, longs-for-glued
//!   canonical bodies, and the critical database — looking for a
//!   repeating guard-path signature; every positive answer ships a
//!   prefix of that run, replay-validated by `Derivation::validate`.
//! * Otherwise: an honest `Unknown`.

pub mod ajt;
pub mod ajt_chaseable;
pub mod sideatom;
pub mod treeify;

use chase_core::eqtype::EqType;
use chase_core::instance::Instance;
use chase_core::subst::Binding;
use chase_core::tgd::{TgdId, TgdSet};
use chase_core::vocab::Vocabulary;
use chase_engine::critical::critical_database;
use chase_engine::derivation::Step;
use chase_engine::governor::ResourceGovernor;
use chase_engine::restricted::{Budget, Outcome, RestrictedChase, Strategy};
use chase_telemetry::{emit, names, time_phase, ChaseObserver, Event, NullObserver};
use tgd_classes::baselines::{semi_oblivious_critical_governed, CriterionOutcome};
use tgd_classes::guarded::guard_index;
use tgd_classes::weakly_acyclic::is_weakly_acyclic;

use crate::common::{
    DeciderConfig, NonTerminationWitness, TerminationCertificate, TerminationVerdict,
};

/// Removes TGDs that can never fire in a restricted chase: a TGD whose
/// head maps homomorphically into its own body fixing the frontier
/// variables is satisfied by every instance containing a body match,
/// so none of its triggers is ever active. Iterates to fixpoint
/// (removal never enables another TGD, but this is cheap and safe).
pub fn drop_never_active(set: &TgdSet, vocab: &Vocabulary) -> TgdSet {
    let kept: Vec<_> = set
        .tgds()
        .iter()
        .filter(|tgd| !head_subsumed_by_body(tgd))
        .cloned()
        .collect();
    TgdSet::new(kept, vocab).expect("subset of a valid set is valid")
}

/// Whether `head(σ)` maps into `body(σ)` by a homomorphism that is the
/// identity on `fr(σ)` — the never-active criterion.
fn head_subsumed_by_body(tgd: &chase_core::tgd::Tgd) -> bool {
    use chase_core::term::Term;
    let Some(head) = tgd.single_head() else {
        return false;
    };
    // Try every body atom with the same predicate as a target.
    'target: for atom in tgd.body() {
        if atom.pred != head.pred {
            continue;
        }
        let mut map: Vec<(chase_core::ids::VarId, Term)> = Vec::new();
        for (p, t) in head.args.iter().enumerate() {
            let Term::Var(v) = *t else { continue 'target };
            let dst = atom.args[p];
            if tgd.is_frontier(v) && dst != Term::Var(v) {
                continue 'target;
            }
            match map.iter().find(|(w, _)| *w == v) {
                Some(&(_, d)) if d != dst => continue 'target,
                Some(_) => {}
                None => map.push((v, dst)),
            }
        }
        return true;
    }
    false
}

/// Builds the acyclic seed family for the non-termination search:
/// canonical bodies of every TGD, longs-for-glued pairs of canonical
/// bodies (Section 5.2's remote-side-parent idea), and the critical
/// database. At most `max_seeds` seeds; the critical database is
/// always the last one (when `max_seeds >= 1`).
pub fn acyclic_seeds(set: &TgdSet, vocab: &mut Vocabulary, max_seeds: usize) -> Vec<Instance> {
    use chase_core::term::Term;
    // Canonical binding and body of each TGD: freeze each body
    // variable to a fresh constant.
    let (bindings, canonical): (Vec<Binding>, Vec<Instance>) = set
        .tgds()
        .iter()
        .enumerate()
        .map(|(i, tgd)| {
            let mut binding = Binding::new();
            for (k, &v) in tgd.body_vars().iter().enumerate() {
                binding.push(v, Term::Const(vocab.constant(&format!("⋆s{i}_{k}"))));
            }
            let body = Instance::from_atoms(tgd.body().iter().map(|a| binding.apply_atom(a)));
            (binding, body)
        })
        .unzip();
    let cap = max_seeds.saturating_sub(1);
    let mut seeds = canonical.clone();
    // Longs-for gluing: if a side atom of σ has the predicate of
    // σ''s head, σ's offspring may need σ''s offspring as a remote
    // side-parent; seed with the union of both canonical bodies, the
    // side atom unified with σ''s produced head pattern where
    // possible (frontier positions only; existential positions keep
    // σ's constants).
    'glue: for (i, tgd) in set.tgds().iter().enumerate() {
        let Some(gi) = guard_index(tgd) else { continue };
        for (k, side) in tgd.body().iter().enumerate() {
            if k == gi {
                continue;
            }
            for (j, producer) in set.tgds().iter().enumerate() {
                if seeds.len() >= cap {
                    break 'glue;
                }
                let Some(head) = producer.single_head() else {
                    continue;
                };
                if head.pred != side.pred || i == j {
                    continue;
                }
                // Union of the two canonical bodies, then merge the
                // constants of `side` (in seed i) with the terms the
                // producer's head would carry (frontier positions take
                // the producer's canonical constants).
                let mut merged: Vec<chase_core::atom::Atom> = canonical[i]
                    .iter()
                    .chain(canonical[j].iter())
                    .map(|a| a.to_atom())
                    .collect();
                // Positionwise unification side ↔ head: where the
                // head has a frontier variable, rename the side's
                // constant to the producer's constant for it.
                let side_ground = bindings[i].apply_atom(side);
                let renames: Vec<(Term, Term)> = head
                    .args
                    .iter()
                    .zip(&side_ground.args)
                    .filter_map(|(&ht, &st)| match ht {
                        Term::Var(v) if producer.is_frontier(v) => {
                            bindings[j].get(v).map(|image| (st, image))
                        }
                        _ => None,
                    })
                    .collect();
                for atom in &mut merged {
                    for t in &mut atom.args {
                        if let Some(&(_, to)) = renames.iter().find(|&&(from, _)| from == *t) {
                            *t = to;
                        }
                    }
                }
                seeds.push(Instance::from_atoms(merged));
            }
        }
    }
    seeds.truncate(cap);
    seeds.push(critical_database(set, vocab));
    seeds.truncate(max_seeds);
    seeds
}

/// A guard-path signature: the data that must repeat along a guard
/// chain for the chase to be pumpable — which TGD fired and the
/// equality type of the produced atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PathSignature {
    tgd: TgdId,
    ty: EqType,
}

/// Looks for a repeated signature window along a guard-parent chain of
/// the derivation `steps` — evidence that the derivation is entering
/// a self-similar regime rather than merely being slow.
fn has_repeating_guard_path(set: &TgdSet, steps: &[Step]) -> bool {
    // For each step, its produced atom and the step producing its
    // guard-parent (or none if the guard-parent is a database atom).
    let mut producer: chase_core::ids::FxHashMap<chase_core::atom::Atom, usize> =
        chase_core::ids::fx_map();
    for (i, s) in steps.iter().enumerate() {
        for a in &s.added {
            producer.entry(a.clone()).or_insert(i);
        }
    }
    let guard_parent_step = |i: usize| -> Option<usize> {
        let s = &steps[i];
        let tgd = set.tgd(s.trigger.tgd);
        let gi = guard_index(tgd)?;
        let guard_atom = s.trigger.binding.apply_atom(&tgd.body()[gi]);
        producer.get(&guard_atom).copied().filter(|&j| j < i)
    };
    // Follow chains backwards from the last steps; look for a
    // signature period, up to 2·window, repeated 3 times along one
    // chain.
    let window = 1.max(set.len());
    for start in (steps.len().saturating_sub(8)..steps.len()).rev() {
        let mut chain = Vec::new();
        let mut cur = Some(start);
        while let Some(i) = cur {
            let s = &steps[i];
            chain.push(PathSignature {
                tgd: s.trigger.tgd,
                ty: EqType::of_atom(&s.added[0]),
            });
            cur = guard_parent_step(i);
            if chain.len() > 256 {
                break;
            }
        }
        if chain.len() < 3 * window {
            continue;
        }
        for period in 1..=(2 * window).min(chain.len() / 3) {
            let a = &chain[0..period];
            let b = &chain[period..2 * period];
            let c = &chain[2 * period..3 * period];
            if a == b && b == c {
                return true;
            }
        }
    }
    false
}

/// Decides `CT^res_∀∀` for a single-head guarded TGD set with the
/// portfolio described in the module docs. Exact on the repository's
/// labelled suite; `Unknown` when neither side concludes.
pub fn decide_guarded(
    set: &TgdSet,
    vocab: &Vocabulary,
    config: &DeciderConfig,
) -> TerminationVerdict {
    decide_guarded_observed(set, vocab, config, &mut NullObserver)
}

/// [`decide_guarded`], streaming telemetry to `obs`: a
/// `guarded.provers` phase span around the termination provers, a
/// `guarded.seed_search` span around the non-termination detector
/// (whose internal restricted-chase runs stream their own trigger and
/// queue events), and the number of seeds actually chased on the
/// `guarded.seeds_tried` counter.
///
/// Every internal chase runs under the config's deadline and
/// cancellation; an interrupted chase yields an `Unknown` whose reason
/// starts with `"deadline exceeded"` or `"cancelled"`, never a verdict.
pub fn decide_guarded_observed<O: ChaseObserver + ?Sized>(
    set: &TgdSet,
    vocab: &Vocabulary,
    config: &DeciderConfig,
    obs: &mut O,
) -> TerminationVerdict {
    decide_guarded_governed(set, vocab, config, &config.governor(), obs)
}

/// [`decide_guarded_observed`] under `gov`, the deadline and
/// cancellation of an enclosing `decide` (its budget is ignored: each
/// chase gets its own from `config`).
pub(crate) fn decide_guarded_governed<O: ChaseObserver + ?Sized>(
    set: &TgdSet,
    vocab: &Vocabulary,
    config: &DeciderConfig,
    gov: &ResourceGovernor,
    obs: &mut O,
) -> TerminationVerdict {
    let budgeted = |n: usize| gov.clone().with_budget(Budget::steps(n));
    if let Err(e) = set.require_single_head() {
        return TerminationVerdict::Unknown {
            reason: format!("not single-head: {e}"),
        };
    }
    let mut scratch = vocab.clone();

    // ── Termination provers ───────────────────────────────────────
    let proved = time_phase(obs, "guarded.provers", |_| {
        let simplified = drop_never_active(set, vocab);
        if simplified
            .tgds()
            .iter()
            .all(|t| t.existentials().is_empty())
        {
            // Full TGDs only: the chase stays inside the active domain.
            return Some(TerminationVerdict::AllInstancesTerminating(
                TerminationCertificate::ExhaustedSearch { seeds: 0 },
            ));
        }
        if is_weakly_acyclic(&simplified, vocab) {
            return Some(TerminationVerdict::AllInstancesTerminating(
                TerminationCertificate::WeaklyAcyclic,
            ));
        }
        if tgd_classes::jointly_acyclic::is_jointly_acyclic(&simplified) {
            return Some(TerminationVerdict::AllInstancesTerminating(
                TerminationCertificate::JointlyAcyclic,
            ));
        }
        match semi_oblivious_critical_governed(
            &simplified,
            &mut scratch,
            &budgeted(config.chase_budget),
        ) {
            CriterionOutcome::Holds { steps } => Some(TerminationVerdict::AllInstancesTerminating(
                TerminationCertificate::SemiObliviousCritical { steps },
            )),
            CriterionOutcome::Interrupted(outcome) => Some(TerminationVerdict::interrupted(
                outcome,
                "during the guarded provers",
            )),
            CriterionOutcome::BudgetExhausted => None,
        }
    });
    if let Some(verdict) = proved {
        return verdict;
    }

    // ── Non-termination detector over acyclic seeds ───────────────
    time_phase(obs, "guarded.seed_search", |obs| {
        let seeds = acyclic_seeds(set, &mut scratch, config.max_seeds);
        let engine = RestrictedChase::new(set).strategy(Strategy::Fifo);
        // One FIFO run per seed. FIFO is deterministic and a run stops
        // on budget only at exactly its step cap, so a shorter run from
        // the same seed is a prefix of this one: the repetition search
        // reads the first `horizon` steps, and the witness is the first
        // `witness_steps`.
        let horizon = 2 * (config.chase_budget / 4);
        let run_gov = budgeted(horizon.max(config.witness_steps));
        for seed in &seeds {
            emit(obs, || Event::CounterAdd {
                name: names::GUARDED_SEEDS,
                delta: 1,
            });
            let mut run = engine.run_governed(seed, &run_gov, obs, None);
            if run.outcome.is_interrupted() {
                return TerminationVerdict::interrupted(
                    run.outcome,
                    "during the guarded seed search",
                );
            }
            if run.outcome == Outcome::Terminated && run.steps <= horizon {
                continue;
            }
            if has_repeating_guard_path(set, &run.derivation.steps[..horizon]) {
                run.derivation.steps.truncate(config.witness_steps);
                if run.derivation.validate(seed, set, false).is_ok() {
                    return TerminationVerdict::NonTerminating(Box::new(NonTerminationWitness {
                        database: seed.clone(),
                        derivation: run.derivation,
                        description: "guarded seed chase with repeating guard-path signature"
                            .to_string(),
                        finitary: true,
                    }));
                }
            }
        }
        TerminationVerdict::Unknown {
            reason: format!(
                "guarded portfolio inconclusive: {} acyclic seeds terminated within budget {} \
                 and no pumpable guard path was found",
                seeds.len(),
                config.chase_budget
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_tgds;

    fn verdict(src: &str) -> TerminationVerdict {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(src, &mut vocab).unwrap();
        decide_guarded(&set, &vocab, &DeciderConfig::default())
    }

    #[test]
    fn intro_left_recursion_terminates() {
        assert!(verdict("R(x,y) -> exists z. R(x,z).").is_terminating());
    }

    #[test]
    fn right_recursion_diverges() {
        let v = verdict("R(x,y) -> exists z. R(y,z).");
        assert!(v.is_non_terminating(), "{v:?}");
    }

    #[test]
    fn example_5_6_diverges() {
        // Needs the side atom T(y): the canonical body of σ2 provides
        // it, launching the P-chain.
        let v = verdict(
            "S(x1,y1) -> T(x1).
             R(x2,y2), T(y2) -> P(x2,y2).
             P(x3,y3) -> exists z3. P(y3,z3).",
        );
        assert!(v.is_non_terminating(), "{v:?}");
        if let TerminationVerdict::NonTerminating(w) = v {
            assert!(w.derivation.len() >= 16);
        }
    }

    #[test]
    fn full_guarded_set_terminates() {
        assert!(verdict("E(x,y), F(y) -> G(x). G(x) -> H(x).").is_terminating());
    }

    #[test]
    fn never_active_elimination_proves_termination() {
        // σ1's head R(x,z) folds into its own body R(x,y) fixing the
        // frontier {x}; σ2 is full. Neither WA nor the semi-oblivious
        // criterion applies to the raw set.
        let v = verdict(
            "R(x,y) -> exists z. R(x,z).
             R(u,v) -> R(v,u).",
        );
        assert!(v.is_terminating(), "{v:?}");
    }

    #[test]
    fn guarded_two_rule_loop_diverges() {
        let v = verdict(
            "A(x) -> exists y. B(x,y).
             B(u,v) -> A(v).",
        );
        assert!(v.is_non_terminating(), "{v:?}");
    }

    #[test]
    fn weakly_acyclic_data_exchange_terminates() {
        let v = verdict(
            "Emp(e,d) -> exists m. Mgr(d,m).
             Mgr(d,m) -> InDept(m,d).",
        );
        assert!(v.is_terminating(), "{v:?}");
    }

    #[test]
    fn multi_head_refused() {
        let v = verdict("R(x,y) -> S(x), T(y).");
        assert!(v.is_unknown());
    }

    #[test]
    fn critical_database_is_the_last_seed_of_an_overflowing_family() {
        // Eleven canonical bodies plus ten glued pairs (each side atom
        // T(y) is produced by the last rule) overflow 16 seeds.
        let mut src: String = (0..10)
            .map(|i| format!("R{i}(x,y), T(y) -> exists z. R{i}(y,z).\n"))
            .collect();
        src.push_str("S(x,y) -> T(x).");
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(&src, &mut vocab).unwrap();
        for max_seeds in [1, 11, 16, 64] {
            let seeds = acyclic_seeds(&set, &mut vocab, max_seeds);
            assert_eq!(seeds.len(), max_seeds.min(22), "max_seeds {max_seeds}");
            let critical = critical_database(&set, &mut vocab);
            assert!(seeds.last() == Some(&critical), "max_seeds {max_seeds}");
        }
    }

    #[test]
    fn drop_never_active_keeps_live_rules() {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(
            "R(x,y) -> exists z. R(x,z).
             R(u,v) -> exists w. R(v,w).",
            &mut vocab,
        )
        .unwrap();
        let s = drop_never_active(&set, &vocab);
        // σ1 folds into its body; σ2 does not (frontier v moves).
        assert_eq!(s.len(), 1);
    }
}

//! Realising an accepting lasso of the caterpillar automaton as a
//! concrete non-termination witness: a finite database plus a long,
//! replay-validated restricted chase derivation.
//!
//! This is the executable counterpart of Sections 6.4 (finitary
//! caterpillars via unifying functions) and the (2) ⇒ (1) direction of
//! Theorem 6.5. The lasso `u·vᵚ` describes the canonical free
//! caterpillar; we instantiate `|u| + k·|v|` steps of it, unifying the
//! leg terms of successive cycle iterations through two alternating
//! pools (the parity trick behind Lemma D.5's `2m` fresh terms), and
//! then *replay* the resulting derivation with the real restricted
//! chase semantics — every trigger must be active when applied. A
//! witness is only ever reported after this validation succeeds.

use chase_core::atom::Atom;
use chase_core::ids::{fx_map, FxHashMap, VarId};
use chase_core::instance::Instance;
use chase_core::subst::Binding;
use chase_core::term::{NullFactory, Term};
use chase_core::tgd::TgdSet;
use chase_core::vocab::Vocabulary;
use chase_engine::derivation::{Derivation, Step};
use chase_engine::trigger::Trigger;

use chase_automata::buchi::{BuchiAutomaton, Lasso};

use crate::common::{DeciderConfig, NonTerminationWitness};
use crate::sticky::{CatState, CatSymbol, StickyAutomaton};

/// How leg terms of repeated cycle iterations are named.
#[derive(Clone, Copy, PartialEq)]
enum LegNaming {
    /// Two alternating pools: iteration `k` reuses the constants of
    /// iteration `k − 2`. Keeps the database finite — a finitary
    /// caterpillar realisation.
    ParityPools,
    /// Fresh constants per iteration; the database grows with the
    /// horizon. Fallback evidence if pooling breaks activeness.
    FreshEachIteration,
}

/// Tries to realise `lasso` from its start state; returns a validated
/// witness or `None` if the lasso does not run or does not replay.
pub fn realise(
    set: &TgdSet,
    vocab: &Vocabulary,
    automaton: &StickyAutomaton<'_>,
    lasso: &Lasso<CatState, CatSymbol>,
    config: &DeciderConfig,
) -> Option<NonTerminationWitness> {
    // 1. Check symbolically that the lasso runs from its start state.
    let mut state = lasso.start.clone();
    for sym in lasso.prefix.iter().chain(lasso.cycle.iter()) {
        state = automaton.next(&state, sym)?;
    }

    // 2. Realise concretely, preferring the finitary (pooled) naming.
    // Constants are allocated above the vocabulary's interned range so
    // they can never alias user constants (they render as ⟨cK⟩).
    let const_base = vocab.const_count() as u32;
    let iterations =
        (config.witness_steps.saturating_sub(lasso.prefix.len()) / lasso.cycle.len().max(1)).max(2);
    for naming in [LegNaming::ParityPools, LegNaming::FreshEachIteration] {
        if let Some((database, derivation)) =
            instantiate(set, lasso, iterations, naming, const_base)
        {
            if derivation.validate(&database, set, false).is_ok() {
                let description = describe(lasso, set, vocab);
                return Some(NonTerminationWitness {
                    database,
                    derivation,
                    description,
                    finitary: naming == LegNaming::ParityPools,
                });
            }
        }
    }
    None
}

/// Builds the concrete database and derivation for `|prefix| +
/// iterations·|cycle|` steps of the canonical free caterpillar.
fn instantiate(
    set: &TgdSet,
    lasso: &Lasso<CatState, CatSymbol>,
    iterations: usize,
    naming: LegNaming,
    const_base: u32,
) -> Option<(Instance, Derivation)> {
    // Structural constants c⟨base⟩, c⟨base+1⟩, ..., disjoint from the
    // vocabulary's interned range.
    let mut next_const = const_base;
    let mut fresh_const = move || {
        let c = Term::Const(chase_core::ids::ConstId(next_const));
        next_const += 1;
        c
    };
    let mut nulls = NullFactory::new();

    // α₀: one constant per class of the initial equality type.
    let init = &lasso.start;
    let class_count = init.is_const.len();
    let class_terms: Vec<Term> = (0..class_count).map(|_| fresh_const()).collect();
    let alpha0 = Atom::new(
        init.pred,
        init.classes
            .iter()
            .map(|&c| class_terms[c as usize])
            .collect::<chase_core::atom::ArgVec>(),
    );

    let mut database = Instance::new();
    database.insert(alpha0.clone());

    // Pooled leg constants: key = (cycle position, variable, parity).
    let mut pool: FxHashMap<(usize, VarId, usize), Term> = fx_map();

    let mut current = alpha0;
    let mut steps: Vec<Step> = Vec::new();
    let total = lasso.prefix.len() + iterations * lasso.cycle.len();
    for step_index in 0..total {
        let (sym, pool_key) = if step_index < lasso.prefix.len() {
            (&lasso.prefix[step_index], None)
        } else {
            let rel = step_index - lasso.prefix.len();
            let pos = rel % lasso.cycle.len();
            let iter = rel / lasso.cycle.len();
            let parity = match naming {
                LegNaming::ParityPools => iter % 2,
                LegNaming::FreshEachIteration => iter,
            };
            (&lasso.cycle[pos], Some((pos, parity)))
        };
        let tgd = set.tgd(sym.tgd);
        let gamma = &tgd.body()[sym.gamma];
        if gamma.pred != current.pred {
            return None;
        }
        // Bind γ-variables from the current atom.
        let mut binding = Binding::new();
        for (p, t) in gamma.args.iter().enumerate() {
            let v = t.as_var()?;
            match binding.get(v) {
                Some(b) if b != current.args[p] => return None,
                Some(_) => {}
                None => binding.push(v, current.args[p]),
            }
        }
        // Bind the remaining body variables to leg constants.
        for &v in tgd.body_vars() {
            if binding.get(v).is_some() {
                continue;
            }
            let term = match pool_key {
                Some((pos, parity)) => *pool
                    .entry((pos, v, parity))
                    .or_insert_with(&mut fresh_const),
                None => fresh_const(),
            };
            binding.push(v, term);
        }
        // Insert the leg atoms into the database.
        for (i, leg) in tgd.body().iter().enumerate() {
            if i == sym.gamma {
                continue;
            }
            let ground = binding.apply_atom(leg);
            if !ground.is_ground() {
                return None;
            }
            database.insert(ground);
        }
        // The result atom: frontier from the binding, existentials
        // fresh nulls (never pooled — the body B is genuinely infinite).
        let head = tgd.single_head()?;
        let mut null_of: Vec<(VarId, Term)> = Vec::new();
        let added = Atom::new(
            head.pred,
            head.args
                .iter()
                .map(|t| {
                    let v = t.as_var().expect("constant-free head");
                    if let Some(b) = binding.get(v) {
                        b
                    } else {
                        match null_of.iter().find(|(w, _)| *w == v) {
                            Some(&(_, n)) => n,
                            None => {
                                let n = Term::Null(nulls.fresh());
                                null_of.push((v, n));
                                n
                            }
                        }
                    }
                })
                .collect::<chase_core::atom::ArgVec>(),
        );
        steps.push(Step {
            trigger: Trigger {
                tgd: sym.tgd,
                binding,
            },
            added: vec![added.clone()],
        });
        current = added;
    }
    Some((database, Derivation { steps }))
}

/// Renders the lasso as `u · (v)ᵚ` with readable symbols.
fn describe(lasso: &Lasso<CatState, CatSymbol>, set: &TgdSet, vocab: &Vocabulary) -> String {
    let fmt = |sym: &CatSymbol| {
        let tgd = set.tgd(sym.tgd);
        let gamma = tgd.body()[sym.gamma].display(vocab);
        match sym.pass_on {
            Some(z) => format!("σ{}[γ={gamma}, pass ?{}]", sym.tgd.0, vocab.var_name(z)),
            None => format!("σ{}[γ={gamma}]", sym.tgd.0),
        }
    };
    let prefix: Vec<String> = lasso.prefix.iter().map(fmt).collect();
    let cycle: Vec<String> = lasso.cycle.iter().map(fmt).collect();
    format!(
        "caterpillar word: [{}] · ([{}])^ω",
        prefix.join(" "),
        cycle.join(" ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::TerminationVerdict;
    use crate::sticky::decide_sticky;
    use chase_core::parser::parse_tgds;
    use chase_engine::restricted::{Budget, Outcome, RestrictedChase, Strategy};

    fn witness_of(src: &str) -> NonTerminationWitness {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(src, &mut vocab).unwrap();
        match decide_sticky(&set, &vocab, &DeciderConfig::default()) {
            TerminationVerdict::NonTerminating(w) => *w,
            other => panic!("expected NonTerminating, got {other:?}"),
        }
    }

    #[test]
    fn witness_database_is_finite_and_ground() {
        let w = witness_of("R(x,y) -> exists z. R(y,z).");
        assert!(w.database.is_database() || w.database.iter().all(|a| a.is_ground()));
        assert!(w.database.len() <= 4);
        assert!(w.finitary);
        assert!(w.description.contains("caterpillar word"));
    }

    #[test]
    fn witness_replays_under_the_real_chase() {
        let w = witness_of(
            "T(x,y), U(x) -> exists z. V(x,y,z).
             V(u,v,w) -> T(u,w).",
        );
        // Independent cross-check: a FIFO restricted chase from the
        // witness database must blow through a generous budget.
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(
            "T(x,y), U(x) -> exists z. V(x,y,z).
             V(u,v,w) -> T(u,w).",
            &mut vocab,
        )
        .unwrap();
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&w.database, Budget::steps(500));
        assert_eq!(run.outcome, Outcome::BudgetExhausted);
    }

    #[test]
    fn witness_derivation_is_long_enough() {
        let w = witness_of("A(x,y) -> exists z. B(y,z). B(u,v) -> exists w. A(v,w).");
        assert!(w.derivation.len() >= DeciderConfig::default().witness_steps / 2);
    }
}

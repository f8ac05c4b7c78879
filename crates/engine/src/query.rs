//! Conjunctive queries over chase results: certain answers under TGDs —
//! query answering under constraints, one of the applications that the
//! paper's introduction cites as the reason for the chase's ubiquity.
//!
//! The procedure is *sound and complete when the chase terminates*:
//! the chase result is a universal model, so evaluating the CQ over it
//! and keeping the all-constant answers yields exactly the certain
//! answers.

use std::ops::ControlFlow;

use chase_core::atom::Atom;
use chase_core::hom::for_each_homomorphism;
use chase_core::ids::VarId;
use chase_core::instance::Instance;
use chase_core::subst::Binding;
use chase_core::term::Term;
use chase_core::tgd::TgdSet;

use crate::restricted::{Budget, Outcome, RestrictedChase, Strategy};

/// A conjunctive query `q(x̄) :- body`, with `x̄` the answer variables.
#[derive(Debug, Clone)]
pub struct ConjunctiveQuery {
    /// Body atoms (may contain variables only; CQs here are
    /// constant-free like TGDs — constants can be simulated with
    /// fresh unary predicates if needed).
    pub body: Vec<Atom>,
    /// The answer tuple, a list of body variables.
    pub answer_vars: Vec<VarId>,
}

/// Errors from chase-based query answering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The chase did not terminate within the budget; certain answers
    /// cannot be read off a partial chase (it under-approximates).
    ChaseBudgetExhausted,
    /// An answer variable does not occur in the query body.
    UnsafeAnswerVariable(VarId),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::ChaseBudgetExhausted => {
                write!(
                    f,
                    "restricted chase exhausted its budget; cannot certify answers"
                )
            }
            QueryError::UnsafeAnswerVariable(v) => {
                write!(f, "answer variable {v:?} does not occur in the query body")
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl ConjunctiveQuery {
    /// Builds a query, checking answer-variable safety.
    pub fn new(body: Vec<Atom>, answer_vars: Vec<VarId>) -> Result<Self, QueryError> {
        for &v in &answer_vars {
            let occurs = body.iter().any(|a| a.vars().any(|w| w == v));
            if !occurs {
                return Err(QueryError::UnsafeAnswerVariable(v));
            }
        }
        Ok(ConjunctiveQuery { body, answer_vars })
    }

    /// Re-checks answer-variable safety. [`ConjunctiveQuery::new`]
    /// establishes it, but `body` and `answer_vars` are public fields,
    /// so a hand-built or mutated query can violate it; the evaluation
    /// entry points re-validate instead of panicking mid-enumeration.
    fn check_safe(&self) -> Result<(), QueryError> {
        for &v in &self.answer_vars {
            if !self.body.iter().any(|a| a.vars().any(|w| w == v)) {
                return Err(QueryError::UnsafeAnswerVariable(v));
            }
        }
        Ok(())
    }

    /// All answers of the query over an instance (including answers
    /// containing nulls), deduplicated, in discovery order.
    ///
    /// Fails with [`QueryError::UnsafeAnswerVariable`] if the query
    /// was built by hand with an answer variable missing from the body.
    pub fn answers(&self, instance: &Instance) -> Result<Vec<Vec<Term>>, QueryError> {
        self.check_safe()?;
        let mut out: Vec<Vec<Term>> = Vec::new();
        let mut binding = Binding::new();
        let _ = for_each_homomorphism(&self.body, instance, &mut binding, |h| {
            let tuple: Vec<Term> = self
                .answer_vars
                .iter()
                // invariant: `check_safe` guaranteed every answer
                // variable occurs in the body, and a homomorphism of
                // the body binds every body variable.
                .filter_map(|&v| h.get(v))
                .collect();
            if tuple.len() == self.answer_vars.len() && !out.contains(&tuple) {
                out.push(tuple);
            }
            ControlFlow::Continue(())
        });
        Ok(out)
    }

    /// The *certain answers* of the query over `database` under `tgds`:
    /// chase to a universal model, evaluate, keep all-constant tuples.
    ///
    /// Requires the chase to terminate within `budget` (use the
    /// termination deciders up front to know it will, for every
    /// database).
    pub fn certain_answers(
        &self,
        database: &Instance,
        tgds: &TgdSet,
        budget: Budget,
    ) -> Result<Vec<Vec<Term>>, QueryError> {
        let run = RestrictedChase::new(tgds)
            .strategy(Strategy::Fifo)
            .run(database, budget);
        if run.outcome != Outcome::Terminated {
            return Err(QueryError::ChaseBudgetExhausted);
        }
        Ok(self
            .answers(&run.instance)?
            .into_iter()
            .filter(|tuple| tuple.iter().all(|t| t.is_const()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_program;
    use chase_core::tgd::RuleBuilder;
    use chase_core::vocab::Vocabulary;

    /// Builds a CQ from a rule-shaped source string: the head lists
    /// the answer variables, e.g. `R(x,y), S(y) -> Ans(x).`.
    fn cq(src: &str, vocab: &mut Vocabulary) -> ConjunctiveQuery {
        let p = chase_core::parser::parse_program(src, vocab).unwrap();
        let rule = &p.rules[0];
        ConjunctiveQuery::new(rule.body().to_vec(), rule.head()[0].vars().collect()).unwrap()
    }

    #[test]
    fn certain_answers_on_terminating_mapping() {
        let mut vocab = Vocabulary::new();
        let p = parse_program(
            "Emp(ann,cs). Emp(bob,math).
             Emp(e,d) -> exists m. Mgr(d,m).
             Emp(e,d), Mgr(d,m) -> Reports(e,m).",
            &mut vocab,
        )
        .unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        // q(e) :- Reports(e, m): who certainly reports to someone?
        let q = cq("Reports(e,m) -> Ans(e).", &mut vocab);
        let answers = q
            .certain_answers(&p.database, &set, Budget::steps(1_000))
            .unwrap();
        assert_eq!(answers.len(), 2);
        // q2(m) :- Reports(e, m): the managers are nulls — not certain.
        let q2 = cq("Reports(e,m) -> Ans(m).", &mut vocab);
        let answers2 = q2
            .certain_answers(&p.database, &set, Budget::steps(1_000))
            .unwrap();
        assert!(answers2.is_empty());
    }

    #[test]
    fn budget_exhaustion_is_an_error_not_an_answer() {
        let mut vocab = Vocabulary::new();
        let p = parse_program("R(a,b). R(x,y) -> exists z. R(y,z).", &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let q = cq("R(x,y) -> Ans(x).", &mut vocab);
        assert_eq!(
            q.certain_answers(&p.database, &set, Budget::steps(10)),
            Err(QueryError::ChaseBudgetExhausted)
        );
    }

    #[test]
    fn unsafe_answer_variable_rejected() {
        let mut vocab = Vocabulary::new();
        let mut b = RuleBuilder::new(&mut vocab);
        let (x, y) = (b.var("x"), b.var("y"));
        b.body("R", &[x, y]).unwrap();
        b.head("Ans", &[x]).unwrap();
        let rule = b.build().unwrap();
        let stray = vocab.fresh_var("stray");
        assert!(matches!(
            ConjunctiveQuery::new(rule.body().to_vec(), vec![stray]),
            Err(QueryError::UnsafeAnswerVariable(_))
        ));
    }

    #[test]
    fn hand_built_unsafe_query_errors_instead_of_panicking() {
        // `body`/`answer_vars` are public, so the safety invariant of
        // `new` can be bypassed; evaluation must fail cleanly.
        let mut vocab = Vocabulary::new();
        let p = parse_program("R(a,b).", &mut vocab).unwrap();
        let mut b = RuleBuilder::new(&mut vocab);
        let (x, y) = (b.var("x"), b.var("y"));
        b.body("R", &[x, y]).unwrap();
        b.head("Ans", &[x]).unwrap();
        let rule = b.build().unwrap();
        let stray = vocab.fresh_var("stray");
        let q = ConjunctiveQuery {
            body: rule.body().to_vec(),
            answer_vars: vec![stray],
        };
        assert_eq!(
            q.answers(&p.database),
            Err(QueryError::UnsafeAnswerVariable(stray))
        );
    }
}

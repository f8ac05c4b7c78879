//! The oblivious and semi-oblivious chase (Section 3.1).
//!
//! The oblivious chase applies every trigger — active or not — exactly
//! once; its result `I_{D,T}` is the unique ⊆-minimal instance
//! containing `D` closed under trigger applications. The semi-oblivious
//! variant identifies triggers that agree on the frontier. Both are
//! used as baselines (E1, E8, E9) and as the substrate of the
//! MFA-style termination check in `tgd-classes`.
//!
//! [`ObliviousChase`] is a builder over the one chase loop in
//! [`crate::restricted`]: it selects the oblivious or semi-oblivious
//! variant there, which skips the pop-time activeness check, keys
//! trigger fingerprints and nulls on the sorted body variables or on
//! the frontier, queues FIFO and records no derivation.

use chase_core::instance::Instance;
use chase_core::tgd::TgdSet;
use chase_telemetry::ChaseObserver;

use crate::governor::{Budget, ResourceGovernor};
use crate::restricted::{ChaseRun, RestrictedChase, Variant};
use crate::trigger::ChaseScratch;

/// A configured oblivious-chase engine.
#[derive(Debug, Clone)]
pub struct ObliviousChase<'a>(RestrictedChase<'a>);

impl<'a> ObliviousChase<'a> {
    /// Creates an engine running the (fully) oblivious chase.
    pub fn new(set: &'a TgdSet) -> Self {
        ObliviousChase(
            RestrictedChase::new(set)
                .variant(Variant::Oblivious)
                .record_derivation(false),
        )
    }

    /// Switches to the semi-oblivious chase (triggers and nulls keyed
    /// by the frontier).
    pub fn semi_oblivious(self) -> Self {
        ObliviousChase(self.0.variant(Variant::SemiOblivious))
    }

    /// Sets the step cadence of the profiling stream's periodic
    /// memory/heartbeat samples (see
    /// [`RestrictedChase::heartbeat_every`]).
    pub fn heartbeat_every(self, steps: u64) -> Self {
        ObliviousChase(self.0.heartbeat_every(steps))
    }

    /// Sets the step-span sampling cadence (see
    /// [`RestrictedChase::profile_sample_every`]).
    pub fn profile_sample_every(self, steps: u64) -> Self {
        ObliviousChase(self.0.profile_sample_every(steps))
    }

    /// Runs the chase on `database` within `budget`. A trigger
    /// `(σ, h)` is applied at most once; under the semi-oblivious
    /// policy triggers agreeing on `h|fr(σ)` are identified. The
    /// returned derivation is always empty.
    pub fn run(&self, database: &Instance, budget: Budget) -> ChaseRun {
        self.0.run(database, budget)
    }

    /// [`ObliviousChase::run`] streaming telemetry to `obs`; the stream
    /// never contains `trigger_checked`/`trigger_deactivated`.
    pub fn run_observed<O: ChaseObserver + ?Sized>(
        &self,
        database: &Instance,
        budget: Budget,
        obs: &mut O,
    ) -> ChaseRun {
        self.0.run_observed(database, budget, obs)
    }

    /// Runs the chase under a full [`ResourceGovernor`].
    pub fn run_governed(&self, database: &Instance, gov: &ResourceGovernor) -> ChaseRun {
        self.0.run_governed(database, gov)
    }

    /// See [`RestrictedChase::run_governed_observed`] (minus the
    /// `restriction_check` span).
    pub fn run_governed_observed<O: ChaseObserver + ?Sized>(
        &self,
        database: &Instance,
        gov: &ResourceGovernor,
        obs: &mut O,
    ) -> ChaseRun {
        self.0.run_governed_observed(database, gov, obs)
    }

    /// See [`RestrictedChase::run_governed_observed_in`].
    pub fn run_governed_observed_in<O: ChaseObserver + ?Sized>(
        &self,
        database: &Instance,
        gov: &ResourceGovernor,
        obs: &mut O,
        scratch: &mut ChaseScratch,
    ) -> ChaseRun {
        self.0.run_governed_observed_in(database, gov, obs, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::Outcome;
    use chase_core::hom::satisfies_all;
    use chase_core::parser::parse_program;
    use chase_core::vocab::Vocabulary;

    fn run_oblivious(src: &str, budget: Budget, semi: bool) -> (ChaseRun, TgdSet) {
        let mut vocab = Vocabulary::new();
        let p = parse_program(src, &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let engine = if semi {
            ObliviousChase::new(&set).semi_oblivious()
        } else {
            ObliviousChase::new(&set)
        };
        (engine.run(&p.database, budget), set)
    }

    #[test]
    fn intro_example_diverges_obliviously() {
        // The restricted chase performs 0 steps here; the oblivious
        // chase builds R(a,ν0), R(a,ν1), ... without bound (§1).
        let (run, _) = run_oblivious(
            "R(a,b). R(x,y) -> exists z. R(x,z).",
            Budget::steps(50),
            false,
        );
        assert_eq!(run.outcome, Outcome::BudgetExhausted);
        assert_eq!(run.instance.len(), 51);
    }

    #[test]
    fn full_tgds_reach_fixpoint() {
        let (run, set) = run_oblivious(
            "E(a,b). E(b,c). E(x,y), E(y,z) -> E(x,z).",
            Budget::steps(1000),
            false,
        );
        assert_eq!(run.outcome, Outcome::Terminated);
        assert!(satisfies_all(&run.instance, &set));
        // transitive closure of a 2-path: E(a,b), E(b,c), E(a,c)
        assert_eq!(run.instance.len(), 3);
    }

    #[test]
    fn oblivious_result_is_a_model_when_terminating() {
        let (run, set) = run_oblivious(
            "R(a,b). R(x,y) -> exists z. S(y,z). S(u,v) -> T(u).",
            Budget::steps(1000),
            false,
        );
        assert_eq!(run.outcome, Outcome::Terminated);
        assert!(satisfies_all(&run.instance, &set));
    }

    #[test]
    fn semi_oblivious_is_coarser() {
        // σ: R(x,y) -> exists z. S(x,z). Two triggers share frontier x=a:
        // the oblivious chase invents two nulls, the semi-oblivious one.
        let src = "R(a,b). R(a,c). R(x,y) -> exists z. S(x,z).";
        let (full, _) = run_oblivious(src, Budget::steps(100), false);
        let (semi, _) = run_oblivious(src, Budget::steps(100), true);
        assert_eq!(full.outcome, Outcome::Terminated);
        assert_eq!(semi.outcome, Outcome::Terminated);
        assert_eq!(full.instance.len(), 4); // 2 db + 2 S-atoms
        assert_eq!(semi.instance.len(), 3); // 2 db + 1 S-atom
    }

    #[test]
    fn oblivious_chase_is_deterministic() {
        // The oblivious chase result I_{D,T} is unique (Section 3.1):
        // two runs must produce identical instances, nulls included,
        // because null names are determined by the trigger (Def 3.1).
        let src = "
            R(a,b). R(b,c).
            R(x,y) -> exists z. S(y,z).
            S(u,v) -> exists w. R(v,w).
        ";
        let mut vocab = Vocabulary::new();
        let p = parse_program(src, &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let a = ObliviousChase::new(&set).run(&p.database, Budget::steps(200));
        let b = ObliviousChase::new(&set).run(&p.database, Budget::steps(200));
        assert_eq!(a.instance, b.instance);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn oblivious_contains_restricted_result() {
        use crate::restricted::{RestrictedChase, Strategy};
        let src = "
            R(a,b).
            R(x,y) -> exists z. S(y,z).
            S(x,y) -> T(x).
        ";
        let mut vocab = Vocabulary::new();
        let p = parse_program(src, &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let r = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&p.database, Budget::steps(1000));
        let o = ObliviousChase::new(&set).run(&p.database, Budget::steps(1000));
        // The restricted result maps homomorphically into the oblivious
        // chase (both are universal models here), and is no larger.
        assert!(r.instance.len() <= o.instance.len());
        assert!(chase_core::hom::ground_homomorphism_exists(
            &r.instance,
            &o.instance
        ));
    }
}

//! The oblivious and semi-oblivious chase (Section 3.1).
//!
//! The oblivious chase applies every trigger — active or not — exactly
//! once; its result `I_{D,T}` is the unique ⊆-minimal instance
//! containing `D` closed under trigger applications. The semi-oblivious
//! variant identifies triggers that agree on the frontier. Both are
//! used as baselines (E1, E8, E9) and as the substrate of the
//! MFA-style termination check in `tgd-classes`.
//!
//! Like [`crate::restricted`], the loop identifies triggers by packed
//! [`TriggerFp`] fingerprints (keyed on the frontier image under the
//! semi-oblivious policy) and enumerates deltas through a reused
//! [`HomScratch`](chase_core::hom::HomScratch).

use std::collections::VecDeque;
use std::ops::ControlFlow;

use chase_core::ids::{fx_set, VarId};
use chase_core::instance::Instance;
use chase_core::tgd::{Tgd, TgdSet};
use chase_telemetry::{
    emit, emit_detail, span_enter, span_enter_sampled, spans, ChaseObserver, EngineKind, Event,
    NullObserver, NO_TGD,
};

use crate::governor::{Budget, Outcome, ResourceGovernor};
use crate::profiling::{
    emit_profile_sample, DEFAULT_HEARTBEAT_EVERY, DEFAULT_PROFILE_SAMPLE_EVERY,
};
use crate::skolem::{SkolemPolicy, SkolemTable};
use crate::trigger::{
    for_each_trigger_using_with, for_each_trigger_with, ChaseScratch, Trigger, TriggerFp,
};

/// Which variable layout identifies a trigger fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FpVars {
    /// All body variables in sorted order (oblivious).
    SortedBody,
    /// Frontier variables only (semi-oblivious identification).
    Frontier,
}

impl FpVars {
    /// The identifying variable slice of `tgd` under this layout.
    #[inline]
    fn of(self, tgd: &Tgd) -> &[VarId] {
        match self {
            FpVars::SortedBody => tgd.sorted_body_vars(),
            FpVars::Frontier => tgd.frontier(),
        }
    }
}

/// The result of an oblivious chase run.
#[derive(Debug, Clone)]
pub struct ObliviousRun {
    /// Terminated (fixpoint) or out of budget.
    pub outcome: Outcome,
    /// The final instance.
    pub instance: Instance,
    /// Trigger applications performed (including ones that re-derived
    /// an existing atom).
    pub steps: usize,
}

/// A configured oblivious-chase engine.
#[derive(Debug, Clone)]
pub struct ObliviousChase<'a> {
    set: &'a TgdSet,
    policy: SkolemPolicy,
    heartbeat_every: u64,
    profile_sample_every: u64,
}

impl<'a> ObliviousChase<'a> {
    /// Creates an engine running the (fully) oblivious chase.
    pub fn new(set: &'a TgdSet) -> Self {
        ObliviousChase {
            set,
            policy: SkolemPolicy::PerTrigger,
            heartbeat_every: DEFAULT_HEARTBEAT_EVERY,
            profile_sample_every: DEFAULT_PROFILE_SAMPLE_EVERY,
        }
    }

    /// Switches to the semi-oblivious chase (nulls keyed by frontier).
    pub fn semi_oblivious(mut self) -> Self {
        self.policy = SkolemPolicy::PerFrontier;
        self
    }

    /// Sets the step cadence of the profiling stream's periodic
    /// memory/heartbeat samples (default 1024; see
    /// [`crate::restricted::RestrictedChase::heartbeat_every`]).
    pub fn heartbeat_every(mut self, steps: u64) -> Self {
        self.heartbeat_every = steps.max(1);
        self
    }

    /// Sets the step-span sampling cadence (default 16, step 0 always
    /// sampled; `1` spans every step — see
    /// [`crate::restricted::RestrictedChase::profile_sample_every`]).
    pub fn profile_sample_every(mut self, steps: u64) -> Self {
        self.profile_sample_every = steps.max(1);
        self
    }

    /// The fingerprint layout identifying triggers under the policy.
    fn fp_vars(&self) -> FpVars {
        match self.policy {
            SkolemPolicy::PerTrigger => FpVars::SortedBody,
            SkolemPolicy::PerFrontier => FpVars::Frontier,
        }
    }

    /// Runs the chase on `database` within `budget`.
    ///
    /// Trigger identity follows the paper: a trigger `(σ, h)` is
    /// applied at most once; under the semi-oblivious policy triggers
    /// agreeing on `h|fr(σ)` are identified.
    pub fn run(&self, database: &Instance, budget: Budget) -> ObliviousRun {
        self.run_observed(database, budget, &mut NullObserver)
    }

    /// Runs the chase, streaming telemetry [`Event`]s to `obs`. The
    /// oblivious chase performs no activeness checks, so the event
    /// stream never contains `trigger_checked`/`trigger_deactivated`.
    pub fn run_observed<O: ChaseObserver + ?Sized>(
        &self,
        database: &Instance,
        budget: Budget,
        obs: &mut O,
    ) -> ObliviousRun {
        self.run_governed_observed(database, &ResourceGovernor::from_budget(budget), obs)
    }

    /// Runs the chase under a full [`ResourceGovernor`] (budget +
    /// deadline + cancellation + fault plan).
    pub fn run_governed(&self, database: &Instance, gov: &ResourceGovernor) -> ObliviousRun {
        self.run_governed_observed(database, gov, &mut NullObserver)
    }

    /// [`ObliviousChase::run_governed`] with telemetry. The governor is
    /// polled before seed discovery and at the top of every queue
    /// iteration; an interrupted run emits one
    /// [`Event::RunInterrupted`] and returns the truthful partial
    /// result.
    ///
    /// A profiling observer additionally receives the span / memory /
    /// heartbeat stream (as in
    /// [`crate::restricted::RestrictedChase::run_governed_observed`],
    /// minus `restriction_check` — the oblivious chase performs no
    /// activeness checks).
    pub fn run_governed_observed<O: ChaseObserver + ?Sized>(
        &self,
        database: &Instance,
        gov: &ResourceGovernor,
        obs: &mut O,
    ) -> ObliviousRun {
        self.run_governed_observed_in(database, gov, obs, &mut ChaseScratch::default())
    }

    /// [`ObliviousChase::run_governed_observed`] borrowing the matcher
    /// arena from `scratch` (see
    /// [`crate::restricted::RestrictedChase::run_governed_observed_in`];
    /// the run is bit-identical either way).
    pub fn run_governed_observed_in<O: ChaseObserver + ?Sized>(
        &self,
        database: &Instance,
        gov: &ResourceGovernor,
        obs: &mut O,
        scratch: &mut ChaseScratch,
    ) -> ObliviousRun {
        let run_guard = span_enter(obs, spans::RUN, NO_TGD);
        let run = self.run_inner(database, gov, obs, scratch);
        run_guard.exit(obs);
        run
    }

    fn run_inner<O: ChaseObserver + ?Sized>(
        &self,
        database: &Instance,
        gov: &ResourceGovernor,
        obs: &mut O,
        scratch: &mut ChaseScratch,
    ) -> ObliviousRun {
        let run_start = (obs.enabled() && obs.profiling()).then(std::time::Instant::now);
        let engine_kind = match self.policy {
            SkolemPolicy::PerTrigger => EngineKind::Oblivious,
            SkolemPolicy::PerFrontier => EngineKind::SemiOblivious,
        };
        if let Some(outcome) = gov.interrupted(0) {
            emit(obs, || Event::RunInterrupted {
                engine: engine_kind,
                step: 0,
                // Total: `interrupted` only returns interrupt outcomes.
                reason: outcome
                    .interrupt_reason()
                    .unwrap_or(chase_telemetry::InterruptReason::Deadline),
            });
            return ObliviousRun {
                outcome,
                instance: database.clone(),
                steps: 0,
            };
        }
        let vars = self.fp_vars();
        let mut instance = database.clone();
        // Body joins only: the oblivious chase never runs restriction
        // checks, so head-satisfaction keys would be dead weight.
        let index_guard = span_enter(obs, spans::INDEX_MAINTAIN, NO_TGD);
        for &(pred, a, b) in self.set.body_pair_plans() {
            instance.register_pair_index(pred, a as usize, b as usize);
        }
        index_guard.exit(obs);
        let mut skolem = SkolemTable::above(
            self.policy,
            instance.iter().flat_map(|a| a.args.iter().copied()),
        );
        let mut queue: VecDeque<Trigger> = VecDeque::new();
        let mut applied: chase_core::ids::FxHashSet<TriggerFp> = fx_set();
        let matcher = &mut scratch.matcher;

        let seed_guard = span_enter(obs, spans::SEED, NO_TGD);
        let _ = for_each_trigger_with(matcher, self.set, &instance, &mut |id, b| {
            let fp = TriggerFp::of(id, b, vars.of(self.set.tgd(id)));
            if applied.insert(fp) {
                emit_detail(obs, || Event::TriggerDiscovered {
                    engine: engine_kind,
                    tgd: id.0,
                    step: 0,
                });
                queue.push_back(Trigger {
                    tgd: id,
                    binding: b.clone(),
                });
            }
            ControlFlow::Continue(())
        });
        seed_guard.exit(obs);
        emit_detail(obs, || Event::QueueDepth {
            engine: engine_kind,
            step: 0,
            depth: queue.len() as u64,
        });

        let mut steps = 0usize;
        let mut new_slots: Vec<usize> = Vec::new();
        loop {
            if let Some(outcome) = gov.interrupted(steps) {
                emit(obs, || Event::RunInterrupted {
                    engine: engine_kind,
                    step: steps as u64,
                    // Total: `interrupted` only returns interrupt outcomes.
                    reason: outcome
                        .interrupt_reason()
                        .unwrap_or(chase_telemetry::InterruptReason::Deadline),
                });
                if let Some(start) = run_start {
                    emit_profile_sample(
                        obs,
                        engine_kind,
                        start,
                        &instance,
                        steps as u64,
                        queue.len() as u64,
                    );
                }
                return ObliviousRun {
                    outcome,
                    instance,
                    steps,
                };
            }
            let Some(trigger) = queue.pop_front() else {
                break;
            };
            if gov.budget_exhausted(steps, instance.len()) {
                queue.push_front(trigger);
                if let Some(start) = run_start {
                    emit_profile_sample(
                        obs,
                        engine_kind,
                        start,
                        &instance,
                        steps as u64,
                        queue.len() as u64,
                    );
                }
                return ObliviousRun {
                    outcome: Outcome::BudgetExhausted,
                    instance,
                    steps,
                };
            }
            // 1-in-K sampled spans with shared boundary clock reads
            // keep profiling overhead low (see `crate::profiling`).
            let sampled = (steps as u64).is_multiple_of(self.profile_sample_every);
            let step_guard = span_enter_sampled(obs, spans::STEP, trigger.tgd.0, sampled, None);
            let tgd = self.set.tgd(trigger.tgd);
            let insert_guard = span_enter_sampled(
                obs,
                spans::INSERT,
                trigger.tgd.0,
                sampled,
                step_guard.start(),
            );
            let nulls_before = skolem.invented();
            let added = trigger.result(tgd, &mut skolem);
            let nulls_after = skolem.invented();
            steps += 1;
            new_slots.clear();
            let mut fresh_atoms = 0u32;
            for atom in added {
                let pred = atom.pred.0;
                let (slot, fresh) = instance.insert(atom);
                emit_detail(obs, || Event::AtomInserted {
                    engine: engine_kind,
                    predicate: pred,
                    step: steps as u64,
                    fresh,
                });
                if fresh {
                    fresh_atoms += 1;
                    new_slots.push(slot);
                }
            }
            let insert_end = insert_guard.exit_now(obs);
            for null in nulls_before..nulls_after {
                emit_detail(obs, || Event::NullInvented {
                    engine: engine_kind,
                    null,
                    step: steps as u64,
                });
            }
            emit(obs, || Event::TriggerApplied {
                engine: engine_kind,
                tgd: trigger.tgd.0,
                step: steps as u64,
                new_atoms: fresh_atoms,
                new_nulls: nulls_after - nulls_before,
            });
            let match_guard =
                span_enter_sampled(obs, spans::MATCH, trigger.tgd.0, sampled, insert_end);
            for &slot in &new_slots {
                let _ = for_each_trigger_using_with(
                    matcher,
                    self.set,
                    &instance,
                    slot,
                    &mut |id, b| {
                        let fp = TriggerFp::of(id, b, vars.of(self.set.tgd(id)));
                        if applied.insert(fp) {
                            emit_detail(obs, || Event::TriggerDiscovered {
                                engine: engine_kind,
                                tgd: id.0,
                                step: steps as u64,
                            });
                            queue.push_back(Trigger {
                                tgd: id,
                                binding: b.clone(),
                            });
                        }
                        ControlFlow::Continue(())
                    },
                );
            }
            let match_end = match_guard.exit_now(obs);
            emit_detail(obs, || Event::QueueDepth {
                engine: engine_kind,
                step: steps as u64,
                depth: queue.len() as u64,
            });
            step_guard.exit_at(obs, match_end);
            if let Some(start) = run_start {
                if (steps as u64).is_multiple_of(self.heartbeat_every) {
                    emit_profile_sample(
                        obs,
                        engine_kind,
                        start,
                        &instance,
                        steps as u64,
                        queue.len() as u64,
                    );
                }
            }
        }
        if let Some(start) = run_start {
            emit_profile_sample(obs, engine_kind, start, &instance, steps as u64, 0);
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
    use chase_core::hom::satisfies_all;
    use chase_core::parser::parse_program;
    use chase_core::vocab::Vocabulary;

    fn run_oblivious(src: &str, budget: Budget, semi: bool) -> (ObliviousRun, TgdSet) {
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

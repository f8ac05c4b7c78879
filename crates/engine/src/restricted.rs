//! The restricted (a.k.a. standard) chase, Section 3.2 of the paper.
//!
//! The engine maintains a queue of *candidate triggers*, discovered
//! semi-naively: when an atom is inserted, only triggers whose body
//! uses that atom are (re-)enumerated. A candidate popped from the
//! queue is applied only if it is still **active** — the defining
//! feature of the restricted chase. The queue discipline is pluggable:
//!
//! * [`Strategy::Fifo`] processes triggers in discovery order, which
//!   makes every run **fair** (every trigger that stays active is
//!   eventually applied, hence deactivated);
//! * [`Strategy::Lifo`] prefers the newest triggers and can produce
//!   **unfair** infinite derivations — exactly the behaviour the
//!   Fairness Theorem (Section 4) reasons about;
//! * [`Strategy::Random`] samples uniformly (seeded, reproducible).
//!
//! ## Hot-path architecture
//!
//! The run loop borrows two [`HomScratch`](chase_core::hom::HomScratch)
//! arenas from a [`ChaseScratch`] (one driving trigger enumeration, one
//! probing activeness), identifies triggers by packed
//! [`TriggerFp`] fingerprints, and enumerates delta triggers through
//! the borrowing `*_with` entry points — steady-state discovery and
//! activeness checking perform no heap allocation. Queued candidates
//! live as `Copy` spans into a flat binding arena, so queueing a
//! trigger allocates nothing and a [`Trigger`] value is materialised
//! only for the triggers actually *applied*. A caller may keep the
//! scratch warm across runs.
//!
//! ## Restriction checks
//!
//! The engine registers the TGD set's composite-index plan on its
//! working instance up front, turning most head-satisfaction searches
//! (Definition 3.1's activeness test) into single index probes.

use std::collections::VecDeque;
use std::ops::ControlFlow;

use chase_core::ids::{fx_set, VarId};
use chase_core::instance::Instance;
use chase_core::subst::Binding;
use chase_core::term::Term;
use chase_core::tgd::{TgdId, TgdSet};
use chase_telemetry::{
    emit, emit_detail, span_enter, span_enter_sampled, spans, ChaseObserver, EngineKind, Event,
    NullObserver, NO_TGD,
};

use crate::derivation::{Derivation, Step};
use crate::governor::ResourceGovernor;
use crate::profiling::{
    emit_profile_sample, DEFAULT_HEARTBEAT_EVERY, DEFAULT_PROFILE_SAMPLE_EVERY,
};
use crate::skolem::{SkolemPolicy, SkolemTable};
use crate::trigger::{
    for_each_trigger_using_with, for_each_trigger_with, head_satisfied_with, ChaseScratch, Trigger,
    TriggerFp,
};

pub use crate::governor::{Budget, Outcome};

/// Queue discipline for candidate triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// First-in-first-out; fair by construction.
    Fifo,
    /// Last-in-first-out; may be unfair.
    Lifo,
    /// Uniform random choice with the given seed (xorshift64).
    Random(u64),
    /// Always prefer triggers of the TGD with the smallest identifier,
    /// newest such trigger first (per-TGD LIFO). Deliberately
    /// *unfair*: a low-priority trigger can stay active forever — the
    /// behaviour the Fairness Theorem (Section 4) repairs. Implemented
    /// with per-TGD buckets and a min-bucket cursor, so popping is
    /// O(1) amortised instead of a full queue scan.
    PriorityTgd,
}

/// The result of a chase run.
#[derive(Debug, Clone)]
pub struct ChaseRun {
    /// Terminated or out of budget.
    pub outcome: Outcome,
    /// The final instance.
    pub instance: Instance,
    /// Number of trigger applications performed.
    pub steps: usize,
    /// The recorded derivation (empty if recording was disabled).
    pub derivation: Derivation,
}

/// A tiny deterministic xorshift64 PRNG, so the engine does not need a
/// `rand` dependency for its `Random` strategy.
#[derive(Debug, Clone)]
pub(crate) struct XorShift64(u64);

impl XorShift64 {
    pub(crate) fn new(seed: u64) -> Self {
        XorShift64(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A uniform-ish index in `0..n`. Total: returns 0 for `n <= 1`
    /// (in particular it must not divide by zero for `n == 0`, which a
    /// naive modulo would).
    pub(crate) fn below(&mut self, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        (self.next() % n as u64) as usize
    }
}

/// A queued candidate trigger: a `Copy` span into the engine's flat
/// binding arena. No [`Trigger`] (and no per-trigger `Binding`
/// allocation) exists until the trigger is actually applied.
#[derive(Debug, Clone, Copy)]
struct Queued {
    /// Which TGD.
    tgd: TgdId,
    /// Start of the `(var, term)` span in the binding arena.
    start: u32,
    /// Length of the span (one entry per body variable).
    len: u32,
}

impl Queued {
    /// Copies `binding`'s entries into `arena` and returns the span
    /// handle.
    fn store(arena: &mut Vec<(VarId, Term)>, tgd: TgdId, binding: &Binding) -> Queued {
        let start = arena.len();
        arena.extend(binding.iter());
        Queued {
            tgd,
            start: start as u32,
            len: (arena.len() - start) as u32,
        }
    }

    /// The stored `(var, term)` pairs.
    #[inline]
    fn pairs<'a>(&self, arena: &'a [(VarId, Term)]) -> &'a [(VarId, Term)] {
        &arena[self.start as usize..(self.start + self.len) as usize]
    }
}

/// Strategy-shaped trigger queue.
///
/// `Fifo`/`Lifo`/`Random` share a deque (with `Random` using the
/// swap-to-front trick). `PriorityTgd` keeps one LIFO bucket per TGD
/// plus a cursor to the smallest possibly-non-empty bucket: pushes are
/// O(1), and the cursor only moves forward between pushes, making pops
/// O(1) amortised — the old implementation scanned the whole queue on
/// every pop.
enum TriggerQueue {
    Deque(VecDeque<Queued>),
    Buckets {
        buckets: Vec<Vec<Queued>>,
        len: usize,
        min: usize,
    },
}

impl TriggerQueue {
    fn new(strategy: Strategy, n_tgds: usize) -> Self {
        match strategy {
            Strategy::PriorityTgd => TriggerQueue::Buckets {
                buckets: (0..n_tgds).map(|_| Vec::new()).collect(),
                len: 0,
                min: n_tgds,
            },
            _ => TriggerQueue::Deque(VecDeque::new()),
        }
    }

    fn len(&self) -> usize {
        match self {
            TriggerQueue::Deque(q) => q.len(),
            TriggerQueue::Buckets { len, .. } => *len,
        }
    }

    /// Enqueues a newly discovered trigger (newest position).
    fn push(&mut self, q: Queued) {
        match self {
            TriggerQueue::Deque(d) => d.push_back(q),
            TriggerQueue::Buckets { buckets, len, min } => {
                let b = q.tgd.index();
                *min = (*min).min(b);
                buckets[b].push(q);
                *len += 1;
            }
        }
    }

    /// Returns a popped-but-unapplied trigger to its pop position
    /// (used when the budget runs out, so callers can inspect pending
    /// work).
    fn unpop(&mut self, q: Queued) {
        match self {
            TriggerQueue::Deque(d) => d.push_front(q),
            TriggerQueue::Buckets { buckets, len, min } => {
                let b = q.tgd.index();
                *min = (*min).min(b);
                buckets[b].push(q);
                *len += 1;
            }
        }
    }

    fn pop(&mut self, strategy: Strategy, rng: &mut Option<XorShift64>) -> Option<Queued> {
        match self {
            TriggerQueue::Deque(queue) => {
                if queue.is_empty() {
                    return None;
                }
                match strategy {
                    Strategy::Fifo => queue.pop_front(),
                    Strategy::Lifo => queue.pop_back(),
                    Strategy::Random(_) => {
                        // invariant: the run loop seeds `rng` with
                        // `Some` exactly when the strategy is `Random`,
                        // before any pop.
                        let rng = rng.as_mut().expect("rng initialised for Random strategy");
                        let i = rng.below(queue.len());
                        queue.swap(i, 0);
                        queue.pop_front()
                    }
                    Strategy::PriorityTgd => unreachable!("PriorityTgd uses buckets"),
                }
            }
            TriggerQueue::Buckets { buckets, len, min } => {
                if *len == 0 {
                    return None;
                }
                while buckets[*min].is_empty() {
                    *min += 1;
                }
                *len -= 1;
                buckets[*min].pop()
            }
        }
    }
}

/// A configured restricted-chase engine.
#[derive(Debug, Clone)]
pub struct RestrictedChase<'a> {
    set: &'a TgdSet,
    strategy: Strategy,
    record: bool,
    heartbeat_every: u64,
    profile_sample_every: u64,
}

impl<'a> RestrictedChase<'a> {
    /// Creates an engine with FIFO (fair) strategy and derivation
    /// recording enabled.
    pub fn new(set: &'a TgdSet) -> Self {
        RestrictedChase {
            set,
            strategy: Strategy::Fifo,
            record: true,
            heartbeat_every: DEFAULT_HEARTBEAT_EVERY,
            profile_sample_every: DEFAULT_PROFILE_SAMPLE_EVERY,
        }
    }

    /// Selects the queue discipline.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Enables or disables derivation recording (disable in benches).
    pub fn record_derivation(mut self, record: bool) -> Self {
        self.record = record;
        self
    }

    /// Sets the step cadence of the profiling stream's periodic
    /// memory/heartbeat samples (default 1024). Only consulted when
    /// the observer opts into profiling; a final sample is always
    /// emitted at run exit regardless of cadence.
    pub fn heartbeat_every(mut self, steps: u64) -> Self {
        self.heartbeat_every = steps.max(1);
        self
    }

    /// Sets the step-span sampling cadence: 1 in `pops` queue pops
    /// gets a full span subtree (default 16, pop 0 always sampled;
    /// see [`crate::profiling`]). `1` spans every pop exactly.
    /// Sampling is deterministic in the pop index. Only consulted when
    /// the observer opts into profiling.
    pub fn profile_sample_every(mut self, pops: u64) -> Self {
        self.profile_sample_every = pops.max(1);
        self
    }

    /// Runs the restricted chase on `database` within `budget`.
    pub fn run(&self, database: &Instance, budget: Budget) -> ChaseRun {
        self.run_observed(database, budget, &mut NullObserver)
    }

    /// Runs the restricted chase, streaming telemetry [`Event`]s to
    /// `obs`. With [`NullObserver`] this monomorphises to exactly the
    /// unobserved loop — `enabled()` is a constant `false` and every
    /// emission site folds away.
    pub fn run_observed<O: ChaseObserver + ?Sized>(
        &self,
        database: &Instance,
        budget: Budget,
        obs: &mut O,
    ) -> ChaseRun {
        self.run_governed_observed(database, &ResourceGovernor::from_budget(budget), obs)
    }

    /// Runs the restricted chase under a full [`ResourceGovernor`]
    /// (budget + deadline + cancellation + fault plan).
    pub fn run_governed(&self, database: &Instance, gov: &ResourceGovernor) -> ChaseRun {
        self.run_governed_observed(database, gov, &mut NullObserver)
    }

    /// [`RestrictedChase::run_governed`] with telemetry. The governor
    /// is polled before seed discovery and at the top of every queue
    /// iteration; an interrupted run emits one
    /// [`Event::RunInterrupted`] and returns the truthful partial
    /// result (valid instance, step count and derivation for the work
    /// actually performed).
    ///
    /// When `obs` opts into profiling (see
    /// [`ChaseObserver::profiling`]) the run additionally streams
    /// hierarchical spans (`run → seed | step →
    /// {restriction_check, insert, match}`, plus `index_maintain`),
    /// periodic memory samples
    /// and progress heartbeats. The profiling stream never influences
    /// the derivation: profiled and unprofiled runs are bit-identical.
    pub fn run_governed_observed<O: ChaseObserver + ?Sized>(
        &self,
        database: &Instance,
        gov: &ResourceGovernor,
        obs: &mut O,
    ) -> ChaseRun {
        self.run_governed_observed_in(database, gov, obs, &mut ChaseScratch::default())
    }

    /// [`RestrictedChase::run_governed_observed`] borrowing the
    /// matcher arenas from `scratch`, so a resident process (the chase
    /// server's session runners) keeps them warm across many runs. The
    /// scratch carries no run-scoped state; the run is bit-identical to
    /// [`RestrictedChase::run_governed_observed`].
    pub fn run_governed_observed_in<O: ChaseObserver + ?Sized>(
        &self,
        database: &Instance,
        gov: &ResourceGovernor,
        obs: &mut O,
        scratch: &mut ChaseScratch,
    ) -> ChaseRun {
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
    ) -> ChaseRun {
        const ENGINE: EngineKind = EngineKind::Restricted;
        // `Some` exactly when the observer opted into profiling;
        // doubles as the heartbeat reference clock, so unprofiled runs
        // never read the clock or walk the instance for samples.
        let run_start = (obs.enabled() && obs.profiling()).then(std::time::Instant::now);
        if let Some(outcome) = gov.interrupted(0) {
            emit(obs, || Event::RunInterrupted {
                engine: ENGINE,
                step: 0,
                // Total: `interrupted` only returns interrupt outcomes.
                reason: outcome
                    .interrupt_reason()
                    .unwrap_or(chase_telemetry::InterruptReason::Deadline),
            });
            return ChaseRun {
                outcome,
                instance: database.clone(),
                steps: 0,
                derivation: Derivation::default(),
            };
        }
        let ChaseScratch {
            matcher,
            probe,
            binding: check_binding,
        } = scratch;
        let mut instance = database.clone();
        // Register the TGD set's composite-index plan before any
        // matching: pair cells are maintained incrementally from here
        // on, and candidate pruning through them is order-preserving
        // (see `chase_core::hom`), so seed-engine bit-identity holds.
        let index_guard = span_enter(obs, spans::INDEX_MAINTAIN, NO_TGD);
        for &(pred, a, b) in self.set.pair_plans() {
            instance.register_pair_index(pred, a as usize, b as usize);
        }
        index_guard.exit(obs);
        let mut skolem = SkolemTable::above(
            SkolemPolicy::PerTrigger,
            instance.iter().flat_map(|a| a.args.iter().copied()),
        );
        let mut queue = TriggerQueue::new(self.strategy, self.set.len());
        // Flat binding arena backing all queued spans for the whole
        // run; bounded by the number of discovered triggers (which the
        // queue held as owned bindings before this existed).
        let mut arena: Vec<(VarId, Term)> = Vec::new();
        let mut seen: chase_core::ids::FxHashSet<TriggerFp> = fx_set();
        let mut rng = match self.strategy {
            Strategy::Random(seed) => Some(XorShift64::new(seed)),
            _ => None,
        };

        // Seed: all triggers on the database.
        let seed_guard = span_enter(obs, spans::SEED, NO_TGD);
        let _ = for_each_trigger_with(matcher, self.set, &instance, &mut |id, b| {
            let fp = TriggerFp::of(id, b, self.set.tgd(id).sorted_body_vars());
            if seen.insert(fp) {
                emit_detail(obs, || Event::TriggerDiscovered {
                    engine: ENGINE,
                    tgd: id.0,
                    step: 0,
                });
                queue.push(Queued::store(&mut arena, id, b));
            }
            ControlFlow::Continue(())
        });
        seed_guard.exit(obs);
        emit_detail(obs, || Event::QueueDepth {
            engine: ENGINE,
            step: 0,
            depth: queue.len() as u64,
        });

        let mut steps = 0usize;
        let mut pop_idx: u64 = 0;
        let mut derivation = Derivation::default();
        let mut new_slots: Vec<usize> = Vec::new();
        loop {
            if let Some(outcome) = gov.interrupted(steps) {
                emit(obs, || Event::RunInterrupted {
                    engine: ENGINE,
                    step: steps as u64,
                    // Total: `interrupted` only returns interrupt outcomes.
                    reason: outcome
                        .interrupt_reason()
                        .unwrap_or(chase_telemetry::InterruptReason::Deadline),
                });
                if let Some(start) = run_start {
                    emit_profile_sample(
                        obs,
                        ENGINE,
                        start,
                        &instance,
                        steps as u64,
                        queue.len() as u64,
                    );
                }
                return ChaseRun {
                    outcome,
                    instance,
                    steps,
                    derivation,
                };
            }
            let Some(popped) = queue.pop(self.strategy, &mut rng) else {
                break;
            };
            let sampled = pop_idx.is_multiple_of(self.profile_sample_every);
            pop_idx += 1;
            let step_guard = span_enter_sampled(obs, spans::STEP, popped.tgd.0, sampled, None);
            let tgd = self.set.tgd(popped.tgd);
            check_binding.clear();
            for &(v, t) in popped.pairs(&arena) {
                check_binding.push(v, t);
            }
            // Adjacent span boundaries share one clock reading
            // (`exit_now`/`_at`) to keep profiling overhead within the
            // gate's budget.
            let check_guard = span_enter_sampled(
                obs,
                spans::RESTRICTION_CHECK,
                popped.tgd.0,
                sampled,
                step_guard.start(),
            );
            let active = !head_satisfied_with(probe, tgd, &instance, check_binding, 0);
            let check_end = check_guard.exit_now(obs);
            emit_detail(obs, || Event::TriggerChecked {
                engine: ENGINE,
                tgd: popped.tgd.0,
                step: steps as u64,
                active,
            });
            if !active {
                emit_detail(obs, || Event::TriggerDeactivated {
                    engine: ENGINE,
                    tgd: popped.tgd.0,
                    step: steps as u64,
                });
                step_guard.exit_at(obs, check_end);
                continue; // deactivated since discovery — monotone, stays so
            }
            if gov.budget_exhausted(steps, instance.len()) {
                // Put it back so the caller can inspect pending work.
                queue.unpop(popped);
                step_guard.exit(obs);
                if let Some(start) = run_start {
                    emit_profile_sample(
                        obs,
                        ENGINE,
                        start,
                        &instance,
                        steps as u64,
                        queue.len() as u64,
                    );
                }
                return ChaseRun {
                    outcome: Outcome::BudgetExhausted,
                    instance,
                    steps,
                    derivation,
                };
            }
            // Materialise the applied trigger (the only place a queued
            // candidate becomes an owned Trigger).
            let trigger = Trigger {
                tgd: popped.tgd,
                binding: Binding::from_pairs(popped.pairs(&arena).iter().copied()),
            };
            let insert_guard =
                span_enter_sampled(obs, spans::INSERT, popped.tgd.0, sampled, check_end);
            new_slots.clear();
            let mut fresh_atoms = 0u32;
            let nulls_before = skolem.invented();
            let added = trigger.result(tgd, &mut skolem);
            let nulls_after = skolem.invented();
            for atom in &added {
                let (slot, fresh) = instance.insert(atom.clone());
                emit_detail(obs, || Event::AtomInserted {
                    engine: ENGINE,
                    predicate: atom.pred.0,
                    step: steps as u64 + 1,
                    fresh,
                });
                if fresh {
                    fresh_atoms += 1;
                    new_slots.push(slot);
                }
            }
            let insert_end = insert_guard.exit_now(obs);
            steps += 1;
            for null in nulls_before..nulls_after {
                emit_detail(obs, || Event::NullInvented {
                    engine: ENGINE,
                    null,
                    step: steps as u64,
                });
            }
            emit(obs, || Event::TriggerApplied {
                engine: ENGINE,
                tgd: trigger.tgd.0,
                step: steps as u64,
                new_atoms: fresh_atoms,
                new_nulls: nulls_after - nulls_before,
            });
            if self.record {
                derivation.steps.push(Step {
                    trigger: trigger.clone(),
                    added: added.clone(),
                });
            }
            // Delta discovery: only triggers using a fresh atom.
            let match_guard =
                span_enter_sampled(obs, spans::MATCH, popped.tgd.0, sampled, insert_end);
            for &slot in &new_slots {
                let _ = for_each_trigger_using_with(
                    matcher,
                    self.set,
                    &instance,
                    slot,
                    &mut |id, b| {
                        let fp = TriggerFp::of(id, b, self.set.tgd(id).sorted_body_vars());
                        if seen.insert(fp) {
                            emit_detail(obs, || Event::TriggerDiscovered {
                                engine: ENGINE,
                                tgd: id.0,
                                step: steps as u64,
                            });
                            queue.push(Queued::store(&mut arena, id, b));
                        }
                        ControlFlow::Continue(())
                    },
                );
            }
            let match_end = match_guard.exit_now(obs);
            emit_detail(obs, || Event::QueueDepth {
                engine: ENGINE,
                step: steps as u64,
                depth: queue.len() as u64,
            });
            step_guard.exit_at(obs, match_end);
            if let Some(start) = run_start {
                if (steps as u64).is_multiple_of(self.heartbeat_every) {
                    emit_profile_sample(
                        obs,
                        ENGINE,
                        start,
                        &instance,
                        steps as u64,
                        queue.len() as u64,
                    );
                }
            }
        }
        // Final sample: a terminated run has drained its queue, even
        // when the tail of the queue was all deactivated triggers
        // (which emit no per-step sample).
        emit_detail(obs, || Event::QueueDepth {
            engine: ENGINE,
            step: steps as u64,
            depth: queue.len() as u64,
        });
        if let Some(start) = run_start {
            emit_profile_sample(obs, ENGINE, start, &instance, steps as u64, 0);
        }
        ChaseRun {
            outcome: Outcome::Terminated,
            instance,
            steps,
            derivation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::hom::satisfies_all;
    use chase_core::parser::parse_program;
    use chase_core::tgd::TgdId;
    use chase_core::vocab::Vocabulary;

    fn run(src: &str, strategy: Strategy, budget: Budget) -> (ChaseRun, TgdSet, Instance) {
        let mut vocab = Vocabulary::new();
        let p = parse_program(src, &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let run = RestrictedChase::new(&set)
            .strategy(strategy)
            .run(&p.database, budget);
        (run, set, p.database)
    }

    #[test]
    fn intro_example_terminates_in_zero_steps() {
        let (run, set, db) = run(
            "R(a,b). R(x,y) -> exists z. R(x,z).",
            Strategy::Fifo,
            Budget::steps(100),
        );
        assert_eq!(run.outcome, Outcome::Terminated);
        assert_eq!(run.steps, 0);
        assert_eq!(run.instance, db);
        assert!(satisfies_all(&run.instance, &set));
    }

    #[test]
    fn right_recursion_exhausts_budget() {
        let (run, _, _) = run(
            "R(a,b). R(x,y) -> exists z. R(y,z).",
            Strategy::Fifo,
            Budget::steps(50),
        );
        assert_eq!(run.outcome, Outcome::BudgetExhausted);
        assert_eq!(run.steps, 50);
        assert_eq!(run.instance.len(), 51);
    }

    #[test]
    fn terminating_run_produces_model_and_valid_derivation() {
        let src = "
            E(a,b). E(b,c).
            E(x,y) -> exists z. F(x,z).
            F(x,z) -> G(x).
        ";
        let (run, set, db) = run(src, Strategy::Fifo, Budget::steps(1000));
        assert_eq!(run.outcome, Outcome::Terminated);
        assert!(satisfies_all(&run.instance, &set));
        let replayed = run.derivation.validate(&db, &set, true).unwrap();
        assert_eq!(replayed, run.instance);
    }

    #[test]
    fn strategies_agree_on_termination_for_terminating_sets() {
        let src = "
            R(a,b).
            R(x,y) -> exists z. S(y,z).
            S(x,y) -> T(x).
        ";
        for strategy in [
            Strategy::Fifo,
            Strategy::Lifo,
            Strategy::Random(7),
            Strategy::PriorityTgd,
        ] {
            let (run, set, _) = run(src, strategy, Budget::steps(1000));
            assert_eq!(run.outcome, Outcome::Terminated, "{strategy:?}");
            assert!(satisfies_all(&run.instance, &set));
        }
    }

    #[test]
    fn restricted_chase_does_not_fire_satisfied_tgds() {
        // Example-style: head already witnessed for one tuple but not
        // the other.
        let src = "
            R(a,b). R(b,b).
            R(x,y) -> exists z. R(y,z).
        ";
        let (run, set, _) = run(src, Strategy::Fifo, Budget::steps(100));
        // R(b,b) satisfies the head for both R(a,b) (needs R(b,_)) and
        // itself, so nothing fires.
        assert_eq!(run.outcome, Outcome::Terminated);
        assert_eq!(run.steps, 0);
        assert!(satisfies_all(&run.instance, &set));
    }

    #[test]
    fn random_strategy_is_reproducible() {
        let src = "
            R(a,b).
            R(x,y) -> exists z. S(y,z).
            S(x,y) -> exists z. T(x,z).
            R(x,y) -> P(x).
        ";
        let (r1, _, _) = run(src, Strategy::Random(42), Budget::steps(100));
        let (r2, _, _) = run(src, Strategy::Random(42), Budget::steps(100));
        assert_eq!(r1.steps, r2.steps);
        assert_eq!(r1.instance, r2.instance);
    }

    #[test]
    fn multi_head_supported_by_engine() {
        // Example B.1's first TGD shape (multi-head).
        let src = "
            R(a,b,b).
            R(x,y,y) -> exists z. R(x,z,y), R(z,y,y).
        ";
        let (run, set, _) = run(src, Strategy::Fifo, Budget::steps(10));
        assert_eq!(run.outcome, Outcome::BudgetExhausted);
        assert!(run.instance.len() > 3);
        let _ = set;
    }

    #[test]
    fn symmetric_body_trigger_discovered_once() {
        // R(x,y), R(y,x) -> S(x) on {R(a,a)}: the delta enumeration
        // finds the same trigger through both body atoms; the seen-set
        // must deduplicate so it is applied exactly once.
        let (run, set, _) = run(
            "R(a,a). R(x,y), R(y,x) -> S(x).",
            Strategy::Fifo,
            Budget::steps(100),
        );
        assert_eq!(run.outcome, Outcome::Terminated);
        assert_eq!(run.steps, 1);
        assert!(satisfies_all(&run.instance, &set));
    }

    #[test]
    fn xorshift_below_is_total() {
        // Regression: `below` used `next() % n`, which panicked with a
        // divide-by-zero for n == 0. It must be total.
        let mut rng = XorShift64::new(1);
        assert_eq!(rng.below(0), 0);
        assert_eq!(rng.below(1), 0);
        for n in 2..50 {
            let i = rng.below(n);
            assert!(i < n, "below({n}) returned {i}");
        }
    }

    #[test]
    fn observed_run_matches_unobserved_run() {
        use chase_telemetry::{names, CountingObserver};
        let src = "
            E(a,b). E(b,c).
            E(x,y) -> exists z. F(x,z).
            F(x,z) -> G(x).
        ";
        let mut vocab = Vocabulary::new();
        let p = parse_program(src, &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let engine = RestrictedChase::new(&set);
        let plain = engine.run(&p.database, Budget::steps(1000));
        let mut obs = CountingObserver::new();
        let observed = engine.run_observed(&p.database, Budget::steps(1000), &mut obs);
        assert_eq!(plain.outcome, observed.outcome);
        assert_eq!(plain.steps, observed.steps);
        assert_eq!(plain.instance, observed.instance);
        let s = obs.summary();
        assert_eq!(
            s.counter(names::TRIGGERS_APPLIED),
            Some(observed.steps as u64)
        );
        assert_eq!(
            s.counter(names::ATOMS_FRESH).unwrap() as usize,
            observed.instance.len() - p.database.len()
        );
        // Every applied trigger was checked active first.
        assert!(s.counter(names::TRIGGERS_ACTIVE) >= s.counter(names::TRIGGERS_APPLIED));
    }

    #[test]
    fn atom_budget_respected() {
        let (run, _, _) = run(
            "R(a,b). R(x,y) -> exists z. R(y,z).",
            Strategy::Fifo,
            Budget::new(usize::MAX, 10),
        );
        assert_eq!(run.outcome, Outcome::BudgetExhausted);
        assert!(run.instance.len() <= 10);
    }

    #[test]
    fn profiled_run_matches_unprofiled_and_balances_spans() {
        use chase_telemetry::{spans, SpanObserver};
        let src = "
            E(a,b). E(b,c).
            E(x,y) -> exists z. F(x,z).
            F(x,z) -> G(x).
        ";
        let mut vocab = Vocabulary::new();
        let p = parse_program(src, &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let engine = RestrictedChase::new(&set).heartbeat_every(1);
        let plain = engine.run(&p.database, Budget::steps(1000));
        let mut prof = SpanObserver::new();
        let profiled = engine.run_observed(&p.database, Budget::steps(1000), &mut prof);
        // Profiling must not perturb the derivation.
        assert_eq!(plain.outcome, profiled.outcome);
        assert_eq!(plain.steps, profiled.steps);
        assert_eq!(plain.instance, profiled.instance);
        let profile = prof.profile();
        assert_eq!(profile.unbalanced, 0, "span stream must be well-nested");
        assert!(profile.span_total(spans::RUN) > 0);
        assert!(profile.span_total(spans::SEED) > 0);
        assert!(profile.span_total(spans::RESTRICTION_CHECK) > 0);
        assert_eq!(profile.fires_total(), profiled.steps as u64);
        // heartbeat_every(1) → one periodic sample per step plus the
        // final sample.
        assert_eq!(profile.heartbeats, profiled.steps as u64 + 1);
        let mem = profile.memory.expect("memory sampled");
        assert_eq!(mem.atoms, profiled.instance.len() as u64);
        assert!(mem.total_bytes() > 0);
    }

    #[test]
    fn priority_tgd_prefers_smallest_tgd_newest_first() {
        // TGD 0 regenerates its own active trigger forever; TGD 1's
        // trigger stays pending and is never chosen.
        let src = "
            R(a,b). S(c,d).
            R(x,y) -> exists z. R(y,z).
            S(x,y) -> exists z. S(y,z).
        ";
        let (run, _, _) = run(src, Strategy::PriorityTgd, Budget::steps(25));
        assert_eq!(run.outcome, Outcome::BudgetExhausted);
        // Every applied step was TGD 0.
        assert!(run
            .derivation
            .steps
            .iter()
            .all(|s| s.trigger.tgd == TgdId(0)));
    }
}

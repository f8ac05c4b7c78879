//! The restricted (a.k.a. standard) chase, Section 3.2 of the paper,
//! and the one chase loop behind every optimised engine.
//!
//! ## One loop, three variants
//!
//! The oblivious, semi-oblivious and restricted chase are one
//! procedure (§3) that differs only in how a trigger is identified,
//! how nulls are named, and whether a trigger must still be active
//! when it is applied. A [`ChaseVariant`] supplies exactly those
//! choices to [`RestrictedChase`]'s loop; the restricted variant also
//! carries its queue [`Strategy`], the oblivious ones always queue
//! FIFO and never log their steps. [`ChaseVariant::parse`] is the
//! one place that turns `engine`/`strategy`/`seed` names into a
//! variant, for the CLI and the server alike.
//!
//! ## Restricted chase
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
//! probing activeness), and enumerates seed and delta triggers through
//! the borrowing `*_with` entry points, which match each TGD's compiled
//! body. Each TGD's [`TriggerIdentity`] is fixed once per run; a
//! candidate's ground-head probe and `seen` key are read straight from
//! its slots — steady-state discovery and activeness checking perform
//! no heap allocation. Queued candidates live as `Copy` spans into a
//! flat binding arena, written in binding order only for a kept
//! trigger, so queueing allocates nothing and a [`Trigger`] value is
//! materialised only when a caller asks for the derivation. A caller
//! may keep the scratch warm across runs.
//!
//! ## Step log
//!
//! The restricted chase hands its applied steps back on
//! [`ChaseRun::log`]: per step, the TGD and the span of its binding in
//! the binding arena, which the run keeps anyway. Invented nulls come
//! from a counter (see [`crate::skolem`]), so the log determines every
//! step's added atoms, and [`ChaseRun::derivation`] rebuilds the full
//! derivation on demand. A run pays nothing per step for a derivation
//! nobody reads.
//!
//! ## Restriction checks
//!
//! Most head-satisfaction searches (Definition 3.1's activeness test)
//! are single index probes: an existential single-head TGD's check
//! scans the tightest position list of its head predicate
//! ([`chase_core::hom::head_satisfied_probe`]).
//!
//! A trigger of a single-head full TGD has a ground head, so its check
//! is one membership probe, and it can run at discovery: under `Fifo`,
//! `Lifo` and `PriorityTgd` such a trigger whose head already holds is
//! never queued, and under `Fifo` only the earliest trigger for each
//! head is. Under `Fifo` every other TGD queues only the earliest
//! trigger for each frontier image, because activeness depends on
//! nothing else (see [`TriggerIdentity`]). The applied triggers and their order
//! are unchanged; the pop-time check stays for everything that is
//! queued.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::ops::ControlFlow;

use chase_core::atom::{Atom, AtomRef, ARG_INLINE};
use chase_core::hom::SlotBinding;
use chase_core::ids::{fx_map, FxHashMap, PredId, VarId};
use chase_core::instance::Instance;
use chase_core::term::Term;
use chase_core::tgd::{Tgd, TgdId, TgdSet};
use chase_telemetry::{
    emit, emit_detail, span_enter, span_enter_sampled, spans, EngineKind, Event, NO_TGD,
};

use crate::derivation::{Derivation, StepLog};
use crate::governor::ResourceGovernor;
use crate::profiling::{
    emit_profile_sample, RunStart, DEFAULT_HEARTBEAT_EVERY, DEFAULT_PROFILE_SAMPLE_EVERY,
};
use crate::skolem::{SkolemPolicy, SkolemTable};
use crate::trigger::{
    for_each_trigger_using_with, for_each_trigger_with, head_satisfied_with, ChaseScratch, Trigger,
    TriggerFp,
};

pub use crate::governor::{Budget, Outcome};
/// What a run streams its events to.
pub use chase_telemetry::ChaseObserver;
/// The observer of an unobserved [`RestrictedChase::run_governed`].
pub use chase_telemetry::NullObserver;

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

/// Which chase the loop runs (§3), and for the restricted chase its
/// queue discipline.
///
/// The three variants are one procedure that differs only in how a
/// trigger is identified, how nulls are named, and whether a popped
/// trigger must still be active. The oblivious variants always queue
/// FIFO (the queue order does not change a terminating oblivious
/// run's result), so a strategy is only expressible for
/// [`ChaseVariant::Restricted`], and only that variant logs its
/// steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaseVariant {
    /// The restricted chase: applies a popped trigger only while it is
    /// still active; nulls per trigger.
    Restricted(Strategy),
    /// The oblivious chase: applies every trigger once; nulls per
    /// trigger.
    Oblivious,
    /// The semi-oblivious chase: applies one trigger per frontier
    /// image; nulls per frontier.
    SemiOblivious,
}

/// The seed of the `random` strategy when the caller names none. The
/// CLI and the server both resolve names through
/// [`ChaseVariant::parse`], so the same request gets the same run.
pub const DEFAULT_RANDOM_SEED: u64 = 0xC0FFEE;

/// The strategy names [`ChaseVariant::parse`] accepts, for help texts.
pub const STRATEGY_NAMES: &str = "fifo|lifo|random|priority";

impl Default for ChaseVariant {
    /// The restricted chase under FIFO, the fair strategy.
    fn default() -> Self {
        ChaseVariant::Restricted(Strategy::Fifo)
    }
}

impl ChaseVariant {
    /// Resolves the `engine` (`restricted`|`oblivious`|`semi`),
    /// `strategy` ([`STRATEGY_NAMES`]) and `seed` names of a request or
    /// command line. Absent names mean `restricted`, `fifo` and
    /// [`DEFAULT_RANDOM_SEED`]. A strategy given with an oblivious
    /// engine is checked but ignored, and a seed only affects `random`.
    pub fn parse(
        engine: Option<&str>,
        strategy: Option<&str>,
        seed: Option<u64>,
    ) -> Result<ChaseVariant, String> {
        let strategy = match strategy {
            None | Some("fifo") => Strategy::Fifo,
            Some("lifo") => Strategy::Lifo,
            Some("random") => Strategy::Random(seed.unwrap_or(DEFAULT_RANDOM_SEED)),
            Some("priority") => Strategy::PriorityTgd,
            Some(other) => return Err(format!("unknown strategy '{other}'")),
        };
        match engine {
            None | Some("restricted") => Ok(ChaseVariant::Restricted(strategy)),
            Some("oblivious") => Ok(ChaseVariant::Oblivious),
            Some("semi") => Ok(ChaseVariant::SemiOblivious),
            Some(other) => Err(format!("unknown engine '{other}'")),
        }
    }

    /// The telemetry label of the variant's events.
    pub fn kind(self) -> EngineKind {
        match self {
            ChaseVariant::Restricted(_) => EngineKind::Restricted,
            ChaseVariant::Oblivious => EngineKind::Oblivious,
            ChaseVariant::SemiOblivious => EngineKind::SemiOblivious,
        }
    }

    /// The queue discipline: the restricted chase's strategy, FIFO for
    /// the oblivious variants.
    fn queue_strategy(self) -> Strategy {
        match self {
            ChaseVariant::Restricted(strategy) => strategy,
            ChaseVariant::Oblivious | ChaseVariant::SemiOblivious => Strategy::Fifo,
        }
    }

    /// How invented nulls are named.
    fn skolem(self) -> SkolemPolicy {
        match self {
            ChaseVariant::SemiOblivious => SkolemPolicy::PerFrontier,
            ChaseVariant::Restricted(_) | ChaseVariant::Oblivious => SkolemPolicy::PerTrigger,
        }
    }
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
    /// The applied steps of a restricted run (empty for the oblivious
    /// variants and the seed oracles).
    pub log: StepLog,
}

impl ChaseRun {
    /// The run's derivation, rebuilt from its [`StepLog`]; `set` is the
    /// TGD set the run chased. Empty for the oblivious variants and
    /// the seed oracles.
    pub fn derivation(&self, set: &TgdSet) -> Derivation {
        self.log.derivation(set, self.log.len())
    }
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
    /// Copies the match's pairs into `arena`, in binding order, and
    /// returns the span handle.
    fn store(arena: &mut Vec<(VarId, Term)>, tgd: TgdId, m: &SlotBinding<'_>) -> Queued {
        let start = arena.len();
        arena.extend(m.pairs());
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

/// How the loop identifies a discovered trigger of one TGD in its
/// `seen` set, and whether it drops the trigger outright: one identity
/// per (variant, TGD), fixed for the run by [`TriggerIdentity::of`] and
/// read from the slots of the TGD's compiled body.
///
/// Whether a restricted trigger is active depends only on its TGD and
/// its image of the frontier (Definition 3.1), and the instance only
/// grows. So a trigger that would pop after another with the same TGD
/// and frontier image, or after the head it produces is present, would
/// pop inactive: dropping it at discovery applies the same triggers in
/// the same order. Under `Fifo` the earliest-discovered trigger pops
/// first, so that holds for every later one; under the other
/// strategies only the ground-head test is safe, and under
/// [`Strategy::Random`] not even that, because its draw depends on the
/// queue length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerIdentity<'t> {
    /// Keyed by TGD and the images of these slots, and queued whatever
    /// its head: every TGD of the oblivious variants and of `Random`,
    /// and every existential or multi-head TGD. The slots are the
    /// frontier's under the semi-oblivious chase and the restricted
    /// `Fifo` chase, so only the first trigger for each frontier image
    /// is queued, and every body variable's otherwise.
    Slots(&'t [u32]),
    /// Dropped when its ground head holds at discovery, else keyed by
    /// TGD and body binding: single-head full TGDs under `Lifo` and
    /// `PriorityTgd`.
    SlotsUnlessHeadHolds {
        /// The head predicate.
        pred: PredId,
        /// The slot of each head argument.
        head: &'t [u32],
        /// The slots of every body variable, in sorted-variable order.
        key: &'t [u32],
    },
    /// Dropped when its ground head holds at discovery, else keyed by
    /// that head, across all such TGDs: single-head full TGDs under
    /// `Fifo`. FIFO pops the earliest queued trigger for a head first,
    /// and once it has popped the head is present, so every later
    /// trigger for that head would pop inactive.
    GroundHead {
        /// The head predicate.
        pred: PredId,
        /// The slot of each head argument.
        head: &'t [u32],
    },
}

impl<'t> TriggerIdentity<'t> {
    /// The identity of `tgd`'s triggers under `variant`.
    pub fn of(variant: ChaseVariant, tgd: &'t Tgd) -> TriggerIdentity<'t> {
        match (variant, tgd.ground_head()) {
            (ChaseVariant::Restricted(Strategy::Fifo), Some((pred, head))) => {
                TriggerIdentity::GroundHead { pred, head }
            }
            (
                ChaseVariant::Restricted(Strategy::Lifo | Strategy::PriorityTgd),
                Some((pred, head)),
            ) => TriggerIdentity::SlotsUnlessHeadHolds {
                pred,
                head,
                key: tgd.sorted_body_slots(),
            },
            (ChaseVariant::SemiOblivious | ChaseVariant::Restricted(Strategy::Fifo), _) => {
                TriggerIdentity::Slots(tgd.frontier_slots())
            }
            (ChaseVariant::Restricted(_) | ChaseVariant::Oblivious, _) => {
                TriggerIdentity::Slots(tgd.sorted_body_slots())
            }
        }
    }

    /// Whether the trigger `(id, m)` is new to the run and may fire,
    /// recording it in `seen` if so. `head` is a reused buffer for a
    /// ground head wider than [`ARG_INLINE`].
    ///
    /// A trigger keyed by its ground head is looked up in `seen` before
    /// the instance: both say "drop", and under FIFO most candidates
    /// for a pending or applied head are found in `seen`, in one probe
    /// that also places a new key.
    #[inline]
    pub fn admit(
        self,
        id: TgdId,
        m: &SlotBinding<'_>,
        instance: &Instance,
        seen: &mut Seen,
        head: &mut Vec<Term>,
    ) -> bool {
        match self {
            TriggerIdentity::Slots(key) => {
                seen.insert(TriggerFp::of_slots(id, m, key), ()).is_none()
            }
            TriggerIdentity::SlotsUnlessHeadHolds {
                pred,
                head: slots,
                key,
            } => {
                !with_ground_head(m, pred, slots, head, |ground| instance.contains(ground))
                    && seen.insert(TriggerFp::of_slots(id, m, key), ()).is_none()
            }
            TriggerIdentity::GroundHead { pred, head: slots } => {
                with_ground_head(m, pred, slots, head, |ground| {
                    match seen.entry(TriggerFp::of_ground_head(ground)) {
                        Entry::Occupied(_) => false,
                        Entry::Vacant(_) if instance.contains(ground) => false,
                        Entry::Vacant(new) => {
                            new.insert(());
                            true
                        }
                    }
                })
            }
        }
    }
}

/// Calls `f` on the ground head `pred(m(slots))`, built on the stack up
/// to [`ARG_INLINE`] arguments and in `spill` above.
#[inline(always)]
fn with_ground_head<R>(
    m: &SlotBinding<'_>,
    pred: PredId,
    slots: &[u32],
    spill: &mut Vec<Term>,
    f: impl FnOnce(AtomRef<'_>) -> R,
) -> R {
    let mut inline = [Term::Var(VarId(0)); ARG_INLINE];
    let args: &[Term] = match inline.get_mut(..slots.len()) {
        Some(inline) => {
            for (t, &s) in inline.iter_mut().zip(slots) {
                *t = m.get(s);
            }
            inline
        }
        None => {
            spill.clear();
            spill.extend(slots.iter().map(|&s| m.get(s)));
            spill
        }
    };
    f(AtomRef { pred, args })
}

/// The keys of the triggers a run has admitted (see
/// [`TriggerIdentity::admit`]). A map, not a set, for its entry API.
pub type Seen = FxHashMap<TriggerFp, ()>;

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

/// A configured chase engine: the restricted chase under FIFO by
/// default, any [`ChaseVariant`] via [`RestrictedChase::variant`].
#[derive(Debug, Clone)]
pub struct RestrictedChase<'a> {
    set: &'a TgdSet,
    variant: ChaseVariant,
    heartbeat_every: u64,
    profile_sample_every: u64,
}

impl<'a> RestrictedChase<'a> {
    /// Creates an engine running the restricted chase under FIFO, the
    /// fair strategy.
    pub fn new(set: &'a TgdSet) -> Self {
        RestrictedChase {
            set,
            variant: ChaseVariant::default(),
            heartbeat_every: DEFAULT_HEARTBEAT_EVERY,
            profile_sample_every: DEFAULT_PROFILE_SAMPLE_EVERY,
        }
    }

    /// Selects the chase variant the loop runs.
    pub fn variant(mut self, variant: ChaseVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Selects the restricted chase under `strategy`; short for
    /// `variant(ChaseVariant::Restricted(strategy))`.
    pub fn strategy(self, strategy: Strategy) -> Self {
        self.variant(ChaseVariant::Restricted(strategy))
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
    /// see the `profiling` module). `1` spans every pop exactly.
    /// Sampling is deterministic in the pop index. Only consulted when
    /// the observer opts into profiling.
    pub fn profile_sample_every(mut self, pops: u64) -> Self {
        self.profile_sample_every = pops.max(1);
        self
    }

    /// Runs the chase on `database` within `budget`.
    pub fn run(&self, database: &Instance, budget: Budget) -> ChaseRun {
        self.run_observed(database, budget, &mut NullObserver)
    }

    /// Runs the chase, streaming telemetry [`Event`]s to `obs`. With
    /// [`NullObserver`] this monomorphises to exactly the unobserved
    /// loop — `enabled()` is a constant `false` and every emission site
    /// folds away.
    pub fn run_observed<O: ChaseObserver + ?Sized>(
        &self,
        database: &Instance,
        budget: Budget,
        obs: &mut O,
    ) -> ChaseRun {
        self.run_governed(database, &ResourceGovernor::from_budget(budget), obs, None)
    }

    /// Runs the chase under a full [`ResourceGovernor`] (budget +
    /// deadline + cancellation + fault plan). The governor is polled
    /// before seed discovery and at the top of every queue iteration;
    /// an interrupted run emits one [`Event::RunInterrupted`] and
    /// returns the truthful partial result (valid instance, step count
    /// and step log for the work actually performed).
    ///
    /// `scratch`: `Some` borrows the matcher arenas from a caller's
    /// [`ChaseScratch`], so a resident process (the chase server's
    /// session runners) keeps them warm across many runs; `None` runs
    /// with a fresh one. The scratch carries no run-scoped state, so
    /// the run is bit-identical either way.
    ///
    /// When `obs` opts into profiling (see
    /// [`ChaseObserver::profiling`]) the run additionally streams
    /// hierarchical spans (`run → seed | step →
    /// {restriction_check, insert, match}`), periodic memory samples
    /// and progress heartbeats. The profiling stream never influences
    /// the derivation: profiled and unprofiled runs are bit-identical.
    pub fn run_governed<O: ChaseObserver + ?Sized>(
        &self,
        database: &Instance,
        gov: &ResourceGovernor,
        obs: &mut O,
        scratch: Option<&mut ChaseScratch>,
    ) -> ChaseRun {
        let mut fresh = ChaseScratch::default();
        let scratch = scratch.unwrap_or(&mut fresh);
        let run_guard = span_enter(obs, spans::RUN, NO_TGD);
        let run = self.run_inner(database, gov, obs, scratch, false);
        run_guard.exit(obs);
        run.expect("only a cyclic-term stop ends a run without a result")
    }

    /// [`RestrictedChase::run_governed`] that gives up at the first
    /// cyclic Skolem term (see [`crate::skolem`]): `None` when a step
    /// invented one and more triggers were queued, otherwise the run
    /// exactly as [`RestrictedChase::run_governed`] returns it.
    ///
    /// A run that stops here says nothing about termination: a chase
    /// may build a cyclic term and still saturate a few steps later.
    /// The semi-oblivious check on the critical database uses it to
    /// put its full-budget run off until the cheaper evidence is in.
    pub fn run_until_cyclic_term<O: ChaseObserver + ?Sized>(
        &self,
        database: &Instance,
        gov: &ResourceGovernor,
        obs: &mut O,
    ) -> Option<ChaseRun> {
        let run_guard = span_enter(obs, spans::RUN, NO_TGD);
        let run = self.run_inner(database, gov, obs, &mut ChaseScratch::default(), true);
        run_guard.exit(obs);
        run
    }

    /// The chase loop; `None` only when `stop_at_cyclic_term` stopped
    /// it (see [`RestrictedChase::run_until_cyclic_term`]).
    fn run_inner<O: ChaseObserver + ?Sized>(
        &self,
        database: &Instance,
        gov: &ResourceGovernor,
        obs: &mut O,
        scratch: &mut ChaseScratch,
        stop_at_cyclic_term: bool,
    ) -> Option<ChaseRun> {
        let engine = self.variant.kind();
        let restricted = matches!(self.variant, ChaseVariant::Restricted(_));
        let strategy = self.variant.queue_strategy();
        // `Some` exactly when the observer opted into profiling;
        // doubles as the heartbeat reference clock and allocation
        // count, so unprofiled runs never read the clock or walk the
        // instance for samples.
        let run_start = (obs.enabled() && obs.profiling()).then(RunStart::now);
        if let Some(outcome) = gov.interrupted(0) {
            emit(obs, || Event::RunInterrupted {
                engine,
                step: 0,
                // Total: `interrupted` only returns interrupt outcomes.
                reason: outcome
                    .interrupt_reason()
                    .unwrap_or(chase_telemetry::InterruptReason::Deadline),
            });
            return Some(ChaseRun {
                outcome,
                instance: database.clone(),
                steps: 0,
                log: StepLog::default(),
            });
        }
        let ChaseScratch {
            matcher,
            probe,
            binding: check_binding,
            head,
        } = scratch;
        let mut instance = database.clone();
        let mut skolem = SkolemTable::above(
            self.variant.skolem(),
            instance.iter().flat_map(|a| a.args.iter().copied()),
        );
        if stop_at_cyclic_term {
            skolem.track_cycles();
        }
        let mut queue = TriggerQueue::new(strategy, self.set.len());
        // `log.arena` is the flat binding arena backing all queued
        // spans for the whole run; it is bounded by the number of
        // discovered triggers, and an applied step's log entry is its
        // queued span.
        let mut log = StepLog::starting_at(skolem.invented());
        let mut seen: Seen = fx_map();
        let identities: Vec<TriggerIdentity<'_>> = self
            .set
            .tgds()
            .iter()
            .map(|tgd| TriggerIdentity::of(self.variant, tgd))
            .collect();
        let mut rng = match strategy {
            Strategy::Random(seed) => Some(XorShift64::new(seed)),
            _ => None,
        };

        // Seed: all triggers on the database.
        let seed_guard = span_enter(obs, spans::SEED, NO_TGD);
        let _ = for_each_trigger_with(matcher, self.set, &instance, |id, m| {
            if identities[id.index()].admit(id, m, &instance, &mut seen, head) {
                emit_detail(obs, || Event::TriggerDiscovered {
                    engine,
                    tgd: id.0,
                    step: 0,
                });
                queue.push(Queued::store(&mut log.arena, id, m));
            }
            ControlFlow::Continue(())
        });
        seed_guard.exit(obs);
        emit_detail(obs, || Event::QueueDepth {
            engine,
            step: 0,
            depth: queue.len() as u64,
        });

        let mut steps = 0usize;
        let mut pop_idx: u64 = 0;
        let mut added: Vec<Atom> = Vec::new();
        let mut new_slots: Vec<usize> = Vec::new();
        loop {
            if let Some(outcome) = gov.interrupted(steps) {
                emit(obs, || Event::RunInterrupted {
                    engine,
                    step: steps as u64,
                    // Total: `interrupted` only returns interrupt outcomes.
                    reason: outcome
                        .interrupt_reason()
                        .unwrap_or(chase_telemetry::InterruptReason::Deadline),
                });
                if let Some(start) = run_start {
                    emit_profile_sample(
                        obs,
                        engine,
                        start,
                        &instance,
                        steps as u64,
                        queue.len() as u64,
                    );
                }
                return Some(ChaseRun {
                    outcome,
                    instance,
                    steps,
                    log,
                });
            }
            let Some(popped) = queue.pop(strategy, &mut rng) else {
                break;
            };
            if stop_at_cyclic_term && skolem.cyclic_term_invented() {
                return None;
            }
            let sampled = pop_idx.is_multiple_of(self.profile_sample_every);
            pop_idx += 1;
            let step_guard = span_enter_sampled(obs, spans::STEP, popped.tgd.0, sampled, None);
            let tgd = self.set.tgd(popped.tgd);
            // Adjacent span boundaries share one clock reading
            // (`exit_now`/`_at`) to keep profiling overhead within the
            // gate's budget.
            let mut check_end = step_guard.start();
            check_binding.clear();
            for &(v, t) in popped.pairs(&log.arena) {
                check_binding.push(v, t);
            }
            if restricted {
                let check_guard = span_enter_sampled(
                    obs,
                    spans::RESTRICTION_CHECK,
                    popped.tgd.0,
                    sampled,
                    check_end,
                );
                let active = !head_satisfied_with(probe, tgd, &instance, check_binding);
                check_end = check_guard.exit_now(obs);
                emit_detail(obs, || Event::TriggerChecked {
                    engine,
                    tgd: popped.tgd.0,
                    step: steps as u64,
                    active,
                });
                if !active {
                    emit_detail(obs, || Event::TriggerDeactivated {
                        engine,
                        tgd: popped.tgd.0,
                        step: steps as u64,
                    });
                    step_guard.exit_at(obs, check_end);
                    continue; // deactivated since discovery — monotone, stays so
                }
            }
            if gov.budget_exhausted(steps, instance.len()) {
                // Put it back so the caller can inspect pending work.
                queue.unpop(popped);
                step_guard.exit(obs);
                if let Some(start) = run_start {
                    emit_profile_sample(
                        obs,
                        engine,
                        start,
                        &instance,
                        steps as u64,
                        queue.len() as u64,
                    );
                }
                return Some(ChaseRun {
                    outcome: Outcome::BudgetExhausted,
                    instance,
                    steps,
                    log,
                });
            }
            let insert_guard =
                span_enter_sampled(obs, spans::INSERT, popped.tgd.0, sampled, check_end);
            new_slots.clear();
            let mut fresh_atoms = 0u32;
            let nulls_before = skolem.fresh_nulls(popped.tgd, tgd, check_binding);
            let nulls_after = skolem.invented();
            Trigger::result_named(tgd, check_binding, nulls_before, &mut added);
            for atom in added.drain(..) {
                let predicate = atom.pred.0;
                let (slot, fresh) = instance.insert(atom);
                emit_detail(obs, || Event::AtomInserted {
                    engine,
                    predicate,
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
                    engine,
                    null,
                    step: steps as u64,
                });
            }
            emit(obs, || Event::TriggerApplied {
                engine,
                tgd: popped.tgd.0,
                step: steps as u64,
                new_atoms: fresh_atoms,
                new_nulls: nulls_after - nulls_before,
            });
            if restricted {
                log.steps.push((popped.tgd, popped.start, popped.len));
            }
            // Delta discovery: only triggers using a fresh atom.
            let match_guard =
                span_enter_sampled(obs, spans::MATCH, popped.tgd.0, sampled, insert_end);
            for &slot in &new_slots {
                let _ = for_each_trigger_using_with(matcher, self.set, &instance, slot, |id, m| {
                    if identities[id.index()].admit(id, m, &instance, &mut seen, head) {
                        emit_detail(obs, || Event::TriggerDiscovered {
                            engine,
                            tgd: id.0,
                            step: steps as u64,
                        });
                        queue.push(Queued::store(&mut log.arena, id, m));
                    }
                    ControlFlow::Continue(())
                });
            }
            let match_end = match_guard.exit_now(obs);
            emit_detail(obs, || Event::QueueDepth {
                engine,
                step: steps as u64,
                depth: queue.len() as u64,
            });
            step_guard.exit_at(obs, match_end);
            if let Some(start) = run_start {
                if (steps as u64).is_multiple_of(self.heartbeat_every) {
                    emit_profile_sample(
                        obs,
                        engine,
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
            engine,
            step: steps as u64,
            depth: queue.len() as u64,
        });
        if let Some(start) = run_start {
            emit_profile_sample(obs, engine, start, &instance, steps as u64, 0);
        }
        Some(ChaseRun {
            outcome: Outcome::Terminated,
            instance,
            steps,
            log,
        })
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
        run_variant(src, ChaseVariant::Restricted(strategy), budget)
    }

    fn run_variant(
        src: &str,
        variant: ChaseVariant,
        budget: Budget,
    ) -> (ChaseRun, TgdSet, Instance) {
        let mut vocab = Vocabulary::new();
        let p = parse_program(src, &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let run = RestrictedChase::new(&set)
            .variant(variant)
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
        let replayed = run.derivation(&set).validate(&db, &set, true).unwrap();
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

    /// Under FIFO a single-head full TGD's trigger is queued only while
    /// its ground head is missing and no earlier queued trigger has the
    /// same head, so every queued trigger fires.
    #[test]
    fn fifo_closure_queues_only_triggers_that_fire() {
        use chase_telemetry::{names, CountingObserver};
        let src = "
            E(a,b). E(b,c). E(c,d). E(d,a). E(a,c). E(b,d).
            E(x,y) -> P(x,y).
            E(x,y), P(y,z) -> P(x,z).
            E(x,y), E(y,z) -> E(x,z).
        ";
        let mut vocab = Vocabulary::new();
        let p = parse_program(src, &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let mut obs = CountingObserver::new();
        let run =
            RestrictedChase::new(&set).run_observed(&p.database, Budget::steps(1000), &mut obs);
        assert_eq!(run.outcome, Outcome::Terminated);
        // E and P both close to the full 4x4 relation.
        assert_eq!(run.instance.len(), 32);
        let s = obs.summary();
        assert_eq!(s.counter(names::TRIGGERS_DEACTIVATED), Some(0));
        assert_eq!(
            s.counter(names::TRIGGERS_DISCOVERED),
            s.counter(names::TRIGGERS_APPLIED)
        );
        assert_eq!(s.counter(names::TRIGGERS_APPLIED), Some(run.steps as u64));
        // The random strategy keeps queueing them: its draws depend on
        // the queue length.
        let mut obs = CountingObserver::new();
        RestrictedChase::new(&set)
            .strategy(Strategy::Random(3))
            .run_observed(&p.database, Budget::steps(1000), &mut obs);
        assert!(obs.summary().counter(names::TRIGGERS_DEACTIVATED) > Some(0));
    }

    /// Under FIFO an existential TGD's trigger is queued only for a
    /// frontier image no earlier trigger of that TGD had. A body with
    /// an atom off the frontier (`P0(a,b)` below; frontier `{c}`) used
    /// to queue one trigger per pair of `P0` atoms.
    #[test]
    fn fifo_queues_one_trigger_per_frontier_image() {
        use crate::seed::SeedRestrictedChase;
        use chase_core::hom::for_each_homomorphism;
        use chase_telemetry::{names, CountingObserver};
        let src = "
            P0(a,b). P0(b,c). P0(c,d). P1(a,b). P1(c,b).
            P0(a,b), P0(c,d) -> exists e. P0(e,c).
            P0(x,y) -> exists e. P0(x,e).
            P1(a,b), P1(c,b) -> P0(b,b).
        ";
        let mut vocab = Vocabulary::new();
        let p = parse_program(src, &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let budget = Budget::steps(150);
        let mut obs = CountingObserver::new();
        let run = RestrictedChase::new(&set).run_observed(&p.database, budget, &mut obs);
        let oracle = SeedRestrictedChase::new(&set).run(&p.database, budget);
        assert_eq!(run.outcome, Outcome::BudgetExhausted);
        assert_eq!(run.steps, oracle.steps);
        assert_eq!(run.instance, oracle.instance);
        // Every discovered trigger's body lies in the final instance, so
        // its distinct (TGD, frontier image) pairs bound the queue.
        let (mut images, mut bindings) = (chase_core::ids::fx_set::<(TgdId, Vec<Term>)>(), 0u64);
        for (i, tgd) in set.tgds().iter().enumerate() {
            let mut binding = chase_core::subst::Binding::new();
            let _ = for_each_homomorphism(tgd.body(), &run.instance, &mut binding, |h| {
                let image = tgd.frontier().iter().map(|&v| h.get(v).unwrap());
                images.insert((TgdId(i as u32), image.collect()));
                bindings += 1;
                ControlFlow::Continue(())
            });
        }
        let discovered = obs.summary().counter(names::TRIGGERS_DISCOVERED).unwrap();
        assert!(
            discovered <= images.len() as u64,
            "{discovered} discovered, {} frontier images",
            images.len()
        );
        assert!(
            10 * discovered < bindings,
            "{discovered} of {bindings} body bindings"
        );
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
        assert!((0..run.log.len()).all(|i| run.log.tgd(i) == TgdId(0)));
    }

    #[test]
    fn intro_example_diverges_obliviously() {
        // The restricted chase performs 0 steps here; the oblivious
        // chase builds R(a,ν0), R(a,ν1), ... without bound (§1).
        let (run, _, _) = run_variant(
            "R(a,b). R(x,y) -> exists z. R(x,z).",
            ChaseVariant::Oblivious,
            Budget::steps(50),
        );
        assert_eq!(run.outcome, Outcome::BudgetExhausted);
        assert_eq!(run.instance.len(), 51);
        assert!(run.log.is_empty());
    }

    #[test]
    fn full_tgds_reach_fixpoint() {
        let (run, set, _) = run_variant(
            "E(a,b). E(b,c). E(x,y), E(y,z) -> E(x,z).",
            ChaseVariant::Oblivious,
            Budget::steps(1000),
        );
        assert_eq!(run.outcome, Outcome::Terminated);
        assert!(satisfies_all(&run.instance, &set));
        // transitive closure of a 2-path: E(a,b), E(b,c), E(a,c)
        assert_eq!(run.instance.len(), 3);
    }

    #[test]
    fn oblivious_result_is_a_model_when_terminating() {
        let (run, set, _) = run_variant(
            "R(a,b). R(x,y) -> exists z. S(y,z). S(u,v) -> T(u).",
            ChaseVariant::Oblivious,
            Budget::steps(1000),
        );
        assert_eq!(run.outcome, Outcome::Terminated);
        assert!(satisfies_all(&run.instance, &set));
    }

    #[test]
    fn semi_oblivious_is_coarser() {
        // σ: R(x,y) -> exists z. S(x,z). Two triggers share frontier x=a:
        // the oblivious chase invents two nulls, the semi-oblivious one.
        let src = "R(a,b). R(a,c). R(x,y) -> exists z. S(x,z).";
        let (full, _, _) = run_variant(src, ChaseVariant::Oblivious, Budget::steps(100));
        let (semi, _, _) = run_variant(src, ChaseVariant::SemiOblivious, Budget::steps(100));
        assert_eq!(full.outcome, Outcome::Terminated);
        assert_eq!(semi.outcome, Outcome::Terminated);
        assert_eq!(full.instance.len(), 4); // 2 db + 2 S-atoms
        assert_eq!(semi.instance.len(), 3); // 2 db + 1 S-atom
    }

    /// The semi-oblivious run of `src` until its first cyclic term,
    /// and the same run without that stop.
    fn semi_until_cyclic(src: &str) -> (Option<ChaseRun>, ChaseRun) {
        let mut vocab = Vocabulary::new();
        let p = parse_program(src, &mut vocab).unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let engine = RestrictedChase::new(&set).variant(ChaseVariant::SemiOblivious);
        let gov = ResourceGovernor::from_budget(Budget::steps(200));
        let short = engine.run_until_cyclic_term(&p.database, &gov, &mut NullObserver);
        (
            short,
            engine.run_governed(&p.database, &gov, &mut NullObserver, None),
        )
    }

    #[test]
    fn run_until_cyclic_term_stops_only_at_a_nested_skolem_term() {
        // Right recursion nests its null in its own symbol at once.
        let (short, full) = semi_until_cyclic("R(a,a). R(x,y) -> exists z. R(y,z).");
        assert!(short.is_none());
        assert_eq!(full.outcome, Outcome::BudgetExhausted);
        // Left recursion never nests: the short run is the full run.
        let (short, full) = semi_until_cyclic("R(a,a). R(x,y) -> exists z. R(x,z).");
        let short = short.expect("no cyclic term");
        assert_eq!(full.outcome, Outcome::Terminated);
        assert_eq!((short.outcome, short.steps), (full.outcome, full.steps));
        assert_eq!(short.instance, full.instance);
        // A cyclic term is not divergence: B(n0,n1) nests n1 = f(n0),
        // but n0 has no D-fact, so E(n1) is the last step.
        let (short, full) = semi_until_cyclic(
            "A(c). B(c,c). D(c).
             A(x) -> exists z. B(x,z).
             B(x,y), D(x) -> A(y).
             B(x,y) -> E(y).",
        );
        assert!(short.is_none());
        assert_eq!(full.outcome, Outcome::Terminated);
    }

    /// A head that repeats an existential variable reuses its null
    /// within the trigger, in every variant and on multi-head TGDs,
    /// and the counter-named nulls match the seed oracles' memoised
    /// ones exactly.
    #[test]
    fn repeated_existential_reuses_its_null_within_the_trigger() {
        use crate::seed::{SeedObliviousChase, SeedRestrictedChase};
        for src in [
            "R(a,b). R(b,c).
             R(x,y) -> exists z. S(y,z,z).
             S(x,y,y) -> exists u. R(y,u).",
            "R(a,b). R(b,c).
             R(x,y) -> exists z. S(y,z,z), T(z,x,z).
             S(x,y,y) -> exists u,w. R(y,u), T(w,u,w).",
        ] {
            let mut vocab = Vocabulary::new();
            let p = parse_program(src, &mut vocab).unwrap();
            let set = p.tgd_set(&vocab).unwrap();
            let budget = Budget::steps(12);
            for variant in [
                ChaseVariant::Restricted(Strategy::Fifo),
                ChaseVariant::Oblivious,
                ChaseVariant::SemiOblivious,
            ] {
                let run = RestrictedChase::new(&set)
                    .variant(variant)
                    .run(&p.database, budget);
                let oracle = match variant {
                    ChaseVariant::Restricted(strategy) => SeedRestrictedChase::new(&set)
                        .strategy(strategy)
                        .run(&p.database, budget),
                    ChaseVariant::Oblivious => {
                        SeedObliviousChase::new(&set).run(&p.database, budget)
                    }
                    ChaseVariant::SemiOblivious => SeedObliviousChase::new(&set)
                        .semi_oblivious()
                        .run(&p.database, budget),
                };
                assert_eq!(run.outcome, oracle.outcome, "{variant:?}");
                assert_eq!(run.steps, oracle.steps, "{variant:?}");
                assert_eq!(run.instance, oracle.instance, "{variant:?}");
                // S(_, z, z) and T(w, _, w): the repeated positions
                // carry one null.
                let mut repeats = 0;
                for atom in run.instance.iter() {
                    let pair = match vocab.pred_name(atom.pred) {
                        "S" => (atom.args[1], atom.args[2]),
                        "T" => (atom.args[0], atom.args[2]),
                        _ => continue,
                    };
                    assert!(pair.0.is_null(), "{variant:?}: {atom:?}");
                    assert_eq!(pair.0, pair.1, "{variant:?}: {atom:?}");
                    repeats += 1;
                }
                assert!(repeats >= 2, "{variant:?}: {repeats} repeating atoms");
            }
        }
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
        let (a, _, _) = run_variant(src, ChaseVariant::Oblivious, Budget::steps(200));
        let (b, _, _) = run_variant(src, ChaseVariant::Oblivious, Budget::steps(200));
        assert_eq!(a.instance, b.instance);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn oblivious_contains_restricted_result() {
        let src = "
            R(a,b).
            R(x,y) -> exists z. S(y,z).
            S(x,y) -> T(x).
        ";
        let (r, _, _) = run(src, Strategy::Fifo, Budget::steps(1000));
        let (o, _, _) = run_variant(src, ChaseVariant::Oblivious, Budget::steps(1000));
        // The restricted result maps homomorphically into the oblivious
        // chase (both are universal models here), and is no larger.
        assert!(r.instance.len() <= o.instance.len());
        assert!(chase_core::hom::ground_homomorphism_exists(
            &r.instance,
            &o.instance
        ));
    }
}

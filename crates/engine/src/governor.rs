//! Resource governance for chase runs: budgets, wall-clock deadlines
//! and cooperative cancellation.
//!
//! A [`ResourceGovernor`] bundles everything that can stop a chase
//! before its natural fixpoint:
//!
//! * a [`Budget`] bounding trigger applications and instance size;
//! * an optional wall-clock deadline ([`Outcome::DeadlineExceeded`]);
//! * a shared [`CancelToken`] ([`Outcome::Cancelled`]), so a signal
//!   handler, supervisor thread or decider driver can stop a run (or a
//!   whole pipeline of runs — clones share the flag) from outside;
//! * a [`FaultPlan`] for deterministic fault injection in tests.
//!
//! Engines poll [`ResourceGovernor::interrupted`] at their safe points
//! — the top of every queue iteration and before seed discovery — and
//! wind down with a truthful partial [`ChaseRun`](crate::restricted::ChaseRun):
//! the instance, step count and derivation reflect exactly the work
//! performed before the stop. Polling an ungoverned run costs one
//! relaxed atomic load per step; the deadline branch only calls
//! [`Instant::now`] when a deadline is actually set.

use std::time::{Duration, Instant};

use chase_core::cancel::CancelToken;
use chase_telemetry::InterruptReason;

use crate::faults::FaultPlan;

/// Resource budget for a chase run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum number of trigger applications.
    pub max_steps: usize,
    /// Maximum number of atoms in the instance (including the
    /// database); exceeded ⇒ the run stops with
    /// [`Outcome::BudgetExhausted`].
    pub max_atoms: usize,
}

impl Budget {
    /// A budget bounding only the number of steps.
    pub fn steps(max_steps: usize) -> Self {
        Budget {
            max_steps,
            max_atoms: usize::MAX,
        }
    }

    /// A budget bounding steps and atoms.
    pub fn new(max_steps: usize, max_atoms: usize) -> Self {
        Budget {
            max_steps,
            max_atoms,
        }
    }

    /// No bound on steps or atoms (combine with a deadline or a
    /// cancellation token, or the run may never stop).
    pub fn unbounded() -> Self {
        Budget {
            max_steps: usize::MAX,
            max_atoms: usize::MAX,
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unbounded()
    }
}

/// How a chase run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// No active trigger remains: the derivation is finite and its
    /// result satisfies the TGD set.
    Terminated,
    /// The budget ran out with active triggers still pending. This is
    /// evidence (not proof) of non-termination.
    BudgetExhausted,
    /// The wall-clock deadline passed before the run finished. The
    /// partial result is valid but proves nothing about termination.
    DeadlineExceeded,
    /// Cancellation was requested through the run's [`CancelToken`].
    /// The partial result is valid but proves nothing about
    /// termination.
    Cancelled,
}

impl Outcome {
    /// The outcome's one name: server replies carry it as is, and
    /// `chasectl` prints it with spaces for underscores.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Terminated => "terminated",
            Outcome::BudgetExhausted => "budget_exhausted",
            Outcome::DeadlineExceeded => "deadline_exceeded",
            Outcome::Cancelled => "cancelled",
        }
    }

    /// The outcome called `name` (the inverse of [`Outcome::name`]).
    pub fn from_name(name: &str) -> Option<Outcome> {
        [
            Outcome::Terminated,
            Outcome::BudgetExhausted,
            Outcome::DeadlineExceeded,
            Outcome::Cancelled,
        ]
        .into_iter()
        .find(|o| o.name() == name)
    }

    /// `true` for the externally imposed stops ([`Outcome::DeadlineExceeded`],
    /// [`Outcome::Cancelled`]) as opposed to the chase-internal ones.
    pub fn is_interrupted(self) -> bool {
        matches!(self, Outcome::DeadlineExceeded | Outcome::Cancelled)
    }

    /// The telemetry reason for interrupted outcomes, `None` otherwise.
    pub fn interrupt_reason(self) -> Option<InterruptReason> {
        match self {
            Outcome::DeadlineExceeded => Some(InterruptReason::Deadline),
            Outcome::Cancelled => Some(InterruptReason::Cancelled),
            Outcome::Terminated | Outcome::BudgetExhausted => None,
        }
    }
}

/// Everything that can stop a chase run early; see the module docs.
///
/// The default governor is fully permissive: unbounded budget, no
/// deadline, a fresh (uncancelled) token and no faults.
#[derive(Debug, Clone, Default)]
pub struct ResourceGovernor {
    budget: Budget,
    deadline: Option<Instant>,
    cancel: CancelToken,
    faults: FaultPlan,
}

impl ResourceGovernor {
    /// A fully permissive governor.
    pub fn new() -> Self {
        ResourceGovernor::default()
    }

    /// A governor enforcing only `budget` (the classic configuration;
    /// [`RestrictedChase::run`](crate::restricted::RestrictedChase::run)
    /// uses exactly this).
    pub fn from_budget(budget: Budget) -> Self {
        ResourceGovernor {
            budget,
            ..ResourceGovernor::default()
        }
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `timeout` from now.
    pub fn with_deadline_in(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Shares `cancel` with this governor: cancelling any clone of the
    /// token stops every run governed through it.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Installs a deterministic fault plan (tests only in practice).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The governed budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The shared cancellation token (clone it to keep a handle).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Polled by engines at safe points: returns the outcome the run
    /// must stop with, or `None` to continue. `steps` is the number of
    /// trigger applications performed so far (it drives the fault
    /// plan's step-indexed faults).
    ///
    /// Precedence: an injected cancellation trips the real token first,
    /// so cancellation (however requested) wins over deadlines; an
    /// injected deadline wins over the wall clock (which is only
    /// consulted when a deadline is actually set).
    ///
    /// An armed [`FaultPlan::task_panic_at_step`] fires here, before
    /// anything else — a simulated crash does not negotiate with
    /// cancellation. The panic unwinds the engine call; it is
    /// contained only by a task-level `catch_unwind` boundary
    /// ([`crate::task::run_chase_task`], the chase server's
    /// per-session containment).
    pub fn interrupted(&self, steps: usize) -> Option<Outcome> {
        if self.faults.task_panic_due(steps) {
            crate::faults::inject_panic();
        }
        if self.faults.cancel_due(steps) {
            self.cancel.cancel();
        }
        if self.cancel.is_cancelled() {
            return Some(Outcome::Cancelled);
        }
        if self.faults.deadline_due(steps) {
            return Some(Outcome::DeadlineExceeded);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(Outcome::DeadlineExceeded);
            }
        }
        None
    }

    /// Whether the budget is spent at `steps` applications and `atoms`
    /// instance atoms.
    pub fn budget_exhausted(&self, steps: usize, atoms: usize) -> bool {
        steps >= self.budget.max_steps || atoms >= self.budget.max_atoms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_governor_never_interrupts() {
        let gov = ResourceGovernor::new();
        assert_eq!(gov.interrupted(0), None);
        assert_eq!(gov.interrupted(1_000_000), None);
        assert!(!gov.budget_exhausted(1_000_000, 1_000_000));
    }

    #[test]
    fn budget_exhaustion_matches_budget() {
        let gov = ResourceGovernor::from_budget(Budget::new(5, 10));
        assert!(!gov.budget_exhausted(4, 9));
        assert!(gov.budget_exhausted(5, 0));
        assert!(gov.budget_exhausted(0, 10));
        // Budget exhaustion is not an interruption.
        assert_eq!(gov.interrupted(5), None);
    }

    #[test]
    fn expired_deadline_interrupts_immediately() {
        let gov = ResourceGovernor::new().with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(gov.interrupted(0), Some(Outcome::DeadlineExceeded));
    }

    #[test]
    fn future_deadline_does_not_interrupt() {
        let gov = ResourceGovernor::new().with_deadline_in(Duration::from_secs(3600));
        assert_eq!(gov.interrupted(0), None);
    }

    #[test]
    fn cancellation_wins_over_deadline() {
        let token = CancelToken::new();
        let gov = ResourceGovernor::new()
            .with_cancel(token.clone())
            .with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(gov.interrupted(0), Some(Outcome::DeadlineExceeded));
        token.cancel();
        assert_eq!(gov.interrupted(0), Some(Outcome::Cancelled));
    }

    #[test]
    fn injected_cancel_trips_the_shared_token() {
        let token = CancelToken::new();
        let gov = ResourceGovernor::new()
            .with_cancel(token.clone())
            .with_faults(FaultPlan {
                cancel_at_step: Some(3),
                ..FaultPlan::default()
            });
        assert_eq!(gov.interrupted(2), None);
        assert!(!token.is_cancelled());
        assert_eq!(gov.interrupted(3), Some(Outcome::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn injected_deadline_is_step_indexed() {
        let gov = ResourceGovernor::new().with_faults(FaultPlan {
            deadline_at_step: Some(2),
            ..FaultPlan::default()
        });
        assert_eq!(gov.interrupted(1), None);
        assert_eq!(gov.interrupted(2), Some(Outcome::DeadlineExceeded));
        assert_eq!(gov.interrupted(7), Some(Outcome::DeadlineExceeded));
    }

    #[test]
    fn outcome_interrupt_reasons() {
        assert_eq!(Outcome::Terminated.interrupt_reason(), None);
        assert_eq!(Outcome::BudgetExhausted.interrupt_reason(), None);
        assert_eq!(
            Outcome::DeadlineExceeded.interrupt_reason(),
            Some(InterruptReason::Deadline)
        );
        assert_eq!(
            Outcome::Cancelled.interrupt_reason(),
            Some(InterruptReason::Cancelled)
        );
        assert!(Outcome::Cancelled.is_interrupted());
        assert!(!Outcome::Terminated.is_interrupted());
    }

    #[test]
    fn outcome_names_round_trip() {
        for outcome in [
            Outcome::Terminated,
            Outcome::BudgetExhausted,
            Outcome::DeadlineExceeded,
            Outcome::Cancelled,
        ] {
            assert_eq!(Outcome::from_name(outcome.name()), Some(outcome));
        }
        assert_eq!(Outcome::DeadlineExceeded.name(), "deadline_exceeded");
        assert_eq!(Outcome::from_name("deadline exceeded"), None);
    }
}

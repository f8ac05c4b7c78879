//! Shared verdict and configuration types for the termination
//! deciders.

use std::time::Duration;

use chase_core::cancel::CancelToken;
use chase_core::instance::Instance;
use chase_engine::derivation::Derivation;
use chase_engine::governor::{Outcome, ResourceGovernor};

/// How a positive (terminating) verdict was established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TerminationCertificate {
    /// Emptiness of the sticky Büchi automaton `A_T` (Theorem 6.1):
    /// no finitary caterpillar exists, hence no database admits an
    /// infinite restricted chase derivation.
    StickyAutomatonEmpty {
        /// Reachable product-automaton states explored.
        states: usize,
    },
    /// The set is weakly acyclic.
    WeaklyAcyclic,
    /// The set is jointly acyclic (Krötzsch & Rudolph), which implies
    /// semi-oblivious — hence restricted — termination everywhere.
    JointlyAcyclic,
    /// The semi-oblivious chase terminates on the critical database
    /// (Marnette's criterion), which implies restricted termination
    /// for every database.
    SemiObliviousCritical {
        /// Steps to saturate the critical database.
        steps: usize,
    },
    /// Exhaustive bounded search: every seed chase terminated and no
    /// pumpable pattern exists within the explored radius. Only
    /// reported when the configured bound is declared sufficient for
    /// the input family; otherwise the decider returns
    /// [`TerminationVerdict::Unknown`].
    ExhaustedSearch {
        /// Number of seed databases explored.
        seeds: usize,
    },
}

/// Evidence of non-termination: a concrete database together with a
/// long validated restricted chase derivation exhibiting a pumpable
/// pattern.
#[derive(Debug, Clone)]
pub struct NonTerminationWitness {
    /// The witness database.
    pub database: Instance,
    /// A validated derivation from `database` (path-shaped for the
    /// sticky decider: the realised caterpillar body).
    pub derivation: Derivation,
    /// Human-readable description of the pumpable structure (e.g. the
    /// caterpillar word `u·vᵚ`).
    pub description: String,
    /// Whether the witness database is finite *and* the derivation was
    /// produced by a periodic pattern whose legs were unified into a
    /// finite set (a finitary caterpillar realisation). Always true
    /// for verdicts produced by the public deciders; exposed for
    /// diagnostics.
    pub finitary: bool,
}

/// The answer to "is `T ∈ CT^res_∀∀`?".
#[derive(Debug, Clone)]
pub enum TerminationVerdict {
    /// Every restricted chase derivation of every database is finite.
    AllInstancesTerminating(TerminationCertificate),
    /// Some database admits an infinite (hence, by the Fairness
    /// Theorem, a fair infinite) restricted chase derivation.
    NonTerminating(Box<NonTerminationWitness>),
    /// The decider could not conclude within its resource bounds.
    Unknown {
        /// What ran out or failed.
        reason: String,
    },
}

impl TerminationVerdict {
    /// `true` for [`TerminationVerdict::AllInstancesTerminating`].
    pub fn is_terminating(&self) -> bool {
        matches!(self, TerminationVerdict::AllInstancesTerminating(_))
    }

    /// `true` for [`TerminationVerdict::NonTerminating`].
    pub fn is_non_terminating(&self) -> bool {
        matches!(self, TerminationVerdict::NonTerminating(_))
    }

    /// `true` for [`TerminationVerdict::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, TerminationVerdict::Unknown { .. })
    }

    /// The `Unknown` verdict of a decision that a deadline or a
    /// cancellation (`outcome`) stopped; `at` names where, e.g.
    /// `"before classification"`.
    pub(crate) fn interrupted(outcome: Outcome, at: &str) -> TerminationVerdict {
        let cause = match outcome {
            Outcome::Cancelled => "cancelled",
            _ => "deadline exceeded",
        };
        TerminationVerdict::Unknown {
            reason: format!("{cause} {at}"),
        }
    }
}

/// Resource configuration for the deciders.
#[derive(Debug, Clone)]
pub struct DeciderConfig {
    /// Cap on product-automaton states for the sticky decider.
    pub max_automaton_states: usize,
    /// Steps used when replaying/validating a non-termination witness.
    pub witness_steps: usize,
    /// Chase budget for the guarded seed search and the baseline
    /// criteria.
    pub chase_budget: usize,
    /// Maximum seed databases for the guarded detector.
    pub max_seeds: usize,
    /// Optional wall-clock deadline for the whole decision, measured
    /// from the `decide` call and enforced inside the sticky emptiness
    /// search and the guarded decider's chases too. Expiry yields a truthful
    /// [`TerminationVerdict::Unknown`] whose reason starts with
    /// `"deadline exceeded"`.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation for the whole decision: cancel any
    /// clone of this token and `decide` returns
    /// [`TerminationVerdict::Unknown`] (reason prefix `"cancelled"`)
    /// at its next phase boundary, sticky emptiness poll or
    /// guarded-decider chase step.
    pub cancel: CancelToken,
}

impl DeciderConfig {
    /// The [`ResourceGovernor`] enforcing this configuration's
    /// deadline and cancellation (the per-chase budgets stay with the
    /// individual deciders). The deadline clock starts *now*.
    pub fn governor(&self) -> ResourceGovernor {
        let gov = ResourceGovernor::new().with_cancel(self.cancel.clone());
        match self.deadline {
            Some(timeout) => gov.with_deadline_in(timeout),
            None => gov,
        }
    }
}

impl Default for DeciderConfig {
    fn default() -> Self {
        DeciderConfig {
            max_automaton_states: 2_000_000,
            witness_steps: 60,
            chase_budget: 20_000,
            max_seeds: 64,
            deadline: None,
            cancel: CancelToken::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_predicates() {
        let t = TerminationVerdict::AllInstancesTerminating(TerminationCertificate::WeaklyAcyclic);
        assert!(t.is_terminating() && !t.is_non_terminating() && !t.is_unknown());
        let u = TerminationVerdict::Unknown {
            reason: "cap".into(),
        };
        assert!(u.is_unknown());
    }

    #[test]
    fn default_config_sane() {
        let c = DeciderConfig::default();
        assert!(c.max_automaton_states > 1000);
        assert!(c.witness_steps >= 10);
    }
}

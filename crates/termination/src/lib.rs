//! # chase-termination
//!
//! Decision procedures for **all-instances restricted chase
//! termination** (`CT^res_∀∀`), reproducing *All-Instances Restricted
//! Chase Termination* (Gogacz, Marcinkowski & Pieris, PODS 2020):
//!
//! * [`sticky`] — the complete decision procedure for sticky
//!   single-head TGDs (Theorem 6.1) via emptiness of a Büchi automaton
//!   over caterpillar words (Appendix D.2), with replay-validated
//!   non-termination witnesses (finitary caterpillar realisations);
//! * [`guarded`] — the guarded procedure (Theorem 5.1) with the
//!   documented substitution of DESIGN.md §4.2 for the MSOL step:
//!   faithful sideatom types, abstract join trees and treeification,
//!   plus a certificate-producing portfolio decider;
//! * [`decide`] — the top-level dispatcher.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod common;
pub mod guarded;
pub mod linear;
pub mod orders;
pub mod partitions;
pub mod report;
pub mod sticky;

use chase_core::tgd::TgdSet;
use chase_core::vocab::Vocabulary;
use chase_telemetry::{
    time_phase, ChaseObserver, CountingObserver, NullObserver, TelemetrySummary,
};
use tgd_classes::sticky::is_sticky;

pub use common::{
    DeciderConfig, NonTerminationWitness, TerminationCertificate, TerminationVerdict,
};

/// Decides `CT^res_∀∀` for a single-head TGD set, dispatching on its
/// class: sticky sets get the exact automaton procedure, everything
/// else the guarded/portfolio decider.
pub fn decide(set: &TgdSet, vocab: &Vocabulary, config: &DeciderConfig) -> TerminationVerdict {
    decide_observed(set, vocab, config, &mut NullObserver)
}

/// [`decide`], streaming telemetry to `obs`: a `classify` phase span
/// around the stickiness test, then the chosen decider's own phase
/// spans and counters (see the crate-level docs of `chase-telemetry`
/// for the vocabulary). A profiling observer additionally sees the
/// whole decision wrapped in a `decide` span (and the internal chase
/// runs' own profiling streams).
pub fn decide_observed<O: ChaseObserver + ?Sized>(
    set: &TgdSet,
    vocab: &Vocabulary,
    config: &DeciderConfig,
    obs: &mut O,
) -> TerminationVerdict {
    chase_telemetry::in_span(
        obs,
        chase_telemetry::spans::DECIDE,
        chase_telemetry::NO_TGD,
        |obs| decide_inner(set, vocab, config, obs),
    )
}

fn decide_inner<O: ChaseObserver + ?Sized>(
    set: &TgdSet,
    vocab: &Vocabulary,
    config: &DeciderConfig,
    obs: &mut O,
) -> TerminationVerdict {
    // Deadline clock starts here; polled at every phase boundary (and
    // inside the sticky emptiness search and the guarded decider's
    // chases) so a deadline or cancellation yields a truthful
    // `Unknown` instead of a half-finished phase masquerading as a
    // verdict.
    let gov = config.governor();
    let interrupted_before = |gov: &chase_engine::governor::ResourceGovernor,
                              phase: &str|
     -> Option<TerminationVerdict> {
        gov.interrupted(0)
            .map(|outcome| TerminationVerdict::interrupted(outcome, &format!("before {phase}")))
    };
    if set.require_single_head().is_err() {
        return TerminationVerdict::Unknown {
            reason: "multi-head TGDs: the paper's theorems (and the Fairness Theorem they rest \
                     on) require single-head TGDs"
                .into(),
        };
    }
    if let Some(v) = interrupted_before(&gov, "classification") {
        return v;
    }
    let sticky_input = time_phase(obs, "classify", |_| is_sticky(set));
    if sticky_input {
        if let Some(v) = interrupted_before(&gov, "the sticky decision") {
            return v;
        }
        let (v, interrupted) = sticky::decide_sticky_governed(set, vocab, config, &gov, obs);
        // The guarded decider does not retry an interrupted search.
        if !v.is_unknown() || interrupted {
            return v;
        }
    }
    if let Some(v) = interrupted_before(&gov, "the guarded decision") {
        return v;
    }
    guarded::decide_guarded_governed(set, vocab, config, &gov, obs)
}

/// The decider class [`decide`] would dispatch `set` to: `"sticky"`,
/// `"guarded"` or `"multi_head"` (the typed refusal). Purely
/// syntactic, so it is cheap enough to compute per request — the
/// server's decide-memoization cache keys verdicts by program
/// fingerprint × this class, which keeps memoized verdicts honest if a
/// later PR changes the dispatch (a class change invalidates the key).
pub fn decider_class(set: &TgdSet) -> &'static str {
    if set.require_single_head().is_err() {
        "multi_head"
    } else if is_sticky(set) {
        "sticky"
    } else {
        "guarded"
    }
}

/// [`decide`] with a [`TelemetrySummary`] attached: phase wall-clock,
/// trigger/atom counters of the decider's internal chases, automaton
/// state counts and seed counts. This is what `chasectl decide
/// --metrics` and the experiment report surface.
pub fn decide_with_telemetry(
    set: &TgdSet,
    vocab: &Vocabulary,
    config: &DeciderConfig,
) -> (TerminationVerdict, TelemetrySummary) {
    let mut counting = CountingObserver::new();
    let verdict = decide_observed(set, vocab, config, &mut counting);
    (verdict, counting.summary())
}

/// One-stop imports.
pub mod prelude {
    pub use crate::common::{
        DeciderConfig, NonTerminationWitness, TerminationCertificate, TerminationVerdict,
    };
    pub use crate::guarded::{decide_guarded, decide_guarded_observed};
    pub use crate::linear::decide_linear;
    pub use crate::orders::{all_orders_terminate, diverging_subset_run, OrderSearchLimits};
    pub use crate::report::explain;
    pub use crate::sticky::{decide_sticky, decide_sticky_observed};
    pub use crate::{decide, decide_observed, decide_with_telemetry, decider_class};
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_tgds;

    #[test]
    fn dispatch_prefers_the_exact_sticky_decider() {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds("R(x,y) -> exists z. R(y,z).", &mut vocab).unwrap();
        let v = decide(&set, &vocab, &DeciderConfig::default());
        assert!(v.is_non_terminating());
    }

    #[test]
    fn dispatch_falls_back_to_guarded() {
        // Not sticky (paper's non-sticky example) but guarded... it is
        // unguarded too; the portfolio still applies (weak acyclicity).
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(
            "T(x1,y1,z1) -> exists w1. S(x1,w1).
             R(x2,y2), P(y2,z2) -> exists w2. T(x2,y2,w2).",
            &mut vocab,
        )
        .unwrap();
        let v = decide(&set, &vocab, &DeciderConfig::default());
        assert!(v.is_terminating(), "{v:?}");
    }

    #[test]
    fn expired_deadline_yields_truthful_unknown() {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds("R(x,y) -> exists z. R(y,z).", &mut vocab).unwrap();
        let config = DeciderConfig {
            deadline: Some(std::time::Duration::ZERO),
            ..DeciderConfig::default()
        };
        match decide(&set, &vocab, &config) {
            TerminationVerdict::Unknown { reason } => {
                assert!(reason.starts_with("deadline exceeded"), "{reason}")
            }
            v => panic!("expected Unknown, got {v:?}"),
        }
    }

    #[test]
    fn cancelled_decision_yields_truthful_unknown() {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds("R(x,y) -> exists z. R(y,z).", &mut vocab).unwrap();
        let config = DeciderConfig::default();
        config.cancel.cancel();
        match decide(&set, &vocab, &config) {
            TerminationVerdict::Unknown { reason } => {
                assert!(reason.starts_with("cancelled"), "{reason}")
            }
            v => panic!("expected Unknown, got {v:?}"),
        }
    }

    #[test]
    fn multi_head_rejected_at_top_level() {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds("R(x,y) -> S(x), T(y).", &mut vocab).unwrap();
        assert!(decide(&set, &vocab, &DeciderConfig::default()).is_unknown());
    }
}

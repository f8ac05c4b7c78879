//! # tgd-classes
//!
//! Recognisers for the TGD classes of *All-Instances Restricted Chase
//! Termination* (PODS 2020) — guardedness, linearity and stickiness
//! (Section 2) — plus the classic baseline termination criteria used
//! for comparison: weak acyclicity, joint acyclicity and Marnette's
//! critical-database criterion for the semi-oblivious chase.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod guarded;
pub mod jointly_acyclic;
pub mod profile;
pub mod sticky;
pub mod weakly_acyclic;

/// One-stop imports for downstream crates and examples.
pub mod prelude {
    pub use crate::baselines::{semi_oblivious_critical, CriterionOutcome};
    pub use crate::guarded::{all_guarded, all_linear, guard_index, is_guarded, is_linear};
    pub use crate::jointly_acyclic::is_jointly_acyclic;
    pub use crate::profile::ClassProfile;
    pub use crate::sticky::{check_sticky, is_sticky, Marking, StickinessViolation};
    pub use crate::weakly_acyclic::{is_weakly_acyclic, DependencyGraph};
}

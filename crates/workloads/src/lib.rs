//! # chase-workloads
//!
//! Workload generation for the restricted-chase toolkit: parametric
//! TGD families ([`families`]), seeded random rule sets and databases
//! ([`random`]), ontology-scale databases with hundreds of TGDs for
//! thread-scaling benchmarks ([`scale`]), the hand-labelled
//! ground-truth suite covering every example of the paper ([`suite`]),
//! and a timed decider runner over suite entries ([`runner`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod families;
pub mod random;
pub mod runner;
pub mod scale;
pub mod suite;

/// One-stop imports.
pub mod prelude {
    pub use crate::families;
    pub use crate::random::{
        random_database, random_tgds, RandomTgdParams, DECIDE_SWEEP, DECIDE_SWEEP_SEEDS,
    };
    pub use crate::runner::{run_labelled_suite, run_suite_entries, SuiteRun, SuiteRunEntry};
    pub use crate::scale::{scale_workload, ScaleParams, Shape};
    pub use crate::suite::{labelled_suite, Expected, SuiteEntry};
}

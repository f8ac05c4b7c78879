//! # chase-engine
//!
//! Chase procedures over the `chase-core` substrate, implementing
//! Section 3 and Section 4 of *All-Instances Restricted Chase
//! Termination* (Gogacz, Marcinkowski & Pieris, PODS 2020):
//!
//! * [`restricted`] — the one chase loop every optimised engine runs:
//!   the restricted (standard) chase with pluggable, fairness-relevant
//!   strategies, and the oblivious and semi-oblivious chase, selected
//!   by a [`restricted::ChaseVariant`] (which also parses the
//!   `engine`/`strategy`/`seed` names the CLI and the server accept);
//! * [`real_oblivious`] — the real oblivious chase `ochase(D,T)` as a
//!   labelled graph with an unambiguous parent relation (Def 3.3);
//! * [`relations`] — the stop (`≺s`) and before (`≺b`) relations;
//! * [`chaseable`] — chaseable sets and the Theorem 5.3 round-trip;
//! * [`fairness`] — the executable Fairness-Theorem construction;
//! * [`critical`] — the critical database of the oblivious chase;
//! * [`derivation`] — recorded derivations, replay and validation;
//! * [`trigger`] / [`skolem`] — triggers, activeness, null invention;
//! * [`governor`] — budgets, deadlines and cooperative cancellation
//!   for chase runs;
//! * [`faults`] — deterministic fault injection for resilience tests;
//! * [`task`] — owned, panic-contained chase tasks (the unit of work
//!   a resident chase server schedules);
//! * [`seed`] — frozen pre-optimisation engines (equivalence oracle
//!   and benchmark baseline).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaseable;
pub mod critical;
pub mod derivation;
pub mod dot;
pub mod fairness;
pub mod faults;
pub mod governor;
pub(crate) mod profiling;
pub use profiling::DEFAULT_PROFILE_SAMPLE_EVERY;
pub mod query;
pub mod real_oblivious;
pub mod relations;
pub mod restricted;
pub mod seed;
pub mod skolem;
pub mod task;
pub mod trigger;
pub mod universal;

/// One-stop imports for downstream crates and examples.
pub mod prelude {
    pub use crate::chaseable::{
        chaseable_from_derivation, check_chaseable, derivation_from_chaseable, ChaseableFault,
    };
    pub use crate::critical::critical_database;
    pub use crate::derivation::{Derivation, DerivationFault, Step, StepLog};
    pub use crate::dot::derivation_to_dot;
    pub use crate::fairness::{is_fair_within_horizon, persistently_active, repair, RepairOutcome};
    pub use crate::faults::{FaultPlan, FlakyWriter};
    pub use crate::governor::ResourceGovernor;
    pub use crate::query::{ConjunctiveQuery, QueryError};
    pub use crate::real_oblivious::{NodeId, OchaseLimits, OchaseNode, RealOchase};
    pub use crate::relations::{stops, OchaseRelations};
    pub use crate::restricted::{
        Budget, ChaseRun, ChaseVariant, Outcome, RestrictedChase, Strategy,
    };
    pub use crate::seed::{SeedObliviousChase, SeedRestrictedChase};
    pub use crate::skolem::{SkolemPolicy, SkolemTable};
    pub use crate::task::{run_chase_task, ChaseTaskSpec, TaskError, TaskOutput};
    pub use crate::trigger::{active_triggers, all_triggers, ChaseScratch, Trigger, TriggerFp};
    pub use crate::universal::{core_of, is_core};
}

//! Output checks. Every reply is checked after the timed window against
//! references computed outside it: decide verdicts against the hand
//! labels, chase `steps`/`atoms` against the frozen seed oracle
//! ([`SeedRestrictedChase`]) and the chase `fingerprint` against a
//! direct [`run_chase_task`] of the exact text that was sent, compiled
//! once for both.

use chase_core::compile::compile;
use chase_engine::governor::{Budget, Outcome};
use chase_engine::seed::SeedRestrictedChase;
use chase_engine::task::{run_chase_task, ChaseTaskSpec};
use chase_telemetry::NullObserver;

use crate::workload::{verdict_name, Op, Request, MAX_STEPS};

/// What a served `result` line said, reduced to the checked fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A decide verdict (`terminating`, `non_terminating`, `unknown`).
    Verdict(String),
    /// A chase result.
    Chase(ChaseResult),
}

/// The checked fields of a chase result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaseResult {
    /// The run's outcome name.
    pub outcome: String,
    /// Trigger applications.
    pub steps: u64,
    /// Atoms in the result instance.
    pub atoms: u64,
    /// `TaskOutput::fingerprint` in 16 hex digits.
    pub fingerprint: String,
}

/// The reference result of a chase program.
pub fn chase_reference(source: &str) -> Result<ChaseResult, String> {
    let program = compile(source).map_err(|e| format!("reference compile: {e}"))?;
    let oracle = SeedRestrictedChase::new(program.tgd_set())
        .run(program.database(), Budget::steps(MAX_STEPS as usize));
    if oracle.outcome != Outcome::Terminated {
        return Err(format!(
            "reference chase did not terminate within {MAX_STEPS} steps"
        ));
    }
    let spec = ChaseTaskSpec {
        budget: Budget::steps(MAX_STEPS as usize),
        ..ChaseTaskSpec::compiled(program)
    };
    let direct = run_chase_task(&spec, &mut NullObserver, None)
        .map_err(|e| format!("reference run_chase_task: {e}"))?;
    Ok(ChaseResult {
        outcome: "terminated".into(),
        steps: oracle.steps as u64,
        atoms: oracle.instance.len() as u64,
        fingerprint: format!("{:016x}", direct.fingerprint()),
    })
}

/// Checks one served reply against the request's reference. `reference`
/// is consulted only for chase requests.
pub fn check_reply(
    request: &Request,
    reply: &Reply,
    reference: impl FnOnce() -> Result<ChaseResult, String>,
) -> Result<(), String> {
    match (request.op, reply) {
        (Op::Decide, Reply::Verdict(verdict)) => {
            let expected = request
                .expected
                .map(verdict_name)
                .ok_or("decide request without a label")?;
            if verdict == expected {
                Ok(())
            } else {
                Err(format!(
                    "{}: verdict {verdict}, label {expected}",
                    request.family
                ))
            }
        }
        (Op::Chase, Reply::Chase(got)) => {
            let want = reference()?;
            if *got == want {
                Ok(())
            } else {
                Err(format!(
                    "{}: served {got:?}, reference {want:?}",
                    request.family
                ))
            }
        }
        (op, reply) => Err(format!("{op:?} request got {reply:?}")),
    }
}

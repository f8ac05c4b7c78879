//! The chase-server wire protocol: line-delimited **flat JSON**
//! objects in both directions, the same grammar as the telemetry JSONL
//! stream ([`chase_telemetry::json`] is the shared codec: requests are
//! decoded by its parser, every line is encoded by its [`Object`]
//! builder).
//! No nesting, no floats, no nulls — every message is one line of
//! string/integer/boolean pairs, so a `chasectl stats` pipeline can
//! chew on a raw session transcript unchanged.
//!
//! ## Requests (client → server)
//!
//! | `op`       | fields |
//! |------------|--------|
//! | `chase`    | `id`, `program` and/or `program_ref`; optional `tenant`, `engine` (`restricted`\|`oblivious`\|`semi`), `strategy` (`fifo`\|`lifo`\|`random`\|`priority`), `seed` (resolved by [`ChaseVariant::parse`], the CLI's parser too), `max_steps`, `max_atoms`, `deadline_ms`, `telemetry` (bool), fault arms below |
//! | `decide`   | `id`, `program` and/or `program_ref`; optional `tenant`, `deadline_ms`, `telemetry`; the chase-only keys are ignored |
//! | `cancel`   | `id` — trips the session's [`CancelToken`] |
//! | `ping`     | liveness probe |
//! | `shutdown` | optional `mode` (`graceful` default \| `abort`): stop admitting; graceful finishes queued + running sessions, abort additionally trips every live session's cancel token so they wind down with `outcome:"cancelled"` |
//!
//! `program_ref` is the 32-hex-digit order-preserving program id of a
//! previously compiled program
//! ([`chase_core::compile::ProgramFingerprint`]; reformatting and
//! variable renaming keep it, reordering rules or facts changes it):
//! the server answers from its program cache, or replies
//! `unknown_program` so the client falls back to resubmitting full
//! source. When both `program` and
//! `program_ref` are present the reference is tried first and the
//! source is the in-line fallback (one round trip instead of two).
//!
//! Fault arms (tests and the isolation suite only): `fault_cancel_at`,
//! `fault_deadline_at`, `fault_task_panic_at` (step-indexed) and
//! `fault_socket_fail_after` (telemetry writes through the session's
//! connection start failing after N successes).
//!
//! ## Responses (server → client)
//!
//! | `type`         | meaning |
//! |----------------|---------|
//! | `accepted`     | session admitted; carries `program` (the canonical fingerprint, usable as `program_ref` later). Admission's program-cache counter events (`server.program_cache.*`, telemetry sessions only) come before it; every line written for the session after admission — its events and the result — follows it (any interleaving with other sessions on the same connection). A decide whose verdict is memoized is answered at admission: `accepted`, the `server.decide_cache.hits` counter (telemetry sessions), then its `result` |
//! | `event`        | one telemetry event of session `id`: `type` and `id`, then the event's own fields (`event`, `v`, ...) as in a trace line |
//! | `result`       | terminal: `status` is `ok`, `parse_error` or `panicked`. Every `ok` result, chase or decide, carries `events_sent`, `events_dropped` and `elapsed_ms`; a chase adds `outcome`, `steps`, `atoms` and `fingerprint` (hex); a decide adds `verdict`, `cached` (memoized verdict, no decider ran) and, when the verdict is `unknown`, `reason`. `parse_error` and `panicked` results carry `error` and `elapsed_ms`. `parse_error` is produced at admission — malformed programs never occupy a scheduler slot |
//! | `unknown_program` | the `program_ref` fingerprint is not cached and no in-line `program` fallback was supplied; resubmit with full source |
//! | `overloaded`   | load-shed: not admitted, retry after `retry_after_ms`. Only a session that needs a runner is shed: a decide answered from the decide cache never is |
//! | `shutting_down`| not admitted: the server is draining |
//! | `cancel_ack` / `pong` / `shutdown_ack` | control-plane acknowledgements (`shutdown_ack` echoes `mode`) |
//! | `error`        | malformed request, including a line that is not valid UTF-8 (the connection stays up) |

use std::collections::BTreeMap;
use std::time::Duration;

use chase_core::cancel::CancelToken;
use chase_core::compile::ProgramFingerprint;
use chase_engine::faults::FaultPlan;
use chase_engine::governor::Budget;
use chase_engine::restricted::ChaseVariant;
use chase_telemetry::json::{parse_line, Object, Scalar};

/// One parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Drain + exit; `abort` additionally cancels every live session.
    Shutdown {
        /// `true` for `mode:"abort"`: trip the cancel token of every
        /// session in the server's live-session registry, so queued
        /// and running sessions wind down with `outcome:"cancelled"`
        /// instead of finishing their work.
        abort: bool,
    },
    /// Cancel the named session.
    Cancel {
        /// The session to cancel.
        id: String,
    },
    /// Run a chase or termination-decision session.
    Session(Box<SessionRequest>),
}

/// What a session runs: the restricted chase (Def. 3.1) or the
/// `CT^res_∀∀` decision.
#[derive(Debug)]
pub enum SessionOp {
    /// Run a chase.
    Chase {
        /// Which chase to run.
        engine: ChaseVariant,
        /// Step/atom budget.
        budget: Budget,
        /// Injected faults (isolation tests).
        faults: FaultPlan,
    },
    /// Decide all-instances restricted chase termination.
    Decide,
}

/// A fully resolved session request (`chase` or `decide`).
#[derive(Debug)]
pub struct SessionRequest {
    /// Client-chosen session id, echoed on every reply line.
    pub id: String,
    /// Fair-share tenant; sessions of one tenant queue behind each
    /// other, not behind other tenants'.
    pub tenant: String,
    /// Program source (database + TGDs; a decide's database part may
    /// be empty); `None` for a pure `program_ref` submission.
    pub program: Option<String>,
    /// Canonical fingerprint of a previously compiled program; the
    /// server resolves it against its program cache first.
    pub program_ref: Option<ProgramFingerprint>,
    /// Per-session deadline, measured from session start.
    pub deadline: Option<Duration>,
    /// Whether to stream telemetry events back.
    pub telemetry: bool,
    /// The session's cancellation token; the server registers a clone
    /// so `cancel` requests and shutdown can reach the running task.
    pub cancel: CancelToken,
    /// The chase or decision to run.
    pub op: SessionOp,
}

fn get_str(map: &BTreeMap<String, Scalar>, key: &str) -> Result<Option<String>, String> {
    match map.get(key) {
        None => Ok(None),
        Some(Scalar::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(format!("field \"{key}\" must be a string, got {other:?}")),
    }
}

fn get_num(map: &BTreeMap<String, Scalar>, key: &str) -> Result<Option<u64>, String> {
    match map.get(key) {
        None => Ok(None),
        Some(Scalar::Num(n)) => Ok(Some(*n)),
        Some(other) => Err(format!("field \"{key}\" must be an integer, got {other:?}")),
    }
}

fn get_bool(map: &BTreeMap<String, Scalar>, key: &str) -> Result<Option<bool>, String> {
    match map.get(key) {
        None => Ok(None),
        Some(Scalar::Bool(b)) => Ok(Some(*b)),
        Some(other) => Err(format!("field \"{key}\" must be a boolean, got {other:?}")),
    }
}

fn require_id(map: &BTreeMap<String, Scalar>) -> Result<String, String> {
    let id = get_str(map, "id")?.ok_or("missing required field \"id\"")?;
    if id.is_empty() {
        return Err("field \"id\" must be non-empty".into());
    }
    Ok(id)
}

/// Extracts the `program` / `program_ref` pair, requiring at least
/// one and validating the fingerprint's 32-hex-digit shape.
fn parse_program_fields(
    map: &BTreeMap<String, Scalar>,
) -> Result<(Option<String>, Option<ProgramFingerprint>), String> {
    let program = get_str(map, "program")?;
    let program_ref = match get_str(map, "program_ref")? {
        None => None,
        Some(hex) => Some(ProgramFingerprint::parse_hex(&hex).ok_or_else(|| {
            format!("field \"program_ref\" must be 32 hex digits, got \"{hex}\"")
        })?),
    };
    if program.is_none() && program_ref.is_none() {
        return Err("missing required field \"program\" (or \"program_ref\")".into());
    }
    Ok((program, program_ref))
}

fn parse_faults(map: &BTreeMap<String, Scalar>) -> Result<FaultPlan, String> {
    Ok(FaultPlan {
        cancel_at_step: get_num(map, "fault_cancel_at")?.map(|n| n as usize),
        deadline_at_step: get_num(map, "fault_deadline_at")?.map(|n| n as usize),
        task_panic_at_step: get_num(map, "fault_task_panic_at")?.map(|n| n as usize),
        socket_fail_after: get_num(map, "fault_socket_fail_after")?,
        ..FaultPlan::default()
    })
}

/// Parses one request line. Errors are protocol-level diagnostics fit
/// for an `error` reply; they never tear the connection down.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let map = parse_line(line)?;
    let op = get_str(&map, "op")?.ok_or("missing required field \"op\"")?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown {
            abort: match get_str(&map, "mode")?.as_deref() {
                None | Some("graceful") => false,
                Some("abort") => true,
                Some(other) => return Err(format!("unknown shutdown mode \"{other}\"")),
            },
        }),
        "cancel" => Ok(Request::Cancel {
            id: require_id(&map)?,
        }),
        "chase" | "decide" => {
            let id = require_id(&map)?;
            let (program, program_ref) = parse_program_fields(&map)?;
            // Chase-only keys; a decide ignores them like any unknown key.
            let chase = if op == "chase" {
                let engine = ChaseVariant::parse(
                    get_str(&map, "engine")?.as_deref(),
                    get_str(&map, "strategy")?.as_deref(),
                    get_num(&map, "seed")?,
                )?;
                let budget = Budget {
                    max_steps: get_num(&map, "max_steps")?
                        .map(|n| n as usize)
                        .unwrap_or(usize::MAX),
                    max_atoms: get_num(&map, "max_atoms")?
                        .map(|n| n as usize)
                        .unwrap_or(usize::MAX),
                };
                Some((engine, budget))
            } else {
                None
            };
            Ok(Request::Session(Box::new(SessionRequest {
                id,
                tenant: get_str(&map, "tenant")?.unwrap_or_else(|| "default".into()),
                program,
                program_ref,
                deadline: get_num(&map, "deadline_ms")?.map(Duration::from_millis),
                telemetry: get_bool(&map, "telemetry")?.unwrap_or(false),
                cancel: CancelToken::new(),
                op: match chase {
                    Some((engine, budget)) => SessionOp::Chase {
                        engine,
                        budget,
                        faults: parse_faults(&map)?,
                    },
                    None => SessionOp::Decide,
                },
            })))
        }
        other => Err(format!("unknown op \"{other}\"")),
    }
}

/// Opens protocol lines. A reply (or request) is a flat-JSON [`Object`]
/// whose first field is its `type` (or `op`); chain the other fields
/// with `.str`, `.num` and `.bool`, then `.finish()` returns the line
/// (no trailing newline; the connection writer appends it).
#[derive(Debug)]
pub struct Reply;

// `new` names the reply constructor of the protocol; it returns the
// shared builder rather than a wrapper around it.
#[allow(clippy::new_ret_no_self)]
impl Reply {
    /// Starts a reply of the given `type`.
    pub fn new(kind: &str) -> Object {
        Object::new().str("type", kind)
    }

    /// Starts a request line of the given `op` — the client side of the
    /// protocol uses the same builder, keyed by `op` instead of `type`.
    pub fn request(op: &str) -> Object {
        Object::new().str("op", op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a `chase`/`decide` line, panicking on anything else.
    fn session(line: &str) -> SessionRequest {
        match parse_request(line).unwrap() {
            Request::Session(req) => *req,
            other => panic!("expected a session, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_minimal_chase_request() {
        let req = session(r#"{"op":"chase","id":"s1","program":"R(a,b)."}"#);
        assert_eq!(req.id, "s1");
        assert_eq!(req.tenant, "default");
        assert!(req.deadline.is_none());
        assert!(!req.telemetry);
        let SessionOp::Chase {
            engine,
            budget,
            faults,
        } = req.op
        else {
            panic!("expected chase, got {:?}", req.op)
        };
        assert_eq!(engine, ChaseVariant::default());
        assert_eq!(budget.max_steps, usize::MAX);
        assert!(faults.is_empty());
    }

    #[test]
    fn parses_every_knob() {
        let line = concat!(
            r#"{"op":"chase","id":"s2","tenant":"t","program":"R(a,b).","engine":"semi","#,
            r#""max_steps":7,"max_atoms":100,"deadline_ms":250,"threads":2,"telemetry":true,"#,
            r#""fault_task_panic_at":3,"fault_socket_fail_after":5}"#
        );
        let req = session(line);
        assert_eq!(req.deadline, Some(Duration::from_millis(250)));
        assert!(req.telemetry);
        let SessionOp::Chase {
            engine,
            budget,
            faults,
        } = req.op
        else {
            panic!("expected chase, got {:?}", req.op)
        };
        assert_eq!(engine, ChaseVariant::SemiOblivious);
        assert_eq!(budget.max_steps, 7);
        assert_eq!(budget.max_atoms, 100);
        assert_eq!(faults.task_panic_at_step, Some(3));
        assert_eq!(faults.socket_fail_after, Some(5));
    }

    #[test]
    fn decide_ignores_chase_only_keys() {
        let line = concat!(
            r#"{"op":"decide","id":"d1","tenant":"t","program":"R(x,y) -> S(x).","#,
            r#""engine":"nope","strategy":"nope","seed":"x","max_steps":"two","#,
            r#""fault_task_panic_at":"x","deadline_ms":5,"telemetry":true}"#
        );
        let req = session(line);
        assert!(matches!(req.op, SessionOp::Decide));
        assert_eq!(req.tenant, "t");
        assert_eq!(req.deadline, Some(Duration::from_millis(5)));
        assert!(req.telemetry);
    }

    #[test]
    fn rejects_malformed_requests_with_diagnostics() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"id":"x"}"#).unwrap_err().contains("op"));
        assert!(parse_request(r#"{"op":"chase","id":"x"}"#)
            .unwrap_err()
            .contains("program"));
        assert!(parse_request(r#"{"op":"chase","program":"R(a,b)."}"#)
            .unwrap_err()
            .contains("id"));
        assert!(parse_request(r#"{"op":"frobnicate"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(
            parse_request(r#"{"op":"chase","id":"x","program":"p","max_steps":"two"}"#)
                .unwrap_err()
                .contains("integer")
        );
        // Retired keys are ignored like any other unknown key.
        assert!(parse_request(r#"{"op":"chase","id":"x","program":"p","threads":"two"}"#).is_ok());
    }

    #[test]
    fn parses_program_refs_and_shutdown_modes() {
        let fp = "0123456789abcdef0123456789abcdef";
        let req = session(&format!(
            r#"{{"op":"chase","id":"s1","program_ref":"{fp}"}}"#
        ));
        assert!(matches!(req.op, SessionOp::Chase { .. }));
        assert!(req.program.is_none());
        assert_eq!(req.program_ref.unwrap().to_hex(), fp);
        let req = session(&format!(
            r#"{{"op":"decide","id":"d1","program":"R(x,y) -> S(x).","program_ref":"{fp}"}}"#
        ));
        assert!(matches!(req.op, SessionOp::Decide));
        assert!(req.program.is_some());
        assert!(req.program_ref.is_some());
        assert!(
            parse_request(r#"{"op":"chase","id":"s1","program_ref":"zz"}"#)
                .unwrap_err()
                .contains("32 hex digits")
        );
        match parse_request(r#"{"op":"shutdown"}"#).unwrap() {
            Request::Shutdown { abort } => assert!(!abort),
            other => panic!("expected shutdown, got {other:?}"),
        }
        match parse_request(r#"{"op":"shutdown","mode":"abort"}"#).unwrap() {
            Request::Shutdown { abort } => assert!(abort),
            other => panic!("expected shutdown, got {other:?}"),
        }
        assert!(parse_request(r#"{"op":"shutdown","mode":"violent"}"#)
            .unwrap_err()
            .contains("shutdown mode"));
    }

    #[test]
    fn replies_are_valid_flat_json() {
        let line = Reply::new("result")
            .str("id", "s\"1")
            .str("status", "ok")
            .num("steps", 42)
            .finish();
        let parsed = parse_line(&line).unwrap();
        assert_eq!(parsed.get("type").and_then(Scalar::as_str), Some("result"));
        assert_eq!(parsed.get("id").and_then(Scalar::as_str), Some("s\"1"));
        assert_eq!(parsed.get("steps").and_then(Scalar::as_num), Some(42));
    }

    #[test]
    fn request_builder_round_trips_through_the_parser() {
        let line = Reply::request("chase")
            .str("id", "s1")
            .str("program", "R(a,b).\nR(x,y) -> S(x).")
            .num("max_steps", 100)
            .bool("telemetry", true)
            .finish();
        let req = session(&line);
        assert_eq!(req.id, "s1");
        assert!(req.telemetry);
        assert!(req.program.as_deref().unwrap().contains('\n'));
        let SessionOp::Chase { budget, .. } = req.op else {
            panic!("expected chase, got {:?}", req.op)
        };
        assert_eq!(budget.max_steps, 100);
    }
}

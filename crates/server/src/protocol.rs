//! The chase-server wire protocol: line-delimited **flat JSON**
//! objects in both directions, the same grammar as the telemetry JSONL
//! stream ([`chase_telemetry::json`] is the shared decoder,
//! [`chase_telemetry::event::escape_json`] the shared string encoder).
//! No nesting, no floats, no nulls — every message is one line of
//! string/integer/boolean pairs, so a `chasectl stats` pipeline can
//! chew on a raw session transcript unchanged.
//!
//! ## Requests (client → server)
//!
//! | `op`       | fields |
//! |------------|--------|
//! | `chase`    | `id`, `program` and/or `program_ref`; optional `tenant`, `engine` (`restricted`\|`oblivious`\|`semi`), `strategy` (`fifo`\|`lifo`\|`random`\|`priority`), `seed`, `max_steps`, `max_atoms`, `deadline_ms`, `telemetry` (bool), fault arms below |
//! | `decide`   | `id`, `program` and/or `program_ref`; optional `tenant`, `deadline_ms`, `telemetry` |
//! | `cancel`   | `id` — trips the session's [`CancelToken`] |
//! | `ping`     | liveness probe |
//! | `shutdown` | optional `mode` (`graceful` default \| `abort`): stop admitting; graceful finishes queued + running sessions, abort additionally trips every live session's cancel token so they wind down with `outcome:"cancelled"` |
//!
//! `program_ref` is the canonical 32-hex-digit content fingerprint of
//! a previously compiled program
//! ([`chase_core::compile::ProgramFingerprint`]): the server answers
//! from its program cache, or replies `unknown_program` so the client
//! falls back to resubmitting full source. When both `program` and
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
//! | `accepted`     | session admitted; carries `program` (the canonical fingerprint, usable as `program_ref` later); events/result follow (any interleaving with other sessions on the same connection) |
//! | `event`        | one telemetry event of session `id`, spliced verbatim |
//! | `result`       | terminal: `status` is `ok`, `parse_error` or `panicked`; `ok` chase results carry `outcome`, `steps`, `atoms`, `fingerprint` (hex), `events_dropped`; `ok` decide results carry `verdict` (+ `reason` when unknown) and `cached` (memoized verdict, no decider ran). `parse_error` is produced at admission — malformed programs never occupy a scheduler slot |
//! | `unknown_program` | the `program_ref` fingerprint is not cached and no in-line `program` fallback was supplied; resubmit with full source |
//! | `overloaded`   | load-shed: not admitted, retry after `retry_after_ms` |
//! | `shutting_down`| not admitted: the server is draining |
//! | `cancel_ack` / `pong` / `shutdown_ack` | control-plane acknowledgements (`shutdown_ack` echoes `mode`) |
//! | `error`        | malformed request (the connection stays up) |

use std::collections::BTreeMap;
use std::time::Duration;

use chase_core::cancel::CancelToken;
use chase_core::compile::ProgramFingerprint;
use chase_engine::faults::FaultPlan;
use chase_engine::governor::Budget;
use chase_engine::restricted::Strategy;
use chase_engine::task::TaskEngine;
use chase_telemetry::event::escape_json;
use chase_telemetry::json::{parse_line, Scalar};

/// Fallback seed for `strategy=random` without an explicit `seed`,
/// mirroring the CLI default.
pub const DEFAULT_RANDOM_SEED: u64 = 0x9E3779B97F4A7C15;

/// One parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Drain + exit; `abort` additionally cancels every live session.
    Shutdown {
        /// `true` for `mode:"abort"`: trip the registry's
        /// [`CancelGroup`](chase_core::cancel::CancelGroup) so running
        /// sessions wind down with `outcome:"cancelled"` instead of
        /// finishing their work.
        abort: bool,
    },
    /// Cancel the named session.
    Cancel {
        /// The session to cancel.
        id: String,
    },
    /// Run a chase session.
    Chase(Box<SessionRequest>),
    /// Run a termination-decision session.
    Decide(Box<DecideRequest>),
}

/// A fully resolved chase session request.
#[derive(Debug)]
pub struct SessionRequest {
    /// Client-chosen session id, echoed on every reply line.
    pub id: String,
    /// Fair-share tenant; sessions of one tenant queue behind each
    /// other, not behind other tenants'.
    pub tenant: String,
    /// Program source (database + TGDs); `None` for a pure
    /// `program_ref` submission.
    pub program: Option<String>,
    /// Canonical fingerprint of a previously compiled program; the
    /// server resolves it against its program cache first.
    pub program_ref: Option<ProgramFingerprint>,
    /// Engine selection.
    pub engine: TaskEngine,
    /// Step/atom budget.
    pub budget: Budget,
    /// Per-session deadline, measured from session start.
    pub deadline: Option<Duration>,
    /// Whether to stream telemetry events back.
    pub telemetry: bool,
    /// Injected faults (isolation tests).
    pub faults: FaultPlan,
    /// The session's cancellation token; the server registers a clone
    /// so `cancel` requests and shutdown can reach the running task.
    pub cancel: CancelToken,
}

/// A termination-decision session request.
#[derive(Debug)]
pub struct DecideRequest {
    /// Client-chosen session id.
    pub id: String,
    /// Fair-share tenant.
    pub tenant: String,
    /// Program source (the database part may be empty); `None` for a
    /// pure `program_ref` submission.
    pub program: Option<String>,
    /// Canonical fingerprint of a previously compiled program.
    pub program_ref: Option<ProgramFingerprint>,
    /// Per-session deadline.
    pub deadline: Option<Duration>,
    /// Whether to stream telemetry events back.
    pub telemetry: bool,
    /// The session's cancellation token.
    pub cancel: CancelToken,
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
        "chase" => {
            let id = require_id(&map)?;
            let (program, program_ref) = parse_program_fields(&map)?;
            let seed = get_num(&map, "seed")?;
            let strategy = match get_str(&map, "strategy")?.as_deref() {
                None | Some("fifo") => Strategy::Fifo,
                Some("lifo") => Strategy::Lifo,
                Some("random") => Strategy::Random(seed.unwrap_or(DEFAULT_RANDOM_SEED)),
                Some("priority") => Strategy::PriorityTgd,
                Some(other) => return Err(format!("unknown strategy \"{other}\"")),
            };
            let engine = match get_str(&map, "engine")?.as_deref() {
                None | Some("restricted") => TaskEngine::Restricted { strategy },
                Some("oblivious") => TaskEngine::Oblivious { semi: false },
                Some("semi") => TaskEngine::Oblivious { semi: true },
                Some(other) => return Err(format!("unknown engine \"{other}\"")),
            };
            let budget = Budget {
                max_steps: get_num(&map, "max_steps")?
                    .map(|n| n as usize)
                    .unwrap_or(usize::MAX),
                max_atoms: get_num(&map, "max_atoms")?
                    .map(|n| n as usize)
                    .unwrap_or(usize::MAX),
            };
            Ok(Request::Chase(Box::new(SessionRequest {
                id,
                tenant: get_str(&map, "tenant")?.unwrap_or_else(|| "default".into()),
                program,
                program_ref,
                engine,
                budget,
                deadline: get_num(&map, "deadline_ms")?.map(Duration::from_millis),
                telemetry: get_bool(&map, "telemetry")?.unwrap_or(false),
                faults: parse_faults(&map)?,
                cancel: CancelToken::new(),
            })))
        }
        "decide" => {
            let (program, program_ref) = parse_program_fields(&map)?;
            Ok(Request::Decide(Box::new(DecideRequest {
                id: require_id(&map)?,
                tenant: get_str(&map, "tenant")?.unwrap_or_else(|| "default".into()),
                program,
                program_ref,
                deadline: get_num(&map, "deadline_ms")?.map(Duration::from_millis),
                telemetry: get_bool(&map, "telemetry")?.unwrap_or(false),
                cancel: CancelToken::new(),
            })))
        }
        other => Err(format!("unknown op \"{other}\"")),
    }
}

/// Incremental builder for one flat-JSON reply line (no trailing
/// newline; the connection writer appends it).
#[derive(Debug)]
pub struct Reply {
    buf: String,
}

impl Reply {
    /// Starts a reply of the given `type`.
    pub fn new(kind: &str) -> Self {
        let mut buf = String::with_capacity(64);
        buf.push_str("{\"type\":\"");
        buf.push_str(kind);
        buf.push('"');
        Reply { buf }
    }

    /// Starts a request line of the given `op` — the client side of the
    /// protocol uses the same builder, keyed by `op` instead of `type`.
    pub fn request(op: &str) -> Self {
        let mut buf = String::with_capacity(64);
        buf.push_str("{\"op\":\"");
        buf.push_str(op);
        buf.push('"');
        Reply { buf }
    }

    /// Appends a string field (JSON-escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.buf.push_str(",\"");
        self.buf.push_str(key);
        self.buf.push_str("\":\"");
        escape_json(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Appends an integer field.
    pub fn num(mut self, key: &str, value: u64) -> Self {
        self.buf.push_str(",\"");
        self.buf.push_str(key);
        self.buf.push_str("\":");
        self.buf.push_str(&value.to_string());
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.buf.push_str(",\"");
        self.buf.push_str(key);
        self.buf.push_str("\":");
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Closes the object and returns the line.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Splices one telemetry event line into an `event` reply for session
/// `id`: `{"type":"event","id":"<id>",` + the event object's own
/// fields. The result is still one flat JSON object, so the combined
/// transcript stays `chasectl stats`-parseable.
pub fn event_reply(id: &str, event_json: &str) -> String {
    debug_assert!(event_json.starts_with('{') && event_json.ends_with('}'));
    let mut buf = String::with_capacity(event_json.len() + id.len() + 24);
    buf.push_str("{\"type\":\"event\",\"id\":\"");
    escape_json(&mut buf, id);
    buf.push('"');
    if event_json.len() > 2 {
        buf.push(',');
        buf.push_str(&event_json[1..event_json.len() - 1]);
    }
    buf.push('}');
    buf
}

/// The wire name of a chase outcome.
pub fn outcome_name(outcome: chase_engine::governor::Outcome) -> &'static str {
    use chase_engine::governor::Outcome;
    match outcome {
        Outcome::Terminated => "terminated",
        Outcome::BudgetExhausted => "budget_exhausted",
        Outcome::DeadlineExceeded => "deadline_exceeded",
        Outcome::Cancelled => "cancelled",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_chase_request() {
        let req = parse_request(r#"{"op":"chase","id":"s1","program":"R(a,b)."}"#).unwrap();
        match req {
            Request::Chase(req) => {
                assert_eq!(req.id, "s1");
                assert_eq!(req.tenant, "default");
                assert_eq!(
                    req.engine,
                    TaskEngine::Restricted {
                        strategy: Strategy::Fifo
                    }
                );
                assert_eq!(req.budget.max_steps, usize::MAX);
                assert!(req.deadline.is_none());
                assert!(!req.telemetry);
                assert!(req.faults.is_empty());
            }
            other => panic!("expected chase, got {other:?}"),
        }
    }

    #[test]
    fn parses_every_knob() {
        let line = concat!(
            r#"{"op":"chase","id":"s2","tenant":"t","program":"R(a,b).","engine":"semi","#,
            r#""max_steps":7,"max_atoms":100,"deadline_ms":250,"threads":2,"telemetry":true,"#,
            r#""fault_task_panic_at":3,"fault_socket_fail_after":5}"#
        );
        match parse_request(line).unwrap() {
            Request::Chase(req) => {
                assert_eq!(req.engine, TaskEngine::Oblivious { semi: true });
                assert_eq!(req.budget.max_steps, 7);
                assert_eq!(req.budget.max_atoms, 100);
                assert_eq!(req.deadline, Some(Duration::from_millis(250)));
                assert!(req.telemetry);
                assert_eq!(req.faults.task_panic_at_step, Some(3));
                assert_eq!(req.faults.socket_fail_after, Some(5));
            }
            other => panic!("expected chase, got {other:?}"),
        }
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
        match parse_request(&format!(
            r#"{{"op":"chase","id":"s1","program_ref":"{fp}"}}"#
        ))
        .unwrap()
        {
            Request::Chase(req) => {
                assert!(req.program.is_none());
                assert_eq!(req.program_ref.unwrap().to_hex(), fp);
            }
            other => panic!("expected chase, got {other:?}"),
        }
        match parse_request(&format!(
            r#"{{"op":"decide","id":"d1","program":"R(x,y) -> S(x).","program_ref":"{fp}"}}"#
        ))
        .unwrap()
        {
            Request::Decide(req) => {
                assert!(req.program.is_some());
                assert!(req.program_ref.is_some());
            }
            other => panic!("expected decide, got {other:?}"),
        }
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
        match parse_request(&line).unwrap() {
            Request::Chase(req) => {
                assert_eq!(req.id, "s1");
                assert_eq!(req.budget.max_steps, 100);
                assert!(req.telemetry);
                assert!(req.program.as_deref().unwrap().contains('\n'));
            }
            other => panic!("expected chase, got {other:?}"),
        }
    }

    #[test]
    fn event_splicing_keeps_lines_parseable() {
        let mut event = String::new();
        chase_telemetry::Event::PhaseExited {
            phase: "chase",
            nanos: 9,
        }
        .write_json(&mut event);
        let line = event_reply("sess-1", &event);
        let parsed = parse_line(&line).unwrap();
        assert_eq!(parsed.get("type").and_then(Scalar::as_str), Some("event"));
        assert_eq!(parsed.get("id").and_then(Scalar::as_str), Some("sess-1"));
        assert_eq!(
            parsed.get("event").and_then(Scalar::as_str),
            Some("phase_exited")
        );
        assert_eq!(parsed.get("nanos").and_then(Scalar::as_num), Some(9));
        // Degenerate but legal: an empty event object.
        let parsed = parse_line(&event_reply("x", "{}")).unwrap();
        assert_eq!(parsed.len(), 2);
    }
}

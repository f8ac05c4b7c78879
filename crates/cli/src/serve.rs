//! `chasectl serve` and `chasectl client` — the resident chase server
//! (DESIGN.md §17) and its line-protocol client.
//!
//! `serve` binds the endpoint, prints the resolved address on stdout
//! (a `tcp:HOST:0` bind reports the actual port, so wrapper scripts
//! can parse it) and blocks until an in-band `{"op":"shutdown"}`
//! request completes its graceful drain (`shutdown --abort` instead
//! cancels every queued and running session before exiting).
//!
//! `client chase`/`client decide` accept `--program-ref <fingerprint>`
//! to submit by content address instead of shipping rule text; with
//! both a file and a ref, the ref-only line goes first and the full
//! source is resubmitted automatically on an `unknown_program` miss.
//!
//! `client` connects, submits one operation and maps the typed reply
//! onto the CLI's exit-code table: chase outcomes get the same codes
//! as a direct `chasectl chase` run, and an `overloaded` shed that
//! survives every retry is exit code 6 — distinguishable from a
//! runtime failure, so callers can re-queue instead of alerting.

use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use chase_server::client::{request_once, run_session_with_fallback, ClientConfig, ClientError};
use chase_server::protocol::Reply;
use chase_server::scheduler::SchedulerConfig;
use chase_server::server::{Endpoint, Server, ServerConfig};
use chase_telemetry::json::{encode_line, Scalar};

use crate::{
    at_most, check_flags, flag_value, CliError, EXIT_BUDGET, EXIT_CANCELLED, EXIT_DEADLINE,
    EXIT_FAILURE, EXIT_OVERLOADED,
};

/// Parses an integer-valued flag, if present.
fn num_flag(args: &[String], flag: &str) -> Result<Option<u64>, CliError> {
    flag_value(args, flag)?
        .map(|s| {
            s.parse::<u64>()
                .map_err(|e| CliError::Usage(format!("invalid {flag} '{s}': {e}")))
        })
        .transpose()
}

/// `chasectl serve --socket <endpoint>` plus scheduler knobs.
pub fn cmd_serve(args: &[String]) -> Result<ExitCode, CliError> {
    let operands = check_flags(
        args,
        &[
            "--socket",
            "--runners",
            "--tenant-queue-cap",
            "--global-queue-cap",
            "--retry-after-ms",
        ],
        &[],
    )?;
    at_most(&operands, 0, "serve")?;
    let socket = flag_value(args, "--socket")?.ok_or_else(|| {
        CliError::Usage("serve requires --socket <unix:PATH|tcp:HOST:PORT>".into())
    })?;
    let endpoint = Endpoint::parse(&socket).map_err(CliError::Usage)?;
    let mut scheduler = SchedulerConfig::default();
    if let Some(n) = num_flag(args, "--runners")? {
        if n == 0 {
            return Err(CliError::Usage("--runners must be at least 1".into()));
        }
        scheduler.runners = n as usize;
    }
    if let Some(n) = num_flag(args, "--tenant-queue-cap")? {
        scheduler.tenant_queue_cap = n as usize;
    }
    if let Some(n) = num_flag(args, "--global-queue-cap")? {
        scheduler.global_queue_cap = n as usize;
    }
    if let Some(n) = num_flag(args, "--retry-after-ms")? {
        scheduler.retry_after_ms = n;
    }
    let server = Server::bind(
        &endpoint,
        ServerConfig {
            scheduler,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| CliError::Runtime(format!("cannot bind {endpoint}: {e}")))?;
    println!("chase-server: listening on {}", server.endpoint());
    // Wrapper scripts block on this line before connecting.
    std::io::stdout()
        .flush()
        .map_err(|e| CliError::Runtime(format!("cannot flush stdout: {e}")))?;
    server
        .run()
        .map_err(|e| CliError::Runtime(format!("server failed: {e}")))?;
    eprintln!("chase-server: drained, exiting");
    Ok(ExitCode::SUCCESS)
}

/// `chasectl client <endpoint> <ping|shutdown|cancel|chase|decide> ...`
pub fn cmd_client(args: &[String]) -> Result<ExitCode, CliError> {
    let endpoint_str = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::Usage("client requires an <endpoint> operand".into()))?;
    let endpoint = Endpoint::parse(endpoint_str).map_err(CliError::Usage)?;
    let op = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| {
            CliError::Usage(
                "client requires an operation: ping|shutdown|cancel|chase|decide".into(),
            )
        })?;
    match op.as_str() {
        "ping" => {
            let operands = check_flags(&args[2..], &[], &[])?;
            at_most(&operands, 0, "client ping")?;
            let reply = control(&endpoint, &Reply::request("ping").finish())?;
            println!("{}", encode_line(&reply));
            Ok(ExitCode::SUCCESS)
        }
        "shutdown" => {
            let operands = check_flags(&args[2..], &[], &["--abort"])?;
            at_most(&operands, 0, "client shutdown")?;
            let mut line = Reply::request("shutdown");
            if args.iter().any(|a| a == "--abort") {
                line = line.str("mode", "abort");
            }
            let reply = control(&endpoint, &line.finish())?;
            println!("{}", encode_line(&reply));
            Ok(ExitCode::SUCCESS)
        }
        "cancel" => {
            let operands = check_flags(&args[2..], &["--id"], &[])?;
            at_most(&operands, 0, "client cancel")?;
            let id = flag_value(args, "--id")?
                .ok_or_else(|| CliError::Usage("client cancel requires --id <session>".into()))?;
            let reply = control(&endpoint, &Reply::request("cancel").str("id", &id).finish())?;
            println!("{}", encode_line(&reply));
            let known = reply.get("known").and_then(Scalar::as_str) == Some("true");
            if known {
                Ok(ExitCode::SUCCESS)
            } else {
                eprintln!("chasectl: no live session \"{id}\"");
                Ok(ExitCode::from(EXIT_FAILURE))
            }
        }
        "chase" | "decide" => cmd_client_session(&endpoint, args, op),
        other => Err(CliError::Usage(format!(
            "unknown client operation '{other}'"
        ))),
    }
}

/// Sends one control-plane request (`ping`/`cancel`/`shutdown`).
fn control(endpoint: &Endpoint, line: &str) -> Result<BTreeMap<String, Scalar>, CliError> {
    request_once(endpoint, line).map_err(|e| CliError::Runtime(e.to_string()))
}

/// `client chase|decide [<file>]`: one session, its reply mapped onto
/// the exit code the direct command would give.
fn cmd_client_session(
    endpoint: &Endpoint,
    args: &[String],
    op: &str,
) -> Result<ExitCode, CliError> {
    let chase = op == "chase";
    let mut value_flags = vec![
        "--id",
        "--tenant",
        "--deadline-ms",
        "--retries",
        "--program-ref",
    ];
    if chase {
        value_flags.extend(["--strategy", "--seed", "--steps", "--max-atoms"]);
    }
    let operands = check_flags(&args[2..], &value_flags, &["--telemetry"])?;
    at_most(&operands, 1, &format!("client {op}"))?;
    let path = operands.first();
    let program_ref = flag_value(args, "--program-ref")?;
    let source = match path {
        Some(path) => {
            Some(std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?)
        }
        None if program_ref.is_none() => {
            return Err(CliError::Usage(format!(
                "client {op} requires a rule <file> (or --program-ref <fingerprint>)"
            )))
        }
        None => None,
    };
    if chase {
        // Checked here so a typo is a usage error; the server resolves
        // the same names with the same parser and defaults.
        crate::variant_from_flags(args, None)?;
    }
    let id = flag_value(args, "--id")?.unwrap_or_else(default_session_id);
    let telemetry = args.iter().any(|a| a == "--telemetry");
    let build = |program_key: &str, program_value: &str| -> Result<String, CliError> {
        let mut line = Reply::request(op)
            .str("id", &id)
            .str(program_key, program_value);
        if let Some(tenant) = flag_value(args, "--tenant")? {
            line = line.str("tenant", &tenant);
        }
        if chase {
            if let Some(strategy) = flag_value(args, "--strategy")? {
                line = line.str("strategy", &strategy);
            }
            if let Some(seed) = flag_value(args, "--seed")? {
                line = line.num("seed", crate::parse_seed(&seed)?);
            }
            // The server-side default budget is unbounded; mirror the
            // direct `chasectl chase` default so a non-terminating
            // program submitted without --steps cannot occupy a runner
            // forever.
            line = line.num("max_steps", num_flag(args, "--steps")?.unwrap_or(10_000));
            if let Some(atoms) = num_flag(args, "--max-atoms")? {
                line = line.num("max_atoms", atoms);
            }
        }
        if let Some(ms) = num_flag(args, "--deadline-ms")? {
            line = line.num("deadline_ms", ms);
        }
        if telemetry {
            line = line.bool("telemetry", true);
        }
        Ok(line.finish())
    };
    let (primary, fallback) = program_lines(&build, program_ref.as_deref(), source.as_deref())?;
    let result = submit(endpoint, &primary, fallback.as_deref(), args, telemetry)?;
    let Some(result) = result else {
        return Ok(ExitCode::from(EXIT_OVERLOADED));
    };
    let get_str = |key: &str| result.get(key).and_then(Scalar::as_str);
    let code = match get_str("status").unwrap_or("") {
        "ok" if chase => {
            let get_num = |key: &str| result.get(key).and_then(Scalar::as_num).unwrap_or(0);
            let outcome = get_str("outcome").unwrap_or("?");
            println!(
                "session {id}: {} after {} steps, {} atoms (fingerprint {}, {} event(s) sent, {} dropped)",
                outcome.replace('_', " "),
                get_num("steps"),
                get_num("atoms"),
                get_str("fingerprint").unwrap_or("?"),
                get_num("events_sent"),
                get_num("events_dropped"),
            );
            match outcome {
                "terminated" => 0,
                "budget_exhausted" => EXIT_BUDGET,
                "deadline_exceeded" => EXIT_DEADLINE,
                "cancelled" => EXIT_CANCELLED,
                _ => EXIT_FAILURE,
            }
        }
        "ok" => {
            let verdict = get_str("verdict").unwrap_or("?");
            let reason = get_str("reason");
            match reason {
                Some(reason) => println!("session {id}: verdict {verdict} ({reason})"),
                None => println!("session {id}: verdict {verdict}"),
            }
            // Mirror `chasectl decide`: interrupted Unknowns get the
            // deadline/cancel codes; honest verdicts are success.
            match reason {
                Some(r) if r.starts_with("deadline exceeded") => EXIT_DEADLINE,
                Some(r) if r.starts_with("cancelled") => EXIT_CANCELLED,
                _ => 0,
            }
        }
        status => {
            let error = get_str("error").unwrap_or("no detail");
            eprintln!("chasectl: session {id}: {status}: {error}");
            EXIT_FAILURE
        }
    };
    Ok(ExitCode::from(code))
}

/// Chooses the primary request line (and a full-source fallback, when
/// both `--program-ref` and a rule file were given) for a chase/decide
/// submission. A ref-only line keeps the wire payload to 32 hex digits
/// on the warm path; the fallback covers the server-side cache miss.
fn program_lines(
    build: &dyn Fn(&str, &str) -> Result<String, CliError>,
    program_ref: Option<&str>,
    source: Option<&str>,
) -> Result<(String, Option<String>), CliError> {
    match (program_ref, source) {
        (Some(fp), Some(src)) => Ok((build("program_ref", fp)?, Some(build("program", src)?))),
        (Some(fp), None) => Ok((build("program_ref", fp)?, None)),
        (None, Some(src)) => Ok((build("program", src)?, None)),
        (None, None) => unreachable!("callers require a file or --program-ref"),
    }
}

/// Drives one session to its result, relaying telemetry event lines to
/// stdout when requested. `Ok(None)` means the submission was shed on
/// every attempt (the overloaded exit code); other client errors are
/// runtime failures.
fn submit(
    endpoint: &Endpoint,
    request_line: &str,
    fallback_line: Option<&str>,
    args: &[String],
    relay_events: bool,
) -> Result<Option<BTreeMap<String, Scalar>>, CliError> {
    let config = ClientConfig {
        retries: num_flag(args, "--retries")?
            .map(|n| n as u32)
            .unwrap_or(ClientConfig::default().retries),
        ..ClientConfig::default()
    };
    let outcome =
        run_session_with_fallback(endpoint, request_line, fallback_line, &config, |line| {
            if relay_events && line.get("type").and_then(Scalar::as_str) == Some("event") {
                println!("{}", encode_line(line));
            }
        });
    match outcome {
        Ok(session) => Ok(Some(session.result)),
        Err(ClientError::Overloaded(attempts)) => {
            eprintln!("chasectl: server overloaded after {attempts} attempt(s)");
            Ok(None)
        }
        Err(e) => Err(CliError::Runtime(e.to_string())),
    }
}

/// A collision-resistant default session id: pid + sub-second clock.
fn default_session_id() -> String {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    format!("cli-{}-{nanos:08x}", std::process::id())
}

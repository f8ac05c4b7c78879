//! Session execution: one admitted `chase` or `decide` request running
//! on a scheduler runner (`run_chase`, `run_decide`), streaming
//! telemetry back through its connection and ending in exactly one
//! `result` line. A decide whose verdict is memoized takes no runner:
//! admission answers it on the connection's handler thread
//! (`answer_cached_decide`), through the same result-line code.
//!
//! Degradation contract: telemetry is best-effort, results are not. A
//! session whose connection writes start failing (client gone, or an
//! injected [`FaultPlan::socket_fail_after`]) keeps running, stops
//! sending events, counts what it dropped, and still attempts the
//! final `result` line (which reports `events_dropped`). A session
//! that panics ([`TaskError::Panicked`]) reports `status:"panicked"`
//! and costs nobody else anything — the runner and the server live on.
//!
//! [`FaultPlan::socket_fail_after`]: chase_engine::faults::FaultPlan::socket_fail_after
//! [`TaskError::Panicked`]: chase_engine::task::TaskError::Panicked

use std::sync::Arc;
use std::time::Instant;

use chase_core::compile::CompiledProgram;
use chase_engine::task::{run_chase_task, ChaseTaskSpec, ProgramInput, TaskError};
use chase_telemetry::json::Object;
use chase_telemetry::{names, ChaseObserver, Event, NullObserver};
use chase_termination::{decide_observed, DeciderConfig, TerminationVerdict};

use crate::cache::DecideCache;
use crate::protocol::{Reply, SessionOp, SessionRequest};
use crate::scheduler::RunnerCtx;
use crate::server::ConnWriter;

/// Writes `event` into `buf` as session `id`'s `event` reply line and
/// returns it: `{"type":"event","id":"<id>",` followed by the event's
/// own fields, so the line is the event's trace line behind a session
/// prefix. Admission (cache counters) and [`EventStream`] both send
/// events this way.
pub(crate) fn event_line<'a>(buf: &'a mut String, id: &str, event: &Event) -> &'a str {
    buf.clear();
    let head = Object::open(buf).str("type", "event").str("id", id);
    event.write_fields(head).finish()
}

/// The session's telemetry observer: encodes each event once, straight
/// into its `event` reply line, and sends it through the connection.
/// It counts how many lines went out and how many were dropped after
/// the connection degraded (for real or by injection).
struct EventStream<'a> {
    conn: &'a ConnWriter,
    id: &'a str,
    fail_after: Option<u64>,
    buf: String,
    sent: u64,
    dropped: u64,
    degraded: bool,
}

impl ChaseObserver for EventStream<'_> {
    fn on_event(&mut self, event: &Event) {
        // The injected socket fault mirrors a real mid-stream write
        // failure: after `n` successful event writes, the "socket"
        // breaks and stays broken for this session.
        if self.fail_after.is_some_and(|n| self.sent >= n) {
            self.degraded = true;
        }
        if !self.degraded {
            if self
                .conn
                .send_line(event_line(&mut self.buf, self.id, event))
            {
                self.sent += 1;
                return;
            }
            self.degraded = true;
        }
        self.dropped += 1;
    }
}

impl<'a> EventStream<'a> {
    fn new(conn: &'a ConnWriter, req: &'a SessionRequest) -> Self {
        EventStream {
            conn,
            id: &req.id,
            fail_after: match &req.op {
                SessionOp::Chase { faults, .. } => faults.socket_fail_after,
                SessionOp::Decide => None,
            },
            buf: String::new(),
            sent: 0,
            dropped: 0,
            degraded: false,
        }
    }

    /// Sends one counter on the session's telemetry stream.
    fn count(&mut self, name: &'static str) {
        self.on_event(&Event::CounterAdd { name, delta: 1 });
    }
}

/// Runs one admitted chase session on a runner, streaming its
/// telemetry through `conn`, and returns its terminal `result` line
/// for the caller to write once the session id is deregistered. The
/// program was compiled (or cache-resolved) at admission; the session
/// shares the `Arc` and does zero parse/plan work of its own.
pub(crate) fn run_chase(
    req: &SessionRequest,
    program: &Arc<CompiledProgram>,
    conn: &ConnWriter,
    ctx: &mut RunnerCtx,
) -> String {
    let started = Instant::now();
    let mut stream = EventStream::new(conn, req);
    let head = Reply::new("result").str("id", &req.id);
    let SessionOp::Chase {
        engine,
        budget,
        faults,
    } = &req.op
    else {
        unreachable!("admission sends decides to run_decide")
    };
    let spec = ChaseTaskSpec {
        program: ProgramInput::Compiled(Arc::clone(program)),
        engine: *engine,
        budget: *budget,
        deadline: req.deadline,
        faults: *faults,
        cancel: req.cancel.clone(),
    };
    let scratch = Some(ctx.pool_for(None));
    let result = if req.telemetry {
        run_chase_task(&spec, &mut stream, scratch)
    } else {
        run_chase_task(&spec, &mut NullObserver, scratch)
    };
    match result {
        Ok(out) => finish_ok(
            head.str("status", "ok")
                .str("outcome", out.outcome.name())
                .num("steps", out.steps as u64)
                .num("atoms", out.atoms() as u64)
                .str("fingerprint", &format!("{:016x}", out.fingerprint())),
            &stream,
            started,
            None,
        ),
        Err(e) => {
            let (status, msg) = match e {
                TaskError::Parse(msg) => ("parse_error", msg),
                TaskError::Panicked(msg) => ("panicked", msg),
            };
            head.str("status", status)
                .str("error", &msg)
                .num("elapsed_ms", started.elapsed().as_millis() as u64)
                .finish()
        }
    }
}

/// Runs the deciders on a runner for an admitted decide whose verdict
/// admission did not find memoized under `class`, memoizes the
/// verdict, and returns the session's `result` line (`cached:false`).
/// The telemetry stream opens with a `decide_cache.misses` counter.
///
/// Only definitive verdicts are memoized — `Unknown` reflects the
/// request's deadline/cancel budget, not the program.
pub(crate) fn run_decide(
    req: &SessionRequest,
    program: &CompiledProgram,
    class: &'static str,
    conn: &ConnWriter,
    cache: &DecideCache,
) -> String {
    let started = Instant::now();
    let mut stream = EventStream::new(conn, req);
    if req.telemetry {
        stream.count(names::DECIDE_CACHE_MISSES);
    }
    let config = DeciderConfig {
        deadline: req.deadline,
        cancel: req.cancel.clone(),
        ..DeciderConfig::default()
    };
    let (set, vocab) = (program.tgd_set(), program.vocab());
    let verdict = if req.telemetry {
        decide_observed(set, vocab, &config, &mut stream)
    } else {
        decide_observed(set, vocab, &config, &mut NullObserver)
    };
    cache.insert(program.fingerprint(), class, &verdict);
    decide_result(req, &verdict, false, &stream, started)
}

/// Answers a decide from its memoized verdict, on the admitting
/// thread: no decider runs. Returns the session's `result` line
/// (`cached:true`); a telemetry session's stream carries one
/// `decide_cache.hits` counter first.
pub(crate) fn answer_cached_decide(
    req: &SessionRequest,
    verdict: &TerminationVerdict,
    conn: &ConnWriter,
) -> String {
    let started = Instant::now();
    let mut stream = EventStream::new(conn, req);
    if req.telemetry {
        stream.count(names::DECIDE_CACHE_HITS);
    }
    decide_result(req, verdict, true, &stream, started)
}

/// A decide session's `result` line; `cached` says whether the verdict
/// was memoized.
fn decide_result(
    req: &SessionRequest,
    verdict: &TerminationVerdict,
    cached: bool,
    stream: &EventStream,
    started: Instant,
) -> String {
    let (name, reason) = match verdict {
        TerminationVerdict::AllInstancesTerminating(_) => ("terminating", None),
        TerminationVerdict::NonTerminating(_) => ("non_terminating", None),
        TerminationVerdict::Unknown { reason } => ("unknown", Some(reason.as_str())),
    };
    let reply = Reply::new("result")
        .str("id", &req.id)
        .str("status", "ok")
        .str("verdict", name)
        .bool("cached", cached);
    finish_ok(reply, stream, started, reason)
}

/// Ends an `ok` result line: the stream's event counts, the elapsed
/// time and, for an `unknown` verdict, its reason.
fn finish_ok(
    reply: Object,
    stream: &EventStream,
    started: Instant,
    reason: Option<&str>,
) -> String {
    let reply = reply
        .num("events_sent", stream.sent)
        .num("events_dropped", stream.dropped)
        .num("elapsed_ms", started.elapsed().as_millis() as u64);
    match reason {
        Some(reason) => reply.str("reason", reason),
        None => reply,
    }
    .finish()
}

//! Session execution: one admitted `chase` or `decide` request running
//! on a scheduler runner, streaming telemetry back through its
//! connection and ending in exactly one `result` line.
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
use chase_termination::{decide_observed, decider_class, DeciderConfig, TerminationVerdict};

use crate::cache::Caches;
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

/// Runs one admitted session, streaming its telemetry through `conn`,
/// and returns its terminal `result` line for the caller to write once
/// the session id is deregistered. The program was compiled (or
/// cache-resolved) at admission; the session shares the `Arc` and does
/// zero parse/plan work of its own.
pub fn run_session(
    req: &SessionRequest,
    program: &Arc<CompiledProgram>,
    conn: &Arc<ConnWriter>,
    caches: &Caches,
    ctx: &mut RunnerCtx,
) -> String {
    let started = Instant::now();
    let mut stream = EventStream {
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
    };
    let head = Reply::new("result").str("id", &req.id);
    let (reply, reason) = match &req.op {
        SessionOp::Chase {
            engine,
            budget,
            faults,
        } => {
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
                Ok(out) => (
                    head.str("status", "ok")
                        .str("outcome", out.outcome.name())
                        .num("steps", out.steps as u64)
                        .num("atoms", out.atoms() as u64)
                        .str("fingerprint", &format!("{:016x}", out.fingerprint())),
                    None,
                ),
                Err(e) => {
                    let (status, msg) = match e {
                        TaskError::Parse(msg) => ("parse_error", msg),
                        TaskError::Panicked(msg) => ("panicked", msg),
                    };
                    return head
                        .str("status", status)
                        .str("error", &msg)
                        .num("elapsed_ms", started.elapsed().as_millis() as u64)
                        .finish();
                }
            }
        }
        SessionOp::Decide => {
            let (verdict, cached) = decide_memoized(req, program, caches, &mut stream);
            let (name, reason) = match &*verdict {
                TerminationVerdict::AllInstancesTerminating(_) => ("terminating", None),
                TerminationVerdict::NonTerminating(_) => ("non_terminating", None),
                TerminationVerdict::Unknown { reason } => ("unknown", Some(reason.clone())),
            };
            let reply = head
                .str("status", "ok")
                .str("verdict", name)
                .bool("cached", cached);
            (reply, reason)
        }
    };
    let reply = reply
        .num("events_sent", stream.sent)
        .num("events_dropped", stream.dropped)
        .num("elapsed_ms", started.elapsed().as_millis() as u64);
    match reason {
        Some(reason) => reply.str("reason", &reason),
        None => reply,
    }
    .finish()
}

/// Answers a decide from the memoization cache, or runs the deciders
/// and memoizes the verdict; the flag says whether it was cached.
///
/// Verdicts are pure functions of the rule set given a dispatch
/// policy, so the cache keys by program fingerprint × decider class; a
/// hit replies without running any decider (the `result` line carries
/// `cached:true` and the telemetry stream a `decide_cache.hits`
/// counter). Only definitive verdicts are memoized — `Unknown`
/// reflects the request's deadline/cancel budget, not the program.
fn decide_memoized(
    req: &SessionRequest,
    program: &CompiledProgram,
    caches: &Caches,
    stream: &mut EventStream,
) -> (Arc<TerminationVerdict>, bool) {
    let set = program.tgd_set();
    let fp = program.fingerprint();
    let class = decider_class(set);
    let cached = caches.decide.get(fp, class);
    if req.telemetry {
        let name = match cached {
            Some(_) => names::DECIDE_CACHE_HITS,
            None => names::DECIDE_CACHE_MISSES,
        };
        stream.on_event(&Event::CounterAdd { name, delta: 1 });
    }
    if let Some(verdict) = cached {
        return (verdict, true);
    }
    let config = DeciderConfig {
        deadline: req.deadline,
        cancel: req.cancel.clone(),
        ..DeciderConfig::default()
    };
    let vocab = program.vocab();
    let verdict = if req.telemetry {
        decide_observed(set, vocab, &config, stream)
    } else {
        decide_observed(set, vocab, &config, &mut NullObserver)
    };
    caches.decide.insert(fp, class, &verdict);
    (Arc::new(verdict), false)
}

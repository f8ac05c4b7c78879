//! Session execution: one admitted request running on a scheduler
//! runner, streaming telemetry back through its connection and ending
//! in exactly one `result` line.
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

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use chase_core::compile::CompiledProgram;
use chase_engine::task::{run_chase_task, ChaseTaskSpec, ProgramInput, TaskError};
use chase_telemetry::{names, Event, LineObserver, NullObserver};
use chase_termination::{decide_observed, decider_class, DeciderConfig, TerminationVerdict};

use crate::cache::Caches;
use crate::protocol::{outcome_name, DecideRequest, Reply, SessionRequest};
use crate::scheduler::RunnerCtx;
use crate::server::ConnWriter;

/// Event-streaming state shared between a session and its observer
/// closure: how many telemetry lines went out, how many were dropped
/// after the connection degraded (for real or by injection).
struct EventStream<'a> {
    conn: &'a Arc<ConnWriter>,
    id: &'a str,
    fail_after: Option<u64>,
    sent: Cell<u64>,
    dropped: Cell<u64>,
    degraded: Cell<bool>,
}

impl EventStream<'_> {
    fn send(&self, event_json: &str) {
        if self.degraded.get() {
            self.dropped.set(self.dropped.get() + 1);
            return;
        }
        // The injected socket fault mirrors a real mid-stream write
        // failure: after `n` successful event writes, the "socket"
        // breaks and stays broken for this session.
        if self.fail_after.is_some_and(|n| self.sent.get() >= n) {
            self.degraded.set(true);
            self.dropped.set(self.dropped.get() + 1);
            return;
        }
        if self.conn.send_event(self.id, event_json) {
            self.sent.set(self.sent.get() + 1);
        } else {
            self.degraded.set(true);
            self.dropped.set(self.dropped.get() + 1);
        }
    }

    /// Splices a named counter into the stream (if telemetry is on for
    /// this session, which the caller gates).
    fn send_counter(&self, name: &'static str, delta: u64) {
        let mut buf = String::with_capacity(64);
        Event::CounterAdd { name, delta }.write_json(&mut buf);
        self.send(&buf);
    }
}

/// Runs one chase session to its terminal `result` line. The program
/// was compiled (or cache-resolved) at admission; the session shares
/// the `Arc` and does zero parse/plan work of its own.
pub fn run_chase_session(
    req: &SessionRequest,
    program: &Arc<CompiledProgram>,
    conn: &Arc<ConnWriter>,
    ctx: &mut RunnerCtx,
) {
    let started = Instant::now();
    let spec = ChaseTaskSpec {
        program: ProgramInput::Compiled(Arc::clone(program)),
        engine: req.engine,
        budget: req.budget,
        deadline: req.deadline,
        faults: req.faults,
        cancel: req.cancel.clone(),
    };
    let stream = EventStream {
        conn,
        id: &req.id,
        fail_after: req.faults.socket_fail_after,
        sent: Cell::new(0),
        dropped: Cell::new(0),
        degraded: Cell::new(false),
    };
    let scratch = Some(ctx.pool_for(None));
    let result = if req.telemetry {
        let mut obs = LineObserver::new(|line: &str| stream.send(line));
        run_chase_task(&spec, &mut obs, scratch)
    } else {
        run_chase_task(&spec, &mut NullObserver, scratch)
    };
    let elapsed_ms = started.elapsed().as_millis() as u64;
    let line = match result {
        Ok(out) => Reply::new("result")
            .str("id", &req.id)
            .str("status", "ok")
            .str("outcome", outcome_name(out.outcome))
            .num("steps", out.steps as u64)
            .num("atoms", out.atoms() as u64)
            .str("fingerprint", &format!("{:016x}", out.fingerprint()))
            .num("events_sent", stream.sent.get())
            .num("events_dropped", stream.dropped.get())
            .num("elapsed_ms", elapsed_ms)
            .finish(),
        Err(TaskError::Parse(msg)) => Reply::new("result")
            .str("id", &req.id)
            .str("status", "parse_error")
            .str("error", &msg)
            .num("elapsed_ms", elapsed_ms)
            .finish(),
        Err(TaskError::Panicked(msg)) => Reply::new("result")
            .str("id", &req.id)
            .str("status", "panicked")
            .str("error", &msg)
            .num("elapsed_ms", elapsed_ms)
            .finish(),
    };
    // Best effort: a fully dead connection can't carry the result
    // either, but the session still completed server-side.
    conn.send_line(&line);
}

/// Runs one decide session to its terminal `result` line, consulting
/// the decide-memoization cache first.
///
/// Verdicts are pure functions of the rule set given a dispatch
/// policy, so the cache keys by program fingerprint × decider class; a
/// hit replies without running any decider (the `result` line carries
/// `cached:true` and the telemetry stream a `decide_cache.hits`
/// counter). Only definitive verdicts are memoized — `Unknown`
/// reflects the request's deadline/cancel budget, not the program.
pub fn run_decide_session(
    req: &DecideRequest,
    program: &Arc<CompiledProgram>,
    conn: &Arc<ConnWriter>,
    caches: &Caches,
) {
    let started = Instant::now();
    let config = DeciderConfig {
        deadline: req.deadline,
        cancel: req.cancel.clone(),
        ..DeciderConfig::default()
    };
    let stream = EventStream {
        conn,
        id: &req.id,
        fail_after: None,
        sent: Cell::new(0),
        dropped: Cell::new(0),
        degraded: Cell::new(false),
    };
    let set = program.tgd_set();
    let vocab = program.vocab();
    let fp = program.fingerprint();
    let class = decider_class(set);
    let counters = caches.programs.counters();
    let (verdict, cached) = match caches.decide.get(fp, class) {
        Some(verdict) => {
            counters
                .decide_hits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if req.telemetry {
                stream.send_counter(names::DECIDE_CACHE_HITS, 1);
            }
            (verdict, true)
        }
        None => {
            counters
                .decide_misses
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if req.telemetry {
                stream.send_counter(names::DECIDE_CACHE_MISSES, 1);
            }
            let verdict = if req.telemetry {
                let mut obs = LineObserver::new(|line: &str| stream.send(line));
                decide_observed(set, vocab, &config, &mut obs)
            } else {
                decide_observed(set, vocab, &config, &mut NullObserver)
            };
            caches.decide.insert(fp, class, &verdict);
            (verdict, false)
        }
    };
    let elapsed_ms = started.elapsed().as_millis() as u64;
    let reply = Reply::new("result")
        .str("id", &req.id)
        .str("status", "ok")
        .str(
            "verdict",
            match &verdict {
                TerminationVerdict::AllInstancesTerminating(_) => "terminating",
                TerminationVerdict::NonTerminating(_) => "non_terminating",
                TerminationVerdict::Unknown { .. } => "unknown",
            },
        )
        .bool("cached", cached)
        .num("events_sent", stream.sent.get())
        .num("events_dropped", stream.dropped.get())
        .num("elapsed_ms", elapsed_ms);
    let line = match verdict {
        TerminationVerdict::Unknown { reason } => reply.str("reason", &reason).finish(),
        _ => reply.finish(),
    };
    conn.send_line(&line);
}

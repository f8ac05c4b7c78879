//! Acceptance suite for session isolation and graceful degradation:
//! a resident server on a throwaway socket survives panicking,
//! deadline-exhausted and cancelled sessions while delivering results
//! for well-behaved concurrent sessions that are **bit-identical**
//! (fingerprint-compared) to direct in-process engine runs — and keeps
//! serving afterwards.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use chase_engine::governor::Budget;
use chase_engine::task::{run_chase_task, ChaseTaskSpec};
use chase_server::client::{request_once, run_session, ClientConfig};
use chase_server::scheduler::SchedulerConfig;
use chase_server::server::{Endpoint, Server, ServerConfig, HANDLER_IDLE, WRITE_TIMEOUT};
use chase_telemetry::json::Scalar;
use chase_telemetry::NullObserver;

const FINITE: &str = "R(a,b).\nR(x,y) -> S(x).\n";
const INFINITE: &str = "R(a,b).\nR(x,y) -> exists z. R(y,z).\n";

/// Serialises this file's tests: the hostile-`threads` test reads the
/// process-wide thread count, which concurrently booted servers would
/// otherwise inflate.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Boots a server on a fresh unix socket inside a private temp dir;
/// returns the endpoint and the server thread's join handle.
fn boot(config: ServerConfig, tag: &str) -> (Endpoint, std::thread::JoinHandle<()>) {
    let dir = std::env::temp_dir().join(format!("chase-server-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create socket dir");
    let endpoint = Endpoint::Unix(dir.join("chase.sock"));
    let server = Server::bind(&endpoint, config).expect("bind server");
    let bound = server.endpoint().clone();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (bound, handle)
}

fn shutdown(endpoint: &Endpoint) {
    let ack = request_once(endpoint, r#"{"op":"shutdown"}"#).expect("shutdown ack");
    assert_eq!(
        ack.get("type").and_then(Scalar::as_str),
        Some("shutdown_ack")
    );
}

fn escaped(program: &str) -> String {
    let mut out = String::new();
    chase_telemetry::json::escape_json(&mut out, program);
    out
}

fn result_str<'a>(result: &'a BTreeMap<String, Scalar>, key: &str) -> &'a str {
    result
        .get(key)
        .and_then(Scalar::as_str)
        .unwrap_or_else(|| panic!("result missing string field {key}: {result:?}"))
}

/// Fingerprint of a direct, in-process run of the same work.
fn baseline_fingerprint(spec: &ChaseTaskSpec) -> String {
    let out = run_chase_task(spec, &mut NullObserver, None).expect("baseline run");
    format!("{:016x}", out.fingerprint())
}

#[test]
fn concurrent_faulty_sessions_do_not_disturb_healthy_ones() {
    let _serial = serial();
    let (endpoint, server) = boot(
        ServerConfig {
            scheduler: SchedulerConfig {
                runners: 4,
                tenant_queue_cap: 8,
                global_queue_cap: 64,
                retry_after_ms: 10,
            },
            ..ServerConfig::default()
        },
        "isolation",
    );

    // Baselines computed in-process, before the server sees anything.
    let finite_spec = ChaseTaskSpec::restricted(FINITE);
    let mut capped_spec = ChaseTaskSpec::restricted(INFINITE);
    capped_spec.budget = Budget::steps(64);
    let finite_baseline = baseline_fingerprint(&finite_spec);
    let capped_baseline = baseline_fingerprint(&capped_spec);

    // Four sessions in flight at once, each on its own connection:
    //  s-panic    — injected task panic at step 3;
    //  s-deadline — non-terminating, killed by a real 150ms deadline;
    //  s-finite   — healthy, sequential;
    //  s-capped   — healthy, budget-capped.
    let requests = [
        format!(
            r#"{{"op":"chase","id":"s-panic","tenant":"chaos","program":"{}","fault_task_panic_at":3}}"#,
            escaped(INFINITE)
        ),
        format!(
            r#"{{"op":"chase","id":"s-deadline","tenant":"chaos","program":"{}","deadline_ms":150}}"#,
            escaped(INFINITE)
        ),
        format!(
            r#"{{"op":"chase","id":"s-finite","tenant":"steady","program":"{}"}}"#,
            escaped(FINITE)
        ),
        format!(
            r#"{{"op":"chase","id":"s-capped","tenant":"steady","program":"{}","max_steps":64}}"#,
            escaped(INFINITE)
        ),
    ];
    let endpoint = Arc::new(endpoint);
    let mut clients = Vec::new();
    for request in requests {
        let endpoint = Arc::clone(&endpoint);
        clients.push(std::thread::spawn(move || {
            run_session(&endpoint, &request, &ClientConfig::default(), |_| {})
                .expect("session should reach a result")
        }));
    }
    let mut results: BTreeMap<String, BTreeMap<String, Scalar>> = BTreeMap::new();
    for client in clients {
        let done = client.join().expect("client thread");
        let id = result_str(&done.result, "id").to_string();
        results.insert(id, done.result);
    }

    let panicked = &results["s-panic"];
    assert_eq!(result_str(panicked, "status"), "panicked");
    assert!(result_str(panicked, "error").contains("injected"));

    let deadline = &results["s-deadline"];
    assert_eq!(result_str(deadline, "status"), "ok");
    assert_eq!(result_str(deadline, "outcome"), "deadline_exceeded");

    let finite = &results["s-finite"];
    assert_eq!(result_str(finite, "status"), "ok");
    assert_eq!(result_str(finite, "outcome"), "terminated");
    assert_eq!(
        result_str(finite, "fingerprint"),
        finite_baseline,
        "healthy session must be bit-identical to a standalone run"
    );

    let capped = &results["s-capped"];
    assert_eq!(result_str(capped, "status"), "ok");
    assert_eq!(result_str(capped, "outcome"), "budget_exhausted");
    assert_eq!(
        result_str(capped, "fingerprint"),
        capped_baseline,
        "budget-capped session must match a standalone run"
    );

    // The server (and its runners) survived the panic: a fresh request
    // on a fresh connection still completes, bit-identically.
    let after = run_session(
        &endpoint,
        &format!(
            r#"{{"op":"chase","id":"s-after","program":"{}"}}"#,
            escaped(FINITE)
        ),
        &ClientConfig::default(),
        |_| {},
    )
    .expect("server keeps serving after a contained panic");
    assert_eq!(result_str(&after.result, "fingerprint"), finite_baseline);

    shutdown(&endpoint);
    server.join().expect("server thread");
}

#[test]
fn cancel_request_stops_a_running_session() {
    let _serial = serial();
    let (endpoint, server) = boot(ServerConfig::default(), "cancel");
    // Unbounded non-terminating session: only the cancel op can end it
    // (give it a long fallback deadline so a failed cancel cannot hang
    // the suite forever).
    let request = format!(
        r#"{{"op":"chase","id":"s-cancel","program":"{}","deadline_ms":30000}}"#,
        escaped(INFINITE)
    );
    let canceller = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            // Let the session get past admission and into its run.
            std::thread::sleep(Duration::from_millis(100));
            request_once(&endpoint, r#"{"op":"cancel","id":"s-cancel"}"#).expect("cancel ack")
        })
    };
    let done = run_session(&endpoint, &request, &ClientConfig::default(), |_| {})
        .expect("cancelled session still delivers a result");
    assert_eq!(result_str(&done.result, "status"), "ok");
    assert_eq!(result_str(&done.result, "outcome"), "cancelled");
    let ack = canceller.join().expect("canceller thread");
    assert_eq!(ack.get("type").and_then(Scalar::as_str), Some("cancel_ack"));
    assert_eq!(ack.get("known").and_then(Scalar::as_str), Some("true"));

    shutdown(&endpoint);
    server.join().expect("server thread");
}

#[test]
fn telemetry_streams_per_session_and_degrades_on_socket_fault() {
    let _serial = serial();
    let (endpoint, server) = boot(ServerConfig::default(), "telemetry");

    // Healthy telemetry: every event line carries the session id. The
    // program cache emits its admission counters (`server.*`) on the
    // same stream but outside the session's own `events_sent`
    // accounting, so tally them separately.
    let mut event_ids = Vec::new();
    let mut admission_events = 0u64;
    let done = run_session(
        &endpoint,
        &format!(
            r#"{{"op":"chase","id":"s-tel","program":"{}","max_steps":10,"telemetry":true}}"#,
            escaped(INFINITE)
        ),
        &ClientConfig::default(),
        |line| {
            if line.get("type").and_then(Scalar::as_str) == Some("event") {
                event_ids.push(line.get("id").and_then(Scalar::as_str).map(String::from));
                if line
                    .get("name")
                    .and_then(Scalar::as_str)
                    .is_some_and(|n| n.starts_with("server."))
                {
                    admission_events += 1;
                }
            }
        },
    )
    .expect("telemetry session");
    assert!(done.events > admission_events, "expected streamed events");
    assert!(event_ids.iter().all(|id| id.as_deref() == Some("s-tel")));
    assert_eq!(
        done.result.get("events_sent").and_then(Scalar::as_num),
        Some(done.events - admission_events)
    );

    // Injected socket failure after 2 event writes: the session keeps
    // running, drops the rest, and still reports its result.
    let done = run_session(
        &endpoint,
        &format!(
            r#"{{"op":"chase","id":"s-deg","program":"{}","max_steps":10,"telemetry":true,"fault_socket_fail_after":2}}"#,
            escaped(INFINITE)
        ),
        &ClientConfig::default(),
        |_| {},
    )
    .expect("degraded session still completes");
    assert_eq!(result_str(&done.result, "status"), "ok");
    assert_eq!(result_str(&done.result, "outcome"), "budget_exhausted");
    // 2 session events pre-fault, plus one admission-time cache-hit
    // counter (the program was cached by the session above, and the
    // injected fault only degrades the session's own stream).
    assert_eq!(done.events, 3, "exactly the pre-fault events arrive");
    assert_eq!(
        done.result.get("events_sent").and_then(Scalar::as_num),
        Some(2)
    );
    let dropped = done
        .result
        .get("events_dropped")
        .and_then(Scalar::as_num)
        .expect("dropped count");
    assert!(dropped > 0, "post-fault events must be counted as dropped");

    shutdown(&endpoint);
    server.join().expect("server thread");
}

#[test]
fn overload_sheds_with_retry_hint_and_backoff_recovers() {
    let _serial = serial();
    let (endpoint, server) = boot(
        ServerConfig {
            scheduler: SchedulerConfig {
                runners: 1,
                tenant_queue_cap: 1,
                global_queue_cap: 2,
                retry_after_ms: 10,
            },
            ..ServerConfig::default()
        },
        "overload",
    );

    // Flood a 1-runner, 1-deep server with short deadline-bound
    // sessions; at least one submission must be shed with a typed
    // overloaded reply (never a hang, never a silent drop).
    let mut flood = Vec::new();
    for i in 0..4 {
        let endpoint = endpoint.clone();
        let request = format!(
            r#"{{"op":"chase","id":"s-flood-{i}","tenant":"noisy","program":"{}","deadline_ms":200}}"#,
            escaped(INFINITE)
        );
        flood.push(std::thread::spawn(move || {
            run_session(
                &endpoint,
                &request,
                // No retries: we want to observe the shed itself.
                &ClientConfig {
                    retries: 0,
                    ..ClientConfig::default()
                },
                |_| {},
            )
        }));
    }
    let outcomes: Vec<_> = flood.into_iter().map(|t| t.join().unwrap()).collect();
    let shed = outcomes
        .iter()
        .filter(|r| matches!(r, Err(chase_server::client::ClientError::Overloaded(_))))
        .count();
    let served = outcomes.iter().filter(|r| r.is_ok()).count();
    assert_eq!(
        shed + served,
        4,
        "every submission ends typed: {outcomes:?}"
    );
    assert!(shed >= 1, "a 4-deep flood of a 1-slot queue must shed");
    assert!(served >= 1, "admitted sessions must still be served");

    // With retry + backoff, a patient client gets in once the flood
    // drains.
    let done = run_session(
        &endpoint,
        &format!(
            r#"{{"op":"chase","id":"s-patient","tenant":"noisy","program":"{}"}}"#,
            escaped(FINITE)
        ),
        &ClientConfig {
            retries: 20,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 7,
        },
        |_| {},
    )
    .expect("retrying client eventually admitted");
    assert_eq!(result_str(&done.result, "outcome"), "terminated");

    shutdown(&endpoint);
    server.join().expect("server thread");
}

#[test]
fn shutdown_drains_in_flight_sessions_before_exit() {
    let _serial = serial();
    let (endpoint, server) = boot(ServerConfig::default(), "drain");

    // A session slow enough to still be running when shutdown lands.
    let request = format!(
        r#"{{"op":"chase","id":"s-drain","program":"{}","deadline_ms":400}}"#,
        escaped(INFINITE)
    );
    let client = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            run_session(&endpoint, &request, &ClientConfig::default(), |_| {})
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    shutdown(&endpoint);

    // Drain semantics: the in-flight session still delivers its
    // result...
    let done = client
        .join()
        .expect("client thread")
        .expect("in-flight session survives shutdown");
    assert_eq!(result_str(&done.result, "status"), "ok");
    assert_eq!(result_str(&done.result, "outcome"), "deadline_exceeded");

    // ...the server process exits...
    server.join().expect("server thread");

    // ...and new sessions find nobody listening.
    let refused = run_session(
        &endpoint,
        &format!(
            r#"{{"op":"chase","id":"s-late","program":"{}"}}"#,
            escaped(FINITE)
        ),
        &ClientConfig {
            retries: 0,
            ..ClientConfig::default()
        },
        |_| {},
    );
    assert!(refused.is_err(), "the drained server must be gone");
}

#[test]
fn decide_sessions_run_through_the_same_scheduler() {
    let _serial = serial();
    let (endpoint, server) = boot(ServerConfig::default(), "decide");

    let done = run_session(
        &endpoint,
        // Guarded and terminating.
        r#"{"op":"decide","id":"d-term","program":"R(x,y) -> S(x)."}"#,
        &ClientConfig::default(),
        |_| {},
    )
    .expect("decide session");
    assert_eq!(result_str(&done.result, "status"), "ok");
    assert_eq!(result_str(&done.result, "verdict"), "terminating");

    let done = run_session(
        &endpoint,
        r#"{"op":"decide","id":"d-non","program":"R(x,y) -> exists z. R(y,z)."}"#,
        &ClientConfig::default(),
        |_| {},
    )
    .expect("decide session");
    assert_eq!(result_str(&done.result, "verdict"), "non_terminating");

    shutdown(&endpoint);
    server.join().expect("server thread");
}

/// The process's OS thread count, from `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

/// A `chase` request carrying a huge `threads` value is served like any
/// other: the retired key is ignored, the result matches a direct run,
/// and the server spawns no extra threads for it.
#[test]
fn hostile_threads_field_spawns_no_threads() {
    let _serial = serial();
    let mut program = String::new();
    for i in 0..400 {
        program.push_str(&format!("R(c{i},c{}).\n", i + 1));
    }
    program.push_str("R(x,y), R(y,z) -> S(x,z).\nR(u,v), R(v,w) -> T(u,w).\n");
    let baseline = baseline_fingerprint(&ChaseTaskSpec::restricted(program.as_str()));

    let (endpoint, server) = boot(ServerConfig::default(), "threads");
    let before = os_threads();
    let done = run_session(
        &endpoint,
        &format!(
            r#"{{"op":"chase","id":"s-threads","program":"{}","threads":1000}}"#,
            escaped(&program)
        ),
        &ClientConfig::default(),
        |_| {},
    )
    .expect("hostile-threads session");
    let after = os_threads();
    assert_eq!(result_str(&done.result, "status"), "ok");
    assert_eq!(result_str(&done.result, "outcome"), "terminated");
    assert_eq!(result_str(&done.result, "fingerprint"), baseline);
    assert!(
        after < before + 16,
        "a chase request grew the process from {before} to {after} threads"
    );

    shutdown(&endpoint);
    server.join().expect("server thread");
}

/// Mappings in this process's address space, from `/proc/self/maps`.
#[cfg(target_os = "linux")]
fn mapped_regions() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

/// Finished connection handlers are reaped while the server runs: a
/// long-lived server that has served many short connections keeps no
/// thread stack of a closed connection mapped.
#[cfg(target_os = "linux")]
#[test]
fn finished_connection_handlers_are_reaped() {
    let _serial = serial();
    let (endpoint, server) = boot(ServerConfig::default(), "reap");
    let before = mapped_regions();
    for _ in 0..1_000 {
        let pong = request_once(&endpoint, r#"{"op":"ping"}"#).expect("ping");
        assert_eq!(pong.get("type").and_then(Scalar::as_str), Some("pong"));
    }
    let after = mapped_regions();
    assert!(
        after < before + 200,
        "1,000 closed connections grew the mappings from {before} to {after}"
    );

    shutdown(&endpoint);
    server.join().expect("server thread");
}

/// Polls the process's thread count until it is at most `want`, for up
/// to `limit`; returns the last count read.
fn await_threads_at_most(want: usize, limit: Duration) -> usize {
    let started = std::time::Instant::now();
    loop {
        let now = os_threads();
        if now <= want || started.elapsed() > limit {
            return now;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The ids of this process's threads, from `/proc/self/task`.
fn thread_ids() -> std::collections::BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .map(|entry| {
            entry
                .expect("task entry")
                .file_name()
                .into_string()
                .expect("tid")
        })
        .collect()
}

/// Connection handlers are reused: 1,000 sequential one-request
/// connections are served by at most two handler threads, not one
/// thread each. Each client reads its pong (while the connection's
/// handler is alive, its thread id is recorded), then closes its write
/// side and reads until the server closes the connection, so it
/// connects again only once the server is done with the previous one.
#[test]
fn sequential_connections_reuse_handler_threads() {
    use std::io::{BufRead, Read, Write};
    let _serial = serial();
    let (endpoint, server) = boot(ServerConfig::default(), "handler-reuse");
    let resting = os_threads();
    let mut seen = thread_ids();
    let resting_ids = seen.len();
    for _ in 0..1_000 {
        let (mut stream, mut reader) = connect(&endpoint);
        stream.write_all(b"{\"op\":\"ping\"}\n").expect("send ping");
        let mut pong = String::new();
        reader.read_line(&mut pong).expect("read pong");
        assert_eq!(pong, "{\"type\":\"pong\"}\n");
        seen.extend(thread_ids());
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("close the write side");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).expect("read to EOF");
        assert_eq!(rest, "");
    }
    let after = os_threads();
    assert!(
        after <= resting + 2,
        "1,000 sequential pings grew the process from {resting} to {after} threads"
    );
    assert!(
        seen.len() <= resting_ids + 2,
        "1,000 sequential pings ran on {} threads besides the {resting_ids} resting ones",
        seen.len() - resting_ids
    );

    shutdown(&endpoint);
    server.join().expect("server thread");
}

/// A parked handler exits once it has waited `HANDLER_IDLE` without a
/// connection, so the thread count falls back to its resting value.
#[test]
fn parked_handlers_retire_after_the_idle_period() {
    assert!(
        HANDLER_IDLE <= Duration::from_secs(2),
        "this test waits out the idle period"
    );
    let _serial = serial();
    let (endpoint, server) = boot(ServerConfig::default(), "handler-idle");
    // Let the previous test's harness thread finish exiting first.
    std::thread::sleep(Duration::from_millis(200));
    let resting = os_threads();
    for _ in 0..50 {
        request_once(&endpoint, r#"{"op":"ping"}"#).expect("ping");
    }
    assert!(os_threads() > resting, "a served ping parks its handler");
    let settled = await_threads_at_most(resting, HANDLER_IDLE + Duration::from_secs(5));
    assert_eq!(
        settled, resting,
        "parked handlers must retire after {HANDLER_IDLE:?} idle"
    );
    // The server still serves: a new connection spawns a new handler.
    let pong = request_once(&endpoint, r#"{"op":"ping"}"#).expect("ping after idle");
    assert_eq!(pong.get("type").and_then(Scalar::as_str), Some("pong"));

    shutdown(&endpoint);
    server.join().expect("server thread");
}

/// Decides `FINITE` in session `id`; returns the result line.
fn decide_finite(endpoint: &Endpoint, id: &str) -> BTreeMap<String, Scalar> {
    let request = format!(
        r#"{{"op":"decide","id":"{id}","program":"{}"}}"#,
        escaped(FINITE)
    );
    let done = run_session(endpoint, &request, &ClientConfig::default(), |_| {})
        .unwrap_or_else(|e| panic!("decide {id}: {e}"));
    assert_eq!(result_str(&done.result, "verdict"), "terminating");
    done.result
}

/// Connections that stay open without sending hold their handlers, but
/// a new connection never waits behind them: its ping and a cached
/// decide both answer within a second.
#[test]
fn silent_connections_do_not_delay_new_ones() {
    let _serial = serial();
    let (endpoint, server) = boot(ServerConfig::default(), "silent");
    decide_finite(&endpoint, "warm");

    let silent: Vec<_> = (0..8).map(|_| connect(&endpoint)).collect();
    let started = std::time::Instant::now();
    let pong = request_once(&endpoint, r#"{"op":"ping"}"#).expect("ping");
    assert_eq!(pong.get("type").and_then(Scalar::as_str), Some("pong"));
    let hit = decide_finite(&endpoint, "hit");
    assert_eq!(hit.get("cached"), Some(&Scalar::Bool(true)));
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "8 silent connections delayed a new one by {:?}",
        started.elapsed()
    );

    drop(silent);
    shutdown(&endpoint);
    server.join().expect("server thread");
}

/// A memoized decide is answered at admission: with the only runner
/// busy on a long chase, it still returns `cached:true`, and the chase
/// is still live (a `cancel` finds it) when it does.
#[test]
fn cached_decide_answers_while_the_only_runner_is_busy() {
    use std::io::Write;
    let _serial = serial();
    let (endpoint, server) = boot(one_runner(), "hit-busy");
    let warm = decide_finite(&endpoint, "warm");
    assert_eq!(warm.get("cached"), Some(&Scalar::Bool(false)));

    let (mut stream, mut reader) = connect(&endpoint);
    writeln!(stream, "{}", endless_chase("busy", true)).expect("send busy chase");
    await_line(&mut reader, "busy", "runner");
    // Read the chase's event stream on another thread, so its runner
    // never blocks on a full socket.
    let busy = std::thread::spawn(move || await_results(&mut reader, 1));

    let hit = decide_finite(&endpoint, "hit");
    assert_eq!(hit.get("cached"), Some(&Scalar::Bool(true)));

    let ack = request_once(&endpoint, r#"{"op":"cancel","id":"busy"}"#).expect("cancel ack");
    assert_eq!(
        result_str(&ack, "known"),
        "true",
        "the chase finished before the cached decide was answered"
    );
    let results = busy.join().expect("reader thread");
    assert_eq!(result_str(&results["busy"], "outcome"), "cancelled");

    drop(stream);
    shutdown(&endpoint);
    server.join().expect("server thread");
}

/// A client that opens a telemetry chase and never reads fills its
/// socket, and the runner's next event write blocks. The write gives up
/// after [`WRITE_TIMEOUT`], the connection degrades, and the chase ends
/// at its 300 ms deadline, so the only runner is free again: another
/// client's uncached decide still gets its result.
#[test]
fn a_non_reading_telemetry_client_does_not_park_the_runner() {
    use std::io::Write;
    let _serial = serial();
    let (endpoint, server) = boot(one_runner(), "no-reader");
    let (mut silent, unread) = connect(&endpoint);
    writeln!(
        silent,
        r#"{{"op":"chase","id":"a","program":"{}","deadline_ms":300,"telemetry":true}}"#,
        escaped(INFINITE)
    )
    .expect("send the unread chase");
    // Let the chase take the only runner before the decide arrives.
    std::thread::sleep(Duration::from_millis(200));

    let (mut stream, mut reader) = connect(&endpoint);
    stream
        .set_read_timeout(Some(WRITE_TIMEOUT + Duration::from_secs(15)))
        .expect("set read timeout");
    writeln!(
        stream,
        r#"{{"op":"decide","id":"b","program":"{}"}}"#,
        escaped("P(a).\nP(x) -> exists y. Q(x,y).\n")
    )
    .expect("send decide");
    let result = loop {
        let reply = read_reply(&mut reader);
        if reply.get("type").and_then(Scalar::as_str) == Some("result") {
            break reply;
        }
    };
    assert_eq!(result_str(&result, "id"), "b");
    assert_eq!(result_str(&result, "verdict"), "terminating");
    assert_eq!(result.get("cached"), Some(&Scalar::Bool(false)));

    drop((silent, unread, stream, reader));
    shutdown(&endpoint);
    server.join().expect("server thread");
}

/// A request line that is not valid UTF-8 gets a typed `error` reply,
/// and the connection keeps serving.
#[test]
fn invalid_utf8_line_gets_a_typed_error_and_the_connection_lives_on() {
    use std::io::Write;
    let _serial = serial();
    let (endpoint, server) = boot(ServerConfig::default(), "utf8");
    let (mut stream, mut reader) = connect(&endpoint);
    stream
        .write_all(b"{\"op\":\"p\xffing\"}\n{\"op\":\"ping\"}\n")
        .expect("send lines");
    let error = read_reply(&mut reader);
    assert_eq!(result_str(&error, "type"), "error");
    assert!(result_str(&error, "message").contains("UTF-8"), "{error:?}");
    assert_eq!(result_str(&read_reply(&mut reader), "type"), "pong");

    drop((stream, reader));
    shutdown(&endpoint);
    server.join().expect("server thread");
}

/// Opens one raw connection to a unix-socket server: a writer and a
/// line reader over the same stream.
fn connect(
    endpoint: &Endpoint,
) -> (
    std::os::unix::net::UnixStream,
    std::io::BufReader<std::os::unix::net::UnixStream>,
) {
    let Endpoint::Unix(path) = endpoint else {
        panic!("tests bind unix sockets")
    };
    let stream = std::os::unix::net::UnixStream::connect(path).expect("connect");
    let reader = std::io::BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

fn read_reply(reader: &mut impl std::io::BufRead) -> BTreeMap<String, Scalar> {
    let mut line = String::new();
    assert!(
        reader.read_line(&mut line).expect("read reply") > 0,
        "server closed the connection"
    );
    chase_telemetry::json::parse_line(line.trim_end()).expect("reply is flat JSON")
}

/// A session id is free again as soon as its `result` line arrives:
/// only live ids clash, so a client that reuses one id for back-to-back
/// sessions on one connection never sees "session id already in use".
#[test]
fn session_id_is_reusable_once_its_result_arrives() {
    use std::io::Write;
    let _serial = serial();
    let (endpoint, server) = boot(ServerConfig::default(), "reuse");
    let (mut stream, mut reader) = connect(&endpoint);
    let request = r#"{"op":"decide","id":"same","program":"R(x,y) -> S(x)."}"#;
    let mut clashes = 0u32;
    for _ in 0..20_000 {
        writeln!(stream, "{request}").expect("send request");
        loop {
            let reply = read_reply(&mut reader);
            match reply.get("type").and_then(Scalar::as_str) {
                Some("accepted") | Some("event") => {}
                Some("result") => {
                    assert_eq!(result_str(&reply, "verdict"), "terminating");
                    break;
                }
                Some("error") => {
                    assert_eq!(result_str(&reply, "message"), "session id already in use");
                    clashes += 1;
                    break;
                }
                other => panic!("unexpected reply {other:?}: {reply:?}"),
            }
        }
    }
    assert_eq!(clashes, 0, "a finished session's id was still in use");
    drop((stream, reader));
    shutdown(&endpoint);
    server.join().expect("server thread");
}

/// `accepted` is the first line of every session that a runner writes
/// to: with 64 sessions pipelined on one connection against a warm
/// cache, runners start at once, yet no `result` line and no runner
/// event (anything but the admission-time `server.*` counters) of a
/// session arrives before its `accepted`.
#[test]
fn accepted_precedes_every_runner_line() {
    use std::io::Write;
    let _serial = serial();
    let (endpoint, server) = boot(
        ServerConfig {
            scheduler: SchedulerConfig {
                runners: 4,
                tenant_queue_cap: 128,
                global_queue_cap: 128,
                retry_after_ms: 10,
            },
            ..ServerConfig::default()
        },
        "accepted",
    );
    let chase = |id: &str| {
        format!(
            r#"{{"op":"chase","id":"{id}","program":"{}","max_steps":20,"telemetry":true}}"#,
            escaped(INFINITE)
        )
    };
    let decide = |id: &str| {
        format!(
            r#"{{"op":"decide","id":"{id}","program":"{}","telemetry":true}}"#,
            escaped(FINITE)
        )
    };
    // Warm both caches so admission resolves at once and decide
    // sessions are a lookup.
    for request in [chase("warm-c"), decide("warm-d")] {
        run_session(&endpoint, &request, &ClientConfig::default(), |_| {}).expect("warm-up");
    }

    let (mut stream, mut reader) = connect(&endpoint);
    let mut batch = String::new();
    for i in 0..64 {
        let id = format!("p-{i}");
        batch.push_str(&if i % 2 == 0 { chase(&id) } else { decide(&id) });
        batch.push('\n');
    }
    stream.write_all(batch.as_bytes()).expect("send batch");
    let mut accepted = std::collections::BTreeSet::new();
    let mut results = 0;
    while results < 64 {
        let reply = read_reply(&mut reader);
        let id = result_str(&reply, "id").to_string();
        match reply.get("type").and_then(Scalar::as_str) {
            Some("accepted") => assert!(accepted.insert(id.clone()), "{id} accepted twice"),
            Some("event") => {
                let admission = reply
                    .get("name")
                    .and_then(Scalar::as_str)
                    .is_some_and(|n| n.starts_with("server."));
                assert!(
                    admission || accepted.contains(&id),
                    "runner event of {id} before its accepted: {reply:?}"
                );
            }
            Some("result") => {
                assert!(accepted.contains(&id), "result of {id} before its accepted");
                assert_eq!(result_str(&reply, "status"), "ok");
                results += 1;
            }
            other => panic!("unexpected reply {other:?}: {reply:?}"),
        }
    }
    assert_eq!(accepted.len(), 64);
    drop((stream, reader));
    shutdown(&endpoint);
    server.join().expect("server thread");
}

/// A one-runner server, so a second admitted session must queue.
fn one_runner() -> ServerConfig {
    ServerConfig {
        scheduler: SchedulerConfig {
            runners: 1,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// A non-terminating chase that only a cancellation ends promptly (the
/// 30 s deadline is a suite-safety net, not the expected exit).
fn endless_chase(id: &str, telemetry: bool) -> String {
    format!(
        r#"{{"op":"chase","id":"{id}","program":"{}","deadline_ms":30000,"telemetry":{telemetry}}}"#,
        escaped(INFINITE)
    )
}

/// Reads replies until `id`'s first line of the given kind: `accepted`,
/// or `runner` for its first event written by a runner (anything but
/// the admission-time `server.*` counters).
fn await_line(reader: &mut impl std::io::BufRead, id: &str, kind: &str) {
    loop {
        let reply = read_reply(reader);
        if reply.get("id").and_then(Scalar::as_str) != Some(id) {
            continue;
        }
        let matched = match reply.get("type").and_then(Scalar::as_str) {
            Some("accepted") => kind == "accepted",
            Some("event") => {
                kind == "runner"
                    && !reply
                        .get("name")
                        .and_then(Scalar::as_str)
                        .is_some_and(|n| n.starts_with("server."))
            }
            other => panic!("unexpected reply {other:?} while awaiting {id}'s {kind}: {reply:?}"),
        };
        if matched {
            return;
        }
    }
}

/// Reads replies until `n` `result` lines arrived; returns them by id.
fn await_results(
    reader: &mut impl std::io::BufRead,
    n: usize,
) -> BTreeMap<String, BTreeMap<String, Scalar>> {
    let mut results = BTreeMap::new();
    while results.len() < n {
        let reply = read_reply(reader);
        if reply.get("type").and_then(Scalar::as_str) == Some("result") {
            results.insert(result_str(&reply, "id").to_string(), reply);
        }
    }
    results
}

/// Graceful shutdown with one session running and two queued: the ack
/// counts both kinds, admission is closed even to a connection opened
/// before the shutdown, and every admitted session still delivers an
/// `ok` result.
#[test]
fn graceful_shutdown_drains_queued_sessions() {
    use std::io::Write;
    let _serial = serial();
    let (endpoint, server) = boot(one_runner(), "drain-queued");
    // A second connection, served before the shutdown lands.
    let (mut other, mut other_reader) = connect(&endpoint);
    writeln!(other, r#"{{"op":"ping"}}"#).expect("send ping");
    assert_eq!(result_str(&read_reply(&mut other_reader), "type"), "pong");

    let (mut stream, mut reader) = connect(&endpoint);
    writeln!(stream, "{}", endless_chase("q-run", true)).expect("send q-run");
    await_line(&mut reader, "q-run", "runner");
    for id in ["q-1", "q-2"] {
        writeln!(
            stream,
            r#"{{"op":"chase","id":"{id}","program":"{}"}}"#,
            escaped(FINITE)
        )
        .expect("send queued session");
        await_line(&mut reader, id, "accepted");
    }

    let ack = request_once(&endpoint, r#"{"op":"shutdown"}"#).expect("shutdown ack");
    assert_eq!(result_str(&ack, "type"), "shutdown_ack");
    assert_eq!(ack.get("running").and_then(Scalar::as_num), Some(1));
    assert_eq!(ack.get("queued").and_then(Scalar::as_num), Some(2));

    // Admission is closed: a session on the other open connection is
    // refused with the typed reply, while the drain is still waiting
    // on q-run.
    writeln!(
        other,
        r#"{{"op":"chase","id":"q-late","program":"{}"}}"#,
        escaped(FINITE)
    )
    .expect("send late session");
    let refused = read_reply(&mut other_reader);
    assert_eq!(result_str(&refused, "type"), "shutting_down");
    assert_eq!(result_str(&refused, "id"), "q-late");

    // End the running session; the drain then runs both queued ones.
    writeln!(other, r#"{{"op":"cancel","id":"q-run"}}"#).expect("send cancel");
    let ack = read_reply(&mut other_reader);
    assert_eq!(result_str(&ack, "type"), "cancel_ack");
    assert_eq!(result_str(&ack, "known"), "true");

    let results = await_results(&mut reader, 3);
    assert_eq!(result_str(&results["q-run"], "status"), "ok");
    assert_eq!(result_str(&results["q-run"], "outcome"), "cancelled");
    for id in ["q-1", "q-2"] {
        assert_eq!(result_str(&results[id], "status"), "ok", "{id}");
        assert_eq!(result_str(&results[id], "outcome"), "terminated", "{id}");
    }
    drop((stream, reader, other, other_reader));
    server.join().expect("server thread");
}

/// Abortive shutdown reaches queued sessions too: with one session
/// running and one queued, both end `cancelled` long before their 30 s
/// deadlines.
#[test]
fn abortive_shutdown_cancels_queued_sessions() {
    use std::io::Write;
    let _serial = serial();
    let (endpoint, server) = boot(one_runner(), "abort-queued");
    let (mut stream, mut reader) = connect(&endpoint);
    writeln!(stream, "{}", endless_chase("a-run", true)).expect("send a-run");
    await_line(&mut reader, "a-run", "runner");
    writeln!(stream, "{}", endless_chase("a-queued", false)).expect("send a-queued");
    await_line(&mut reader, "a-queued", "accepted");

    let started = std::time::Instant::now();
    let ack = request_once(&endpoint, r#"{"op":"shutdown","mode":"abort"}"#).expect("abort ack");
    assert_eq!(result_str(&ack, "type"), "shutdown_ack");
    assert_eq!(result_str(&ack, "mode"), "abort");

    let results = await_results(&mut reader, 2);
    for id in ["a-run", "a-queued"] {
        assert_eq!(result_str(&results[id], "status"), "ok", "{id}");
        assert_eq!(result_str(&results[id], "outcome"), "cancelled", "{id}");
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "abort must not wait out the 30 s deadlines"
    );
    drop((stream, reader));
    server.join().expect("server thread");
}

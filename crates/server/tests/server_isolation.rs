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
use chase_server::server::{Endpoint, Server, ServerConfig};
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
    chase_telemetry::event::escape_json(&mut out, program);
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

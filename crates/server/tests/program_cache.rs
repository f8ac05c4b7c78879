//! Acceptance suite for the content-addressed program cache and
//! decide memoization (DESIGN.md §18): repeated rule sets hit the
//! cache (asserted via streamed telemetry counters), cached sessions
//! stay bit-identical to cold ones, `program_ref` submissions resolve
//! or fall back, malformed programs are rejected at admission, and
//! abortive shutdown cancels in-flight sessions.

use std::collections::BTreeMap;
use std::time::Duration;

use chase_core::compile::compile;
use chase_engine::restricted::ChaseVariant;
use chase_engine::task::{run_chase_task, ChaseTaskSpec};
use chase_server::client::{
    request_once, run_session, run_session_with_fallback, ClientConfig, ClientError,
};
use chase_server::server::{Endpoint, Server, ServerConfig};
use chase_telemetry::json::Scalar;
use chase_telemetry::NullObserver;

const FINITE: &str = "R(a,b).\nR(x,y) -> S(x).\n";
const INFINITE: &str = "R(a,b).\nR(x,y) -> exists z. R(y,z).\n";

fn boot(tag: &str) -> (Endpoint, std::thread::JoinHandle<()>) {
    let dir = std::env::temp_dir().join(format!("chase-cache-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create socket dir");
    let endpoint = Endpoint::Unix(dir.join("chase.sock"));
    let server = Server::bind(&endpoint, ServerConfig::default()).expect("bind server");
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

/// Transcript of one session: the terminal result, the `accepted`
/// reply's `program` fingerprint, and every `server.*` counter_add
/// event summed by name.
struct Transcript {
    result: BTreeMap<String, Scalar>,
    accepted_program: Option<String>,
    counters: BTreeMap<String, u64>,
}

fn run_traced(endpoint: &Endpoint, request: &str) -> Transcript {
    let mut accepted_program = None;
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let done = run_session(
        endpoint,
        request,
        &ClientConfig::default(),
        |line| match line.get("type").and_then(Scalar::as_str) {
            Some("accepted") => {
                accepted_program = line
                    .get("program")
                    .and_then(Scalar::as_str)
                    .map(String::from);
            }
            Some("event") if line.get("event").and_then(Scalar::as_str) == Some("counter_add") => {
                if let (Some(name), Some(delta)) = (
                    line.get("name").and_then(Scalar::as_str),
                    line.get("delta").and_then(Scalar::as_num),
                ) {
                    if name.starts_with("server.") {
                        *counters.entry(name.to_string()).or_insert(0) += delta;
                    }
                }
            }
            _ => {}
        },
    )
    .expect("session should reach a result");
    Transcript {
        result: done.result,
        accepted_program,
        counters,
    }
}

fn counter(t: &Transcript, name: &str) -> u64 {
    t.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn repeated_submission_hits_the_cache_and_stays_bit_identical() {
    let (endpoint, server) = boot("warm");
    let baseline = run_chase_task(&ChaseTaskSpec::restricted(FINITE), &mut NullObserver, None)
        .expect("baseline run");
    let baseline = format!("{:016x}", baseline.fingerprint());

    let request = |id: &str, source: &str| {
        format!(
            r#"{{"op":"chase","id":"{id}","program":"{}","telemetry":true}}"#,
            escaped(source)
        )
    };

    // Cold: one compile, one miss, no hits.
    let cold = run_traced(&endpoint, &request("w-cold", FINITE));
    assert_eq!(result_str(&cold.result, "status"), "ok");
    assert_eq!(result_str(&cold.result, "fingerprint"), baseline);
    assert_eq!(counter(&cold, "server.program_cache.misses"), 1);
    assert_eq!(counter(&cold, "server.program_cache.compiles"), 1);
    assert_eq!(counter(&cold, "server.program_cache.hits"), 0);
    let fp = cold
        .accepted_program
        .expect("accepted carries the program fingerprint");
    assert_eq!(fp.len(), 32, "fingerprint is 32 hex digits: {fp}");

    // Warm: byte-identical resubmission is a pure hit — no compile.
    let warm = run_traced(&endpoint, &request("w-warm", FINITE));
    assert_eq!(counter(&warm, "server.program_cache.hits"), 1);
    assert_eq!(counter(&warm, "server.program_cache.compiles"), 0);
    assert_eq!(warm.accepted_program.as_deref(), Some(fp.as_str()));
    assert_eq!(
        result_str(&warm.result, "fingerprint"),
        baseline,
        "cache-hit session must be bit-identical to the cold run"
    );

    // Reformatted-but-equivalent source pays one compile, then dedups
    // onto the same cache entry (same canonical fingerprint).
    let reformatted = "  R( a ,b ).\n\nR(u,  w)   ->  S(u).";
    let dedup = run_traced(&endpoint, &request("w-dedup", reformatted));
    assert_eq!(dedup.accepted_program.as_deref(), Some(fp.as_str()));
    assert_eq!(result_str(&dedup.result, "fingerprint"), baseline);

    shutdown(&endpoint);
    server.join().expect("server thread");
}

/// Submits each `(engine, program)` in turn to one server and requires
/// every served chase result to equal a direct run of that exact text
/// with the same [`ChaseVariant`]. Any two programs whose direct runs
/// under one engine differ must get different program ids, so the
/// cache can never hand one the other's result.
fn assert_served_like_direct(tag: &str, programs: &[(&str, &str)]) {
    let (endpoint, server) = boot(tag);
    let mut seen: Vec<(&str, String, String)> = Vec::new();
    for (i, &(engine, source)) in programs.iter().enumerate() {
        let spec = ChaseTaskSpec {
            engine: ChaseVariant::parse(Some(engine), None, None).expect("engine name"),
            ..ChaseTaskSpec::restricted(source)
        };
        let direct = run_chase_task(&spec, &mut NullObserver, None).expect("direct run");
        let direct = format!("{:016x}", direct.fingerprint());
        let served = run_traced(
            &endpoint,
            &format!(
                r#"{{"op":"chase","id":"{tag}-{i}","engine":"{engine}","program":"{}"}}"#,
                escaped(source)
            ),
        );
        assert_eq!(
            result_str(&served.result, "fingerprint"),
            direct,
            "served {engine} result of program {i} differs from its direct run:\n{source}"
        );
        let id = served.accepted_program.expect("accepted carries the id");
        for (other_engine, other_id, other_direct) in &seen {
            if *other_engine == engine && *other_direct != direct {
                assert_ne!(*other_id, id, "programs with different results share an id");
            }
        }
        seen.push((engine, id, direct));
    }
    shutdown(&endpoint);
    server.join().expect("server thread");
}

#[test]
fn reordered_programs_get_their_own_chase_results() {
    // B swaps A's rules and renames their variables. A chases to 2
    // steps and 3 atoms, B to 1 step and 2 atoms: rule order decides
    // whether the existential rule fires before the full one
    // satisfies it.
    let a = "R(a,b).\nR(x,y) -> exists z. S(x,z).\nR(x,y) -> S(x,y).\n";
    let b = "R(a,b).\nR(u,v) -> S(u,v).\nR(u,v) -> exists w. S(u,w).\n";
    let spec = |src| ChaseTaskSpec::restricted(src);
    let run_a = run_chase_task(&spec(a), &mut NullObserver, None).unwrap();
    let run_b = run_chase_task(&spec(b), &mut NullObserver, None).unwrap();
    assert_eq!((run_a.steps, run_a.atoms()), (2, 3));
    assert_eq!((run_b.steps, run_b.atoms()), (1, 2));
    assert_served_like_direct("reorder", &[("restricted", a), ("restricted", b)]);

    // Facts before rules vs rules before facts, once where the
    // interleaving keeps the predicate order and once where it does
    // not.
    let rules_first = "R(x,y) -> exists z. S(x,z).\nR(x,y) -> S(x,y).\nR(a,b).\n";
    let s_fact_first = "S(c,d).\nR(a,b).\nR(x,y) -> exists z. S(x,z).\nR(x,y) -> S(x,y).\n";
    let s_fact_last = "R(x,y) -> exists z. S(x,z).\nR(x,y) -> S(x,y).\nS(c,d).\nR(a,b).\n";
    let interleavings = [a, rules_first, s_fact_first, s_fact_last];
    let cases: Vec<_> = interleavings.iter().map(|&p| ("restricted", p)).collect();
    assert_served_like_direct("interleave", &cases);
}

#[test]
fn oblivious_chases_are_served_like_direct_runs() {
    // Two triggers share the frontier x=a: the oblivious chase applies
    // both (4 atoms), the semi-oblivious chase one (3 atoms), and the
    // restricted chase one, the other being satisfied by then.
    let shared_frontier = "R(a,b).\nR(a,c).\nR(x,y) -> exists z. S(x,z).\n";
    let direct = |engine| {
        let spec = ChaseTaskSpec {
            engine,
            ..ChaseTaskSpec::restricted(shared_frontier)
        };
        let run = run_chase_task(&spec, &mut NullObserver, None).unwrap();
        (run.steps, run.atoms())
    };
    assert_eq!(direct(ChaseVariant::Oblivious), (2, 4));
    assert_eq!(direct(ChaseVariant::SemiOblivious), (1, 3));
    let chain = "R(a,b).\nR(x,y) -> exists z. S(y,z).\nS(u,v) -> T(u).\n";
    assert_served_like_direct(
        "oblivious",
        &[
            ("oblivious", shared_frontier),
            ("semi", shared_frontier),
            ("restricted", shared_frontier),
            ("oblivious", chain),
            ("semi", chain),
        ],
    );
}

#[test]
fn decide_verdicts_are_memoized_per_fingerprint() {
    let (endpoint, server) = boot("decide");
    let request = |id: &str| {
        format!(
            r#"{{"op":"decide","id":"{id}","program":"{}","telemetry":true}}"#,
            escaped(INFINITE)
        )
    };

    let cold = run_traced(&endpoint, &request("d-cold"));
    assert_eq!(result_str(&cold.result, "status"), "ok");
    assert_eq!(result_str(&cold.result, "verdict"), "non_terminating");
    assert_eq!(
        cold.result.get("cached").and_then(Scalar::as_bool),
        Some(false)
    );
    assert_eq!(counter(&cold, "server.decide_cache.misses"), 1);

    let warm = run_traced(&endpoint, &request("d-warm"));
    assert_eq!(result_str(&warm.result, "verdict"), "non_terminating");
    assert_eq!(
        warm.result.get("cached").and_then(Scalar::as_bool),
        Some(true),
        "second decide of the same program must be served from cache"
    );
    assert_eq!(counter(&warm, "server.decide_cache.hits"), 1);
    assert_eq!(counter(&warm, "server.decide_cache.misses"), 0);

    shutdown(&endpoint);
    server.join().expect("server thread");
}

#[test]
fn program_ref_misses_then_falls_back_then_serves_warm() {
    let (endpoint, server) = boot("ref");
    // The client computes the same canonical fingerprint the server
    // will: content addressing is symmetric.
    let fp = compile(FINITE)
        .expect("client-side compile")
        .fingerprint()
        .to_hex();
    let ref_line = |id: &str| format!(r#"{{"op":"chase","id":"{id}","program_ref":"{fp}"}}"#);
    let full_line = format!(
        r#"{{"op":"chase","id":"r-fallback","program":"{}"}}"#,
        escaped(FINITE)
    );

    // Pure-ref submission against a cold cache: typed miss.
    let miss = run_session(
        &endpoint,
        &ref_line("r-miss"),
        &ClientConfig::default(),
        |_| {},
    );
    match miss {
        Err(ClientError::UnknownProgram(missed)) => assert_eq!(missed, fp),
        other => panic!("expected UnknownProgram, got {other:?}"),
    }

    // Ref with a full-source fallback: one extra round trip, result
    // delivered, cache now warm.
    let done = run_session_with_fallback(
        &endpoint,
        &ref_line("r-try"),
        Some(&full_line),
        &ClientConfig::default(),
        |_| {},
    )
    .expect("fallback session");
    assert_eq!(result_str(&done.result, "status"), "ok");
    assert_eq!(result_str(&done.result, "outcome"), "terminated");

    // Pure-ref submission now resolves without any source on the wire.
    let warm = run_session(
        &endpoint,
        &ref_line("r-warm"),
        &ClientConfig::default(),
        |_| {},
    )
    .expect("warm ref session");
    assert_eq!(result_str(&warm.result, "outcome"), "terminated");

    shutdown(&endpoint);
    server.join().expect("server thread");
}

#[test]
fn malformed_programs_are_rejected_at_admission() {
    let (endpoint, server) = boot("reject");

    // A chase with garbage source gets a typed parse_error before any
    // scheduler slot is consumed (elapsed_ms 0: no session ever ran).
    let done = run_session(
        &endpoint,
        r#"{"op":"chase","id":"bad-chase","program":"this is not a program"}"#,
        &ClientConfig::default(),
        |_| {},
    )
    .expect("rejection is a typed result, not a dropped connection");
    assert_eq!(result_str(&done.result, "status"), "parse_error");
    assert_eq!(
        done.result.get("elapsed_ms").and_then(Scalar::as_num),
        Some(0)
    );

    let done = run_session(
        &endpoint,
        r#"{"op":"decide","id":"bad-decide","program":"R(x -> "}"#,
        &ClientConfig::default(),
        |_| {},
    )
    .expect("decide rejection is typed too");
    assert_eq!(result_str(&done.result, "status"), "parse_error");

    // The server is unharmed: a healthy session still completes.
    let healthy = run_session(
        &endpoint,
        &format!(
            r#"{{"op":"chase","id":"ok-after","program":"{}"}}"#,
            escaped(FINITE)
        ),
        &ClientConfig::default(),
        |_| {},
    )
    .expect("healthy session after rejections");
    assert_eq!(result_str(&healthy.result, "outcome"), "terminated");

    shutdown(&endpoint);
    server.join().expect("server thread");
}

#[test]
fn facts_wider_than_u16_get_a_typed_parse_error() {
    let (endpoint, server) = boot("wide");
    let args = vec!["a"; usize::from(u16::MAX) + 1].join(",");
    for op in ["chase", "decide"] {
        let done = run_session(
            &endpoint,
            &format!(r#"{{"op":"{op}","id":"wide-{op}","program":"W({args})."}}"#),
            &ClientConfig::default(),
            |_| {},
        )
        .expect("an over-wide fact is a typed result, not a dropped connection");
        assert_eq!(result_str(&done.result, "status"), "parse_error", "{op}");
        assert!(
            result_str(&done.result, "error").contains("arity 65536"),
            "{op}: {:?}",
            done.result
        );
    }
    shutdown(&endpoint);
    server.join().expect("server thread");
}

#[test]
fn abortive_shutdown_cancels_running_sessions() {
    let (endpoint, server) = boot("abort");

    // A session that only a cancellation can end promptly (the 30s
    // deadline is a suite-safety net, not the expected exit).
    let request = format!(
        r#"{{"op":"chase","id":"s-abort","program":"{}","deadline_ms":30000}}"#,
        escaped(INFINITE)
    );
    let client = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            run_session(&endpoint, &request, &ClientConfig::default(), |_| {})
        })
    };
    std::thread::sleep(Duration::from_millis(100));

    let started = std::time::Instant::now();
    let ack = request_once(&endpoint, r#"{"op":"shutdown","mode":"abort"}"#).expect("abort ack");
    assert_eq!(
        ack.get("type").and_then(Scalar::as_str),
        Some("shutdown_ack")
    );
    assert_eq!(ack.get("mode").and_then(Scalar::as_str), Some("abort"));

    // The in-flight session ends cancelled — long before its deadline.
    let done = client
        .join()
        .expect("client thread")
        .expect("aborted session still delivers its result");
    assert_eq!(result_str(&done.result, "status"), "ok");
    assert_eq!(result_str(&done.result, "outcome"), "cancelled");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "abort must not wait out the 30s deadline"
    );

    server.join().expect("server thread");
}

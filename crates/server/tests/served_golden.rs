//! Golden transcript of the served protocol: a fresh default server
//! answers one fixed script of sequential requests over one connection,
//! and every reply line must match `tests/golden/served_transcript.jsonl`.
//!
//! Each reply is re-rendered with its keys sorted and its timing fields
//! (`elapsed_ms`, `nanos`) set to 0, so the file pins keys, values and
//! line order — including the order of admission counters, `accepted`,
//! runner events and `result` within a session. Restricted chase
//! results depend on rule and fact order, so a change to the session
//! path must leave this transcript unchanged. Regenerate deliberately
//! with `cargo test -p chase-server --test served_golden regenerate --
//! --ignored` and call the wire change out in review.
//!
//! The transcript sorts keys, so a second test pins the raw bytes of
//! one telemetry session: key order included, every `event` line is
//! the session prefix followed by the matching `JsonlWriter` trace
//! line of a direct run.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;

use chase_core::compile::compile;
use chase_engine::governor::Budget;
use chase_engine::task::{run_chase_task, ChaseTaskSpec};
use chase_server::client::request_once;
use chase_server::server::{Endpoint, Server, ServerConfig};
use chase_telemetry::json::{encode_line, escape_json, parse_line, Scalar};
use chase_telemetry::JsonlWriter;

const GOLDEN_PATH: &str = "tests/golden/served_transcript.jsonl";

const FINITE: &str = "R(a,b).\nR(x,y) -> S(x).\n";
const INFINITE: &str = "R(a,b).\nR(x,y) -> exists z. R(y,z).\n";
/// Sticky and non-terminating: the sticky decider answers it.
const DECIDE: &str = "R(x,y) -> exists z. R(y,z).\n";
/// Sticky, and never submitted before the deadline-0 request.
const DECIDE_UNCACHED: &str = "P(x,y) -> exists z. P(y,z).\n";

fn escaped(program: &str) -> String {
    let mut out = String::new();
    escape_json(&mut out, program);
    out
}

/// The fixed request script, one line per request.
fn script() -> Vec<String> {
    let finite_ref = compile(FINITE)
        .expect("FINITE compiles")
        .fingerprint()
        .to_hex();
    vec![
        r#"{"op":"ping"}"#.to_string(),
        format!(
            r#"{{"op":"chase","id":"c-term","program":"{}"}}"#,
            escaped(FINITE)
        ),
        format!(
            r#"{{"op":"chase","id":"c-budget","program":"{}","max_steps":3,"telemetry":true}}"#,
            escaped(INFINITE)
        ),
        format!(
            r#"{{"op":"chase","id":"c-obl","engine":"oblivious","program":"{}","max_steps":10}}"#,
            escaped(FINITE)
        ),
        r#"{"op":"chase","id":"c-parse","program":"this is not a rule file"}"#.to_string(),
        format!(r#"{{"op":"chase","id":"c-ref","program_ref":"{finite_ref}"}}"#),
        r#"{"op":"chase","id":"c-miss","program_ref":"00000000000000000000000000000000"}"#
            .to_string(),
        format!(
            r#"{{"op":"decide","id":"d-first","program":"{}"}}"#,
            escaped(DECIDE)
        ),
        format!(
            r#"{{"op":"decide","id":"d-cached","program":"{}","telemetry":true}}"#,
            escaped(DECIDE)
        ),
        format!(
            r#"{{"op":"decide","id":"d-deadline","program":"{}","deadline_ms":0}}"#,
            escaped(DECIDE_UNCACHED)
        ),
        r#"{"op":"cancel","id":"nobody"}"#.to_string(),
        "this is not json".to_string(),
    ]
}

/// Re-renders one reply with sorted keys and zeroed timing fields.
fn normalise(line: &str) -> String {
    let mut map: BTreeMap<String, Scalar> = parse_line(line).expect("reply is flat JSON");
    for key in ["elapsed_ms", "nanos"] {
        if let Some(value) = map.get_mut(key) {
            *value = Scalar::Num(0);
        }
    }
    encode_line(&map)
}

/// Boots a fresh default server on socket `name`, connects, and returns
/// the server thread, its endpoint, the connection and a reader on it.
fn boot(
    name: &str,
) -> (
    std::thread::JoinHandle<()>,
    Endpoint,
    UnixStream,
    BufReader<UnixStream>,
) {
    let dir = std::env::temp_dir().join(format!("chase-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create socket dir");
    let endpoint = Endpoint::Unix(dir.join(name));
    let server = Server::bind(&endpoint, ServerConfig::default()).expect("bind server");
    let endpoint = server.endpoint().clone();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    let Endpoint::Unix(path) = &endpoint else {
        unreachable!("bound a unix socket")
    };
    let stream = UnixStream::connect(path).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (handle, endpoint, stream, reader)
}

/// Closes the connection, shuts the server down and joins it.
fn shut_down(
    handle: std::thread::JoinHandle<()>,
    endpoint: &Endpoint,
    conn: (UnixStream, BufReader<UnixStream>),
) {
    drop(conn);
    let ack = request_once(endpoint, r#"{"op":"shutdown"}"#).expect("shutdown ack");
    assert_eq!(
        ack.get("type").and_then(Scalar::as_str),
        Some("shutdown_ack")
    );
    handle.join().expect("server thread");
}

/// Boots a fresh default server, runs the script over one connection
/// (each request sent after the previous one's terminal reply) and
/// returns the normalised transcript.
fn served_transcript() -> String {
    let (handle, endpoint, mut stream, mut reader) = boot("chase.sock");
    let mut transcript = String::new();
    for request in script() {
        writeln!(stream, "{request}").expect("send request");
        // `accepted` and `event` lines precede a session's terminal
        // reply; every other reply type ends the request.
        loop {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).expect("read reply") > 0,
                "server closed the connection"
            );
            let line = normalise(line.trim_end());
            transcript.push_str(&line);
            transcript.push('\n');
            if !line.contains(r#""type":"accepted""#) && !line.contains(r#""type":"event""#) {
                break;
            }
        }
    }
    shut_down(handle, &endpoint, (stream, reader));
    transcript
}

/// Sets the digits after `"elapsed_ms":` to 0, leaving every other byte.
fn zero_elapsed(line: &str) -> String {
    let key = "\"elapsed_ms\":";
    let start = line.find(key).expect("elapsed_ms field") + key.len();
    let digits = line[start..].bytes().take_while(u8::is_ascii_digit).count();
    format!("{}0{}", &line[..start], &line[start + digits..])
}

#[test]
fn served_event_lines_are_the_direct_trace_behind_the_session_prefix() {
    const MAX_STEPS: usize = 4;
    let (handle, endpoint, mut stream, mut reader) = boot("raw.sock");
    writeln!(
        stream,
        r#"{{"op":"chase","id":"raw","program":"{}","max_steps":{MAX_STEPS},"telemetry":true}}"#,
        escaped(INFINITE)
    )
    .expect("send request");
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read reply") > 0);
        let line = line.trim_end().to_string();
        let done = line.starts_with(r#"{"type":"result""#);
        lines.push(line);
        if done {
            break;
        }
    }
    shut_down(handle, &endpoint, (stream, reader));

    let spec = ChaseTaskSpec {
        budget: Budget::steps(MAX_STEPS),
        ..ChaseTaskSpec::restricted(INFINITE)
    };
    let mut writer = JsonlWriter::new(Vec::new());
    let direct = run_chase_task(&spec, &mut writer, None).expect("direct run");
    let trace = String::from_utf8(writer.finish().expect("flush")).expect("UTF-8 trace");
    let trace: Vec<&str> = trace.lines().collect();

    let program = compile(INFINITE).expect("compiles").fingerprint().to_hex();
    let prefix = r#"{"type":"event","id":"raw","#;
    let mut expected = vec![
        format!(
            r#"{prefix}"event":"counter_add","v":2,"name":"server.program_cache.misses","delta":1}}"#
        ),
        format!(
            r#"{prefix}"event":"counter_add","v":2,"name":"server.program_cache.compiles","delta":1}}"#
        ),
        format!(r#"{{"type":"accepted","id":"raw","program":"{program}"}}"#),
    ];
    expected.extend(trace.iter().map(|line| format!("{prefix}{}", &line[1..])));
    expected.push(format!(
        concat!(
            r#"{{"type":"result","id":"raw","status":"ok","outcome":"budget_exhausted","#,
            r#""steps":{},"atoms":{},"fingerprint":"{:016x}","events_sent":{},"#,
            r#""events_dropped":0,"elapsed_ms":0}}"#
        ),
        direct.steps,
        direct.atoms(),
        direct.fingerprint(),
        trace.len()
    ));
    let last = lines.len() - 1;
    lines[last] = zero_elapsed(&lines[last]);
    assert!(
        trace.len() > 20,
        "a non-trivial trace: {} lines",
        trace.len()
    );
    assert_eq!(lines, expected);
}

#[test]
fn served_transcript_matches_golden_file() {
    let transcript = served_transcript();
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file present");
    assert_eq!(
        transcript, golden,
        "served transcript drifted from {GOLDEN_PATH}; if the change is intentional, \
         regenerate with `cargo test -p chase-server --test served_golden regenerate -- --ignored`"
    );
}

/// Regenerates the golden file. Run explicitly after a deliberate wire
/// change: `cargo test -p chase-server --test served_golden regenerate -- --ignored`.
#[test]
#[ignore]
fn regenerate() {
    std::fs::create_dir_all("tests/golden").unwrap();
    std::fs::write(GOLDEN_PATH, served_transcript()).unwrap();
}

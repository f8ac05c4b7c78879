//! Golden tests for `chasectl`'s exit codes and usage errors: every
//! documented exit code is produced by a real invocation of the built
//! binary, and every malformed command line fails with code 2 plus a
//! one-line usage hint on stderr.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_chasectl");

/// A non-terminating program (infinite restricted chase from `R(a,b)`).
const INFINITE: &str = "R(a,b).\nR(x,y) -> exists z. R(y,z).\n";

/// A terminating program: one application saturates it.
const FINITE: &str = "R(a,b).\nR(x,y) -> S(x).\n";

/// Writes a throwaway rule file; `name` keeps concurrent tests apart.
fn rule_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "chasectl-golden-{}-{name}.rules",
        std::process::id()
    ));
    std::fs::write(&path, contents).expect("write rules");
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn chasectl")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Usage errors must carry the one-line hint so the fix is obvious.
fn assert_usage_error(out: &Output, context: &str) {
    assert_eq!(code(out), 2, "{context}: {}", stderr(out));
    let err = stderr(out);
    assert!(
        err.lines().any(|l| l.starts_with("usage: chasectl")),
        "{context}: no usage hint in {err:?}"
    );
}

#[test]
fn terminating_chase_exits_zero() {
    let rules = rule_file("term", FINITE);
    let out = run(&["chase", rules.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("terminated"));
}

#[test]
fn budget_exhaustion_exits_three() {
    let rules = rule_file("budget", INFINITE);
    let out = run(&["chase", rules.to_str().unwrap(), "--steps", "5"]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("budget exhausted"));
}

#[test]
fn expired_deadline_exits_four() {
    let rules = rule_file("deadline", INFINITE);
    let out = run(&["chase", rules.to_str().unwrap(), "--deadline-ms", "0"]);
    assert_eq!(code(&out), 4, "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("deadline exceeded"));
}

#[test]
fn cancel_after_exits_five() {
    let rules = rule_file("cancel", INFINITE);
    let out = run(&["chase", rules.to_str().unwrap(), "--cancel-after", "3"]);
    assert_eq!(code(&out), 5, "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cancelled after 3 steps"), "{stdout}");
}

#[test]
fn oblivious_honours_the_resilience_flags_too() {
    let rules = rule_file("obl", INFINITE);
    let out = run(&["oblivious", rules.to_str().unwrap(), "--deadline-ms", "0"]);
    assert_eq!(code(&out), 4, "{}", stderr(&out));
    let out = run(&[
        "oblivious",
        rules.to_str().unwrap(),
        "--cancel-after",
        "2",
        "--semi",
    ]);
    assert_eq!(code(&out), 5, "{}", stderr(&out));
}

#[test]
fn decide_with_expired_deadline_exits_four_with_honest_unknown() {
    let rules = rule_file("decide-dl", INFINITE);
    let out = run(&["decide", rules.to_str().unwrap(), "--deadline-ms", "0"]);
    assert_eq!(code(&out), 4, "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("deadline exceeded"), "{stdout}");
}

#[test]
fn decide_without_deadline_exits_zero() {
    let rules = rule_file("decide", INFINITE);
    let out = run(&["decide", rules.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
}

#[test]
fn runtime_errors_exit_one() {
    let out = run(&["chase", "/no/such/file.rules"]);
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    assert!(stderr(&out).contains("cannot read"));
}

#[test]
fn unknown_command_is_a_usage_error() {
    assert_usage_error(&run(&["frobnicate"]), "unknown command");
}

#[test]
fn missing_command_is_a_usage_error() {
    assert_usage_error(&run(&[]), "no arguments");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let rules = rule_file("flags", FINITE);
    let path = rules.to_str().unwrap();
    assert_usage_error(&run(&["chase", path, "--stepz", "5"]), "typo'd flag");
    assert_usage_error(
        &run(&["decide", path, "--cancel-after", "3"]),
        "flag of another command",
    );
    assert_usage_error(
        &run(&["classify", path, "--metrics"]),
        "flag classify lacks",
    );
    // Stray operands and repeated flags are not silently dropped.
    let other = rule_file("flags-other", FINITE);
    assert_usage_error(
        &run(&["chase", path, other.to_str().unwrap()]),
        "second rule file",
    );
    assert_usage_error(&run(&["classify", path, "extra"]), "stray operand");
    assert_usage_error(
        &run(&["chase", path, "--steps", "5", "--steps", "7"]),
        "repeated flag",
    );
}

#[test]
fn malformed_flag_values_are_usage_errors() {
    let rules = rule_file("values", FINITE);
    let path = rules.to_str().unwrap();
    assert_usage_error(
        &run(&["chase", path, "--deadline-ms", "soon"]),
        "bad deadline",
    );
    assert_usage_error(
        &run(&["chase", path, "--deadline-ms", "-5"]),
        "negative deadline",
    );
    assert_usage_error(
        &run(&["chase", path, "--strategy", "random", "--seed", "0xG"]),
        "bad seed",
    );
    assert_usage_error(&run(&["chase", path, "--steps", "many"]), "bad steps");
    assert_usage_error(
        &run(&["chase", path, "--cancel-after"]),
        "flag without value",
    );
    // A value flag followed by another flag has no value: the next
    // flag is not taken as a file name.
    let cwd = std::env::temp_dir().join(format!("chasectl-golden-{}-cwd", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("create working dir");
    let out = Command::new(BIN)
        .args(["chase", path, "--trace", "--metrics"])
        .current_dir(&cwd)
        .output()
        .expect("spawn chasectl");
    assert_usage_error(&out, "--trace followed by a flag");
    assert!(
        !cwd.join("--metrics").exists(),
        "a trace file named --metrics was written"
    );
}

/// `--threads` is gone: every command that used to take it rejects
/// it through the unknown-flag check, with the exact golden message.
#[test]
fn threads_flag_is_an_unknown_option() {
    let rules = rule_file("threads", FINITE);
    let path = rules.to_str().unwrap();
    for args in [
        vec!["chase", path, "--threads", "2"],
        vec!["oblivious", path, "--threads", "2"],
        vec!["profile", path, "--threads", "2"],
        vec![
            "client",
            "unix:/nonexistent.sock",
            "chase",
            path,
            "--threads",
            "2",
        ],
    ] {
        let out = run(&args);
        assert_usage_error(&out, &args.join(" "));
        assert!(
            stderr(&out).contains("unknown option '--threads'"),
            "{}: {}",
            args.join(" "),
            stderr(&out)
        );
    }
}

#[test]
fn help_prints_the_exit_code_table() {
    let out = run(&["help"]);
    assert_eq!(code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--deadline-ms"), "{stdout}");
    assert!(stdout.contains("--cancel-after"), "{stdout}");
    assert!(stdout.contains("exit codes"), "{stdout}");
    assert!(stdout.contains("profile"), "{stdout}");
    assert!(stdout.contains("--follow"), "{stdout}");
}

/// A chain whose transitive closure gives `profile` real work.
const CLOSURE: &str = "E(a,b). E(b,c). E(c,d).\n\
                       E(x,y) -> P(x,y).\n\
                       E(x,y), P(y,z) -> P(x,z).\n";

#[test]
fn profile_reports_spans_and_writes_a_parseable_json_report() {
    let rules = rule_file("profile", CLOSURE);
    let json = std::env::temp_dir().join(format!(
        "chasectl-golden-{}-report.json",
        std::process::id()
    ));
    let folded = std::env::temp_dir().join(format!(
        "chasectl-golden-{}-stacks.folded",
        std::process::id()
    ));
    let out = run(&[
        "profile",
        rules.to_str().unwrap(),
        "--runs",
        "2",
        "--json",
        json.to_str().unwrap(),
        "--folded",
        folded.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("restricted chase: terminated"), "{stdout}");
    assert!(stdout.contains("overhead: baseline"), "{stdout}");
    assert!(stdout.contains("restriction_check"), "{stdout}");
    assert!(stdout.contains("per-TGD hot spots"), "{stdout}");
    assert!(stdout.contains("memory @ step"), "{stdout}");
    // The JSON report is itself a valid one-line trace: stats parses it.
    let report = std::fs::read_to_string(&json).expect("json report written");
    assert!(
        report.starts_with("{\"event\":\"profile_report\",\"v\":2,"),
        "{report}"
    );
    let out = run(&["stats", json.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("profile_report"));
    // Collapsed stacks are semicolon-joined paths with a count.
    let stacks = std::fs::read_to_string(&folded).expect("folded written");
    assert!(stacks.lines().any(|l| l.starts_with("run;")), "{stacks}");
    let _ = std::fs::remove_file(json);
    let _ = std::fs::remove_file(folded);
}

#[test]
fn profile_usage_errors() {
    let rules = rule_file("profile-usage", CLOSURE);
    let path = rules.to_str().unwrap();
    assert_usage_error(
        &run(&["profile", path, "--semi"]),
        "--semi without --oblivious",
    );
    assert_usage_error(&run(&["profile", path, "--metrics"]), "foreign flag");
    assert_usage_error(&run(&["profile", path, "--runs", "several"]), "bad runs");
}

#[test]
fn stats_merges_multiple_traces_and_directories() {
    let rules = rule_file("stats-merge", CLOSURE);
    let dir = std::env::temp_dir().join(format!("chasectl-golden-{}-traces", std::process::id()));
    std::fs::create_dir_all(&dir).expect("trace dir");
    for name in ["a.jsonl", "b.jsonl"] {
        let trace = dir.join(name);
        let out = run(&[
            "chase",
            rules.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ]);
        assert_eq!(code(&out), 0, "{}", stderr(&out));
    }
    // Directory operand: both traces merge into one table.
    let out = run(&["stats", dir.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("merged: 2 file(s)"), "{stdout}");
    // Explicit file operands agree with the directory expansion.
    let a = dir.join("a.jsonl");
    let b = dir.join("b.jsonl");
    let out2 = run(&["stats", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code(&out2), 0, "{}", stderr(&out2));
    assert!(String::from_utf8_lossy(&out2.stdout).contains("merged: 2 file(s)"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn stats_follow_tails_a_trace_and_prints_heartbeats() {
    let rules = rule_file("stats-follow", CLOSURE);
    let trace = std::env::temp_dir().join(format!(
        "chasectl-golden-{}-follow.jsonl",
        std::process::id()
    ));
    let out = run(&[
        "chase",
        rules.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "--profile",
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let out = run(&[
        "stats",
        "--follow",
        trace.to_str().unwrap(),
        "--idle-exit-ms",
        "50",
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("heartbeat: step"), "{stdout}");
    assert!(stdout.contains("span.run"), "{stdout}");
    let _ = std::fs::remove_file(trace);
}

#[test]
fn stats_follow_folds_an_unterminated_last_line() {
    let trace = std::env::temp_dir().join(format!(
        "chasectl-golden-{}-unterminated.jsonl",
        std::process::id()
    ));
    std::fs::write(
        &trace,
        "{\"event\":\"phase_entered\",\"phase\":\"x\"}\n\
         {\"event\":\"phase_exited\",\"phase\":\"x\",\"nanos\":5}",
    )
    .expect("write trace");
    let path = trace.to_str().unwrap();
    let whole = run(&["stats", path]);
    let followed = run(&["stats", "--follow", path, "--idle-exit-ms", "50"]);
    let _ = std::fs::remove_file(&trace);
    let expected = format!("trace: {path}: 2 event(s)");
    for out in [whole, followed] {
        assert_eq!(code(&out), 0, "{}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&expected), "{stdout}");
    }
}

#[test]
fn stats_usage_errors() {
    assert_usage_error(&run(&["stats"]), "no operands");
    assert_usage_error(
        &run(&["stats", "--idle-exit-ms", "50", "x.jsonl"]),
        "idle without follow",
    );
    assert_usage_error(
        &run(&["stats", "--follow", "a.jsonl", "b.jsonl"]),
        "follow with two files",
    );
}

/// Boots `chasectl serve` on a throwaway unix socket and blocks until
/// it prints its listening line, so clients cannot race the bind.
fn boot_server(tag: &str) -> (std::process::Child, String) {
    let socket =
        std::env::temp_dir().join(format!("chasectl-golden-{}-{tag}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    serve_on(&format!("unix:{}", socket.display()))
}

/// Spawns `chasectl serve --socket <socket>` and returns it with the
/// endpoint its listening line reports.
fn serve_on(socket: &str) -> (std::process::Child, String) {
    use std::io::BufRead;
    let mut child = Command::new(BIN)
        .args(["serve", "--socket", socket])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn chasectl serve");
    let stdout = child.stdout.take().expect("server stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listening line");
    let endpoint = line
        .trim_end()
        .strip_prefix("chase-server: listening on ")
        .unwrap_or_else(|| panic!("no listening line: {line:?}"))
        .to_string();
    (child, endpoint)
}

#[test]
fn serve_over_tcp_reports_the_bound_port_and_round_trips() {
    let (mut server, endpoint) = serve_on("tcp:127.0.0.1:0");
    let port = endpoint
        .strip_prefix("tcp:127.0.0.1:")
        .unwrap_or_else(|| panic!("not a TCP endpoint: {endpoint}"));
    assert_ne!(port.parse::<u16>().expect("numeric port"), 0, "{endpoint}");
    let finite = rule_file("srv-tcp-finite", FINITE);

    let ping = run(&["client", &endpoint, "ping"]);
    let chase = run(&["client", &endpoint, "chase", finite.to_str().unwrap()]);
    let shutdown = run(&["client", &endpoint, "shutdown"]);
    let status = server.wait().expect("server exit");

    assert_eq!(code(&ping), 0, "{}", stderr(&ping));
    assert_eq!(
        String::from_utf8_lossy(&ping.stdout),
        "{\"type\":\"pong\"}\n"
    );
    assert_eq!(code(&chase), 0, "{}", stderr(&chase));
    let stdout = String::from_utf8_lossy(&chase.stdout);
    assert!(
        stdout.contains("terminated after 1 steps, 2 atoms"),
        "{stdout}"
    );
    assert_eq!(code(&shutdown), 0, "{}", stderr(&shutdown));
    assert!(String::from_utf8_lossy(&shutdown.stdout).contains("shutdown_ack"));
    assert!(status.success(), "server exited {status:?}");
}

#[test]
fn serve_round_trips_chase_decide_and_control_ops() {
    let (mut server, endpoint) = boot_server("roundtrip");
    let finite = rule_file("srv-finite", FINITE);
    let infinite = rule_file("srv-infinite", INFINITE);
    let broken = rule_file("srv-broken", "this is not a rule file");

    let out = run(&["client", &endpoint, "ping"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("pong"));

    // A served chase matches the direct command's exit-code contract.
    let out = run(&["client", &endpoint, "chase", finite.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("terminated"), "{stdout}");
    assert!(stdout.contains("fingerprint"), "{stdout}");

    let out = run(&[
        "client",
        &endpoint,
        "chase",
        infinite.to_str().unwrap(),
        "--steps",
        "5",
    ]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));

    let out = run(&[
        "client",
        &endpoint,
        "chase",
        infinite.to_str().unwrap(),
        "--deadline-ms",
        "0",
    ]);
    assert_eq!(code(&out), 4, "{}", stderr(&out));

    // A parse failure is a typed per-session result, not a dead server.
    let out = run(&["client", &endpoint, "chase", broken.to_str().unwrap()]);
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    assert!(stderr(&out).contains("parse_error"), "{}", stderr(&out));

    // Telemetry relays event lines in the shared flat-JSON grammar.
    let out = run(&[
        "client",
        &endpoint,
        "chase",
        infinite.to_str().unwrap(),
        "--steps",
        "3",
        "--telemetry",
    ]);
    assert_eq!(code(&out), 3, "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"type\":\"event\""), "{stdout}");
    assert!(stdout.contains("\"event\":\"trigger_applied\""), "{stdout}");

    let out = run(&["client", &endpoint, "decide", finite.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("verdict terminating"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Cancelling an unknown session is acknowledged but exits 1.
    let out = run(&["client", &endpoint, "cancel", "--id", "no-such-session"]);
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("cancel_ack"));

    let out = run(&["client", &endpoint, "shutdown"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("shutdown_ack"));

    let status = server.wait().expect("server exit");
    assert!(status.success(), "server exited {status:?}");
}

/// The `after N steps, M atoms` part of a chase summary line, which
/// `chasectl chase` and `chasectl client chase` both print.
fn steps_and_atoms(stdout: &[u8]) -> String {
    let stdout = String::from_utf8_lossy(stdout);
    let start = stdout.find("after ").expect("summary line") + "after ".len();
    let end = start + stdout[start..].find(" atoms").expect("atom count");
    stdout[start..end].to_string()
}

#[test]
fn serve_random_strategy_defaults_to_the_cli_seed() {
    // Trigger order decides this program's restricted chase result, so
    // the served run only matches the direct one if both default to
    // the same random seed.
    let rules = rule_file(
        "srv-random",
        "P(a,b). P(c,d).\nP(x,y) -> P(y,x).\nP(x,y) -> exists z. P(z,x).\n",
    );
    let path = rules.to_str().unwrap();
    let args = ["--strategy", "random", "--steps", "40"];
    let direct = run(&[&["chase", path][..], &args].concat());
    assert_eq!(code(&direct), 0, "{}", stderr(&direct));

    let (mut server, endpoint) = boot_server("random");
    let served = run(&[&["client", &endpoint, "chase", path][..], &args].concat());
    // Shut the server down before asserting, so a failure leaves no
    // server process behind.
    let out = run(&["client", &endpoint, "shutdown"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(server.wait().expect("server exit").success());

    assert_eq!(code(&served), 0, "{}", stderr(&served));
    assert_eq!(
        steps_and_atoms(&served.stdout),
        steps_and_atoms(&direct.stdout)
    );
    assert_eq!(steps_and_atoms(&direct.stdout), "4 steps, 6");
}

#[test]
fn serve_and_client_usage_errors() {
    assert_usage_error(&run(&["serve"]), "serve without --socket");
    assert_usage_error(&run(&["serve", "--socket"]), "socket without value");
    assert_usage_error(&run(&["client"]), "client without endpoint");
    assert_usage_error(
        &run(&["client", "unix:/tmp/x.sock"]),
        "client without operation",
    );
    assert_usage_error(
        &run(&["client", "unix:/tmp/x.sock", "frobnicate"]),
        "unknown client operation",
    );
    assert_usage_error(
        &run(&["client", "unix:/tmp/x.sock", "chase"]),
        "client chase without file",
    );
    assert_usage_error(
        &run(&["client", "unix:/tmp/x.sock", "cancel"]),
        "cancel without --id",
    );
    assert_usage_error(&run(&["client", "nonsense", "ping"]), "bad endpoint");
}

#[test]
fn client_against_no_server_is_a_runtime_error() {
    let out = run(&["client", "unix:/tmp/chasectl-no-such-server.sock", "ping"]);
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    assert!(stderr(&out).contains("i/o error"), "{}", stderr(&out));
}

#[test]
fn client_decide_usage_errors() {
    let rules = rule_file("client-decide-usage", FINITE);
    let path = rules.to_str().unwrap();
    assert_usage_error(
        &run(&["client", "unix:/tmp/x.sock", "decide"]),
        "client decide without file",
    );
    assert_usage_error(
        &run(&["client", "unix:/tmp/x.sock", "decide", path, "--steps", "5"]),
        "chase-only flag on client decide",
    );
}

#[test]
fn serve_decide_with_expired_deadline_exits_four() {
    let (mut server, endpoint) = boot_server("decide-deadline");
    // A fresh server: neither cache answers it.
    let rules = rule_file("srv-decide-deadline", INFINITE);
    let out = run(&[
        "client",
        &endpoint,
        "decide",
        rules.to_str().unwrap(),
        "--deadline-ms",
        "0",
    ]);
    let shut = run(&["client", &endpoint, "shutdown"]);
    assert_eq!(code(&shut), 0, "{}", stderr(&shut));
    assert!(server.wait().expect("server exit").success());

    assert_eq!(code(&out), 4, "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("deadline exceeded"), "{stdout}");
}

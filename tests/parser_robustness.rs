//! Parser robustness: arbitrary input must never panic — every byte
//! soup either parses or yields a positioned error — and pretty-printed
//! rule sets survive structural round-trips. The same holds for the
//! server's request parser and the flat-JSON decoder under it, and for
//! the offline trace fold behind `chasectl stats`. The flat-JSON codec
//! round-trips: what the encoder writes, the decoder reads back. Every
//! engine/strategy name resolves through the one `ChaseVariant::parse`.

use proptest::prelude::*;
use restricted_chase::prelude::*;
use restricted_chase::server::protocol::parse_request;
use restricted_chase::telemetry::json::{encode_line, parse_line, Scalar};
use restricted_chase::telemetry::CountingObserver;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    /// No input string panics the parser.
    #[test]
    fn arbitrary_strings_never_panic(src in ".{0,200}") {
        let mut vocab = Vocabulary::new();
        let _ = parse_program(&src, &mut vocab);
    }

    /// Token-shaped soup (the adversarial case: valid tokens in random
    /// order) never panics either, and error positions stay in range.
    #[test]
    fn token_soup_never_panics(tokens in proptest::collection::vec(0u8..8, 0..60)) {
        let rendered: String = tokens.iter().map(|t| match t {
            0 => "R",
            1 => "(",
            2 => ")",
            3 => ",",
            4 => "->",
            5 => ".",
            6 => "exists",
            7 => " x ",
            _ => unreachable!(),
        }).collect();
        let mut vocab = Vocabulary::new();
        if let Err(CoreError::Parse { line, .. }) = parse_program(&rendered, &mut vocab) {
            prop_assert!(line <= rendered.lines().count().max(1));
        }
    }

    /// Well-formed generated programs always parse, and the parsed
    /// rule set re-displays to text that parses again to a set with
    /// identical structure (predicate/arity/atom counts).
    #[test]
    fn generated_programs_roundtrip_structurally(seed in 0u64..50_000) {
        let params = RandomTgdParams::default();
        let src = random_tgds(&params, seed);
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(&src, &mut vocab).expect("generated rules parse");
        // Display uses `?var` markers which are not re-parseable by
        // design (display is for humans); instead check structural
        // invariants directly.
        for tgd in set.tgds() {
            prop_assert!(!tgd.body().is_empty());
            prop_assert!(!tgd.head().is_empty());
            for atom in tgd.body().iter().chain(tgd.head().iter()) {
                prop_assert_eq!(atom.arity(), vocab.arity(atom.pred));
                prop_assert!(atom.args.iter().all(|t| t.is_var()));
            }
            // Frontier ∪ existentials = head variables.
            for head in tgd.head() {
                for v in head.vars() {
                    prop_assert!(tgd.is_frontier(v) || tgd.is_existential(v));
                }
            }
        }
    }
}

/// Valid request lines whose prefixes the truncation property feeds to
/// the parsers.
const REQUESTS: &[&str] = &[
    r#"{"op":"chase","id":"s1","program":"R(a,b).\nR(x,y) -> S(x).","engine":"semi","strategy":"random","seed":7,"max_steps":40,"telemetry":true}"#,
    r#"{"op":"decide","id":"dé","program_ref":"0123456789abcdef0123456789abcdef","deadline_ms":5}"#,
    r#"{"op":"shutdown","mode":"abort"}"#,
    r#"{"op":"cancel","id":"s\"1"}"#,
];

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    /// No input string panics the request parser or the flat-JSON
    /// decoder under it.
    #[test]
    fn arbitrary_request_lines_never_panic(line in ".{0,200}") {
        let _ = parse_request(&line);
        let _ = parse_line(&line);
    }

    /// JSON-token soup — braces, quotes, escapes, the request keys and
    /// engine/strategy names, numbers out of range — never panics
    /// either.
    #[test]
    fn json_token_soup_never_panics(tokens in proptest::collection::vec(0u8..20, 0..40)) {
        let line: String = tokens.iter().map(|t| match t {
            0 => "{",
            1 => "}",
            2 => ":",
            3 => ",",
            4 => "\"op\"",
            5 => "\"chase\"",
            6 => "\"id\"",
            7 => "\"engine\"",
            8 => "\"semi\"",
            9 => "\"strategy\"",
            10 => "\"random\"",
            11 => "\"seed\"",
            12 => "18446744073709551616",
            13 => "-1",
            14 => "true",
            15 => "\"\\u12",
            16 => "\"\\",
            17 => "\"program\"",
            18 => "1.5",
            19 => "null",
            _ => unreachable!(),
        }).collect();
        let _ = parse_request(&line);
        let _ = parse_line(&line);
    }

    /// Every prefix of a valid request (a client cut off mid-line) is
    /// answered with a diagnostic or a request, never a panic; only the
    /// whole line parses as a request.
    #[test]
    fn truncated_requests_never_panic(which in 0usize..4, cut in 0usize..400) {
        let line = REQUESTS[which];
        let mut end = cut.min(line.len());
        while !line.is_char_boundary(end) {
            end -= 1;
        }
        let prefix = &line[..end];
        let _ = parse_line(prefix);
        let parsed = parse_request(prefix);
        if end < line.len() {
            prop_assert!(parsed.is_err(), "prefix {:?} parsed", prefix);
        } else {
            prop_assert!(parsed.is_ok(), "{:?}", parsed.err());
        }
    }
}

/// Trace event kinds and their fields, as `JsonlWriter` writes them,
/// plus a retired and an unknown kind. `engine`, `reason`, `name`,
/// `phase` and `span` are strings, `active` and `fresh` booleans, the
/// rest integers.
const TRACE_KINDS: &[(&str, &[&str])] = &[
    ("trigger_discovered", &["engine", "tgd", "step"]),
    ("trigger_checked", &["engine", "tgd", "step", "active"]),
    (
        "trigger_applied",
        &["engine", "tgd", "step", "new_atoms", "new_nulls"],
    ),
    ("trigger_deactivated", &["engine", "tgd", "step"]),
    ("null_invented", &["engine", "null", "step"]),
    ("atom_inserted", &["engine", "predicate", "step", "fresh"]),
    ("queue_depth", &["engine", "step", "depth"]),
    ("run_interrupted", &["engine", "step", "reason"]),
    ("counter_add", &["name", "delta"]),
    ("phase_entered", &["phase"]),
    ("phase_exited", &["phase", "nanos"]),
    ("span_entered", &["span", "tgd"]),
    ("span_exited", &["span", "tgd", "nanos"]),
    (
        "memory_sampled",
        &[
            "engine",
            "step",
            "atoms",
            "atom_bytes",
            "arg_spill_bytes",
            "dedup_bytes",
            "index_bytes",
            "queue_depth",
            "allocations",
        ],
    ),
    (
        "heartbeat",
        &[
            "engine",
            "step",
            "elapsed_ns",
            "steps_per_sec",
            "atoms",
            "atoms_per_sec",
            "queue_depth",
        ],
    ),
    ("worker_panicked", &["engine", "step", "panics"]),
    ("from_the_future", &["step"]),
];

/// One generated trace line: a kind, one `(shape, random)` draw per
/// field, and the index of a field to leave out (none when out of
/// range).
type LineSpec = (usize, Vec<(u8, u64)>, usize);

fn trace_line((kind, draws, omit): &LineSpec) -> String {
    // Counter names include a histogram's and a span histogram's name.
    const NAMES: [&str; 4] = ["queue.depth", "span.step", "x", "memory.instance_bytes"];
    let (event, fields) = TRACE_KINDS[*kind];
    let mut line = format!("{{\"event\":\"{event}\"");
    for (i, field) in fields.iter().enumerate() {
        if i == *omit {
            continue;
        }
        let (shape, random) = draws[i];
        let value = match *field {
            "engine" => "\"restricted\"".to_string(),
            "reason" => "\"deadline\"".to_string(),
            "name" | "phase" | "span" => format!("\"{}\"", NAMES[random as usize % 4]),
            "active" | "fresh" => (random % 2 == 0).to_string(),
            _ => [0, 1, u64::MAX, random][shape as usize].to_string(),
        };
        line.push_str(&format!(",\"{field}\":{value}"));
    }
    line.push('}');
    line
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    /// The offline trace fold (`CountingObserver::record_line`, which
    /// `chasectl stats` runs) never panics: lines of every kind, with
    /// values drawn from {0, 1, `u64::MAX`, random} and sometimes a
    /// missing field, each folded twice into one observer, return —
    /// `Ok` or an error — and so does the summary.
    #[test]
    fn trace_fold_never_panics(
        specs in proptest::collection::vec(
            (
                0..TRACE_KINDS.len(),
                proptest::collection::vec((0u8..4, 0u64..=u64::MAX), 9..10),
                0usize..16,
            ),
            1..8,
        )
    ) {
        let mut obs = CountingObserver::new();
        for spec in &specs {
            let line = trace_line(spec);
            let event = parse_line(&line).expect("generated lines are flat JSON");
            let _ = obs.record_line(&event);
            let _ = obs.record_line(&event);
        }
        let _ = obs.summary().render_table();
    }
}

/// Pieces that keys and string values are built from: quotes,
/// backslashes, control characters, non-ASCII and astral characters.
const PIECES: [&str; 16] = [
    "a", "key", "\"", "\\", "\n", "\t", "\r", "\u{0}", "\u{1f}", "\u{7f}", "/", "é", "漢",
    "\u{FFFF}", "😀", "𝄞",
];

/// One generated field: key pieces, then `(kind, shape, random)` for
/// the value, then the pieces of a string value.
type FieldSpec = (Vec<usize>, (u8, u8, u64), Vec<usize>);

fn flat_map(fields: &[FieldSpec]) -> std::collections::BTreeMap<String, Scalar> {
    let text = |pieces: &[usize]| pieces.iter().map(|&i| PIECES[i]).collect::<String>();
    fields
        .iter()
        .map(|(key, (kind, shape, random), value)| {
            let value = match kind {
                0 => Scalar::Str(text(value)),
                1 => Scalar::Num([0, 1, u64::MAX, *random][usize::from(*shape)]),
                _ => Scalar::Bool(random % 2 == 0),
            };
            (text(key), value)
        })
        .collect()
}

/// Renders `s` with every character as a `\uXXXX` escape (astral
/// characters as UTF-16 surrogate pairs), quotes included.
fn u_escaped(s: &str) -> String {
    let mut units = [0u16; 2];
    let mut out = String::from("\"");
    for c in s.chars() {
        for unit in c.encode_utf16(&mut units) {
            out.push_str(&format!("\\u{unit:04x}"));
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    /// `parse_line(encode_line(map)) == map` for random flat maps, and
    /// a rendering that writes every key and string as `\uXXXX`
    /// escapes decodes to the same map.
    #[test]
    fn flat_json_codec_round_trips(
        fields in proptest::collection::vec(
            (
                proptest::collection::vec(0..PIECES.len(), 0..5),
                (0u8..3, 0u8..4, 0u64..=u64::MAX),
                proptest::collection::vec(0..PIECES.len(), 0..5),
            ),
            0..8,
        )
    ) {
        let map = flat_map(&fields);
        let line = encode_line(&map);
        prop_assert_eq!(parse_line(&line), Ok(map.clone()));

        let rendered: Vec<String> = map
            .iter()
            .map(|(key, value)| {
                let value = match value {
                    Scalar::Str(s) => u_escaped(s),
                    Scalar::Num(n) => n.to_string(),
                    Scalar::Bool(b) => b.to_string(),
                };
                format!("{}:{value}", u_escaped(key))
            })
            .collect();
        let escaped = format!("{{{}}}", rendered.join(","));
        prop_assert_eq!(parse_line(&escaped), Ok(map));
    }
}

/// Every engine × strategy name, known and unknown, with and without a
/// seed, through the one name parser: the CLI calls
/// `ChaseVariant::parse` directly and the server through
/// `parse_request`, and both must resolve a name the same way.
#[test]
fn every_engine_and_strategy_name_resolves_through_one_parser() {
    use restricted_chase::engine::restricted::{Strategy, DEFAULT_RANDOM_SEED};
    use restricted_chase::server::protocol::{Request, SessionOp};

    assert_eq!(DEFAULT_RANDOM_SEED, 0xC0FFEE, "the documented CLI default");
    // What an engine name resolves to, given the strategy; `None` for
    // an unknown name.
    type Resolves = Option<fn(Strategy) -> ChaseVariant>;
    let engines: [(Option<&str>, Resolves); 6] = [
        (None, Some(ChaseVariant::Restricted)),
        (Some("restricted"), Some(ChaseVariant::Restricted)),
        (Some("oblivious"), Some(|_| ChaseVariant::Oblivious)),
        (Some("semi"), Some(|_| ChaseVariant::SemiOblivious)),
        (Some("Oblivious"), None),
        (Some("semi-oblivious"), None),
    ];
    for seed in [None, Some(7)] {
        let strategies: [(Option<&str>, Option<Strategy>); 7] = [
            (None, Some(Strategy::Fifo)),
            (Some("fifo"), Some(Strategy::Fifo)),
            (Some("lifo"), Some(Strategy::Lifo)),
            (
                Some("random"),
                Some(Strategy::Random(seed.unwrap_or(0xC0FFEE))),
            ),
            (Some("priority"), Some(Strategy::PriorityTgd)),
            (Some("FIFO"), None),
            (Some(""), None),
        ];
        for (engine, make) in engines {
            for (strategy, resolved) in strategies {
                let got = ChaseVariant::parse(engine, strategy, seed);
                let case = format!("engine {engine:?}, strategy {strategy:?}, seed {seed:?}");
                match (resolved, make) {
                    // A strategy is checked even when the engine ignores it.
                    (None, _) => {
                        let err = got.expect_err(&case);
                        assert!(err.contains("unknown strategy"), "{case}: {err}");
                    }
                    (Some(_), None) => {
                        let err = got.expect_err(&case);
                        assert!(err.contains("unknown engine"), "{case}: {err}");
                    }
                    (Some(s), Some(make)) => assert_eq!(got, Ok(make(s)), "{case}"),
                }

                let mut line = String::from(r#"{"op":"chase","id":"t","program":"R(a,b).""#);
                if let Some(e) = engine {
                    line.push_str(&format!(r#","engine":"{e}""#));
                }
                if let Some(s) = strategy {
                    line.push_str(&format!(r#","strategy":"{s}""#));
                }
                if let Some(n) = seed {
                    line.push_str(&format!(r#","seed":{n}"#));
                }
                line.push('}');
                match (
                    parse_request(&line),
                    ChaseVariant::parse(engine, strategy, seed),
                ) {
                    (Ok(Request::Session(req)), Ok(variant)) => match req.op {
                        SessionOp::Chase { engine, .. } => assert_eq!(engine, variant, "{case}"),
                        SessionOp::Decide => panic!("{case}: a chase line parsed as a decide"),
                    },
                    (Err(served), Err(direct)) => assert_eq!(served, direct, "{case}"),
                    (served, direct) => panic!("{case}: served {served:?}, direct {direct:?}"),
                }
            }
        }
    }
}

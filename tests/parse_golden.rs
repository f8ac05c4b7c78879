//! Golden file of parser results: for a fixed corpus of valid programs,
//! their truncations and hand-written malformed inputs, what
//! [`compile`] (and, for `tgds:` entries, [`parse_tgds`]) returns is
//! pinned in `tests/golden/parse_corpus.txt`.
//!
//! A valid input records its program fingerprint, rule and fact
//! counts, the predicate names in id order and the constant count, so
//! interning order is pinned along with the structure. A failing input
//! records the `{:?}` of its [`CoreError`]: variant, message, line and
//! column, and which error wins when an input has several. A parser
//! rewrite must pass this file unchanged. Regenerate deliberately with
//! `cargo test --test parse_golden regenerate -- --ignored`.

use std::fmt::Write as _;

use restricted_chase::prelude::*;

const GOLDEN_PATH: &str = "tests/golden/parse_corpus.txt";

/// Random rule sets (each with its own database) `0..RANDOM_SEEDS`.
const RANDOM_SEEDS: u64 = 16;

/// Every valid program is also recorded truncated after every
/// `TRUNCATE_STRIDE`-th byte (at char boundaries).
const TRUNCATE_STRIDE: usize = 31;

/// The valid corpus: the example rule files, the labelled suite with
/// its probe databases, seeded random programs and small programs
/// shaped like the served ingest workload.
fn valid_corpus() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut examples: Vec<_> = std::fs::read_dir("examples/rules")
        .expect("examples/rules exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "chase"))
        .collect();
    examples.sort();
    for path in examples {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).expect("example readable");
        out.push((name, source));
    }
    for entry in labelled_suite() {
        out.push((
            format!("suite:{}", entry.name),
            format!("{}\n{}", entry.source, entry.probe_database),
        ));
    }
    let params = RandomTgdParams::default();
    for seed in 0..RANDOM_SEEDS {
        let rules = random_tgds(&params, seed);
        let db = random_database(&params, 8, seed, seed * 31 + 7);
        out.push((format!("random{seed}"), format!("{rules}{db}")));
    }
    let mut exchange = families::data_exchange(3);
    for i in 0..3 {
        for j in 0..12 {
            let _ = writeln!(exchange, "S{i}(c{:x},d{}).", 0xa0 + j, j % 7);
        }
    }
    out.push(("ingest:data_exchange".into(), exchange));
    let mut wide = String::new();
    for i in 0..2 {
        let _ = writeln!(wide, "S{i}(x,y,u) -> exists z. T{i}(x,y,z).");
        let _ = writeln!(wide, "T{i}(p,q,r) -> W{i}(p,q).");
    }
    for i in 0..2 {
        for j in 0..15 {
            let _ = writeln!(wide, "S{i}(c{},d{},e{:x}).", j % 5, j % 7, 0x40 + j);
        }
    }
    out.push(("ingest:wide_existential".into(), wide));
    out.push((
        "ingest:triangle".into(),
        format!(
            "E(x,y), E(y,z), E(x,z) -> exists w. M(x,z,w).\n{}",
            families::edge_database("E", 12, 30, 3)
        ),
    ));
    out
}

/// Hand-written inputs, mostly malformed: one or more of each error
/// class, errors at end of input, competing errors in one statement,
/// and lexical errors that follow a syntax or arity error.
const EDGE_CASES: &[(&str, &str)] = &[
    ("empty", ""),
    ("whitespace-only", "  \n\t \r\n\x0c "),
    ("comments-only", "% one\n# two\n// three"),
    ("comment-at-eof", "R(a). % no newline"),
    (
        "crlf-valid",
        "R(a,b).\r\nR(x,y) -> S(x).\r\nS(x) -> exists z. R(x,z).\r\n",
    ),
    ("crlf-error", "R(a,b).\r\nR(x,y) -> S(x).\r\nS(a,b).\r\n"),
    ("crlf-lex-error", "R(a,b).\r\n\r\n  R(c,d) - R(e,f).\r\n"),
    ("numeric-identifiers", "R(1,2).\nR(x,1) -> S(1)."),
    ("primed-identifiers", "R(a',b'').\nR(x',y) -> S(x')."),
    ("underscore-identifiers", "_R(_a,b_1).\n_R(_x,y) -> _S(_x)."),
    ("exists-optional", "S(x) -> R(x,y)."),
    ("exists-two", "R(x) -> exists y, z. S(x,y,z)."),
    ("exists-as-fact-arg", "R(exists)."),
    ("exists-as-body-pred", "exists(x) -> R(x)."),
    ("multi-head", "R(x,y,y) -> exists z. R(x,z,y), R(z,y,y)."),
    ("duplicate-facts", "R(a,b). R(a,b). R(b,a)."),
    ("stray-dash", "R(a,b). - R(c,d)."),
    ("stray-dash-at-eof", "R(x) -> S(x). R(a)-"),
    ("spaced-arrow", "R(x) - > S(x)."),
    ("stray-gt", "R(x) > S(x)."),
    ("single-slash", "R(a). / R(b)."),
    ("leading-quote", "R('a)."),
    ("vertical-tab", "R(a).\x0bR(b)."),
    ("non-ascii-byte", "R(a,b).\nR(\u{e9})."),
    ("non-ascii-arrow", "R(x) \u{2192} S(x)."),
    ("non-ascii-in-comment", "% \u{3c3}\u{2081} \u{2192}\nR(a)."),
    ("non-ascii-after-ident", "R(a\u{e9})."),
    ("empty-args", "R()."),
    ("empty-args-rule", "R() -> S(x)."),
    ("trailing-comma-args", "R(a,)."),
    ("missing-paren", "R a."),
    ("double-paren", "R((a))."),
    ("extra-rparen", "R(a))."),
    ("fact-no-dot", "R(a) R(b)."),
    ("fact-arrow-dot", "R(a) -> ."),
    ("multi-atom-fact", "R(a), S(b)."),
    ("multi-atom-fact-arity-clash", "R(a), R(a,b)."),
    ("multi-atom-fact-arity-clash-eof", "R(a), R(a,b)"),
    ("fact-arity-clash", "R(a,b).\nR(a)."),
    ("fact-arity-clash-then-syntax", "R(a,b).\nR(a) R(b)."),
    ("rule-then-fact-arity-clash", "R(x,y) -> S(x). S(a,b)."),
    ("body-arity-clash", "R(x), R(x,y) -> S(x)."),
    ("body-arity-clash-head-syntax", "R(x), R(x,y) -> S(x"),
    (
        "body-arity-clash-exists-syntax",
        "R(x), R(x,y) -> exists . S(x).",
    ),
    ("body-syntax-after-arity-clash", "R(x), R(x,y), ( -> S(x)."),
    ("head-arity-clash", "R(x) -> S(x), S(x,y)."),
    ("head-arity-clash-no-dot", "R(x) -> S(x), S(x,y)"),
    ("head-arity-clash-then-syntax", "R(x) -> S(x), S(x,y) R(x)."),
    ("head-syntax-after-arity-clash", "R(x) -> S(x), S(x,y), )."),
    ("body-head-arity-clash", "R(x) -> R(x,y)."),
    ("rule-then-body-clash", "R(x) -> S(x).\nS(x,y) -> T(x)."),
    ("no-head", "R(x) -> ."),
    ("no-head-eof", "R(x) ->"),
    ("no-body", "-> S(x)."),
    ("double-arrow", "R(x) -> -> S(x)."),
    ("rule-no-dot", "R(x) -> S(x)"),
    ("rule-no-dot-then-rule", "R(x) -> S(x)\nS(y) -> T(y)."),
    ("exists-no-var", "R(x) -> exists . S(x)."),
    ("exists-no-dot", "R(x) -> exists y S(x,y)."),
    ("exists-body-var", "R(x,y) -> exists x. S(x)."),
    ("exists-unused", "R(x) -> exists y. S(x)."),
    ("exists-second-bad", "R(x) -> exists y, x. S(x,y)."),
    ("exists-both-bad", "R(x) -> exists x, w. S(x)."),
    ("exists-paren", "R(x) -> exists(x)."),
    ("exists-prefixed-pred", "R(x) -> existsR(x)."),
    ("exists-twice", "R(x) -> exists y. exists z. S(x,y,z)."),
    ("exists-eof", "R(x) -> exists"),
    ("exists-var-eof", "R(x) -> exists y"),
    ("exists-dot-eof", "R(x) -> exists y."),
    ("exists-trailing-comma", "R(x) -> exists y,. S(x,y)."),
    ("exists-then-bad-head", "R(x) -> exists y. S(x,y"),
    ("exists-bad-then-no-dot", "R(x) -> exists x. S(x)"),
    ("eof-pred", "R"),
    ("eof-lparen", "R("),
    ("eof-arg", "R(a"),
    ("eof-comma", "R(a,"),
    ("eof-rparen", "R(a)"),
    ("eof-atom-comma", "R(x),"),
    ("eof-after-comment", "R(a) % dangling\n"),
    ("eof-many-lines", "R(a).\n\n\nR(b"),
    ("lone-dot", "."),
    ("lone-comma", ","),
    ("lone-rparen", ")"),
    ("syntax-then-lex-error", "R(a,b -> .\nR(c) -"),
    ("arity-then-lex-error", "R(a,b).\nR(a).\nR(c) -"),
    ("exists-then-lex-error", "R(x) -> exists x. S(x).\n\u{e9}"),
    ("multi-fact-then-lex-error", "R(a), S(b).\n  %ok\n  /"),
    (
        "lex-error-after-many-facts",
        "R(a). R(b). R(c). R(d). R(e). R(f).\nR(g) * R(h).",
    ),
    (
        "tgds:rules-only",
        "R(x,y) -> S(x). S(x) -> exists z. R(x,z).",
    ),
    ("tgds:with-facts", "R(x,y) -> S(x).\nR(a,b)."),
    ("tgds:empty", ""),
    ("tgds:syntax", "R(x,y) -> S(x"),
];

/// One golden line for `source`: its parse/compile outcome.
fn record(text: &mut String, name: &str, source: &str) {
    let result = match name.strip_prefix("tgds:") {
        Some(_) => {
            let mut vocab = Vocabulary::new();
            parse_tgds(source, &mut vocab).map(|set| {
                format!(
                    "rules={} preds=[{}]",
                    set.len(),
                    pred_names(&vocab).join(",")
                )
            })
        }
        None => compile(source).map(|program| {
            format!(
                "fp={} rules={} facts={} preds=[{}] consts={}",
                program.fingerprint().to_hex(),
                program.tgd_set().len(),
                program.database().len(),
                pred_names(program.vocab()).join(","),
                program.vocab().const_count(),
            )
        }),
    };
    match result {
        Ok(summary) => writeln!(text, "ok {name} {summary}"),
        Err(e) => writeln!(text, "err {name} {e:?}"),
    }
    .expect("writing to a String cannot fail");
}

fn pred_names(vocab: &Vocabulary) -> Vec<&str> {
    vocab.preds().map(|(_, info)| info.name.as_str()).collect()
}

fn golden_text() -> String {
    let mut text = String::new();
    let corpus = valid_corpus();
    for (name, source) in &corpus {
        record(&mut text, name, source);
    }
    for (name, source) in EDGE_CASES {
        record(&mut text, name, source);
    }
    for (name, source) in &corpus {
        for cut in (TRUNCATE_STRIDE..source.len()).step_by(TRUNCATE_STRIDE) {
            if source.is_char_boundary(cut) {
                record(&mut text, &format!("{name}@{cut}"), &source[..cut]);
            }
        }
    }
    text
}

#[test]
fn parse_results_match_golden_file() {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file present");
    let text = golden_text();
    for (got, want) in text.lines().zip(golden.lines()) {
        assert_eq!(got, want, "parser result drifted");
    }
    assert_eq!(
        text, golden,
        "{GOLDEN_PATH} drifted; if the change is intentional, regenerate with \
         `cargo test --test parse_golden regenerate -- --ignored`"
    );
}

/// Regenerates the golden file. Run explicitly after a deliberate
/// change to the grammar, its error messages or interning order:
/// `cargo test --test parse_golden regenerate -- --ignored`.
#[test]
#[ignore]
fn regenerate() {
    std::fs::write(GOLDEN_PATH, golden_text()).unwrap();
}

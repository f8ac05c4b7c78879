//! Property tests for the order-preserving program fingerprint
//! ([`chase_core::compile`]): the address must be invariant under the
//! rewrites that cannot change any result (whitespace/comment
//! formatting, rule-local variable renaming) and must separate
//! programs that differ in rules, facts, or their order — rule and
//! fact order decide the restricted chase result, so otherwise the
//! server's program cache would serve one variant's result for
//! another.

use chase_core::compile::compile;
use proptest::prelude::*;

/// Deterministic xorshift so every generated program is a pure
/// function of the proptest-drawn seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Predicate `P{i}` has fixed arity `1 + i % 3`, so generated facts
/// and rule atoms can never trip the arity checker.
fn arity(pred: usize) -> usize {
    1 + pred % 3
}

const PREDS: usize = 4;
const CONSTS: [&str; 3] = ["ca", "cb", "cc"];

/// Variable argument slots: indices `< EXISTS_BASE` are body
/// variables, `EXISTS_BASE + k` is the k-th existential.
const EXISTS_BASE: usize = 100;

struct GenAtom {
    pred: usize,
    args: Vec<usize>,
}

struct GenRule {
    body: Vec<GenAtom>,
    head: Vec<GenAtom>,
    existentials: usize,
}

struct GenProgram {
    facts: Vec<String>,
    rules: Vec<GenRule>,
}

/// Generates a small well-formed program: 1–3 facts and 1–4 rules
/// whose head variables are each either a body variable or a declared
/// existential.
fn generate(seed: u64) -> GenProgram {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1));
    let facts = (0..1 + rng.below(3))
        .map(|_| {
            let pred = rng.below(PREDS as u64) as usize;
            let args: Vec<&str> = (0..arity(pred))
                .map(|_| CONSTS[rng.below(CONSTS.len() as u64) as usize])
                .collect();
            format!("P{pred}({}).", args.join(","))
        })
        .collect();
    let rules = (0..1 + rng.below(4))
        .map(|_| {
            let nv = 2 + rng.below(2) as usize;
            let body: Vec<GenAtom> = (0..1 + rng.below(2))
                .map(|_| {
                    let pred = rng.below(PREDS as u64) as usize;
                    let args = (0..arity(pred))
                        .map(|_| rng.below(nv as u64) as usize)
                        .collect();
                    GenAtom { pred, args }
                })
                .collect();
            let mut in_body: Vec<usize> =
                body.iter().flat_map(|a| a.args.iter().copied()).collect();
            in_body.sort_unstable();
            in_body.dedup();
            let mut existentials = 0usize;
            let head = (0..1 + rng.below(2))
                .map(|_| {
                    let pred = rng.below(PREDS as u64) as usize;
                    let args = (0..arity(pred))
                        .map(|_| {
                            if rng.below(4) == 0 {
                                let k = rng.below((existentials + 1) as u64) as usize;
                                existentials = existentials.max(k + 1);
                                EXISTS_BASE + k
                            } else {
                                in_body[rng.below(in_body.len() as u64) as usize]
                            }
                        })
                        .collect();
                    GenAtom { pred, args }
                })
                .collect();
            GenRule {
                body,
                head,
                existentials,
            }
        })
        .collect();
    GenProgram { facts, rules }
}

/// Renders one rule with the given variable-naming scheme. Fingerprint
/// invariance demands the rendered text differ across schemes while
/// the parsed structure stays identical.
fn render_rule(rule: &GenRule, var: &dyn Fn(usize) -> String) -> String {
    let atom = |a: &GenAtom| {
        let args: Vec<String> = a.args.iter().map(|&v| var(v)).collect();
        format!("P{}({})", a.pred, args.join(","))
    };
    let body: Vec<String> = rule.body.iter().map(&atom).collect();
    let head: Vec<String> = rule.head.iter().map(&atom).collect();
    let exists = if rule.existentials > 0 {
        let vars: Vec<String> = (0..rule.existentials)
            .map(|k| var(EXISTS_BASE + k))
            .collect();
        format!("exists {}. ", vars.join(", "))
    } else {
        String::new()
    };
    format!("{} -> {exists}{}.", body.join(", "), head.join(", "))
}

fn plain_names(v: usize) -> String {
    if v >= EXISTS_BASE {
        format!("z{}", v - EXISTS_BASE)
    } else {
        format!("x{v}")
    }
}

fn exotic_names(v: usize) -> String {
    if v >= EXISTS_BASE {
        format!("fresh_{}", v - EXISTS_BASE)
    } else {
        format!("qq{}", v + 7)
    }
}

fn render(program: &GenProgram, var: &dyn Fn(usize) -> String) -> Vec<String> {
    let mut lines = program.facts.clone();
    lines.extend(program.rules.iter().map(|r| render_rule(r, var)));
    lines
}

/// What the program id must preserve of a statement sequence: the rule
/// sequence, the fact sequence without repeats (a repeated fact is a
/// no-op insert), and the order in which predicates first occur (the
/// order they are interned in).
fn order_key(lines: &[String]) -> (Vec<&String>, Vec<&String>, Vec<&str>) {
    let rules = lines.iter().filter(|l| l.contains("->")).collect();
    let mut facts: Vec<&String> = Vec::new();
    for l in lines.iter().filter(|l| !l.contains("->")) {
        if !facts.contains(&l) {
            facts.push(l);
        }
    }
    let mut preds: Vec<&str> = Vec::new();
    for l in lines {
        for (i, _) in l.match_indices('P') {
            let len = l[i + 1..].find('(').unwrap();
            let pred = &l[i..i + 1 + len];
            if !preds.contains(&pred) {
                preds.push(pred);
            }
        }
    }
    (rules, facts, preds)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// Reformatting whitespace, adding comments, and renaming
    /// rule-local variables preserve the fingerprint: every such
    /// variant is the same cache entry. A reorder changes it exactly
    /// when it changes the rule sequence, the fact sequence or the
    /// predicate interning order.
    #[test]
    fn fingerprint_tracks_order_but_not_whitespace_or_renaming(seed in 0u64..5_000) {
        let program = generate(seed);
        let lines = render(&program, &plain_names);
        let base = compile(&lines.join("\n"))
            .map_err(|e| TestCaseError::fail(format!("generated program must compile: {e}")))?
            .fingerprint();

        // Deterministic shuffle: rotate, then swap pairs by seed.
        let mut reordered = lines.clone();
        reordered.rotate_left(seed as usize % lines.len().max(1));
        if reordered.len() >= 2 {
            let i = seed as usize % reordered.len();
            let j = (seed as usize / 7) % reordered.len();
            reordered.swap(i, j);
        }
        let reordered_fp = compile(&reordered.join("\n")).unwrap().fingerprint();
        if order_key(&reordered) == order_key(&lines) {
            prop_assert_eq!(reordered_fp, base, "an order-preserving permutation is the same program");
        } else {
            prop_assert!(reordered_fp != base, "a reorder must change the program id");
        }

        let noisy = lines
            .iter()
            .map(|l| format!("   {}\t", l.replace(',', " , ").replace("->", "  ->  ")))
            .collect::<Vec<_>>()
            .join("\n\n% a comment between lines\n");
        let noisy = compile(&noisy).unwrap().fingerprint();
        prop_assert_eq!(noisy, base, "whitespace and comments must not matter");

        let renamed = render(&program, &exotic_names);
        let renamed = compile(&renamed.join("\n")).unwrap().fingerprint();
        prop_assert_eq!(renamed, base, "rule-local variable names must not matter");
    }

    /// Distinct rule sets get distinct fingerprints: dropping a rule,
    /// dropping a fact, or permuting one head atom's arguments must
    /// move the address (else the cache would serve a wrong program).
    #[test]
    fn fingerprint_separates_mutated_programs(seed in 0u64..5_000) {
        let program = generate(seed);
        let lines = render(&program, &plain_names);
        let base = compile(&lines.join("\n"))
            .map_err(|e| TestCaseError::fail(format!("generated program must compile: {e}")))?;

        // Appending a rule over a fresh predicate always changes the
        // canonical rule multiset.
        let mut extended = lines.clone();
        extended.push("Q_extra(x,y) -> Q_extra(y,x).".to_string());
        let extended = compile(&extended.join("\n")).unwrap();
        prop_assert!(extended.fingerprint() != base.fingerprint());

        // Appending a fresh fact changes the canonical fact set.
        let mut more_facts = lines.clone();
        more_facts.push("Q_extra(ca,cb).".to_string());
        let more_facts = compile(&more_facts.join("\n")).unwrap();
        prop_assert!(more_facts.fingerprint() != base.fingerprint());
        prop_assert!(more_facts.fingerprint() != extended.fingerprint());
    }

    /// `compile` is deterministic: same source, same fingerprint, and
    /// the hex rendering round-trips through the wire format.
    #[test]
    fn fingerprint_is_deterministic_and_round_trips(seed in 0u64..5_000) {
        let source = render(&generate(seed), &plain_names).join("\n");
        let a = compile(&source).unwrap().fingerprint();
        let b = compile(&source).unwrap().fingerprint();
        prop_assert_eq!(a, b);
        let hex = a.to_hex();
        prop_assert_eq!(hex.len(), 32);
        prop_assert_eq!(
            chase_core::compile::ProgramFingerprint::parse_hex(&hex),
            Some(a)
        );
    }
}

//! Golden file of applied-trigger sequences: for fixed programs and
//! the three deterministic queue strategies, the restricted chase's
//! recorded derivation (which trigger fired, with which binding, adding
//! which atoms, in which order) and its final instance in insertion
//! order are hashed into `tests/golden/derivations.txt`.
//!
//! The seed-oracle suites check outcome, step count and instance; this
//! file also pins *which* triggers fired. A change that only prunes
//! triggers that can never fire must pass it unchanged. Regenerate
//! deliberately with
//! `cargo test --test derivation_golden regenerate -- --ignored`.

use restricted_chase::engine::restricted::Strategy;
use restricted_chase::prelude::*;

const GOLDEN_PATH: &str = "tests/golden/derivations.txt";

/// Random programs `0..RANDOM_SEEDS`, each with its own database.
const RANDOM_SEEDS: u64 = 48;

const STRATEGIES: [(&str, Strategy); 3] = [
    ("fifo", Strategy::Fifo),
    ("lifo", Strategy::Lifo),
    ("priority", Strategy::PriorityTgd),
];

/// FNV-1a over a byte stream: stable across platforms and releases,
/// unlike `std`'s default hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn term(&mut self, t: Term) {
        match t {
            Term::Const(c) => self.write(format!("c{}", c.0).as_bytes()),
            Term::Null(n) => self.write(format!("n{}", n.0).as_bytes()),
            Term::Var(v) => self.write(format!("v{}", v.0).as_bytes()),
        }
        self.write(b",");
    }

    fn atom(&mut self, pred: PredId, args: &[Term]) {
        self.write(format!("p{}(", pred.0).as_bytes());
        for &t in args {
            self.term(t);
        }
        self.write(b")");
    }
}

/// The test programs: seeded random rule sets over random databases,
/// then two transitive-closure programs.
fn programs() -> Vec<(String, String)> {
    let params = RandomTgdParams {
        predicates: 3,
        max_arity: 3,
        rules: 4,
        max_body: 3,
        existential_pct: 25,
    };
    let mut out: Vec<(String, String)> = (0..RANDOM_SEEDS)
        .map(|seed| {
            let rules = random_tgds(&params, seed);
            let db = random_database(&params, 16, seed, seed.wrapping_mul(31) + 7);
            (format!("random{seed}"), format!("{rules}{db}"))
        })
        .collect();
    let edges = families::edge_database("E", 24, 60, 7);
    out.push((
        "closure-self".to_string(),
        format!("E(x,y), E(y,z) -> E(x,z).\n{edges}"),
    ));
    out.push((
        "closure-two-rules".to_string(),
        format!("E(x,y) -> P(x,y).\nE(x,y), P(y,z) -> P(x,z).\n{edges}"),
    ));
    out
}

/// One line per (program, strategy): outcome, steps, final size, and
/// the hashes of the derivation and of the final instance.
fn golden_text() -> String {
    let mut text = String::new();
    for (name, source) in programs() {
        let mut vocab = Vocabulary::new();
        let program = parse_program(&source, &mut vocab).expect("test program parses");
        let set = program.tgd_set(&vocab).expect("test program is a TGD set");
        for (label, strategy) in STRATEGIES {
            let run = RestrictedChase::new(&set)
                .strategy(strategy)
                .run(&program.database, Budget::new(1_000, 4_000));
            let mut derivation = Fnv::new();
            for step in &run.derivation(&set).steps {
                derivation.write(format!("t{}:", step.trigger.tgd.0).as_bytes());
                let mut pairs: Vec<(VarId, Term)> = step.trigger.binding.iter().collect();
                pairs.sort_by_key(|&(v, _)| v);
                for (v, t) in pairs {
                    derivation.write(format!("v{}=", v.0).as_bytes());
                    derivation.term(t);
                }
                derivation.write(b"|");
                for atom in &step.added {
                    derivation.atom(atom.pred, &atom.args);
                }
                derivation.write(b";");
            }
            let mut instance = Fnv::new();
            for atom in run.instance.iter() {
                instance.atom(atom.pred, atom.args);
            }
            text.push_str(&format!(
                "{name} {label} outcome={:?} steps={} atoms={} derivation={:016x} instance={:016x}\n",
                run.outcome,
                run.steps,
                run.instance.len(),
                derivation.0,
                instance.0,
            ));
        }
    }
    text
}

#[test]
fn derivations_match_golden_file() {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file present");
    let text = golden_text();
    for (got, want) in text.lines().zip(golden.lines()) {
        assert_eq!(got, want, "applied-trigger sequence drifted");
    }
    assert_eq!(
        text, golden,
        "{GOLDEN_PATH} drifted; if the change is intentional, regenerate with \
         `cargo test --test derivation_golden regenerate -- --ignored`"
    );
}

/// Regenerates the golden file. Run explicitly after a deliberate
/// change to which triggers the restricted chase applies:
/// `cargo test --test derivation_golden regenerate -- --ignored`.
#[test]
#[ignore]
fn regenerate() {
    std::fs::write(GOLDEN_PATH, golden_text()).unwrap();
}

//! Golden file of the decide sweep: `decide` under the default
//! configuration (no deadline) on seeds `0..DECIDE_SWEEP_SEEDS` of the
//! sweep generator (`DECIDE_SWEEP`: 3 predicates of arity up to 3, 4
//! rules, bodies of up to 3 atoms, 35% existentials). Each line pins a
//! seed's verdict and the kind of its evidence: the certificate of a
//! terminating verdict (with its count), the structure of a witness.
//!
//! The deciders are deterministic under their step budgets, so the
//! golden needs no deadline. A definitive verdict must never turn into
//! the other one. Regenerate only for a deliberate change (an
//! `UNKNOWN` that becomes definitive, a certificate that moves), and
//! name the seeds that moved:
//! `cargo test --test decide_sweep regenerate -- --ignored`.

use restricted_chase::prelude::*;

const GOLDEN_PATH: &str = "tests/golden/decide_sweep.txt";

/// Seeds that take 0.2 s or more to decide in a release build (120,
/// 86, 176 and 137 take about 16, 9, 2.4 and 0.8 s). The default test
/// skips them; `decide_sweep_matches_golden_on_every_seed` runs them.
const SLOW_SEEDS: [u64; 4] = [86, 120, 137, 176];

/// The golden line of one seed.
fn sweep_line(seed: u64) -> String {
    let src = random_tgds(&DECIDE_SWEEP, seed);
    let mut vocab = Vocabulary::new();
    let set = parse_tgds(&src, &mut vocab).expect("sweep rules parse");
    let answer = match decide(&set, &vocab, &DeciderConfig::default()) {
        TerminationVerdict::AllInstancesTerminating(cert) => format!("TERMINATING {cert:?}"),
        TerminationVerdict::NonTerminating(w) => {
            let structure = w.description.split(':').next().unwrap_or_default();
            format!("NOT {structure}")
        }
        TerminationVerdict::Unknown { .. } => "UNKNOWN".to_string(),
    };
    format!("seed {seed}: {answer}\n")
}

fn golden_lines() -> Vec<String> {
    std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file present")
        .lines()
        .map(|line| format!("{line}\n"))
        .collect()
}

/// Compares the seeds `keep` selects against the golden file.
fn check(keep: impl Fn(u64) -> bool) {
    let golden = golden_lines();
    assert_eq!(
        golden.len() as u64,
        DECIDE_SWEEP_SEEDS,
        "{GOLDEN_PATH}: one line per seed"
    );
    for (seed, want) in (0..DECIDE_SWEEP_SEEDS).zip(&golden) {
        if keep(seed) {
            assert_eq!(
                &sweep_line(seed),
                want,
                "decide sweep seed {seed} drifted from {GOLDEN_PATH}; if the change is \
                 intentional, regenerate with `cargo test --test decide_sweep regenerate -- \
                 --ignored` and name the seed"
            );
        }
    }
}

#[test]
fn decide_sweep_matches_golden_on_fast_seeds() {
    check(|seed| !SLOW_SEEDS.contains(&seed));
}

/// Every seed, the slow ones included (release builds only; run with
/// `cargo test --release --test decide_sweep every_seed -- --ignored`).
#[test]
#[ignore = "slow seeds; run in release with: cargo test --release --test decide_sweep every_seed -- --ignored"]
fn decide_sweep_matches_golden_on_every_seed() {
    check(|_| true);
}

/// Regenerates the golden file:
/// `cargo test --release --test decide_sweep regenerate -- --ignored`.
#[test]
#[ignore]
fn regenerate() {
    let text: String = (0..DECIDE_SWEEP_SEEDS).map(sweep_line).collect();
    std::fs::write(GOLDEN_PATH, text).unwrap();
}

//! Seeded random workload generation: random single-head TGD sets and
//! random databases, used by property-based tests and the chase
//! throughput benchmarks. Not used for decider ground truth (labels
//! there are hand-derived; see [`crate::suite`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for random TGD set generation.
#[derive(Debug, Clone)]
pub struct RandomTgdParams {
    /// Number of predicates in the schema.
    pub predicates: usize,
    /// Maximum predicate arity (minimum 1).
    pub max_arity: usize,
    /// Number of rules.
    pub rules: usize,
    /// Maximum body atoms per rule (minimum 1).
    pub max_body: usize,
    /// Probability (0..=100) that a head variable is existential.
    pub existential_pct: u32,
}

impl Default for RandomTgdParams {
    fn default() -> Self {
        RandomTgdParams {
            predicates: 4,
            max_arity: 3,
            rules: 4,
            max_body: 2,
            existential_pct: 40,
        }
    }
}

/// The generator of the decide sweep: 3 predicates of arity up to 3, 4
/// rules with bodies of up to 3 atoms, 35% existential head
/// variables. Seeds `0..DECIDE_SWEEP_SEEDS` of it are pinned in
/// `tests/golden/decide_sweep.txt` and timed by `hotpath_report`.
pub const DECIDE_SWEEP: RandomTgdParams = RandomTgdParams {
    predicates: 3,
    max_arity: 3,
    rules: 4,
    max_body: 3,
    existential_pct: 35,
};

/// The number of [`DECIDE_SWEEP`] seeds in the sweep.
pub const DECIDE_SWEEP_SEEDS: u64 = 200;

/// Generates a random rule file (rules only) from a seed.
///
/// Construction guarantees validity: bodies are non-empty; each head
/// variable is either drawn from the body (frontier) or fresh
/// (existential); rules never share variables because each rule uses
/// its own `r{i}_` prefix.
pub fn random_tgds(params: &RandomTgdParams, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    // Fixed arities per predicate, derived from the seed first so
    // that `random_database` can re-derive them independently.
    let arities: Vec<usize> = (0..params.predicates)
        .map(|_| rng.gen_range(1..=params.max_arity))
        .collect();
    let mut out = String::new();
    for r in 0..params.rules {
        let body_atoms = rng.gen_range(1..=params.max_body);
        let mut body_vars: Vec<String> = Vec::new();
        let mut body = Vec::new();
        for b in 0..body_atoms {
            let p = rng.gen_range(0..params.predicates);
            let mut args = Vec::new();
            for a in 0..arities[p] {
                // Reuse an existing variable half the time.
                if !body_vars.is_empty() && rng.gen_bool(0.5) {
                    args.push(body_vars[rng.gen_range(0..body_vars.len())].clone());
                } else {
                    let v = format!("r{r}b{b}a{a}");
                    body_vars.push(v.clone());
                    args.push(v);
                }
            }
            body.push(format!("P{p}({})", args.join(",")));
        }
        let hp = rng.gen_range(0..params.predicates);
        let mut head_args = Vec::new();
        let mut existentials = Vec::new();
        for a in 0..arities[hp] {
            if rng.gen_range(0u32..100) < params.existential_pct || body_vars.is_empty() {
                let v = format!("r{r}e{a}");
                existentials.push(v.clone());
                head_args.push(v);
            } else {
                head_args.push(body_vars[rng.gen_range(0..body_vars.len())].clone());
            }
        }
        let exists = if existentials.is_empty() {
            String::new()
        } else {
            format!("exists {}. ", existentials.join(","))
        };
        out.push_str(&format!(
            "{} -> {exists}P{hp}({}).\n",
            body.join(", "),
            head_args.join(",")
        ));
    }
    out
}

/// Generates a random database over the `P{i}` schema of
/// `random_tgds(params, schema_seed)` — pass the *same* `schema_seed`
/// so the predicate arities agree; `data_seed` varies the facts.
pub fn random_database(
    params: &RandomTgdParams,
    atoms: usize,
    schema_seed: u64,
    data_seed: u64,
) -> String {
    let mut rng = StdRng::seed_from_u64(data_seed ^ 0x9e3779b97f4a7c15);
    let arities: Vec<usize> = {
        let mut arng = StdRng::seed_from_u64(schema_seed);
        (0..params.predicates)
            .map(|_| arng.gen_range(1..=params.max_arity))
            .collect()
    };
    let universe = (atoms / 2).max(2);
    let mut out = String::new();
    for _ in 0..atoms {
        let p = rng.gen_range(0..params.predicates);
        let args: Vec<String> = (0..arities[p])
            .map(|_| format!("c{}", rng.gen_range(0..universe)))
            .collect();
        out.push_str(&format!("P{p}({}).\n", args.join(",")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_program;
    use chase_core::vocab::Vocabulary;

    #[test]
    fn random_rules_parse_and_validate() {
        for seed in 0..20 {
            let src = random_tgds(&RandomTgdParams::default(), seed);
            let mut vocab = Vocabulary::new();
            let program = parse_program(&src, &mut vocab).unwrap_or_else(|e| {
                panic!("seed {seed}: {e}\n{src}");
            });
            let set = program.tgd_set(&vocab).unwrap();
            assert_eq!(set.len(), 4);
            assert!(set.all_single_head());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = RandomTgdParams::default();
        assert_eq!(random_tgds(&p, 7), random_tgds(&p, 7));
        assert_ne!(random_tgds(&p, 7), random_tgds(&p, 8));
    }

    #[test]
    fn database_matches_schema_arities() {
        let p = RandomTgdParams::default();
        let rules = random_tgds(&p, 3);
        let db = random_database(&p, 30, 3, 99);
        let mut vocab = Vocabulary::new();
        let combined = format!("{rules}{db}");
        let program = parse_program(&combined, &mut vocab).unwrap();
        assert!(program.database.len() <= 30);
        assert!(!program.database.is_empty());
    }
}

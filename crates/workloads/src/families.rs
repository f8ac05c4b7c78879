//! Parametric TGD families for scaling experiments (E6, E7, E9).
//!
//! Every generator returns rule-file source text, so workloads are
//! inspectable, diffable and parse through the same front end as user
//! input.

/// A chain of `n` linear rules `R1 → R2 → ... → R_{n+1}`, each
/// inventing a null: weakly acyclic, hence terminating.
pub fn linear_chain(n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        out.push_str(&format!(
            "R{i}(x{i},y{i}) -> exists z{i}. R{}(y{i},z{i}).\n",
            i + 1
        ));
    }
    out
}

/// A cycle of `n` linear rules `R1 → R2 → ... → R1`, each inventing a
/// null: non-terminating (a caterpillar loops through the cycle).
pub fn linear_cycle(n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        let j = (i + 1) % n;
        out.push_str(&format!(
            "R{i}(x{i},y{i}) -> exists z{i}. R{j}(y{i},z{i}).\n"
        ));
    }
    out
}

/// `n` independent copies of the intro rule `R(x,y) → ∃z R(x,z)`:
/// terminating for every instance (each trigger is satisfied by its
/// own body atom's witness), with growing rule-set size.
pub fn left_recursion_family(n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        out.push_str(&format!(
            "L{i}(x{i},y{i}) -> exists z{i}. L{i}(x{i},z{i}).\n"
        ));
    }
    out
}

/// The arity-scaling shift family: `R(x1,...,xa) → ∃z R(x2,...,xa,z)`.
/// Linear (hence sticky and guarded) and non-terminating; the sticky
/// automaton's state space grows with the arity `a ≥ 2`.
pub fn arity_shift(a: usize) -> String {
    assert!(a >= 2);
    let body: Vec<String> = (1..=a).map(|i| format!("x{i}")).collect();
    let head: Vec<String> = (2..=a)
        .map(|i| format!("x{i}"))
        .chain(std::iter::once("z".to_string()))
        .collect();
    format!(
        "R({}) -> exists z. R({}).\n",
        body.join(","),
        head.join(",")
    )
}

/// The arity-scaling *terminating* family: `R(x1,...,xa) → ∃z
/// R(x1,...,x_{a-1},z)` — the head is satisfied by the body atom
/// itself, so the restricted chase never fires.
pub fn arity_keep(a: usize) -> String {
    assert!(a >= 2);
    let body: Vec<String> = (1..=a).map(|i| format!("x{i}")).collect();
    let head: Vec<String> = (1..a)
        .map(|i| format!("x{i}"))
        .chain(std::iter::once("z".to_string()))
        .collect();
    format!(
        "R({}) -> exists z. R({}).\n",
        body.join(","),
        head.join(",")
    )
}

/// The sticky join family: `k` chained copies of the T/U/V loop
/// (`T_i(x,y), U(x,s) → ∃z V_i(x,y,z)`, `V_i(u,v,w) → T_{(i+1) mod k}(u,w)`),
/// all sharing the join leg `U`. The extra `s` in the leg makes the
/// bodies unguarded; the set is sticky (the join variable `x` reaches
/// every head) and non-terminating.
pub fn sticky_join_loop(k: usize) -> String {
    let mut out = String::new();
    for i in 0..k {
        let j = (i + 1) % k;
        out.push_str(&format!(
            "T{i}(x{i},y{i}), U(x{i},s{i}) -> exists z{i}. V{i}(x{i},y{i},z{i}).\n"
        ));
        out.push_str(&format!("V{i}(u{i},v{i},w{i}) -> T{j}(u{i},w{i}).\n"));
    }
    out
}

/// A guarded family with side atoms whose chase is bounded by the
/// database's `S`-constants (terminating, not weakly acyclic):
/// `G_i(x,y), S(y) → ∃z G_i(y,z)` for `i < n`.
pub fn guarded_side_bounded(n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        out.push_str(&format!(
            "G{i}(x{i},y{i}), S(y{i}) -> exists z{i}. G{i}(y{i},z{i}).\n"
        ));
    }
    out
}

/// A weakly-acyclic data-exchange style mapping of width `n`:
/// `S_i(x,y) → ∃z T_i(y,z)`, `T_i(u,v) → W_i(u)`.
pub fn data_exchange(n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        out.push_str(&format!(
            "S{i}(x{i},y{i}) -> exists z{i}. T{i}(y{i},z{i}).\n"
        ));
        out.push_str(&format!("T{i}(u{i},v{i}) -> W{i}(u{i}).\n"));
    }
    out
}

/// A database of a random `E`-graph in rule-file syntax: `nodes`
/// constants, `edges` edges chosen by a simple LCG from `seed`
/// (deterministic, no external PRNG needed here).
pub fn edge_database(pred: &str, nodes: usize, edges: usize, seed: u64) -> String {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = String::new();
    for _ in 0..edges {
        let a = next() as usize % nodes;
        let b = next() as usize % nodes;
        out.push_str(&format!("{pred}(n{a},n{b}).\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::{parse_program, parse_tgds};
    use chase_core::vocab::Vocabulary;
    use tgd_classes::prelude::*;

    fn parse(src: &str) -> (Vocabulary, chase_core::tgd::TgdSet) {
        let mut vocab = Vocabulary::new();
        let set = parse_tgds(src, &mut vocab).unwrap();
        (vocab, set)
    }

    #[test]
    fn linear_chain_is_weakly_acyclic() {
        let (vocab, set) = parse(&linear_chain(5));
        assert_eq!(set.len(), 5);
        assert!(is_weakly_acyclic(&set, &vocab));
        assert!(all_linear(&set));
        assert!(is_sticky(&set));
    }

    #[test]
    fn linear_cycle_is_not_weakly_acyclic() {
        let (vocab, set) = parse(&linear_cycle(3));
        assert!(!is_weakly_acyclic(&set, &vocab));
        assert!(all_linear(&set));
    }

    #[test]
    fn arity_families_parse_and_classify() {
        for a in 2..=5 {
            let (_, shift) = parse(&arity_shift(a));
            assert!(all_linear(&shift));
            assert!(is_sticky(&shift));
            let (_, keep) = parse(&arity_keep(a));
            assert!(all_linear(&keep));
        }
    }

    #[test]
    fn sticky_join_loop_is_sticky_not_guarded() {
        let (_, set) = parse(&sticky_join_loop(2));
        assert!(is_sticky(&set));
        assert!(!all_guarded(&set));
    }

    #[test]
    fn guarded_side_bounded_is_guarded_not_wa() {
        let (vocab, set) = parse(&guarded_side_bounded(2));
        assert!(all_guarded(&set));
        assert!(!is_weakly_acyclic(&set, &vocab));
    }

    #[test]
    fn edge_database_is_deterministic() {
        let a = edge_database("E", 10, 20, 42);
        let b = edge_database("E", 10, 20, 42);
        assert_eq!(a, b);
        let mut vocab = Vocabulary::new();
        let p = parse_program(&a, &mut vocab).unwrap();
        assert!(p.database.len() <= 20);
        assert!(p.database.is_database());
    }

    #[test]
    fn data_exchange_family_is_wa() {
        let (vocab, set) = parse(&data_exchange(3));
        assert!(is_weakly_acyclic(&set, &vocab));
        assert_eq!(set.len(), 6);
    }
}

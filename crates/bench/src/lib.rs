//! Shared helpers for the benchmark harness and the experiment
//! report binary (`expreport`). One bench group exists per experiment
//! row of EXPERIMENTS.md.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use chase_core::instance::Instance;
use chase_core::parser::parse_program;
use chase_core::tgd::TgdSet;
use chase_core::vocab::Vocabulary;

/// Parses combined rules + facts source into `(vocab, set, database)`.
pub fn setup(src: &str) -> (Vocabulary, TgdSet, Instance) {
    let mut vocab = Vocabulary::new();
    let program = parse_program(src, &mut vocab).expect("benchmark source must parse");
    let set = program
        .tgd_set(&vocab)
        .expect("benchmark set must validate");
    (vocab, set, program.database)
}

/// Parses rules-only source plus a separately generated database.
pub fn setup_with_db(rules: &str, facts: &str) -> (Vocabulary, TgdSet, Instance) {
    setup(&format!("{rules}\n{facts}"))
}

/// A transitive-closure workload over a random graph: `nodes`
/// vertices, `edges` edges, plus `E(x,y), E(y,z) -> E(x,z)`.
pub fn closure_workload(nodes: usize, edges: usize) -> (Vocabulary, TgdSet, Instance) {
    let facts = chase_workloads::families::edge_database("E", nodes, edges, 7);
    setup_with_db("E(x,y), E(y,z) -> E(x,z).", &facts)
}

/// A fan-out workload: `k` full TGDs sharing the same join-heavy body,
/// `E(x,y), E(y,z) -> C_i(x,z)`, over a random edge database. The seed
/// discovery batch evaluates the same two-atom join once per rule.
pub fn fan_workload(k: usize, nodes: usize, edges: usize) -> (Vocabulary, TgdSet, Instance) {
    let mut rules = String::new();
    for i in 0..k {
        rules.push_str(&format!("E(x{i},y{i}), E(y{i},z{i}) -> C{i}(x{i},z{i}).\n"));
    }
    let facts = chase_workloads::families::edge_database("E", nodes, edges, 7);
    setup_with_db(&rules, &facts)
}

/// An existential-head workload: the data-exchange family of width
/// `width` (`S_i(x,y) → ∃z T_i(y,z)`, `T_i(u,v) → W_i(u)`) over
/// `facts` source facts per `S_i` relation. Null invention and
/// activeness checks dominate, unlike the join-heavy closure workload.
pub fn existential_workload(width: usize, facts: usize) -> (Vocabulary, TgdSet, Instance) {
    let rules = chase_workloads::families::data_exchange(width);
    let mut db = String::new();
    for i in 0..width {
        for j in 0..facts {
            db.push_str(&format!("S{i}(c{j},d{}). ", j % 7));
        }
    }
    setup_with_db(&rules, &db)
}

/// A triangle-join workload: `E(x,y), E(y,z), E(x,z) -> exists w.
/// M(x,z,w)` over a random edge database. The third body atom joins on
/// *two* already-bound positions, and the activeness check constrains
/// `M` on two frontier positions, so both the body matcher and the
/// restriction check filter a position list on a second bound
/// position.
pub fn triangle_workload(nodes: usize, edges: usize) -> (Vocabulary, TgdSet, Instance) {
    let facts = chase_workloads::families::edge_database("E", nodes, edges, 7);
    setup_with_db("E(x,y), E(y,z), E(x,z) -> exists w. M(x,z,w).", &facts)
}

/// A wide existential workload: `width` pairs `S_i(x,y,u) -> exists z.
/// T_i(x,y,z)`, `T_i(p,q,r) -> W_i(p,q)` over facts
/// `S_i(c_{j mod 5}, d_{j mod 7}, e_j)`. Every source fact is a
/// distinct trigger, but the frontier `(x,y)` only takes 35 values per
/// relation, so almost all triggers are deactivated by an earlier
/// witness — the restriction check dominates, and each check
/// constrains `T_i` on two positions.
pub fn wide_existential_workload(width: usize, facts: usize) -> (Vocabulary, TgdSet, Instance) {
    let mut rules = String::new();
    for i in 0..width {
        rules.push_str(&format!("S{i}(x,y,u) -> exists z. T{i}(x,y,z).\n"));
        rules.push_str(&format!("T{i}(p,q,r) -> W{i}(p,q).\n"));
    }
    let mut db = String::new();
    for i in 0..width {
        for j in 0..facts {
            db.push_str(&format!("S{i}(c{},d{},e{j}). ", j % 5, j % 7));
        }
    }
    setup_with_db(&rules, &db)
}

/// A program shaped like the served `chase_ingest` requests: cheap
/// rules over many fresh facts, `facts` facts in each of three parts.
///
/// - The data-exchange mapping of width 8 (`S_i(x,y) → ∃z T_i(y,z)`,
///   `T_i(u,v) → W_i(u)`) over `S_i(c_j, d_{j mod 7})` facts.
/// - Wide existential pairs `X_i(x,y,u) → ∃z Y_i(x,y,z)`,
///   `Y_i(p,q,r) → Z_i(p,q)` over `X_i(c_{j mod 5}, d_{j mod 7}, e_j)`
///   facts, `e_j` in hex as the served workload writes it.
/// - A triangle rule over a random `E`-graph with `facts` nodes.
///
/// With `facts = 4000` the source is about 182 KB.
pub fn ingest_program(facts: usize) -> String {
    use std::fmt::Write as _;
    const WIDTH: usize = 8;
    let mut src = chase_workloads::families::data_exchange(WIDTH);
    for i in 0..WIDTH {
        let _ = writeln!(src, "X{i}(x,y,u) -> exists z. Y{i}(x,y,z).");
        let _ = writeln!(src, "Y{i}(p,q,r) -> Z{i}(p,q).");
    }
    src.push_str("E(x,y), E(y,z), E(x,z) -> exists w. M(x,z,w).\n");
    for j in 0..facts {
        let _ = writeln!(src, "S{}(c{},d{}).", j % WIDTH, j / WIDTH, j % 7);
    }
    for j in 0..facts {
        let _ = writeln!(
            src,
            "X{}(c{},d{},e{:x}).",
            j % WIDTH,
            j % 5,
            j % 7,
            0x1000 + j
        );
    }
    src.push_str(&chase_workloads::families::edge_database(
        "E", facts, facts, 7,
    ));
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_workload_builds() {
        let (_, set, db) = closure_workload(10, 20);
        assert_eq!(set.len(), 1);
        assert!(!db.is_empty());
    }

    #[test]
    fn fan_workload_builds() {
        let (_, set, db) = fan_workload(4, 10, 20);
        assert_eq!(set.len(), 4);
        assert!(!db.is_empty());
    }

    #[test]
    fn existential_workload_builds() {
        let (_, set, db) = existential_workload(3, 5);
        assert_eq!(set.len(), 6);
        assert_eq!(db.len(), 3 * 5);
    }

    #[test]
    fn triangle_workload_builds() {
        let (_, set, db) = triangle_workload(10, 20);
        assert_eq!(set.len(), 1);
        assert!(!db.is_empty());
    }

    #[test]
    fn ingest_program_compiles_every_fact() {
        let src = ingest_program(40);
        let program = chase_core::compile::compile(&src).unwrap();
        assert_eq!(program.tgd_set().len(), 33);
        // Random edges may repeat; the other two parts are distinct.
        assert!(program.database().len() > 80 && program.database().len() <= 120);
    }

    #[test]
    fn wide_existential_workload_builds() {
        let (_, set, db) = wide_existential_workload(2, 40);
        assert_eq!(set.len(), 4);
        assert_eq!(db.len(), 2 * 40);
    }
}

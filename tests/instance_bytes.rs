//! Bytes per stored atom, as `Instance::memory_footprint` counts them
//! (atom columns, dedup table and indexes): the database of the
//! compiled ingest-shaped program (`chase_bench::ingest_program(4000)`,
//! 11,999 facts of arity 2 and 3) must take at most 115 bytes per atom,
//! and the instance a restricted chase of a small chain-shaped scale
//! workload leaves at most 135. The counts are of bytes, not time, so
//! they hold on any host.

use restricted_chase::prelude::*;

#[test]
fn ingest_program_database_takes_at_most_115_bytes_per_atom() {
    let program = compile(&chase_bench::ingest_program(4000)).expect("ingest program compiles");
    let db = program.database();
    let fp = db.memory_footprint();
    let per_atom = |bytes: u64| bytes as f64 / db.len() as f64;
    assert!(
        per_atom(fp.total()) <= 115.0,
        "{:.1} B/atom over {} atoms: atoms {:.1}, arg spill {:.1}, dedup {:.1}, index {:.1}",
        per_atom(fp.total()),
        db.len(),
        per_atom(fp.atom_bytes),
        per_atom(fp.arg_spill_bytes),
        per_atom(fp.dedup_bytes),
        per_atom(fp.index_bytes),
    );
}

/// The restricted chase of `chain40_f8000_c64_d90` (11,088 atoms)
/// leaves 116.6 bytes per atom, 52.5 of them indexes. With the
/// composite pair index it kept for the existential multi-head rules'
/// head checks, the same run took 159.2 (95.2 of indexes).
#[test]
fn chased_chain_instance_takes_at_most_135_bytes_per_atom() {
    let (_vocab, set, db) = scale_workload(&ScaleParams {
        shape: Shape::Chain,
        predicates: 40,
        facts: 8_000,
        constants: 64,
        existential_density: 0.9,
        seed: 7,
    });
    let run = RestrictedChase::new(&set).run(&db, Budget::steps(1_000_000));
    assert_eq!(run.outcome, Outcome::Terminated);
    let fp = run.instance.memory_footprint();
    let per_atom = |bytes: u64| bytes as f64 / run.instance.len() as f64;
    assert!(
        per_atom(fp.total()) <= 135.0,
        "{:.1} B/atom over {} atoms: atoms {:.1}, arg spill {:.1}, dedup {:.1}, index {:.1}",
        per_atom(fp.total()),
        run.instance.len(),
        per_atom(fp.atom_bytes),
        per_atom(fp.arg_spill_bytes),
        per_atom(fp.dedup_bytes),
        per_atom(fp.index_bytes),
    );
}

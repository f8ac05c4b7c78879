//! Bytes per stored atom: the database of the compiled ingest-shaped
//! program (`chase_bench::ingest_program(4000)`, 11,999 facts of arity
//! 2 and 3) must take at most 115 bytes per atom — atom columns, dedup
//! table and indexes, as `Instance::memory_footprint` counts them. The
//! count is of bytes, not time, so it holds on any host.

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

//! Universal-model semantics of the chase: on terminating suite
//! entries, every chase variant produces a universal model (folds into
//! every model), the core is the minimal one, and certain-answer
//! evaluation is invariant across variants.

use restricted_chase::engine::query::ConjunctiveQuery;
use restricted_chase::engine::restricted::Strategy;
use restricted_chase::engine::universal::{core_of, is_core};
use restricted_chase::prelude::*;

/// Builds set + probe database for a suite entry.
fn build_with_probe(entry: &SuiteEntry) -> (Vocabulary, TgdSet, Instance) {
    let mut vocab = Vocabulary::new();
    let combined = format!("{}\n{}", entry.source, entry.probe_database);
    let program = parse_program(&combined, &mut vocab).unwrap();
    let set = program.tgd_set(&vocab).unwrap();
    (vocab, set, program.database)
}

#[test]
fn chase_variants_produce_homomorphically_equivalent_universal_models() {
    for entry in labelled_suite() {
        if entry.expected != Expected::Terminating {
            continue;
        }
        let (_vocab, set, db) = build_with_probe(&entry);
        let budget = Budget::steps(20_000);
        let restricted = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&db, budget);
        assert_eq!(restricted.outcome, Outcome::Terminated, "{}", entry.name);
        assert!(satisfies_all(&restricted.instance, &set), "{}", entry.name);

        // The semi-oblivious chase may or may not terminate on the
        // probe even for CT sets (it is stricter); when it does, the
        // results must be hom-equivalent universal models.
        let semi = RestrictedChase::new(&set)
            .variant(ChaseVariant::SemiOblivious)
            .run(&db, budget);
        if semi.outcome == Outcome::Terminated {
            assert!(satisfies_all(&semi.instance, &set), "{}", entry.name);
            assert!(
                ground_homomorphism_exists(&restricted.instance, &semi.instance),
                "{}: restricted must fold into semi-oblivious",
                entry.name
            );
            assert!(
                ground_homomorphism_exists(&semi.instance, &restricted.instance),
                "{}: semi-oblivious must fold into restricted",
                entry.name
            );
            assert!(
                restricted.instance.len() <= semi.instance.len(),
                "{}: restricted result must not be larger",
                entry.name
            );
        }
    }
}

#[test]
fn cores_of_chase_results_are_minimal_universal_models() {
    let mut shrunk_somewhere = false;
    for entry in labelled_suite() {
        if entry.expected != Expected::Terminating {
            continue;
        }
        let (_vocab, set, db) = build_with_probe(&entry);
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&db, Budget::steps(20_000));
        if run.instance.len() > 60 {
            continue; // keep core computation cheap
        }
        let core = core_of(&run.instance);
        assert!(core.len() <= run.instance.len(), "{}", entry.name);
        assert!(is_core(&core), "{}", entry.name);
        // The core still satisfies the TGDs (it is a retract of a
        // model containing it) and is hom-equivalent to the result.
        assert!(satisfies_all(&core, &set), "{}", entry.name);
        assert!(ground_homomorphism_exists(&run.instance, &core));
        assert!(ground_homomorphism_exists(&core, &run.instance));
        // On every suite probe the *restricted* result happens to be
        // its own core already (the activeness check avoids redundant
        // nulls here); the redundancy shows up in the oblivious chase.
        assert_eq!(
            core.len(),
            run.instance.len(),
            "{}: restricted result unexpectedly non-core",
            entry.name
        );
        // The database atoms always survive in the core.
        for atom in db.iter() {
            assert!(
                core.contains(&atom.to_atom()),
                "{}: database atom dropped",
                entry.name
            );
        }
        // Oblivious results, where they terminate, can be non-core;
        // their core is never larger than the restricted result.
        let oblivious = RestrictedChase::new(&set)
            .variant(ChaseVariant::Oblivious)
            .run(&db, Budget::steps(20_000));
        if oblivious.outcome == Outcome::Terminated && oblivious.instance.len() <= 60 {
            let ocore = core_of(&oblivious.instance);
            assert!(ocore.len() <= oblivious.instance.len());
            assert!(ocore.len() <= run.instance.len(), "{}", entry.name);
            if ocore.len() < oblivious.instance.len() {
                shrunk_somewhere = true;
            }
        }
    }
    assert!(
        shrunk_somewhere,
        "expected at least one suite entry whose oblivious result is not a core"
    );
}

#[test]
fn certain_answers_are_variant_invariant() {
    // q(x) :- R(x,y) over the never-active-plus-swap entry: both chase
    // variants that terminate must agree on certain answers.
    let mut vocab = Vocabulary::new();
    let program = parse_program(
        "R(a,b). R(b,c).
         R(x,y) -> exists z. R(x,z).
         R(u,v) -> R(v,u).",
        &mut vocab,
    )
    .unwrap();
    let set = program.tgd_set(&vocab).unwrap();
    let q = {
        let p = parse_program("R(q1,q2) -> Ans(q1).", &mut vocab).unwrap();
        ConjunctiveQuery::new(
            p.rules[0].body().to_vec(),
            p.rules[0].head()[0].vars().collect(),
        )
        .unwrap()
    };
    let certain = q
        .certain_answers(&program.database, &set, Budget::steps(10_000))
        .unwrap();
    // Every constant has an outgoing R edge after the swap closure.
    assert_eq!(certain.len(), 3);
    for tuple in &certain {
        assert!(tuple[0].is_const());
    }
}

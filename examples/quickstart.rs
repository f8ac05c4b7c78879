//! Quickstart: parse a program, classify it, chase it, and decide
//! all-instances restricted chase termination.
//!
//! Run with `cargo run --example quickstart`.

use restricted_chase::prelude::*;

fn main() {
    // The paper's flagship contrast (Section 1): the restricted chase
    // recognises that {R(a,b)} already satisfies the dependency, the
    // oblivious chase runs away.
    let source = "
        R(a,b).
        R(x,y) -> exists z. R(x,z).
    ";
    let mut vocab = Vocabulary::new();
    let program = parse_program(source, &mut vocab).expect("valid program");
    let set = program.tgd_set(&vocab).expect("valid TGD set");

    println!("== rules ==");
    println!("{}\n", set.display(&vocab));

    // 1. Syntactic classification.
    let profile = ClassProfile::analyse(&set, &vocab);
    println!("classes: {}\n", profile.summary());

    // 2. The restricted chase terminates immediately...
    let restricted = RestrictedChase::new(&set)
        .strategy(Strategy::Fifo)
        .run(&program.database, Budget::steps(100));
    println!(
        "restricted chase: {:?} after {} steps -> {}",
        restricted.outcome,
        restricted.steps,
        restricted.instance.display(&vocab)
    );

    // ...while the oblivious chase blows any budget.
    let oblivious = RestrictedChase::new(&set)
        .variant(ChaseVariant::Oblivious)
        .run(&program.database, Budget::steps(10));
    println!(
        "oblivious chase:  {:?} after {} steps ({} atoms)\n",
        oblivious.outcome,
        oblivious.steps,
        oblivious.instance.len()
    );

    // 3. The decision procedure: does EVERY database terminate?
    match decide(&set, &vocab, &DeciderConfig::default()) {
        TerminationVerdict::AllInstancesTerminating(cert) => {
            println!("verdict: all-instances terminating ({cert:?})");
        }
        TerminationVerdict::NonTerminating(w) => {
            println!("verdict: NOT all-instances terminating");
            println!("  witness database: {}", w.database.display(&vocab));
        }
        TerminationVerdict::Unknown { reason } => println!("verdict: unknown ({reason})"),
    }

    // 4. Flip the rule into right recursion and watch the verdict flip.
    let mut vocab2 = Vocabulary::new();
    let set2 = parse_tgds("R(x,y) -> exists z. R(y,z).", &mut vocab2).expect("valid");
    match decide(&set2, &vocab2, &DeciderConfig::default()) {
        TerminationVerdict::NonTerminating(w) => {
            println!("\nright recursion: NOT all-instances terminating");
            println!("  witness database: {}", w.database.display(&vocab2));
            println!("  {}", w.description);
            println!(
                "  validated derivation prefix of {} steps",
                w.derivation.len()
            );
        }
        other => println!("\nunexpected verdict {other:?}"),
    }
}

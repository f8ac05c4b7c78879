//! Data exchange with a weakly-acyclic source-to-target mapping
//! (the setting of Fagin, Kolaitis, Miller & Popa that motivates the
//! chase in the paper's introduction): compute a universal solution
//! with the restricted chase and evaluate certain answers.
//!
//! Run with `cargo run --example data_exchange`.

use restricted_chase::prelude::*;
use std::ops::ControlFlow;

fn main() {
    // Source schema: Emp(name, dept), Proj(dept, project).
    // Target schema: Works(name, project), Mgr(dept, manager),
    //                Reports(name, manager).
    let source = "
        % source instance
        Emp(ann, cs).   Emp(bob, cs).   Emp(cleo, math).
        Proj(cs, verif). Proj(math, algebra).

        % source-to-target dependencies (weakly acyclic)
        Emp(e,d), Proj(d,p) -> Works(e,p).
        Emp(e,d) -> exists m. Mgr(d,m).
        Emp(e,d), Mgr(d,m) -> Reports(e,m).
    ";
    let mut vocab = Vocabulary::new();
    let program = parse_program(source, &mut vocab).expect("valid program");
    let set = program.tgd_set(&vocab).expect("valid TGD set");

    // Before materialising anything, prove the mapping is safe for
    // EVERY source instance.
    assert!(is_weakly_acyclic(&set, &vocab));
    let verdict = decide(&set, &vocab, &DeciderConfig::default());
    assert!(verdict.is_terminating());
    println!("mapping is all-instances terminating: safe to materialise\n");

    // Materialise the universal solution.
    let run = RestrictedChase::new(&set)
        .strategy(Strategy::Fifo)
        .run(&program.database, Budget::steps(10_000));
    assert_eq!(run.outcome, Outcome::Terminated);
    println!(
        "universal solution ({} atoms, {} chase steps):",
        run.instance.len(),
        run.steps
    );
    println!("{}\n", run.instance.display(&vocab));

    // The result is a model of the dependencies...
    assert!(satisfies_all(&run.instance, &set));
    // ...and the recorded derivation replays (auditable materialisation).
    run.derivation(&set)
        .validate(&program.database, &set, true)
        .expect("derivation must replay");

    // Certain answers to  q(e) :- Works(e, p), Reports(e, m):
    // evaluate naively over the universal solution and keep the
    // all-constant answers.
    let mut q_vocab_scope = RuleBuilder::new(&mut vocab);
    let (e, p, m) = (
        q_vocab_scope.var("e"),
        q_vocab_scope.var("p"),
        q_vocab_scope.var("m"),
    );
    q_vocab_scope.body("Works", &[e, p]).unwrap();
    q_vocab_scope.body("Reports", &[e, m]).unwrap();
    q_vocab_scope.head("Ans", &[e]).unwrap();
    let query = q_vocab_scope.build().unwrap();

    let mut answers: Vec<String> = Vec::new();
    let mut binding = Binding::new();
    let _ = for_each_homomorphism(query.body(), &run.instance, &mut binding, |h| {
        let image = h.get(e.as_var().unwrap()).expect("bound");
        if image.is_const() && !answers.contains(&vocab.term_to_string(image)) {
            answers.push(vocab.term_to_string(image));
        }
        ControlFlow::Continue(())
    });
    answers.sort();
    println!("certain answers to q(e) :- Works(e,p), Reports(e,m):");
    println!("  {}", answers.join(", "));
    assert_eq!(answers, vec!["ann", "bob", "cleo"]);
}

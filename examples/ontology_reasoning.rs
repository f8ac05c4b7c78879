//! Ontology-mediated query answering with guarded and sticky TGDs —
//! the application domain (ontological reasoning, Section 1) that
//! motivates the paper's choice of guardedness and stickiness.
//!
//! A guarded ontology about projects and supervision is checked for
//! all-instances termination, materialised, and queried; then a sticky
//! (unguarded) ontology exhibiting a genuine cartesian-style join is
//! handled the same way; finally a non-terminating axiom set is
//! rejected *before* any materialisation is attempted — the intended
//! production use of the decision procedure.
//!
//! Run with `cargo run --example ontology_reasoning`.

use restricted_chase::prelude::*;
use std::ops::ControlFlow;

fn count_answers(instance: &Instance, vocab: &mut Vocabulary, body: &[(&str, &[&str])]) -> usize {
    let mut builder = RuleBuilder::new(vocab);
    let mut atoms = Vec::new();
    for (pred, vars) in body {
        let terms: Vec<Term> = vars.iter().map(|v| builder.var(v)).collect();
        builder.body(pred, &terms).unwrap();
        atoms.push((pred.to_string(), terms));
    }
    let grounded: Vec<Atom> = {
        // Rebuild atoms through the vocabulary (arities already known).
        atoms
            .iter()
            .map(|(p, terms)| Atom::new(vocab.lookup_pred(p).unwrap(), terms.clone()))
            .collect()
    };
    let mut count = 0usize;
    let mut binding = Binding::new();
    let _ = for_each_homomorphism(&grounded, instance, &mut binding, |_| {
        count += 1;
        ControlFlow::Continue(())
    });
    count
}

fn main() {
    // ── A guarded ontology ────────────────────────────────────────
    // Every employee works on some project; project workers are
    // supervised by someone on the same project; supervision within a
    // project implies seniority.
    let guarded_src = "
        Emp(ann). Emp(bob).
        Emp(e) -> exists p. WorksOn(e,p).
        WorksOn(e,p) -> exists s. Sup(s,e,p).
        Sup(s,e,p) -> Senior(s).
    ";
    let mut vocab = Vocabulary::new();
    let program = parse_program(guarded_src, &mut vocab).expect("valid");
    let onto = program.tgd_set(&vocab).expect("valid");
    assert!(all_guarded(&onto));
    let verdict = decide(&onto, &vocab, &DeciderConfig::default());
    assert!(verdict.is_terminating());
    println!("guarded ontology: all-instances terminating — materialising");
    let run = RestrictedChase::new(&onto)
        .strategy(Strategy::Fifo)
        .run(&program.database, Budget::steps(10_000));
    assert_eq!(run.outcome, Outcome::Terminated);
    println!(
        "  canonical model: {} atoms = {}",
        run.instance.len(),
        run.instance.display(&vocab)
    );
    let seniors = count_answers(&run.instance, &mut vocab, &[("Senior", &["s"])]);
    println!("  q(s) :- Senior(s): {seniors} answers (one invented supervisor per employee)\n");
    assert_eq!(seniors, 2);

    // ── A sticky (unguarded) ontology ─────────────────────────────
    // Cross-departmental pairing: stickiness expresses the join that
    // guardedness cannot.
    // The join variable d is propagated to *every* head (the defining
    // sticky discipline), so the set passes the marking test.
    let sticky_src = "
        Dept(cs). Dept(math). Lead(cs,ann). Lead(math,cleo).
        Lead(d,l), Dept(d) -> exists c. Chairs(d,l,c).
        Chairs(d,l,c) -> Committee(d,c).
    ";
    let mut vocab2 = Vocabulary::new();
    let program2 = parse_program(sticky_src, &mut vocab2).expect("valid");
    let onto2 = program2.tgd_set(&vocab2).expect("valid");
    assert!(is_sticky(&onto2));
    assert!(!all_linear(&onto2));
    let verdict2 = decide_sticky(&onto2, &vocab2, &DeciderConfig::default());
    assert!(verdict2.is_terminating());
    println!("sticky ontology: automaton-certified terminating — materialising");
    let run2 = RestrictedChase::new(&onto2)
        .strategy(Strategy::Fifo)
        .run(&program2.database, Budget::steps(10_000));
    assert_eq!(run2.outcome, Outcome::Terminated);
    let committees = count_answers(&run2.instance, &mut vocab2, &[("Committee", &["d", "c"])]);
    println!("  q(d,c) :- Committee(d,c): {committees} answers\n");
    assert_eq!(committees, 2);

    // ── A dangerous axiom set, rejected up front ──────────────────
    // "Every manager has a manager" — the classic infinite hierarchy.
    let dangerous_src = "Mgr(x,y) -> exists z. Mgr(y,z).";
    let mut vocab3 = Vocabulary::new();
    let onto3 = parse_tgds(dangerous_src, &mut vocab3).expect("valid");
    match decide(&onto3, &vocab3, &DeciderConfig::default()) {
        TerminationVerdict::NonTerminating(w) => {
            println!("dangerous ontology rejected before materialisation:");
            println!("  witness database: {}", w.database.display(&vocab3));
            println!("  {}", w.description);
        }
        other => panic!("expected NonTerminating, got {other:?}"),
    }
}

//! Graphviz (DOT) export of derivations. Purely diagnostic — handy
//! when debugging how a witness derivation unfolds.

use std::fmt::Write as _;

use chase_core::tgd::TgdSet;
use chase_core::vocab::Vocabulary;

use crate::derivation::Derivation;

fn escape(s: &str) -> String {
    s.replace('"', "\\\"")
}

/// Renders a derivation as a DOT digraph: one node per step, edges
/// from the steps that produced a body atom to the steps consuming it.
pub fn derivation_to_dot(derivation: &Derivation, set: &TgdSet, vocab: &Vocabulary) -> String {
    let mut out = String::from(
        "digraph derivation {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n",
    );
    // Map produced atoms to step indexes.
    let mut producer: Vec<(chase_core::atom::Atom, usize)> = Vec::new();
    for (i, step) in derivation.steps.iter().enumerate() {
        let tgd = set.tgd(step.trigger.tgd);
        let added: Vec<String> = step.added.iter().map(|a| a.display(vocab)).collect();
        let _ = writeln!(
            out,
            "  s{i} [label=\"{}: σ{}\\n{}\"];",
            i,
            step.trigger.tgd.0,
            escape(&added.join(", "))
        );
        for atom in tgd.body() {
            let ground = step.trigger.binding.apply_atom(atom);
            if let Some(&(_, j)) = producer.iter().find(|(a, _)| *a == ground) {
                let _ = writeln!(out, "  s{j} -> s{i};");
            }
        }
        for a in &step.added {
            producer.push((a.clone(), i));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restricted::{Budget, RestrictedChase, Strategy};
    use chase_core::parser::parse_program;

    #[test]
    fn derivation_dot_contains_steps_and_edges() {
        let mut vocab = Vocabulary::new();
        let p = parse_program(
            "R(a,b). R(x,y) -> exists z. S(y,z). S(u,v) -> T(u).",
            &mut vocab,
        )
        .unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let run = RestrictedChase::new(&set)
            .strategy(Strategy::Fifo)
            .run(&p.database, Budget::steps(100));
        let dot = derivation_to_dot(&run.derivation(&set), &set, &vocab);
        assert!(dot.starts_with("digraph derivation"));
        assert!(dot.contains("s0"));
        assert!(dot.contains("s0 -> s1")); // T(b) consumes S(b,·)
        assert!(dot.ends_with("}\n"));
    }
}

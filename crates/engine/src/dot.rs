//! Graphviz (DOT) export of chase artefacts: derivations, the real
//! oblivious chase with its parent/stop relations, and instances as
//! term-sharing graphs. Purely diagnostic — handy when debugging why a
//! trigger is (not) active or how a witness derivation unfolds.

use std::fmt::Write as _;

use chase_core::tgd::TgdSet;
use chase_core::vocab::Vocabulary;

use crate::derivation::Derivation;
use crate::real_oblivious::RealOchase;
use crate::relations::OchaseRelations;

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

/// Renders a real-oblivious-chase fragment as a DOT digraph: solid
/// edges = parent relation `≺p`, dashed red edges = stop relation
/// `≺s`. Database vertices are drawn as ellipses.
pub fn ochase_to_dot(
    fragment: &RealOchase,
    relations: &OchaseRelations,
    vocab: &Vocabulary,
) -> String {
    let mut out =
        String::from("digraph ochase {\n  rankdir=TB;\n  node [fontname=\"monospace\"];\n");
    for (id, node) in fragment.iter() {
        let shape = if fragment.is_database_node(id) {
            "ellipse"
        } else {
            "box"
        };
        let origin = match &node.trigger {
            None => "⊥".to_string(),
            Some(t) => format!("σ{}", t.tgd.0),
        };
        let _ = writeln!(
            out,
            "  n{} [shape={shape}, label=\"{}\\n{origin}\"];",
            id.0,
            escape(&node.atom.display(vocab))
        );
    }
    for &(v, u) in &relations.parent {
        let _ = writeln!(out, "  n{} -> n{};", v.0, u.0);
    }
    for &(v, u) in &relations.stop {
        let _ = writeln!(
            out,
            "  n{} -> n{} [style=dashed, color=red, constraint=false];",
            v.0, u.0
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real_oblivious::OchaseLimits;
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

    #[test]
    fn ochase_dot_marks_database_and_stops() {
        let mut vocab = Vocabulary::new();
        let p = parse_program(
            "P(a,b).
             P(x1,y1) -> R(x1,y1).
             P(x2,y2) -> S(x2).
             R(x3,y3) -> S(x3).
             S(x4) -> exists y4. R(x4,y4).",
            &mut vocab,
        )
        .unwrap();
        let set = p.tgd_set(&vocab).unwrap();
        let fragment = RealOchase::build(
            &p.database,
            &set,
            OchaseLimits {
                max_nodes: 100,
                max_depth: 2,
            },
        );
        let relations = OchaseRelations::compute(&fragment, &set);
        let dot = ochase_to_dot(&fragment, &relations, &vocab);
        assert!(dot.contains("shape=ellipse")); // database vertex
        assert!(dot.contains("style=dashed")); // the S(a) ↔ S(a) stops
        assert!(dot.contains("σ1") || dot.contains("σ0"));
    }
}

//! Guardedness and linearity (Section 2 of the paper).
//!
//! A TGD is *guarded* if some body atom — the guard — contains every
//! variable occurring in the body; when several atoms qualify, the
//! paper fixes the left-most one. A TGD is *linear* if its body is a
//! single atom (hence trivially guarded).

use chase_core::ids::VarId;
use chase_core::tgd::{Tgd, TgdSet};

/// Returns the index (within the body) of the guard of `tgd` — the
/// left-most body atom containing all body variables — or `None` if
/// the TGD is not guarded.
pub fn guard_index(tgd: &Tgd) -> Option<usize> {
    let all_vars: Vec<VarId> = tgd.body_vars().to_vec();
    tgd.body().iter().position(|atom| {
        all_vars
            .iter()
            .all(|v| atom.args.iter().any(|t| t.as_var() == Some(*v)))
    })
}

/// Whether the TGD is guarded.
pub fn is_guarded(tgd: &Tgd) -> bool {
    guard_index(tgd).is_some()
}

/// Whether the TGD is linear (single body atom).
pub fn is_linear(tgd: &Tgd) -> bool {
    tgd.body().len() == 1
}

/// Whether every TGD in the set is guarded (the class `G` of the
/// paper, modulo single-headedness which is checked separately).
pub fn all_guarded(set: &TgdSet) -> bool {
    set.tgds().iter().all(is_guarded)
}

/// Whether every TGD in the set is linear.
pub fn all_linear(set: &TgdSet) -> bool {
    set.tgds().iter().all(is_linear)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_tgds;
    use chase_core::vocab::Vocabulary;

    fn set(src: &str) -> (Vocabulary, TgdSet) {
        let mut vocab = Vocabulary::new();
        let s = parse_tgds(src, &mut vocab).unwrap();
        (vocab, s)
    }

    #[test]
    fn linear_tgds_are_guarded() {
        let (_, s) = set("R(x,y) -> exists z. R(y,z).");
        assert!(all_linear(&s));
        assert!(all_guarded(&s));
        assert_eq!(guard_index(&s.tgds()[0]), Some(0));
    }

    #[test]
    fn guard_detected_among_side_atoms() {
        // G(x,y,z) guards; S(x), P(y,z) are side atoms.
        let (_, s) = set("S(x), G(x,y,z), P(y,z) -> exists w. H(x,w).");
        assert!(!all_linear(&s));
        assert!(all_guarded(&s));
        assert_eq!(guard_index(&s.tgds()[0]), Some(1));
    }

    #[test]
    fn leftmost_guard_chosen() {
        let (_, s) = set("G(x,y), H(y,x) -> exists w. K(x,w).");
        assert_eq!(guard_index(&s.tgds()[0]), Some(0));
    }

    #[test]
    fn unguarded_join_detected() {
        // The classic cartesian join: no atom sees both x and z.
        let (_, s) = set("R(x,y), P(y,z) -> exists w. T(x,y,w).");
        assert!(!all_guarded(&s));
        assert_eq!(guard_index(&s.tgds()[0]), None);
    }

    #[test]
    fn example_5_6_is_guarded() {
        let (_, s) = set("S(x1,y1) -> T(x1).
             R(x2,y2), T(y2) -> P(x2,y2).
             P(x3,y3) -> exists z3. P(y3,z3).");
        assert!(all_guarded(&s));
        assert!(s.tgds().iter().all(|tgd| guard_index(tgd) == Some(0)));
    }
}

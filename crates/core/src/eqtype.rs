//! Equality types (Appendix A of the paper) and their labelled
//! refinement (T-equality types, Appendix D.2).
//!
//! The equality type of an atom `R(t1,...,tn)` is the partition of its
//! positions induced by term equality. We represent a partition
//! canonically as a vector `classes` where `classes[i]` is the index
//! of the equivalence class of position `i`, classes numbered by first
//! occurrence. E.g. `R(a,b,a)` has classes `[0,1,0]`.
//!
//! A T-equality type additionally labels some classes with a *term of
//! a reference atom* (itself identified by one of the reference
//! atom's classes). The sticky decision procedure uses these to track,
//! with finitely many states, which terms of past caterpillar-body
//! atoms coincide with terms of the current one (Lemma D.3).

use crate::atom::Atom;
use crate::ids::PredId;
use crate::term::Term;

/// The equality type `et(α)` of an atom: predicate plus canonical
/// position partition.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EqType {
    /// The predicate.
    pub pred: PredId,
    /// `classes[i]` = class of position `i`, first-occurrence numbered.
    pub classes: Vec<u8>,
}

/// Computes the canonical class vector of a slice of terms.
pub fn canonical_classes(terms: &[Term]) -> Vec<u8> {
    let mut reps: Vec<Term> = Vec::new();
    let mut classes = Vec::with_capacity(terms.len());
    for &t in terms {
        match reps.iter().position(|&r| r == t) {
            Some(c) => classes.push(c as u8),
            None => {
                classes.push(reps.len() as u8);
                reps.push(t);
            }
        }
    }
    classes
}

impl EqType {
    /// The equality type of a ground atom.
    pub fn of_atom(atom: &Atom) -> Self {
        EqType {
            pred: atom.pred,
            classes: canonical_classes(&atom.args),
        }
    }

    /// Arity of the underlying predicate.
    pub fn arity(&self) -> usize {
        self.classes.len()
    }

    /// Number of equivalence classes (distinct terms).
    pub fn class_count(&self) -> usize {
        self.classes
            .iter()
            .map(|&c| c as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// The class of position `i`.
    #[inline]
    pub fn class_of(&self, i: usize) -> u8 {
        self.classes[i]
    }
}

/// A T-equality type `(R, E, λ)`: an equality type whose classes may
/// carry labels referring to the classes (terms) of a *reference
/// atom*. `labels[c] = Some(d)` means the term of class `c` *is* the
/// reference atom's term of class `d`; the labelling is injective.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabeledEqType {
    /// The unlabelled part.
    pub ty: EqType,
    /// Per-class optional labels into the reference atom's classes.
    pub labels: Vec<Option<u8>>,
}

impl LabeledEqType {
    /// Builds a labelled equality type, checking injectivity of the
    /// labelling in debug builds.
    pub fn new(ty: EqType, labels: Vec<Option<u8>>) -> Self {
        debug_assert_eq!(labels.len(), ty.class_count());
        #[cfg(debug_assertions)]
        {
            let mut seen = Vec::new();
            for l in labels.iter().flatten() {
                assert!(!seen.contains(l), "labelling must be injective");
                seen.push(*l);
            }
        }
        LabeledEqType { ty, labels }
    }

    /// The fully-labelled type of the reference atom itself: every
    /// class labelled by itself.
    pub fn identity(ty: EqType) -> Self {
        let n = ty.class_count();
        LabeledEqType {
            ty,
            labels: (0..n as u8).map(Some).collect(),
        }
    }

    /// Re-labels through a partial map `m` on reference classes:
    /// `m[d] = Some(d')` means reference term `d` survives as term
    /// `d'` of the *new* reference atom; `None` means it is gone and
    /// the label is dropped.
    pub fn relabel(&self, m: &[Option<u8>]) -> LabeledEqType {
        LabeledEqType {
            ty: self.ty.clone(),
            labels: self
                .labels
                .iter()
                .map(|l| l.and_then(|d| m.get(d as usize).copied().flatten()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ConstId, NullId};

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }

    fn atom(p: u32, args: &[Term]) -> Atom {
        Atom::new(PredId(p), args.to_vec())
    }

    #[test]
    fn canonical_classes_first_occurrence() {
        assert_eq!(canonical_classes(&[c(5), c(9), c(5)]), vec![0, 1, 0]);
        assert_eq!(canonical_classes(&[c(1), c(1), c(1)]), vec![0, 0, 0]);
        assert_eq!(canonical_classes(&[]), Vec::<u8>::new());
    }

    #[test]
    fn eqtype_ignores_term_identity() {
        let a = atom(0, &[c(0), c(1), c(0)]);
        let b = atom(0, &[c(7), Term::Null(NullId(3)), c(7)]);
        assert_eq!(EqType::of_atom(&a), EqType::of_atom(&b));
        let d = atom(0, &[c(0), c(1), c(1)]);
        assert_ne!(EqType::of_atom(&a), EqType::of_atom(&d));
    }

    #[test]
    fn class_queries() {
        let ty = EqType::of_atom(&atom(0, &[c(0), c(1), c(0), c(2)]));
        assert_eq!(ty.class_count(), 3);
        assert_eq!(ty.class_of(3), 2);
        assert_eq!(ty.arity(), 4);
    }

    #[test]
    fn identity_labels_every_class() {
        let ty = EqType::of_atom(&atom(0, &[c(0), c(1), c(0)]));
        let l = LabeledEqType::identity(ty);
        assert_eq!(l.labels, vec![Some(0), Some(1)]);
    }

    #[test]
    fn relabel_drops_dead_terms() {
        let ty = EqType::of_atom(&atom(0, &[c(0), c(1)]));
        let l = LabeledEqType::identity(ty);
        // Reference term 0 dies, term 1 becomes term 0 of the new atom.
        let m = vec![None, Some(0)];
        let r = l.relabel(&m);
        assert_eq!(r.labels, vec![None, Some(0)]);
    }
}

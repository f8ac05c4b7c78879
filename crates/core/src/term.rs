//! Terms: constants, labelled nulls and variables (Section 2 of the
//! paper). Terms are `Copy` (8 bytes) thanks to interning.

use crate::ids::{ConstId, NullId, VarId};

/// A term is a constant from `C`, a labelled null from `N`, or a
/// variable from `V` (variables occur only in dependencies, never in
/// instances).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A constant.
    Const(ConstId),
    /// A labelled null, acting as a witness for an existential
    /// quantifier.
    Null(NullId),
    /// A variable used in a dependency.
    Var(VarId),
}

impl Term {
    /// Returns `true` for constants.
    #[inline]
    pub fn is_const(self) -> bool {
        matches!(self, Term::Const(_))
    }

    /// Returns `true` for labelled nulls.
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, Term::Null(_))
    }

    /// Returns `true` for variables.
    #[inline]
    pub fn is_var(self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// Returns the variable identifier if this term is a variable.
    #[inline]
    pub fn as_var(self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the null identifier if this term is a null.
    #[inline]
    pub fn as_null(self) -> Option<NullId> {
        match self {
            Term::Null(n) => Some(n),
            _ => None,
        }
    }

    /// Returns `true` if the term may appear in an instance (i.e. it
    /// is not a variable).
    #[inline]
    pub fn is_ground(self) -> bool {
        !self.is_var()
    }
}

/// Allocates fresh labelled nulls with strictly increasing identifiers.
///
/// The chase engines use one factory per run, so null identity is
/// stable within a run and never collides across trigger applications.
#[derive(Debug, Default, Clone)]
pub struct NullFactory {
    next: u32,
}

impl NullFactory {
    /// Creates a factory whose first null is `ν0`.
    pub fn new() -> Self {
        NullFactory { next: 0 }
    }

    /// Creates a factory that will not collide with any null already
    /// occurring in `terms`.
    pub fn above(terms: impl IntoIterator<Item = Term>) -> Self {
        let max = terms
            .into_iter()
            .filter_map(Term::as_null)
            .map(|n| n.0 + 1)
            .max()
            .unwrap_or(0);
        NullFactory { next: max }
    }

    /// Returns a fresh null, never returned before by this factory.
    #[inline]
    pub fn fresh(&mut self) -> NullId {
        let id = NullId(self.next);
        self.next += 1;
        id
    }

    /// Returns the number of nulls handed out so far.
    pub fn allocated(&self) -> u32 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_kind_predicates() {
        assert!(Term::Const(ConstId(0)).is_const());
        assert!(Term::Null(NullId(0)).is_null());
        assert!(Term::Var(VarId(0)).is_var());
        assert!(Term::Const(ConstId(0)).is_ground());
        assert!(Term::Null(NullId(0)).is_ground());
        assert!(!Term::Var(VarId(0)).is_ground());
    }

    #[test]
    fn term_accessors() {
        assert_eq!(Term::Var(VarId(3)).as_var(), Some(VarId(3)));
        assert_eq!(Term::Const(ConstId(3)).as_var(), None);
        assert_eq!(Term::Null(NullId(5)).as_null(), Some(NullId(5)));
    }

    #[test]
    fn null_factory_is_monotone() {
        let mut f = NullFactory::new();
        let a = f.fresh();
        let b = f.fresh();
        assert_ne!(a, b);
        assert!(a.0 < b.0);
        assert_eq!(f.allocated(), 2);
    }

    #[test]
    fn null_factory_above_existing() {
        let terms = vec![
            Term::Null(NullId(7)),
            Term::Const(ConstId(9)),
            Term::Null(NullId(2)),
        ];
        let mut f = NullFactory::above(terms);
        assert_eq!(f.fresh(), NullId(8));
    }

    #[test]
    fn term_is_small() {
        // Perf guard: a term must stay pointer-sized so atoms stay flat.
        assert!(std::mem::size_of::<Term>() <= 8);
    }
}

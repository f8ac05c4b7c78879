//! Atoms and positions (Section 2 of the paper).

use crate::ids::{PredId, VarId};
use crate::term::Term;
use crate::vocab::Vocabulary;

/// A position `(R, i)` of a schema: the `i`-th argument (0-based in
/// code, 1-based in the paper) of predicate `R`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Position {
    /// The predicate.
    pub pred: PredId,
    /// The 0-based argument index.
    pub index: usize,
}

impl Position {
    /// Creates a position.
    pub fn new(pred: PredId, index: usize) -> Self {
        Position { pred, index }
    }
}

/// Number of argument terms an [`ArgVec`] stores inline. Also the
/// arity threshold below which the columnar instance storage keeps an
/// atom's arguments in its contiguous inline column (wider atoms go to
/// the instance's spill arena) — keeping the two aligned means converting
/// between row and columnar form never changes which atoms allocate.
pub const ARG_INLINE: usize = 4;

/// The argument list of an atom: inline up to [`ARG_INLINE`] terms,
/// spilling to a heap `Vec` only for wider predicates. Instances clone
/// and hash millions of atoms on the chase hot path; keeping the
/// common arities (≤ 4) inline makes an atom clone a `memcpy` instead
/// of a heap allocation.
///
/// `ArgVec` dereferences to `[Term]`, so reads (`len`, `iter`,
/// indexing, slice patterns) work as they did when this was a `Vec`.
/// Equality, ordering and hashing delegate to the slice view, so an
/// inline and a spilled list with the same terms are indistinguishable
/// — a property [`Atom`]'s derived `Hash`/`Ord` relies on.
#[derive(Clone)]
pub enum ArgVec {
    /// Up to [`ARG_INLINE`] terms stored in place.
    Inline {
        /// Number of occupied slots in `buf`.
        len: u8,
        /// Inline storage; entries beyond `len` are padding.
        buf: [Term; ARG_INLINE],
    },
    /// Heap storage for atoms of arity above [`ARG_INLINE`].
    Spill(Vec<Term>),
}

impl ArgVec {
    /// Creates an empty argument list.
    pub fn new() -> Self {
        ArgVec::Inline {
            len: 0,
            buf: [Term::Var(VarId(0)); ARG_INLINE],
        }
    }

    /// Appends a term, spilling to the heap at capacity.
    pub fn push(&mut self, term: Term) {
        match self {
            ArgVec::Inline { len, buf } => {
                if (*len as usize) < ARG_INLINE {
                    buf[*len as usize] = term;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(ARG_INLINE * 2);
                    v.extend_from_slice(buf);
                    v.push(term);
                    *self = ArgVec::Spill(v);
                }
            }
            ArgVec::Spill(v) => v.push(term),
        }
    }

    /// Empties the list, keeping any spilled capacity for reuse.
    pub fn clear(&mut self) {
        match self {
            ArgVec::Inline { len, .. } => *len = 0,
            ArgVec::Spill(v) => v.clear(),
        }
    }

    /// The terms as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Term] {
        match self {
            ArgVec::Inline { len, buf } => &buf[..*len as usize],
            ArgVec::Spill(v) => v,
        }
    }

    /// Heap bytes owned by this argument list: 0 while inline, the
    /// spill vector's reserved capacity otherwise. Feeds the
    /// profiler's instance memory accounting.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        match self {
            ArgVec::Inline { .. } => 0,
            ArgVec::Spill(v) => v.capacity() * std::mem::size_of::<Term>(),
        }
    }
}

impl Default for ArgVec {
    fn default() -> Self {
        ArgVec::new()
    }
}

impl std::ops::Deref for ArgVec {
    type Target = [Term];
    #[inline]
    fn deref(&self) -> &[Term] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for ArgVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [Term] {
        match self {
            ArgVec::Inline { len, buf } => &mut buf[..*len as usize],
            ArgVec::Spill(v) => v,
        }
    }
}

impl From<Vec<Term>> for ArgVec {
    fn from(v: Vec<Term>) -> Self {
        if v.len() <= ARG_INLINE {
            let mut out = ArgVec::new();
            for t in v {
                out.push(t);
            }
            out
        } else {
            ArgVec::Spill(v)
        }
    }
}

impl From<&[Term]> for ArgVec {
    fn from(s: &[Term]) -> Self {
        if s.len() <= ARG_INLINE {
            let mut out = ArgVec::new();
            for &t in s {
                out.push(t);
            }
            out
        } else {
            ArgVec::Spill(s.to_vec())
        }
    }
}

impl FromIterator<Term> for ArgVec {
    fn from_iter<I: IntoIterator<Item = Term>>(iter: I) -> Self {
        let mut out = ArgVec::new();
        for t in iter {
            out.push(t);
        }
        out
    }
}

impl<'a> IntoIterator for &'a ArgVec {
    type Item = &'a Term;
    type IntoIter = std::slice::Iter<'a, Term>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a mut ArgVec {
    type Item = &'a mut Term;
    type IntoIter = std::slice::IterMut<'a, Term>;
    fn into_iter(self) -> Self::IntoIter {
        use std::ops::DerefMut;
        self.deref_mut().iter_mut()
    }
}

impl std::fmt::Debug for ArgVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for ArgVec {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for ArgVec {}

impl PartialOrd for ArgVec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ArgVec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for ArgVec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// An atom `R(t1, ..., tn)` over interned terms.
///
/// Atoms over constants and nulls populate instances; atoms containing
/// variables appear in dependency bodies and heads.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    /// The predicate symbol.
    pub pred: PredId,
    /// The argument terms, length equal to the predicate arity.
    pub args: ArgVec,
}

impl Atom {
    /// Creates an atom. The caller is responsible for arity agreement
    /// (the parser and the engines always construct atoms through a
    /// [`Vocabulary`]-validated path).
    pub fn new(pred: PredId, args: impl Into<ArgVec>) -> Self {
        Atom {
            pred,
            args: args.into(),
        }
    }

    /// The arity of the atom.
    #[inline]
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Heap bytes owned by the atom beyond its inline size (see
    /// [`ArgVec::heap_bytes`]).
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.args.heap_bytes()
    }

    /// Returns `true` if no argument is a variable, i.e. the atom may
    /// be a member of an instance.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(|t| t.is_ground())
    }

    /// Returns `true` if every argument is a constant, i.e. the atom
    /// is a *fact* in the paper's sense.
    pub fn is_fact(&self) -> bool {
        self.args.iter().all(|t| t.is_const())
    }

    /// Iterates over the variables of the atom, with repetitions, in
    /// argument order.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.args.iter().filter_map(|t| t.as_var())
    }

    /// The paper's `pos(R(t̄), x)`: the 0-based positions at which the
    /// variable `x` occurs in this atom.
    pub fn positions_of_var(&self, x: VarId) -> Vec<usize> {
        self.args
            .iter()
            .enumerate()
            .filter(|(_, t)| t.as_var() == Some(x))
            .map(|(i, _)| i)
            .collect()
    }

    /// Renders the atom using the vocabulary.
    pub fn display(&self, vocab: &Vocabulary) -> String {
        AtomRef::from(self).display(vocab)
    }
}

/// A borrowed view of an atom stored in an instance's columnar
/// layout. The predicate id and the argument slice point straight into
/// the instance's struct-of-arrays columns, so producing one is two array
/// reads and no copy — reading `instance.atom(slot)` used to hand out
/// `&Atom` rows; it now hands out one of these.
///
/// `AtomRef` is `Copy` and compares equal to an [`Atom`] with the same
/// predicate and arguments, in either direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomRef<'a> {
    /// The predicate symbol.
    pub pred: PredId,
    /// The argument terms, borrowed from the instance columns.
    pub args: &'a [Term],
}

impl<'a> AtomRef<'a> {
    /// The arity of the atom.
    #[inline]
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Returns `true` if every argument is a constant (a *fact*).
    pub fn is_fact(&self) -> bool {
        self.args.iter().all(|t| t.is_const())
    }

    /// Returns `true` if no argument is a variable.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(|t| t.is_ground())
    }

    /// Copies the borrowed view into an owned [`Atom`].
    pub fn to_atom(&self) -> Atom {
        Atom::new(self.pred, self.args)
    }

    /// Renders the atom using the vocabulary.
    pub fn display(&self, vocab: &Vocabulary) -> String {
        let mut out = String::new();
        self.write_to(vocab, &mut out);
        out
    }

    /// Appends [`AtomRef::display`]'s rendering to `out`.
    pub fn write_to(&self, vocab: &Vocabulary, out: &mut String) {
        out.push_str(vocab.pred_name(self.pred));
        out.push('(');
        for (i, &t) in self.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            vocab.write_term(out, t);
        }
        out.push(')');
    }
}

impl<'a> From<&'a Atom> for AtomRef<'a> {
    #[inline]
    fn from(a: &'a Atom) -> Self {
        AtomRef {
            pred: a.pred,
            args: a.args.as_slice(),
        }
    }
}

impl PartialEq<Atom> for AtomRef<'_> {
    #[inline]
    fn eq(&self, other: &Atom) -> bool {
        self.pred == other.pred && self.args == other.args.as_slice()
    }
}

impl PartialEq<AtomRef<'_>> for Atom {
    #[inline]
    fn eq(&self, other: &AtomRef<'_>) -> bool {
        other == self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ConstId;

    fn atom(pred: u32, args: &[Term]) -> Atom {
        Atom::new(PredId(pred), args.to_vec())
    }

    #[test]
    fn groundness_and_factness() {
        let c = Term::Const(ConstId(0));
        let n = Term::Null(crate::ids::NullId(0));
        let v = Term::Var(VarId(0));
        assert!(atom(0, &[c, c]).is_fact());
        assert!(atom(0, &[c, n]).is_ground());
        assert!(!atom(0, &[c, n]).is_fact());
        assert!(!atom(0, &[c, v]).is_ground());
    }

    #[test]
    fn positions_of_var_matches_paper_pos() {
        let x = VarId(0);
        let y = VarId(1);
        let a = atom(0, &[Term::Var(x), Term::Var(y), Term::Var(x)]);
        assert_eq!(a.positions_of_var(x), vec![0, 2]);
        assert_eq!(a.positions_of_var(y), vec![1]);
        assert_eq!(a.positions_of_var(VarId(9)), Vec::<usize>::new());
    }

    #[test]
    fn heap_bytes_counts_only_spilled_storage() {
        let c = Term::Const(ConstId(0));
        let inline = atom(0, &[c; 4]);
        assert_eq!(inline.heap_bytes(), 0);
        let spilled = atom(0, &[c; 6]);
        assert!(spilled.heap_bytes() >= 6 * std::mem::size_of::<Term>());
    }

    #[test]
    fn display_renders_readably() {
        let mut vocab = Vocabulary::new();
        let r = vocab.pred("R", 2).unwrap();
        let a = vocab.constant("a");
        let b = vocab.constant("b");
        let at = Atom::new(r, vec![Term::Const(a), Term::Const(b)]);
        assert_eq!(at.display(&vocab), "R(a,b)");
    }
}

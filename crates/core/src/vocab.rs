//! The vocabulary: interning tables for predicate, constant and
//! variable names, together with display helpers.
//!
//! A [`Vocabulary`] is the single source of truth for symbol names.
//! All structural code paths work on interned identifiers only; names
//! are needed just for parsing and pretty-printing.

use std::hash::Hasher;

use crate::error::CoreError;
use crate::ids::{fx_map, ConstId, FxHashMap, FxHasher, NullId, PredId, VarId};
use crate::term::Term;

/// The widest predicate [`Vocabulary::pred`] accepts. Instances pack an
/// atom's arity into 16 bits and key their position indexes by a `u16`
/// position, so wider atoms could not be stored faithfully.
pub const MAX_ARITY: usize = u16::MAX as usize;

/// Metadata for an interned predicate symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredInfo {
    /// The predicate name as written in rule files.
    pub name: String,
    /// The arity (`> 0` as in the paper).
    pub arity: usize,
}

/// Interned constant names without a heap allocation per name: the
/// names are concatenated in one arena and found through an
/// open-addressing table of ids. A database can bring a new constant
/// with almost every fact, so this is the parser's hottest table.
#[derive(Debug, Default, Clone)]
struct ConstTable {
    /// Every name, back to back.
    text: String,
    /// Name `i` is `text[bounds[i]..bounds[i + 1]]`; empty until the
    /// first name is interned.
    bounds: Vec<usize>,
    /// `(hash, id + 1)` per slot, `id + 1 == 0` marking an empty slot.
    /// The length is zero or a power of two, and at most half the
    /// slots are used.
    slots: Vec<(u64, u32)>,
}

impl ConstTable {
    fn hash(name: &str) -> u64 {
        let mut h = FxHasher::default();
        h.write(name.as_bytes());
        h.finish()
    }

    fn len(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    #[inline]
    fn name(&self, index: usize) -> Option<&str> {
        match *self.bounds.get(index..index + 2)? {
            [start, end] => Some(&self.text[start..end]),
            _ => None,
        }
    }

    /// The slot holding `name`, or the empty slot where it belongs. The
    /// probe starts at the hash's top bits: FxHash ends in a multiply,
    /// which mixes every input bit into the top of the word only.
    fn find(&self, name: &str, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            let (h, id) = self.slots[i];
            if id == 0 || (h == hash && self.name(id as usize - 1) == Some(name)) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn intern(&mut self, name: &str) -> ConstId {
        if (self.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let hash = Self::hash(name);
        let slot = self.find(name, hash);
        match self.slots[slot].1 {
            0 => {
                let id = self.len() as u32;
                if self.bounds.is_empty() {
                    self.bounds.push(0);
                }
                self.text.push_str(name);
                self.bounds.push(self.text.len());
                self.slots[slot] = (hash, id + 1);
                ConstId(id)
            }
            id => ConstId(id - 1),
        }
    }

    fn grow(&mut self) {
        let capacity = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); capacity]);
        for (hash, id) in old.into_iter().filter(|&(_, id)| id != 0) {
            let name = self.name(id as usize - 1).expect("interned id");
            let slot = self.find(name, hash);
            self.slots[slot] = (hash, id);
        }
    }
}

/// Interning tables for every named symbol in a program.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    preds: Vec<PredInfo>,
    pred_by_name: FxHashMap<String, PredId>,
    consts: ConstTable,
    vars: Vec<String>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Vocabulary {
            preds: Vec::new(),
            pred_by_name: fx_map(),
            consts: ConstTable::default(),
            vars: Vec::new(),
        }
    }

    /// Interns a predicate with the given arity.
    ///
    /// Returns an error if the same name was previously interned with
    /// a different arity (schemas assign a single arity per symbol), or
    /// if the arity is 0 or exceeds [`MAX_ARITY`].
    pub fn pred(&mut self, name: &str, arity: usize) -> Result<PredId, CoreError> {
        if let Some(&id) = self.pred_by_name.get(name) {
            let known = self.preds[id.index()].arity;
            if known != arity {
                return Err(CoreError::ArityMismatch {
                    predicate: name.to_string(),
                    expected: known,
                    found: arity,
                });
            }
            return Ok(id);
        }
        if arity == 0 {
            return Err(CoreError::ZeroArity {
                predicate: name.to_string(),
            });
        }
        if arity > MAX_ARITY {
            return Err(CoreError::ArityTooLarge {
                predicate: name.to_string(),
                arity,
            });
        }
        let id = PredId(self.preds.len() as u32);
        self.preds.push(PredInfo {
            name: name.to_string(),
            arity,
        });
        self.pred_by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Looks up a predicate by name without interning.
    pub fn lookup_pred(&self, name: &str) -> Option<PredId> {
        self.pred_by_name.get(name).copied()
    }

    /// Interns a constant name.
    pub fn constant(&mut self, name: &str) -> ConstId {
        self.consts.intern(name)
    }

    /// Allocates a fresh variable with the given display name.
    ///
    /// Variables are deliberately *not* deduplicated by name: each
    /// rule gets its own scope, so rules never share `VarId`s (the
    /// paper assumes TGDs do not share variables, w.l.o.g.).
    pub fn fresh_var(&mut self, name: &str) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(name.to_string());
        id
    }

    /// Returns the arity of an interned predicate.
    #[inline]
    pub fn arity(&self, pred: PredId) -> usize {
        self.preds[pred.index()].arity
    }

    /// Returns the name of an interned predicate.
    pub fn pred_name(&self, pred: PredId) -> &str {
        &self.preds[pred.index()].name
    }

    /// Returns the name of an interned constant, or a stable
    /// placeholder for constants minted outside this vocabulary (e.g.
    /// by the witness realiser, which allocates structural constants).
    pub fn const_name(&self, c: ConstId) -> &str {
        self.consts.name(c.index()).unwrap_or("⟨fresh⟩")
    }

    /// Returns the display name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        self.vars
            .get(v.index())
            .map(String::as_str)
            .unwrap_or("?unknown")
    }

    /// Number of interned predicates.
    pub fn pred_count(&self) -> usize {
        self.preds.len()
    }

    /// Number of interned constants.
    pub fn const_count(&self) -> usize {
        self.consts.len()
    }

    /// Iterates over all interned predicates.
    pub fn preds(&self) -> impl Iterator<Item = (PredId, &PredInfo)> {
        self.preds
            .iter()
            .enumerate()
            .map(|(i, info)| (PredId(i as u32), info))
    }

    /// Renders a term for human consumption. Nulls render as `_:nK`;
    /// constants unknown to this vocabulary render as `⟨cK⟩`.
    pub fn term_to_string(&self, term: Term) -> String {
        let mut out = String::new();
        self.write_term(&mut out, term);
        out
    }

    /// Appends [`Vocabulary::term_to_string`]'s rendering of `term` to
    /// `out`, without an intermediate `String`.
    pub fn write_term(&self, out: &mut String, term: Term) {
        use std::fmt::Write;
        // `write!` into a `String` cannot fail.
        match term {
            Term::Const(c) => match self.consts.name(c.index()) {
                Some(name) => out.push_str(name),
                None => drop(write!(out, "⟨c{}⟩", c.0)),
            },
            Term::Null(NullId(n)) => drop(write!(out, "_:n{n}")),
            Term::Var(v) => {
                out.push('?');
                out.push_str(self.var_name(v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pred_interning_dedups_by_name() {
        let mut v = Vocabulary::new();
        let r1 = v.pred("R", 2).unwrap();
        let r2 = v.pred("R", 2).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(v.pred_count(), 1);
        assert_eq!(v.arity(r1), 2);
        assert_eq!(v.pred_name(r1), "R");
    }

    #[test]
    fn pred_arity_conflict_is_an_error() {
        let mut v = Vocabulary::new();
        v.pred("R", 2).unwrap();
        let err = v.pred("R", 3).unwrap_err();
        assert!(matches!(err, CoreError::ArityMismatch { .. }));
    }

    #[test]
    fn zero_arity_rejected() {
        let mut v = Vocabulary::new();
        assert!(matches!(v.pred("P", 0), Err(CoreError::ZeroArity { .. })));
    }

    #[test]
    fn arity_beyond_u16_rejected() {
        let mut v = Vocabulary::new();
        assert!(v.pred("W", MAX_ARITY).is_ok());
        assert_eq!(
            v.pred("V", MAX_ARITY + 1),
            Err(CoreError::ArityTooLarge {
                predicate: "V".into(),
                arity: MAX_ARITY + 1,
            })
        );
        assert_eq!(
            v.lookup_pred("V"),
            None,
            "a rejected predicate is not interned"
        );
    }

    #[test]
    fn constants_dedup_variables_do_not() {
        let mut v = Vocabulary::new();
        let a1 = v.constant("a");
        let a2 = v.constant("a");
        assert_eq!(a1, a2);
        let x1 = v.fresh_var("x");
        let x2 = v.fresh_var("x");
        assert_ne!(x1, x2);
        assert_eq!(v.var_name(x1), "x");
        assert_eq!(v.var_name(x2), "x");
    }

    #[test]
    fn constant_ids_are_dense_and_stable_across_table_growth() {
        let mut v = Vocabulary::new();
        let names: Vec<String> = (0..5000).map(|i| format!("e{i:x}")).collect();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(v.constant(name), ConstId(i as u32));
        }
        assert_eq!(
            v.constant(""),
            ConstId(5000),
            "the empty name is a name too"
        );
        for (i, name) in names.iter().enumerate() {
            assert_eq!(v.constant(name), ConstId(i as u32));
            assert_eq!(v.const_name(ConstId(i as u32)), name);
        }
        assert_eq!(v.const_count(), 5001);
        assert_eq!(v.const_name(ConstId(5001)), "⟨fresh⟩");
    }

    #[test]
    fn term_rendering() {
        let mut v = Vocabulary::new();
        let a = v.constant("alice");
        let x = v.fresh_var("x");
        assert_eq!(v.term_to_string(Term::Const(a)), "alice");
        assert_eq!(v.term_to_string(Term::Var(x)), "?x");
        assert_eq!(v.term_to_string(Term::Null(NullId(3))), "_:n3");
    }
}

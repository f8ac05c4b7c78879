//! The vocabulary: interning tables for predicate, constant and
//! variable names, together with display helpers.
//!
//! A [`Vocabulary`] is the single source of truth for symbol names.
//! All structural code paths work on interned identifiers only; names
//! are needed just for parsing and pretty-printing.

use std::hash::Hasher;

use crate::error::CoreError;
use crate::ids::{fx_map, ConstId, FxHashMap, FxHasher, NullId, PredId, VarId};
use crate::table::IdTable;
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
/// [`IdTable`] of tags and ids. A database can bring a new constant
/// with almost every fact, so this is the parser's hottest table.
#[derive(Debug, Default, Clone)]
struct ConstTable {
    /// Every name, back to back.
    text: String,
    /// Name `i` is `text[bounds[i]..bounds[i + 1]]`; empty until the
    /// first name is interned.
    bounds: Vec<usize>,
    /// Constant ids by name hash.
    ids: IdTable,
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

    fn intern(&mut self, name: &str) -> ConstId {
        let tag = IdTable::tag(Self::hash(name));
        match self
            .ids
            .find(tag, |id| self.name(id as usize) == Some(name))
        {
            Ok(id) => ConstId(id),
            Err(vacant) => {
                let id = self.ids.insert_vacant(tag, vacant);
                if self.bounds.is_empty() {
                    self.bounds.push(0);
                }
                self.text.push_str(name);
                self.bounds.push(self.text.len());
                ConstId(id)
            }
        }
    }

    /// Heap bytes of the arena, its bounds and the id table.
    fn heap_bytes(&self) -> usize {
        self.text.capacity()
            + self.bounds.capacity() * std::mem::size_of::<usize>()
            + self.ids.heap_bytes()
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

    /// Number of interned constants.
    pub fn const_count(&self) -> usize {
        self.consts.len()
    }

    /// Heap bytes of the interning tables: reserved capacities of the
    /// vectors, strings and the constant table, plus a capacity-based
    /// model of the predicate-name map (one entry and one control byte
    /// per reserved slot).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        fn text<'a>(names: impl Iterator<Item = &'a String>) -> usize {
            names.map(String::capacity).sum()
        }
        self.preds.capacity() * size_of::<PredInfo>()
            + text(self.preds.iter().map(|p| &p.name))
            + self.pred_by_name.capacity() * (size_of::<(String, PredId)>() + 1)
            + text(self.pred_by_name.keys())
            + self.consts.heap_bytes()
            + self.vars.capacity() * size_of::<String>()
            + text(self.vars.iter())
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

    /// Two distinct 16-byte names with equal FxHashes, hence equal
    /// tags and one home bucket. The second name's last 8 bytes are
    /// solved from the FxHash state: FxHash maps state `s` and a last
    /// word `w` to `(s.rotl(5) ^ w) * SEED`, and `SEED` is odd, so `w`
    /// has one solution; about 1 in 2,800 is printable.
    fn colliding_names() -> (String, String) {
        const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        // FX_SEED⁻¹ mod 2⁶⁴ by Newton's iteration.
        let mut inverse = FX_SEED;
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(FX_SEED.wrapping_mul(inverse)));
        }
        let a = "const-a-abcdefgh".to_string();
        let target = ConstTable::hash(&a).wrapping_mul(inverse);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        loop {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let first: String = (0..8)
                .map(|i| char::from(b'a' + ((rng >> (8 * i)) % 26) as u8))
                .collect();
            let mut h = FxHasher::default();
            h.write(first.as_bytes());
            let last = (target ^ h.finish().rotate_left(5)).to_le_bytes();
            if last.iter().all(|b| (b' '..=b'~').contains(b)) {
                let tail = std::str::from_utf8(&last).expect("printable ASCII");
                return (a, format!("{first}{tail}"));
            }
        }
    }

    #[test]
    fn names_with_equal_hashes_intern_apart() {
        let (a, b) = colliding_names();
        assert_ne!(a, b);
        assert_eq!(ConstTable::hash(&a), ConstTable::hash(&b));
        let mut v = Vocabulary::new();
        let ia = v.constant(&a);
        for i in 0..40 {
            v.constant(&format!("f{i}"));
        }
        let ib = v.constant(&b);
        assert_ne!(ia, ib);
        // Both survive several grows.
        for i in 0..2000 {
            v.constant(&format!("g{i}"));
        }
        assert_eq!(v.constant(&a), ia);
        assert_eq!(v.constant(&b), ib);
        assert_eq!(v.const_name(ia), a);
        assert_eq!(v.const_name(ib), b);
        assert_eq!(v.const_count(), 2042);
    }

    #[test]
    fn heap_bytes_count_the_constant_table() {
        let mut v = Vocabulary::new();
        let empty = v.heap_bytes();
        let names: Vec<String> = (0..1000).map(|i| format!("name{i:04}")).collect();
        for name in &names {
            v.constant(name);
        }
        // The text, one bound per name, and at least two 8-byte
        // buckets per name (the table is at most half full).
        let floor = 8 * names.len() + 8 * names.len() + 2 * 8 * names.len();
        assert!(v.heap_bytes() >= empty + floor, "{}", v.heap_bytes());
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

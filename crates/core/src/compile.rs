//! One-shot program compilation: parse → vocabulary → [`TgdSet`] with
//! every per-TGD plan precomputed, bundled into an immutable,
//! [`Arc`]-shared [`CompiledProgram`] addressed by an order-preserving
//! program id (its canonical fingerprint).
//!
//! Every consumer that used to hand-roll the
//! `Vocabulary::new` → `parse_program` → `tgd_set` pipeline (the CLI
//! subcommands, the server's sessions, the task runner) goes through
//! [`compile`] instead: one code path, one error surface, and a
//! product that can be cached and shared across threads without
//! re-deriving anything.
//!
//! ## Canonical fingerprint
//!
//! The fingerprint hashes a *normalized* rendering of the program, so
//! it is stable under
//!
//! - whitespace and comment formatting (the renderer works from the
//!   parsed structure, not the source text),
//! - rule-local variable names (variables are renumbered positionally,
//!   in first-occurrence order, body before head — the order the
//!   parser allocates [`VarId`]s in).
//!
//! It is **not** stable under reordering. Rule order and fact order
//! decide the FIFO trigger order, and the restricted chase result
//! depends on that order, so rules are rendered in [`TgdSet`] order and
//! facts in insertion order. The predicate table is rendered in
//! [`PredId`] order too: interleaving facts and rules differently can
//! intern the same predicates in a different order. Two sources with
//! the same fingerprint therefore compile to the same program up to
//! variable display names, and a cache keyed on it can never change a
//! result — only its latency.
//!
//! [`PredId`]: crate::ids::PredId
//! [`VarId`]: crate::ids::VarId

use std::hash::Hasher;
use std::sync::Arc;

use crate::atom::AtomRef;
use crate::error::CoreError;
use crate::ids::{fx_map, FxHasher};
use crate::instance::Instance;
use crate::parser::{parse_program, Program};
use crate::term::Term;
use crate::tgd::{Tgd, TgdSet};
use crate::vocab::Vocabulary;

/// A 128-bit order-preserving fingerprint of a compiled program (see
/// the module docs), rendered as 32 lowercase hex digits on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProgramFingerprint(pub u128);

impl ProgramFingerprint {
    /// The canonical wire rendering: 32 lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the wire rendering back; `None` unless the input is
    /// exactly 32 hex digits.
    pub fn parse_hex(s: &str) -> Option<ProgramFingerprint> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(ProgramFingerprint)
    }
}

impl std::fmt::Display for ProgramFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl std::fmt::Debug for ProgramFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ProgramFingerprint({:032x})", self.0)
    }
}

/// An immutable compiled program: vocabulary, initial database and the
/// [`TgdSet`] with all per-TGD artifacts (frontier, sorted body vars,
/// pair-index join plans, head probes) precomputed.
///
/// Produced once by [`compile`] and shared as `Arc<CompiledProgram>`;
/// engines, deciders and the seed oracle consume it without
/// re-parsing. The struct is deliberately field-private: a compiled
/// program never changes after construction, which is what makes
/// content-addressed caching sound.
#[derive(Debug)]
pub struct CompiledProgram {
    vocab: Vocabulary,
    database: Instance,
    set: TgdSet,
    fingerprint: ProgramFingerprint,
    approx_bytes: usize,
}

impl CompiledProgram {
    /// The interned vocabulary the program was compiled against.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The initial database (may be empty for decide-only programs).
    pub fn database(&self) -> &Instance {
        &self.database
    }

    /// The rule set with all precomputed plans.
    pub fn tgd_set(&self) -> &TgdSet {
        &self.set
    }

    /// The order-preserving program fingerprint (see the module docs).
    pub fn fingerprint(&self) -> ProgramFingerprint {
        self.fingerprint
    }

    /// Approximate resident size in bytes, for cache byte-accounting.
    /// Counts the database's container footprint, the vocabulary's
    /// table bytes and a per-rule estimate for the plans; the
    /// point is a stable, monotone-in-program-size figure for LRU
    /// caps, not allocator-exact truth.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }
}

/// Compiles program source (facts + TGDs) into a shared
/// [`CompiledProgram`]. This is *the* parse→vocab→`tgd_set` pipeline;
/// callers that need only pieces of it still go through here so every
/// error surfaces the same way.
pub fn compile(source: &str) -> Result<Arc<CompiledProgram>, CoreError> {
    let mut vocab = Vocabulary::new();
    let Program { rules, database } = parse_program(source, &mut vocab)?;
    let set = TgdSet::new(rules, &vocab)?;
    let fingerprint = canonical_fingerprint(&set, &database, &vocab);
    let approx_bytes = approx_bytes(source, &set, &database, &vocab);
    Ok(Arc::new(CompiledProgram {
        vocab,
        database,
        set,
        fingerprint,
        approx_bytes,
    }))
}

/// The fingerprint's canonical text, hashed as it is written: bytes
/// collect in a buffer of whole 8-byte words that is flushed into both
/// hashers when full. Since every flush is a whole number of words, the
/// hashes equal one [`FxHasher::write`] of the entire text (its final
/// partial word included), and the text itself is never materialised.
struct FingerprintWriter {
    lo: FxHasher,
    hi: FxHasher,
    buf: [u8; 256],
    len: usize,
}

impl FingerprintWriter {
    fn new() -> Self {
        let mut lo = FxHasher::default();
        lo.write(b"chase-program-fp/lo");
        let mut hi = FxHasher::default();
        hi.write(b"chase-program-fp/hi");
        FingerprintWriter {
            lo,
            hi,
            buf: [0; 256],
            len: 0,
        }
    }

    #[inline]
    fn bytes(&mut self, bytes: &[u8]) {
        if let Some(dst) = self.buf.get_mut(self.len..self.len + bytes.len()) {
            dst.copy_from_slice(bytes);
            self.len += bytes.len();
        } else {
            for &b in bytes {
                self.byte(b);
            }
        }
    }

    #[inline]
    fn byte(&mut self, b: u8) {
        if self.len == self.buf.len() {
            self.flush();
        }
        self.buf[self.len] = b;
        self.len += 1;
    }

    #[inline(never)]
    fn flush(&mut self) {
        self.lo.write(&self.buf);
        self.hi.write(&self.buf);
        self.len = 0;
    }

    #[inline]
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Writes `n` in decimal.
    fn decimal(&mut self, mut n: usize) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.bytes(&digits[at..]);
    }

    fn finish(mut self) -> ProgramFingerprint {
        self.lo.write(&self.buf[..self.len]);
        self.hi.write(&self.buf[..self.len]);
        ProgramFingerprint(((self.hi.finish() as u128) << 64) | self.lo.finish() as u128)
    }
}

/// Renders one atom with canonical, rule-local positional variable
/// numbering (`v0`, `v1`, … in first-occurrence order).
fn render_atom(
    out: &mut FingerprintWriter,
    atom: AtomRef<'_>,
    vocab: &Vocabulary,
    numbering: &mut crate::ids::FxHashMap<crate::ids::VarId, usize>,
) {
    out.str(vocab.pred_name(atom.pred));
    out.byte(b'(');
    for (i, term) in atom.args.iter().enumerate() {
        if i > 0 {
            out.byte(b',');
        }
        match *term {
            Term::Var(v) => {
                let next = numbering.len();
                let n = *numbering.entry(v).or_insert(next);
                out.byte(b'v');
                out.decimal(n);
            }
            // Rules are constant-free and null-free by construction
            // ([`Tgd::new`] rejects both), but render defensively so a
            // future relaxation cannot silently alias distinct rules.
            Term::Const(c) => {
                out.byte(b'"');
                out.str(vocab.const_name(c));
                out.byte(b'"');
            }
            Term::Null(n) => {
                out.str("_:");
                out.decimal(n.index());
            }
        }
    }
    out.byte(b')');
}

/// Renders one rule canonically: body atoms, `->`, head atoms, with
/// variables renumbered positionally (body first).
fn render_rule(out: &mut FingerprintWriter, tgd: &Tgd, vocab: &Vocabulary) {
    let mut numbering = fx_map();
    for (i, atom) in tgd.body().iter().enumerate() {
        if i > 0 {
            out.byte(b',');
        }
        render_atom(out, atom.into(), vocab, &mut numbering);
    }
    out.str("->");
    for (i, atom) in tgd.head().iter().enumerate() {
        if i > 0 {
            out.byte(b',');
        }
        render_atom(out, atom.into(), vocab, &mut numbering);
    }
}

/// Computes the order-preserving fingerprint of a parsed program: the
/// predicate table in id order, the canonical rule renderings in rule
/// order, then the facts in insertion order, hashed twice with
/// domain-separated seeds into 128 bits.
pub fn canonical_fingerprint(
    set: &TgdSet,
    database: &Instance,
    vocab: &Vocabulary,
) -> ProgramFingerprint {
    let mut out = FingerprintWriter::new();
    for (_, info) in vocab.preds() {
        out.str(&info.name);
        out.byte(b',');
    }
    out.str("\n=rules=\n");
    for tgd in set.tgds() {
        render_rule(&mut out, tgd, vocab);
        out.byte(b'\n');
    }
    out.str("=facts=\n");
    let mut no_vars = fx_map();
    for atom in database.iter() {
        render_atom(&mut out, atom, vocab, &mut no_vars);
        out.byte(b'\n');
    }
    out.finish()
}

/// The byte estimate backing [`CompiledProgram::approx_bytes`].
fn approx_bytes(source: &str, set: &TgdSet, database: &Instance, vocab: &Vocabulary) -> usize {
    let atoms: usize = set
        .tgds()
        .iter()
        .map(|t| t.body().len() + t.head().len())
        .sum();
    database.memory_footprint().total() as usize
        + source.len()
        + set.len() * 512 // per-rule plans: frontier, sorted vars, pair plans, probes
        + atoms * 64 // per-atom storage inside the rule vectors
        + vocab.heap_bytes()
        + std::mem::size_of::<CompiledProgram>()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The whole point of `Arc<CompiledProgram>` is cross-thread
    // sharing from the server's program cache.
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn compiled_programs_are_send_and_sync() {
        assert_send_sync::<CompiledProgram>();
    }

    const PROGRAM: &str = "R(a,b).\nR(x,y) -> S(x).\nS(x) -> exists z. R(x,z).\n";

    #[test]
    fn compile_produces_a_usable_bundle() {
        let p = compile(PROGRAM).unwrap();
        assert_eq!(p.tgd_set().len(), 2);
        assert_eq!(p.database().len(), 1);
        assert!(p.vocab().lookup_pred("R").is_some());
        assert!(p.approx_bytes() > 0);
    }

    #[test]
    fn approx_bytes_count_the_database_and_vocabulary_tables() {
        let facts: String = (0..500).map(|i| format!("R(a{i},b{i}).\n")).collect();
        let p = compile(&facts).unwrap();
        let tables = p.database().memory_footprint().total() as usize + p.vocab().heap_bytes();
        assert!(p.approx_bytes() >= tables + facts.len());
        // 1000 constants: their text and at least 16 table bytes each.
        assert!(p.vocab().heap_bytes() >= 1000 * (4 + 16));
    }

    #[test]
    fn parse_errors_surface_as_core_errors() {
        assert!(matches!(
            compile("this is not a program"),
            Err(CoreError::Parse { .. })
        ));
    }

    #[test]
    fn fingerprint_separates_rule_and_fact_orders() {
        // Rule order and fact order decide the restricted chase result,
        // so a reorder must change the program id.
        let a = compile("R(a,b).\nR(x,y) -> S(x).\nS(x) -> exists z. R(x,z).\n").unwrap();
        let rules_swapped =
            compile("R(a,b).\nS(x) -> exists z. R(x,z).\nR(x,y) -> S(x).\n").unwrap();
        assert_ne!(a.fingerprint(), rules_swapped.fingerprint());
        let f = compile("R(a,b).\nR(b,c).\nR(x,y) -> S(x).\n").unwrap();
        let facts_swapped = compile("R(b,c).\nR(a,b).\nR(x,y) -> S(x).\n").unwrap();
        assert_ne!(f.fingerprint(), facts_swapped.fingerprint());
    }

    #[test]
    fn fingerprint_is_stable_under_whitespace_and_variable_names() {
        let a = compile("R(a,b).\nR(x,y) -> S(x).\n").unwrap();
        let b = compile("  R( a , b ).\n\n\nR(u, w)   ->   S(u).").unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn semantically_different_programs_hash_apart() {
        let base = compile("R(a,b).\nR(x,y) -> S(x).\n").unwrap();
        let different_rule = compile("R(a,b).\nR(x,y) -> S(y).\n").unwrap();
        let different_fact = compile("R(b,a).\nR(x,y) -> S(x).\n").unwrap();
        let extra_rule = compile("R(a,b).\nR(x,y) -> S(x).\nS(x) -> T(x).\n").unwrap();
        assert_ne!(base.fingerprint(), different_rule.fingerprint());
        assert_ne!(base.fingerprint(), different_fact.fingerprint());
        assert_ne!(base.fingerprint(), extra_rule.fingerprint());
    }

    #[test]
    fn fingerprint_hex_round_trips() {
        let fp = compile(PROGRAM).unwrap().fingerprint();
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(ProgramFingerprint::parse_hex(&hex), Some(fp));
        assert_eq!(ProgramFingerprint::parse_hex("xyz"), None);
        assert_eq!(ProgramFingerprint::parse_hex(&hex[..31]), None);
    }
}

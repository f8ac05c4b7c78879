//! Instances and databases: duplicate-free, insertion-ordered sets of
//! ground atoms with inverted indexes for homomorphism search.
//!
//! ## Columnar storage
//!
//! Atom storage is **columnar** (struct-of-arrays): instead of a
//! `Vec<Atom>` of rows, an instance keeps one column of predicate ids,
//! one packed `meta` word per atom (arity + argument offset), and two
//! argument arenas — `inline_args` for atoms of arity ≤
//! [`ARG_INLINE`] and `spill` for wider ones. An atom's *slot* (its
//! insertion index) is its row in every column. Rows are
//! variable-stride (no padding): an atom's arguments are the `arity`
//! terms starting at its offset in whichever arena its arity selects.
//! Discovery's chunked scans and the matcher's probe loops then stream
//! contiguous `Term` columns instead of striding over 56-byte `Atom`
//! rows, and reading an atom ([`Instance::atom`]) hands out a borrowed
//! [`AtomRef`] — two array reads, no clone.
//!
//! ## Index layout
//!
//! Three index families back the matcher, all storing ascending slot
//! lists in a `SlotList` (inline up to three slots, spilling to a
//! `Vec` beyond — most `(pred, position, term)` cells hold one or two
//! slots, so the common case clones by `memcpy` and never touches the
//! heap):
//!
//! * a **per-predicate** list (dense `Vec` indexed by predicate id —
//!   predicates are few and the list is probed hot);
//! * a **single-position** inverted index `(pred, position, term) →
//!   slots` — the PR-2 workhorse;
//! * **composite two-position** indexes `(pred, posA, posB, termA,
//!   termB) → slots`, built lazily: nothing is maintained until an
//!   engine registers a `(pred, posA, posB)` pair via
//!   [`Instance::register_pair_index`] (derived from its TGD join
//!   plans), after which the pair cell is backfilled from the existing
//!   atoms and kept current by [`Instance::insert`].
//!
//! Because every index lists slots in ascending insertion order, a
//! tighter index is always an order-preserving subset of a looser one:
//! swapping in a composite list never changes the sequence of matches,
//! only the number of candidates filtered out by unification. This is
//! what keeps the optimised engines bit-identical to the seed oracle.

use std::hash::{Hash, Hasher};

use crate::atom::{Atom, AtomRef, ARG_INLINE};
use crate::ids::{fx_set, FxHashMap, FxHasher, PredId};
use crate::term::Term;
use crate::vocab::{Vocabulary, MAX_ARITY};

/// Number of slots a [`SlotList`] stores inline before spilling.
const SLOT_INLINE: usize = 3;

/// An ascending list of atom slots, inline up to [`SLOT_INLINE`]
/// entries. Cloning an inline list is a `memcpy`; only spilled lists
/// (cells with four or more atoms) allocate. `Instance::clone` sits on
/// the hot path of every engine run (the working instance is a clone
/// of the caller's database), and most index cells are tiny, so this
/// removes the dominant share of per-run allocations.
#[derive(Debug, Clone)]
enum SlotList {
    Inline { len: u8, buf: [usize; SLOT_INLINE] },
    Spill(Vec<usize>),
}

impl Default for SlotList {
    fn default() -> Self {
        SlotList::Inline {
            len: 0,
            buf: [0; SLOT_INLINE],
        }
    }
}

/// The heap bytes of one index family's spilled [`SlotList`]s, kept
/// current at the push sites so [`Instance::memory_footprint`] need
/// not walk the cells.
#[derive(Debug, Clone, Copy, Default)]
struct SpillBytes {
    /// The spill vectors' reserved capacities: what the footprint
    /// reports.
    reserved: usize,
    /// The spill vectors' lengths. A cloned instance's capacities equal
    /// these, since `Vec::clone` reserves exactly the length.
    used: usize,
}

impl SpillBytes {
    /// The counts of a clone of the lists these counts describe.
    fn cloned(self) -> SpillBytes {
        SpillBytes {
            reserved: self.used,
            used: self.used,
        }
    }
}

impl SlotList {
    /// Appends `slot`, adding any heap growth to `spill`.
    #[inline]
    fn push(&mut self, slot: usize, spill: &mut SpillBytes) {
        const WORD: usize = std::mem::size_of::<usize>();
        match self {
            SlotList::Inline { len, buf } => {
                if (*len as usize) < SLOT_INLINE {
                    buf[*len as usize] = slot;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(SLOT_INLINE * 2);
                    v.extend_from_slice(buf);
                    v.push(slot);
                    spill.reserved += v.capacity() * WORD;
                    spill.used += v.len() * WORD;
                    *self = SlotList::Spill(v);
                }
            }
            SlotList::Spill(v) => {
                let before = v.capacity();
                v.push(slot);
                spill.reserved += (v.capacity() - before) * WORD;
                spill.used += WORD;
            }
        }
    }

    #[inline]
    fn as_slice(&self) -> &[usize] {
        match self {
            SlotList::Inline { len, buf } => &buf[..*len as usize],
            SlotList::Spill(v) => v,
        }
    }

    /// Heap bytes owned by this list: 0 while inline, the spill
    /// vector's reserved capacity otherwise.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        match self {
            SlotList::Inline { .. } => 0,
            SlotList::Spill(v) => v.capacity() * std::mem::size_of::<usize>(),
        }
    }
}

/// Estimated heap footprint of an [`Instance`]'s containers, broken
/// down the way the profiler reports it (see
/// [`Instance::memory_footprint`]). All figures are bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryFootprint {
    /// Atom storage: the predicate, meta and inline-argument columns.
    pub atom_bytes: u64,
    /// The spill arena holding the arguments of wide atoms.
    pub arg_spill_bytes: u64,
    /// The dedup hash map, including spilled slot lists.
    pub dedup_bytes: u64,
    /// The per-predicate, single-position and composite pair indexes,
    /// including spilled slot lists.
    pub index_bytes: u64,
}

impl MemoryFootprint {
    /// Total bytes across all accounted containers.
    pub fn total(&self) -> u64 {
        self.atom_bytes + self.arg_spill_bytes + self.dedup_bytes + self.index_bytes
    }
}

/// Capacity-based heap model of a hash map: one entry plus one
/// control byte per reserved slot (the std swiss-table layout).
fn map_heap_bytes<K, V>(map: &FxHashMap<K, V>) -> usize {
    map.capacity() * (std::mem::size_of::<(K, V)>() + 1)
}

/// Arity mask of a packed `meta` word: the low 16 bits hold the
/// arity, the remaining high bits the column offset.
const META_ARITY_BITS: u32 = 16;
const META_ARITY_MASK: u64 = (1 << META_ARITY_BITS) - 1;
const _: () = assert!(MAX_ARITY as u64 == META_ARITY_MASK);

/// A (finite) instance: a duplicate-free set of ground atoms over
/// constants and nulls, remembering insertion order.
///
/// Insertion order matters because chase derivations are sequences;
/// the engines identify atoms by their *slot* (insertion index), which
/// is also the atom's row in the storage columns (see the module docs).
#[derive(Debug, Default)]
pub struct Instance {
    /// Predicate ids, one per slot. Its length is the instance size.
    preds: Vec<PredId>,
    /// Packed per-slot metadata: arity in the low 16 bits, offset into
    /// `inline_args` (arity ≤ [`ARG_INLINE`]) or `spill` (wider) in
    /// the high bits.
    meta: Vec<u64>,
    /// Argument arena for atoms of arity ≤ [`ARG_INLINE`].
    inline_args: Vec<Term>,
    /// Argument arena for atoms of arity > [`ARG_INLINE`].
    spill: Vec<Term>,
    /// Dedup index: atom hash → candidate slots. Storing slots instead
    /// of owned `Atom` keys means `Instance::clone` — the first thing
    /// every engine run does to the caller's database — never re-clones
    /// an atom's argument vector for the map; equality is resolved
    /// against the stored atom on (rare) colliding lookups.
    dedup: FxHashMap<u64, SlotList>,
    /// Dense per-predicate slot lists, indexed by `PredId::index()`.
    by_pred: Vec<SlotList>,
    by_pos: FxHashMap<(PredId, u16, Term), SlotList>,
    by_pair: FxHashMap<(PredId, u16, u16, Term, Term), SlotList>,
    /// Registered composite position pairs per predicate (dense by
    /// predicate id; `(a, b)` normalised to `a < b`). Empty until an
    /// engine registers pairs from its join plans.
    pair_plans: Vec<Vec<(u16, u16)>>,
    /// Heap bytes of the spilled slot lists in `dedup`.
    dedup_spill: SpillBytes,
    /// Heap bytes of the spilled slot lists in `by_pred`, `by_pos` and
    /// `by_pair`.
    index_spill: SpillBytes,
}

impl Clone for Instance {
    fn clone(&self) -> Self {
        Instance {
            preds: self.preds.clone(),
            meta: self.meta.clone(),
            inline_args: self.inline_args.clone(),
            spill: self.spill.clone(),
            dedup: self.dedup.clone(),
            by_pred: self.by_pred.clone(),
            by_pos: self.by_pos.clone(),
            by_pair: self.by_pair.clone(),
            pair_plans: self.pair_plans.clone(),
            dedup_spill: self.dedup_spill.cloned(),
            index_spill: self.index_spill.cloned(),
        }
    }
}

impl Instance {
    /// Creates an empty, fully indexed instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an instance from ground atoms, ignoring duplicates.
    ///
    /// Atoms containing variables are rejected by debug assertion;
    /// library callers construct instances from parser output or
    /// engine output, both of which are ground by construction.
    pub fn from_atoms(atoms: impl IntoIterator<Item = Atom>) -> Self {
        let mut inst = Instance::new();
        for atom in atoms {
            inst.insert(atom);
        }
        inst
    }

    /// Estimated heap footprint of the instance's containers, for the
    /// profiler's memory samples and the program cache's weights:
    /// exact reserved capacities for the vectors, a capacity-based
    /// model for the hash maps (the `Instance` struct itself is
    /// excluded). O(1): the spilled slot lists' bytes are counted as
    /// they grow.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        use std::mem::size_of;
        let atom_bytes = self.preds.capacity() * size_of::<PredId>()
            + self.meta.capacity() * size_of::<u64>()
            + self.inline_args.capacity() * size_of::<Term>();
        let arg_spill_bytes = self.spill.capacity() * size_of::<Term>();
        let dedup_bytes = map_heap_bytes(&self.dedup) + self.dedup_spill.reserved;
        let index_bytes = self.by_pred.capacity() * size_of::<SlotList>()
            + map_heap_bytes(&self.by_pos)
            + map_heap_bytes(&self.by_pair)
            + self.index_spill.reserved;
        MemoryFootprint {
            atom_bytes: atom_bytes as u64,
            arg_spill_bytes: arg_spill_bytes as u64,
            dedup_bytes: dedup_bytes as u64,
            index_bytes: index_bytes as u64,
        }
    }

    /// [`Instance::memory_footprint`] by walking every index cell, the
    /// reference the running counts must equal.
    #[cfg(test)]
    fn memory_footprint_walked(&self) -> MemoryFootprint {
        use std::mem::size_of;
        let atom_bytes = self.preds.capacity() * size_of::<PredId>()
            + self.meta.capacity() * size_of::<u64>()
            + self.inline_args.capacity() * size_of::<Term>();
        let arg_spill_bytes = self.spill.capacity() * size_of::<Term>();
        let dedup_bytes = map_heap_bytes(&self.dedup)
            + self.dedup.values().map(SlotList::heap_bytes).sum::<usize>();
        let index_bytes = self.by_pred.capacity() * size_of::<SlotList>()
            + self.by_pred.iter().map(SlotList::heap_bytes).sum::<usize>()
            + map_heap_bytes(&self.by_pos)
            + self
                .by_pos
                .values()
                .map(SlotList::heap_bytes)
                .sum::<usize>()
            + map_heap_bytes(&self.by_pair)
            + self
                .by_pair
                .values()
                .map(SlotList::heap_bytes)
                .sum::<usize>();
        MemoryFootprint {
            atom_bytes: atom_bytes as u64,
            arg_spill_bytes: arg_spill_bytes as u64,
            dedup_bytes: dedup_bytes as u64,
            index_bytes: index_bytes as u64,
        }
    }

    /// Inserts an atom; returns its slot and whether it was new.
    ///
    /// Duplicate inserts are no-ops returning the *existing* slot as
    /// `(slot, false)`, so callers never need a follow-up lookup to
    /// identify the atom they just presented. In particular a
    /// duplicate insert leaves every index — including registered
    /// composite pair cells — untouched.
    ///
    /// # Panics
    ///
    /// If the atom's arity exceeds [`MAX_ARITY`]; predicates interned
    /// through [`Vocabulary::pred`] never do.
    pub fn insert(&mut self, atom: Atom) -> (usize, bool) {
        debug_assert!(atom.is_ground(), "instances hold ground atoms only");
        assert!(atom.arity() <= MAX_ARITY, "atom arity exceeds MAX_ARITY");
        let key = Self::atom_key(&atom);
        if let Some(bucket) = self.dedup.get(&key) {
            for &s in bucket.as_slice() {
                if self.atom(s) == atom {
                    return (s, false);
                }
            }
        }
        let slot = self.len();
        let pred_idx = atom.pred.index();
        if pred_idx >= self.by_pred.len() {
            self.by_pred.resize_with(pred_idx + 1, SlotList::default);
        }
        self.by_pred[pred_idx].push(slot, &mut self.index_spill);
        for (i, &t) in atom.args.iter().enumerate() {
            self.by_pos
                .entry((atom.pred, i as u16, t))
                .or_default()
                .push(slot, &mut self.index_spill);
        }
        if let Some(plan) = self.pair_plans.get(pred_idx) {
            for &(a, b) in plan {
                let cell = (
                    atom.pred,
                    a,
                    b,
                    atom.args[a as usize],
                    atom.args[b as usize],
                );
                self.by_pair
                    .entry(cell)
                    .or_default()
                    .push(slot, &mut self.index_spill);
            }
        }
        self.dedup
            .entry(key)
            .or_default()
            .push(slot, &mut self.dedup_spill);
        self.preds.push(atom.pred);
        let arena = if atom.arity() <= ARG_INLINE {
            &mut self.inline_args
        } else {
            &mut self.spill
        };
        self.meta
            .push(((arena.len() as u64) << META_ARITY_BITS) | atom.arity() as u64);
        arena.extend_from_slice(&atom.args);
        (slot, true)
    }

    /// The dedup-map key of an atom: its FxHash over predicate and
    /// arguments. Collisions are handled by the bucket's slot list, so
    /// the key only has to be stable within one process.
    #[inline]
    fn atom_key(atom: &Atom) -> u64 {
        let mut h = FxHasher::default();
        atom.pred.hash(&mut h);
        for t in &atom.args {
            t.hash(&mut h);
        }
        h.finish()
    }

    /// Registers a composite two-position index on `pred` over
    /// argument positions `a` and `b` (order-insensitive; normalised
    /// internally). The index is built from the atoms already present
    /// and maintained by subsequent inserts; registering the same pair
    /// again is a no-op.
    ///
    /// Engines call this once per pair of their precomputed TGD join
    /// plans before a run, so the cost of the backfill scan is paid
    /// once and only for pairs the matcher will actually probe.
    pub fn register_pair_index(&mut self, pred: PredId, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (a, b) = if a < b {
            (a as u16, b as u16)
        } else {
            (b as u16, a as u16)
        };
        let pred_idx = pred.index();
        if pred_idx >= self.pair_plans.len() {
            self.pair_plans.resize_with(pred_idx + 1, Vec::new);
        }
        if self.pair_plans[pred_idx].contains(&(a, b)) {
            return;
        }
        self.pair_plans[pred_idx].push((a, b));
        // Backfill from the atoms already present. The slot list is
        // copied out so atom reads (immutable borrows of the columns)
        // and cell pushes (mutable borrows) do not overlap; this is
        // cold code, paid once per registered pair.
        let slots: Vec<usize> = self
            .by_pred
            .get(pred_idx)
            .map(SlotList::as_slice)
            .unwrap_or(&[])
            .to_vec();
        for slot in slots {
            let cell = {
                let atom = self.atom(slot);
                debug_assert!((b as usize) < atom.arity(), "pair position out of arity");
                (pred, a, b, atom.args[a as usize], atom.args[b as usize])
            };
            self.by_pair
                .entry(cell)
                .or_default()
                .push(slot, &mut self.index_spill);
        }
    }

    /// Whether the composite pair `(pred, a, b)` has been registered
    /// (order-insensitive).
    pub fn pair_index_registered(&self, pred: PredId, a: usize, b: usize) -> bool {
        let (a, b) = if a < b {
            (a as u16, b as u16)
        } else {
            (b as u16, a as u16)
        };
        self.pair_plans
            .get(pred.index())
            .is_some_and(|plan| plan.contains(&(a, b)))
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, atom: &Atom) -> bool {
        self.slot_of(atom).is_some()
    }

    /// Finds the slot of an atom, if present (one hash lookup).
    #[inline]
    pub fn slot_of(&self, atom: &Atom) -> Option<usize> {
        let bucket = self.dedup.get(&Self::atom_key(atom))?;
        bucket
            .as_slice()
            .iter()
            .copied()
            .find(|&s| self.atom(s) == *atom)
    }

    /// Number of atoms.
    #[inline]
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the instance is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The atom stored at `slot`, as a borrowed view into the columns.
    #[inline]
    pub fn atom(&self, slot: usize) -> AtomRef<'_> {
        let m = self.meta[slot];
        let arity = (m & META_ARITY_MASK) as usize;
        let off = (m >> META_ARITY_BITS) as usize;
        let arena = if arity <= ARG_INLINE {
            &self.inline_args
        } else {
            &self.spill
        };
        AtomRef {
            pred: self.preds[slot],
            args: &arena[off..off + arity],
        }
    }

    /// Iterates over atoms in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = AtomRef<'_>> {
        (0..self.len()).map(|slot| self.atom(slot))
    }

    /// Slots of all atoms with the given predicate, ascending.
    pub fn slots_with_pred(&self, pred: PredId) -> &[usize] {
        self.by_pred
            .get(pred.index())
            .map(SlotList::as_slice)
            .unwrap_or(&[])
    }

    /// Slots of all atoms with `pred` whose argument at `position`
    /// equals `term`, ascending.
    pub fn slots_with_pred_pos(&self, pred: PredId, position: usize, term: Term) -> &[usize] {
        self.by_pos
            .get(&(pred, position as u16, term))
            .map(SlotList::as_slice)
            .unwrap_or(&[])
    }

    /// Slots of all atoms with `pred` whose arguments at positions
    /// `pos_a`/`pos_b` equal `term_a`/`term_b` respectively, ascending.
    /// Returns `None` unless the pair `(pred, pos_a, pos_b)` has been
    /// registered via [`Instance::register_pair_index`] — callers then
    /// fall back to the single-position index. The positions may be
    /// given in either order.
    pub fn slots_with_pred_pair(
        &self,
        pred: PredId,
        pos_a: usize,
        term_a: Term,
        pos_b: usize,
        term_b: Term,
    ) -> Option<&[usize]> {
        let (a, ta, b, tb) = if pos_a < pos_b {
            (pos_a as u16, term_a, pos_b as u16, term_b)
        } else {
            (pos_b as u16, term_b, pos_a as u16, term_a)
        };
        if !self
            .pair_plans
            .get(pred.index())
            .is_some_and(|plan| plan.contains(&(a, b)))
        {
            return None;
        }
        Some(
            self.by_pair
                .get(&(pred, a, b, ta, tb))
                .map(SlotList::as_slice)
                .unwrap_or(&[]),
        )
    }

    /// The active domain `dom(I)`: all terms occurring in the
    /// instance, deduplicated, in first-occurrence order.
    pub fn active_domain(&self) -> Vec<Term> {
        let mut seen = fx_set();
        let mut out = Vec::new();
        for atom in self.iter() {
            for &t in atom.args {
                if seen.insert(t) {
                    out.push(t);
                }
            }
        }
        out
    }

    /// Returns `true` if every atom is a fact (constants only), i.e.
    /// the instance is a *database*.
    pub fn is_database(&self) -> bool {
        self.iter().all(|a| a.is_fact())
    }

    /// Renders the instance for diagnostics, atoms sorted textually.
    ///
    /// Every atom is rendered into one buffer; sorting the atoms' byte
    /// spans there orders them exactly as sorting their own strings
    /// would, and the result is joined once.
    pub fn display(&self, vocab: &Vocabulary) -> String {
        let mut text = String::new();
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(self.len());
        for atom in self.iter() {
            let start = text.len();
            atom.write_to(vocab, &mut text);
            spans.push((start, text.len()));
        }
        // Byte order is `str` order.
        let bytes = text.as_bytes();
        spans.sort_unstable_by(|&(a, b), &(c, d)| bytes[a..b].cmp(&bytes[c..d]));
        let mut out = String::with_capacity(text.len() + 2 * spans.len() + 2);
        out.push('{');
        for (i, &(start, end)) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&text[start..end]);
        }
        out.push('}');
        out
    }
}

impl FromIterator<Atom> for Instance {
    fn from_iter<T: IntoIterator<Item = Atom>>(iter: T) -> Self {
        Instance::from_atoms(iter)
    }
}

impl PartialEq for Instance {
    /// Set equality (insertion order and registered pair indexes are
    /// irrelevant).
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|a| other.contains(&a.to_atom()))
    }
}
impl Eq for Instance {}

/// A database is an instance whose atoms are all facts. This is a
/// semantic alias: code that requires a database should check
/// [`Instance::is_database`] or construct via the parser, which
/// guarantees it.
pub type Database = Instance;

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

    /// `display` sorts atoms by their rendered text (so `_:n10` before
    /// `_:n2`, ASCII before `⟨cK⟩`) and joins them with `", "`: the
    /// served result fingerprint hashes this text.
    #[test]
    fn display_pins_sorted_text() {
        let mut vocab = Vocabulary::new();
        let r = vocab.pred("R", 2).unwrap();
        let s = vocab.pred("S", 1).unwrap();
        let a = Term::Const(vocab.constant("a"));
        let b = Term::Const(vocab.constant("b"));
        let n = |i| Term::Null(NullId(i));
        let inst = Instance::from_atoms([
            Atom::new(s, vec![c(7)]),
            Atom::new(r, vec![a, n(2)]),
            Atom::new(r, vec![c(12), n(3)]),
            Atom::new(r, vec![b, a]),
            Atom::new(r, vec![a, n(10)]),
        ]);
        assert_eq!(
            inst.display(&vocab),
            "{R(a,_:n10), R(a,_:n2), R(b,a), R(⟨c12⟩,_:n3), S(⟨c7⟩)}"
        );
        // Same text as sorting and joining each atom's own rendering.
        let mut parts: Vec<String> = inst.iter().map(|x| x.display(&vocab)).collect();
        parts.sort();
        assert_eq!(inst.display(&vocab), format!("{{{}}}", parts.join(", ")));
        assert_eq!(Instance::new().display(&vocab), "{}");
    }

    #[test]
    fn insert_dedups() {
        let mut inst = Instance::new();
        let a = atom(0, &[c(0), c(1)]);
        assert_eq!(inst.insert(a.clone()), (0, true));
        let b = atom(1, &[c(2)]);
        assert_eq!(inst.insert(b.clone()), (1, true));
        // Duplicate inserts return the real existing slot.
        assert_eq!(inst.insert(a.clone()), (0, false));
        assert_eq!(inst.insert(b.clone()), (1, false));
        assert_eq!(inst.len(), 2);
        assert!(inst.contains(&a));
        assert_eq!(inst.slot_of(&a), Some(0));
        assert_eq!(inst.slot_of(&b), Some(1));
        assert_eq!(inst.slot_of(&atom(0, &[c(5), c(5)])), None);
    }

    #[test]
    fn pred_and_position_indexes() {
        let mut inst = Instance::new();
        inst.insert(atom(0, &[c(0), c(1)]));
        inst.insert(atom(0, &[c(0), c(2)]));
        inst.insert(atom(1, &[c(0)]));
        assert_eq!(inst.slots_with_pred(PredId(0)), &[0, 1]);
        assert_eq!(inst.slots_with_pred(PredId(1)), &[2]);
        assert_eq!(inst.slots_with_pred_pos(PredId(0), 0, c(0)), &[0, 1]);
        assert_eq!(inst.slots_with_pred_pos(PredId(0), 1, c(2)), &[1]);
        assert!(inst.slots_with_pred_pos(PredId(0), 1, c(9)).is_empty());
    }

    #[test]
    fn slot_lists_spill_beyond_inline_capacity() {
        // SLOT_INLINE + 2 atoms of one predicate force the spill
        // representation; the list stays ascending and complete.
        let mut inst = Instance::new();
        for i in 0..(SLOT_INLINE + 2) as u32 {
            inst.insert(atom(0, &[c(i), c(0)]));
        }
        let expect: Vec<usize> = (0..SLOT_INLINE + 2).collect();
        assert_eq!(inst.slots_with_pred(PredId(0)), expect.as_slice());
        assert_eq!(
            inst.slots_with_pred_pos(PredId(0), 1, c(0)),
            expect.as_slice()
        );
    }

    #[test]
    fn pair_index_lazily_built_from_existing_atoms() {
        let mut inst = Instance::new();
        inst.insert(atom(0, &[c(0), c(1), c(2)]));
        inst.insert(atom(0, &[c(0), c(1), c(3)]));
        inst.insert(atom(0, &[c(0), c(2), c(2)]));
        // Unregistered pair: unavailable, callers fall back.
        assert!(inst
            .slots_with_pred_pair(PredId(0), 0, c(0), 1, c(1))
            .is_none());
        assert!(!inst.pair_index_registered(PredId(0), 0, 1));
        // Registration backfills from the atoms already present.
        inst.register_pair_index(PredId(0), 0, 1);
        assert!(inst.pair_index_registered(PredId(0), 0, 1));
        assert!(
            inst.pair_index_registered(PredId(0), 1, 0),
            "order-insensitive"
        );
        assert_eq!(
            inst.slots_with_pred_pair(PredId(0), 0, c(0), 1, c(1))
                .unwrap(),
            &[0, 1]
        );
        // ...and in swapped position order.
        assert_eq!(
            inst.slots_with_pred_pair(PredId(0), 1, c(1), 0, c(0))
                .unwrap(),
            &[0, 1]
        );
        assert_eq!(
            inst.slots_with_pred_pair(PredId(0), 0, c(0), 1, c(2))
                .unwrap(),
            &[2]
        );
        assert!(inst
            .slots_with_pred_pair(PredId(0), 0, c(9), 1, c(1))
            .unwrap()
            .is_empty());
        // Other pairs on the same predicate stay unregistered.
        assert!(inst
            .slots_with_pred_pair(PredId(0), 0, c(0), 2, c(2))
            .is_none());
    }

    #[test]
    fn pair_index_maintained_by_insert() {
        let mut inst = Instance::new();
        inst.register_pair_index(PredId(0), 0, 1);
        inst.insert(atom(0, &[c(0), c(1)]));
        inst.insert(atom(0, &[c(0), c(2)]));
        inst.insert(atom(0, &[c(0), c(1)])); // duplicate: no index growth
        assert_eq!(
            inst.slots_with_pred_pair(PredId(0), 0, c(0), 1, c(1))
                .unwrap(),
            &[0]
        );
        assert_eq!(
            inst.slots_with_pred_pair(PredId(0), 0, c(0), 1, c(2))
                .unwrap(),
            &[1]
        );
        // Registering again is a no-op (no duplicate slots).
        inst.register_pair_index(PredId(0), 1, 0);
        assert_eq!(
            inst.slots_with_pred_pair(PredId(0), 0, c(0), 1, c(1))
                .unwrap(),
            &[0]
        );
    }

    #[test]
    fn pair_index_respects_dedup_and_slot_of() {
        // The pair cells must agree with `slot_of` even when inserts
        // interleave duplicates with registration.
        let mut inst = Instance::new();
        let a = atom(0, &[c(0), c(1)]);
        let b = atom(0, &[c(0), c(2)]);
        inst.insert(a.clone());
        inst.register_pair_index(PredId(0), 0, 1);
        inst.insert(b.clone());
        inst.insert(a.clone());
        inst.insert(b.clone());
        let sa = inst.slot_of(&a).unwrap();
        let sb = inst.slot_of(&b).unwrap();
        assert_eq!(
            inst.slots_with_pred_pair(PredId(0), 0, c(0), 1, c(1))
                .unwrap(),
            &[sa]
        );
        assert_eq!(
            inst.slots_with_pred_pair(PredId(0), 0, c(0), 1, c(2))
                .unwrap(),
            &[sb]
        );
    }

    #[test]
    fn pair_index_survives_clone() {
        let mut inst = Instance::new();
        inst.register_pair_index(PredId(0), 0, 1);
        inst.insert(atom(0, &[c(0), c(1)]));
        let mut copy = inst.clone();
        copy.insert(atom(0, &[c(0), c(2)]));
        assert_eq!(
            copy.slots_with_pred_pair(PredId(0), 0, c(0), 1, c(2))
                .unwrap(),
            &[1]
        );
        // The original is unaffected.
        assert!(inst
            .slots_with_pred_pair(PredId(0), 0, c(0), 1, c(2))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn active_domain_first_occurrence_order() {
        let mut inst = Instance::new();
        inst.insert(atom(0, &[c(1), c(0)]));
        inst.insert(atom(0, &[c(0), c(2)]));
        assert_eq!(inst.active_domain(), vec![c(1), c(0), c(2)]);
    }

    #[test]
    fn database_check() {
        let mut inst = Instance::new();
        inst.insert(atom(0, &[c(0)]));
        assert!(inst.is_database());
        inst.insert(atom(0, &[Term::Null(NullId(0))]));
        assert!(!inst.is_database());
    }

    #[test]
    fn set_equality_ignores_order() {
        let a = Instance::from_atoms([atom(0, &[c(0)]), atom(0, &[c(1)])]);
        let b = Instance::from_atoms([atom(0, &[c(1)]), atom(0, &[c(0)])]);
        assert_eq!(a, b);
    }

    #[test]
    fn memory_footprint_is_zero_when_empty_and_grows_with_content() {
        let empty = Instance::new();
        assert_eq!(empty.memory_footprint().total(), 0);

        let mut inst = Instance::new();
        inst.register_pair_index(PredId(0), 0, 1);
        for i in 0..100 {
            inst.insert(atom(0, &[c(i), c(i + 1)]));
        }
        let fp = inst.memory_footprint();
        // 100 atoms of arity 2: a predicate id, a meta word and two
        // inline column terms each (capacities only grow beyond that).
        let per_atom = std::mem::size_of::<PredId>()
            + std::mem::size_of::<u64>()
            + 2 * std::mem::size_of::<Term>();
        assert!(fp.atom_bytes >= (100 * per_atom) as u64, "{fp:?}");
        // Arity 2 stays in the inline column, not the spill arena.
        assert_eq!(fp.arg_spill_bytes, 0);
        assert!(fp.dedup_bytes > 0, "{fp:?}");
        assert!(fp.index_bytes > 0, "{fp:?}");
        assert_eq!(
            fp.total(),
            fp.atom_bytes + fp.arg_spill_bytes + fp.dedup_bytes + fp.index_bytes
        );

        // Wide atoms spill their argument vectors.
        let mut wide = Instance::new();
        wide.insert(atom(1, &[c(0), c(1), c(2), c(3), c(4), c(5)]));
        assert!(wide.memory_footprint().arg_spill_bytes > 0);
    }

    proptest::proptest! {
        /// The running spill counts equal the cell walk after random
        /// inserts, with pair indexes registered before and after the
        /// atoms arrive, and on clones (whose spill vectors reserve
        /// only their length) and on clones grown further.
        #[test]
        fn memory_footprint_counts_match_the_cell_walk(
            atoms in proptest::collection::vec((0u32..3, 0u32..4, 0u32..4, 0u32..40), 0..400),
            early in proptest::collection::vec((0u32..3, 0usize..3, 0usize..3), 0..4),
            late in proptest::collection::vec((0u32..3, 0usize..3, 0usize..3), 0..4),
        ) {
            let make = |(p, a, b, k): (u32, u32, u32, u32)| {
                // Predicate 2 is wide, so its arguments spill too.
                let arity = if p == 2 { 6 } else { 3 };
                let args: Vec<Term> = (0..arity).map(|i| c([a, b, k][i % 3] + i as u32)).collect();
                atom(p, &args)
            };
            let mut inst = Instance::new();
            for &(p, a, b) in &early {
                inst.register_pair_index(PredId(p), a, b);
            }
            let (first, second) = atoms.split_at(atoms.len() / 2);
            for &t in first {
                inst.insert(make(t));
            }
            for &(p, a, b) in &late {
                inst.register_pair_index(PredId(p), a, b);
            }
            proptest::prop_assert_eq!(inst.memory_footprint(), inst.memory_footprint_walked());
            let mut copy = inst.clone();
            proptest::prop_assert_eq!(copy.memory_footprint(), copy.memory_footprint_walked());
            for &t in second {
                inst.insert(make(t));
                copy.insert(make(t));
            }
            proptest::prop_assert_eq!(inst.memory_footprint(), inst.memory_footprint_walked());
            proptest::prop_assert_eq!(copy.memory_footprint(), copy.memory_footprint_walked());
            let twice = copy.clone();
            proptest::prop_assert_eq!(twice.memory_footprint(), twice.memory_footprint_walked());
        }
    }

    #[test]
    fn widest_arity_round_trips() {
        let args: Vec<Term> = (0..MAX_ARITY as u32).map(c).collect();
        let mut inst = Instance::new();
        inst.insert(atom(0, &[c(1)]));
        let (slot, fresh) = inst.insert(atom(1, &args));
        assert!(fresh);
        assert_eq!(inst.atom(slot).args, args.as_slice());
        assert_eq!(inst.atom(0).args, &[c(1)]);
    }

    #[test]
    #[should_panic(expected = "MAX_ARITY")]
    fn insert_rejects_atoms_wider_than_max_arity() {
        let args: Vec<Term> = (0..=MAX_ARITY as u32).map(c).collect();
        Instance::new().insert(atom(0, &args));
    }
}

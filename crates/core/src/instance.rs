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
//! ## Dedup and index layout
//!
//! Outside the columns a slot is a `u32`: an instance holds at most
//! `u32::MAX - 1` atoms ([`Instance::insert`] panics past that).
//!
//! * **Dedup** is an `IdTable`, the open-addressing table the constant
//!   interner uses too: 8-byte buckets of `(tag, slot + 1)`, the tag
//!   being the top half of the atom's FxHash, at most half full. A
//!   probe compares tags and reads the atom columns only on a tag
//!   match, so a membership miss — the closure chase's usual ground
//!   head probe — reads nothing but buckets; a grow moves tags and
//!   never rehashes an atom.
//! * A **per-predicate** slot list (dense `Vec` indexed by predicate
//!   id — predicates are few and the list is probed hot).
//! * A **single-position** inverted index `(pred, position, term) →
//!   slots` — the matcher's workhorse.
//! * **Composite two-position** indexes `(pred, posA, posB, termA,
//!   termB) → slots`, built lazily: nothing is maintained until an
//!   engine registers a `(pred, posA, posB)` pair via
//!   [`Instance::register_pair_index`] (derived from its TGD join
//!   plans), after which the pair cells are backfilled from the
//!   existing atoms and kept current by [`Instance::insert`].
//!
//! Most position and pair cells list one slot, so a cell is 8 bytes:
//! the slot itself, or — from the second slot on — the index of a
//! shared `SlotList` (24 bytes: up to three `u32` slots inline, then a
//! `Vec<u32>`). The per-predicate lists are `SlotList`s too.
//!
//! On the compiled `chase_bench::ingest_program(4000)` database (11,999
//! facts of arity 2 and 3) this is 111 bytes per atom: 38 of columns,
//! 22 of dedup buckets and 51 of indexes (it was 171: 38, 49 and 84
//! with `usize` slots, a `u64 → SlotList` dedup map and 32-byte
//! `SlotList` cell values). `tests/instance_bytes.rs` bounds it at 115.
//!
//! Because every index lists slots in ascending insertion order, a
//! tighter index is always an order-preserving subset of a looser one:
//! swapping in a composite list never changes the sequence of matches,
//! only the number of candidates filtered out by unification. This is
//! what keeps the optimised engines bit-identical to the seed oracle.

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

use crate::atom::{Atom, AtomRef, ARG_INLINE};
use crate::ids::{fx_set, FxHashMap, FxHasher, PredId};
use crate::table::IdTable;
use crate::term::Term;
use crate::vocab::{Vocabulary, MAX_ARITY};

/// Number of slots a [`SlotList`] stores inline before spilling.
const SLOT_INLINE: usize = 3;

/// An ascending list of atom slots, inline up to [`SLOT_INLINE`]
/// entries. Cloning an inline list is a `memcpy`; only spilled lists
/// (four or more slots) allocate.
#[derive(Debug, Clone)]
enum SlotList {
    Inline { len: u8, buf: [u32; SLOT_INLINE] },
    Spill(Vec<u32>),
}

const _: () = assert!(std::mem::size_of::<SlotList>() <= 24);

impl Default for SlotList {
    fn default() -> Self {
        SlotList::Inline {
            len: 0,
            buf: [0; SLOT_INLINE],
        }
    }
}

/// The heap bytes of the index families' spilled [`SlotList`]s, kept
/// current at the push sites so [`Instance::memory_footprint`] need
/// not walk the lists.
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
    fn push(&mut self, slot: u32, spill: &mut SpillBytes) {
        const WORD: usize = std::mem::size_of::<u32>();
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
    fn as_slice(&self) -> &[u32] {
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
            SlotList::Spill(v) => v.capacity() * std::mem::size_of::<u32>(),
        }
    }
}

/// One cell of the position or pair index, 8 bytes. Most cells list a
/// single slot, which the cell holds itself; from its second slot on, a
/// cell names its [`SlotList`] in the instance's shared `lists`.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// The cell's one slot while `list` is 0.
    slot: u32,
    /// One plus the index of the cell's list in `lists`, or 0.
    list: u32,
}

impl Cell {
    /// The cell's slots, ascending.
    #[inline]
    fn slots<'a>(&'a self, lists: &'a [SlotList]) -> &'a [u32] {
        match self.list {
            0 => std::slice::from_ref(&self.slot),
            list => lists[list as usize - 1].as_slice(),
        }
    }
}

/// Appends `slot` to the cell at `key`, creating the cell or moving it
/// into a shared list as needed.
#[inline]
fn push_cell<K: Hash + Eq>(
    cells: &mut FxHashMap<K, Cell>,
    key: K,
    slot: u32,
    lists: &mut Vec<SlotList>,
    spill: &mut SpillBytes,
) {
    match cells.entry(key) {
        Entry::Vacant(e) => {
            e.insert(Cell { slot, list: 0 });
        }
        Entry::Occupied(mut e) => {
            let cell = e.get_mut();
            match cell.list {
                0 => {
                    lists.push(SlotList::Inline {
                        len: 2,
                        buf: [cell.slot, slot, 0],
                    });
                    cell.list = u32::try_from(lists.len()).expect("u32 list index");
                }
                list => lists[list as usize - 1].push(slot, spill),
            }
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
    /// The dedup table's buckets.
    pub dedup_bytes: u64,
    /// The per-predicate, single-position and composite pair indexes,
    /// including their shared and spilled slot lists.
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

/// `slot` as the `u32` the dedup table and the indexes store.
///
/// # Panics
///
/// If `slot` is past `u32::MAX - 1`, the last slot an instance has.
#[inline]
fn slot_id(slot: usize) -> u32 {
    match u32::try_from(slot) {
        Ok(id) if id <= IdTable::MAX_ID => id,
        _ => panic!("instance is full: slot {slot} is past u32::MAX - 1"),
    }
}

/// A term as one hash word: its kind above its id.
#[inline]
fn term_word(t: Term) -> u64 {
    match t {
        Term::Const(c) => u64::from(c.0),
        Term::Null(n) => 1 << 32 | u64::from(n.0),
        Term::Var(v) => 2 << 32 | u64::from(v.0),
    }
}

/// The dedup hash of an atom: FxHash over its predicate and one word
/// per argument.
#[inline]
fn atom_hash(atom: AtomRef<'_>) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(atom.pred.0);
    for &t in atom.args {
        h.write_u64(term_word(t));
    }
    h.finish()
}

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
    /// Dedup table: atom hash tag → slot, the atom itself read from
    /// the columns on a tag match.
    dedup: IdTable,
    /// Dense per-predicate slot lists, indexed by `PredId::index()`.
    by_pred: Vec<SlotList>,
    by_pos: FxHashMap<(PredId, u16, Term), Cell>,
    by_pair: FxHashMap<(PredId, u16, u16, Term, Term), Cell>,
    /// The slot lists of `by_pos` and `by_pair` cells with two or more
    /// slots.
    lists: Vec<SlotList>,
    /// Registered composite position pairs per predicate (dense by
    /// predicate id; `(a, b)` normalised to `a < b`). Empty until an
    /// engine registers pairs from its join plans.
    pair_plans: Vec<Vec<(u16, u16)>>,
    /// Heap bytes of the spilled slot lists in `by_pred` and `lists`.
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
            lists: self.lists.clone(),
            pair_plans: self.pair_plans.clone(),
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
    /// exact reserved capacities for the vectors and the dedup table,
    /// a capacity-based model for the hash maps (the `Instance` struct
    /// itself is excluded). O(1): the spilled slot lists' bytes are
    /// counted as they grow.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        self.footprint(self.index_spill.reserved)
    }

    /// The footprint with `index_spill` bytes of spilled slot lists.
    fn footprint(&self, index_spill: usize) -> MemoryFootprint {
        use std::mem::size_of;
        let atom_bytes = self.preds.capacity() * size_of::<PredId>()
            + self.meta.capacity() * size_of::<u64>()
            + self.inline_args.capacity() * size_of::<Term>();
        let arg_spill_bytes = self.spill.capacity() * size_of::<Term>();
        let index_bytes = (self.by_pred.capacity() + self.lists.capacity()) * size_of::<SlotList>()
            + map_heap_bytes(&self.by_pos)
            + map_heap_bytes(&self.by_pair)
            + index_spill;
        MemoryFootprint {
            atom_bytes: atom_bytes as u64,
            arg_spill_bytes: arg_spill_bytes as u64,
            dedup_bytes: self.dedup.heap_bytes() as u64,
            index_bytes: index_bytes as u64,
        }
    }

    /// [`Instance::memory_footprint`] by walking every slot list, the
    /// reference the running counts must equal.
    #[cfg(test)]
    fn memory_footprint_walked(&self) -> MemoryFootprint {
        let lists = self.by_pred.iter().chain(&self.lists);
        self.footprint(lists.map(SlotList::heap_bytes).sum())
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
    /// If the atom's arity exceeds [`MAX_ARITY`] (predicates interned
    /// through [`Vocabulary::pred`] never do), or if the atom is new
    /// and its slot would be past `u32::MAX - 1`.
    pub fn insert(&mut self, atom: Atom) -> (usize, bool) {
        debug_assert!(atom.is_ground(), "instances hold ground atoms only");
        assert!(atom.arity() <= MAX_ARITY, "atom arity exceeds MAX_ARITY");
        let tag = IdTable::tag(atom_hash((&atom).into()));
        let vacant = match self.dedup.find(tag, |s| self.atom(s as usize) == atom) {
            Ok(s) => return (s as usize, false),
            Err(vacant) => vacant,
        };
        let slot = slot_id(self.len());
        self.dedup.insert_vacant(tag, vacant);
        let pred_idx = atom.pred.index();
        if pred_idx >= self.by_pred.len() {
            self.by_pred.resize_with(pred_idx + 1, SlotList::default);
        }
        self.by_pred[pred_idx].push(slot, &mut self.index_spill);
        for (i, &t) in atom.args.iter().enumerate() {
            push_cell(
                &mut self.by_pos,
                (atom.pred, i as u16, t),
                slot,
                &mut self.lists,
                &mut self.index_spill,
            );
        }
        if let Some(plan) = self.pair_plans.get(pred_idx) {
            for &(a, b) in plan {
                let key = (
                    atom.pred,
                    a,
                    b,
                    atom.args[a as usize],
                    atom.args[b as usize],
                );
                push_cell(
                    &mut self.by_pair,
                    key,
                    slot,
                    &mut self.lists,
                    &mut self.index_spill,
                );
            }
        }
        self.preds.push(atom.pred);
        let arena = if atom.arity() <= ARG_INLINE {
            &mut self.inline_args
        } else {
            &mut self.spill
        };
        self.meta
            .push(((arena.len() as u64) << META_ARITY_BITS) | atom.arity() as u64);
        arena.extend_from_slice(&atom.args);
        (slot as usize, true)
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
        let slots = self.slots_with_pred(pred).to_vec();
        for slot in slots {
            let key = {
                let atom = self.atom(slot as usize);
                debug_assert!((b as usize) < atom.arity(), "pair position out of arity");
                (pred, a, b, atom.args[a as usize], atom.args[b as usize])
            };
            push_cell(
                &mut self.by_pair,
                key,
                slot,
                &mut self.lists,
                &mut self.index_spill,
            );
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

    /// Membership test; takes an [`AtomRef`] or an `&Atom`.
    #[inline]
    pub fn contains<'a>(&self, atom: impl Into<AtomRef<'a>>) -> bool {
        self.slot_of(atom).is_some()
    }

    /// Finds the slot of an atom, if present (one table probe); takes
    /// an [`AtomRef`] or an `&Atom`.
    #[inline]
    pub fn slot_of<'a>(&self, atom: impl Into<AtomRef<'a>>) -> Option<usize> {
        let atom = atom.into();
        let tag = IdTable::tag(atom_hash(atom));
        self.dedup
            .find(tag, |s| self.atom(s as usize) == atom)
            .ok()
            .map(|s| s as usize)
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
        AtomRef {
            pred: self.preds[slot],
            args: self.args(slot),
        }
    }

    /// The arguments of the atom stored at `slot` ([`Instance::atom`]
    /// without its predicate).
    #[inline]
    pub(crate) fn args(&self, slot: usize) -> &[Term] {
        let m = self.meta[slot];
        let arity = (m & META_ARITY_MASK) as usize;
        let off = (m >> META_ARITY_BITS) as usize;
        let arena = if arity <= ARG_INLINE {
            &self.inline_args
        } else {
            &self.spill
        };
        &arena[off..off + arity]
    }

    /// Iterates over atoms in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = AtomRef<'_>> {
        (0..self.len()).map(|slot| self.atom(slot))
    }

    /// Slots of all atoms with the given predicate, ascending.
    pub fn slots_with_pred(&self, pred: PredId) -> &[u32] {
        self.by_pred
            .get(pred.index())
            .map(SlotList::as_slice)
            .unwrap_or(&[])
    }

    /// Slots of all atoms with `pred` whose argument at `position`
    /// equals `term`, ascending.
    pub fn slots_with_pred_pos(&self, pred: PredId, position: usize, term: Term) -> &[u32] {
        self.by_pos
            .get(&(pred, position as u16, term))
            .map_or(&[], |cell| cell.slots(&self.lists))
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
    ) -> Option<&[u32]> {
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
                .map_or(&[], |cell| cell.slots(&self.lists)),
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
        self.len() == other.len() && self.iter().all(|a| other.contains(a))
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
        let expect: Vec<u32> = (0..(SLOT_INLINE + 2) as u32).collect();
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
        let sa = inst.slot_of(&a).unwrap() as u32;
        let sb = inst.slot_of(&b).unwrap() as u32;
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
        /// The running spill counts equal the walk over every slot
        /// list (per-predicate and shared cell lists) after random
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

    /// A term of the reference-model runs: four constants and two
    /// nulls, so atoms repeat and index cells fill past one slot.
    fn model_term(k: u64) -> Term {
        match k % 6 {
            k @ 0..=3 => c(k as u32),
            k => Term::Null(NullId(k as u32 - 4)),
        }
    }

    /// Predicate `p` (0–5) of the reference-model runs has arity
    /// `p + 1`, so atoms of arity 5 and 6 spill their arguments.
    fn model_atom(p: u32, bits: u64) -> Atom {
        let args: Vec<Term> = (0..=p).map(|i| model_term(bits >> (3 * i))).collect();
        atom(p, &args)
    }

    /// The pairs `(pred, a, b)`, `a < b`, registered in a model run.
    type RegisteredPairs = Vec<(u32, usize, usize)>;

    /// The slots of the model's atoms that `keep` accepts, ascending.
    fn model_slots(model: &[Atom], keep: impl Fn(&Atom) -> bool) -> Vec<u32> {
        (0..model.len() as u32)
            .filter(|&s| keep(&model[s as usize]))
            .collect()
    }

    /// Checks every lookup of `inst` against the naive model: its atoms
    /// in slot order and its registered pairs `(pred, a, b)`, `a < b`.
    fn check_against_model(
        inst: &Instance,
        model: &[Atom],
        pairs: &[(u32, usize, usize)],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        use proptest::{prop_assert, prop_assert_eq};
        prop_assert_eq!(inst.len(), model.len());
        for (s, a) in model.iter().enumerate() {
            prop_assert!(inst.atom(s) == *a, "slot {s} holds {:?}", inst.atom(s));
            prop_assert_eq!(inst.slot_of(a), Some(s));
            prop_assert_eq!(inst.slot_of(inst.atom(s)), Some(s));
        }
        // Every atom of arity ≤ 3 over the model's terms, present or
        // absent, and each present wide atom with its last argument
        // changed.
        let mut probes: Vec<Atom> = (0u32..3)
            .flat_map(|p| (0..6u64.pow(p + 1)).map(move |i| (p, i)))
            .map(|(p, i)| {
                let args: Vec<Term> = (0..=p).map(|j| model_term(i / 6u64.pow(j))).collect();
                atom(p, &args)
            })
            .collect();
        for a in model.iter().filter(|a| a.arity() > 3) {
            for k in 0..6 {
                let mut b = a.clone();
                let last = b.arity() - 1;
                b.args[last] = model_term(k);
                probes.push(b);
            }
        }
        for a in &probes {
            let expect = model.iter().position(|m| m == a);
            prop_assert_eq!(inst.slot_of(a), expect);
            prop_assert_eq!(inst.contains(a), expect.is_some());
        }
        for p in 0u32..6 {
            let pred = PredId(p);
            let expect = model_slots(model, |a| a.pred == pred);
            prop_assert_eq!(inst.slots_with_pred(pred), expect.as_slice());
            for pos in 0..=p as usize {
                for k in 0..6 {
                    let t = model_term(k);
                    let expect = model_slots(model, |a| a.pred == pred && a.args[pos] == t);
                    prop_assert_eq!(inst.slots_with_pred_pos(pred, pos, t), expect.as_slice());
                }
                for b in pos + 1..=p as usize {
                    let registered = pairs.contains(&(p, pos, b));
                    prop_assert_eq!(inst.pair_index_registered(pred, b, pos), registered);
                    if !registered {
                        prop_assert!(inst
                            .slots_with_pred_pair(pred, pos, c(0), b, c(0))
                            .is_none());
                        continue;
                    }
                    for (ka, kb) in (0..6).flat_map(|ka| (0..6).map(move |kb| (ka, kb))) {
                        let (ta, tb) = (model_term(ka), model_term(kb));
                        let expect = model_slots(model, |a| {
                            a.pred == pred && a.args[pos] == ta && a.args[b] == tb
                        });
                        prop_assert_eq!(
                            inst.slots_with_pred_pair(pred, pos, ta, b, tb),
                            Some(expect.as_slice())
                        );
                        prop_assert_eq!(
                            inst.slots_with_pred_pair(pred, b, tb, pos, ta),
                            Some(expect.as_slice())
                        );
                    }
                }
            }
        }
        prop_assert_eq!(inst.memory_footprint(), inst.memory_footprint_walked());
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 64,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// Random interleavings of inserts (fresh and duplicate, arity
        /// 1–6), pair registrations, and clones that are then grown,
        /// against a naive `Vec<Atom>` model: `insert`'s
        /// `(slot, fresh)`, `slot_of` and `contains` on present and
        /// absent atoms, and every per-predicate, position and pair
        /// list. A clone's original must not see the clone's growth.
        #[test]
        fn instance_matches_the_reference_model(
            ops in proptest::collection::vec((0u32..16, 0u32..6, 0u64..u64::MAX, 0usize..64), 0..160),
        ) {
            let mut inst = Instance::new();
            let mut model: Vec<Atom> = Vec::new();
            let mut pairs: RegisteredPairs = Vec::new();
            let mut frozen: Vec<(Instance, Vec<Atom>, RegisteredPairs)> = Vec::new();
            for (kind, p, bits, extra) in ops {
                match kind {
                    0..=10 => {
                        let a = match model.len() {
                            n if kind >= 8 && n > 0 => model[bits as usize % n].clone(),
                            _ => model_atom(p, bits),
                        };
                        let expect = match model.iter().position(|m| *m == a) {
                            Some(s) => (s, false),
                            None => {
                                model.push(a.clone());
                                (model.len() - 1, true)
                            }
                        };
                        proptest::prop_assert_eq!(inst.insert(a.clone()), expect);
                        proptest::prop_assert_eq!(inst.slot_of(&a), Some(expect.0));
                    }
                    11..=13 => {
                        let arity = p as usize + 1;
                        let (a, b) = (extra % arity, extra / 8 % arity);
                        inst.register_pair_index(PredId(p), a, b);
                        let key = (p, a.min(b), a.max(b));
                        if a != b && !pairs.contains(&key) {
                            pairs.push(key);
                        }
                    }
                    14 => {
                        let copy = inst.clone();
                        check_against_model(&copy, &model, &pairs)?;
                        frozen.push((std::mem::replace(&mut inst, copy), model.clone(), pairs.clone()));
                    }
                    _ => check_against_model(&inst, &model, &pairs)?,
                }
            }
            check_against_model(&inst, &model, &pairs)?;
            for (original, model, pairs) in &frozen {
                check_against_model(original, model, pairs)?;
            }
        }
    }

    /// FxHash's word step, as `FxHasher` applies it.
    fn fx(state: u64, word: u64) -> u64 {
        (state.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    }

    /// Pairs of distinct atoms `P3(cx, cy, cz)` with equal dedup
    /// hashes, hence equal tags and one home bucket. `z` is a 32-bit
    /// id, so it only flips the low half of the rotated state it is
    /// mixed into: a birthday search over random `(x, y)` finds two
    /// prefixes whose rotated states agree in the top half, and then
    /// for each `z1` the `z2` that makes the final words equal is
    /// solved.
    fn colliding_atoms(pairs: u32) -> Vec<(Atom, Atom)> {
        let state = |(x, y): (u32, u32)| fx(fx(fx(0, 3), x.into()), y.into()).rotate_left(5);
        let mut seen = crate::ids::fx_map::<u32, (u32, u32)>();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let (p1, p2) = std::iter::from_fn(|| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            Some((rng as u32, (rng >> 32) as u32))
        })
        .find_map(|p| {
            let other = seen.insert((state(p) >> 32) as u32, p)?;
            (other != p).then_some((other, p))
        })
        .expect("a birthday collision");
        (0..pairs)
            .map(|z1| {
                let z2 = state(p1) ^ state(p2) ^ u64::from(z1);
                let z2 = u32::try_from(z2).expect("the top halves cancel");
                (
                    atom(3, &[c(p1.0), c(p1.1), c(z1)]),
                    atom(3, &[c(p2.0), c(p2.1), c(z2)]),
                )
            })
            .collect()
    }

    #[test]
    fn atoms_with_equal_hashes_are_told_apart() {
        let pairs = colliding_atoms(8);
        for (a, b) in &pairs {
            assert_ne!(a, b);
            assert_eq!(atom_hash(a.into()), atom_hash(b.into()));
        }
        // One atom of each pair, among fillers, across several grows.
        let mut inst = Instance::new();
        for (i, (a, _)) in pairs.iter().enumerate() {
            let slot = inst.len();
            assert_eq!(inst.insert(a.clone()), (slot, true));
            for k in 0..50 {
                inst.insert(atom(0, &[c(i as u32), c(k)]));
            }
        }
        // A present tag does not make its partner present.
        for (a, b) in &pairs {
            assert!(inst.contains(a));
            assert!(!inst.contains(b));
        }
        let partners: Vec<usize> = pairs
            .iter()
            .map(|(_, b)| {
                let slot = inst.len();
                assert_eq!(inst.insert(b.clone()), (slot, true));
                slot
            })
            .collect();
        let mut copy = inst.clone();
        for (_, b) in &pairs {
            assert!(!copy.insert(b.clone()).1, "a duplicate");
        }
        for inst in [&inst, &copy] {
            for ((a, b), &sb) in pairs.iter().zip(&partners) {
                let sa = inst.slot_of(a).expect("present");
                assert_ne!(sa, sb);
                assert_eq!(inst.slot_of(b), Some(sb));
                assert_eq!(inst.atom(sa), *a);
                assert_eq!(inst.atom(sb), *b);
            }
        }
        assert_eq!(copy.len(), inst.len());
    }

    #[test]
    fn the_last_slot_is_u32_max_minus_one() {
        assert_eq!(slot_id(u32::MAX as usize - 1), u32::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "past u32::MAX - 1")]
    fn slots_past_u32_max_minus_one_are_refused() {
        slot_id(u32::MAX as usize);
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

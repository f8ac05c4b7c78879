//! Interned identifier newtypes and a fast, dependency-free hash map.
//!
//! Predicates, constants, nulls and variables are all represented by
//! `u32` newtypes. Interning keeps atoms compact (a term is 8 bytes)
//! and makes equality/hashing trivial, which matters because the chase
//! engines hash atoms in their innermost loops.
//!
//! The hasher is a local implementation of the FxHash algorithm used
//! by rustc (a simple multiply-xor construction). It is not
//! HashDoS-resistant, which is acceptable here: all hashed data is
//! produced by the library itself, never by an untrusted network peer.

use std::hash::{BuildHasherDefault, Hasher};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index backing this identifier.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(raw: u32) -> Self {
                $name(raw)
            }
        }
    };
}

id_type!(
    /// An interned predicate (relation) symbol.
    PredId
);
id_type!(
    /// An interned constant from the countably infinite set `C`.
    ConstId
);
id_type!(
    /// A labelled null from the countably infinite set `N`.
    ///
    /// Nulls are invented by trigger applications; their identity is
    /// determined by the trigger and the existential variable, which
    /// the engines encode through a [`crate::term::NullFactory`].
    NullId
);
id_type!(
    /// An interned variable used in dependencies.
    ///
    /// Variables are renamed apart per rule at parse time, so two
    /// distinct rules never share a `VarId` (the stickiness marking
    /// procedure of the paper assumes this, w.l.o.g.).
    VarId
);

/// The FxHash hasher: a fast multiply-xor hash suitable for interned
/// integer-heavy keys. Algorithm as popularised by Firefox and rustc.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// Hashes `bytes` as little-endian 8-byte words; a final partial
    /// word of `n` bytes is zero-extended and xor-ed with `n`.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            self.add_to_hash(tail_word(rem) ^ rem.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The little-endian value of 1 to 7 bytes, zero-extended, read with
/// two overlapping loads instead of a variable-length copy (short
/// names are the common case of [`FxHasher::write`]).
#[inline]
fn tail_word(bytes: &[u8]) -> u64 {
    let n = bytes.len();
    debug_assert!((1..8).contains(&n));
    let load = |at: usize, width: usize| -> u64 {
        let mut word = [0u8; 8];
        word[..width].copy_from_slice(&bytes[at..at + width]);
        u64::from_le_bytes(word)
    };
    match n {
        4.. => load(0, 4) | load(n - 4, 4) << ((n - 4) * 8),
        2.. => load(0, 2) | load(n - 2, 2) << ((n - 2) * 8),
        _ => u64::from(bytes[0]),
    }
}

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Creates an empty [`FxHashMap`].
pub fn fx_map<K, V>() -> FxHashMap<K, V> {
    FxHashMap::default()
}

/// Creates an empty [`FxHashSet`].
pub fn fx_set<K>() -> FxHashSet<K> {
    FxHashSet::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        let p = PredId(7);
        assert_eq!(p.index(), 7);
        assert_eq!(PredId::from(7u32), p);
    }

    #[test]
    fn fx_hasher_distinguishes_values() {
        fn h(x: u64) -> u64 {
            let mut hasher = FxHasher::default();
            hasher.write_u64(x);
            hasher.finish()
        }
        assert_ne!(h(0), h(1));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn fx_hasher_bytes_tail_is_length_sensitive() {
        fn h(bytes: &[u8]) -> u64 {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        }
        // Same prefix, different lengths must not collide trivially.
        assert_ne!(h(b"abc"), h(b"abc\0"));
    }

    #[test]
    fn fx_hasher_bytes_match_the_word_definition() {
        // Reference: zero-padded little-endian words, the last partial
        // one xor-ed with its length.
        fn reference(bytes: &[u8]) -> u64 {
            let mut hasher = FxHasher::default();
            for chunk in bytes.chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                let tag = if chunk.len() < 8 {
                    chunk.len() as u64
                } else {
                    0
                };
                hasher.add_to_hash(u64::from_le_bytes(word) ^ tag);
            }
            hasher.finish()
        }
        let data: Vec<u8> = (0u8..40).map(|i| i.wrapping_mul(37) ^ 0xa5).collect();
        for len in 0..=data.len() {
            let mut hasher = FxHasher::default();
            hasher.write(&data[..len]);
            assert_eq!(hasher.finish(), reference(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn fx_map_basic() {
        let mut m = fx_map::<PredId, u32>();
        m.insert(PredId(1), 10);
        m.insert(PredId(2), 20);
        assert_eq!(m[&PredId(1)], 10);
        assert_eq!(m.len(), 2);
    }
}

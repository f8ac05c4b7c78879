//! The open-addressing id table behind the constant interner
//! ([`crate::vocab`]) and the instance dedup ([`crate::instance`]).
//!
//! Both map a key to a dense `u32` id — a constant's index, an atom's
//! slot — and keep the keys themselves in their own columns, so the
//! table stores no key. A bucket is `(tag, id + 1)`, 8 bytes: the tag
//! is the top 32 bits of the key's FxHash, and `id + 1 == 0` marks an
//! empty bucket. At most half the buckets are used.
//!
//! The probe starts at the tag's top bits: FxHash ends in a multiply,
//! which mixes every input bit into the top of the word only. Because
//! a bucket's home follows from its tag alone, a grow moves tags and
//! never reads (or rehashes) a key. A probe compares tags first and
//! asks the caller's `is_key` only on a tag match, so a miss usually
//! reads nothing but the buckets.

/// The home bucket of `tag` in a table of `2^bits` buckets: the tag's
/// top `bits` bits (its bits shifted up, past 2³² buckets).
#[inline]
fn home_bucket(tag: u32, bits: u32) -> usize {
    ((u64::from(tag) << 32) >> (64 - bits)) as usize
}

/// An open-addressing table of dense `u32` ids keyed by their owners'
/// hashes (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct IdTable {
    /// `(tag, id + 1)` per bucket; the length is zero or a power of
    /// two.
    buckets: Vec<(u32, u32)>,
    /// Number of ids filed, which is also the next id.
    len: usize,
}

impl IdTable {
    /// The largest id the table can file: `id + 1` must fit a bucket.
    pub(crate) const MAX_ID: u32 = u32::MAX - 1;

    /// The tag of a 64-bit FxHash: its best-mixed top half.
    #[inline]
    pub(crate) fn tag(hash: u64) -> u32 {
        (hash >> 32) as u32
    }

    /// Heap bytes of the buckets.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    /// The bucket a probe for `tag` starts at. The table is non-empty.
    #[inline]
    fn home(&self, tag: u32) -> usize {
        home_bucket(tag, self.buckets.len().trailing_zeros())
    }

    /// The id filed under `tag` that `is_key` accepts, or `Err` with
    /// the empty bucket where that key belongs (for
    /// [`IdTable::insert_vacant`]).
    #[inline]
    pub(crate) fn find(&self, tag: u32, mut is_key: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        if self.buckets.is_empty() {
            return Err(0);
        }
        let mask = self.buckets.len() - 1;
        let mut i = self.home(tag);
        loop {
            let (t, id) = self.buckets[i];
            if id == 0 {
                return Err(i);
            }
            if t == tag && is_key(id - 1) {
                return Ok(id - 1);
            }
            i = (i + 1) & mask;
        }
    }

    /// The first empty bucket from `tag`'s home.
    fn vacant(&self, tag: u32) -> usize {
        let mask = self.buckets.len() - 1;
        let mut i = self.home(tag);
        while self.buckets[i].1 != 0 {
            i = (i + 1) & mask;
        }
        i
    }

    /// Files the next id under `tag` in `vacant`, the bucket a missed
    /// [`IdTable::find`] for the key returned, and returns the id.
    ///
    /// # Panics
    ///
    /// If the table already holds [`IdTable::MAX_ID`]` + 1` ids.
    pub(crate) fn insert_vacant(&mut self, tag: u32, vacant: usize) -> u32 {
        let id = u32::try_from(self.len)
            .ok()
            .filter(|&id| id <= Self::MAX_ID)
            .expect("id table holds u32::MAX - 1 ids at most");
        let mut at = vacant;
        if (self.len + 1) * 2 > self.buckets.len() {
            self.grow();
            at = self.vacant(tag);
        }
        self.buckets[at] = (tag, id + 1);
        self.len += 1;
        id
    }

    /// Doubles the buckets, refiling every tag (no key is read).
    fn grow(&mut self) {
        let capacity = (self.buckets.len() * 2).max(16);
        let old = std::mem::replace(&mut self.buckets, vec![(0, 0); capacity]);
        for (tag, id) in old {
            if id != 0 {
                let at = self.vacant(tag);
                self.buckets[at] = (tag, id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Files `keys` (their own hashes) and checks every lookup.
    fn filed(keys: &[u64]) -> IdTable {
        let mut table = IdTable::default();
        for (i, &k) in keys.iter().enumerate() {
            let tag = IdTable::tag(k);
            let vacant = table
                .find(tag, |id| keys[id as usize] == k)
                .expect_err("fresh key");
            assert_eq!(table.insert_vacant(tag, vacant), i as u32);
        }
        table
    }

    #[test]
    fn ids_are_dense_and_found_across_growth() {
        let keys: Vec<u64> = (0..3000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let table = filed(&keys);
        assert_eq!(table.len, keys.len());
        assert!(table.buckets.len() >= 2 * keys.len());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(
                table.find(IdTable::tag(k), |id| keys[id as usize] == k),
                Ok(i as u32)
            );
        }
        assert!(table.find(IdTable::tag(7), |_| false).is_err());
    }

    #[test]
    fn equal_tags_resolve_by_key_and_a_miss_reads_no_key() {
        // Keys sharing one tag (same top half) chain from one home.
        let keys: Vec<u64> = (0..40u64).map(|i| 0xABCD_0123_0000_0000 | i).collect();
        let table = filed(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(
                table.find(IdTable::tag(k), |id| keys[id as usize] == k),
                Ok(i as u32)
            );
        }
        // A tag no bucket holds never consults the keys.
        let mut reads = 0;
        let miss = table.find(IdTable::tag(0x1111_2222_0000_0000), |_| {
            reads += 1;
            false
        });
        assert!(miss.is_err());
        assert_eq!(reads, 0);
    }

    #[test]
    fn home_spreads_past_two_to_the_32_buckets() {
        assert_eq!(home_bucket(0xF000_0000, 4), 0xF);
        assert_eq!(home_bucket(u32::MAX, 32), u32::MAX as usize);
        assert_eq!(home_bucket(1, 33), 2);
        assert_eq!(home_bucket(u32::MAX, 34), (u32::MAX as usize) << 2);
    }
}

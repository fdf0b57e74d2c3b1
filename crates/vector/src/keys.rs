//! Integer key tables for the join kernels: [`KeySet`] (membership) and
//! [`KeyIndex`] (key → the build positions holding it).
//!
//! Star-join build sides are dimension keys — small, dense integer domains
//! — for which a general-purpose hash table is the wrong data structure.
//! Both tables therefore pick their representation **once, at build time,
//! from what they observe in their input** (the build side's minimum,
//! maximum and length, and the announced probe length):
//!
//! * **dense** — direct addressing over `[min, max]`: a bitmap for
//!   [`KeySet`], a CSR offsets array for [`KeyIndex`].  A probe is
//!   `value.wrapping_sub(min) <= span` plus one bit or array read; values
//!   below `min` wrap to a huge difference and fail the same comparison.
//!   Chosen when zeroing the table costs no more than about one pass over
//!   the inputs: at most one table word per build and probe value
//!   ([`KeySet`]: one word covers [`u64::BITS`] keys; [`KeyIndex`]: one
//!   offset per key).
//! * **sparse** — otherwise: power-of-two open addressing with a
//!   multiplicative (Fibonacci) hash, linear probing and load ≤ ½.
//!
//! The build side is handed over as a *re-scannable chunk source* — a
//! closure that feeds every chunk of the build column to a sink — so the
//! tables never need the build column in uncompressed form: [`KeySet`]
//! scans it twice (bounds, insert), [`KeyIndex`] three times (bounds, count,
//! scatter).
//!
//! The hash is not keyed: adversarial keys can degrade the sparse
//! representation to a linear scan per probe (never to a wrong answer).  The
//! callers' governor checkpoints stay at chunk granularity, so deadlines and
//! cancellation still bound such a query.

use crate::kernels::compact_positions;

/// Fibonacci hashing multiplier: `2^64 / φ`, odd, so multiplication is a
/// bijection on `u64` and the top bits mix every input bit.
const HASH_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Marks a free slot of the sparse table.  The key `u64::MAX` itself is never
/// stored in a slot; [`SparseSlots::has_max_key`] records its membership and
/// it owns the extra slot index `capacity`.
const FREE: u64 = u64::MAX;

/// Minimum, maximum and number of the build keys (first scan).
#[derive(Debug, Clone, Copy)]
struct Bounds {
    min: u64,
    max: u64,
    len: usize,
}

impl Bounds {
    fn scan(mut scan: impl FnMut(&mut dyn FnMut(&[u64]))) -> Bounds {
        let mut bounds = Bounds {
            min: u64::MAX,
            max: 0,
            len: 0,
        };
        scan(&mut |chunk| {
            for &key in chunk {
                bounds.min = bounds.min.min(key);
                bounds.max = bounds.max.max(key);
            }
            bounds.len += chunk.len();
        });
        if bounds.len == 0 {
            bounds.min = 0;
        }
        bounds
    }

    /// `max - min`; 0 for an empty build.
    fn span(&self) -> u64 {
        self.max.saturating_sub(self.min)
    }

    /// Whether a direct-addressed table with `keys_per_word` keys per table
    /// word is worth zeroing: at most one word per build and probe value.
    fn dense_words(&self, keys_per_word: u64, probe_len: usize) -> Option<usize> {
        let budget = self.len.saturating_add(probe_len).max(1);
        // `last < budget` before the `+ 1`: a span of `u64::MAX` must not
        // overflow.
        let last = usize::try_from(self.span() / keys_per_word).ok()?;
        (last < budget).then(|| last + 1)
    }
}

/// Open-addressing slot array shared by the sparse representations.
#[derive(Debug, Clone)]
struct SparseSlots {
    /// `capacity` slots, each a key or [`FREE`].
    keys: Vec<u64>,
    /// `64 - log2(capacity)`: the hash keeps the top bits.
    shift: u32,
    /// Whether the key `u64::MAX` (which cannot live in a slot) is present.
    has_max_key: bool,
}

impl SparseSlots {
    fn with_capacity_for(len: usize) -> SparseSlots {
        // Load ≤ ½ guarantees a free slot terminates every probe sequence;
        // at least two slots keep `shift` below the shift-overflow edge.
        let capacity = len.saturating_mul(2).max(2).next_power_of_two();
        SparseSlots {
            keys: vec![FREE; capacity],
            shift: u64::BITS - capacity.trailing_zeros(),
            has_max_key: false,
        }
    }

    #[inline(always)]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_MULTIPLIER) >> self.shift) as usize
    }

    /// The slot holding `key`, if present.
    #[inline(always)]
    fn find(&self, key: u64) -> Option<usize> {
        if key == FREE {
            return self.has_max_key.then_some(self.keys.len());
        }
        let mask = self.keys.len() - 1;
        let mut slot = self.home(key);
        loop {
            let resident = self.keys[slot];
            if resident == key {
                return Some(slot);
            }
            if resident == FREE {
                return None;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The slot of `key`, inserting it if absent; the flag is `true` for a
    /// new key.
    #[inline]
    fn insert(&mut self, key: u64) -> (usize, bool) {
        if key == FREE {
            let fresh = !self.has_max_key;
            self.has_max_key = true;
            return (self.keys.len(), fresh);
        }
        let mask = self.keys.len() - 1;
        let mut slot = self.home(key);
        loop {
            let resident = self.keys[slot];
            if resident == key {
                return (slot, false);
            }
            if resident == FREE {
                self.keys[slot] = key;
                return (slot, true);
            }
            slot = (slot + 1) & mask;
        }
    }
}

#[derive(Debug, Clone)]
enum SetRepr {
    /// Bit `key - min` of the bitmap.
    Dense(Vec<u64>),
    Sparse(SparseSlots),
}

/// A set of `u64` keys built once and then probed — the build side of a
/// semi-join, or a distinct-value counter.
#[derive(Debug, Clone)]
pub struct KeySet {
    min: u64,
    /// `max - min` of the build keys.
    span: u64,
    /// Number of distinct keys.
    len: usize,
    repr: SetRepr,
}

impl KeySet {
    /// Build the set of all keys that `scan` feeds to its sink.
    ///
    /// `scan` is called twice and must produce the same chunks each time;
    /// `probe_len` is the number of values the caller is going to probe
    /// (0 when the set only counts distinct values), which together with
    /// the observed key range decides the representation.
    pub fn build(mut scan: impl FnMut(&mut dyn FnMut(&[u64])), probe_len: usize) -> KeySet {
        let bounds = Bounds::scan(&mut scan);
        let (min, span) = (bounds.min, bounds.span());
        let (repr, len) = match bounds.dense_words(u64::BITS as u64, probe_len) {
            Some(words) => {
                let mut bits = vec![0u64; words];
                scan(&mut |chunk| {
                    for &key in chunk {
                        let rel = key.wrapping_sub(min);
                        bits[(rel >> 6) as usize] |= 1u64 << (rel & 63);
                    }
                });
                let len = bits.iter().map(|word| word.count_ones() as usize).sum();
                (SetRepr::Dense(bits), len)
            }
            None => {
                let mut slots = SparseSlots::with_capacity_for(bounds.len);
                let (mut seen, mut len) = (0usize, 0usize);
                scan(&mut |chunk| {
                    seen += chunk.len();
                    assert!(seen <= bounds.len, "build scan changed between passes");
                    for &key in chunk {
                        len += slots.insert(key).1 as usize;
                    }
                });
                (SetRepr::Sparse(slots), len)
            }
        };
        KeySet {
            min,
            span,
            len,
            repr,
        }
    }

    /// Build the set from a slice of keys.
    pub fn from_keys(keys: &[u64], probe_len: usize) -> KeySet {
        KeySet::build(|sink| sink(keys), probe_len)
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no key.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the set is direct-addressed (a bitmap over `[min, max]`).
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, SetRepr::Dense(_))
    }

    /// Bytes of heap memory held by the table.
    pub fn heap_bytes(&self) -> usize {
        let words = match &self.repr {
            SetRepr::Dense(bits) => bits.capacity(),
            SetRepr::Sparse(slots) => slots.keys.capacity(),
        };
        words * std::mem::size_of::<u64>()
    }

    /// Whether `value` is a member.
    #[inline]
    pub fn contains(&self, value: u64) -> bool {
        match &self.repr {
            SetRepr::Dense(bits) => dense_hit(bits, self.min, self.span, value),
            SetRepr::Sparse(slots) => sparse_hit(slots, self.min, self.span, value),
        }
    }

    /// Bulk probe: append `base_pos + i` to `out` for every `i` with
    /// `chunk[i]` in the set.
    ///
    /// Hits are compacted branch-free by [`compact_positions`].
    pub fn probe_positions(&self, chunk: &[u64], base_pos: u64, out: &mut Vec<u64>) {
        match &self.repr {
            SetRepr::Dense(bits) => compact_positions(chunk, base_pos, out, |value| {
                dense_hit(bits, self.min, self.span, value)
            }),
            SetRepr::Sparse(slots) => compact_positions(chunk, base_pos, out, |value| {
                sparse_hit(slots, self.min, self.span, value)
            }),
        }
    }
}

#[inline(always)]
fn dense_hit(bits: &[u64], min: u64, span: u64, value: u64) -> bool {
    let rel = value.wrapping_sub(min);
    // Out-of-range probes read the last key's bit and are masked out by the
    // range test, which keeps the index in bounds without a branch.
    let bit = rel.min(span);
    (rel <= span) & (bits[(bit >> 6) as usize] >> (bit & 63) & 1 != 0)
}

#[inline(always)]
fn sparse_hit(slots: &SparseSlots, min: u64, span: u64, value: u64) -> bool {
    value.wrapping_sub(min) <= span && slots.find(value).is_some()
}

#[derive(Debug, Clone)]
enum IndexRepr {
    /// Group `key - min`.
    Dense,
    /// Group = slot of the key.
    Sparse(SparseSlots),
}

/// A multimap from `u64` keys to the build positions holding them — the
/// build side of an equi-join — in CSR layout: group `g` owns
/// `positions[offsets[g]..offsets[g + 1]]`, in build order.
#[derive(Debug, Clone)]
pub struct KeyIndex {
    min: u64,
    /// `max - min` of the build keys.
    span: u64,
    repr: IndexRepr,
    /// One entry per group plus a terminator.
    offsets: Vec<usize>,
    /// Build positions, grouped by key.
    positions: Vec<u64>,
}

impl KeyIndex {
    /// Index every key that `scan` feeds to its sink by its position in
    /// the scan order.
    ///
    /// `scan` is called three times and must produce the same chunks each
    /// time; `probe_len` is the number of values the caller is going to
    /// probe.
    pub fn build(mut scan: impl FnMut(&mut dyn FnMut(&[u64])), probe_len: usize) -> KeyIndex {
        let bounds = Bounds::scan(&mut scan);
        let (repr, groups) = match bounds.dense_words(1, probe_len) {
            Some(groups) => (IndexRepr::Dense, groups),
            None => {
                let slots = SparseSlots::with_capacity_for(bounds.len);
                // One group per slot, plus the `u64::MAX` slot.
                let groups = slots.keys.len() + 1;
                (IndexRepr::Sparse(slots), groups)
            }
        };
        let mut index = KeyIndex {
            min: bounds.min,
            span: bounds.span(),
            repr,
            offsets: vec![0usize; groups + 1],
            positions: vec![0u64; bounds.len],
        };
        // Count per group into `offsets[group + 1]`, then prefix-sum.
        let mut seen = 0usize;
        scan(&mut |chunk| {
            seen += chunk.len();
            assert!(seen <= bounds.len, "build scan changed between passes");
            for &key in chunk {
                let group = match &mut index.repr {
                    IndexRepr::Dense => key.wrapping_sub(index.min) as usize,
                    IndexRepr::Sparse(slots) => slots.insert(key).0,
                };
                index.offsets[group + 1] += 1;
            }
        });
        for group in 0..groups {
            index.offsets[group + 1] += index.offsets[group];
        }
        // Scatter: `offsets[group]` is the group's write cursor, so after
        // the pass it has advanced to the *next* group's start.
        let mut position = 0u64;
        scan(&mut |chunk| {
            for &key in chunk {
                let Some(group) = index.group_of(key) else {
                    panic!("build scan changed between passes");
                };
                let cursor = index.offsets[group];
                index.positions[cursor] = position;
                index.offsets[group] = cursor + 1;
                position += 1;
            }
        });
        // Shift the advanced cursors back into group starts.
        index.offsets.copy_within(0..groups, 1);
        index.offsets[0] = 0;
        index
    }

    /// Index a slice of keys by their position in the slice.
    pub fn from_keys(keys: &[u64], probe_len: usize) -> KeyIndex {
        KeyIndex::build(|sink| sink(keys), probe_len)
    }

    /// Number of indexed build positions (duplicates included).
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether no key is indexed.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Whether the index is direct-addressed (one group per key of
    /// `[min, max]`).
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, IndexRepr::Dense)
    }

    /// Bytes of heap memory held by the index.
    pub fn heap_bytes(&self) -> usize {
        let slots = match &self.repr {
            IndexRepr::Dense => 0,
            IndexRepr::Sparse(slots) => slots.keys.capacity(),
        };
        slots * std::mem::size_of::<u64>()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.positions.capacity() * std::mem::size_of::<u64>()
    }

    #[inline(always)]
    fn group_of(&self, value: u64) -> Option<usize> {
        let rel = value.wrapping_sub(self.min);
        if rel > self.span {
            return None;
        }
        match &self.repr {
            IndexRepr::Dense => Some(rel as usize),
            IndexRepr::Sparse(slots) => slots.find(value),
        }
    }

    /// The build positions whose key equals `value`, in build order (empty
    /// when there is none).
    #[inline]
    pub fn matches(&self, value: u64) -> &[u64] {
        match self.group_of(value) {
            Some(group) => &self.positions[self.offsets[group]..self.offsets[group + 1]],
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_sparse_sets_agree_on_membership() {
        let keys: Vec<u64> = (0..200u64).map(|i| 1000 + i * 3).collect();
        let dense = KeySet::from_keys(&keys, 10_000);
        assert!(dense.is_dense());
        // One far outlier stretches the range past any zeroing budget.
        let mut wide = keys.clone();
        wide.push(1 << 50);
        let sparse = KeySet::from_keys(&wide, 10_000);
        assert!(!sparse.is_dense());
        for value in 900..1700u64 {
            let expected = (1000..1600).contains(&value) && (value - 1000) % 3 == 0;
            assert_eq!(dense.contains(value), expected, "dense {value}");
            assert_eq!(sparse.contains(value), expected, "sparse {value}");
        }
        assert!(sparse.contains(1 << 50) && !dense.contains(1 << 50));
        assert_eq!(dense.len(), 200);
        assert_eq!(sparse.len(), 201);
    }

    #[test]
    fn extreme_keys_are_ordinary_members() {
        for keys in [
            vec![0u64, u64::MAX],
            vec![u64::MAX],
            vec![0],
            vec![u64::MAX - 1, u64::MAX, u64::MAX],
        ] {
            let set = KeySet::from_keys(&keys, 8);
            let index = KeyIndex::from_keys(&keys, 8);
            for probe in [0, 1, 7, u64::MAX - 2, u64::MAX - 1, u64::MAX] {
                assert_eq!(set.contains(probe), keys.contains(&probe), "{keys:?}");
                let expected: Vec<u64> = (0..keys.len() as u64)
                    .filter(|&p| keys[p as usize] == probe)
                    .collect();
                assert_eq!(index.matches(probe), expected, "{keys:?} probe {probe}");
            }
        }
    }

    #[test]
    fn empty_builds_match_nothing() {
        let set = KeySet::from_keys(&[], 100);
        let index = KeyIndex::from_keys(&[], 100);
        assert!(set.is_empty() && index.is_empty());
        for probe in [0, 1, u64::MAX] {
            assert!(!set.contains(probe));
            assert!(index.matches(probe).is_empty());
        }
        let mut out = vec![7];
        set.probe_positions(&[0, 1, 2], 10, &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn probe_positions_appends_hits_in_order() {
        let set = KeySet::from_keys(&[5, 9, 5], 6);
        let mut out = vec![99];
        set.probe_positions(&[1, 5, 9, 5, 100, 4], 40, &mut out);
        assert_eq!(out, vec![99, 41, 42, 43]);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn probe_positions_appends_the_naive_positions_in_both_representations() {
        use crate::kernels::tests::{is_hit, naive, CHUNK_LENS, SELECTIVITIES};
        let keys: Vec<u64> = (0..64u64).map(|k| 1000 + 2 * k).collect();
        let dense = KeySet::from_keys(&keys, 4096);
        let mut wide = keys.clone();
        wide.push(1 << 50);
        let sparse = KeySet::from_keys(&wide, 4096);
        assert!(dense.is_dense() && !sparse.is_dense());
        for len in CHUNK_LENS {
            for selectivity in SELECTIVITIES {
                // Hits are keys; misses are odd values between and around them.
                let chunk: Vec<u64> = (0..len as u64)
                    .map(|i| match is_hit(i as usize, selectivity) {
                        true => keys[(i % 64) as usize],
                        false => 999 + 2 * (i % 66),
                    })
                    .collect();
                for set in [&dense, &sparse] {
                    let mut out = vec![5, 6];
                    set.probe_positions(&chunk, 300, &mut out);
                    let expected = naive(&[5, 6], &chunk, 300, |v| keys.contains(&v));
                    assert_eq!(out, expected, "len {len}, {selectivity} %");
                }
            }
        }
    }

    #[test]
    fn index_groups_keep_build_order() {
        let keys = [7, 8, 7, 1 << 40, 7];
        for probe_len in [0, 1 << 20] {
            let index = KeyIndex::from_keys(&keys, probe_len);
            assert!(!index.is_dense(), "a 2^40 span never fits the budget");
            assert_eq!(index.matches(7), &[0, 2, 4]);
            assert_eq!(index.matches(8), &[1]);
            assert_eq!(index.matches(1 << 40), &[3]);
            assert!(index.matches(9).is_empty());
        }
        let dense = KeyIndex::from_keys(&[7, 8, 7, 12, 7], 100);
        assert!(dense.is_dense());
        assert_eq!(dense.matches(7), &[0, 2, 4]);
        assert_eq!(dense.matches(12), &[3]);
        assert!(dense.matches(9).is_empty() && dense.matches(6).is_empty());
    }

    #[test]
    fn heap_bytes_reflect_the_representation() {
        let dense = KeySet::from_keys(&[1, 200], 600_000);
        assert_eq!(dense.heap_bytes(), 4 * 8);
        let sparse = KeySet::from_keys(&[1, u64::MAX / 2], 600_000);
        assert_eq!(sparse.heap_bytes(), 4 * 8);
        let index = KeyIndex::from_keys(&[3, 4, 5], 100);
        assert_eq!(index.heap_bytes(), (3 + 1) * 8 + 3 * 8);
    }
}

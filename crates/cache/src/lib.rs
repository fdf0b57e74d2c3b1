//! # morph-cache
//!
//! The cross-query plan-level cache of MorphStore-rs: memoised subplan
//! results with a byte budget and cost-aware eviction.
//!
//! The holistic processing model makes every intermediate a first-class
//! *compressed* column with a stable plan-edge name (DP1/DP2 of the paper),
//! which is what makes cross-query memoisation natural: the subplan rooted
//! at an edge is a pure function of the operator chain, its parameters, the
//! resolved output formats and the base data it scans.  A canonical
//! fingerprint of exactly those ingredients — computed by the engine's plan
//! layer with the [`Fingerprint`] hasher — keys the cache; because cached
//! intermediates stay compressed, the cache holds far more subplans per
//! byte than an uncompressed result cache would (the central argument of
//! Lin et al., "Data Compression for Analytics over Large-scale In-memory
//! Column Databases").
//!
//! Every entry of a [`QueryCache`] is a **subplan result**
//! ([`CachedValue::Column`], [`CachedValue::Pair`], [`CachedValue::Scalar`]):
//! the materialised output of a plan node, inserted by the executor on
//! completion and returned on a hit so the node never runs.
//!
//! Every result that fits the budget is admitted; there are no admission
//! thresholds, so [`CacheStats::admission_skipped`] is always 0.
//!
//! ## Eviction and invalidation
//!
//! Every entry records its *cost* (physical bytes held) and its *benefit*
//! (the recorded wall-clock runtime the entry saves per hit, taken from the
//! executors' existing timing records).  When an insertion would exceed the
//! byte budget, entries with the lowest benefit density (benefit per byte,
//! ties broken by least-recent use) are evicted until the new entry fits;
//! an entry larger than the whole budget is rejected outright.  The budget
//! is a hard invariant: `bytes_used() <= budget_bytes()` always holds.
//!
//! Base-data changes invalidate through *generation counters*: the engine
//! folds `generation(column)` of every scanned base column into each
//! subplan fingerprint, so bumping a generation makes all dependent keys
//! unreachable; [`QueryCache::bump_generation`] additionally drops the
//! now-stale entries immediately (each entry declares the base columns it
//! depends on), returning their bytes to the budget.
//!
//! All operations take `&self` and are safe to call from the parallel
//! executor's worker threads (one internal mutex; entries hand out
//! `Arc`-shared columns, so a hit never copies column bytes under the
//! lock).
#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use morph_compression::Format;
use morph_storage::Column;

/// A canonical 128-bit cache key, produced by [`Fingerprint::finish`].
///
/// Keys are opaque: equality is the only meaningful operation.  128 bits
/// keep accidental collisions out of reach for any realistic number of
/// distinct subplans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u128);

const FNV128_BASIS: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

/// Streaming 128-bit FNV-1a hasher used to derive canonical [`CacheKey`]s.
///
/// All multi-byte writes are length- or tag-prefixed by the callers'
/// conventions; the hasher itself length-prefixes strings and byte slices so
/// that adjacent fields cannot alias (`"ab" + "c"` hashes differently from
/// `"a" + "bc"`).
#[derive(Debug, Clone)]
pub struct Fingerprint {
    state: u128,
}

impl Fingerprint {
    /// Start a fresh fingerprint.
    pub fn new() -> Fingerprint {
        Fingerprint {
            state: FNV128_BASIS,
        }
    }

    /// Start a fingerprint whose first component is the label `tag` —
    /// the conventional way to namespace different kinds of keys.
    pub fn with_tag(tag: &str) -> Fingerprint {
        let mut fp = Fingerprint::new();
        fp.write_str(tag);
        fp
    }

    fn write_raw(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state ^= byte as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Mix a length-prefixed byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write_raw(bytes);
    }

    /// Mix a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Mix a single byte.
    pub fn write_u8(&mut self, value: u8) {
        self.write_raw(&[value]);
    }

    /// Mix a 64-bit integer (little-endian).
    pub fn write_u64(&mut self, value: u64) {
        self.write_raw(&value.to_le_bytes());
    }

    /// Mix a 128-bit integer (little-endian) — e.g. a nested [`CacheKey`].
    pub fn write_u128(&mut self, value: u128) {
        self.write_raw(&value.to_le_bytes());
    }

    /// Mix another key (a sub-fingerprint).
    pub fn write_key(&mut self, key: CacheKey) {
        self.write_u128(key.0);
    }

    /// Mix a compression format by its canonical `Display` spelling.
    pub fn write_format(&mut self, format: &Format) {
        self.write_str(&format.to_string());
    }

    /// Finish, producing the key.
    pub fn finish(&self) -> CacheKey {
        CacheKey(self.state)
    }
}

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint::new()
    }
}

/// A memoised value: the output of one plan node.
#[derive(Debug, Clone)]
pub enum CachedValue {
    /// A single materialised (compressed) column — the common case.
    Column(Arc<Column>),
    /// A pair of row-aligned columns plus a count — the two outputs of a
    /// grouping node (per-row ids, per-group representatives) and its group
    /// count.
    Pair {
        /// First column (per-row group identifiers).
        a: Arc<Column>,
        /// Second column (per-group representative positions).
        b: Arc<Column>,
        /// Associated count (number of groups).
        count: usize,
    },
    /// A scalar (whole-column aggregation result).
    Scalar(u64),
}

impl CachedValue {
    /// Physical bytes this value pins in memory (the eviction *cost*).
    pub fn cost_bytes(&self) -> usize {
        match self {
            CachedValue::Column(column) => column.size_used_bytes().max(8),
            CachedValue::Pair { a, b, .. } => {
                (a.size_used_bytes() + b.size_used_bytes() + 8).max(8)
            }
            CachedValue::Scalar(_) => 8,
        }
    }
}

/// One cache entry with its eviction bookkeeping.
#[derive(Debug)]
struct Entry {
    value: CachedValue,
    /// Physical bytes held (the eviction cost).
    cost_bytes: usize,
    /// Recorded runtime the entry saves per hit, in nanoseconds (the
    /// eviction benefit) — the node's measured duration from the executor's
    /// timing records.
    benefit_nanos: u128,
    /// Logical timestamp of the last hit or insertion (recency tiebreak).
    last_used: u64,
    /// Number of hits served.
    hits: u64,
    /// Base columns the memoised subplan scans; `bump_generation` drops
    /// entries by this list.
    deps: Vec<String>,
}

impl Entry {
    /// Benefit density: saved nanoseconds per byte held.  The eviction
    /// policy removes the lowest-density entries first.
    fn density(&self) -> f64 {
        self.benefit_nanos as f64 / self.cost_bytes.max(1) as f64
    }
}

/// Aggregate cache counters, taken atomically under the cache lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a value.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Successful insertions (including replacements).
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Insertions rejected because the value alone exceeds the budget.
    pub rejected: u64,
    /// Subplan results skipped by admission control: always 0, since the
    /// cache has no admission thresholds (kept so reports keep their
    /// column).
    pub admission_skipped: u64,
    /// Entries dropped by generation bumps.
    pub invalidated: u64,
    /// Current physical bytes held.
    pub bytes_used: usize,
    /// Configured byte budget.
    pub budget_bytes: usize,
    /// Current number of entries.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups that hit (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: HashMap<CacheKey, Entry>,
    generations: HashMap<String, u64>,
    bytes_used: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    rejected: u64,
    invalidated: u64,
}

impl CacheInner {
    /// Evict lowest-density entries until `needed` more bytes fit in
    /// `budget` (the caller guarantees `needed <= budget`, so emptying the
    /// cache always suffices).
    ///
    /// One sorted pass over the candidates per call — evicting `k` victims
    /// costs one O(n log n) scan, not `k` full scans, and the scan happens
    /// only on insertions that actually displace something.
    fn make_room(&mut self, needed: usize, budget: usize) {
        debug_assert!(needed <= budget);
        if self.bytes_used + needed <= budget {
            return;
        }
        let mut candidates: Vec<(f64, u64, CacheKey)> = self
            .entries
            .iter()
            .map(|(key, entry)| (entry.density(), entry.last_used, *key))
            .collect();
        candidates.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (_, _, key) in candidates {
            if self.bytes_used + needed <= budget {
                break;
            }
            let entry = self.entries.remove(&key).expect("victim exists");
            self.bytes_used -= entry.cost_bytes;
            self.evictions += 1;
        }
    }
}

/// The concurrency-safe cross-query cache: memoised subplan results under
/// one byte budget with cost-aware eviction.
///
/// See the [module docs](self) for the key derivation and eviction policy.
/// Executors share a cache through `Arc<QueryCache>` (it is the payload of
/// the engine's `ExecSettings::cache` handle).
#[derive(Debug)]
pub struct QueryCache {
    inner: Mutex<CacheInner>,
    budget_bytes: usize,
}

impl QueryCache {
    /// Create a cache holding at most `budget_bytes` of memoised data.
    pub fn with_budget(budget_bytes: usize) -> QueryCache {
        QueryCache {
            inner: Mutex::new(CacheInner::default()),
            budget_bytes,
        }
    }

    /// Create an effectively unbounded cache (for tests and short-lived
    /// workloads).
    pub fn unbounded() -> QueryCache {
        QueryCache::with_budget(usize::MAX)
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Physical bytes currently held (never exceeds the budget).
    pub fn bytes_used(&self) -> usize {
        self.lock().bytes_used
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        // A panic while holding the cache lock leaves only counters and a
        // partially updated map; recover the data instead of poisoning every
        // later query.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Look up `key`, returning a cheap (`Arc`-shared) copy of the value on
    /// a hit.  Records hit/miss statistics and refreshes the entry's
    /// recency.
    pub fn lookup(&self, key: &CacheKey) -> Option<CachedValue> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = clock;
                entry.hits += 1;
                let value = entry.value.clone();
                inner.hits += 1;
                Some(value)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Whether `key` is present, without touching statistics or recency —
    /// the cheap pre-check the parallel executor uses before building morsel
    /// fan-out state.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.lock().entries.contains_key(key)
    }

    /// Insert (or replace) `key`.  `benefit` is the recorded runtime the
    /// entry saves per hit — the node's measured duration from the
    /// executor's timing records; `deps` names the base columns the
    /// memoised subplan scans (for generation invalidation).
    ///
    /// Returns `true` if the value was stored; `false` if it alone exceeds
    /// the byte budget, in which case the existing entry under `key` (if
    /// any) is left untouched.
    pub fn insert(
        &self,
        key: CacheKey,
        value: CachedValue,
        benefit: Duration,
        deps: &[String],
    ) -> bool {
        let cost = value.cost_bytes();
        let mut inner = self.lock();
        if cost > self.budget_bytes {
            inner.rejected += 1;
            return false;
        }
        if let Some(previous) = inner.entries.remove(&key) {
            inner.bytes_used -= previous.cost_bytes;
        }
        inner.make_room(cost, self.budget_bytes);
        inner.clock += 1;
        let entry = Entry {
            value,
            cost_bytes: cost,
            benefit_nanos: benefit.as_nanos(),
            last_used: inner.clock,
            hits: 0,
            deps: deps.to_vec(),
        };
        inner.bytes_used += cost;
        inner.entries.insert(key, entry);
        inner.insertions += 1;
        true
    }

    /// The current generation of base column `column` (0 until first bump).
    /// The engine folds this into every subplan fingerprint that scans the
    /// column.
    pub fn generation(&self, column: &str) -> u64 {
        self.lock().generations.get(column).copied().unwrap_or(0)
    }

    /// Declare that base column `column` changed: bump its generation (all
    /// dependent keys become unreachable) and drop the now-stale entries
    /// immediately, returning their bytes to the budget.
    pub fn bump_generation(&self, column: &str) {
        let mut inner = self.lock();
        *inner.generations.entry(column.to_string()).or_insert(0) += 1;
        let stale: Vec<CacheKey> = inner
            .entries
            .iter()
            .filter(|(_, entry)| entry.deps.iter().any(|dep| dep == column))
            .map(|(key, _)| *key)
            .collect();
        for key in stale {
            let entry = inner.entries.remove(&key).expect("stale entry exists");
            inner.bytes_used -= entry.cost_bytes;
            inner.invalidated += 1;
        }
    }

    /// Drop every entry (generations and statistics are kept).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.entries.clear();
        inner.bytes_used = 0;
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            rejected: inner.rejected,
            admission_skipped: 0,
            invalidated: inner.invalidated,
            bytes_used: inner.bytes_used,
            budget_bytes: self.budget_bytes,
            entries: inner.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column_value(n: usize) -> CachedValue {
        CachedValue::Column(Arc::new(Column::from_vec((0..n as u64).collect())))
    }

    fn key(i: u128) -> CacheKey {
        CacheKey(i)
    }

    #[test]
    fn fingerprint_is_deterministic_and_field_sensitive() {
        let mut a = Fingerprint::with_tag("node");
        a.write_str("select");
        a.write_u64(42);
        let mut b = Fingerprint::with_tag("node");
        b.write_str("select");
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fingerprint::with_tag("node");
        c.write_str("select");
        c.write_u64(43);
        assert_ne!(a.finish(), c.finish());
        // Length prefixes keep adjacent strings from aliasing.
        let mut d = Fingerprint::new();
        d.write_str("ab");
        d.write_str("c");
        let mut e = Fingerprint::new();
        e.write_str("a");
        e.write_str("bc");
        assert_ne!(d.finish(), e.finish());
    }

    #[test]
    fn lookup_round_trips_and_counts() {
        let cache = QueryCache::with_budget(1 << 20);
        assert!(cache.lookup(&key(1)).is_none());
        assert!(cache.insert(
            key(1),
            CachedValue::Scalar(99),
            Duration::from_micros(5),
            &[]
        ));
        match cache.lookup(&key(1)) {
            Some(CachedValue::Scalar(v)) => assert_eq!(v, 99),
            other => panic!("unexpected {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn budget_is_never_exceeded_and_low_density_entries_go_first() {
        let value = column_value(512); // 4096 bytes uncompressed
        let cost = value.cost_bytes();
        let cache = QueryCache::with_budget(cost * 2 + 64);
        // Low benefit, then high benefit, then a third entry that forces one
        // eviction: the low-benefit entry must be the victim.
        assert!(cache.insert(key(1), value.clone(), Duration::from_nanos(10), &[]));
        assert!(cache.insert(key(2), value.clone(), Duration::from_millis(10), &[]));
        assert!(cache.insert(key(3), value.clone(), Duration::from_millis(5), &[]));
        assert!(cache.bytes_used() <= cache.budget_bytes());
        assert!(cache.lookup(&key(1)).is_none(), "low-density entry evicted");
        assert!(cache.lookup(&key(2)).is_some());
        assert!(cache.lookup(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn oversized_values_are_rejected() {
        let cache = QueryCache::with_budget(64);
        assert!(!cache.insert(key(7), column_value(1024), Duration::from_secs(1), &[]));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().rejected, 1);
        assert_eq!(cache.bytes_used(), 0);
    }

    #[test]
    fn rejected_replacement_keeps_the_existing_entry() {
        let cache = QueryCache::with_budget(64);
        assert!(cache.insert(
            key(7),
            CachedValue::Scalar(1),
            Duration::from_micros(1),
            &[]
        ));
        assert!(!cache.insert(key(7), column_value(1024), Duration::from_secs(1), &[]));
        match cache.lookup(&key(7)) {
            Some(CachedValue::Scalar(v)) => assert_eq!(v, 1),
            other => panic!("existing entry lost on rejected replacement: {other:?}"),
        }
    }

    #[test]
    fn replacement_updates_byte_accounting() {
        let cache = QueryCache::with_budget(1 << 20);
        cache.insert(key(1), column_value(512), Duration::from_micros(1), &[]);
        let big = cache.bytes_used();
        cache.insert(
            key(1),
            CachedValue::Scalar(1),
            Duration::from_micros(1),
            &[],
        );
        assert!(cache.bytes_used() < big);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn generation_bump_drops_dependent_entries() {
        let cache = QueryCache::unbounded();
        assert_eq!(cache.generation("lo_quantity"), 0);
        cache.insert(
            key(1),
            CachedValue::Scalar(1),
            Duration::from_micros(1),
            &["lo_quantity".to_string()],
        );
        cache.insert(
            key(2),
            CachedValue::Scalar(2),
            Duration::from_micros(1),
            &["d_year".to_string()],
        );
        cache.bump_generation("lo_quantity");
        assert_eq!(cache.generation("lo_quantity"), 1);
        assert!(cache.lookup(&key(1)).is_none());
        assert!(cache.lookup(&key(2)).is_some());
        assert_eq!(cache.stats().invalidated, 1);
    }

    #[test]
    fn clear_empties_but_keeps_generations() {
        let cache = QueryCache::unbounded();
        cache.bump_generation("x");
        cache.insert(key(1), CachedValue::Scalar(1), Duration::ZERO, &[]);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes_used(), 0);
        assert_eq!(cache.generation("x"), 1);
    }
}

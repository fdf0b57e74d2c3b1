//! Differential property tests of the join key tables against the standard
//! library's hash collections.
//!
//! The generator mixes a few *key families* — a small dense cluster, a
//! cluster far from zero, the top of the `u64` range, the two extreme keys
//! and uniformly random 64-bit values — so one generated build side lands
//! on either side of the dense/sparse rule depending on which families it
//! drew and on the announced probe length.  Probes come from the same
//! families, which covers values below `min`, above `max` (the wrapping
//! range test) and inside the range but absent.

use std::collections::{HashMap, HashSet};

use morph_vector::keys::{KeyIndex, KeySet};
use proptest::prelude::*;

/// One key family per generated vector, so builds are often dense.
fn keys(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u64>> {
    (
        0usize..6,
        prop::collection::vec((any::<u64>(), 0usize..12), len),
    )
        .prop_map(|(family, draws)| {
            draws
                .into_iter()
                .map(|(raw, pick)| match (family, pick) {
                    // Every family occasionally emits the extreme keys and a
                    // stray outlier; otherwise it stays in its own range.
                    (_, 0) => 0,
                    (_, 1) => u64::MAX,
                    (5, _) | (_, 2) => raw,
                    (0, _) => raw % 64,
                    (1, _) => 1_000_000 + raw % 5_000,
                    (2, _) => u64::MAX - raw % 300,
                    (3, _) => raw % 3,
                    _ => (1 << 40) + (raw % 100_000) * 7,
                })
                .collect()
        })
}

/// Families without the shared extremes and outliers: small-span builds that
/// must come out dense whenever the probe budget allows.
fn clustered(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u64>> {
    (any::<u64>(), prop::collection::vec(0u64..2_000, len)).prop_map(|(base, offsets)| {
        let base = base.min(u64::MAX - 2_000);
        offsets.into_iter().map(|o| base + o).collect()
    })
}

fn check_against_std(build: &[u64], probe: &[u64], probe_len: usize) {
    let std_set: HashSet<u64> = build.iter().copied().collect();
    let mut std_map: HashMap<u64, Vec<u64>> = HashMap::new();
    for (position, &key) in build.iter().enumerate() {
        std_map.entry(key).or_default().push(position as u64);
    }

    let set = KeySet::from_keys(build, probe_len);
    let index = KeyIndex::from_keys(build, probe_len);
    assert_eq!(set.len(), std_set.len());
    assert_eq!(set.is_empty(), build.is_empty());
    assert_eq!(index.len(), build.len());

    let no_match: Vec<u64> = Vec::new();
    for &value in probe.iter().chain(build) {
        assert_eq!(set.contains(value), std_set.contains(&value), "{value}");
        let expected = std_map.get(&value).unwrap_or(&no_match);
        assert_eq!(index.matches(value), expected.as_slice(), "{value}");
    }

    let base = 1 << 33;
    let expected: Vec<u64> = probe
        .iter()
        .enumerate()
        .filter(|(_, value)| std_set.contains(value))
        .map(|(i, _)| base + i as u64)
        .collect();
    let mut positions = Vec::new();
    set.probe_positions(probe, base, &mut positions);
    assert_eq!(positions, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn key_tables_agree_with_std_collections(
        build in keys(0..120),
        probe in keys(0..300),
        announced in prop_oneof![Just(0usize), Just(1usize << 24)],
    ) {
        // The honest probe length, and an announcement (none, or a huge
        // one) that pushes the representation rule either way: answers must
        // never depend on it.
        for probe_len in [probe.len(), announced] {
            check_against_std(&build, &probe, probe_len);
        }
    }

    #[test]
    fn clustered_builds_are_dense_and_agree_with_std(
        build in clustered(1..150),
        probe in clustered(0..300),
        extra in keys(0..40),
    ) {
        // 2 000 keys of range need 32 bitmap words / 2 000 offsets.
        prop_assert!(KeySet::from_keys(&build, 32).is_dense());
        prop_assert!(KeyIndex::from_keys(&build, 2_000).is_dense());
        let probe: Vec<u64> = probe.into_iter().chain(extra).collect();
        for probe_len in [0, 32, 2_000] {
            check_against_std(&build, &probe, probe_len);
        }
    }
}

#[test]
fn representation_follows_the_zeroing_budget_exactly() {
    // KeySet: span 6399 -> 100 bitmap words; budget = build + probe values.
    let build = [10, 6409];
    assert!(KeySet::from_keys(&build, 98).is_dense());
    assert!(!KeySet::from_keys(&build, 97).is_dense());
    // KeyIndex: one offset per key of the range -> 6400 groups.
    assert!(KeyIndex::from_keys(&build, 6398).is_dense());
    assert!(!KeyIndex::from_keys(&build, 6397).is_dense());
    // The full u64 range does not fit any realistic probe length.
    let full = [0, u64::MAX];
    assert!(!KeySet::from_keys(&full, 1 << 30).is_dense());
    assert!(!KeyIndex::from_keys(&full, 1 << 30).is_dense());
    // Empty and single-element builds are trivially dense.
    assert!(KeySet::from_keys(&[], 0).is_dense() && KeySet::from_keys(&[u64::MAX], 0).is_dense());
    assert!(KeyIndex::from_keys(&[], 0).is_dense());
    assert!(KeyIndex::from_keys(&[u64::MAX], 0).is_dense());
}

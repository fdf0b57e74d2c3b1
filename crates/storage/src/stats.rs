//! Column statistics: the basic data characteristics the cost-based format
//! selection of Section 5.2 assumes to be known for all intermediates —
//! "the number of (distinct) data elements, the bit width histogram, and the
//! sort order".

use morph_compression::bitpack;

use crate::Column;

/// Data characteristics of a column, used by the cost model of `morph-cost`.
///
/// The paper also lists the number of distinct values.  It is not kept: of
/// the size estimates only a dictionary format's reads it, no format here
/// is one, and counting it on unsorted data took two more scans of the
/// column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of data elements.
    pub len: usize,
    /// Smallest value (0 for an empty column).
    pub min: u64,
    /// Largest value (0 for an empty column).
    pub max: u64,
    /// Whether the values are in non-decreasing order.
    pub sorted: bool,
    /// Number of runs of equal adjacent values (`0` for an empty column).
    pub runs: usize,
    /// Histogram of effective bit widths: `bit_width_histogram[w - 1]` counts
    /// the values whose effective bit width is `w`.
    pub bit_width_histogram: [usize; 64],
    /// Average of the absolute differences of consecutive values, as an
    /// effective bit width; characterises how well DELTA works.
    pub avg_delta_bit_width: f64,
    /// Effective bit width of `max - min`; characterises how well FOR works.
    pub range_bit_width: u8,
}

impl ColumnStats {
    /// Compute statistics from a slice of values.
    pub fn from_values(values: &[u64]) -> ColumnStats {
        ColumnStats::from_chunks(|sink| sink(values))
    }

    /// Compute statistics from a chunk source: `scan` feeds every chunk of
    /// the data to its sink, in order, in one pass.  The data is never
    /// needed in one piece.
    pub fn from_chunks(scan: impl FnOnce(&mut dyn FnMut(&[u64]))) -> ColumnStats {
        let mut len = 0usize;
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut sorted = true;
        let mut runs = 0usize;
        let mut histogram = [0usize; 64];
        let mut delta_bits_sum = 0f64;
        let mut prev: Option<u64> = None;
        scan(&mut |chunk| {
            len += chunk.len();
            for &value in chunk {
                min = min.min(value);
                max = max.max(value);
                histogram[(bitpack::bit_width_of(value) - 1) as usize] += 1;
                match prev {
                    Some(prev) => {
                        sorted &= value >= prev;
                        runs += (value != prev) as usize;
                        delta_bits_sum += bitpack::bit_width_of(value.abs_diff(prev)) as f64;
                    }
                    None => runs = 1,
                }
                prev = Some(value);
            }
        });
        if len == 0 {
            min = 0;
        }
        ColumnStats {
            len,
            min,
            max,
            sorted,
            runs,
            bit_width_histogram: histogram,
            avg_delta_bit_width: match len {
                0 => 0.0,
                1 => 1.0,
                _ => delta_bits_sum / (len - 1) as f64,
            },
            range_bit_width: bitpack::bit_width_of(max - min),
        }
    }

    /// Statistics of a column, served from the column's compute-once memo
    /// ([`Column::stats`]) — repeated calls on the same column (or a clone
    /// of it) never rescan the data.
    ///
    /// The result is identical to [`ColumnStats::from_values`] on the
    /// decompressed data.
    pub fn from_column(column: &Column) -> ColumnStats {
        column.stats().clone()
    }

    /// Effective bit width of the largest value.
    pub fn max_bit_width(&self) -> u8 {
        bitpack::bit_width_of(self.max)
    }

    /// Average effective bit width over all values.
    pub fn avg_bit_width(&self) -> f64 {
        if self.len == 0 {
            return 1.0;
        }
        let total: usize = self
            .bit_width_histogram
            .iter()
            .enumerate()
            .map(|(i, &count)| (i + 1) * count)
            .sum();
        total as f64 / self.len as f64
    }

    /// Average run length.
    pub fn avg_run_length(&self) -> f64 {
        if self.runs == 0 {
            return 0.0;
        }
        self.len as f64 / self.runs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_compression::Format;

    /// The pre-streaming implementation (whole slice), kept as the oracle
    /// the streaming one must equal bit for bit.
    fn oracle(values: &[u64]) -> ColumnStats {
        let len = values.len();
        if len == 0 {
            return ColumnStats {
                len: 0,
                min: 0,
                max: 0,
                sorted: true,
                runs: 0,
                bit_width_histogram: [0; 64],
                avg_delta_bit_width: 0.0,
                range_bit_width: 1,
            };
        }
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut sorted = true;
        let mut runs = 1usize;
        let mut histogram = [0usize; 64];
        let mut delta_bits_sum = 0f64;
        for (i, &value) in values.iter().enumerate() {
            min = min.min(value);
            max = max.max(value);
            histogram[(bitpack::bit_width_of(value) - 1) as usize] += 1;
            if i > 0 {
                let prev = values[i - 1];
                if value < prev {
                    sorted = false;
                }
                if value != prev {
                    runs += 1;
                }
                let delta = value.abs_diff(prev);
                delta_bits_sum += bitpack::bit_width_of(delta) as f64;
            }
        }
        let avg_delta_bit_width = if len > 1 {
            delta_bits_sum / (len - 1) as f64
        } else {
            1.0
        };
        ColumnStats {
            len,
            min,
            max,
            sorted,
            runs,
            bit_width_histogram: histogram,
            avg_delta_bit_width,
            range_bit_width: bitpack::bit_width_of(max - min),
        }
    }

    #[test]
    fn streamed_stats_equal_the_whole_slice_oracle_bit_for_bit() {
        let shapes: Vec<Vec<u64>> = vec![
            vec![],
            vec![42],
            vec![0, u64::MAX, 0, u64::MAX - 1],
            (0..5000u64).collect(),
            (0..5000u64).map(|i| i / 7).collect(),
            (0..5000u64).rev().collect(),
            (0..9000u64).map(|i| (i * 2654435761) % 1000).collect(),
            (0..9000u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            vec![7; 3000],
        ];
        for values in &shapes {
            let expected = oracle(values);
            assert_eq!(ColumnStats::from_values(values), expected);
            for format in Format::all_formats(values.iter().copied().max().unwrap_or(0)) {
                let column = Column::compress(values, &format);
                let streamed = column.stats();
                assert_eq!(streamed, &expected, "{format}, {} values", values.len());
                assert_eq!(
                    streamed.avg_delta_bit_width.to_bits(),
                    expected.avg_delta_bit_width.to_bits()
                );
            }
        }
    }

    #[test]
    fn basic_statistics() {
        let values = vec![5, 5, 5, 9, 9, 2, 1000];
        let stats = ColumnStats::from_values(&values);
        assert_eq!(stats.len, 7);
        assert_eq!(stats.min, 2);
        assert_eq!(stats.max, 1000);
        assert!(!stats.sorted);
        assert_eq!(stats.runs, 4);
        assert_eq!(stats.max_bit_width(), 10);
        assert_eq!(stats.range_bit_width, 10);
        assert!((stats.avg_run_length() - 7.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn sorted_detection_and_delta_width() {
        let sorted: Vec<u64> = (0..1000).map(|i| 1_000_000 + i * 2).collect();
        let stats = ColumnStats::from_values(&sorted);
        assert!(stats.sorted);
        assert_eq!(stats.runs, 1000);
        assert!(stats.avg_delta_bit_width <= 2.0);
        assert_eq!(stats.max_bit_width(), 20);
        // FOR would reduce the data to ~11 bits.
        assert_eq!(stats.range_bit_width, 11);
    }

    #[test]
    fn bit_width_histogram_sums_to_len() {
        let values: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(97) % (1 << 20))
            .collect();
        let stats = ColumnStats::from_values(&values);
        assert_eq!(
            stats.bit_width_histogram.iter().sum::<usize>(),
            values.len()
        );
        assert!(stats.avg_bit_width() <= 20.0);
        assert!(stats.avg_bit_width() >= 15.0);
    }

    #[test]
    fn empty_and_single_element() {
        let empty = ColumnStats::from_values(&[]);
        assert_eq!(empty.len, 0);
        assert!(empty.sorted);
        assert_eq!(empty.runs, 0);
        assert_eq!(empty.avg_run_length(), 0.0);
        let single = ColumnStats::from_values(&[42]);
        assert_eq!(single.len, 1);
        assert_eq!(single.min, 42);
        assert_eq!(single.max, 42);
        assert_eq!(single.runs, 1);
        assert!(single.sorted);
    }

    #[test]
    fn stats_from_column_match_values() {
        let values: Vec<u64> = (0..3000u64).map(|i| (i * 7) % 100).collect();
        let column = Column::compress(&values, &Format::DynBp);
        assert_eq!(
            ColumnStats::from_column(&column),
            ColumnStats::from_values(&values)
        );
    }

    #[test]
    fn stats_are_memoised_and_travel_with_clones() {
        let values: Vec<u64> = (0..2000u64).map(|i| i % 13).collect();
        let column = Column::compress(&values, &Format::Rle);
        let first = column.stats() as *const ColumnStats;
        let second = column.stats() as *const ColumnStats;
        assert_eq!(first, second, "second call must hit the memo");
        // A clone keeps the computed statistics and stays byte-equal.
        let clone = column.clone();
        assert_eq!(clone.stats(), column.stats());
        assert_eq!(clone, column, "memo state must not affect equality");
    }

    #[test]
    fn constant_column_is_one_run() {
        let values = vec![7u64; 500];
        let stats = ColumnStats::from_values(&values);
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.avg_run_length(), 500.0);
        assert!(stats.sorted);
    }
}

//! Log-bucketed streaming histogram over `u64` values.
//!
//! Layout (hdrhistogram-style, ~2 significant digits): values below 128
//! get a unit-width bucket each (so small values are *exact*); every
//! higher power-of-two range `[2^e, 2^(e+1))` is split into 64 equal
//! sub-buckets, bounding the relative quantization error by 1/64 ≈ 1.6%.
//! The bucket array covers the full `u64` range in 3776 fixed slots
//! (~30 KB), so `record` is a single index increment — O(1), no
//! allocation, no sorting, ever.

/// Unit-width buckets for values `0..UNIT` (exact representation).
const UNIT: usize = 128;
/// Sub-buckets per power-of-two segment.
const SUB: usize = 64;
/// Segments for exponents 7..=63 (values `128..=u64::MAX`).
const SEGS: usize = 57;
/// Total bucket count.
const SLOTS: usize = UNIT + SEGS * SUB;

/// Streaming histogram with O(1) record and exact-bucket percentiles.
#[derive(Clone, PartialEq, Eq)]
pub struct HistogramU64 {
    counts: Box<[u64]>,
    count: u64,
    sum: u128,
    /// Record-time clamp: values above this land in its bucket (saturation).
    max_value: u64,
    min_seen: u64,
    max_seen: u64,
}

impl Default for HistogramU64 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for HistogramU64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramU64")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < UNIT as u64 {
        v as usize
    } else {
        // Highest set bit e is in 7..=63; the 6 bits below it pick the
        // sub-bucket within segment e.
        let e = 63 - v.leading_zeros();
        UNIT + (e as usize - 7) * SUB + ((v >> (e - 6)) & 63) as usize
    }
}

/// Inclusive `[lower, upper]` value range covered by bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < UNIT {
        (idx as u64, idx as u64)
    } else {
        let seg = (idx - UNIT) / SUB;
        let off = ((idx - UNIT) % SUB) as u64;
        let e = seg as u32 + 7;
        let width = 1u64 << (e - 6);
        let lower = (1u64 << e) + off * width;
        (lower, lower + (width - 1))
    }
}

impl HistogramU64 {
    /// Histogram covering the full `u64` range.
    pub fn new() -> Self {
        Self::with_max(u64::MAX)
    }

    /// Histogram that clamps recorded values to `max_value`; anything
    /// larger saturates into `max_value`'s bucket.
    pub fn with_max(max_value: u64) -> Self {
        HistogramU64 {
            counts: vec![0; SLOTS].into_boxed_slice(),
            count: 0,
            sum: 0,
            max_value,
            min_seen: u64::MAX,
            max_seen: 0,
        }
    }

    /// Record one observation. O(1): clamp, index, increment.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let v = v.min(self.max_value);
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min_seen = self.min_seen.min(v);
        self.max_seen = self.max_seen.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded (post-clamp) values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_seen
        }
    }

    /// Largest recorded value — exact, not a bucket bound.
    pub fn max(&self) -> u64 {
        self.max_seen
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile, `p` in `[0, 1]`. Returns the upper bound
    /// of the bucket holding the rank (exact for values below 128),
    /// clamped to the true observed maximum. 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * p).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(idx).1.min(self.max_seen);
            }
        }
        self.max_seen
    }

    /// Merge another histogram's observations into this one (elementwise
    /// count add — associative and commutative). The tighter of the two
    /// saturation bounds wins for future records.
    pub fn merge(&mut self, other: &HistogramU64) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max_value = self.max_value.min(other.max_value);
        self.min_seen = self.min_seen.min(other.min_seen);
        self.max_seen = self.max_seen.max(other.max_seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_below_128_and_log_above() {
        // Unit range: every value is its own bucket.
        for v in [0u64, 1, 2, 77, 127] {
            let idx = bucket_index(v);
            assert_eq!(bucket_bounds(idx), (v, v));
        }
        // Segment starts: 2^e must open a fresh sub-bucket at offset 0.
        for e in 7..=63u32 {
            let v = 1u64 << e;
            let (lo, _hi) = bucket_bounds(bucket_index(v));
            assert_eq!(lo, v, "2^{e} must be a bucket lower bound");
        }
        // Relative width <= 1/64 within every segment.
        for v in [128u64, 1000, 123_456, 1 << 40, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside its bucket [{lo}, {hi}]");
            assert!(
                hi - lo <= lo / 64,
                "bucket [{lo}, {hi}] wider than 1/64 relative"
            );
        }
        // Buckets tile the u64 range with no gaps or overlaps.
        let mut expect_lo = 0u64;
        for idx in 0..SLOTS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(lo, expect_lo, "gap before bucket {idx}");
            if idx + 1 == SLOTS {
                assert_eq!(hi, u64::MAX);
                break;
            }
            expect_lo = hi + 1;
        }
    }

    #[test]
    fn small_values_report_exact_percentiles() {
        let mut h = HistogramU64::new();
        for v in [10u64, 10, 10, 40, 40] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), 10);
        assert_eq!(h.percentile(1.0), 40);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 40);
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let mut h = HistogramU64::new();
        let mut v = 3u64;
        for _ in 0..10_000 {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(v >> 24);
        }
        let mut prev = 0u64;
        for i in 0..=100 {
            let q = h.percentile(i as f64 / 100.0);
            assert!(q >= prev, "p{} = {q} < p{} = {prev}", i, i - 1);
            prev = q;
        }
        assert_eq!(h.percentile(1.0), h.max());
    }

    #[test]
    fn percentile_error_is_within_two_significant_digits() {
        let mut h = HistogramU64::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (p, exact) in [(0.5, 50_000u64), (0.9, 90_000), (0.99, 99_000)] {
            let got = h.percentile(p);
            let err = got.abs_diff(exact) as f64 / exact as f64;
            assert!(
                err <= 1.0 / 64.0,
                "p{p}: got {got}, exact {exact}, err {err}"
            );
        }
    }

    #[test]
    fn saturation_clamps_at_the_max_bound() {
        let mut h = HistogramU64::with_max(1_000_000);
        h.record(5);
        h.record(u64::MAX);
        h.record(2_000_000);
        assert_eq!(h.count(), 3);
        assert_eq!(
            h.max(),
            1_000_000,
            "over-bound records saturate to the bound"
        );
        assert_eq!(h.percentile(1.0), 1_000_000);
        assert_eq!(h.sum(), 5 + 2 * 1_000_000u128);
    }

    #[test]
    fn merge_is_associative_and_matches_single_stream() {
        let streams: [&[u64]; 3] = [
            &[1, 5, 200, 4096],
            &[0, 0, 7, 1 << 33],
            &[127, 128, 129, u64::MAX],
        ];
        let mut parts: Vec<HistogramU64> = streams
            .iter()
            .map(|s| {
                let mut h = HistogramU64::new();
                for &v in *s {
                    h.record(v);
                }
                h
            })
            .collect();
        let mut whole = HistogramU64::new();
        for s in streams {
            for &v in s {
                whole.record(v);
            }
        }
        // (a ⊕ b) ⊕ c
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        // a ⊕ (b ⊕ c)
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut right = parts.remove(0);
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");
        assert_eq!(left, whole, "merge must equal the single-stream histogram");
    }
}

//! Log₂-bucket histograms over `u64` observations, as plain data.

/// Number of log₂ buckets: values land in bucket
/// `⌈log₂(v + 1)⌉ ∈ 0..=64`.
const BUCKETS: usize = 65;

/// A histogram over `u64` values with power-of-two buckets, plus
/// exact count / sum / max. Every add saturates, so no input — live
/// or read back from a trace — can overflow it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Maximum observed value.
    pub max: u64,
    /// Log₂ bucket counts.
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (all zeros).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Index of the bucket for `value`: 0 for 0, otherwise the number
    /// of significant bits (so bucket `i` covers `2^(i-1) .. 2^i - 1`).
    #[inline]
    fn bucket(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
        let bucket = &mut self.buckets[Self::bucket(value)];
        *bucket = bucket.saturating_add(1);
    }

    /// Folds `other` into `self`: counts, sums and buckets add
    /// (saturating), maxima take the larger.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine = mine.saturating_add(*theirs);
        }
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The largest value that lands in bucket `i` (its inclusive
    /// upper bound): 0, 1, 3, 7, …, `u64::MAX`.
    fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            64.. => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Estimated `q`-quantile (`q ∈ [0, 1]`) from the log₂ buckets:
    /// the upper bound of the bucket holding the rank-`⌈q·count⌉`
    /// observation, clamped to the exact observed maximum.
    ///
    /// Because bucket `i` covers `2^(i-1) ..= 2^i - 1`, the estimate
    /// `e` for a true quantile value `t` satisfies `t ≤ e < 2·t` — in
    /// particular it is *exact* when every observation is the same
    /// value (the clamp to `max` collapses the bucket), and never off
    /// by more than a factor of two otherwise. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= target {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (see [`HistogramSnapshot::quantile`]).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (see [`HistogramSnapshot::quantile`]).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(HistogramSnapshot::bucket(0), 0);
        assert_eq!(HistogramSnapshot::bucket(1), 1);
        assert_eq!(HistogramSnapshot::bucket(2), 2);
        assert_eq!(HistogramSnapshot::bucket(3), 2);
        assert_eq!(HistogramSnapshot::bucket(4), 3);
        assert_eq!(HistogramSnapshot::bucket(u64::MAX), 64);

        let mut snap = HistogramSnapshot::empty();
        for v in [0, 1, 2, 3, 7, 8] {
            snap.record(v);
        }
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 21);
        assert_eq!(snap.max, 8);
        assert_eq!(snap.buckets[0], 1); // {0}
        assert_eq!(snap.buckets[1], 1); // {1}
        assert_eq!(snap.buckets[2], 2); // {2,3}
        assert_eq!(snap.buckets[3], 1); // {7}
        assert_eq!(snap.buckets[4], 1); // {8}
        assert!((snap.mean() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_exact_on_a_single_bucket() {
        // All observations identical: every quantile must be the
        // exact value (the clamp to `max` collapses the log₂ bucket).
        let mut h = HistogramSnapshot::empty();
        for _ in 0..42 {
            h.record(7);
        }
        assert_eq!(h.p50(), 7);
        assert_eq!(h.p95(), 7);
        assert_eq!(h.p99(), 7);
        assert_eq!(h.quantile(1.0), 7);
    }

    #[test]
    fn quantiles_have_bounded_error_across_buckets() {
        // Uniform 1..=1000: every estimate must sit in [t, 2t) for
        // the true quantile t.
        let mut h = HistogramSnapshot::empty();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (q, t) in [(0.50, 500u64), (0.95, 950), (0.99, 990)] {
            let e = h.quantile(q);
            assert!(e >= t, "q={q}: estimate {e} below true {t}");
            assert!(e < 2 * t, "q={q}: estimate {e} ≥ 2·{t}");
        }
        // The top quantile is exact: clamped to the observed max.
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn quantile_edge_cases() {
        let empty = HistogramSnapshot::empty();
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.quantile(1.0), 0);

        let mut h = HistogramSnapshot::empty();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.quantile(0.0), 0); // clamp to rank 1
        assert_eq!(h.p50(), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
        // Out-of-range q is clamped, not a panic.
        assert_eq!(h.quantile(2.0), u64::MAX);
        assert_eq!(h.quantile(-1.0), 0);
    }

    #[test]
    fn merge_equals_recording_both_streams() {
        let (mut left, mut right, mut both) = (
            HistogramSnapshot::empty(),
            HistogramSnapshot::empty(),
            HistogramSnapshot::empty(),
        );
        for v in [0, 1, 2, 3, 7] {
            left.record(v);
            both.record(v);
        }
        for v in [8, 1000, 1 << 40] {
            right.record(v);
            both.record(v);
        }
        left.merge(&right);
        assert_eq!(left, both);
    }

    #[test]
    fn adds_saturate_instead_of_overflowing() {
        let mut h = HistogramSnapshot::empty();
        h.record(u64::MAX);
        h.record(1);
        assert_eq!(h.sum, u64::MAX);
        let copy = h.clone();
        h.merge(&copy);
        assert_eq!((h.count, h.sum, h.max), (4, u64::MAX, u64::MAX));
        h.count = u64::MAX;
        h.buckets[1] = u64::MAX;
        h.merge(&copy);
        h.record(1);
        assert_eq!((h.count, h.buckets[1]), (u64::MAX, u64::MAX));
        // The quantile walk over saturated buckets does not overflow.
        assert_eq!(h.quantile(1.0), 1);
    }
}

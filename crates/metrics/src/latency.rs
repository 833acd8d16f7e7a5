//! Wall-clock decision latency (Observation 10: a mechanism decision must
//! cost far below 10 ms). Wall-clock time is not simulated state, so it
//! stays out of [`crate::Metrics`]: same-seed runs report bitwise-equal
//! metrics and different histograms.

use std::time::Duration;

const BUCKETS: usize = 64;

/// A fixed-size, mergeable log2 histogram of durations in nanoseconds.
///
/// Bucket 0 holds 0 ns, bucket `k` in `1..63` holds `[2^(k-1), 2^k - 1]`
/// and bucket 63 everything from 2^62 ns up. Count, sum and max are exact.
/// The p99 is the upper edge of the bucket holding the nearest-rank 99th
/// percentile sample, capped at the max: never below the exact p99, and
/// below twice it for samples under 2^62 ns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

fn bucket(ns: u64) -> usize {
    (u64::BITS - ns.leading_zeros()).min(BUCKETS as u32 - 1) as usize
}

/// The largest value bucket `k` holds.
fn upper_edge(k: usize) -> u64 {
    if k == BUCKETS - 1 {
        u64::MAX
    } else {
        (1 << k) - 1
    }
}

impl LatencyHistogram {
    /// Add one sample (saturating at `u64::MAX` nanoseconds).
    pub fn record(&mut self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket(ns)] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Pool `other`'s samples into `self`, as if both sample sets had been
    /// recorded here.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample in microseconds; this and the other readers report 0
    /// for an empty histogram.
    pub fn mean_us(&self) -> f64 {
        self.sum_ns as f64 / self.count.max(1) as f64 / 1_000.0
    }

    pub fn p99_us(&self) -> f64 {
        let rank = self.count - self.count / 100; // ceil(0.99 × count)
        let mut seen = 0;
        let k = self.buckets.iter().position(|&n| {
            seen += n;
            seen >= rank
        });
        k.map_or(0, |k| upper_edge(k).min(self.max_ns)) as f64 / 1_000.0
    }

    pub fn max_us(&self) -> f64 {
        self.max_ns as f64 / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        for k in 1..62 {
            let pow = 1u64 << k;
            assert_eq!(bucket(pow - 1), k, "2^{k} - 1");
            assert_eq!(bucket(pow), k + 1, "2^{k}");
            assert_eq!(upper_edge(k), pow - 1);
        }
        assert_eq!(bucket((1 << 62) - 1), 62);
        assert_eq!(bucket(1 << 62), 63);
        assert_eq!(bucket(u64::MAX), 63);
        assert_eq!(upper_edge(63), u64::MAX);
    }

    #[test]
    fn extreme_samples_saturate_instead_of_overflowing() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::ZERO);
        h.record(Duration::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[63], 1);
        assert_eq!(h.max_us(), u64::MAX as f64 / 1_000.0);
        assert_eq!(h.p99_us(), h.max_us());
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!((h.mean_us(), h.p99_us(), h.max_us()), (0.0, 0.0, 0.0));
    }

    /// Deterministic spread of samples over several decades of ns.
    fn samples(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 1_000) * 10u64.pow((x >> 32) as u32 % 5) + 1
            })
            .collect()
    }

    fn of(ns: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        for &v in ns {
            h.record(Duration::from_nanos(v));
        }
        h
    }

    #[test]
    fn merge_equals_recording_the_pooled_samples() {
        let (a, b) = (samples(1, 300), samples(2, 77));
        let mut merged = of(&a);
        merged.merge(&of(&b));
        let pooled: Vec<u64> = a.iter().chain(&b).copied().collect();
        assert_eq!(merged, of(&pooled));
        assert_eq!(merged.count(), 377);
    }

    #[test]
    fn mean_and_max_are_exact() {
        let h = of(&[1_000, 2_000, 6_000]);
        assert_eq!(h.mean_us(), 3.0);
        assert_eq!(h.max_us(), 6.0);
    }

    #[test]
    fn p99_brackets_the_exact_nearest_rank_p99() {
        for (seed, n) in [
            (3, 1),
            (4, 2),
            (5, 99),
            (6, 100),
            (7, 101),
            (8, 1_000),
            (9, 4_321),
        ] {
            let mut ns = samples(seed, n);
            let h = of(&ns);
            ns.sort_unstable();
            let rank = (n * 99).div_ceil(100);
            let exact = ns[rank - 1] as f64 / 1_000.0;
            let p99 = h.p99_us();
            assert!(p99 >= exact, "n={n}: p99 {p99} < exact {exact}");
            assert!(p99 <= 2.0 * exact, "n={n}: p99 {p99} > 2 × exact {exact}");
        }
    }
}

//! Log-bucketed latency histograms for scheduler telemetry.
//!
//! The `lasmq-serve` daemon reports p50/p99/p999 scheduling-decision and
//! admission-ack latency; campaign profiling reports per-cell simulation
//! wall time. Both need a histogram that is cheap to record into (one
//! branch + one increment), mergeable across threads, and accurate enough
//! at the tail that a p999 is meaningful — without storing every sample.
//!
//! [`LatencyHistogram`] uses HDR-style logarithmic bucketing: each
//! power-of-two octave of nanoseconds is split into `SUB_BUCKETS`
//! linear sub-buckets, bounding the relative quantization error at
//! `1 / SUB_BUCKETS` (~3%) across the whole range (1 ns to ~584 years).
//! Recording is O(1) with no allocation; percentile queries walk the
//! bucket array once.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Linear sub-buckets per power-of-two octave. 32 sub-buckets bound the
/// relative error of any recorded value at 1/32 ≈ 3.1%.
const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

/// Bucket count: 64 octaves (full u64 range) × SUB_BUCKETS, but octaves
/// below SUB_BITS collapse into the first linear region.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_BUCKETS as usize;

/// Maps a nanosecond value to its bucket index.
///
/// Values below `SUB_BUCKETS` map 1:1 (exact); larger values land in
/// `(octave, sub-bucket)` pairs where the sub-bucket is the top
/// `SUB_BITS` bits below the leading bit.
fn bucket_index(ns: u64) -> usize {
    if ns < SUB_BUCKETS {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros(); // position of the leading bit, >= SUB_BITS
    let shift = exp - SUB_BITS;
    let sub = (ns >> shift) - SUB_BUCKETS; // 0..SUB_BUCKETS
    ((shift as u64 + 1) * SUB_BUCKETS + sub) as usize
}

/// The representative (midpoint) nanosecond value of a bucket.
fn bucket_mid(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let shift = (index / SUB_BUCKETS) - 1;
    let sub = index % SUB_BUCKETS;
    let low = (SUB_BUCKETS + sub) << shift;
    let width = 1u64 << shift;
    low + width / 2
}

/// A mergeable log-bucketed histogram of nanosecond latencies.
///
/// ```
/// use std::time::Duration;
/// use lasmq_campaign::latency::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for i in 1..=1000u64 {
///     h.record_nanos(i * 1_000); // 1µs..1ms
/// }
/// let p50 = h.percentile(50.0).unwrap();
/// // Within the ~3% bucketing error of the true median (500µs).
/// assert!((p50.as_nanos() as f64 - 500_000.0).abs() < 500_000.0 * 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u32>,
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, d: Duration) {
        self.record_nanos(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one sample given directly in nanoseconds.
    pub fn record_nanos(&mut self, ns: u64) {
        let idx = bucket_index(ns);
        self.counts[idx] = self.counts[idx].saturating_add(1);
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The largest sample recorded (exact, not bucketed).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// The arithmetic mean of all samples (exact sum, not bucketed).
    pub fn mean(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_nanos(self.sum_ns / self.count))
    }

    /// The value at or below which `p` percent of samples fall (`p` in
    /// 0..=100), to bucket resolution (~3% relative error). `None` when
    /// empty.
    pub fn percentile(&self, p: f64) -> Option<Duration> {
        if self.count == 0 {
            return None;
        }
        let p = if p.is_nan() {
            100.0
        } else {
            p.clamp(0.0, 100.0)
        };
        // Rank of the target sample, 1-based: ceil(p/100 * count), at least
        // 1; float rounding near the top must not push it past count.
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64)
            .max(1)
            .min(self.count);
        if rank == self.count {
            // Nearest-rank at the top rank is the largest sample, which is
            // stored exactly; the bucket midpoint would under-report it by
            // up to half a bucket. This also makes every percentile of a
            // single-sample histogram exact.
            return Some(Duration::from_nanos(self.max_ns));
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                // The top bucket's midpoint can exceed the true max; clamp
                // so reported percentiles never overshoot the max sample.
                return Some(Duration::from_nanos(bucket_mid(idx).min(self.max_ns)));
            }
        }
        Some(Duration::from_nanos(self.max_ns))
    }

    /// Condenses the histogram into the percentile summary the daemon's
    /// `metrics` response and `BENCH_6.json` report.
    pub fn summary(&self) -> LatencySummary {
        let us = |d: Option<Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e6);
        LatencySummary {
            count: self.count,
            p50_us: us(self.percentile(50.0)),
            p99_us: us(self.percentile(99.0)),
            p999_us: us(self.percentile(99.9)),
            max_us: us((self.count > 0).then_some(self.max())),
            mean_us: us(self.mean()),
        }
    }
}

/// Percentile digest of a [`LatencyHistogram`], in microseconds.
///
/// Percentile definitions: `pXX_us` is the smallest recorded latency such
/// that XX% of samples are at or below it (nearest-rank on the bucketed
/// distribution, ~3% relative bucket error; `max_us` and `mean_us` are
/// exact). All fields are zero when `count` is zero.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile latency, µs.
    pub p999_us: f64,
    /// Largest sample, µs (exact).
    pub max_us: f64,
    /// Mean latency, µs (exact).
    pub mean_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.mean(), None);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_us, 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for ns in 0..SUB_BUCKETS {
            h.record_nanos(ns);
        }
        assert_eq!(h.count(), SUB_BUCKETS);
        assert_eq!(h.percentile(0.0).unwrap(), Duration::from_nanos(0));
        assert_eq!(
            h.percentile(100.0).unwrap(),
            Duration::from_nanos(SUB_BUCKETS - 1)
        );
    }

    #[test]
    fn percentiles_are_within_bucket_error() {
        let mut h = LatencyHistogram::new();
        // Uniform 1µs..=1ms in 1µs steps.
        for i in 1..=1000u64 {
            h.record_nanos(i * 1_000);
        }
        for (p, truth) in [(50.0, 500_000.0), (99.0, 990_000.0), (99.9, 999_000.0)] {
            let got = h.percentile(p).unwrap().as_nanos() as f64;
            let rel = (got - truth).abs() / truth;
            assert!(rel < 0.05, "p{p}: got {got}, want ~{truth} (rel {rel:.3})");
        }
        assert_eq!(h.max(), Duration::from_nanos(1_000_000));
    }

    #[test]
    fn huge_values_do_not_overflow_buckets() {
        let mut h = LatencyHistogram::new();
        h.record_nanos(u64::MAX);
        h.record_nanos(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Duration::from_nanos(u64::MAX));
        assert!(h.percentile(100.0).unwrap() <= Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn p100_is_the_exact_max_not_a_bucket_midpoint() {
        let mut h = LatencyHistogram::new();
        // 1_000_003 sits in the upper half of its bucket, so the midpoint
        // under-reports it; p100 must still be exact.
        for ns in [10u64, 500, 1_000_003] {
            h.record_nanos(ns);
        }
        assert_eq!(
            h.percentile(100.0).unwrap(),
            Duration::from_nanos(1_000_003)
        );
        assert_eq!(
            h.summary().max_us,
            h.percentile(100.0).unwrap().as_secs_f64() * 1e6
        );
    }

    #[test]
    fn single_sample_percentiles_are_exact_at_every_p() {
        let mut h = LatencyHistogram::new();
        h.record_nanos(777_777);
        for p in [0.0, 0.1, 50.0, 99.9, 100.0] {
            assert_eq!(
                h.percentile(p).unwrap(),
                Duration::from_nanos(777_777),
                "p{p} of a single-sample histogram must be the sample itself"
            );
        }
    }

    #[test]
    fn u64_max_saturation_round_trips_through_p100() {
        let mut h = LatencyHistogram::new();
        // Durations beyond u64::MAX nanos saturate on record; the top
        // percentile must report the saturated value, not the (smaller)
        // top-bucket midpoint.
        h.record(Duration::from_secs(u64::MAX));
        assert_eq!(h.percentile(100.0).unwrap(), Duration::from_nanos(u64::MAX));
        assert_eq!(h.percentile(50.0).unwrap(), Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn out_of_range_p_is_clamped_not_panicking() {
        let mut h = LatencyHistogram::new();
        h.record_nanos(5);
        h.record_nanos(1_000);
        assert_eq!(h.percentile(-3.0), h.percentile(0.0));
        assert_eq!(h.percentile(250.0), h.percentile(100.0));
        assert_eq!(h.percentile(f64::NAN), h.percentile(100.0));
    }

    #[test]
    fn summary_serializes_roundtrip() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(250));
        h.record(Duration::from_micros(750));
        let s = h.summary();
        let json = serde_json::to_string(&s).unwrap();
        let back: LatencySummary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.count, 2);
        assert!(back.mean_us > 0.0);
    }

    #[test]
    fn bucket_index_is_monotonic_and_in_range() {
        let mut samples: Vec<u64> = Vec::new();
        for shift in 0..64 {
            let ns = 1u64 << shift;
            samples.extend([ns, ns.saturating_add(1), ns.saturating_add(7)]);
        }
        samples.sort_unstable();
        let mut last = 0usize;
        for ns in samples {
            let idx = bucket_index(ns);
            assert!(idx < BUCKETS, "index {idx} out of range for {ns}");
            assert!(idx >= last, "bucket index went backwards at {ns}");
            last = idx;
        }
    }
}

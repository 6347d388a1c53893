//! Small fixed-overhead histograms for run telemetry.
//!
//! One [`Histogram`] type with two bucket rules covers everything the
//! observability layer records:
//!
//! * linear ([`Histogram::linear`]) — buckets of a configurable width.
//!   Used for per-cycle structure occupancy (ROB/RS/LQ/SQ, MSHRs in
//!   flight) where the domain is small and bounded by a config knob.
//! * log2 ([`Histogram::log2`]) — one bucket per bit-length. Used for
//!   latency distributions (taint-to-untaint, transmitter delay) whose
//!   tails are long and where the interesting resolution is "tens vs.
//!   thousands of cycles", not exact counts.
//!
//! Both render to [`Json`] with explicit bucket bounds so downstream
//! tooling never has to re-derive the bucketing scheme.

use crate::json::Json;

/// How a [`Histogram`] maps a sample to a bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Buckets {
    /// Bucket `i` counts samples in `[i*width, (i+1)*width)`.
    Linear(u64),
    /// Bucket `i` counts samples whose bit length is `i`: bucket 0 holds
    /// the value 0, bucket `i >= 1` holds `[2^(i-1), 2^i)`.
    Log2,
}

impl Buckets {
    fn index(self, value: u64) -> usize {
        match self {
            Buckets::Linear(width) => (value / width) as usize,
            Buckets::Log2 => (u64::BITS - value.leading_zeros()) as usize,
        }
    }

    /// The smallest and largest value bucket `i` holds.
    fn bounds(self, i: usize) -> (u64, u64) {
        let i = i as u64;
        match self {
            Buckets::Linear(width) => (i * width, (i + 1) * width - 1),
            Buckets::Log2 if i == 0 => (0, 0),
            Buckets::Log2 => (1 << (i - 1), u64::MAX >> (64 - i)),
        }
    }
}

/// A histogram over `u64` samples whose buckets grow as samples arrive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    rule: Buckets,
    counts: Vec<u64>,
    samples: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram whose bucket `i` counts samples in
    /// `[i*width, (i+1)*width)`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero.
    pub fn linear(bucket_width: u64) -> Self {
        assert!(bucket_width > 0, "histogram bucket width must be positive");
        Histogram::with(Buckets::Linear(bucket_width))
    }

    /// Creates a histogram with one bucket per sample bit length.
    pub fn log2() -> Self {
        Histogram::with(Buckets::Log2)
    }

    fn with(rule: Buckets) -> Self {
        Histogram { rule, counts: Vec::new(), samples: 0, sum: 0, max: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same value (identical to `n` calls of
    /// [`Self::record`]).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.rule.index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.samples += n;
        self.sum += value * n;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Largest sample recorded (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    /// Count in bucket `i` (0 beyond the populated range).
    pub fn bucket(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Upper-bound estimate of the `p`-quantile (`p` in `(0, 1]`): the
    /// inclusive upper edge of the bucket holding the `⌈p·samples⌉`-th
    /// smallest sample, clamped to the observed maximum. 0 if empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.samples == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.samples as f64).ceil() as u64).clamp(1, self.samples);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.rule.bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Renders as a JSON object with bucket bounds (`hi` exclusive,
    /// saturating at `u64::MAX`), counts, and summary statistics.
    pub fn to_json(&self) -> Json {
        let buckets = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = self.rule.bounds(i);
                Json::obj([
                    ("lo", Json::U64(lo)),
                    ("hi", Json::U64(hi.saturating_add(1))),
                    ("count", Json::U64(c)),
                ])
            })
            .collect::<Vec<_>>();
        let mut fields = vec![];
        match self.rule {
            Buckets::Linear(width) => {
                fields.push(("kind", Json::str("linear")));
                fields.push(("bucket_width", Json::U64(width)));
            }
            Buckets::Log2 => fields.push(("kind", Json::str("log2"))),
        }
        fields.extend([
            ("samples", Json::U64(self.samples)),
            ("sum", Json::U64(self.sum)),
            ("max", Json::U64(self.max)),
            ("mean", Json::F64(self.mean())),
            ("p50", Json::U64(self.percentile(0.50))),
            ("p90", Json::U64(self.percentile(0.90))),
            ("p99", Json::U64(self.percentile(0.99))),
            ("buckets", Json::Arr(buckets)),
        ]);
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_n_equals_repeated_record() {
        let mut one = Histogram::linear(3);
        let mut many = Histogram::linear(3);
        for (v, n) in [(5, 4), (0, 2), (11, 1), (7, 0)] {
            for _ in 0..n {
                one.record(v);
            }
            many.record_n(v, n);
        }
        assert_eq!(one, many);
        assert_eq!(many.samples(), 7);
        assert_eq!(many.max(), 11);
    }

    #[test]
    fn linear_buckets_and_stats() {
        let mut h = Histogram::linear(4);
        for v in [0, 1, 3, 4, 7, 12] {
            h.record(v);
        }
        assert_eq!(h.samples(), 6);
        assert_eq!(h.max(), 12);
        assert_eq!(h.bucket(0), 3); // 0, 1, 3
        assert_eq!(h.bucket(1), 2); // 4, 7
        assert_eq!(h.bucket(2), 0);
        assert_eq!(h.bucket(3), 1); // 12
        assert!((h.mean() - 27.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn linear_json_has_bounds() {
        let mut h = Histogram::linear(10);
        h.record(5);
        h.record(25);
        let j = h.to_json();
        let buckets = j.get("buckets").and_then(Json::as_arr).unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].get("lo").and_then(Json::as_u64), Some(0));
        assert_eq!(buckets[1].get("lo").and_then(Json::as_u64), Some(20));
        assert_eq!(buckets[1].get("hi").and_then(Json::as_u64), Some(30));
    }

    #[test]
    fn log2_bucket_edges() {
        let mut h = Histogram::log2();
        for v in [0, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.bucket(0), 1); // 0
        assert_eq!(h.bucket(1), 1); // 1
        assert_eq!(h.bucket(2), 2); // 2, 3
        assert_eq!(h.bucket(3), 2); // 4, 7
        assert_eq!(h.bucket(4), 1); // 8..16
        assert_eq!(h.bucket(10), 1); // 512..1024
        assert_eq!(h.bucket(11), 1); // 1024..2048
        assert_eq!(h.samples(), 9);
        assert_eq!(h.max(), 1024);
    }

    #[test]
    fn log2_handles_u64_max() {
        let mut h = Histogram::log2();
        h.record(u64::MAX);
        assert_eq!(h.bucket(64), 1);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn empty_histograms_render() {
        assert_eq!(Histogram::linear(1).to_json().get("samples").and_then(Json::as_u64), Some(0));
        assert_eq!(Histogram::log2().mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_width_rejected() {
        let _ = Histogram::linear(0);
    }

    #[test]
    fn linear_percentiles() {
        let mut h = Histogram::linear(1);
        for v in 1..=100u64 {
            h.record(v);
        }
        // Width-1 buckets make the bucket upper bound exact.
        assert_eq!(h.percentile(0.50), 50);
        assert_eq!(h.percentile(0.90), 90);
        assert_eq!(h.percentile(0.99), 99);
        assert_eq!(h.percentile(1.0), 100);
        // Coarse buckets report the bucket's inclusive upper edge,
        // clamped to the observed max.
        let mut c = Histogram::linear(10);
        c.record(3);
        c.record(4);
        c.record(27);
        assert_eq!(c.percentile(0.50), 9);
        assert_eq!(c.percentile(0.99), 27); // bucket hi 29 clamped to max
        assert_eq!(Histogram::linear(4).percentile(0.5), 0); // empty
    }

    #[test]
    fn log2_percentiles() {
        let mut h = Histogram::log2();
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        assert_eq!(h.percentile(0.50), 1);
        assert_eq!(h.percentile(0.90), 1);
        assert_eq!(h.percentile(0.99), 1000); // bucket hi 1023 clamped to max
        let mut z = Histogram::log2();
        z.record(0);
        assert_eq!(z.percentile(0.99), 0);
        z.record(u64::MAX);
        assert_eq!(z.percentile(1.0), u64::MAX);
        assert_eq!(Histogram::log2().percentile(0.5), 0); // empty
    }

    #[test]
    fn percentiles_in_json() {
        let mut h = Histogram::linear(1);
        for v in 1..=10u64 {
            h.record(v);
        }
        let j = h.to_json();
        assert_eq!(j.get("p50").and_then(Json::as_u64), Some(5));
        assert_eq!(j.get("p90").and_then(Json::as_u64), Some(9));
        assert_eq!(j.get("p99").and_then(Json::as_u64), Some(10));
        let lj = Histogram::log2().to_json();
        assert_eq!(lj.get("p99").and_then(Json::as_u64), Some(0));
    }
}

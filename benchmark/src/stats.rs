//! The statistics core: every timing the benchmark reports is the
//! median of per-slice values, and the artifact keeps the slices.

use crate::json::Value;

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Sub-buckets per octave of [`LogHist`], as a power of two: 128, each
/// under 0.8 % wide.
const SUB_BITS: u32 = 7;

/// A log-linear histogram of nanosecond samples. The closed loops record
/// every operation into one: its size does not depend on how many
/// operations a slice completes, so neither does the peak RSS the run
/// reports (a sample vector grew with the throughput it measured).
pub struct LogHist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHist {
    pub fn new() -> Self {
        Self {
            counts: vec![0; ((64 - SUB_BITS + 1) as usize) << SUB_BITS],
            n: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < 1 << SUB_BITS {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros();
        let sub = (v >> (octave - SUB_BITS)) as usize & ((1 << SUB_BITS) - 1);
        ((octave - SUB_BITS + 1) as usize) << SUB_BITS | sub
    }

    /// Lower edge and width of bucket `i`.
    fn bucket(i: usize) -> (u64, u64) {
        let (row, sub) = (i >> SUB_BITS, (i & ((1 << SUB_BITS) - 1)) as u64);
        match row {
            0 => (sub, 1),
            _ => {
                let shift = row as u32 - 1;
                (((1 << SUB_BITS) | sub) << shift, 1 << shift)
            }
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.n = 0;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Quantiles in microseconds, `qs` ascending; samples are taken as
    /// spread evenly over their bucket.
    pub fn percentiles_us(&self, qs: &[f64]) -> Vec<f64> {
        if self.n == 0 {
            return vec![f64::NAN; qs.len()];
        }
        let mut out = Vec::with_capacity(qs.len());
        let (mut i, mut below) = (0usize, 0u64);
        for &q in qs {
            let pos = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
            while (below + self.counts[i]) as f64 <= pos {
                below += self.counts[i];
                i += 1;
            }
            let (lo, width) = Self::bucket(i);
            let share = (pos - below as f64 + 0.5) / self.counts[i] as f64;
            out.push((lo as f64 + share * width as f64) / 1e3);
        }
        out
    }
}

/// One reported metric: the median of its per-slice values plus what
/// the artifact needs to judge it (slices, min/max, IQR).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub slices: Vec<f64>,
    /// A qualifier the artifact must carry, such as `timesliced`.
    pub tag: Option<&'static str>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, slices: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            unit,
            slices,
            tag: None,
        }
    }

    pub fn tagged(mut self, tag: Option<&'static str>) -> Self {
        self.tag = tag;
        self
    }

    /// A metric measured once (a count, a virtual time, a ratio).
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self::new(name, unit, vec![value])
    }

    pub fn value(&self) -> f64 {
        median(&self.slices)
    }

    pub fn to_json(&self) -> Value {
        let s = sorted(&self.slices);
        let mut v = Value::obj()
            .with("value", self.value())
            .with("unit", self.unit);
        if let Some(tag) = self.tag {
            v = v.with(tag, true);
        }
        if s.len() > 1 {
            v = v
                .with("slices", self.slices.as_slice())
                .with("min", s[0])
                .with("max", s[s.len() - 1])
                .with("iqr", quantile_sorted(&s, 0.75) - quantile_sorted(&s, 0.25));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile_sorted(&[0.0, 10.0], 0.25), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        let mut edge = 0u64;
        for i in 0..(20usize << SUB_BITS) {
            let (lo, width) = LogHist::bucket(i);
            assert_eq!(lo, edge, "bucket {i}");
            assert_eq!(LogHist::index(lo), i);
            assert_eq!(LogHist::index(lo + width - 1), i);
            edge = lo + width;
        }
        assert!(LogHist::index(u64::MAX) < LogHist::new().counts.len());
    }

    #[test]
    fn histogram_percentiles_track_the_samples() {
        let mut h = LogHist::new();
        for v in 0..100_000u64 {
            h.record(50_000 + v);
        }
        let p = h.percentiles_us(&[0.0, 0.5, 0.9, 1.0]);
        for (got, want) in p.iter().zip([50.0, 100.0, 140.0, 150.0]) {
            assert!((got - want).abs() < 0.004 * want, "{got} vs {want}");
        }
        h.clear();
        assert_eq!(h.count(), 0);
        assert!(h.percentiles_us(&[0.5])[0].is_nan());
        h.record(7);
        assert_eq!(h.percentiles_us(&[0.5]), vec![0.0075]);
    }
}

//! Sample collection and order statistics.

use std::collections::BTreeMap;

/// Latency samples per named class, in microseconds. A failed or refused
/// operation is recorded as `f64::INFINITY`: it misses every latency limit,
/// so it sorts above every completed sample.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    classes: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    /// Records one completed sample.
    pub fn push(&mut self, class: &'static str, us: f64) {
        self.classes.entry(class).or_default().push(us);
    }

    /// Records one failed operation of `class`.
    pub fn push_failed(&mut self, class: &'static str) {
        self.push(class, f64::INFINITY);
    }

    /// Appends every sample of `other`.
    pub fn merge(&mut self, other: Samples) {
        for (class, values) in other.classes {
            self.classes.entry(class).or_default().extend(values);
        }
    }

    /// The samples of one class (empty when it never occurred).
    pub fn get(&self, class: &str) -> &[f64] {
        self.classes.get(class).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between order statistics; `NaN` when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || sorted[hi].is_infinite() {
        return sorted[hi];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p99/p90/p50 that has at least ten samples above it, as
/// `(label, quantile)`: a tail percentile is only reported when it rests
/// on enough samples beyond it.
pub fn tail_quantile(n: usize) -> (&'static str, f64) {
    if n >= 1000 {
        ("p99", 0.99)
    } else if n >= 100 {
        ("p90", 0.90)
    } else {
        ("p50", 0.50)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_failures_sort_last() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        let with_failure = [1.0, 2.0, f64::INFINITY];
        assert_eq!(median(&with_failure), 2.0);
        assert!(quantile(&with_failure, 0.99).is_infinite());
        assert!(median(&[]).is_nan());
    }
}

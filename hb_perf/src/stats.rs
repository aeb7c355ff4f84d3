//! Median and quartiles of a handful of samples.

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Interquartile distance as a share of the median: the run-to-run
    /// spread the bounds are judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th of the three quartile cut points, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so a
/// spread printed here is the spread the acceptance driver computes.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Summarises `values`; an empty slice summarises to zeros with `n = 0`.
pub fn summarize(values: &[f64]) -> Summary {
    if values.is_empty() {
        return Summary {
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
            n: 0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        median: quartile(&sorted, 2),
        q1: quartile(&sorted, 1),
        q3: quartile(&sorted, 3),
        n: sorted.len(),
    }
}

/// Median alone.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let s = summarize(&[8.0, 1.0, 4.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 3.0, 7.0));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(summarize(&[]).n, 0);
        let s = summarize(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(s.spread(), 0.0);
        assert!((summarize(&[9.0, 10.0, 11.0]).spread() - 0.2).abs() < 1e-12);
    }
}

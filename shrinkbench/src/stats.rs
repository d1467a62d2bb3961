//! Order statistics of repeated timings.

/// Median and quartiles of a sample, with its size. The quartiles use the
/// `n + 1` ("exclusive") method of Python's `statistics.quantiles`, so the
/// spread printed here is the one a driver computing it that way sees.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the two middle values for even `n`).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample size.
    pub n: usize,
}

impl Summary {
    /// Summarize `values`.
    ///
    /// # Panics
    /// On an empty sample or a NaN.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n < 2 {
            return Summary {
                median,
                q1: median,
                q3: median,
                n,
            };
        }
        let quantile = |j: f64| {
            // Position j·(n+1)/4 counted from 1, clamped into the sample.
            let pos = (j * (n as f64 + 1.0) / 4.0).clamp(1.0, n as f64);
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            if lo >= n {
                v[n - 1]
            } else {
                v[lo - 1] + frac * (v[lo] - v[lo - 1])
            }
        };
        Summary {
            median,
            q1: quantile(1.0),
            q3: quantile(3.0),
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
    }
}

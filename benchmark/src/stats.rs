//! Order statistics for timing samples.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Linear-interpolated quantile of a non-empty sorted slice, `q` in `[0, 1]`.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median; `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    quantile_sorted(&sorted(samples), 0.5)
}

/// The `p`-th percentile (`0 < p < 100`), refused unless at least
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it: a tail percentile resting on
/// fewer points is one outlier away from a different number.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p < 100.0) {
        return Err(format!("percentile {p} is outside (0, 100)"));
    }
    let beyond = (samples.len() as f64 * (100.0 - p) / 100.0 + 1e-9).floor() as usize;
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{p} of {} samples has {beyond} samples beyond it; {MIN_TAIL_SAMPLES} are required",
            samples.len()
        ));
    }
    Ok(quantile_sorted(&sorted(samples), p / 100.0))
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) — the run-to-run spread the driver computes.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return f64::NAN;
    }
    let cut = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0; // 1-based position
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (cut(3) - cut(1)) / quantile_sorted(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        assert!(percentile(&fifty, 80.0).is_ok()); // exactly 10 beyond
        assert!(percentile(&fifty[..49], 80.0).is_err()); // 9 beyond
        assert!(percentile(&fifty, 90.0).is_err()); // 5 beyond
        assert!(percentile(&fifty, 50.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&fifty, 100.0).is_err());
    }

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert!((percentile(&v, 80.0).unwrap() - 80.0).abs() < 1e-12);
        assert!((median(&v) - 50.0).abs() < 1e-12);
        assert!((median(&[3.0, 1.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}

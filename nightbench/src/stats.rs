//! Order statistics for the reported figures.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the "exclusive" method).
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The tail percentile of `xs`: the highest of p99.9, p99, p95, p90,
/// p75, p50 with at least ten samples beyond it, by nearest rank.
/// Returns the value and its label; with fewer than 20 samples no
/// percentile qualifies, and the maximum is returned as `"max"`.
pub fn tail(xs: &[f64]) -> (f64, &'static str) {
    let v = sorted(xs);
    let n = v.len() as f64;
    for (p, label) in
        [(99.9, "p99.9"), (99.0, "p99"), (95.0, "p95"), (90.0, "p90"), (75.0, "p75"), (50.0, "p50")]
    {
        if n * (1.0 - p / 100.0) >= 10.0 {
            let rank = ((p / 100.0 * n).ceil() as usize).clamp(1, v.len());
            return (v[rank - 1], label);
        }
    }
    (v.last().copied().unwrap_or(f64::NAN), "max")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&xs), 5.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs), (190.0, "p95"));
        assert_eq!(tail(&[1.0, 2.0]), (2.0, "max"));
    }
}

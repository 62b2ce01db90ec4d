//! Estimators: the fastest-round throughput estimator, percentiles with
//! the sample-count rule, and quartiles.

/// The sum over units of each unit's fastest round.
///
/// `times[u][r]` is how long unit `u` took in round `r`. The host this
/// benchmark runs on switches between a fast and a slow speed regime for
/// seconds at a time, so a round median moves with the regime the run
/// happened to land in; the fastest of several interleaved rounds of the
/// same deterministic unit does not.
pub fn fastest_round_total(times: &[Vec<f64>]) -> f64 {
    times.iter().map(|rounds| rounds.iter().copied().fold(f64::INFINITY, f64::min)).sum()
}

/// The median (the mean of the middle two values for an even count;
/// NaN for no values).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method), so spreads printed here match that tool. A
/// single value is its own quartiles; no values give NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return [v.first().copied().unwrap_or(f64::NAN); 3];
    }
    let m = len + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        // Negative at the clamped ends, where Python extrapolates.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`); NaN for no
/// values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), p) - 1]
}

/// The highest tail percentile that `n` samples support: the highest of
/// p99.9, p99, p95, p90 and p75 with at least ten samples beyond it, or
/// `None` when even p75 has fewer (only the median is then meaningful).
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0].into_iter().find(|&p| n - rank(n, p) >= 10)
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_estimator_sums_each_units_fastest_round() {
        // Round 2 ran in the slow regime for unit 0 and round 1 for
        // unit 1: neither slow reading survives.
        let times = vec![vec![1.0, 1.5, 1.1], vec![2.6, 2.0, 2.2]];
        assert_eq!(fastest_round_total(&times), 3.0);
        // Not the fastest round overall (1.0 + 2.6 or 1.1 + 2.2).
        let round_totals: Vec<f64> = (0..3).map(|r| times[0][r] + times[1][r]).collect();
        assert!(round_totals.iter().all(|&t| t > 3.0));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        // At 100 samples p90 is the 90th value: exactly ten lie beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 90.0)).count(), 10);
        assert_eq!(percentile(&v, 50.0), 50.0);
    }
}

//! The estimators: quartiles as Python's `statistics.quantiles(n=4)`
//! gives them (so this program and the driver agree), and the
//! best-quartile-of-windows statistic every timing metric reports.
//!
//! Why the best quartile: interference on a shared host only ever slows a
//! window, and comes in ~10 s episodes. The whole-run mean absorbs every
//! episode; the median survives episodes covering under half the run; the
//! quartile on the good side survives up to ~70 %.

/// `[q1, median, q3]` of `values` — `statistics.quantiles(values, n=4)`,
/// the default "exclusive" method. One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n == 1 {
        return [data[0]; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// The quartile on the good side of the per-window values: upper for a
/// rate, lower for a time.
pub fn best_quartile(windows: &[f64], better: Better) -> f64 {
    let [q1, _, q3] = quartiles(windows);
    // With two or three windows the exclusive method extrapolates past the
    // data; a run never reports a window it did not have.
    let (lo, hi) = windows
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &w| (lo.min(w), hi.max(w)));
    match better {
        Better::Higher => q3.min(hi),
        Better::Lower => q1.max(lo),
    }
}

/// Windows more than 20 % worse than `reported` (rate windows below
/// 0.8 × it) — how much of the run an interference episode covered.
pub fn disturbed(rate_windows: &[f64], reported: f64) -> usize {
    rate_windows.iter().filter(|&&w| w < 0.8 * reported).count()
}

/// The `p`-th percentile (0–100) of unsorted samples, nearest-rank.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles(range(1, 16), n=4) == [4.0, 8.0, 12.0]
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(quartiles(&v), [4.0, 8.0, 12.0]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    /// 15 throughput windows at a true rate of 1000 ± 1 %, `slow` of them
    /// inside an interference episode at 0.6 ×.
    fn windows(slow: usize) -> Vec<f64> {
        (0..15)
            .map(|i| {
                let wobble = 1.0 + ((i * 7 % 5) as f64 - 2.0) * 0.005;
                let episode = if i < slow { 0.6 } else { 1.0 };
                1000.0 * wobble * episode
            })
            .collect()
    }

    #[test]
    fn best_quartile_survives_episodes_that_sink_the_mean_and_median() {
        for slow in [0, 5, 10] {
            let w = windows(slow);
            let reported = best_quartile(&w, Better::Higher);
            assert!(
                (reported - 1000.0).abs() <= 10.0,
                "{slow} disturbed: reported {reported}"
            );
            assert_eq!(disturbed(&w, reported), slow);
        }
        let w = windows(10);
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        assert!(mean < 800.0 && median(&w) < 700.0);
    }

    #[test]
    fn best_quartile_of_a_short_run_stays_inside_the_data() {
        assert_eq!(best_quartile(&[80.0, 70.0], Better::Higher), 80.0);
        assert_eq!(best_quartile(&[80.0, 70.0], Better::Lower), 70.0);
        assert_eq!(best_quartile(&[5.0], Better::Higher), 5.0);
    }

    #[test]
    fn best_quartile_of_times_is_the_low_side() {
        let times: Vec<f64> = windows(5).iter().map(|r| 1e6 / r).collect();
        let reported = best_quartile(&times, Better::Lower);
        assert!((reported - 1000.0).abs() <= 10.0, "{reported}");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut s, 50.0), 50.0);
        assert_eq!(percentile(&mut s, 99.0), 99.0);
        assert_eq!(percentile(&mut [5.0], 99.0), 5.0);
    }
}

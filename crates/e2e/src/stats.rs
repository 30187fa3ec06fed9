//! Percentiles and run-to-run spread.

/// Ascending copy of `v` (`total_cmp`, so NaN cannot panic the sort).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. NaN when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// The highest of the reported percentiles that keeps at least ten samples
/// beyond it (choosing-metrics §1); `None` below 20 samples, where even the
/// median does not.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// Contiguous slices a measured window is cut into. The host this runs on
/// slows down for seconds at a time, whatever the program does; the
/// end-to-end latency and rate are taken from the quietest slice, as a
/// best-of-N timing is, so that such a spell moves them only when it
/// covers the whole window.
pub const SLICES: usize = 5;

fn slices<T>(in_time_order: &[T]) -> std::slice::Chunks<'_, T> {
    in_time_order.chunks(in_time_order.len().div_ceil(SLICES).max(1))
}

/// The lowest median among the window's slices. NaN when empty.
pub fn quietest_p50(in_time_order: &[f64]) -> f64 {
    slices(in_time_order)
        .map(|s| percentile(&sorted(s), 0.5))
        .fold(f64::NAN, f64::min)
}

/// The highest completion rate among the window's slices, per second, from
/// ascending completion times in seconds since the window opened.
pub fn best_rate(done_s: &[f64]) -> f64 {
    let mut opened = 0.0;
    let mut best = f64::NAN;
    for s in slices(done_s) {
        let closed = s[s.len() - 1];
        best = best.max(s.len() as f64 / (closed - opened));
        opened = closed;
    }
    best
}

/// Median of a set of runs (mean of the middle two when even).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` gives them (the
/// exclusive method), so `compare` judges spread the way the driver does.
/// Needs at least two values.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(v: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(v);
    (q3 - q1) / median(v).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.91), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_selection_keeps_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(99), Some(0.75));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(199), Some(0.9));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn a_slow_spell_shorter_than_the_window_leaves_the_quiet_slices() {
        // 100 calls of 10 ms; a 3x slow spell covers calls 30..90.
        let lat: Vec<f64> = (0..100)
            .map(|i| if (30..90).contains(&i) { 30.0 } else { 10.0 })
            .collect();
        let mut at = 0.0;
        let done: Vec<f64> = lat
            .iter()
            .map(|l| {
                at += l / 1e3;
                at
            })
            .collect();
        assert_eq!(quietest_p50(&lat), 10.0);
        assert!((best_rate(&done) - 100.0).abs() < 1e-6);
        // The whole-window numbers carry the spell.
        assert_eq!(percentile(&sorted(&lat), 0.5), 30.0);
        assert!(lat.len() as f64 / at < 50.0);
        // A slowdown of the whole window shows in full.
        let slow: Vec<f64> = lat.iter().map(|_| 12.0).collect();
        assert_eq!(quietest_p50(&slow), 12.0);
        assert!(quietest_p50(&[]).is_nan() && best_rate(&[]).is_nan());
        assert_eq!(quietest_p50(&[3.0, 1.0]), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}

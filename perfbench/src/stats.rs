//! Order statistics, the tail-percentile rule, and the open-loop
//! saturation detectors.

/// A sorted copy of `samples` (total order, so NaNs cannot scramble it).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The median (mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile of already sorted samples: the smallest
/// value with at least `q · n` samples at or below it.
fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = nc_substrate::fixed::sat_usize_trunc((q * n as f64).ceil()).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Nearest-rank percentile `q` (in `[0, 1]`) of `samples`.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    nearest_rank(&sorted(samples), q)
}

/// The tail percentile actually reported for a wanted one: the highest
/// percentile, at most `want`, that still has at least `min_beyond`
/// samples above it. Returns `(percentile used, value)`, or `None` when
/// there are not more than `min_beyond` samples at all.
///
/// With 10 beyond and 2 000 samples, `want = 0.99` is honoured (20 lie
/// beyond it); with 500 samples the answer is the 98th percentile.
pub fn tail_percentile(samples: &[f64], want: f64, min_beyond: usize) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= min_beyond {
        return None;
    }
    let cap = (n - min_beyond) as f64 / n as f64;
    let q = want.min(cap);
    nearest_rank(&sorted(samples), q).map(|v| (q, v))
}

/// The lower quartile (nearest rank) — the good side of a time series.
/// Host interference only ever adds time, so over repeats of the same
/// work this reads the program with the least host noise while staying
/// clear of a single unusually fast repeat.
pub fn good_time(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.25)
}

/// The upper quartile (nearest rank) — the good side of a rate series.
pub fn good_rate(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.75)
}

/// Windowed latency percentiles: the lower quartile over windows
/// ([`good_time`]) of each window's p50, and of each window's tail
/// percentile (`want`, or the highest one with ten samples beyond it,
/// but never below the median: a window of 20 samples or fewer
/// contributes its median). Returns `(p50, tail, lowest percentile
/// used)`, or `None` when every window is empty.
pub fn windowed_percentiles(windows: &[Vec<f64>], want: f64) -> Option<(f64, f64, f64)> {
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    let mut used = 1.0f64;
    for w in windows.iter().filter(|w| !w.is_empty()) {
        let s = sorted(w);
        let p50 = nearest_rank(&s, 0.5)?;
        p50s.push(p50);
        let (q, v) = tail_percentile(&s, want, 10)
            .filter(|&(q, _)| q >= 0.5)
            .unwrap_or((0.5, p50));
        used = used.min(q);
        tails.push(v);
    }
    Some((good_time(&p50s)?, good_time(&tails)?, used))
}

/// One rung of the open-loop rate ladder, as the max-rate rule sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered arrival rate, requests per second.
    pub rate: f64,
    /// Tail latency from due time at that rate, ms.
    pub p99_ms: f64,
    /// Whether the backlog grew over the rung.
    pub growing: bool,
}

/// Whether a backlog series `(time, requests waiting)` grows: the mean of
/// its last quarter exceeds the mean of its first quarter by more than
/// `slack` requests. A server keeping up oscillates around a constant
/// level; one that cannot keep up accumulates arrivals linearly.
pub fn backlog_growing(series: &[(f64, f64)], slack: f64) -> bool {
    let quarter = series.len() / 4;
    if quarter == 0 {
        return false;
    }
    let mean = |part: &[(f64, f64)]| part.iter().map(|&(_, b)| b).sum::<f64>() / part.len() as f64;
    let first = mean(&series[..quarter]);
    let last = mean(&series[series.len() - quarter..]);
    last > first + slack
}

/// The highest rate of an ascending ladder at which the server kept
/// its tail latency within `limit_ms` without a growing backlog. The
/// ladder stops at its first failing rung: a rate above a failure does
/// not count even if it happens to pass. `None` when even the first
/// rung fails.
pub fn max_sustainable_rate(rungs: &[Rung], limit_ms: f64) -> Option<f64> {
    rungs
        .iter()
        .take_while(|r| r.p99_ms <= limit_ms && !r.growing)
        .last()
        .map(|r| r.rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_substrate::rng::SplitMix64;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn good_side_quartiles() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(good_time(&v), Some(2.0));
        assert_eq!(good_rate(&v), Some(6.0));
        assert_eq!(good_time(&[5.0]), Some(5.0));
        assert_eq!(good_rate(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_and_matches_sorted_reference() {
        let mut rng = SplitMix64::new(7);
        for n in [11usize, 50, 500, 999, 1000, 1001, 2000, 12_345] {
            let samples: Vec<f64> = (0..n).map(|_| rng.next_unit() * 100.0).collect();
            let (q, value) = tail_percentile(&samples, 0.99, 10).unwrap();
            let mut reference = samples.clone();
            reference.sort_by(f64::total_cmp);
            let beyond = reference.iter().filter(|&&x| x > value).count();
            assert!(beyond >= 10, "n={n}: only {beyond} samples beyond p{q}");
            // It is the highest such percentile: one rank higher would
            // leave fewer than ten beyond it, or exceed the wanted p99.
            let rank = reference.iter().position(|&x| x == value).unwrap() + 1;
            let higher_rank_ok = n - (rank + 1) >= 10 && (rank + 1) as f64 <= 0.99 * n as f64;
            assert!(!higher_rank_ok, "n={n}: rank {rank} is not the highest");
            // Cross-check against the textbook nearest-rank index.
            let expected = reference[((q * n as f64).ceil() as usize).max(1) - 1];
            assert_eq!(value, expected, "n={n}");
        }
        assert_eq!(tail_percentile(&[1.0; 10], 0.99, 10), None);
    }

    #[test]
    fn windowed_percentiles_take_the_good_quartile_window() {
        let calm: Vec<f64> = (1..=2000).map(f64::from).collect();
        let stormy: Vec<f64> = calm.iter().map(|x| x * 100.0).collect();
        let windows = vec![
            stormy.clone(),
            calm.clone(),
            stormy,
            calm.clone(),
            Vec::new(),
        ];
        let (p50, p99, q) = windowed_percentiles(&windows, 0.99).unwrap();
        assert_eq!((p50, p99, q), (1000.0, 1980.0, 0.99));
        let p90 = windowed_percentiles(&windows, 0.9);
        assert_eq!(p90, Some((1000.0, 1800.0, 0.9)));
        let small = vec![vec![1.0, 2.0, 3.0]];
        assert_eq!(windowed_percentiles(&small, 0.9), Some((2.0, 2.0, 0.5)));
        let twenty_five: Vec<f64> = (1..=25).map(f64::from).collect();
        let tail = windowed_percentiles(&[twenty_five], 0.9);
        assert_eq!(tail, Some((13.0, 15.0, 0.6)));
        assert_eq!(windowed_percentiles(&[], 0.99), None);
    }

    #[test]
    fn tail_percentile_honours_p99_when_samples_allow() {
        let samples: Vec<f64> = (1..=2000).map(f64::from).collect();
        let (q, value) = tail_percentile(&samples, 0.99, 10).unwrap();
        assert_eq!(q, 0.99);
        assert_eq!(value, 1980.0);
        let (q, value) = tail_percentile(&samples[..500], 0.99, 10).unwrap();
        assert_eq!(q, 0.98);
        assert_eq!(value, 490.0);
        assert_eq!(percentile(&samples, 0.5), Some(1000.0));
    }

    /// A synthetic open-loop server of fixed capacity: below it the
    /// backlog stays flat and latency is service time; above it the
    /// backlog grows linearly and queueing delay explodes.
    fn synthetic_rung(rate: f64, capacity: f64) -> Rung {
        let series: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let t = f64::from(i) * 0.01;
                let backlog = if rate <= capacity {
                    4.0 + f64::from(i % 3)
                } else {
                    (rate - capacity) * t
                };
                (t, backlog)
            })
            .collect();
        let utilisation = (rate / capacity).min(0.999);
        let p99_ms = if rate <= capacity {
            1.0 / (1.0 - utilisation)
        } else {
            100.0
        };
        Rung {
            rate,
            p99_ms,
            growing: backlog_growing(&series, 32.0),
        }
    }

    #[test]
    fn detector_finds_the_expected_rate_on_synthetic_series() {
        let ladder: Vec<f64> = (0..12).map(|k| 2000.0 * 1.25f64.powi(k)).collect();
        // Capacity 20k/s: every rung up to 14 901/s keeps p99 below
        // 5 ms and a flat backlog; 18 626/s is within capacity but its
        // queueing delay breaks the limit; 23 283/s overloads.
        let rungs: Vec<Rung> = ladder
            .iter()
            .map(|&r| synthetic_rung(r, 20_000.0))
            .collect();
        assert!(!rungs[9].growing && rungs[10].p99_ms > 5.0);
        assert!(rungs[11].growing);
        assert_eq!(max_sustainable_rate(&rungs, 5.0), Some(ladder[9]));
        // A looser limit admits the rung just under capacity, but never
        // one with a growing backlog.
        assert_eq!(max_sustainable_rate(&rungs, 50.0), Some(ladder[10]));
        assert_eq!(max_sustainable_rate(&rungs, 1e9), Some(ladder[10]));
        // A pass above a failure does not count.
        let mut gapped = rungs.clone();
        gapped[3].growing = true;
        assert_eq!(max_sustainable_rate(&gapped, 5.0), Some(ladder[2]));
        assert_eq!(max_sustainable_rate(&gapped[3..], 5.0), None);
    }

    #[test]
    fn backlog_detector_ignores_noise_and_flags_growth() {
        let flat: Vec<(f64, f64)> = (0..40).map(|i| (f64::from(i), f64::from(i % 9))).collect();
        assert!(!backlog_growing(&flat, 32.0));
        let growing: Vec<(f64, f64)> = (0..40)
            .map(|i| (f64::from(i), f64::from(i) * 4.0))
            .collect();
        assert!(backlog_growing(&growing, 32.0));
        assert!(!backlog_growing(&growing[..3], 32.0));
    }
}

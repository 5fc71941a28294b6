//! Order statistics over benchmark samples. Everything reported is a
//! median or a percentile with its sample count — never a best-of-N.

/// Nearest-rank percentile `p ∈ [0, 1]` of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample ascending (samples never hold NaN: they are durations
/// and counts).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.50)
}

/// Throughput of each of `slices` equal-count slices of a window, given
/// the ascending completion times (µs from the window's start) of its
/// queries: a host stall then slows one slice, not the run's number.
pub fn sliced_throughput(completed_at_us: &[f64], slices: usize) -> Vec<f64> {
    let n = completed_at_us.len();
    let slices = slices.min(n).max(1);
    let mut out = Vec::with_capacity(slices);
    let (mut from, mut from_us) = (0, 0.0);
    for s in 1..=slices {
        let to = s * n / slices;
        let to_us = completed_at_us[to - 1];
        out.push((to - from) as f64 / (to_us - from_us) * 1e6);
        (from, from_us) = (to, to_us);
    }
    out
}

/// Percentile `p` of each of `slices` equal-count slices of a sample
/// taken in time order.
pub fn sliced_percentile(in_order: &[f64], slices: usize, p: f64) -> Vec<f64> {
    let n = in_order.len();
    let slices = slices.min(n).max(1);
    (0..slices)
        .map(|s| {
            percentile(
                &sorted(in_order[s * n / slices..(s + 1) * n / slices].to_vec()),
                p,
            )
        })
        .collect()
}

/// The highest of a fixed ladder of percentiles that still has at least
/// ten samples beyond it in a sample of `n` — the tail a sample of this
/// size can support. `None` below 100 samples.
pub fn supported_tail(n: usize) -> Option<f64> {
    // (numerator, denominator) so the rank arithmetic is exact.
    [
        (9_999, 10_000),
        (999, 1_000),
        (995, 1_000),
        (99, 100),
        (95, 100),
        (90, 100),
    ]
    .into_iter()
    .find(|&(num, den)| n - (n * num).div_ceil(den) >= 10)
    .map(|(num, den)| num as f64 / den as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_is_order_independent() {
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0, 4.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.0);
    }

    #[test]
    fn sliced_throughput_isolates_a_stall() {
        // 1 query per ms, except a 50 ms stall before the 6th.
        let mut at: Vec<f64> = (1..=10).map(|i| f64::from(i) * 1_000.0).collect();
        at.iter_mut().skip(5).for_each(|t| *t += 50_000.0);
        let per_slice = sliced_throughput(&at, 5);
        assert_eq!(per_slice.len(), 5);
        assert!((per_slice[0] - 1_000.0).abs() < 1e-9);
        assert!((per_slice[2] - 2.0 / 0.052).abs() < 1e-9);
        assert!((per_slice[4] - 1_000.0).abs() < 1e-9);
        assert!((median(&per_slice) - 1_000.0).abs() < 1e-9);
        assert_eq!(sliced_throughput(&[500.0], 10), vec![2_000.0]);
        // The same stall as latencies: one slice's p99 sees it, the
        // median of the slices' p99s does not.
        let mut lat = vec![1.0; 100];
        lat[55] = 50_000.0;
        let p99s = sliced_percentile(&lat, 10, 0.99);
        assert_eq!(p99s.iter().filter(|&&v| v > 1.0).count(), 1);
        assert_eq!(median(&p99s), 1.0);
    }

    #[test]
    fn supported_tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(2_500), Some(0.995));
        assert_eq!(supported_tail(60_000), Some(0.999));
        assert_eq!(supported_tail(100_000), Some(0.9999));
    }
}

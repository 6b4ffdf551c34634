//! Percentiles, medians and the "ten samples beyond" tail rule.

/// Candidate tail percentiles, as parts per ten thousand.
const TAILS: [(u32, &str); 6] = [
    (7500, "p75"),
    (9000, "p90"),
    (9500, "p95"),
    (9900, "p99"),
    (9990, "p99.9"),
    (9999, "p99.99"),
];

/// Samples a tail percentile must leave above its own rank to be
/// reported: with fewer, the value is one or two outliers, not a
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `pptt`/10000 quantile among `n` samples.
fn rank(n: usize, pptt: u32) -> usize {
    (n * pptt as usize).div_ceil(10_000).clamp(1, n)
}

/// The `pptt`/10000 quantile of an ascending slice (nearest rank).
pub fn quantile(sorted: &[u64], pptt: u32) -> u64 {
    sorted[rank(sorted.len(), pptt) - 1]
}

/// The highest candidate percentile that leaves at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even p75 does not.
pub fn tail_choice(n: usize) -> Option<(u32, &'static str)> {
    TAILS
        .iter()
        .rev()
        .find(|(pptt, _)| n > 0 && n - rank(n, *pptt) >= MIN_BEYOND)
        .copied()
}

/// Median and chosen tail of one round's latencies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    pub count: usize,
    pub p50: u64,
    pub tail: u64,
    pub tail_label: &'static str,
}

/// Summarises one round. With too few samples for any tail the maximum
/// stands in, labelled `max`, so the metric is never silently absent.
pub fn summarize(samples: &mut [u64]) -> LatencySummary {
    assert!(!samples.is_empty(), "a round measures at least one op");
    samples.sort_unstable();
    let (tail, tail_label) = match tail_choice(samples.len()) {
        Some((pptt, label)) => (quantile(samples, pptt), label),
        None => (samples[samples.len() - 1], "max"),
    };
    LatencySummary {
        count: samples.len(),
        p50: quantile(samples, 5000),
        tail,
        tail_label,
    }
}

/// Median of floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 sits at rank 990 and leaves exactly 10 beyond.
        assert_eq!(tail_choice(1000), Some((9900, "p99")));
        // One fewer sample leaves 9 beyond p99, so p95 is reported.
        assert_eq!(tail_choice(999), Some((9500, "p95")));
        // 110 cold opens: p90 leaves 11, p95 leaves 5.
        assert_eq!(tail_choice(110), Some((9000, "p90")));
        assert_eq!(tail_choice(100), Some((9000, "p90")));
        assert_eq!(tail_choice(99), Some((7500, "p75")));
        assert_eq!(tail_choice(40), Some((7500, "p75")));
        assert_eq!(tail_choice(39), None);
        assert_eq!(tail_choice(0), None);
        assert_eq!(tail_choice(100_000), Some((9999, "p99.99")));
    }

    #[test]
    fn summary_uses_nearest_rank() {
        let mut s: Vec<u64> = (1..=1000).rev().collect();
        let sum = summarize(&mut s);
        assert_eq!(
            (sum.count, sum.p50, sum.tail, sum.tail_label),
            (1000, 500, 990, "p99")
        );
        let mut few = vec![5, 1, 3];
        let sum = summarize(&mut few);
        assert_eq!((sum.p50, sum.tail, sum.tail_label), (3, 5, "max"));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

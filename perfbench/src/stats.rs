//! Order statistics for latency samples.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it; with fewer, the value would be decided by a handful of
//! outliers and would not repeat from run to run.

use caf_core::rng::SplitMix64;

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first, by [`tail`].
const TAILS: [f64; 3] = [0.999, 0.99, 0.9];

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    // 1-based nearest rank: the smallest value with at least q·n samples
    // at or below it.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The highest of p99.9, p99 and p90 that [`percentile`] can report, as
/// `(q, value)`.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAILS.iter().find_map(|&q| percentile(samples, q).map(|v| (q, v)))
}

/// A sample, and whether it was measured while the hypervisor stole no
/// CPU time from this machine.
pub type Tagged = (f64, bool);

/// Unstolen samples a run needs before the others are left out: enough
/// for a median under the percentile rule.
const MIN_UNSTOLEN: usize = 2 * MIN_BEYOND;

/// The samples measured while no CPU time was stolen, and their share of
/// all samples; or every sample, when too few were unstolen for a median.
/// On a shared host, stolen time stretches whatever it lands in by an
/// amount that has nothing to do with the program under test.
pub fn unstolen(samples: &[Tagged]) -> (Vec<f64>, f64) {
    let clean: Vec<f64> = samples.iter().filter(|s| s.1).map(|s| s.0).collect();
    let share = clean.len() as f64 / samples.len().max(1) as f64;
    if clean.len() >= MIN_UNSTOLEN {
        (clean, share)
    } else {
        (samples.iter().map(|s| s.0).collect(), share)
    }
}

/// A uniform random sample of at most `cap` values from a stream
/// (reservoir sampling). A run's sample memory then stays the same however
/// many operations it completes, so the benchmark's own storage does not
/// move `peak_rss_mb`.
pub struct Reservoir<T> {
    values: Vec<T>,
    cap: usize,
    seen: u64,
    rng: SplitMix64,
}

impl<T> Reservoir<T> {
    /// An empty reservoir holding at most `cap` values; `seed` drives
    /// which values are kept.
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir { values: Vec::with_capacity(cap), cap, seen: 0, rng: SplitMix64::new(seed) }
    }

    /// Offers one value.
    pub fn push(&mut self, v: T) {
        self.seen += 1;
        if self.values.len() < self.cap {
            self.values.push(v);
        } else {
            let j = self.rng.next_below(self.seen) as usize;
            if j < self.cap {
                self.values[j] = v;
            }
        }
    }

    /// The values kept.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Values offered.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// The median of a small set of repeats (such as set-up times), which the
/// percentile rule does not apply to: every repeat is a whole measurement,
/// not one sample of a distribution. Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order, so the helper has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_needs_ten_samples_above_it() {
        assert_eq!(percentile(&ramp(19), 0.5), None, "rank 10 of 19 leaves 9 above");
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(21), 0.5), Some(11.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        assert_eq!(tail(&ramp(50)), None, "p90 of 50 has only 5 above");
        assert_eq!(tail(&ramp(100)), Some((0.9, 90.0)));
        assert_eq!(tail(&ramp(5000)), Some((0.99, 4950.0)));
        assert_eq!(tail(&ramp(10_000)), Some((0.999, 9990.0)));
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1000, 7);
        for i in 0..100_000 {
            r.push(i as f64);
        }
        assert_eq!((r.values().len(), r.seen()), (1000, 100_000));
        // The kept values spread over the whole stream: their median sits
        // near the stream's.
        let m = percentile(r.values(), 0.5).expect("1000 samples");
        assert!((40_000.0..60_000.0).contains(&m), "median {m}");
    }

    #[test]
    fn stolen_samples_are_left_out_while_enough_remain() {
        let mut tagged: Vec<Tagged> = (0..30).map(|i| (i as f64, true)).collect();
        tagged.extend((0..10).map(|_| (1e6, false)));
        let (kept, share) = unstolen(&tagged);
        assert_eq!((kept.len(), share), (30, 0.75));
        let few: Vec<Tagged> = (0..30).map(|i| (i as f64, i < 5)).collect();
        let (kept, share) = unstolen(&few);
        assert_eq!(kept.len(), 30, "too few unstolen: keep everything");
        assert!((share - 5.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}

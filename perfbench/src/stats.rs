//! Order statistics and the seeded arrival schedule.
//!
//! Percentiles use the nearest-rank rule on basis points (1/100 of a
//! percent), so the rank arithmetic is exact integer math: the `p`-th
//! percentile of `n` sorted samples is sample number `ceil(n * p / 10000)`
//! (1-based), and the samples beyond it are the `n - rank` that follow.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// The percentiles the picker considers, in basis points, highest first.
const CANDIDATES_BP: [u32; 6] = [9999, 9990, 9900, 9500, 9000, 5000];

/// Fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample, with the counts that support it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The percentile in basis points (9900 = p99).
    pub bp: u32,
    /// Its value.
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples strictly after the chosen rank.
    pub beyond: usize,
}

/// 1-based nearest rank of percentile `bp` among `n` samples (`n > 0`).
fn rank(n: usize, bp: u32) -> usize {
    let bp = bp as usize;
    (n * bp).div_ceil(10_000).max(1)
}

/// Nearest-rank percentile `bp` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], bp: u32) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let r = rank(sorted.len(), bp);
    Percentile {
        bp,
        value: sorted[r - 1],
        n: sorted.len(),
        beyond: sorted.len() - r,
    }
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median has fewer.
pub fn highest_supported(sorted: &[f64]) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    CANDIDATES_BP
        .iter()
        .map(|&bp| percentile(sorted, bp))
        .find(|p| p.beyond >= MIN_BEYOND)
}

/// Whether percentile `bp` has at least [`MIN_BEYOND`] samples beyond it
/// in a sample of `n`.
pub fn supported(n: usize, bp: u32) -> bool {
    n > 0 && n - rank(n, bp) >= MIN_BEYOND
}

/// Sort a sample ascending (NaN-free by construction: every value here
/// is a measured duration or count).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of a non-empty sample (nearest rank, so always a sample value).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 5000).value
}

/// Mean of a sample; 0 for an empty one.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Deterministic Poisson arrival schedule: `n` send times (offsets from
/// the start of a phase) with exponential gaps of mean `1 / rate_qps`.
/// The same `(rate_qps, n, seed)` always gives the same schedule.
pub fn poisson_schedule(rate_qps: f64, n: usize, seed: u64) -> Vec<Duration> {
    assert!(
        rate_qps.is_finite() && rate_qps > 0.0,
        "rate must be positive"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = 0.0_f64;
    (0..n)
        .map(|_| {
            // Inverse CDF of Exp(rate); 1 - U is in (0, 1], so the gap is finite.
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate_qps;
            Duration::from_secs_f64(t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn picker_takes_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 is rank 990 with exactly 10 beyond; p99.9 has 1.
        let p = highest_supported(&ramp(1000)).unwrap();
        assert_eq!((p.bp, p.n, p.beyond), (9900, 1000, 10));
        assert_eq!(p.value, 990.0);
        // One fewer sample leaves p99 with 9 beyond, so p95 is chosen.
        let p = highest_supported(&ramp(999)).unwrap();
        assert_eq!((p.bp, p.n), (9500, 999));
        assert!(p.beyond >= MIN_BEYOND);
        // 10000 samples support p99.9 but not p99.99.
        let p = highest_supported(&ramp(10_000)).unwrap();
        assert_eq!((p.bp, p.beyond), (9990, 10));
        // 20 samples support only the median; 19 support nothing.
        assert_eq!(highest_supported(&ramp(20)).unwrap().bp, 5000);
        assert_eq!(highest_supported(&ramp(19)), None);
        assert_eq!(highest_supported(&[]), None);
    }

    #[test]
    fn supported_matches_picker() {
        assert!(supported(1000, 9900));
        assert!(!supported(999, 9900));
        assert!(!supported(0, 5000));
    }

    #[test]
    fn nearest_rank_is_exact() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 5000).value, 5.0);
        assert_eq!(percentile(&s, 9000).value, 9.0);
        assert_eq!(percentile(&s, 9999).value, 10.0);
        assert_eq!(percentile(&[3.0], 1).value, 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(500.0, 2000, 11);
        assert_eq!(a, poisson_schedule(500.0, 2000, 11));
        assert_ne!(a, poisson_schedule(500.0, 2000, 12));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "send times increase");
        // The mean gap is 1/rate: 2000 arrivals at 500/s take about 4 s.
        let span = a.last().unwrap().as_secs_f64();
        assert!((3.6..4.4).contains(&span), "span {span}");
    }
}

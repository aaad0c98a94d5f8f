//! Period generation.

use rand::Rng;
use rt_core::Time;

/// Draws a period uniformly from `[min, max]` (inclusive) in whole
/// milliseconds — the distribution used by the paper's synthetic experiments
/// (real-time periods in `[10, 1000]` ms, desired security periods in
/// `[1000, 3000]` ms).
///
/// # Panics
///
/// Panics if `min > max` or `min` is zero.
#[must_use]
pub fn uniform_period_ms<R: Rng + ?Sized>(min_ms: u64, max_ms: u64, rng: &mut R) -> Time {
    assert!(min_ms > 0, "periods must be positive");
    assert!(min_ms <= max_ms, "empty period range [{min_ms}, {max_ms}]");
    Time::from_millis(rng.gen_range(min_ms..=max_ms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_periods_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let p = uniform_period_ms(10, 1000, &mut rng);
            assert!(p >= Time::from_millis(10) && p <= Time::from_millis(1000));
        }
    }

    #[test]
    fn uniform_periods_cover_the_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<u64> = (0..2000)
            .map(|_| uniform_period_ms(10, 1000, &mut rng).as_millis())
            .collect();
        assert!(samples.iter().any(|&p| p < 100));
        assert!(samples.iter().any(|&p| p > 900));
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((mean - 505.0).abs() < 30.0);
    }

    #[test]
    fn degenerate_range_returns_the_single_value() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(uniform_period_ms(50, 50, &mut rng), Time::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "empty period range")]
    fn inverted_range_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = uniform_period_ms(100, 10, &mut rng);
    }
}

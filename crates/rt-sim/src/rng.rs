//! A small deterministic pseudo-random number generator.
//!
//! The simulator's attack-injection times (and nothing else) need randomness.
//! Rather than pulling the `rand` crate into the simulation substrate we use
//! a self-contained SplitMix64 generator: 64 bits of state, passes standard
//! statistical test batteries for this use, and makes every experiment fully
//! reproducible from its seed.

/// SplitMix64 pseudo-random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift bounded generation (Lemire); bias is negligible for
        // the bounds used here and determinism is what matters.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn bounded_generation_respects_bounds() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..1000 {
            let v = rng.next_below(10);
            assert!(v < 10);
        }
        // Degenerate bound.
        assert_eq!(rng.next_below(1), 0);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn all_residues_reachable() {
        let mut rng = SplitMix64::new(11);
        let mut seen = [false; 8];
        for _ in 0..512 {
            seen[rng.next_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}

//! Switches and counters shared by the engine's batched analysis paths.
//!
//! Joint period refinement (`hydra-core::batch`) evaluates its candidate
//! period grid [`LANES`] points at a time. The partitioner
//! (`rt-partition`) tests one core at a time, in its heuristic's preference
//! order, through the one response-time recurrence of [`crate::rta`].
//! [`BatchMode`] chooses between those paths and the scalar reference
//! implementations, which stay as differential oracles; [`BatchStats`]
//! counts the partitioner's exact admission tests.

/// The lane width of joint period refinement: one pass carries at most
/// eight candidate periods.
pub const LANES: usize = 8;

/// Whether a caller wants the batched paths or the scalar reference
/// implementations. The scalar path is kept as the differential oracle;
/// both produce bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BatchMode {
    /// Evaluate through the batched paths (default).
    #[default]
    Batch,
    /// Evaluate through the scalar reference implementations.
    Scalar,
}

/// Work counts of the batched partitioner, in a lane histogram.
///
/// The partitioner tests one core at a time, so it records each exact
/// admission test as one single-lane entry: `lanes_filled[1]` counts the
/// exact tests and every other entry stays zero. A core the hyperbolic
/// bound admits records nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// `lanes_filled[k]` counts entries with exactly `k` lanes (index 0 is
    /// unused; kept so indices read naturally).
    pub lanes_filled: [u64; LANES + 1],
}

impl BatchStats {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &BatchStats) {
        for (acc, v) in self.lanes_filled.iter_mut().zip(other.lanes_filled) {
            *acc += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_stats_accumulate_and_merge() {
        let mut a = BatchStats::default();
        a.lanes_filled[1] = 3;
        let mut b = BatchStats::default();
        b.lanes_filled[1] = 2;
        b.lanes_filled[LANES] = 1;
        b.merge(&a);
        assert_eq!(b.lanes_filled[1], 5);
        assert_eq!(b.lanes_filled[LANES], 1);
        assert_eq!(b.lanes_filled.iter().sum::<u64>(), 6);
    }
}

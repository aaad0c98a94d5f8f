//! Batch kernels for the hot analysis math.
//!
//! The sweep engine evaluates thousands of closely related schedulability
//! questions: the same fixed-point recurrence (response-time analysis) over
//! per-core task lists that differ only in one candidate row. The partition
//! heuristics ask one such question per core for every task they place.
//! [`BatchRtaKernel`] takes up to [`LANES`] of them as one dispatch, one
//! **lane** per core, and solves each lane's rows in turn. A row's
//! recurrence sums the interference of the rows above it and nothing else,
//! so a lane costs only what its own rows need.
//!
//! Two inputs let a caller skip work it has already done:
//!
//! * a **start row** ([`BatchRtaKernel::set_start`]): rows above it keep
//!   their verdicts and only interfere. The partition heuristics re-verify
//!   just the rows at and below an inserted candidate, whose interferer sets
//!   changed;
//! * a **warm-start seed** per row ([`BatchRtaKernel::push_seeded`]): a known
//!   lower bound of the row's response time, typically the value it solved
//!   to before the candidate joined its interferers. The recurrence starts at
//!   the larger of the seed and the utilization bound `C / (1 − U_hp)`. This
//!   is the initial-value technique of Davis, Zabos and Burns ("Efficient
//!   exact schedulability tests for fixed priority real-time systems", IEEE
//!   TC 2008).
//!
//! Everything stays exact integer (tick) arithmetic in stable Rust.
//!
//! # Oracle contract
//!
//! The scalar implementation remains the differential oracle: for every
//! lane, [`BatchRtaKernel`] produces **bit-identical** [`ResponseTime`]
//! verdicts to [`crate::rta::response_time_with_interference`] over the
//! same rows, for any seeds that meet [`BatchRtaKernel::push_seeded`]'s
//! precondition. Two facts carry this:
//!
//! * saturating `u64` sums of non-negative terms are order-independent (the
//!   result is `min(exact total, u64::MAX)` in every order), so adding
//!   interferers in row order instead of task-id order cannot change a bit;
//! * the recurrence `R ↦ C + Σ ⌈R / T_j⌉ · C_j` is monotone, so below its
//!   least fixed point it strictly climbs. From any start at or below that
//!   fixed point it stops exactly on it, and on a row whose fixed point
//!   lies past the deadline it passes the deadline from any start.
//!
//! Differential proptests below pin the contract, seeds included.

use crate::rta::ResponseTime;
use crate::time::Time;

/// The lane width of every batch kernel: one dispatch carries at most eight
/// independent questions.
pub const LANES: usize = 8;

/// Whether a caller wants the batched kernels or the scalar reference
/// implementations. The scalar path is kept as the differential oracle;
/// both produce bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BatchMode {
    /// Evaluate through the lane kernels (default).
    #[default]
    Batch,
    /// Evaluate through the scalar reference implementations.
    Scalar,
}

/// Counters describing how the batch kernels were fed: a histogram of lane
/// occupancy per dispatched batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// `lanes_filled[k]` counts batches dispatched with exactly `k` lanes
    /// occupied (index 0 is unused; kept so indices read naturally).
    pub lanes_filled: [u64; LANES + 1],
}

impl BatchStats {
    /// Records one kernel dispatch with `lanes` occupied lanes.
    pub fn record_batch(&mut self, lanes: usize) {
        self.lanes_filled[lanes.min(LANES)] += 1;
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &BatchStats) {
        for (acc, v) in self.lanes_filled.iter_mut().zip(other.lanes_filled) {
            *acc += v;
        }
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes_filled.iter().all(|&c| c == 0)
    }
}

/// One task row of a lane, in ticks.
#[derive(Debug, Clone, Copy)]
struct Row {
    wcet: u64,
    period: u64,
    deadline: u64,
    /// Warm-start lower bound of the row's response time (0: none).
    seed: u64,
}

/// A response-time kernel over up to [`LANES`] independent rate-monotonic
/// task lists, one per lane, solved lane by lane.
///
/// Each lane holds one core's candidate task list in **priority order**
/// (rows sorted highest priority first); a row's interferers are exactly
/// the rows above it. A lane may set a *start row*: rows before it are
/// taken as schedulable with unchanged response times and are not solved
/// (the partition heuristics use this for suffix-only re-verification after
/// inserting a candidate task, which is sound because a row's interferer
/// set is exactly the rows above it). Rows may carry warm-start seeds (see
/// [`BatchRtaKernel::push_seeded`]). Row storage is recycled across
/// dispatches, so a long-lived kernel allocates only while its lanes grow.
#[derive(Debug, Default)]
pub struct BatchRtaKernel {
    rows: [Vec<Row>; LANES],
    start: [usize; LANES],
    lanes: usize,
}

impl BatchRtaKernel {
    /// Creates an empty kernel.
    #[must_use]
    pub fn new() -> Self {
        BatchRtaKernel::default()
    }

    /// Resets the kernel for a batch of `lanes` occupied lanes, recycling
    /// the row storage.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > LANES`.
    pub fn begin(&mut self, lanes: usize) {
        assert!(lanes <= LANES, "a batch holds at most {LANES} lanes");
        for rows in &mut self.rows {
            rows.clear();
        }
        self.start = [0; LANES];
        self.lanes = lanes;
    }

    /// Appends one task row (ticks) to `lane`, in priority order, with no
    /// warm-start seed.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `period` is zero.
    pub fn push(&mut self, lane: usize, wcet: u64, period: u64, deadline: u64) {
        self.push_seeded(lane, wcet, period, deadline, 0);
    }

    /// Appends one task row (ticks) to `lane`, in priority order, whose
    /// recurrence starts no lower than `seed`.
    ///
    /// **Precondition:** if the row is schedulable, `seed` must not exceed
    /// its exact response time over the rows above it (its least fixed
    /// point). A response time the row solved to under a subset of its
    /// current interferers qualifies, because adding an interferer can only
    /// raise the fixed point. On an unschedulable row any seed is sound.
    /// Under the precondition every verdict and response time is
    /// bit-identical to an unseeded row's; a seed above a schedulable row's
    /// fixed point would report a too-large response time or a false miss.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `period` is zero.
    pub fn push_seeded(&mut self, lane: usize, wcet: u64, period: u64, deadline: u64, seed: u64) {
        assert!(lane < self.lanes, "lane {lane} out of {} lanes", self.lanes);
        assert!(period > 0, "a task must have a positive period");
        self.rows[lane].push(Row {
            wcet,
            period,
            deadline,
            seed,
        });
    }

    /// Verification starts at `row` for `lane`: rows before it are taken as
    /// schedulable without re-running their recurrences.
    ///
    /// # Panics
    ///
    /// Panics if `row` exceeds the lane's current length.
    pub fn set_start(&mut self, lane: usize, row: usize) {
        assert!(
            row <= self.rows[lane].len(),
            "start row past the lane's rows"
        );
        self.start[lane] = row;
    }

    /// Solves every lane's rows, from the lane's start row down.
    ///
    /// Returns, per lane, whether every verified row is schedulable.
    /// `on_row(lane, row, verdict)` observes each verified row's verdict as
    /// it resolves — bit-identical to the scalar
    /// [`crate::rta::response_time_with_interference`] over the same rows.
    /// With `stop_on_failure` a lane abandons its remaining rows at the
    /// first unschedulable verdict (the admission-test shape); without it,
    /// every row is resolved (the full-analysis shape).
    pub fn solve<F>(&self, stop_on_failure: bool, mut on_row: F) -> [bool; LANES]
    where
        F: FnMut(usize, usize, ResponseTime),
    {
        let mut ok = [true; LANES];
        for (lane, lane_ok) in ok.iter_mut().enumerate().take(self.lanes) {
            let rows = &self.rows[lane];
            // Interference utilization of the rows above the current row,
            // folded in row order (rows before the start row included: they
            // interfere even when not re-verified).
            let mut util = 0.0f64;
            for (i, row) in rows.iter().enumerate() {
                if i >= self.start[lane] {
                    let verdict = solve_row(&rows[..i], row, util);
                    on_row(lane, i, verdict);
                    if !verdict.is_schedulable() {
                        *lane_ok = false;
                        if stop_on_failure {
                            break;
                        }
                    }
                }
                util += row.wcet as f64 / row.period as f64;
            }
        }
        ok
    }

    /// Convenience wrapper over [`BatchRtaKernel::solve`] for admission
    /// tests: per-lane schedulability of the verified rows, abandoning a
    /// lane at its first failure.
    #[must_use]
    pub fn verdicts(&self) -> [bool; LANES] {
        self.solve(true, |_, _, _| ())
    }
}

/// The response time of `row` under the interference of `hp` (the rows
/// above it, whose utilizations sum to `util`).
///
/// The recurrence starts at the larger of the row's seed and the
/// utilization-derived lower bound of
/// [`crate::rta::response_time_with_blocking`] — the fixed point satisfies
/// `R ≥ wcet / (1 − U_hp)` — and fails outright when that start already
/// misses the deadline. A schedulable row converges to the identical fixed
/// point from either start, so verdicts stay bit-identical.
fn solve_row(hp: &[Row], row: &Row, util: f64) -> ResponseTime {
    // `None`: the interference alone saturates the core.
    let Some(floor) = crate::rta::seed_from_utilization(row.wcet, util) else {
        return ResponseTime::Unschedulable;
    };
    // The floor is at least the WCET, so this also covers `wcet > deadline`.
    let mut r = floor.max(row.seed);
    if r > row.deadline {
        return ResponseTime::Unschedulable;
    }
    loop {
        let mut next = row.wcet;
        for j in hp {
            next = next.saturating_add(j.wcet.saturating_mul(r.div_ceil(j.period)));
        }
        if next > row.deadline {
            return ResponseTime::Unschedulable;
        }
        if next == r {
            return ResponseTime::Schedulable(Time::from_ticks(r));
        }
        r = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::{PriorityAssignment, PriorityPolicy};
    use crate::rta::{response_time_with_interference, response_times};
    use crate::task::{RtTask, TaskSet};
    use proptest::prelude::*;

    fn task(c_ms: u64, t_ms: u64) -> RtTask {
        RtTask::implicit_deadline(Time::from_millis(c_ms), Time::from_millis(t_ms)).unwrap()
    }

    /// Loads a task set into `lane` in rate-monotonic order and returns the
    /// row order used, mirroring the scalar RM assignment exactly.
    fn load_rm(kernel: &mut BatchRtaKernel, lane: usize, set: &TaskSet) -> Vec<usize> {
        let pa = PriorityAssignment::assign(set, PriorityPolicy::RateMonotonic);
        let mut order: Vec<usize> = (0..set.len()).collect();
        order.sort_by_key(|&i| pa.priority(crate::task::TaskId(i)));
        for &i in &order {
            let t = &set[crate::task::TaskId(i)];
            kernel.push(
                lane,
                t.wcet().as_ticks(),
                t.period().as_ticks(),
                t.deadline().as_ticks(),
            );
        }
        order
    }

    #[test]
    fn batch_rta_matches_scalar_on_the_textbook_set() {
        let set: TaskSet = vec![task(1, 4), task(2, 6), task(3, 13)]
            .into_iter()
            .collect();
        let pa = PriorityAssignment::assign(&set, PriorityPolicy::RateMonotonic);
        let scalar = response_times(&set, &pa);
        let mut kernel = BatchRtaKernel::new();
        kernel.begin(1);
        let order = load_rm(&mut kernel, 0, &set);
        let mut got = vec![ResponseTime::Unschedulable; set.len()];
        let ok = kernel.solve(false, |_, row, rt| got[order[row]] = rt);
        assert!(ok[0]);
        assert_eq!(got, scalar);
    }

    #[test]
    fn all_lanes_unschedulable_at_iteration_zero() {
        // Regression for the lane mask: every lane's first row has
        // wcet > deadline, so every lane dies before a single recurrence
        // iteration runs — the engine must terminate with all-false
        // verdicts rather than spin on inactive lanes.
        let mut kernel = BatchRtaKernel::new();
        kernel.begin(LANES);
        for lane in 0..LANES {
            kernel.push(lane, 10, 20, 5); // wcet 10 > deadline 5
        }
        let mut seen = 0usize;
        let ok = kernel.solve(true, |_, _, rt| {
            assert_eq!(rt, ResponseTime::Unschedulable);
            seen += 1;
        });
        assert_eq!(ok, [false; LANES]);
        assert_eq!(seen, LANES);
    }

    #[test]
    fn suffix_start_skips_verified_prefix_rows() {
        // Two identical lanes; lane 1 starts at row 1 and must report only
        // the suffix rows, with verdicts identical to lane 0's suffix.
        let set: TaskSet = vec![task(1, 4), task(2, 6), task(3, 13)]
            .into_iter()
            .collect();
        let mut kernel = BatchRtaKernel::new();
        kernel.begin(2);
        load_rm(&mut kernel, 0, &set);
        load_rm(&mut kernel, 1, &set);
        kernel.set_start(1, 1);
        let mut rows = [Vec::new(), Vec::new()];
        let ok = kernel.solve(false, |lane, row, rt| rows[lane].push((row, rt)));
        assert_eq!(ok, [true; LANES]);
        assert_eq!(rows[0].len(), 3);
        assert_eq!(rows[1].len(), 2);
        assert_eq!(&rows[0][1..], &rows[1][..]);
    }

    #[test]
    fn empty_lanes_are_trivially_schedulable() {
        let kernel = BatchRtaKernel::new();
        assert_eq!(kernel.verdicts(), [true; LANES]);
        let mut kernel = BatchRtaKernel::new();
        kernel.begin(3);
        assert_eq!(kernel.verdicts(), [true; LANES]);
    }

    #[test]
    fn batch_stats_accumulate_and_merge() {
        let mut a = BatchStats::default();
        assert!(a.is_empty());
        a.record_batch(3);
        a.record_batch(LANES);
        let mut b = BatchStats::default();
        b.record_batch(3);
        b.merge(&a);
        assert_eq!(b.lanes_filled[3], 2);
        assert_eq!(b.lanes_filled[LANES], 1);
        assert!(!b.is_empty());
    }

    /// Random constrained-deadline tasks, overload very much included: tight
    /// deadlines and WCETs up to the full period.
    fn arb_task() -> impl Strategy<Value = RtTask> {
        (1u64..400, 1u64..1000, 0.1f64..1.0).prop_map(|(c, t, d_frac)| {
            let period = c.max(t);
            let deadline = ((period as f64 * d_frac) as u64).clamp(c, period);
            RtTask::new(
                Time::from_ticks(c),
                Time::from_ticks(period),
                Time::from_ticks(deadline),
            )
            .unwrap()
        })
    }

    fn arb_set(max_len: usize) -> impl Strategy<Value = TaskSet> {
        prop::collection::vec(arb_task(), 1..=max_len).prop_map(TaskSet::new)
    }

    proptest! {
        #[test]
        fn batch_rta_is_bit_identical_to_scalar_lane_by_lane(
            sets in prop::collection::vec(arb_set(9), 1..=LANES)
        ) {
            // Ragged lane counts 1..=8, arbitrary utilisation (overload
            // included): every lane must reproduce the scalar RM analysis
            // verdict-for-verdict and tick-for-tick.
            let mut kernel = BatchRtaKernel::new();
            kernel.begin(sets.len());
            let mut orders = Vec::new();
            for (lane, set) in sets.iter().enumerate() {
                orders.push(load_rm(&mut kernel, lane, set));
            }
            let mut got: Vec<Vec<Option<ResponseTime>>> =
                sets.iter().map(|s| vec![None; s.len()]).collect();
            let ok = kernel.solve(false, |lane, row, rt| {
                got[lane][orders[lane][row]] = Some(rt);
            });
            for (lane, set) in sets.iter().enumerate() {
                let pa = PriorityAssignment::assign(set, PriorityPolicy::RateMonotonic);
                let scalar = response_times(set, &pa);
                for (i, want) in scalar.iter().enumerate() {
                    prop_assert_eq!(got[lane][i].unwrap(), *want);
                }
                prop_assert_eq!(ok[lane], scalar.iter().all(|r| r.is_schedulable()));
            }
        }

        #[test]
        fn batch_rta_admission_shape_matches_scalar_short_circuit(
            sets in prop::collection::vec(arb_set(9), 1..=LANES)
        ) {
            let mut kernel = BatchRtaKernel::new();
            kernel.begin(sets.len());
            for (lane, set) in sets.iter().enumerate() {
                load_rm(&mut kernel, lane, set);
            }
            let ok = kernel.verdicts();
            for (lane, set) in sets.iter().enumerate() {
                prop_assert_eq!(ok[lane], crate::rta::is_schedulable_rm(set));
            }
        }

        #[test]
        fn suffix_verification_agrees_with_full_reverification(
            set in arb_set(9),
            extra in arb_task()
        ) {
            // The partition-admission shape: a fully schedulable prefix
            // plus one inserted candidate. Suffix-only verification (start
            // at the insertion row) must agree with re-verifying the whole
            // merged set, because rows above the insertion point keep their
            // interferer sets.
            if !crate::rta::is_schedulable_rm(&set) {
                return Ok(());
            }
            let mut merged: Vec<RtTask> = set.tasks().cloned().collect();
            merged.push(extra);
            let merged: TaskSet = merged.into_iter().collect();
            let pa = PriorityAssignment::assign(&merged, PriorityPolicy::RateMonotonic);
            let mut order: Vec<usize> = (0..merged.len()).collect();
            order.sort_by_key(|&i| pa.priority(crate::task::TaskId(i)));
            let inserted_at = order
                .iter()
                .position(|&i| i == merged.len() - 1)
                .unwrap();
            let mut kernel = BatchRtaKernel::new();
            kernel.begin(1);
            load_rm(&mut kernel, 0, &merged);
            kernel.set_start(0, inserted_at);
            let suffix_ok = kernel.verdicts()[0];
            prop_assert_eq!(suffix_ok, crate::rta::is_schedulable_rm(&merged));
        }

        #[test]
        fn warm_seeds_at_or_below_the_fixed_point_change_no_bit(
            sets in prop::collection::vec(arb_set(9), 1..=LANES),
            draws in prop::collection::vec(0u64..=u64::MAX, LANES * 9)
        ) {
            // The seeding precondition: a schedulable row's seed lies in
            // [0, R] (both ends included on purpose), an unschedulable row's
            // is arbitrary. Seeded lanes must reproduce the unseeded
            // verdicts and response times bit for bit, in the full-analysis
            // and the admission shape.
            let mut kernel = BatchRtaKernel::new();
            kernel.begin(sets.len());
            let mut orders = Vec::new();
            for (lane, set) in sets.iter().enumerate() {
                orders.push(load_rm(&mut kernel, lane, set));
            }
            let mut plain: Vec<Vec<Option<ResponseTime>>> =
                sets.iter().map(|s| vec![None; s.len()]).collect();
            let plain_ok = kernel.solve(false, |lane, row, rt| plain[lane][row] = Some(rt));
            let plain_admit = kernel.verdicts();

            kernel.begin(sets.len());
            let mut draw = draws.iter().copied();
            for (lane, set) in sets.iter().enumerate() {
                for (row, &i) in orders[lane].iter().enumerate() {
                    let t = &set[crate::task::TaskId(i)];
                    let d = draw.next().unwrap();
                    let seed = match plain[lane][row].unwrap() {
                        ResponseTime::Schedulable(r) => match d % 4 {
                            0 => 0,
                            1 => r.as_ticks(),
                            _ => d % (r.as_ticks() + 1),
                        },
                        ResponseTime::Unschedulable if d % 2 == 0 => {
                            d % (t.deadline().as_ticks() + 1)
                        }
                        ResponseTime::Unschedulable => d,
                    };
                    kernel.push_seeded(
                        lane,
                        t.wcet().as_ticks(),
                        t.period().as_ticks(),
                        t.deadline().as_ticks(),
                        seed,
                    );
                }
            }
            let mut seeded: Vec<Vec<Option<ResponseTime>>> =
                sets.iter().map(|s| vec![None; s.len()]).collect();
            let seeded_ok = kernel.solve(false, |lane, row, rt| seeded[lane][row] = Some(rt));
            prop_assert_eq!(&seeded, &plain);
            prop_assert_eq!(seeded_ok, plain_ok);
            prop_assert_eq!(kernel.verdicts(), plain_admit);
        }

        #[test]
        fn single_row_lane_matches_interference_free_scalar(
            c in 1u64..100, d in 1u64..200
        ) {
            let mut kernel = BatchRtaKernel::new();
            kernel.begin(1);
            kernel.push(0, c, d.max(c), d);
            let scalar = response_time_with_interference(
                Time::from_ticks(c),
                Time::from_ticks(d),
                std::iter::empty(),
            );
            let mut got = None;
            let ok = kernel.solve(false, |_, _, rt| got = Some(rt));
            prop_assert_eq!(got.unwrap(), scalar);
            prop_assert_eq!(ok[0], scalar.is_schedulable());
        }
    }
}

//! Structure-of-arrays batch kernels for the hot analysis math.
//!
//! The sweep engine evaluates thousands of closely related schedulability
//! questions: the same fixed-point recurrence (response-time analysis) over
//! per-core task lists that differ only in one candidate row. The scalar
//! analysis in [`crate::rta`] walks those one task at a time; the kernel
//! here restructures the same math into **lanes**: fixed-width
//! arrays-of-[`LANES`] columns (`[u64; LANES]` per task row) advanced in
//! lockstep, one iteration moving all lanes at once behind per-lane
//! converged/unschedulable masks.
//!
//! Everything stays exact integer (tick) arithmetic in stable Rust — plain
//! arrays the auto-vectorizer can unroll, no `std::simd`. The per-lane
//! division chains of the RTA recurrence do not vectorize on most targets,
//! but eight independent chains give the out-of-order core real
//! instruction-level parallelism, and the surrounding bookkeeping
//! (interference sums, masks) does vectorize.
//!
//! # Oracle contract
//!
//! The scalar implementation remains the differential oracle: for every
//! lane, [`BatchRtaKernel`] produces **bit-identical** [`ResponseTime`]
//! verdicts to [`crate::rta::response_time_with_interference`] over the
//! same rows. This holds because every per-lane operation sequence is the
//! scalar sequence: saturating `u64` sums of non-negative terms are
//! order-independent (the result is `min(exact total, u64::MAX)` in every
//! order), so adding interferers in row order instead of task-id order
//! cannot change a single bit. The property is pinned by differential
//! proptests below.

use crate::rta::ResponseTime;
use crate::time::Time;

/// The fixed lane width of every batch kernel: eight 64-bit columns, one
/// 512-bit row per task parameter.
pub const LANES: usize = 8;

/// Whether a caller wants the batched kernels or the scalar reference
/// implementations. The scalar path is kept as the differential oracle;
/// both produce bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BatchMode {
    /// Evaluate through the structure-of-arrays lane kernels (default).
    #[default]
    Batch,
    /// Evaluate through the scalar reference implementations.
    Scalar,
}

/// Counters describing how well the batch kernels were fed: a histogram of
/// lane occupancy per dispatched batch, plus how often a caller fell back
/// to the scalar path (ragged remainders, shapes with fewer than two
/// lanes, or non-batchable configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// `lanes_filled[k]` counts batches dispatched with exactly `k` lanes
    /// occupied (index 0 is unused; kept so indices read naturally).
    pub lanes_filled: [u64; LANES + 1],
    /// Evaluations that bypassed the kernels entirely.
    pub scalar_fallbacks: u64,
}

impl BatchStats {
    /// Records one kernel dispatch with `lanes` occupied lanes.
    pub fn record_batch(&mut self, lanes: usize) {
        self.lanes_filled[lanes.min(LANES)] += 1;
    }

    /// Records one scalar-path evaluation.
    pub fn record_fallback(&mut self) {
        self.scalar_fallbacks += 1;
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &BatchStats) {
        for (acc, v) in self.lanes_filled.iter_mut().zip(other.lanes_filled) {
            *acc += v;
        }
        self.scalar_fallbacks += other.scalar_fallbacks;
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scalar_fallbacks == 0 && self.lanes_filled.iter().all(|&c| c == 0)
    }
}

/// A structure-of-arrays response-time kernel: up to [`LANES`] independent
/// rate-monotonic task columns verified in lockstep.
///
/// Each lane holds one core's candidate task list in **priority order**
/// (rows sorted highest priority first); rows are stored lane-major
/// (`row[j][lane]`), padded with neutral values (`wcet = 0`, `period = 1`)
/// so the inner loops stay branch-free across ragged lanes. A lane may set
/// a *start row*: rows before it are assumed schedulable with unchanged
/// response times (the partition heuristics use this for suffix-only
/// re-verification after inserting a candidate task, which is sound
/// because a row's interferer set is exactly the rows above it).
#[derive(Debug, Default)]
pub struct BatchRtaKernel {
    wcet: Vec<[u64; LANES]>,
    period: Vec<[u64; LANES]>,
    deadline: Vec<[u64; LANES]>,
    len: [usize; LANES],
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
        // Re-neutralise pooled rows so unwritten cells are harmless pads.
        for row in &mut self.wcet {
            *row = [0; LANES];
        }
        for row in &mut self.period {
            *row = [1; LANES];
        }
        for row in &mut self.deadline {
            *row = [0; LANES];
        }
        self.len = [0; LANES];
        self.start = [0; LANES];
        self.lanes = lanes;
    }

    /// Appends one task row (ticks) to `lane`, in priority order.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `period` is zero.
    pub fn push(&mut self, lane: usize, wcet: u64, period: u64, deadline: u64) {
        assert!(lane < self.lanes, "lane {lane} out of {} lanes", self.lanes);
        assert!(period > 0, "a task must have a positive period");
        let row = self.len[lane];
        if row == self.wcet.len() {
            self.wcet.push([0; LANES]);
            self.period.push([1; LANES]);
            self.deadline.push([0; LANES]);
        }
        self.wcet[row][lane] = wcet;
        self.period[row][lane] = period;
        self.deadline[row][lane] = deadline;
        self.len[lane] = row + 1;
    }

    /// Number of rows currently loaded into `lane`.
    #[must_use]
    pub fn rows(&self, lane: usize) -> usize {
        self.len[lane]
    }

    /// Verification starts at `row` for `lane`: rows before it are taken as
    /// schedulable without re-running their recurrences.
    ///
    /// # Panics
    ///
    /// Panics if `row` exceeds the lane's current length.
    pub fn set_start(&mut self, lane: usize, row: usize) {
        assert!(row <= self.len[lane], "start row past the lane's rows");
        self.start[lane] = row;
    }

    /// Runs the fixed-point recurrences of every lane in lockstep.
    ///
    /// Returns, per lane, whether every verified row (from the lane's start
    /// row down) is schedulable. `on_row` observes each verified row's
    /// verdict as it resolves — bit-identical to the scalar
    /// [`crate::rta::response_time_with_interference`] over the same rows.
    /// With `stop_on_failure` a lane abandons its remaining rows at the
    /// first unschedulable verdict (the admission-test shape); without it,
    /// every row is resolved (the full-analysis shape).
    pub fn solve<F>(&self, stop_on_failure: bool, mut on_row: F) -> [bool; LANES]
    where
        F: FnMut(usize, usize, ResponseTime),
    {
        let mut ok = [true; LANES];
        let mut active = [false; LANES];
        let mut cur = self.start;
        let mut r = [0u64; LANES];
        let mut base = [0u64; LANES];
        // Per-lane interference utilization of the rows above the current
        // row, folded incrementally as `cur` advances (rows below `start`
        // included — they interfere even when not re-verified). Feeds the
        // recurrence seed of `open_row`.
        let mut util = Acc {
            sum: [0.0; LANES],
            row: [0; LANES],
        };

        for lane in 0..self.lanes {
            self.open_row(
                lane,
                &mut cur,
                &mut r,
                &mut base,
                &mut active,
                &mut ok,
                &mut util,
                stop_on_failure,
                &mut on_row,
            );
        }

        loop {
            let mut deepest = 0usize;
            let mut any = false;
            for lane in 0..self.lanes {
                if active[lane] {
                    any = true;
                    deepest = deepest.max(cur[lane]);
                }
            }
            if !any {
                break;
            }
            // One lockstep recurrence iteration: every active lane's
            // candidate response time absorbs the interference of the rows
            // above its current row. Masked, branch-free accumulation: the
            // pad cells (wcet 0, period 1) and the `take` mask keep
            // off-lane work inert without branching.
            let mut next = base;
            for j in 0..deepest {
                let w = &self.wcet[j];
                let p = &self.period[j];
                for lane in 0..LANES {
                    let take = u64::from(j < cur[lane] && active[lane]);
                    let jobs = r[lane].div_ceil(p[lane]);
                    next[lane] = next[lane].saturating_add(take * w[lane].saturating_mul(jobs));
                }
            }
            for lane in 0..self.lanes {
                if !active[lane] {
                    continue;
                }
                let d = self.deadline[cur[lane]][lane];
                if next[lane] > d {
                    ok[lane] = false;
                    on_row(lane, cur[lane], ResponseTime::Unschedulable);
                    if stop_on_failure {
                        active[lane] = false;
                    } else {
                        cur[lane] += 1;
                        self.open_row(
                            lane,
                            &mut cur,
                            &mut r,
                            &mut base,
                            &mut active,
                            &mut ok,
                            &mut util,
                            stop_on_failure,
                            &mut on_row,
                        );
                    }
                } else if next[lane] == r[lane] {
                    on_row(
                        lane,
                        cur[lane],
                        ResponseTime::Schedulable(Time::from_ticks(r[lane])),
                    );
                    cur[lane] += 1;
                    self.open_row(
                        lane,
                        &mut cur,
                        &mut r,
                        &mut base,
                        &mut active,
                        &mut ok,
                        &mut util,
                        stop_on_failure,
                        &mut on_row,
                    );
                } else {
                    r[lane] = next[lane];
                }
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

    /// Positions `lane` at its next solvable row (skipping or failing rows
    /// whose WCET already exceeds their deadline, exactly like the scalar
    /// base check) and seeds its recurrence state from the
    /// utilization-derived lower bound of
    /// [`crate::rta::response_time_with_blocking`]: the fixed point
    /// satisfies `R ≥ wcet / (1 − U_hp)`, so rows on near-saturated lanes
    /// start their recurrence where it matters (or fail outright when the
    /// bound already misses the deadline — the recurrence converges to the
    /// identical fixed point either way, so verdicts stay bit-identical).
    #[allow(clippy::too_many_arguments)]
    fn open_row<F>(
        &self,
        lane: usize,
        cur: &mut [usize; LANES],
        r: &mut [u64; LANES],
        base: &mut [u64; LANES],
        active: &mut [bool; LANES],
        ok: &mut [bool; LANES],
        util: &mut Acc,
        stop_on_failure: bool,
        on_row: &mut F,
    ) where
        F: FnMut(usize, usize, ResponseTime),
    {
        loop {
            if cur[lane] >= self.len[lane] {
                active[lane] = false;
                return;
            }
            // Fold the interference utilization of rows newly above `cur`.
            while util.row[lane] < cur[lane] {
                let j = util.row[lane];
                util.sum[lane] += self.wcet[j][lane] as f64 / self.period[j][lane] as f64;
                util.row[lane] = j + 1;
            }
            let w = self.wcet[cur[lane]][lane];
            let d = self.deadline[cur[lane]][lane];
            let seed = crate::rta::seed_from_utilization(w, util.sum[lane]);
            if w > d || seed.is_none_or(|s| s > d) {
                ok[lane] = false;
                on_row(lane, cur[lane], ResponseTime::Unschedulable);
                if stop_on_failure {
                    active[lane] = false;
                    return;
                }
                cur[lane] += 1;
                continue;
            }
            base[lane] = w;
            r[lane] = seed.expect("checked above");
            active[lane] = true;
            return;
        }
    }
}

/// Incremental per-lane fold of the interference utilization above the
/// current row (see [`BatchRtaKernel::open_row`]).
struct Acc {
    sum: [f64; LANES],
    row: [usize; LANES],
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
        a.record_fallback();
        let mut b = BatchStats::default();
        b.record_batch(3);
        b.merge(&a);
        assert_eq!(b.lanes_filled[3], 2);
        assert_eq!(b.lanes_filled[LANES], 1);
        assert_eq!(b.scalar_fallbacks, 1);
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

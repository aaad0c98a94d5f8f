//! Exact response-time analysis (RTA) for fixed-priority preemptive
//! uniprocessor scheduling.
//!
//! The classic Joseph & Pandya / Audsley et al. recurrence: the worst-case
//! response time of task `τ_i` released simultaneously with all
//! higher-priority tasks (the critical instant) is the least fixed point of
//!
//! ```text
//! R = C_i + Σ_{j ∈ hp(i)} ⌈R / T_j⌉ · C_j
//! ```
//!
//! The task is schedulable iff the fixed point exists and `R ≤ D_i`.
//! This is used to validate real-time partitions, as the admission test of
//! the partitioning heuristics, and to cross-check the discrete-event
//! simulator.

use crate::priority::{PriorityAssignment, PriorityPolicy};
use crate::task::{RtTask, TaskId, TaskSet};
use crate::time::Time;

/// Outcome of a response-time computation for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseTime {
    /// The recurrence converged to this worst-case response time, which is
    /// within the task's deadline.
    Schedulable(Time),
    /// The recurrence exceeded the deadline (or diverged); the task can miss
    /// deadlines in the worst case.
    Unschedulable,
}

impl ResponseTime {
    /// The response time if schedulable.
    #[must_use]
    pub fn time(self) -> Option<Time> {
        match self {
            ResponseTime::Schedulable(t) => Some(t),
            ResponseTime::Unschedulable => None,
        }
    }

    /// Whether the task meets its deadline.
    #[must_use]
    pub fn is_schedulable(self) -> bool {
        matches!(self, ResponseTime::Schedulable(_))
    }
}

/// Computes the worst-case response time of a task with WCET `wcet` and
/// deadline `deadline`, suffering preemption from `interferers`
/// (higher-priority tasks on the same core).
///
/// The iteration stops as soon as the candidate exceeds `deadline`, so it
/// always terminates even for overloaded cores.
#[must_use]
pub fn response_time_with_interference<'a, I>(
    wcet: Time,
    deadline: Time,
    interferers: I,
) -> ResponseTime
where
    I: IntoIterator<Item = &'a RtTask>,
    I::IntoIter: Clone,
{
    response_time_with_blocking(wcet, deadline, Time::ZERO, interferers)
}

/// Computes the worst-case response time of a task that, in addition to
/// preemption from `interferers`, can be blocked for up to `blocking` time
/// units by a lower-priority non-preemptive region (the classic
/// blocking-aware recurrence `R = C + B + Σ ⌈R/T_j⌉·C_j`).
///
/// This supports the paper's Section V extension where some security tasks
/// execute non-preemptively: a non-preemptive lower-priority task can delay
/// every task above it by up to its own WCET.
#[must_use]
pub fn response_time_with_blocking<'a, I>(
    wcet: Time,
    deadline: Time,
    blocking: Time,
    interferers: I,
) -> ResponseTime
where
    I: IntoIterator<Item = &'a RtTask>,
    I::IntoIter: Clone,
{
    let hp = interferers
        .into_iter()
        .map(|task| (task.wcet(), task.period()));
    let hp_util = hp.clone().map(|(c, t)| c.ratio(t)).sum();
    response_time_seeded(
        wcet.saturating_add(blocking),
        deadline,
        Time::ZERO,
        hp_util,
        hp,
    )
}

/// Solves the response-time recurrence `R = base + Σ_j ⌈R / T_j⌉ · C_j`
/// over `interferers`, given as `(C_j, T_j)` pairs, for its least fixed
/// point, or reports that it passes `deadline`. This is the crate's one
/// recurrence loop: every response time above comes from it, and the
/// partitioner calls it directly with its own start hints.
///
/// The iteration starts at the larger of two lower bounds of the fixed
/// point:
///
/// * the utilization bound `base / (1 − hp_util)`, since dropping the
///   ceilings shows `R ≥ base / (1 − U_hp)`. When `hp_util` leaves no
///   headroom, the interference alone saturates the core and a task with
///   positive `base` is unschedulable;
/// * `seed`, typically the response time the task solved to before an
///   interferer joined. This is the initial-value technique of Davis,
///   Zabos and Burns ("Efficient exact schedulability tests for fixed
///   priority real-time systems", IEEE TC 2008).
///
/// **Precondition:** both hints are lower bounds. `hp_util` must not exceed
/// the interferers' total utilization (up to `f64` rounding), and, if the
/// task is schedulable, `seed` must not exceed its response time. A
/// response time solved under a subset of the current interferers
/// qualifies, because adding an interferer can only raise the fixed point;
/// on an unschedulable task any seed is sound. Under the precondition the
/// result is bit-identical for all hints, and `Time::ZERO` with `0.0` runs
/// the plain recurrence from `base`: the recurrence is monotone, so from
/// any start at or below its least fixed point it climbs to exactly that
/// point, and when that point lies past the deadline it passes the
/// deadline from any start. Saturating sums of non-negative terms do not
/// depend on the order of `interferers`.
///
/// # Panics
///
/// Panics if an interferer's period is zero.
#[must_use]
pub fn response_time_seeded<I>(
    base: Time,
    deadline: Time,
    seed: Time,
    hp_util: f64,
    interferers: I,
) -> ResponseTime
where
    I: Iterator<Item = (Time, Time)> + Clone,
{
    // `None`: the interference alone saturates the core.
    let Some(floor) = seed_from_utilization(base.as_ticks(), hp_util) else {
        return ResponseTime::Unschedulable;
    };
    // The floor is at least `base`, so this also covers `base > deadline`.
    let mut r = Time::from_ticks(floor).max(seed);
    if r > deadline {
        return ResponseTime::Unschedulable;
    }
    loop {
        let mut next = base;
        for (wcet, period) in interferers.clone() {
            next = next.saturating_add(wcet.saturating_mul(r.div_ceil(period)));
        }
        if next > deadline {
            return ResponseTime::Unschedulable;
        }
        if next == r {
            return ResponseTime::Schedulable(r);
        }
        r = next;
    }
}

/// The utilization lower bound of the response-time recurrence: the fixed
/// point satisfies `R ≥ base / (1 − U_hp)` (drop the ceilings of the
/// interference terms), so iterating from that bound converges to the
/// *same* least fixed point in far fewer steps — the closer the core is to
/// saturation, the more of the creeping early iterations it skips.
///
/// Returns `None` when the higher-priority utilization provably saturates
/// the core (the recurrence diverges). The utilization margin keeps the
/// bound conservative against `f64` rounding in `util`: underestimating the
/// divisor can only lower the bound, never push it past the fixed point.
fn seed_from_utilization(base: u64, util: f64) -> Option<u64> {
    const MARGIN: f64 = 1e-9;
    if base == 0 {
        return Some(0);
    }
    if util - MARGIN >= 1.0 {
        return None;
    }
    let headroom = 1.0 - (util - MARGIN);
    let bound = (base as f64 / headroom).floor();
    if bound.is_finite() && bound > base as f64 {
        Some(bound as u64)
    } else {
        Some(base)
    }
}

/// Computes the worst-case response time of `task` within `tasks` under the
/// given priority assignment, assuming all tasks share one core.
#[must_use]
pub fn response_time(
    tasks: &TaskSet,
    priorities: &PriorityAssignment,
    task: TaskId,
) -> ResponseTime {
    let target = &tasks[task];
    let hp_ids = priorities.higher_priority_than(task);
    let interferers: Vec<&RtTask> = hp_ids.iter().map(|&id| &tasks[id]).collect();
    response_time_with_interference(
        target.wcet(),
        target.deadline(),
        interferers.iter().copied(),
    )
}

/// Response times of every task in the set under the given priority
/// assignment (single core). Entry `i` corresponds to `TaskId(i)`.
#[must_use]
pub fn response_times(tasks: &TaskSet, priorities: &PriorityAssignment) -> Vec<ResponseTime> {
    tasks
        .ids()
        .map(|id| response_time(tasks, priorities, id))
        .collect()
}

/// Whether every task meets its deadline on a single core under the given
/// priority assignment.
#[must_use]
pub fn is_schedulable(tasks: &TaskSet, priorities: &PriorityAssignment) -> bool {
    tasks
        .ids()
        .all(|id| response_time(tasks, priorities, id).is_schedulable())
}

/// Whether every task meets its deadline on a single core under
/// rate-monotonic priorities — the admission test used when partitioning the
/// real-time tasks of the HYDRA experiments.
#[must_use]
pub fn is_schedulable_rm(tasks: &TaskSet) -> bool {
    let pa = PriorityAssignment::assign(tasks, PriorityPolicy::RateMonotonic);
    is_schedulable(tasks, &pa)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(c_ms: u64, t_ms: u64) -> RtTask {
        RtTask::implicit_deadline(Time::from_millis(c_ms), Time::from_millis(t_ms)).unwrap()
    }

    fn rm(tasks: &TaskSet) -> PriorityAssignment {
        PriorityAssignment::assign(tasks, PriorityPolicy::RateMonotonic)
    }

    #[test]
    fn textbook_example_response_times() {
        // Classic example: C/T = 1/4, 2/6, 3/13 — all schedulable under RM.
        let set: TaskSet = vec![task(1, 4), task(2, 6), task(3, 13)]
            .into_iter()
            .collect();
        let pa = rm(&set);
        let r = response_times(&set, &pa);
        assert_eq!(r[0], ResponseTime::Schedulable(Time::from_millis(1)));
        assert_eq!(r[1], ResponseTime::Schedulable(Time::from_millis(3)));
        // R2 = 3 + ⌈R/4⌉·1 + ⌈R/6⌉·2 → fixed point at 10.
        assert_eq!(r[2], ResponseTime::Schedulable(Time::from_millis(10)));
        assert!(is_schedulable(&set, &pa));
        assert!(is_schedulable_rm(&set));
    }

    #[test]
    fn overload_is_detected() {
        let set: TaskSet = vec![task(3, 4), task(3, 6)].into_iter().collect();
        let pa = rm(&set);
        assert!(response_time(&set, &pa, TaskId(0)).is_schedulable());
        assert_eq!(
            response_time(&set, &pa, TaskId(1)),
            ResponseTime::Unschedulable
        );
        assert!(!is_schedulable_rm(&set));
    }

    #[test]
    fn full_utilization_harmonic_set_is_schedulable() {
        // Harmonic periods can reach 100% utilisation under RM.
        // An over-utilised variant (U = 1.25) can never be schedulable.
        let set: TaskSet = vec![task(1, 2), task(2, 4), task(2, 8)]
            .into_iter()
            .collect();
        assert!((set.total_utilization() - 1.25).abs() < 1e-12);
        assert!(!is_schedulable_rm(&set));
        let set: TaskSet = vec![task(1, 2), task(1, 4), task(2, 8)]
            .into_iter()
            .collect();
        assert!((set.total_utilization() - 1.0).abs() < 1e-12);
        assert!(is_schedulable_rm(&set));
    }

    #[test]
    fn wcet_longer_than_deadline_is_immediately_unschedulable() {
        let r = response_time_with_interference(
            Time::from_millis(10),
            Time::from_millis(5),
            std::iter::empty(),
        );
        assert_eq!(r, ResponseTime::Unschedulable);
    }

    #[test]
    fn no_interference_means_response_equals_wcet() {
        let r = response_time_with_interference(
            Time::from_millis(7),
            Time::from_millis(100),
            std::iter::empty(),
        );
        assert_eq!(r, ResponseTime::Schedulable(Time::from_millis(7)));
    }

    #[test]
    fn constrained_deadline_tightens_the_test() {
        // Same tasks; shrinking the deadline of the low-priority task below
        // its response time flips the verdict.
        // hi has D = 5, so it stays the higher-priority task under DM in both
        // sets; the low task's response time is 8.
        let hi = task(2, 5);
        let lo_ok = RtTask::new(
            Time::from_millis(4),
            Time::from_millis(30),
            Time::from_millis(10),
        )
        .unwrap();
        let lo_bad = RtTask::new(
            Time::from_millis(4),
            Time::from_millis(30),
            Time::from_millis(7),
        )
        .unwrap();
        let ok: TaskSet = vec![hi.clone(), lo_ok].into_iter().collect();
        let bad: TaskSet = vec![hi, lo_bad].into_iter().collect();
        let pa_ok = PriorityAssignment::assign(&ok, PriorityPolicy::DeadlineMonotonic);
        let pa_bad = PriorityAssignment::assign(&bad, PriorityPolicy::DeadlineMonotonic);
        assert!(is_schedulable(&ok, &pa_ok));
        assert!(!is_schedulable(&bad, &pa_bad));
    }

    #[test]
    fn response_time_accessors() {
        assert_eq!(
            ResponseTime::Schedulable(Time::from_millis(3)).time(),
            Some(Time::from_millis(3))
        );
        assert_eq!(ResponseTime::Unschedulable.time(), None);
        assert!(!ResponseTime::Unschedulable.is_schedulable());
    }

    #[test]
    fn blocking_increases_response_time_and_can_break_schedulability() {
        let hp = task(2, 6);
        // Without blocking: R = 3 + ⌈R/6⌉·2 → 5.
        let plain = response_time_with_blocking(
            Time::from_millis(3),
            Time::from_millis(10),
            Time::ZERO,
            [&hp],
        );
        assert_eq!(plain, ResponseTime::Schedulable(Time::from_millis(5)));
        // With 2 ms of blocking: R = 3 + 2 + ⌈R/6⌉·2 → 7 → 9 → 9.
        let blocked = response_time_with_blocking(
            Time::from_millis(3),
            Time::from_millis(10),
            Time::from_millis(2),
            [&hp],
        );
        assert_eq!(blocked, ResponseTime::Schedulable(Time::from_millis(9)));
        // With 6 ms of blocking the deadline of 10 ms cannot be met.
        let too_much = response_time_with_blocking(
            Time::from_millis(3),
            Time::from_millis(10),
            Time::from_millis(6),
            [&hp],
        );
        assert_eq!(too_much, ResponseTime::Unschedulable);
    }

    #[test]
    fn zero_blocking_matches_the_plain_recurrence() {
        let set: TaskSet = vec![task(1, 4), task(2, 6), task(3, 13)]
            .into_iter()
            .collect();
        let pa = rm(&set);
        for id in set.ids() {
            let hp_ids = pa.higher_priority_than(id);
            let interferers: Vec<&RtTask> = hp_ids.iter().map(|&i| &set[i]).collect();
            let a = response_time_with_interference(
                set[id].wcet(),
                set[id].deadline(),
                interferers.iter().copied(),
            );
            let b = response_time_with_blocking(
                set[id].wcet(),
                set[id].deadline(),
                Time::ZERO,
                interferers.iter().copied(),
            );
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rta_respects_priority_assignment_not_declaration_order() {
        // Declared low-priority first; RM must still figure out the order.
        let set: TaskSet = vec![task(6, 20), task(1, 5)].into_iter().collect();
        let pa = rm(&set);
        let r = response_times(&set, &pa);
        assert_eq!(r[1], ResponseTime::Schedulable(Time::from_millis(1)));
        // R0 = 6 + ⌈R/5⌉·1 → 6→8→8 (⌈8/5⌉ = 2) → 8.
        assert_eq!(r[0], ResponseTime::Schedulable(Time::from_millis(8)));
    }

    /// The naive recurrence — iterate from `base` with no seeding — kept as
    /// the reference the seeded production path is differentially tested
    /// against (a shared soundness bug in the seed cannot hide here).
    fn naive_response_time(
        wcet: Time,
        deadline: Time,
        blocking: Time,
        interferers: &[&RtTask],
    ) -> ResponseTime {
        let base = wcet.saturating_add(blocking);
        if base > deadline {
            return ResponseTime::Unschedulable;
        }
        let mut r = base;
        loop {
            let mut next = base;
            for hp in interferers {
                let jobs = r.div_ceil(hp.period());
                next = next.saturating_add(hp.wcet().saturating_mul(jobs));
            }
            if next > deadline {
                return ResponseTime::Unschedulable;
            }
            if next == r {
                return ResponseTime::Schedulable(r);
            }
            r = next;
        }
    }

    mod seeded_vs_naive {
        use super::*;
        use proptest::prelude::*;

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

        fn arb_set() -> impl Strategy<Value = TaskSet> {
            prop::collection::vec(arb_task(), 1..=9).prop_map(TaskSet::new)
        }

        /// The set's tasks in rate-monotonic priority order, each with its
        /// response time from the per-task analysis.
        fn rm_rows(set: &TaskSet) -> Vec<(&RtTask, ResponseTime)> {
            let pa = rm(set);
            let scalar = response_times(set, &pa);
            let mut ids: Vec<TaskId> = set.ids().collect();
            ids.sort_by_key(|&id| pa.priority(id));
            ids.into_iter().map(|id| (&set[id], scalar[id.0])).collect()
        }

        /// Solves row `i` of `rows` under the rows above it, as the
        /// partitioner does: their utilization folded in row order, and the
        /// recurrence started from `seed`.
        fn solve_row(rows: &[(&RtTask, ResponseTime)], i: usize, seed: Time) -> ResponseTime {
            let hp = rows[..i].iter().map(|(t, _)| (t.wcet(), t.period()));
            let hp_util = hp.clone().map(|(c, t)| c.ratio(t)).sum();
            response_time_seeded(rows[i].0.wcet(), rows[i].0.deadline(), seed, hp_util, hp)
        }

        proptest! {
            #[test]
            fn rows_solved_one_at_a_time_match_the_per_task_analysis(set in arb_set()) {
                // Arbitrary utilization, overload included: each row solved
                // under the rows above it reproduces the per-task analysis
                // and the naive iteration, verdict for verdict and tick for
                // tick.
                let rows = rm_rows(&set);
                for (i, &(task, want)) in rows.iter().enumerate() {
                    prop_assert_eq!(solve_row(&rows, i, Time::ZERO), want);
                    let hp: Vec<&RtTask> = rows[..i].iter().map(|&(t, _)| t).collect();
                    let naive = naive_response_time(task.wcet(), task.deadline(), Time::ZERO, &hp);
                    prop_assert_eq!(naive, want);
                }
            }

            #[test]
            fn warm_seeds_at_or_below_the_fixed_point_change_no_bit(
                set in arb_set(),
                draws in prop::collection::vec(0u64..=u64::MAX, 9)
            ) {
                // The seeding precondition: a schedulable row's seed lies in
                // [0, R] (both ends included on purpose), an unschedulable
                // row's is arbitrary. Each seeded row reproduces the
                // unseeded verdict and response time bit for bit.
                let rows = rm_rows(&set);
                for (i, (&(task, want), &d)) in rows.iter().zip(&draws).enumerate() {
                    let seed = match want {
                        ResponseTime::Schedulable(r) => match d % 4 {
                            0 => 0,
                            1 => r.as_ticks(),
                            _ => d % (r.as_ticks() + 1),
                        },
                        ResponseTime::Unschedulable if d % 2 == 0 => {
                            d % (task.deadline().as_ticks() + 1)
                        }
                        ResponseTime::Unschedulable => d,
                    };
                    prop_assert_eq!(solve_row(&rows, i, Time::from_ticks(seed)), want);
                }
            }

            #[test]
            fn seeded_recurrence_is_bit_identical_to_the_naive_iteration(
                interferers in prop::collection::vec(arb_task(), 0..10),
                c in 1u64..400,
                d in 1u64..2000,
                b in 0u64..50,
            ) {
                // Saturated cores very much included: the interferer
                // utilization is unconstrained, so the divergence early-out
                // and near-saturation seeds are exercised.
                let refs: Vec<&RtTask> = interferers.iter().collect();
                let seeded = response_time_with_blocking(
                    Time::from_ticks(c),
                    Time::from_ticks(d),
                    Time::from_ticks(b),
                    refs.iter().copied(),
                );
                let naive = naive_response_time(
                    Time::from_ticks(c),
                    Time::from_ticks(d),
                    Time::from_ticks(b),
                    &refs,
                );
                prop_assert_eq!(seeded, naive);
            }
        }
    }
}

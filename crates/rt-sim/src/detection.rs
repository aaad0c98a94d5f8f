//! Intrusion-detection latency measurement.
//!
//! An attack injected at time `t` against a resource monitored by security
//! task `σ` is detected at the completion of the first job of `σ` that is
//! **released at or after `t`** — an instance that was already released (and
//! possibly part-way through its scan) when the compromise happened is not
//! credited with observing it, so detection has to wait for the next full
//! monitoring instance. The detection time is the difference between that
//! instance's completion and `t`. This is the measurement model of the
//! paper's Figure 1 (attacks are assumed to be detected by the next execution
//! of the responsible security task, with no false positives or negatives):
//! the latency therefore combines the sporadic release gap (governed by the
//! granted period `T_s`) with the queuing/response delay of the instance on
//! its core — exactly the two quantities the allocation schemes trade off.

use std::ops::ControlFlow;

use rt_core::Time;

use crate::attack::InjectedAttack;
use crate::engine::{simulate_with_scratch, SimConfig, SimObserver, SimScratch};
use crate::trace::{JobRecord, Trace};
use crate::workload::{SimTask, TaskKind};

/// The outcome of one injected attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionOutcome {
    /// The attack was detected this long after injection.
    Detected(Time),
    /// No instance of the responsible security task released after the
    /// injection completed within the simulated horizon.
    Undetected,
}

impl DetectionOutcome {
    /// The detection latency, if the attack was detected.
    #[must_use]
    pub fn latency(self) -> Option<Time> {
        match self {
            DetectionOutcome::Detected(t) => Some(t),
            DetectionOutcome::Undetected => None,
        }
    }
}

/// Builds the `security-set index → simulator task index` map for a
/// workload, reusing `map`'s buffer. Built **once** per measurement instead
/// of scanning the task list per attack; the first matching task wins,
/// mirroring the old per-attack `position()` scan.
fn security_index_map(tasks: &[SimTask], map: &mut Vec<Option<usize>>) {
    map.clear();
    for (sim_idx, task) in tasks.iter().enumerate() {
        if let TaskKind::Security(sec) = task.kind {
            if map.len() <= sec {
                map.resize(sec + 1, None);
            }
            if map[sec].is_none() {
                map[sec] = Some(sim_idx);
            }
        }
    }
}

/// Computes the detection outcome of every injected attack against the given
/// trace. The `tasks` slice must be the same one the trace was simulated
/// from.
#[must_use]
pub fn detection_times(
    tasks: &[SimTask],
    trace: &Trace,
    attacks: &[InjectedAttack],
) -> Vec<DetectionOutcome> {
    let mut map = Vec::new();
    security_index_map(tasks, &mut map);
    attacks
        .iter()
        .map(|attack| {
            let Some(sim_idx) = map.get(attack.target).copied().flatten() else {
                return DetectionOutcome::Undetected;
            };
            // A task's job records appear in release order and its jobs
            // finish in release order (FIFO service within one priority), so
            // the first qualifying finish is the earliest one — no need to
            // scan the rest of the trace for a minimum.
            trace
                .jobs_of(sim_idx)
                .find_map(|job| match job.finish {
                    Some(finish) if job.release >= attack.time => Some(finish),
                    _ => None,
                })
                .map_or(DetectionOutcome::Undetected, |finish| {
                    DetectionOutcome::Detected(finish - attack.time)
                })
        })
        .collect()
}

/// Streaming intrusion-detection measurement: a [`SimObserver`] that folds
/// detection latencies **online** as jobs complete, so measuring a schedule
/// needs O(tasks + attacks) memory instead of the O(jobs-over-horizon)
/// [`Trace`]. Once every attack is resolved the observer stops the
/// simulation early — the remaining schedule cannot change any outcome. It
/// observes only the security tasks that attacks target, so the engine
/// skips every other core and runs the rest on their real-time idle supply
/// (see [`crate::engine`]).
///
/// The computed outcomes are identical to running [`detection_times`]
/// against the full trace of the same workload (a property the test suite
/// pins down): per target the attacks are processed in injection order, and
/// because a task's jobs complete in release order, the first completed job
/// released at or after an attack *is* the earliest detecting instance.
///
/// The detector is reusable: [`OnlineDetector::begin`] re-arms it for a new
/// workload without reallocating its buffers.
#[derive(Debug, Default)]
pub struct OnlineDetector {
    /// `security-set index → simulator task index`.
    sec_index: Vec<Option<usize>>,
    /// `simulator task index → slot in queues` (`usize::MAX` = not a target).
    queue_of_task: Vec<usize>,
    /// Per monitored task: `(injection time, attack index)` sorted by time.
    queues: Vec<Vec<(Time, usize)>>,
    /// Per queue: first still-pending entry.
    cursors: Vec<usize>,
    /// Per attack, in input order.
    outcomes: Vec<DetectionOutcome>,
    /// Attacks not yet resolved (pending detection or horizon).
    pending: usize,
}

impl OnlineDetector {
    /// Creates an empty detector; call [`OnlineDetector::begin`] before
    /// simulating.
    #[must_use]
    pub fn new() -> Self {
        OnlineDetector::default()
    }

    /// Arms the detector for one measurement of `attacks` against the given
    /// workload. Reuses every internal buffer.
    pub fn begin(&mut self, tasks: &[SimTask], attacks: &[InjectedAttack]) {
        security_index_map(tasks, &mut self.sec_index);
        self.queue_of_task.clear();
        self.queue_of_task.resize(tasks.len(), usize::MAX);
        for queue in &mut self.queues {
            queue.clear();
        }
        self.cursors.clear();
        self.outcomes.clear();
        self.outcomes
            .resize(attacks.len(), DetectionOutcome::Undetected);
        self.pending = 0;

        let mut used = 0usize;
        for (index, attack) in attacks.iter().enumerate() {
            let Some(sim_idx) = self.sec_index.get(attack.target).copied().flatten() else {
                // No simulated task monitors this target: resolved (as
                // undetected) before the simulation even starts.
                continue;
            };
            let mut slot = self.queue_of_task[sim_idx];
            if slot == usize::MAX {
                slot = used;
                used += 1;
                self.queue_of_task[sim_idx] = slot;
                if self.queues.len() <= slot {
                    self.queues.push(Vec::new());
                }
                self.cursors.push(0);
            }
            self.queues[slot].push((attack.time, index));
            self.pending += 1;
        }
        for slot in 0..used {
            self.queues[slot].sort_unstable_by_key(|&(time, index)| (time, index));
        }
    }

    /// Whether every attack has been resolved (all detected, or provably
    /// undetectable). When true before simulating, the simulation can be
    /// skipped entirely.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.pending == 0
    }

    /// The outcome of every attack, in the order they were passed to
    /// [`OnlineDetector::begin`]. Attacks whose queue never drained remain
    /// [`DetectionOutcome::Undetected`].
    #[must_use]
    pub fn outcomes(&self) -> &[DetectionOutcome] {
        &self.outcomes
    }
}

impl SimObserver for OnlineDetector {
    fn record(&mut self, job: &JobRecord) -> ControlFlow<()> {
        let Some(finish) = job.finish else {
            return ControlFlow::Continue(());
        };
        let Some(&slot) = self.queue_of_task.get(job.task) else {
            return ControlFlow::Continue(());
        };
        if slot == usize::MAX {
            return ControlFlow::Continue(());
        }
        // This completion detects every pending attack injected at or before
        // this job's release. Later jobs of the same task finish later, so
        // the first qualifying completion is the detecting one.
        let queue = &self.queues[slot];
        let cursor = &mut self.cursors[slot];
        while let Some(&(time, index)) = queue.get(*cursor) {
            if time > job.release {
                break;
            }
            self.outcomes[index] = DetectionOutcome::Detected(finish - time);
            self.pending -= 1;
            *cursor += 1;
        }
        if self.pending == 0 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Only the security tasks that attacks target are read, so the engine
    /// skips every other core and never simulates real-time jobs it can
    /// replace with the core's idle supply.
    fn observes(&self, task: usize) -> bool {
        self.queue_of_task
            .get(task)
            .is_some_and(|&slot| slot != usize::MAX)
    }
}

/// One-pass detection measurement: simulates the workload with an
/// [`OnlineDetector`] (no trace is materialised, and the simulation stops as
/// soon as every attack is resolved) and returns the per-attack outcomes —
/// identical to `detection_times(tasks, &simulate(tasks, config), attacks)`.
///
/// # Panics
///
/// Panics if two tasks on the same core share a priority.
#[must_use]
pub fn detection_times_online(
    tasks: &[SimTask],
    config: &SimConfig,
    attacks: &[InjectedAttack],
) -> Vec<DetectionOutcome> {
    let mut detector = OnlineDetector::new();
    detector.begin(tasks, attacks);
    if !detector.finished() {
        simulate_with_scratch(tasks, config, &mut SimScratch::new(), &mut detector);
    }
    detector.outcomes().to_vec()
}

/// Convenience: the detected latencies in milliseconds (undetected attacks
/// are dropped), ready to feed into the [`crate::cdf::EmpiricalCdf`].
#[must_use]
pub fn detection_latencies_ms(
    tasks: &[SimTask],
    trace: &Trace,
    attacks: &[InjectedAttack],
) -> Vec<f64> {
    detection_times(tasks, trace, attacks)
        .into_iter()
        .filter_map(DetectionOutcome::latency)
        .map(|t| t.as_millis_f64())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};

    fn security_task(c_ms: u64, t_ms: u64, core: usize, priority: u32, index: usize) -> SimTask {
        SimTask {
            name: format!("sec{index}"),
            kind: TaskKind::Security(index),
            wcet: Time::from_millis(c_ms),
            period: Time::from_millis(t_ms),
            deadline: Time::from_millis(t_ms),
            core,
            priority,
        }
    }

    fn rt_task(c_ms: u64, t_ms: u64, core: usize, priority: u32) -> SimTask {
        SimTask {
            name: "rt".to_owned(),
            kind: TaskKind::RealTime,
            wcet: Time::from_millis(c_ms),
            period: Time::from_millis(t_ms),
            deadline: Time::from_millis(t_ms),
            core,
            priority,
        }
    }

    #[test]
    fn attack_is_detected_by_the_next_full_check() {
        // Security task alone on a core: runs [0,10), [100,110), [200,210)…
        let tasks = vec![security_task(10, 100, 0, 0, 0)];
        let trace = simulate(&tasks, &SimConfig::new(Time::from_secs(1)));
        // Attack at t = 5 ms: the check running since 0 does not count; the
        // next check starts at 100 and completes at 110 → latency 105 ms.
        let attacks = vec![InjectedAttack {
            time: Time::from_millis(5),
            target: 0,
        }];
        let outcomes = detection_times(&tasks, &trace, &attacks);
        assert_eq!(
            outcomes,
            vec![DetectionOutcome::Detected(Time::from_millis(105))]
        );
    }

    #[test]
    fn attack_right_at_a_release_is_detected_by_that_instance() {
        let tasks = vec![security_task(10, 100, 0, 0, 0)];
        let trace = simulate(&tasks, &SimConfig::new(Time::from_secs(1)));
        let attacks = vec![InjectedAttack {
            time: Time::from_millis(100),
            target: 0,
        }];
        let outcomes = detection_times(&tasks, &trace, &attacks);
        // The instance released exactly at the attack instant counts.
        assert_eq!(
            outcomes,
            vec![DetectionOutcome::Detected(Time::from_millis(10))]
        );
    }

    #[test]
    fn interference_delays_detection() {
        // An RT task hogs the core so the security check is pushed back.
        let tasks = vec![rt_task(60, 100, 0, 0), security_task(10, 100, 0, 1, 0)];
        let trace = simulate(&tasks, &SimConfig::new(Time::from_secs(1)));
        let attacks = vec![InjectedAttack {
            time: Time::from_millis(10),
            target: 0,
        }];
        let outcome = detection_times(&tasks, &trace, &attacks)[0];
        // The instance released at 0 predates the attack, so detection waits
        // for the release at 100 ms; that job then sits behind the RT job
        // released at 100 ms (C = 60 ms) and completes at 170 ms →
        // latency 160 ms. Without RT interference the same instance would
        // have completed at 110 ms (latency 100 ms).
        assert_eq!(outcome, DetectionOutcome::Detected(Time::from_millis(160)));
    }

    #[test]
    fn attack_near_the_horizon_may_go_undetected() {
        let tasks = vec![security_task(10, 100, 0, 0, 0)];
        let trace = simulate(&tasks, &SimConfig::new(Time::from_millis(250)));
        let attacks = vec![InjectedAttack {
            time: Time::from_millis(240),
            target: 0,
        }];
        assert_eq!(
            detection_times(&tasks, &trace, &attacks),
            vec![DetectionOutcome::Undetected]
        );
    }

    #[test]
    fn unknown_target_is_undetected() {
        let tasks = vec![security_task(10, 100, 0, 0, 0)];
        let trace = simulate(&tasks, &SimConfig::new(Time::from_millis(250)));
        let attacks = vec![InjectedAttack {
            time: Time::from_millis(10),
            target: 9,
        }];
        assert_eq!(
            detection_times(&tasks, &trace, &attacks),
            vec![DetectionOutcome::Undetected]
        );
        assert!(detection_latencies_ms(&tasks, &trace, &attacks).is_empty());
    }

    #[test]
    fn latencies_helper_converts_to_milliseconds() {
        let tasks = vec![security_task(10, 100, 0, 0, 0)];
        let trace = simulate(&tasks, &SimConfig::new(Time::from_secs(1)));
        let attacks = vec![InjectedAttack {
            time: Time::from_millis(5),
            target: 0,
        }];
        let ms = detection_latencies_ms(&tasks, &trace, &attacks);
        assert_eq!(ms, vec![105.0]);
    }

    /// Every online/trace equality scenario in one helper: mixed RT and
    /// security tasks across cores, attacks in arbitrary order against
    /// several targets (including an unknown one).
    fn mixed_workload() -> (Vec<SimTask>, Vec<InjectedAttack>) {
        let tasks = vec![
            rt_task(60, 100, 0, 0),
            security_task(10, 100, 0, 1, 0),
            security_task(5, 40, 1, 0, 1),
            security_task(20, 300, 1, 1, 2),
        ];
        let attacks = vec![
            InjectedAttack {
                time: Time::from_millis(950),
                target: 2,
            },
            InjectedAttack {
                time: Time::from_millis(10),
                target: 0,
            },
            InjectedAttack {
                time: Time::from_millis(37),
                target: 1,
            },
            InjectedAttack {
                time: Time::from_millis(5),
                target: 9, // unknown target
            },
            InjectedAttack {
                time: Time::from_millis(10),
                target: 1,
            },
        ];
        (tasks, attacks)
    }

    #[test]
    fn online_detector_matches_the_trace_measurement() {
        let (tasks, attacks) = mixed_workload();
        let config = SimConfig::new(Time::from_secs(1));
        let trace = simulate(&tasks, &config);
        let from_trace = detection_times(&tasks, &trace, &attacks);
        let online = detection_times_online(&tasks, &config, &attacks);
        assert_eq!(online, from_trace);
        // Sanity: the scenario exercises detected, undetected-by-horizon and
        // unknown-target outcomes at once.
        assert!(online.iter().any(|o| o.latency().is_some()));
        assert!(online.iter().any(|o| o.latency().is_none()));
    }

    #[test]
    fn online_detector_is_reusable_across_measurements() {
        let (tasks, attacks) = mixed_workload();
        let config = SimConfig::new(Time::from_secs(1));
        let mut detector = OnlineDetector::new();
        let mut scratch = SimScratch::new();
        for _ in 0..3 {
            detector.begin(&tasks, &attacks);
            assert!(!detector.finished());
            simulate_with_scratch(&tasks, &config, &mut scratch, &mut detector);
            let trace = simulate(&tasks, &config);
            assert_eq!(
                detector.outcomes(),
                detection_times(&tasks, &trace, &attacks)
            );
        }
        // A different workload through the same detector must not leak state.
        let solo = vec![security_task(10, 100, 0, 0, 0)];
        let solo_attacks = vec![InjectedAttack {
            time: Time::from_millis(5),
            target: 0,
        }];
        detector.begin(&solo, &solo_attacks);
        simulate_with_scratch(&solo, &config, &mut scratch, &mut detector);
        assert_eq!(
            detector.outcomes(),
            vec![DetectionOutcome::Detected(Time::from_millis(105))]
        );
    }

    #[test]
    fn online_detector_with_only_unknown_targets_skips_the_simulation() {
        let tasks = vec![security_task(10, 100, 0, 0, 0)];
        let attacks = vec![InjectedAttack {
            time: Time::from_millis(5),
            target: 7,
        }];
        let mut detector = OnlineDetector::new();
        detector.begin(&tasks, &attacks);
        assert!(detector.finished());
        assert_eq!(detector.outcomes(), vec![DetectionOutcome::Undetected]);
        // The convenience wrapper agrees.
        let config = SimConfig::new(Time::from_millis(250));
        assert_eq!(
            detection_times_online(&tasks, &config, &attacks),
            vec![DetectionOutcome::Undetected]
        );
    }
}

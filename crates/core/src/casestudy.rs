//! The UAV control-system case study (Section IV-A).
//!
//! The paper evaluates HYDRA's runtime behaviour on a representative
//! unmanned-aerial-vehicle control system (Atdelzater, Atkins & Shin, IEEE TC
//! 2000) consisting of six periodic real-time tasks — guidance, slow and fast
//! navigation, closed-loop control, missile control and reconnaissance —
//! augmented with the Tripwire/Bro security tasks of Table I.
//!
//! The cited table gives task structure rather than exact microsecond WCETs
//! for the paper's ARM platform; the values below are representative of the
//! control rates described in that work (fast inner loops of tens of
//! milliseconds, slower guidance/reconnaissance loops up to one second) and
//! give a per-core utilisation comparable to the paper's setup. See
//! `DESIGN.md` §3 for the substitution note.

use rt_core::{RtTask, TaskSet, Time};

use crate::catalog::table1_tasks;
use crate::security::SecurityTaskSet;

/// Builds the six-task UAV real-time workload.
///
/// Total utilisation is roughly `0.6`, which fits on a single core but leaves
/// realistic amounts of slack on 2–8-core platforms for opportunistic
/// security execution.
#[must_use]
pub fn uav_rt_tasks() -> TaskSet {
    // (name, WCET ms, period ms)
    let params: [(&str, u64, u64); 6] = [
        ("missile_control", 2, 20),
        ("fast_navigation", 10, 50),
        ("controller", 15, 100),
        ("slow_navigation", 12, 200),
        ("guidance", 12, 200),
        ("reconnaissance", 25, 1_000),
    ];
    params
        .iter()
        .map(|&(name, c, t)| {
            RtTask::implicit_deadline(Time::from_millis(c), Time::from_millis(t))
                .expect("case-study parameters are valid")
                .with_name(name)
        })
        .collect()
}

/// The complete Figure 1 scenario: the UAV real-time workload plus the
/// Table I security tasks.
#[must_use]
pub fn uav_case_study() -> (TaskSet, SecurityTaskSet) {
    (uav_rt_tasks(), table1_tasks())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_core::rta::is_schedulable_rm;

    #[test]
    fn uav_workload_has_six_named_tasks() {
        let tasks = uav_rt_tasks();
        assert_eq!(tasks.len(), 6);
        assert!(tasks.tasks().all(|t| t.name().is_some()));
        let names: Vec<&str> = tasks.tasks().filter_map(|t| t.name()).collect();
        assert!(names.contains(&"guidance"));
        assert!(names.contains(&"controller"));
        assert!(names.contains(&"reconnaissance"));
    }

    #[test]
    fn uav_workload_is_single_core_schedulable() {
        let tasks = uav_rt_tasks();
        let u = tasks.total_utilization();
        assert!(u > 0.4 && u < 0.8, "utilisation {u} out of expected band");
        assert!(is_schedulable_rm(&tasks));
    }

    #[test]
    fn case_study_bundles_rt_and_security_tasks() {
        let (rt, sec) = uav_case_study();
        assert_eq!(rt.len(), 6);
        assert_eq!(sec.len(), 6);
    }
}

//! Sporadic security task model.
//!
//! Following the sporadic security task model of the paper (Section II-C),
//! each security task `τ_s` is characterised by `(C_s, T_s^des, T_s^max)`:
//! its WCET, the *desired* period (the inter-monitoring interval the designer
//! would ideally like) and the *maximum* period beyond which the monitoring
//! is considered ineffective. The achievable period `T_s` is decided by the
//! allocator and must satisfy `T_s^des ≤ T_s ≤ T_s^max`.
//!
//! Security tasks execute at a priority strictly below every real-time task;
//! among themselves they are ordered by `T^max` (a smaller `T^max` means the
//! monitoring is more time-critical and therefore gets a higher priority).

use core::fmt;

use rt_core::Time;

/// Index of a security task inside a [`SecurityTaskSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SecurityTaskId(pub usize);

impl fmt::Display for SecurityTaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ{}", self.0)
    }
}

/// Errors produced while constructing security tasks.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SecurityTaskError {
    /// The WCET is zero.
    ZeroWcet,
    /// The desired period is zero.
    ZeroDesiredPeriod,
    /// The desired period exceeds the maximum period.
    DesiredExceedsMax {
        /// Desired period.
        desired: Time,
        /// Maximum period.
        max: Time,
    },
    /// The WCET exceeds the maximum period, so the task could never complete
    /// within its implicit deadline even alone on a core.
    WcetExceedsMaxPeriod {
        /// Worst-case execution time.
        wcet: Time,
        /// Maximum period.
        max: Time,
    },
    /// A non-finite or non-positive weight was supplied.
    InvalidWeight(f64),
}

impl fmt::Display for SecurityTaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecurityTaskError::ZeroWcet => write!(f, "security task WCET must be positive"),
            SecurityTaskError::ZeroDesiredPeriod => {
                write!(f, "desired period must be positive")
            }
            SecurityTaskError::DesiredExceedsMax { desired, max } => {
                write!(f, "desired period {desired} exceeds maximum period {max}")
            }
            SecurityTaskError::WcetExceedsMaxPeriod { wcet, max } => {
                write!(f, "WCET {wcet} exceeds the maximum period {max}")
            }
            SecurityTaskError::InvalidWeight(w) => {
                write!(f, "weight must be positive and finite, got {w}")
            }
        }
    }
}

impl std::error::Error for SecurityTaskError {}

/// How a security task executes once it has been dispatched.
///
/// The base HYDRA model assumes fully preemptive security tasks. The paper's
/// Section V notes that some checks (e.g. ones that must observe a consistent
/// filesystem snapshot) may have to run non-preemptively; the blocking-aware
/// allocator in [`crate::nonpreemptive`] consumes this flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionMode {
    /// The task can be preempted at any instant (the paper's base model).
    #[default]
    Preemptive,
    /// Once started, the task runs to completion; it can block every
    /// higher-priority task on its core for up to its WCET.
    NonPreemptive,
}

/// A sporadic security task `(C_s, T_s^des, T_s^max)` with a weight `ω_s`
/// used in the cumulative-tightness objective.
///
/// # Example
///
/// ```
/// use hydra_core::SecurityTask;
/// use rt_core::Time;
///
/// # fn main() -> Result<(), hydra_core::SecurityTaskError> {
/// let scan = SecurityTask::new(
///     Time::from_millis(30),
///     Time::from_millis(1_500),
///     Time::from_millis(15_000),
/// )?
/// .with_name("check executables");
/// assert_eq!(scan.min_tightness(), 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityTask {
    wcet: Time,
    desired_period: Time,
    max_period: Time,
    weight: f64,
    name: Option<String>,
    execution_mode: ExecutionMode,
}

impl SecurityTask {
    /// Creates a security task with unit weight.
    ///
    /// # Errors
    ///
    /// Returns an error if any timing parameter is zero, the desired period
    /// exceeds the maximum period, or the WCET exceeds the maximum period.
    pub fn new(
        wcet: Time,
        desired_period: Time,
        max_period: Time,
    ) -> Result<Self, SecurityTaskError> {
        if wcet.is_zero() {
            return Err(SecurityTaskError::ZeroWcet);
        }
        if desired_period.is_zero() {
            return Err(SecurityTaskError::ZeroDesiredPeriod);
        }
        if desired_period > max_period {
            return Err(SecurityTaskError::DesiredExceedsMax {
                desired: desired_period,
                max: max_period,
            });
        }
        if wcet > max_period {
            return Err(SecurityTaskError::WcetExceedsMaxPeriod {
                wcet,
                max: max_period,
            });
        }
        Ok(SecurityTask {
            wcet,
            desired_period,
            max_period,
            weight: 1.0,
            name: None,
            execution_mode: ExecutionMode::Preemptive,
        })
    }

    /// Attaches a human-readable name.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Sets the weight `ω_s` used in the cumulative-tightness objective
    /// (Eq. 3). Larger weights should be given to more critical security
    /// tasks.
    ///
    /// # Errors
    ///
    /// Returns an error if the weight is not positive and finite.
    pub fn with_weight(mut self, weight: f64) -> Result<Self, SecurityTaskError> {
        if !weight.is_finite() || weight <= 0.0 {
            return Err(SecurityTaskError::InvalidWeight(weight));
        }
        self.weight = weight;
        Ok(self)
    }

    /// Marks the task as non-preemptive (see [`ExecutionMode`]).
    #[must_use]
    pub fn non_preemptive(mut self) -> Self {
        self.execution_mode = ExecutionMode::NonPreemptive;
        self
    }

    /// Sets the execution mode explicitly.
    #[must_use]
    pub fn with_execution_mode(mut self, mode: ExecutionMode) -> Self {
        self.execution_mode = mode;
        self
    }

    /// Execution mode of the task.
    #[must_use]
    pub fn execution_mode(&self) -> ExecutionMode {
        self.execution_mode
    }

    /// Whether the task runs to completion once started.
    #[must_use]
    pub fn is_non_preemptive(&self) -> bool {
        self.execution_mode == ExecutionMode::NonPreemptive
    }

    /// Worst-case execution time `C_s`.
    #[must_use]
    pub fn wcet(&self) -> Time {
        self.wcet
    }

    /// Desired (minimum acceptable) period `T_s^des`.
    #[must_use]
    pub fn desired_period(&self) -> Time {
        self.desired_period
    }

    /// Maximum acceptable period `T_s^max`.
    #[must_use]
    pub fn max_period(&self) -> Time {
        self.max_period
    }

    /// Objective weight `ω_s`.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Optional task name.
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Utilisation at the desired period, `C_s / T_s^des` — the highest
    /// utilisation the task can possibly impose.
    #[must_use]
    pub fn max_utilization(&self) -> f64 {
        self.wcet.ratio(self.desired_period)
    }

    /// Tightness achieved when running at the maximum period,
    /// `T^des / T^max` — the lower bound of the metric `η_s` (Eq. 2).
    #[must_use]
    pub fn min_tightness(&self) -> f64 {
        self.desired_period.ratio(self.max_period)
    }

    /// Tightness achieved when running at period `period`
    /// (`η_s = T^des / T_s`), clamped to the valid range `[min_tightness, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn tightness(&self, period: Time) -> f64 {
        let eta = self.desired_period.ratio(period);
        eta.clamp(self.min_tightness(), 1.0)
    }
}

impl fmt::Display for SecurityTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.name {
            Some(name) => write!(
                f,
                "{name}(C={}, Tdes={}, Tmax={})",
                self.wcet, self.desired_period, self.max_period
            ),
            None => write!(
                f,
                "sec(C={}, Tdes={}, Tmax={})",
                self.wcet, self.desired_period, self.max_period
            ),
        }
    }
}

/// An ordered collection of security tasks.
///
/// [`SecurityTaskId`]s are indices into this set. The *priority order* of the
/// tasks is given by [`SecurityTaskSet::ids_by_priority`]: ascending `T^max`
/// (ties broken by id), independent of declaration order. The order is
/// computed lazily on first use and cached (mutation invalidates it), so
/// per-task queries such as [`SecurityTaskSet::higher_priority_than`] stay
/// O(n) instead of re-sorting the whole set on every call.
#[derive(Debug, Default)]
pub struct SecurityTaskSet {
    tasks: Vec<SecurityTask>,
    /// Lazily computed priority order; never compared.
    priority_cache: std::sync::OnceLock<Vec<SecurityTaskId>>,
}

impl Clone for SecurityTaskSet {
    fn clone(&self) -> Self {
        SecurityTaskSet {
            tasks: self.tasks.clone(),
            priority_cache: self.priority_cache.clone(),
        }
    }
}

impl PartialEq for SecurityTaskSet {
    fn eq(&self, other: &Self) -> bool {
        self.tasks == other.tasks
    }
}

impl SecurityTaskSet {
    /// Creates a set from a vector of security tasks.
    #[must_use]
    pub fn new(tasks: Vec<SecurityTask>) -> Self {
        SecurityTaskSet {
            tasks,
            priority_cache: std::sync::OnceLock::new(),
        }
    }

    /// Creates an empty set.
    #[must_use]
    pub fn empty() -> Self {
        SecurityTaskSet::new(Vec::new())
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Appends a task, returning its id.
    pub fn push(&mut self, task: SecurityTask) -> SecurityTaskId {
        self.priority_cache.take();
        self.tasks.push(task);
        SecurityTaskId(self.tasks.len() - 1)
    }

    /// Returns the task with the given id, if it exists.
    #[must_use]
    pub fn get(&self, id: SecurityTaskId) -> Option<&SecurityTask> {
        self.tasks.get(id.0)
    }

    /// Iterates over `(SecurityTaskId, &SecurityTask)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (SecurityTaskId, &SecurityTask)> + '_ {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (SecurityTaskId(i), t))
    }

    /// Iterates over the tasks in id order.
    pub fn tasks(&self) -> impl Iterator<Item = &SecurityTask> + '_ {
        self.tasks.iter()
    }

    /// All ids in the set.
    pub fn ids(&self) -> impl Iterator<Item = SecurityTaskId> + '_ {
        (0..self.tasks.len()).map(SecurityTaskId)
    }

    /// The cached priority order: ids from highest to lowest priority
    /// (ascending `T^max`, ties broken by id). Computed once per set and
    /// reused by every per-task query.
    #[must_use]
    pub fn priority_order(&self) -> &[SecurityTaskId] {
        self.priority_cache.get_or_init(|| {
            let mut ids: Vec<SecurityTaskId> = self.ids().collect();
            ids.sort_by_key(|&id| (self.tasks[id.0].max_period(), id.0));
            ids
        })
    }

    /// Ids sorted from highest to lowest priority (ascending `T^max`,
    /// ties broken by id) — the iteration order of HYDRA's outer loop.
    /// Borrows the cached order; no allocation per call.
    #[must_use]
    pub fn ids_by_priority(&self) -> &[SecurityTaskId] {
        self.priority_order()
    }

    /// Ids of the tasks with strictly higher priority than `id`, in priority
    /// order. An allocation-free iterator over the cached order — safe to
    /// call inside per-task loops.
    pub fn higher_priority_than(
        &self,
        id: SecurityTaskId,
    ) -> impl Iterator<Item = SecurityTaskId> + '_ {
        self.priority_order()
            .iter()
            .copied()
            .take_while(move |&other| other != id)
    }

    /// Total utilisation if every task ran at its desired period (an upper
    /// bound on the load the security workload can impose).
    #[must_use]
    pub fn max_total_utilization(&self) -> f64 {
        self.tasks.iter().map(SecurityTask::max_utilization).sum()
    }

    /// Total utilisation if every task ran at its maximum period (a lower
    /// bound on the load required for effective monitoring).
    #[must_use]
    pub fn min_total_utilization(&self) -> f64 {
        self.tasks.iter().map(|t| t.wcet.ratio(t.max_period)).sum()
    }

    /// Sum of all weights `Σ ω_s` — the maximum possible cumulative weighted
    /// tightness (achieved when every task gets its desired period).
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.tasks.iter().map(SecurityTask::weight).sum()
    }
}

impl FromIterator<SecurityTask> for SecurityTaskSet {
    fn from_iter<I: IntoIterator<Item = SecurityTask>>(iter: I) -> Self {
        SecurityTaskSet::new(iter.into_iter().collect())
    }
}

impl Extend<SecurityTask> for SecurityTaskSet {
    fn extend<I: IntoIterator<Item = SecurityTask>>(&mut self, iter: I) {
        self.priority_cache.take();
        self.tasks.extend(iter);
    }
}

impl std::ops::Index<SecurityTaskId> for SecurityTaskSet {
    type Output = SecurityTask;
    fn index(&self, id: SecurityTaskId) -> &SecurityTask {
        &self.tasks[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sec(c_ms: u64, tdes_ms: u64, tmax_ms: u64) -> SecurityTask {
        SecurityTask::new(
            Time::from_millis(c_ms),
            Time::from_millis(tdes_ms),
            Time::from_millis(tmax_ms),
        )
        .unwrap()
    }

    #[test]
    fn valid_construction_and_accessors() {
        let t = sec(20, 1000, 10_000)
            .with_name("bro")
            .with_weight(2.0)
            .unwrap();
        assert_eq!(t.wcet(), Time::from_millis(20));
        assert_eq!(t.desired_period(), Time::from_millis(1000));
        assert_eq!(t.max_period(), Time::from_millis(10_000));
        assert_eq!(t.weight(), 2.0);
        assert_eq!(t.name(), Some("bro"));
        assert!((t.max_utilization() - 0.02).abs() < 1e-12);
        assert!((t.min_tightness() - 0.1).abs() < 1e-12);
        assert!(t.to_string().contains("bro"));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert_eq!(
            SecurityTask::new(Time::ZERO, Time::from_millis(1), Time::from_millis(1)),
            Err(SecurityTaskError::ZeroWcet)
        );
        assert_eq!(
            SecurityTask::new(Time::from_millis(1), Time::ZERO, Time::from_millis(1)),
            Err(SecurityTaskError::ZeroDesiredPeriod)
        );
        assert!(matches!(
            SecurityTask::new(
                Time::from_millis(1),
                Time::from_millis(10),
                Time::from_millis(5)
            ),
            Err(SecurityTaskError::DesiredExceedsMax { .. })
        ));
        assert!(matches!(
            SecurityTask::new(
                Time::from_millis(100),
                Time::from_millis(10),
                Time::from_millis(50)
            ),
            Err(SecurityTaskError::WcetExceedsMaxPeriod { .. })
        ));
        assert!(matches!(
            sec(1, 10, 100).with_weight(0.0),
            Err(SecurityTaskError::InvalidWeight(_))
        ));
        assert!(matches!(
            sec(1, 10, 100).with_weight(f64::NAN),
            Err(SecurityTaskError::InvalidWeight(_))
        ));
    }

    #[test]
    fn execution_mode_defaults_to_preemptive() {
        let t = sec(10, 1000, 10_000);
        assert_eq!(t.execution_mode(), ExecutionMode::Preemptive);
        assert!(!t.is_non_preemptive());
        let np = t.clone().non_preemptive();
        assert!(np.is_non_preemptive());
        let back = np.with_execution_mode(ExecutionMode::Preemptive);
        assert!(!back.is_non_preemptive());
    }

    #[test]
    fn wcet_may_exceed_desired_period() {
        // The achievable period just has to be larger than the WCET; the
        // desired period may be optimistic.
        let t = SecurityTask::new(
            Time::from_millis(50),
            Time::from_millis(10),
            Time::from_millis(500),
        );
        assert!(t.is_ok());
    }

    #[test]
    fn tightness_is_clamped() {
        let t = sec(10, 1000, 4000);
        assert_eq!(t.tightness(Time::from_millis(1000)), 1.0);
        assert_eq!(t.tightness(Time::from_millis(2000)), 0.5);
        // Periods below the desired period clamp to 1.
        assert_eq!(t.tightness(Time::from_millis(500)), 1.0);
        // Periods above the maximum clamp to the minimum tightness.
        assert_eq!(t.tightness(Time::from_millis(8000)), 0.25);
    }

    #[test]
    fn priority_order_is_by_max_period() {
        let set: SecurityTaskSet = vec![sec(1, 100, 5000), sec(1, 100, 1000), sec(1, 100, 3000)]
            .into_iter()
            .collect();
        assert_eq!(
            set.ids_by_priority(),
            vec![SecurityTaskId(1), SecurityTaskId(2), SecurityTaskId(0)]
        );
        assert_eq!(
            set.higher_priority_than(SecurityTaskId(0))
                .collect::<Vec<_>>(),
            vec![SecurityTaskId(1), SecurityTaskId(2)]
        );
        assert_eq!(set.higher_priority_than(SecurityTaskId(1)).count(), 0);
    }

    #[test]
    fn priority_cache_is_invalidated_by_mutation() {
        let mut set: SecurityTaskSet = vec![sec(1, 100, 5000)].into_iter().collect();
        // Prime the cache, then mutate: a higher-priority task must surface.
        assert_eq!(set.priority_order(), [SecurityTaskId(0)]);
        let new_id = set.push(sec(1, 100, 1000));
        assert_eq!(set.priority_order(), [new_id, SecurityTaskId(0)]);
        set.extend(vec![sec(1, 100, 500)]);
        assert_eq!(set.priority_order()[0], SecurityTaskId(2));
        // Clones answer identically and compare equal regardless of whether
        // their caches are primed.
        let clone = set.clone();
        assert_eq!(clone, set);
        assert_eq!(clone.priority_order(), set.priority_order());
    }

    #[test]
    fn priority_ties_broken_by_id() {
        let set: SecurityTaskSet = vec![sec(1, 100, 1000), sec(1, 100, 1000)]
            .into_iter()
            .collect();
        assert_eq!(
            set.ids_by_priority(),
            vec![SecurityTaskId(0), SecurityTaskId(1)]
        );
    }

    #[test]
    fn set_utilization_bounds() {
        let set: SecurityTaskSet = vec![sec(10, 100, 1000), sec(20, 200, 2000)]
            .into_iter()
            .collect();
        assert!((set.max_total_utilization() - 0.2).abs() < 1e-12);
        assert!((set.min_total_utilization() - 0.02).abs() < 1e-12);
        assert_eq!(set.total_weight(), 2.0);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    fn push_get_and_index() {
        let mut set = SecurityTaskSet::empty();
        let id = set.push(sec(1, 10, 100));
        assert_eq!(id, SecurityTaskId(0));
        assert!(set.get(id).is_some());
        assert!(set.get(SecurityTaskId(3)).is_none());
        assert_eq!(set[id].wcet(), Time::from_millis(1));
        assert_eq!(id.to_string(), "σ0");
    }

    #[test]
    fn error_messages_are_informative() {
        for e in [
            SecurityTaskError::ZeroWcet,
            SecurityTaskError::ZeroDesiredPeriod,
            SecurityTaskError::InvalidWeight(-1.0),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}

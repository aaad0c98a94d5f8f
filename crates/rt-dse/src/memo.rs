//! Cross-scenario memoization.
//!
//! Three kinds of expensive intermediate work are shared across scenario
//! points:
//!
//! * scenarios differing only in the **allocator** or **period-policy**
//!   axis share the identical generated problem (same seed-stream address),
//!   so task-set generation runs once per address, not once per scheme;
//! * the Eq. (1) **necessary-condition** filter depends only on the
//!   real-time task set and the core count, so its verdict is cached keyed
//!   by `(task-set hash, cores)`;
//! * the **allocation** (placement search) depends only on `(problem,
//!   scheme)` — the period-policy axis re-derives periods from one shared
//!   allocator run instead of repeating the search per policy.
//!
//! The cache is sharded to keep lock contention negligible under the
//! work-stealing executor; every entry is immutable once inserted (`Arc`ed
//! problems), so readers never block writers of *other* keys for long.
//!
//! # The retired partition family
//!
//! Earlier revisions carried a fourth family caching the real-time
//! partition per `(task-set hash, cores, config)` key. Sweep telemetry
//! measured it essentially dead — **5 hits against 5754 misses** (< 0.1 %)
//! on the default bench grid — and the cause is structural, not a fixable
//! key choice:
//!
//! 1. **The allocation memo sits upstream.** The partition was only built
//!    inside an allocator run, and whole allocator runs are themselves
//!    cached per `(problem, scheme)`, so repeat visitors never reached it.
//! 2. **Hydra-family and SingleCore keys are disjoint.** Full-platform
//!    schemes partition `M` cores while SingleCore partitions `M − 1`: a
//!    Hydra + SingleCore sweep — the paper's headline comparison — had zero
//!    possible cross-scheme reuse.
//! 3. **Task sets are unique per scenario address.** Each set derives from
//!    its own `(seed, stream)` address, so two grid points virtually never
//!    hash alike; the stray hits were low-utilization collisions.
//!
//! The partition is now computed inline by the allocator paths. The only
//! reuse the family ever delivered — sweeps mixing two or more
//! full-platform schemes, one hit per extra scheme per feasible problem —
//! costs at most one extra `partition_tasks` run per such scheme, noise
//! next to the placement search the allocation family still dedups.

// The sharded caches are keyed point-lookups, never iterated, so hash order
// cannot reach output bytes (allowlisted for lint rule D001).
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hydra_core::{Allocation, AllocationError, AllocationProblem};
use rt_core::TaskSet;

use crate::spec::AllocatorKind;
use crate::store::MemoStore;

const SHARDS: usize = 32;

/// Identifies one generated problem instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProblemKey {
    /// Core count of the platform.
    pub cores: usize,
    /// Requested total utilization (bit pattern, so the key is `Eq + Hash`);
    /// zero for fixed workloads.
    pub utilization_bits: u64,
    /// The sweep's base seed.
    pub base_seed: u64,
    /// The scenario's problem-stream address.
    pub stream: u64,
    /// Fingerprint of generator overrides (different overrides generate
    /// different problems from the same address).
    pub config_fingerprint: u64,
}

/// Identifies one allocator run: the exact problem instance plus the scheme.
/// Scenarios differing only in the **period policy** share this key — the
/// placement search runs once and each policy re-derives its periods from
/// the shared result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocationKey {
    /// The generated problem's identity.
    pub problem: ProblemKey,
    /// The allocation scheme that ran.
    pub allocator: AllocatorKind,
}

/// FNV-1a over the timing parameters of a real-time task set: a stable
/// structural fingerprint for schedulability caching.
#[must_use]
pub fn hash_taskset(set: &TaskSet) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    feed(set.len() as u64);
    for task in set.tasks() {
        feed(task.wcet().as_ticks());
        feed(task.period().as_ticks());
        feed(task.deadline().as_ticks());
    }
    h
}

/// Bumps one hit/miss statistics counter.
fn bump(counter: &AtomicU64) {
    // relaxed-ok: pure monotonic statistics — no cross-thread data handoff
    // is guarded by these counters, and `stats()` snapshots them only after
    // the sweep's worker threads have joined.
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Reads one hit/miss statistics counter.
fn read(counter: &AtomicU64) -> u64 {
    // relaxed-ok: statistics snapshot; same verdict as `bump`.
    counter.load(Ordering::Relaxed)
}

/// Hit/miss counters of a finished sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Problem-cache hits (a regeneration elided).
    pub problem_hits: u64,
    /// Problem-cache misses (the generator actually ran).
    pub problem_misses: u64,
    /// Feasibility-cache hits (an Eq. (1) evaluation elided).
    pub feasibility_hits: u64,
    /// Feasibility-cache misses.
    pub feasibility_misses: u64,
    /// Allocation-cache hits (a placement search elided — the period-policy
    /// axis reuses one allocator run per `(problem, scheme)` key).
    pub allocation_hits: u64,
    /// Allocation-cache misses (the allocator actually ran).
    pub allocation_misses: u64,
    /// Persistent-store hits, summed over all three families: an in-memory
    /// miss that was answered from the attached [`MemoStore`] instead of
    /// recomputed. Always zero without an attached store. The in-memory
    /// family counters above deliberately do **not** distinguish warm from
    /// cold stores — a store hit still books the family miss the
    /// computation would have booked, keeping them byte-identical across
    /// store states. Every family miss makes exactly one store lookup, so
    /// with a store attached `store_hits + store_misses` equals the sum of
    /// the three family miss counters.
    pub store_hits: u64,
    /// Persistent-store misses (all three families): the key was absent —
    /// or its entry corrupt — so the value was computed and written back.
    /// A fully warm store completes a repeat sweep with zero misses.
    pub store_misses: u64,
    /// Failed persistent-store writes (all three families). Write failures
    /// are tolerated — the sweep's results are unaffected; the entry is
    /// simply recomputed by whoever needs it next.
    pub store_write_errors: u64,
}

/// A cached allocator run: the allocation, or the scheme's rejection
/// (failures cache too — an unschedulable task set fails once per scheme,
/// not once per period policy).
pub type SharedAllocation = Arc<Result<Allocation, AllocationError>>;

/// Mirror counters on the metrics registry, so the live heartbeat can read
/// memo traffic mid-sweep instead of waiting for the end-of-run
/// [`MemoStats`]. Inert (no-op handles) unless the cache was built with
/// [`MemoCache::with_observability`].
#[derive(Debug, Default)]
struct MemoObsCounters {
    problem_hits: rt_obs::Counter,
    problem_misses: rt_obs::Counter,
    feasibility_hits: rt_obs::Counter,
    feasibility_misses: rt_obs::Counter,
    allocation_hits: rt_obs::Counter,
    allocation_misses: rt_obs::Counter,
    store_hits: rt_obs::Counter,
    store_misses: rt_obs::Counter,
    store_write_errors: rt_obs::Counter,
}

/// The shared memoization cache of one sweep execution.
///
/// Every access is counted: a lookup that finds the key books a hit, one
/// that does not books a miss and reads the store or computes the value.
/// Nothing is cached ahead of its first access, so the counters depend only
/// on the sequence of accesses, never on the kernel mode.
///
/// # Persistent backing
///
/// A cache built with [`MemoCache::backed_by`] consults a shared on-disk
/// [`MemoStore`] on every in-memory miss before computing, and writes every
/// freshly computed value back. Store traffic is booked on the three
/// `store_*` counters only; the per-family counters keep their in-memory
/// meaning (a store hit still books the family miss), so sweep statistics
/// — and output bytes — are identical whether the store is cold, warm or
/// absent.
#[derive(Debug, Default)]
pub struct MemoCache {
    store: Option<Arc<MemoStore>>,
    problems: Vec<Mutex<HashMap<ProblemKey, Arc<AllocationProblem>>>>,
    feasibility: Vec<Mutex<HashMap<(u64, usize), bool>>>,
    allocations: Vec<Mutex<HashMap<AllocationKey, SharedAllocation>>>,
    problem_hits: AtomicU64,
    problem_misses: AtomicU64,
    feasibility_hits: AtomicU64,
    feasibility_misses: AtomicU64,
    allocation_hits: AtomicU64,
    allocation_misses: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    store_write_errors: AtomicU64,
    obs: MemoObsCounters,
}

impl MemoCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        MemoCache {
            store: None,
            problems: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            feasibility: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            allocations: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            problem_hits: AtomicU64::new(0),
            problem_misses: AtomicU64::new(0),
            feasibility_hits: AtomicU64::new(0),
            feasibility_misses: AtomicU64::new(0),
            allocation_hits: AtomicU64::new(0),
            allocation_misses: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            store_write_errors: AtomicU64::new(0),
            obs: MemoObsCounters::default(),
        }
    }

    /// Creates an empty cache whose hit/miss counters are mirrored onto the
    /// `memo.*` registry counters of `shard` (live telemetry for the
    /// heartbeat). With a disabled shard this is exactly [`MemoCache::new`].
    #[must_use]
    pub fn with_observability(shard: &rt_obs::ShardHandle) -> Self {
        MemoCache {
            obs: MemoObsCounters {
                problem_hits: shard.counter("memo.problem_hits"),
                problem_misses: shard.counter("memo.problem_misses"),
                feasibility_hits: shard.counter("memo.feasibility_hits"),
                feasibility_misses: shard.counter("memo.feasibility_misses"),
                allocation_hits: shard.counter("memo.allocation_hits"),
                allocation_misses: shard.counter("memo.allocation_misses"),
                store_hits: shard.counter("memo.store_hits"),
                store_misses: shard.counter("memo.store_misses"),
                store_write_errors: shard.counter("memo.store_write_errors"),
            },
            ..MemoCache::new()
        }
    }

    /// Attaches a persistent [`MemoStore`]: every in-memory miss consults
    /// the store before computing, every freshly computed value is written
    /// back, and store traffic is booked on the `store_*` counters. The
    /// per-family hit/miss counters are unaffected (see the type docs), so
    /// attaching a store never changes sweep statistics or output bytes.
    #[must_use]
    pub fn backed_by(mut self, store: Arc<MemoStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Books one persistent-store hit.
    fn book_store_hit(&self) {
        bump(&self.store_hits);
        self.obs.store_hits.inc();
    }

    /// Books one persistent-store miss.
    fn book_store_miss(&self) {
        bump(&self.store_misses);
        self.obs.store_misses.inc();
    }

    /// Books a persistent-store write outcome (failures count, successes
    /// are free).
    fn book_store_write(&self, result: std::io::Result<()>) {
        if result.is_err() {
            bump(&self.store_write_errors);
            self.obs.store_write_errors.inc();
        }
    }

    fn shard_of(hash: u64) -> usize {
        // High bits: the low bits of sequential streams are too regular.
        (hash >> 58) as usize % SHARDS
    }

    /// Returns the problem for `key`, generating it with `generate` on a
    /// miss. Concurrent callers of the same key may both generate (the
    /// generator is deterministic, so both produce the identical problem and
    /// either insert wins); the lock is *not* held during generation.
    pub fn problem(
        &self,
        key: ProblemKey,
        generate: impl FnOnce() -> AllocationProblem,
    ) -> Arc<AllocationProblem> {
        let hash = key.stream ^ key.base_seed.rotate_left(32) ^ (key.cores as u64).rotate_left(48);
        let shard = &self.problems[Self::shard_of(hash.wrapping_mul(0x9E37_79B9_7F4A_7C15))];
        if let Some(found) = shard.lock().expect("memo shard poisoned").get(&key) {
            bump(&self.problem_hits);
            self.obs.problem_hits.inc();
            return Arc::clone(found);
        }
        bump(&self.problem_misses);
        self.obs.problem_misses.inc();
        if let Some(found) = self.store.as_deref().and_then(|s| s.get_problem(&key)) {
            self.book_store_hit();
            let mut guard = shard.lock().expect("memo shard poisoned");
            return Arc::clone(guard.entry(key).or_insert(Arc::new(found)));
        }
        if self.store.is_some() {
            self.book_store_miss();
        }
        let generated = Arc::new(generate());
        if let Some(store) = self.store.as_deref() {
            self.book_store_write(store.put_problem(&key, &generated));
        }
        let mut guard = shard.lock().expect("memo shard poisoned");
        Arc::clone(guard.entry(key).or_insert(generated))
    }

    /// Returns the cached Eq. (1) verdict for `(taskset_hash, cores)`,
    /// computing it with `check` on a miss.
    pub fn feasibility(
        &self,
        taskset_hash: u64,
        cores: usize,
        check: impl FnOnce() -> bool,
    ) -> bool {
        let shard = &self.feasibility
            [Self::shard_of(taskset_hash.wrapping_add((cores as u64).rotate_left(40)))];
        if let Some(&verdict) = shard
            .lock()
            .expect("memo shard poisoned")
            .get(&(taskset_hash, cores))
        {
            bump(&self.feasibility_hits);
            self.obs.feasibility_hits.inc();
            return verdict;
        }
        bump(&self.feasibility_misses);
        self.obs.feasibility_misses.inc();
        if let Some(store) = self.store.as_deref() {
            if let Some(verdict) = store.get_feasibility(taskset_hash, cores) {
                self.book_store_hit();
                shard
                    .lock()
                    .expect("memo shard poisoned")
                    .entry((taskset_hash, cores))
                    .or_insert(verdict);
                return verdict;
            }
            self.book_store_miss();
        }
        let verdict = check();
        if let Some(store) = self.store.as_deref() {
            self.book_store_write(store.put_feasibility(taskset_hash, cores, verdict));
        }
        shard
            .lock()
            .expect("memo shard poisoned")
            .entry((taskset_hash, cores))
            .or_insert(verdict);
        verdict
    }

    /// Returns the cached allocator run for `key`, computing it with
    /// `build` on a miss. The period-policy axis calls this once per
    /// scenario but the placement search runs once per `(problem, scheme)`
    /// key; rejections cache too. Like the other families, the lock is not
    /// held while `build` runs — racing builders of the same key may both
    /// run the deterministic allocator and either result wins.
    pub fn allocation(
        &self,
        key: AllocationKey,
        build: impl FnOnce() -> Result<Allocation, AllocationError>,
    ) -> SharedAllocation {
        let shard = &self.allocations[Self::shard_of(
            key.problem
                .stream
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((key.allocator as u64).rotate_left(12)),
        )];
        if let Some(found) = shard.lock().expect("memo shard poisoned").get(&key) {
            bump(&self.allocation_hits);
            self.obs.allocation_hits.inc();
            return Arc::clone(found);
        }
        bump(&self.allocation_misses);
        self.obs.allocation_misses.inc();
        if let Some(found) = self.store.as_deref().and_then(|s| s.get_allocation(&key)) {
            self.book_store_hit();
            let mut guard = shard.lock().expect("memo shard poisoned");
            return Arc::clone(guard.entry(key).or_insert(Arc::new(found)));
        }
        if self.store.is_some() {
            self.book_store_miss();
        }
        let built = Arc::new(build());
        if let Some(store) = self.store.as_deref() {
            self.book_store_write(store.put_allocation(&key, &built));
        }
        let mut guard = shard.lock().expect("memo shard poisoned");
        Arc::clone(guard.entry(key).or_insert(built))
    }

    /// Snapshot of the hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            problem_hits: read(&self.problem_hits),
            problem_misses: read(&self.problem_misses),
            feasibility_hits: read(&self.feasibility_hits),
            feasibility_misses: read(&self.feasibility_misses),
            allocation_hits: read(&self.allocation_hits),
            allocation_misses: read(&self.allocation_misses),
            store_hits: read(&self.store_hits),
            store_misses: read(&self.store_misses),
            store_write_errors: read(&self.store_write_errors),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::{casestudy, catalog};
    use rt_partition::Partition;

    fn key(stream: u64) -> ProblemKey {
        ProblemKey {
            cores: 2,
            utilization_bits: 1.5f64.to_bits(),
            base_seed: 7,
            stream,
            config_fingerprint: 0,
        }
    }

    fn uav_problem() -> AllocationProblem {
        AllocationProblem::new(casestudy::uav_rt_tasks(), catalog::table1_tasks(), 2)
    }

    #[test]
    fn problem_generation_runs_once_per_key() {
        let cache = MemoCache::new();
        let mut calls = 0;
        for _ in 0..3 {
            let _ = cache.problem(key(1), || {
                calls += 1;
                uav_problem()
            });
        }
        assert_eq!(calls, 1);
        let stats = cache.stats();
        assert_eq!(stats.problem_misses, 1);
        assert_eq!(stats.problem_hits, 2);
    }

    #[test]
    fn distinct_keys_generate_distinct_entries() {
        let cache = MemoCache::new();
        let a = cache.problem(key(1), uav_problem);
        let b = cache.problem(key(2), uav_problem);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().problem_misses, 2);
    }

    #[test]
    fn feasibility_verdicts_are_cached() {
        let cache = MemoCache::new();
        let mut calls = 0;
        for _ in 0..4 {
            let verdict = cache.feasibility(99, 2, || {
                calls += 1;
                true
            });
            assert!(verdict);
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.stats().feasibility_hits, 3);
        // Different cores: a fresh verdict.
        let _ = cache.feasibility(99, 4, || false);
        assert_eq!(cache.stats().feasibility_misses, 2);
    }

    #[test]
    fn allocations_are_cached_including_rejections() {
        let cache = MemoCache::new();
        let key = AllocationKey {
            problem: key(1),
            allocator: AllocatorKind::Hydra,
        };
        let mut calls = 0;
        for _ in 0..3 {
            let a = cache.allocation(key, || {
                calls += 1;
                Ok(Allocation::new(Partition::new(0, 2), Vec::new()))
            });
            assert!(a.is_ok());
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.stats().allocation_misses, 1);
        assert_eq!(cache.stats().allocation_hits, 2);
        // A different scheme on the same problem is a different entry, and
        // rejections cache too.
        let other = AllocationKey {
            allocator: AllocatorKind::SingleCore,
            ..key
        };
        for _ in 0..2 {
            let a = cache.allocation(other, || {
                Err(AllocationError::InsufficientCores {
                    available: 1,
                    required: 2,
                })
            });
            assert!(a.is_err());
        }
        assert_eq!(cache.stats().allocation_misses, 2);
        assert_eq!(cache.stats().allocation_hits, 3);
    }

    fn store_in(tag: &str) -> (Arc<MemoStore>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("rt-dse-memo-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = MemoStore::open(&dir)
            .expect("temp store opens")
            .with_fsync(false);
        (Arc::new(store), dir)
    }

    #[test]
    fn store_backed_cache_answers_repeat_misses_from_disk() {
        let (store, dir) = store_in("repeat");
        // Cold cache: everything misses the store, computes, writes back.
        let cold = MemoCache::new().backed_by(Arc::clone(&store));
        let mut generated = 0;
        let _ = cold.problem(key(1), || {
            generated += 1;
            uav_problem()
        });
        assert!(cold.feasibility(77, 2, || true));
        let stats = cold.stats();
        assert_eq!(stats.store_hits, 0);
        assert_eq!(stats.store_misses, 2);
        assert_eq!(stats.store_write_errors, 0);
        // Warm cache (fresh in-memory state, same disk): the family counters
        // book the same misses a cold run would, but nothing is recomputed.
        let warm = MemoCache::new().backed_by(store);
        let _ = warm.problem(key(1), || {
            generated += 1;
            uav_problem()
        });
        assert!(warm.feasibility(77, 2, || panic!("verdict is on disk")));
        assert_eq!(generated, 1);
        let stats = warm.stats();
        assert_eq!(stats.problem_misses, 1);
        assert_eq!(stats.feasibility_misses, 1);
        assert_eq!(stats.store_hits, 2);
        assert_eq!(stats.store_misses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_backed_allocations_round_trip() {
        let (store, dir) = store_in("pa");
        let akey = AllocationKey {
            problem: key(1),
            allocator: AllocatorKind::Hydra,
        };
        let cold = MemoCache::new().backed_by(Arc::clone(&store));
        let _ = cold.allocation(akey, || {
            Err(AllocationError::InsufficientCores {
                available: 1,
                required: 2,
            })
        });
        let warm = MemoCache::new().backed_by(store);
        let a = warm.allocation(akey, || panic!("allocation is on disk"));
        assert!(a.is_err());
        let stats = warm.stats();
        assert_eq!(stats.allocation_misses, 1);
        assert_eq!(stats.store_hits, 1);
        assert_eq!(stats.store_misses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn taskset_hash_is_structural() {
        let a = casestudy::uav_rt_tasks();
        let b = casestudy::uav_rt_tasks();
        assert_eq!(hash_taskset(&a), hash_taskset(&b));
        let mut c = casestudy::uav_rt_tasks();
        c.push(
            rt_core::RtTask::implicit_deadline(
                rt_core::Time::from_millis(1),
                rt_core::Time::from_millis(100),
            )
            .unwrap(),
        );
        assert_ne!(hash_taskset(&a), hash_taskset(&c));
    }
}

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
//! executor's worker pool. Every key owns a single-flight cell: its first
//! caller runs the computation — and the [`MemoStore`] read before it —
//! with no shard lock held, and concurrent callers of the same key wait for
//! that result instead of computing it again. Each key is therefore
//! computed once per cache, and the hit/miss counters are exact and
//! independent of thread count: misses count the distinct keys looked up,
//! hits every other lookup.
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
//! The only reuse the family ever delivered is sweeps mixing two or more
//! full-platform schemes: HYDRA, NP-HYDRA, Precedence and Optimal pack the
//! same real-time tasks onto the same `M` cores. That reuse is not noise.
//! Without it, the Fig. 2 `alloc-grid` ledger (`perfbench --workload
//! alloc-grid --seed 1 --seconds 10 --trace 1`, 2-vCPU host, hydra +
//! singlecore + nphydra) put the partition at 66 % of the summed self time,
//! 1,781 ms against 46 ms of placement, and one partition in three repeated
//! another (7,020 runs for 4,680 distinct problem and core-count pairs).
//!
//! It needs no memo family, though. Every variant of a problem runs in one
//! problem group on one worker, so the worker's scratch keeps the group's
//! partitions, failures included, keyed by problem and core count, and
//! drops them when it claims the next group (`EvalScratch::partition` in
//! `exec.rs`). The partition count is exact and thread-independent by
//! construction, and nothing reaches the store.

// The sharded caches are keyed point-lookups, never iterated, so hash order
// cannot reach output bytes (allowlisted for lint rule D001).
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

/// One exact statistics counter plus its live registry mirror, so the
/// heartbeat can read memo traffic mid-sweep instead of waiting for the
/// end-of-run [`MemoStats`]. The mirror is inert unless the cache was built
/// with [`MemoCache::with_observability`].
#[derive(Debug, Default)]
struct Tally {
    count: AtomicU64,
    mirror: rt_obs::Counter,
}

impl Tally {
    fn mirrored(mirror: rt_obs::Counter) -> Self {
        Tally {
            count: AtomicU64::new(0),
            mirror,
        }
    }

    fn bump(&self) {
        // relaxed-ok: pure monotonic statistics — no cross-thread data handoff
        // is guarded by these counters, and `stats()` snapshots them only after
        // the sweep's worker threads have joined.
        self.count.fetch_add(1, Ordering::Relaxed);
        self.mirror.inc();
    }

    fn read(&self) -> u64 {
        // relaxed-ok: statistics snapshot; same verdict as `bump`.
        self.count.load(Ordering::Relaxed)
    }
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

/// One memo family: a sharded map from key to single-flight cell, plus the
/// family's hit/miss counters.
#[derive(Debug)]
struct Family<K, V> {
    shards: Vec<Mutex<HashMap<K, Arc<OnceLock<V>>>>>,
    hits: Tally,
    misses: Tally,
}

impl<K, V> Family<K, V> {
    fn mirrored(hits: rt_obs::Counter, misses: rt_obs::Counter) -> Self {
        Family {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: Tally::mirrored(hits),
            misses: Tally::mirrored(misses),
        }
    }
}

impl<K, V> Default for Family<K, V> {
    fn default() -> Self {
        Family::mirrored(rt_obs::Counter::default(), rt_obs::Counter::default())
    }
}

impl<K: Eq + Hash, V: Clone> Family<K, V> {
    /// Returns the value of `key`, running `compute` only when no earlier or
    /// concurrent caller of the key has; `spread` picks the shard. The
    /// caller whose `compute` ran books the miss. Every other caller books a
    /// hit, including one that waited for an in-flight computation.
    fn get_or_compute(&self, spread: u64, key: K, compute: impl FnOnce() -> V) -> V {
        // High bits: the low bits of sequential streams are too regular.
        let shard = &self.shards[(spread >> 58) as usize % SHARDS];
        let cell = Arc::clone(
            shard
                .lock()
                .expect("memo shard poisoned")
                .entry(key)
                .or_default(),
        );
        let mut computed = false;
        let value = cell
            .get_or_init(|| {
                computed = true;
                compute()
            })
            .clone();
        if computed {
            self.misses.bump();
        } else {
            self.hits.bump();
        }
        value
    }
}

/// The shared memoization cache of one sweep execution.
///
/// Every access is counted. Each key is computed at most once, by its first
/// caller, which books the miss and reads the store or computes the value;
/// every other lookup of the key books a hit, including one that arrived
/// while the computation was still running and waited for it. Nothing is
/// cached ahead of its first access, so the counters depend only on the
/// multiset of keys looked up — never on the thread count, the scheduling
/// order or the kernel mode.
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
    problems: Family<ProblemKey, Arc<AllocationProblem>>,
    feasibility: Family<(u64, usize), bool>,
    allocations: Family<AllocationKey, SharedAllocation>,
    store_hits: Tally,
    store_misses: Tally,
    store_write_errors: Tally,
}

impl MemoCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        MemoCache::default()
    }

    /// Creates an empty cache whose hit/miss counters are mirrored onto the
    /// `memo.*` registry counters of `shard` (live telemetry for the
    /// heartbeat). With a disabled shard this is exactly [`MemoCache::new`].
    #[must_use]
    pub fn with_observability(shard: &rt_obs::ShardHandle) -> Self {
        MemoCache {
            store: None,
            problems: Family::mirrored(
                shard.counter("memo.problem_hits"),
                shard.counter("memo.problem_misses"),
            ),
            feasibility: Family::mirrored(
                shard.counter("memo.feasibility_hits"),
                shard.counter("memo.feasibility_misses"),
            ),
            allocations: Family::mirrored(
                shard.counter("memo.allocation_hits"),
                shard.counter("memo.allocation_misses"),
            ),
            store_hits: Tally::mirrored(shard.counter("memo.store_hits")),
            store_misses: Tally::mirrored(shard.counter("memo.store_misses")),
            store_write_errors: Tally::mirrored(shard.counter("memo.store_write_errors")),
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

    /// Answers one family miss: from the persistent store when one is
    /// attached and holds the key, else by running `compute` (and writing
    /// the value back to the store). Runs inside the key's single-flight
    /// cell, so every family miss makes exactly one store lookup.
    fn load_or_compute<V>(
        &self,
        get: impl FnOnce(&MemoStore) -> Option<V>,
        compute: impl FnOnce() -> V,
        put: impl FnOnce(&MemoStore, &V) -> std::io::Result<()>,
    ) -> V {
        let Some(store) = self.store.as_deref() else {
            return compute();
        };
        if let Some(found) = get(store) {
            self.store_hits.bump();
            return found;
        }
        self.store_misses.bump();
        let value = compute();
        // Write failures are tolerated: whoever needs the entry next
        // recomputes it.
        if put(store, &value).is_err() {
            self.store_write_errors.bump();
        }
        value
    }

    /// Returns the problem for `key`, generating it with `generate` on a
    /// miss. Concurrent callers of one key share a single generation (and
    /// store read); the shard lock is *not* held while it runs.
    pub fn problem(
        &self,
        key: ProblemKey,
        generate: impl FnOnce() -> AllocationProblem,
    ) -> Arc<AllocationProblem> {
        let hash = key.stream ^ key.base_seed.rotate_left(32) ^ (key.cores as u64).rotate_left(48);
        self.problems
            .get_or_compute(hash.wrapping_mul(0x9E37_79B9_7F4A_7C15), key, || {
                self.load_or_compute(
                    |store| store.get_problem(&key).map(Arc::new),
                    || Arc::new(generate()),
                    |store, problem| store.put_problem(&key, problem),
                )
            })
    }

    /// Returns the cached Eq. (1) verdict for `(taskset_hash, cores)`,
    /// computing it with `check` on a miss.
    pub fn feasibility(
        &self,
        taskset_hash: u64,
        cores: usize,
        check: impl FnOnce() -> bool,
    ) -> bool {
        let spread = taskset_hash.wrapping_add((cores as u64).rotate_left(40));
        self.feasibility
            .get_or_compute(spread, (taskset_hash, cores), || {
                self.load_or_compute(
                    |store| store.get_feasibility(taskset_hash, cores),
                    check,
                    |store, &verdict| store.put_feasibility(taskset_hash, cores, verdict),
                )
            })
    }

    /// Returns the cached allocator run for `key`, computing it with
    /// `build` on a miss. The period-policy axis calls this once per
    /// scenario but the placement search runs once per `(problem, scheme)`
    /// key; rejections cache too. Concurrent callers of one key share a
    /// single allocator run; the shard lock is not held while `build` runs.
    pub fn allocation(
        &self,
        key: AllocationKey,
        build: impl FnOnce() -> Result<Allocation, AllocationError>,
    ) -> SharedAllocation {
        let spread = key
            .problem
            .stream
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((key.allocator as u64).rotate_left(12));
        self.allocations.get_or_compute(spread, key, || {
            self.load_or_compute(
                |store| store.get_allocation(&key).map(Arc::new),
                || Arc::new(build()),
                |store, built| store.put_allocation(&key, built),
            )
        })
    }

    /// Snapshot of the hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            problem_hits: self.problems.hits.read(),
            problem_misses: self.problems.misses.read(),
            feasibility_hits: self.feasibility.hits.read(),
            feasibility_misses: self.feasibility.misses.read(),
            allocation_hits: self.allocations.hits.read(),
            allocation_misses: self.allocations.misses.read(),
            store_hits: self.store_hits.read(),
            store_misses: self.store_misses.read(),
            store_write_errors: self.store_write_errors.read(),
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

//! Torture tests for the persistent memo store ([`rt_dse::MemoStore`]):
//! concurrent readers and writers on one store, kill-mid-write recovery
//! (a torn or leftover file is a miss, never a wrong answer), version-header
//! skew, and the headline guarantee — a warm-store sweep is byte-identical
//! to a cold one and to a storeless one.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hydra_core::{casestudy, catalog, AllocationProblem};
use rt_dse::prelude::*;
use rt_dse::{JsonlSink, MemoStats, ProblemKey};

/// A fresh scratch directory for one test (removed at the end of the test;
/// the process id keeps parallel `cargo test` invocations apart).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dse-store-torture-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn uav_problem() -> AllocationProblem {
    AllocationProblem::new(casestudy::uav_rt_tasks(), catalog::table1_tasks(), 2)
}

fn problem_key(stream: u64) -> ProblemKey {
    ProblemKey {
        cores: 2,
        utilization_bits: 0.55f64.to_bits(),
        base_seed: 2018,
        stream,
        config_fingerprint: 42,
    }
}

/// Every file under `root` (the entry files plus the `STORE` header).
fn files_under(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("store directory is readable") {
            let path = entry.expect("directory entry is readable").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

/// Many threads hammering one store — same keys, mixed gets and puts, with
/// deliberate write contention on identical paths. Every successful read
/// must decode to exactly the value the key dictates.
#[test]
fn concurrent_readers_and_writers_never_observe_torn_entries() {
    let dir = scratch("concurrent");
    let store = Arc::new(
        MemoStore::open(&dir)
            .expect("store opens")
            .with_fsync(false),
    );
    const KEYS: u64 = 48;
    let verdict_for = |k: u64| k.is_multiple_of(3);

    std::thread::scope(|scope| {
        // Writers: all four race to publish the same key set (contended
        // renames over identical final paths), plus one shared problem entry.
        for _ in 0..4 {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                let problem = uav_problem();
                for k in 0..KEYS {
                    store
                        .put_feasibility(k, 2, verdict_for(k))
                        .expect("feasibility write succeeds");
                    if k % 8 == 0 {
                        store
                            .put_problem(&problem_key(k), &problem)
                            .expect("problem write succeeds");
                    }
                }
            });
        }
        // Readers: any hit must carry the exact expected value — a miss is
        // always acceptable (the writer may not have gotten there yet), a
        // wrong or torn value never is.
        for _ in 0..4 {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                let expected = uav_problem();
                for _round in 0..8 {
                    for k in 0..KEYS {
                        if let Some(verdict) = store.get_feasibility(k, 2) {
                            assert_eq!(verdict, verdict_for(k), "torn verdict for key {k}");
                        }
                        if k % 8 == 0 {
                            if let Some(problem) = store.get_problem(&problem_key(k)) {
                                assert_eq!(
                                    problem.total_utilization().to_bits(),
                                    expected.total_utilization().to_bits(),
                                    "torn problem for stream {k}"
                                );
                            }
                        }
                    }
                }
            });
        }
    });

    // After the dust settles every key is present and exact.
    for k in 0..KEYS {
        assert_eq!(store.get_feasibility(k, 2), Some(verdict_for(k)));
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A process killed mid-write leaves either a stray `*.tmp` file (death
/// before the rename) or — on a non-atomic filesystem copy — a truncated
/// entry. Reopening the store treats both as misses and a fresh put heals
/// the entry in place.
#[test]
fn kill_mid_write_then_reopen_reads_as_a_miss_and_heals() {
    let dir = scratch("kill");
    {
        let store = MemoStore::open(&dir)
            .expect("store opens")
            .with_fsync(false);
        store.put_feasibility(7, 2, true).expect("write succeeds");
        store
            .put_problem(&problem_key(1), &uav_problem())
            .expect("write succeeds");
    }

    // Simulate death *before* the rename: a stray tmp file next to a key
    // that was never published. It must not shadow the (absent) entry.
    let fanout = dir.join("feasibility").join("00");
    fs::create_dir_all(&fanout).expect("fanout dir creates");
    fs::write(
        fanout.join("deadbeefdeadbeef.1.0.tmp"),
        "dse-memo-entry v1\nkey feas",
    )
    .expect("tmp file writes");

    // Simulate death *during* a non-atomic copy: truncate a published
    // problem entry partway through its payload.
    let entry = files_under(&dir)
        .into_iter()
        .find(|p| p.starts_with(dir.join("problem")))
        .expect("one problem entry exists");
    let full = fs::read(&entry).expect("entry is readable");
    fs::write(&entry, &full[..full.len() / 2]).expect("truncation succeeds");

    let store = MemoStore::open(&dir)
        .expect("a store with debris still opens")
        .with_fsync(false);
    assert_eq!(
        store.get_feasibility(7, 2),
        Some(true),
        "the intact entry survives"
    );
    assert!(
        store.get_problem(&problem_key(1)).is_none(),
        "the truncated entry is a miss, not a wrong answer"
    );

    // A fresh put heals the torn entry.
    store
        .put_problem(&problem_key(1), &uav_problem())
        .expect("heal write succeeds");
    let healed = store.get_problem(&problem_key(1)).expect("entry healed");
    assert_eq!(
        healed.total_utilization().to_bits(),
        uav_problem().total_utilization().to_bits()
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A store written by a different (future) format version is rejected at
/// open with an error naming both headers — never silently reinterpreted.
#[test]
fn version_header_mismatch_is_rejected_at_open() {
    let dir = scratch("version");
    drop(MemoStore::open(&dir).expect("store opens"));
    fs::write(dir.join("STORE"), "dse-memo-store v999\n").expect("header rewrites");
    let err = MemoStore::open(&dir).expect_err("version skew must be rejected");
    let message = err.to_string();
    assert!(
        message.contains("dse-memo-store v1") && message.contains("dse-memo-store v999"),
        "error names both the expected and the found header: {message}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The headline guarantee: a sweep answered from a warm store is
/// byte-identical to the cold run that populated it *and* to a storeless
/// run — and the warm run touches the disk only for hits.
#[test]
fn warm_store_sweep_is_byte_identical_to_cold_and_storeless() {
    let dir = scratch("warm");
    let mut spec = ScenarioSpec::synthetic("torture");
    spec.cores = vec![2];
    spec.utilizations = UtilizationGrid::Fractions(vec![0.3, 0.6]);
    spec.trials = 2;

    let jsonl_of = |store: Option<Arc<MemoStore>>| {
        let mut sink = JsonlSink::new(Vec::new());
        let mut session = SweepSession::new(spec.clone()).threads(2);
        if let Some(store) = store {
            session = session.memo_store(store);
        }
        let summary = session
            .run(&mut sink)
            .expect("in-memory sink is infallible");
        (sink.into_inner(), summary)
    };

    let (storeless, _) = jsonl_of(None);
    let store = Arc::new(
        MemoStore::open(&dir)
            .expect("store opens")
            .with_fsync(false),
    );
    let (cold, cold_summary) = jsonl_of(Some(Arc::clone(&store)));
    let (warm, warm_summary) = jsonl_of(Some(store));

    assert!(!storeless.is_empty());
    assert_eq!(storeless, cold, "a cold store must not change output bytes");
    assert_eq!(cold, warm, "a warm store must not change output bytes");
    // Every in-memory family miss makes exactly one store lookup.
    let family_misses =
        |m: &MemoStats| m.problem_misses + m.feasibility_misses + m.allocation_misses;
    let cold_memo = cold_summary.memo;
    assert_eq!(
        cold_memo.store_hits + cold_memo.store_misses,
        family_misses(&cold_memo),
        "the cold run looks up the store once per memo miss: {cold_memo:?}"
    );
    let warm_memo = warm_summary.memo;
    assert_eq!(
        warm_memo.store_hits,
        family_misses(&warm_memo),
        "the warm run answers every memo miss from disk: {warm_memo:?}"
    );
    assert_eq!(warm_memo.store_misses, 0);
    assert_eq!(warm_memo.store_write_errors, 0);
    let _ = fs::remove_dir_all(&dir);
}

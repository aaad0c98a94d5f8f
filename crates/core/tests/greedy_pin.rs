//! Pins the allocations of every greedy scheme on seeded random problems.
//!
//! No sweep workload marks a security task non-preemptive or gives a
//! synthetic precedence graph an edge, so the golden sweep digests never
//! reach NP-HYDRA's blocking checks nor Precedence's period floor on a
//! random graph. This test does: it builds [`SEEDS`] problems with the
//! `rand` shim's `StdRng`, runs each through the five scheme
//! configurations of [`SCHEMES`], and folds every result into one FNV-1a
//! digest per scheme and block of [`BLOCK`] seeds. A result is, per task,
//! its core, period ticks and tightness bits, or else the error.
//!
//! The generator uses only IEEE-exact arithmetic (`+ − × ÷`, no `powf` or
//! `ln`), and so does the greedy loop, so the digests hold on every target.
//! A change that means to move these allocations regenerates the table with
//!
//! ```sh
//! cargo test -p hydra-core --test greedy_pin -- --ignored --nocapture print_pinned_digests
//! ```
//!
//! and says why in CHANGES.md.

use hydra_core::allocator::{Allocator, HydraAllocator, SingleCoreAllocator};
use hydra_core::{
    AllocationError, AllocationProblem, NpHydraAllocator, PrecedenceGraph,
    PrecedenceHydraAllocator, SecurityTask, SecurityTaskId, SecurityTaskSet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_core::{RtTask, TaskSet, Time};

/// Problems generated, seeded `0..SEEDS`.
const SEEDS: u64 = 4_000;

/// Seeds per digest block. A mismatch is located to one block.
const BLOCK: u64 = 500;

const BLOCKS: usize = (SEEDS / BLOCK) as usize;

/// The scheme configurations, in table order.
const SCHEMES: [&str; 5] = [
    "hydra",
    "nphydra",
    "precedence-dag",
    "precedence-empty",
    "singlecore",
];

/// The committed digests: one row per scheme of [`SCHEMES`], one column per
/// block of [`BLOCK`] seeds.
const PINNED: [[u64; BLOCKS]; SCHEMES.len()] = [
    // hydra
    [
        0xce8ebadcc766a572,
        0x87d7c754a67c2cbc,
        0xd8b78dde5b2e6afa,
        0x11ae36fefd26ca9b,
        0x48f2adc66f8bf0d9,
        0x54b9eb7aae418d24,
        0xe7e87fddc550cf35,
        0x3e1c38536db0cab6,
    ],
    // nphydra
    [
        0xe248afca573d6140,
        0xaf644e34e56af18d,
        0x414f45890ce57759,
        0xd029ea076126aaa4,
        0x15f47646720cd2f9,
        0xe4f89954a6a49744,
        0xfb7e09353d52ada9,
        0xfe5eaff1e3f7c31f,
    ],
    // precedence-dag
    [
        0xc0ffd953d6a76922,
        0x1216257de264d2f4,
        0xd63d9c122ef89340,
        0x839c28dbec177016,
        0xa4d6cee299728938,
        0x37637445af101736,
        0x4a51608094ac9cfd,
        0x5ce6bb040719d46b,
    ],
    // precedence-empty
    [
        0xce8ebadcc766a572,
        0x87d7c754a67c2cbc,
        0xd8b78dde5b2e6afa,
        0x11ae36fefd26ca9b,
        0x48f2adc66f8bf0d9,
        0x54b9eb7aae418d24,
        0xe7e87fddc550cf35,
        0x3e1c38536db0cab6,
    ],
    // singlecore
    [
        0x8d74ec30de0ac2b7,
        0xdd8c3ee22848bd1d,
        0x31f7ecdd3c39e302,
        0x961882b830396bdd,
        0x4a6143b61a238b4f,
        0x4e1906393f0b6f24,
        0xb06079334c27ac3e,
        0xf03f5a2387baabc4,
    ],
];

/// A random problem and a random DAG over its security tasks.
///
/// 1–4 cores; 1–8 real-time tasks with periods of 10–500 ms and a total
/// utilisation of 0.1–0.8 × cores; 1–6 security tasks with `T^des` of
/// 0.5–5 s, `T^max` of 2–10 × `T^des`, a WCET of 5–400 ms, each
/// non-preemptive with probability 0.35; an edge `i → j` (`i < j`) with
/// probability 0.25.
fn problem(seed: u64) -> (AllocationProblem, PrecedenceGraph) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cores = rng.gen_range(1..=4usize);
    let rt_count = rng.gen_range(1..=8usize);
    let utilization = rng.gen_range(0.1..0.8) * cores as f64;
    let shares: Vec<f64> = (0..rt_count).map(|_| rng.gen_range(0.05..1.0)).collect();
    let share_sum: f64 = shares.iter().sum();
    let rt_tasks: TaskSet = shares
        .iter()
        .map(|share| {
            let period = rng.gen_range(10_000..=500_000u64);
            let u = (utilization * share / share_sum).min(0.95);
            let wcet = ((u * period as f64) as u64).max(1);
            RtTask::implicit_deadline(Time::from_micros(wcet), Time::from_micros(period))
                .expect("0 < wcet ≤ 0.95 · period")
        })
        .collect();
    let sec_count = rng.gen_range(1..=6usize);
    let sec_tasks: SecurityTaskSet = (0..sec_count)
        .map(|_| {
            let desired = rng.gen_range(500_000..=5_000_000u64);
            let max = (desired as f64 * rng.gen_range(2.0..10.0)) as u64;
            let wcet = rng.gen_range(5_000..=400_000u64);
            let task = SecurityTask::new(
                Time::from_micros(wcet),
                Time::from_micros(desired),
                Time::from_micros(max),
            )
            .expect("wcet ≤ T^des ≤ T^max");
            if rng.gen_bool(0.35) {
                task.non_preemptive()
            } else {
                task
            }
        })
        .collect();
    let mut graph = PrecedenceGraph::new(sec_count);
    for i in 0..sec_count {
        for j in i + 1..sec_count {
            if rng.gen_bool(0.25) {
                graph
                    .add_dependency(SecurityTaskId(i), SecurityTaskId(j))
                    .expect("edges i → j with i < j form no cycle");
            }
        }
    }
    (AllocationProblem::new(rt_tasks, sec_tasks, cores), graph)
}

/// The allocator of scheme `SCHEMES[scheme]` for `problem` and its DAG.
fn allocator(
    scheme: usize,
    problem: &AllocationProblem,
    dag: &PrecedenceGraph,
) -> Box<dyn Allocator> {
    match scheme {
        0 => Box::new(HydraAllocator::new()),
        1 => Box::new(NpHydraAllocator::new()),
        2 => Box::new(PrecedenceHydraAllocator::new(dag.clone())),
        3 => Box::new(PrecedenceHydraAllocator::new(PrecedenceGraph::new(
            problem.security_tasks.len(),
        ))),
        4 => Box::new(SingleCoreAllocator::new()),
        _ => unreachable!("SCHEMES has five entries"),
    }
}

/// 64-bit FNV-1a, folded into a running digest.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one allocation result into `h`.
fn fold(mut h: u64, result: &Result<hydra_core::Allocation, AllocationError>) -> u64 {
    match result {
        Ok(allocation) => {
            h = fnv1a(h, b"ok");
            for (_, p) in allocation.iter() {
                h = fnv1a(h, &(p.core.0 as u64).to_le_bytes());
                h = fnv1a(h, &p.period.as_ticks().to_le_bytes());
                h = fnv1a(h, &p.tightness.to_bits().to_le_bytes());
            }
        }
        Err(e) => h = fnv1a(h, format!("err {e:?}").as_bytes()),
    }
    fnv1a(h, b";")
}

/// This build's digest table, in [`PINNED`]'s layout.
fn digests() -> [[u64; BLOCKS]; SCHEMES.len()] {
    let mut table = [[FNV_OFFSET; BLOCKS]; SCHEMES.len()];
    for seed in 0..SEEDS {
        let (problem, dag) = problem(seed);
        let block = (seed / BLOCK) as usize;
        for (scheme, row) in table.iter_mut().enumerate() {
            let result = allocator(scheme, &problem, &dag).allocate(&problem);
            row[block] = fold(row[block], &result);
        }
    }
    table
}

#[test]
fn greedy_schemes_reproduce_the_pinned_allocations() {
    let actual = digests();
    let mut mismatches = Vec::new();
    for (scheme, (expected_row, actual_row)) in PINNED.iter().zip(&actual).enumerate() {
        for (block, (expected, got)) in expected_row.iter().zip(actual_row).enumerate() {
            if expected != got {
                let first = block as u64 * BLOCK;
                mismatches.push(format!(
                    "  scheme `{}`, seeds {first}..{}: expected {expected:016x}, got {got:016x}",
                    SCHEMES[scheme],
                    first + BLOCK
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "pinned greedy allocations changed:\n{}\nIf this change means to move them, regenerate \
         the table with\n    cargo test -p hydra-core --test greedy_pin -- --ignored \
         --nocapture print_pinned_digests\nand say why in CHANGES.md.",
        mismatches.join("\n")
    );
}

#[test]
#[ignore = "prints the digest table to paste over PINNED"]
fn print_pinned_digests() {
    println!("const PINNED: [[u64; BLOCKS]; SCHEMES.len()] = [");
    for (scheme, row) in digests().iter().enumerate() {
        println!("    // {}", SCHEMES[scheme]);
        println!("    [");
        for digest in row {
            println!("        0x{digest:016x},");
        }
        println!("    ],");
    }
    println!("];");
}

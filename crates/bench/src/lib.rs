//! # hydra-bench — experiment harness for the HYDRA reproduction
//!
//! One module per paper artefact plus shared plumbing:
//!
//! * [`fig1`] — the UAV case study: allocate with HYDRA and SingleCore,
//!   simulate, inject attacks, report the detection-time CDF (Figure 1),
//! * [`fig2`] — the synthetic acceptance-ratio sweep (Figure 2),
//! * [`fig3`] — the HYDRA vs Optimal cumulative-tightness gap (Figure 3),
//! * [`period_policy`] — the fixed/adapt/joint period-policy tightness CDFs
//!   (the follow-up period-adaptation comparison),
//! * [`table1`] — the security-task catalogue (Table I),
//! * [`report`] — small CSV/console reporting helpers shared by the binaries.
//!
//! Each binary in `src/bin/` is a thin wrapper over the corresponding module
//! so the same experiment code is reachable from integration tests. The
//! binaries parse like `dse` ([`args_or_exit`]) and refuse what
//! [`rt_dse::ScenarioSpec::validate`] refuses before any work ([`or_exit`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod period_policy;
pub mod report;
pub mod table1;

use rt_dse::cli::Args;

/// The paper's 39 per-core utilization fractions (`0.025, 0.05, …, 0.975`),
/// optionally capped to `max_points` values taken evenly across the sweep —
/// the utilization axis shared by the Figure 2 and Figure 3 specs.
#[must_use]
pub(crate) fn capped_paper_fractions(max_points: Option<usize>) -> Vec<f64> {
    let all = rt_dse::UtilizationGrid::PaperSweep.points(1);
    match max_points {
        Some(k) if k < all.len() && k >= 2 => {
            let step = (all.len() - 1) as f64 / (k - 1) as f64;
            (0..k)
                .map(|i| all[(i as f64 * step).round() as usize])
                .collect()
        }
        _ => all,
    }
}

/// Reads an experiment binary's command line with [`Args`] against its
/// `usage` text: `--help` prints the usage and exits 0, and an option the
/// usage does not list, a repeated option, a missing value or a stray
/// argument exits 2 through [`or_exit`].
#[must_use]
pub fn args_or_exit(usage: &'static str) -> Args {
    let args = Args::new(usage, std::env::args().skip(1));
    if args.help_requested() {
        print!("{usage}");
        std::process::exit(0);
    }
    or_exit(args.validate());
    args
}

/// The value of `result`; on an error, prints `error: …` to stderr and exits
/// with status 2, the status of a command-line error, before any work.
pub fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2)
    })
}

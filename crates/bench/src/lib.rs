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
//! so the same experiment code is reachable from integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod period_policy;
pub mod report;
pub mod table1;

/// The paper's 39 per-core utilization fractions (`0.025, 0.05, …, 0.975`),
/// optionally capped to `max_points` values taken evenly across the sweep —
/// the utilization axis shared by the Figure 2 and Figure 3 specs.
#[must_use]
pub(crate) fn capped_paper_fractions(max_points: Option<usize>) -> Vec<f64> {
    let all: Vec<f64> = (1..=39).map(|i| 0.025 * i as f64).collect();
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

/// An option of the experiment binaries. Each binary passes the subset it
/// honours to [`CliOptions::parse`]; the others are refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliFlag {
    /// `--quick`: drastically reduced trial counts for smoke runs.
    Quick,
    /// `--trials N`: task sets per utilisation point, or attacks per
    /// configuration.
    Trials,
    /// `--seed S`: the RNG seed.
    Seed,
    /// `--cores A,B,…`: the core counts to evaluate.
    Cores,
    /// `--out DIR`: the output directory for CSV files.
    Out,
}

impl CliFlag {
    const ALL: [CliFlag; 5] = [
        CliFlag::Quick,
        CliFlag::Trials,
        CliFlag::Seed,
        CliFlag::Cores,
        CliFlag::Out,
    ];

    /// The option as typed, e.g. `--trials`.
    fn name(self) -> &'static str {
        match self {
            CliFlag::Quick => "--quick",
            CliFlag::Trials => "--trials",
            CliFlag::Seed => "--seed",
            CliFlag::Cores => "--cores",
            CliFlag::Out => "--out",
        }
    }
}

/// The parsed options of an experiment binary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CliOptions {
    /// Number of random trials (task sets per utilisation point, or attacks
    /// per configuration).
    pub trials: Option<usize>,
    /// RNG seed.
    pub seed: Option<u64>,
    /// Core counts to evaluate.
    pub cores: Option<Vec<usize>>,
    /// Output directory for CSV files.
    pub output_dir: Option<String>,
    /// Quick mode: drastically reduced trial counts for smoke runs.
    pub quick: bool,
}

impl CliOptions {
    /// Parses options from an iterator of argument strings (excluding the
    /// program name), accepting only the options in `honoured`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending argument for an unknown,
    /// unhonoured or repeated option, a missing value, a value that is not
    /// a positive integer (`--trials`, each `--cores` entry) or a `u64`
    /// (`--seed`), or a repeated `--cores` entry.
    pub fn parse<I, S>(args: I, honoured: &[CliFlag]) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let args: Vec<String> = args.into_iter().map(|s| s.as_ref().to_owned()).collect();
        let mut options = CliOptions::default();
        let mut seen: Vec<CliFlag> = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let flag = CliFlag::ALL
                .into_iter()
                .find(|f| f.name() == arg)
                .ok_or_else(|| format!("unknown option {arg}"))?;
            if !honoured.contains(&flag) {
                return Err(format!("option {arg} is not supported here"));
            }
            if seen.contains(&flag) {
                return Err(format!("duplicate option {arg}"));
            }
            seen.push(flag);
            let mut value = || match args.next() {
                Some(value) if !value.starts_with("--") => Ok(value.as_str()),
                Some(flag) => Err(format!("option {arg} expects a value, got {flag}")),
                None => Err(format!("option {arg} expects a value")),
            };
            let invalid = |value: &str| format!("invalid value for {arg}: {value}");
            let positive = |raw: &str| raw.trim().parse().ok().filter(|&n: &usize| n > 0);
            match flag {
                CliFlag::Quick => options.quick = true,
                CliFlag::Trials => {
                    let value = value()?;
                    options.trials = Some(positive(value).ok_or_else(|| invalid(value))?);
                }
                CliFlag::Seed => {
                    let value = value()?;
                    options.seed = Some(value.parse().map_err(|_| invalid(value))?);
                }
                CliFlag::Cores => {
                    let value = value()?;
                    let cores: Option<Vec<usize>> = value.split(',').map(positive).collect();
                    let cores = cores.ok_or_else(|| invalid(value))?;
                    // The engine refuses a repeated core count: every task
                    // set of that count would run and be counted twice.
                    if let Some(i) = (1..cores.len()).find(|&i| cores[..i].contains(&cores[i])) {
                        return Err(format!("{arg} lists {} twice", cores[i]));
                    }
                    options.cores = Some(cores);
                }
                CliFlag::Out => options.output_dir = Some(value()?.to_owned()),
            }
        }
        Ok(options)
    }

    /// Parses the options of the current process, accepting only those in
    /// `honoured`. On a bad argument it prints `error: …` to stderr and
    /// exits with status 2, before any work starts.
    #[must_use]
    pub fn from_env(honoured: &[CliFlag]) -> Self {
        CliOptions::parse(std::env::args().skip(1), honoured).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(2)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_known_flags_and_refuses_unknown() {
        let opts = CliOptions::parse(
            [
                "--trials", "50", "--seed", "7", "--cores", "2,4,8", "--quick", "--out", "results",
            ],
            &CliFlag::ALL,
        )
        .unwrap();
        assert_eq!(opts.trials, Some(50));
        assert_eq!(opts.seed, Some(7));
        assert_eq!(opts.cores, Some(vec![2, 4, 8]));
        assert!(opts.quick);
        assert_eq!(opts.output_dir.as_deref(), Some("results"));
        let err = CliOptions::parse(["--quick", "--bogus", "x"], &CliFlag::ALL).unwrap_err();
        assert_eq!(err, "unknown option --bogus");
    }

    #[test]
    fn defaults_when_no_flags() {
        let opts = CliOptions::parse(Vec::<String>::new(), &CliFlag::ALL).unwrap();
        assert_eq!(opts.trials, None);
        assert!(!opts.quick);
    }

    #[test]
    fn malformed_values_are_refused() {
        let refused =
            |args: &[&str], honoured: &[CliFlag]| CliOptions::parse(args, honoured).unwrap_err();
        let all = &CliFlag::ALL;
        assert_eq!(
            refused(&["--trials", "abc"], all),
            "invalid value for --trials: abc"
        );
        assert_eq!(
            refused(&["--trials", "0"], all),
            "invalid value for --trials: 0"
        );
        assert_eq!(
            refused(&["--cores", "x,y"], all),
            "invalid value for --cores: x,y"
        );
        assert_eq!(
            refused(&["--cores", "2,,4"], all),
            "invalid value for --cores: 2,,4"
        );
        assert_eq!(refused(&["--cores", "2,4,2"], all), "--cores lists 2 twice");
        assert_eq!(
            refused(&["--seed", "-1"], all),
            "invalid value for --seed: -1"
        );
        assert_eq!(refused(&["--seed"], all), "option --seed expects a value");
        assert_eq!(
            refused(&["--out", "--quick"], all),
            "option --out expects a value, got --quick"
        );
        assert_eq!(
            refused(&["--quick", "--quick"], all),
            "duplicate option --quick"
        );
        assert_eq!(refused(&["results"], all), "unknown option results");
        assert_eq!(
            refused(&["--cores", "2"], &[CliFlag::Quick, CliFlag::Out]),
            "option --cores is not supported here"
        );
    }
}

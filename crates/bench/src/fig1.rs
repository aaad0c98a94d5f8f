//! Figure 1: empirical CDF of intrusion-detection time, HYDRA vs SingleCore,
//! on the UAV control system with the Table I security tasks.
//!
//! The experiment is a declarative [`ScenarioSpec`] executed on the `rt-dse`
//! engine's detection pipeline. For each core count `M ∈ {2, 4, 8}` the
//! engine
//!
//! 1. builds the UAV + Table I workload (real-time tasks spread across all
//!    available cores with a worst-fit partition, as the paper assumes for
//!    HYDRA — Section IV states "the real-time tasks are distributed across
//!    all available cores"),
//! 2. allocates the security tasks with HYDRA and with SingleCore,
//! 3. simulates the resulting schedules for the configured horizon,
//! 4. injects synthetic attacks at uniformly random instants — the **same**
//!    instants for both schemes, thanks to the engine's shared seed
//!    addresses — and measures the time until the responsible security task
//!    next completes a full check,
//! 5. reports the empirical CDF and summary statistics of those detection
//!    times, plus the mean-detection-time improvement of HYDRA over
//!    SingleCore.

use rt_core::Time;
use rt_dse::prelude::*;
use rt_sim::cdf::EmpiricalCdf;

use crate::report::{fmt3, fmt_pct, ResultTable};

/// Parameters of the Figure 1 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Config {
    /// Core counts to evaluate (the paper uses 2, 4 and 8).
    pub cores: Vec<usize>,
    /// Simulated observation window (the paper observes 500 s per trial).
    pub horizon: Time,
    /// Number of injected attacks per scheme and core count.
    pub attacks: usize,
    /// RNG seed for the attack-injection times.
    pub seed: u64,
    /// Number of points of the reported CDF series.
    pub cdf_points: usize,
}

impl Default for Fig1Config {
    fn default() -> Self {
        Fig1Config {
            cores: vec![2, 4, 8],
            horizon: Time::from_secs(500),
            attacks: 400,
            seed: 2018,
            cdf_points: 26,
        }
    }
}

impl Fig1Config {
    /// A reduced configuration for smoke tests and `--quick` runs.
    #[must_use]
    pub fn quick() -> Self {
        Fig1Config {
            horizon: Time::from_secs(60),
            attacks: 60,
            ..Fig1Config::default()
        }
    }

    /// The declarative sweep this experiment runs on the engine.
    #[must_use]
    pub fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            name: "fig1_detection_cdf".to_owned(),
            workload: Workload::CaseStudyUav,
            evaluation: Evaluation::Detection {
                horizon: self.horizon,
                attacks: self.attacks,
            },
            cores: self.cores.clone(),
            utilizations: UtilizationGrid::NotApplicable,
            allocators: vec![AllocatorKind::Hydra, AllocatorKind::SingleCore],
            period_policies: vec![PeriodPolicy::Fixed],
            trials: 1,
            base_seed: self.seed,
            expansion: Expansion::Cartesian,
            explore: ExploreMode::Exhaustive,
        }
    }
}

/// Detection-time statistics of one scheme on one platform size.
///
/// The latency summaries mirror the engine's [`rt_dse::DetectionStats`]:
/// `None` when the scheme detected nothing within the horizon, so a silent
/// configuration can never masquerade as an instantly-detecting one.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionSummary {
    /// Scheme name (`"HYDRA"` or `"SingleCore"`).
    pub scheme: &'static str,
    /// Number of cores.
    pub cores: usize,
    /// Number of detected attacks.
    pub detected: usize,
    /// Number of attacks not detected before the horizon.
    pub undetected: usize,
    /// Mean detection latency in milliseconds (`None` when nothing was
    /// detected).
    pub mean_ms: Option<f64>,
    /// Median detection latency in milliseconds (`None` when nothing was
    /// detected).
    pub median_ms: Option<f64>,
    /// 95th-percentile detection latency in milliseconds (`None` when
    /// nothing was detected).
    pub p95_ms: Option<f64>,
    /// Worst observed detection latency in milliseconds (`None` when nothing
    /// was detected).
    pub max_ms: Option<f64>,
    /// The empirical CDF of the detection latencies.
    pub cdf: EmpiricalCdf,
}

/// The complete result of the Figure 1 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Result {
    /// One summary per (scheme, core count) pair.
    pub summaries: Vec<DetectionSummary>,
    /// Mean-detection improvement of HYDRA over SingleCore per core count,
    /// in percent (positive means HYDRA detects faster).
    pub improvement_percent: Vec<(usize, f64)>,
}

fn scheme_name(kind: AllocatorKind) -> &'static str {
    match kind {
        AllocatorKind::Hydra => "HYDRA",
        AllocatorKind::SingleCore => "SingleCore",
        other => other.label(),
    }
}

fn summarize(outcome: &ScenarioOutcome) -> Option<DetectionSummary> {
    let detection = outcome.detection.as_ref()?;
    Some(DetectionSummary {
        scheme: scheme_name(outcome.scenario.allocator),
        cores: outcome.scenario.cores,
        detected: detection.detected,
        undetected: detection.missed,
        mean_ms: detection.mean_ms,
        median_ms: detection.median_ms,
        p95_ms: detection.p95_ms,
        max_ms: detection.max_ms,
        cdf: EmpiricalCdf::new(detection.latencies_ms.iter().copied()),
    })
}

/// The Figure 1 experiment failed: a scheme could not schedule the case
/// study on some core count. Carries the engine's rendered allocation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig1Error {
    /// The scheme that failed.
    pub scheme: &'static str,
    /// The core count it failed on.
    pub cores: usize,
    /// The underlying allocation error, as rendered by the engine.
    pub error: String,
}

impl std::fmt::Display for Fig1Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} could not schedule the case study on {} cores: {}",
            self.scheme, self.cores, self.error
        )
    }
}

impl std::error::Error for Fig1Error {}

/// Runs the Figure 1 experiment on the parallel sweep engine.
///
/// # Errors
///
/// Returns a [`Fig1Error`] naming the scheme, core count and underlying
/// allocation error if either scheme cannot schedule the case study (does
/// not happen for the built-in workload on 2–8 cores).
pub fn run(config: &Fig1Config) -> Result<Fig1Result, Fig1Error> {
    let result = SweepSession::new(config.spec()).run_buffered();
    let mut summaries = Vec::new();
    for outcome in &result.outcomes {
        let Some(summary) = summarize(outcome) else {
            return Err(Fig1Error {
                scheme: scheme_name(outcome.scenario.allocator),
                cores: outcome.scenario.cores,
                error: outcome
                    .error
                    .clone()
                    .unwrap_or_else(|| "allocation succeeded but no detection data".to_owned()),
            });
        };
        summaries.push(summary);
    }
    // Grid order is (cores × allocators) with the allocator axis innermost,
    // so summaries arrive as [HYDRA@M, SingleCore@M] per core count.
    let improvement_percent = summaries
        .chunks(2)
        .map(|pair| {
            let (hydra, single) = (&pair[0], &pair[1]);
            let improvement = match (hydra.mean_ms, single.mean_ms) {
                (Some(hydra_mean), Some(single_mean)) if single_mean > 0.0 => {
                    (single_mean - hydra_mean) / single_mean * 100.0
                }
                // Either scheme detecting nothing makes the ratio undefined;
                // report no improvement rather than a fabricated number.
                _ => 0.0,
            };
            (hydra.cores, improvement)
        })
        .collect();
    Ok(Fig1Result {
        summaries,
        improvement_percent,
    })
}

/// Renders the summary statistics as a table (one row per scheme × cores).
#[must_use]
pub fn summary_table(result: &Fig1Result) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 1 — intrusion-detection time, HYDRA vs SingleCore (UAV case study)",
        &[
            "cores",
            "scheme",
            "detected",
            "undetected",
            "mean_ms",
            "median_ms",
            "p95_ms",
            "max_ms",
        ],
    );
    let fmt3_opt = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), fmt3);
    for s in &result.summaries {
        table.push_row(vec![
            s.cores.to_string(),
            s.scheme.to_owned(),
            s.detected.to_string(),
            s.undetected.to_string(),
            fmt3_opt(s.mean_ms),
            fmt3_opt(s.median_ms),
            fmt3_opt(s.p95_ms),
            fmt3_opt(s.max_ms),
        ]);
    }
    table
}

/// Renders the detection-time CDF series (the curves of Figure 1) as a table
/// with one row per x-axis point and one column per scheme × cores.
#[must_use]
pub fn cdf_table(result: &Fig1Result, config: &Fig1Config) -> ResultTable {
    let max_x = result
        .summaries
        .iter()
        .filter_map(|s| s.max_ms)
        .fold(1.0f64, f64::max);
    let mut header: Vec<String> = vec!["detection_time_ms".to_owned()];
    for s in &result.summaries {
        header.push(format!("{}_{}cores", s.scheme, s.cores));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = ResultTable::new("Figure 1 — empirical CDF series", &header_refs);
    for i in 0..config.cdf_points {
        let x = max_x * i as f64 / (config.cdf_points - 1) as f64;
        let mut row = vec![fmt3(x)];
        for s in &result.summaries {
            row.push(fmt3(s.cdf.eval(x)));
        }
        table.push_row(row);
    }
    table
}

/// Renders the per-core-count improvement in mean detection time.
#[must_use]
pub fn improvement_table(result: &Fig1Result) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 1 — improvement in mean detection time, HYDRA vs SingleCore",
        &["cores", "improvement_percent"],
    );
    for (cores, imp) in &result.improvement_percent {
        table.push_row(vec![cores.to_string(), fmt_pct(*imp)]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_summaries_for_every_configuration() {
        let config = Fig1Config {
            cores: vec![2, 4],
            ..Fig1Config::quick()
        };
        let result = run(&config).unwrap();
        assert_eq!(result.summaries.len(), 4);
        assert_eq!(result.improvement_percent.len(), 2);
        for s in &result.summaries {
            assert!(
                s.detected > 0,
                "{} on {} cores detected nothing",
                s.scheme,
                s.cores
            );
            assert!(s.mean_ms.unwrap() > 0.0);
            assert!(s.max_ms >= s.p95_ms && s.p95_ms >= s.median_ms);
        }
    }

    #[test]
    fn hydra_detects_no_slower_than_single_core_on_average() {
        let config = Fig1Config {
            cores: vec![4],
            ..Fig1Config::quick()
        };
        let result = run(&config).unwrap();
        let hydra = result
            .summaries
            .iter()
            .find(|s| s.scheme == "HYDRA")
            .unwrap();
        let single = result
            .summaries
            .iter()
            .find(|s| s.scheme == "SingleCore")
            .unwrap();
        // The paper reports ~27% faster detection on 4 cores; the exact number
        // depends on the substituted WCETs, but HYDRA must not be slower.
        let (hydra_mean, single_mean) = (hydra.mean_ms.unwrap(), single.mean_ms.unwrap());
        assert!(
            hydra_mean <= single_mean * 1.02,
            "HYDRA mean {hydra_mean} vs SingleCore mean {single_mean}"
        );
    }

    #[test]
    fn tables_render() {
        let config = Fig1Config {
            cores: vec![2],
            ..Fig1Config::quick()
        };
        let result = run(&config).unwrap();
        assert_eq!(summary_table(&result).len(), 2);
        assert_eq!(cdf_table(&result, &config).len(), config.cdf_points);
        assert_eq!(improvement_table(&result).len(), 1);
    }

    #[test]
    fn both_schemes_face_identical_attack_times() {
        // The engine derives the attack seed from the problem address, which
        // the allocator axis shares — pinned here because the paired CDF
        // comparison is meaningless otherwise.
        let spec = Fig1Config::quick().spec();
        let grid = rt_dse::ScenarioGrid::expand(&spec);
        for pair in grid.scenarios().chunks(2) {
            assert_eq!(pair[0].problem_stream, pair[1].problem_stream);
        }
    }
}

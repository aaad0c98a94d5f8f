//! The serve wire protocol: JSON sweep requests in, status documents and
//! JSONL streams out.
//!
//! A request body is one JSON object whose fields mirror the `dse sweep`
//! CLI flags one-for-one — same names (modulo `-`/`_`), same defaults, same
//! validation — so a request and a CLI invocation describing the same sweep
//! produce **byte-identical** JSONL. Unknown and duplicate fields are
//! rejected rather than ignored: a typo'd axis name must not silently run
//! the default sweep. A spec the engine cannot honour is refused by the
//! same [`ScenarioSpec::validate`] the CLI applies.

use rt_dse::prelude::*;
use rt_dse::Time;

use crate::json::Json;

/// Every accepted sweep-request field, in documentation order. The README
/// request-schema table is machine-checked against this list (xtask D006).
pub const REQUEST_FIELDS: &str = "name, workload, eval, horizon, attacks, cores, util_steps, \
                                  utils, allocators, period_policies, trials, seed, sec_tasks, \
                                  sample, explore, refine_budget";

/// Every job-status field, in render order. The README status-schema table
/// and the `status_json` render order are both machine-checked against this
/// list (xtask D006 and a unit test in `jobs`).
pub const STATUS_FIELDS: &str = "schema, id, name, state, done, total, elapsed_secs, \
                                 store_hits, store_misses, error";

/// A validated sweep request.
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// The sweep to run.
    pub spec: ScenarioSpec,
}

fn want_u64(value: &Json, key: &str) -> Result<Option<u64>, String> {
    match value {
        Json::Null => Ok(None),
        v => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("\"{key}\" must be an unsigned integer")),
    }
}

fn want_usize(value: &Json, key: &str) -> Result<Option<usize>, String> {
    match value {
        Json::Null => Ok(None),
        v => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| format!("\"{key}\" must be an unsigned integer")),
    }
}

fn want_str<'a>(value: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    match value {
        Json::Null => Ok(None),
        v => v
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("\"{key}\" must be a string")),
    }
}

fn want_list<T>(
    value: &Json,
    key: &str,
    what: &str,
    convert: impl Fn(&Json) -> Option<T>,
) -> Result<Option<Vec<T>>, String> {
    match value {
        Json::Null => Ok(None),
        Json::Arr(items) => items
            .iter()
            .map(|item| convert(item).ok_or_else(|| format!("\"{key}\" must be a list of {what}")))
            .collect::<Result<Vec<T>, String>>()
            .map(Some),
        _ => Err(format!("\"{key}\" must be a list of {what}")),
    }
}

/// Parses and validates one sweep-request document.
///
/// # Errors
///
/// A human-readable reason: unknown field, wrong type, a value outside
/// the same bounds the CLI enforces, or a spec
/// [`ScenarioSpec::validate`] refuses.
pub fn parse_request(doc: &Json) -> Result<SweepRequest, String> {
    let Json::Obj(members) = doc else {
        return Err("the request body must be a JSON object".to_owned());
    };
    let known: Vec<&str> = REQUEST_FIELDS.split(',').map(str::trim).collect();
    for (key, _) in members {
        if !known.contains(&key.as_str()) {
            return Err(format!(
                "unknown field \"{key}\" (accepted: {REQUEST_FIELDS})"
            ));
        }
    }
    let get = |key: &str| doc.get(key).unwrap_or(&Json::Null);

    let workload = match want_str(get("workload"), "workload")?.unwrap_or("synthetic") {
        "synthetic" => {
            let mut overrides = SyntheticOverrides::default();
            if let Some(range) =
                want_list(get("sec_tasks"), "sec_tasks", "integers", Json::as_usize)?
            {
                let [lo, hi] = range[..] else {
                    return Err("\"sec_tasks\" expects [lo, hi]".to_owned());
                };
                if lo == 0 || lo > hi {
                    return Err(format!("\"sec_tasks\" range [{lo}, {hi}] is empty or zero"));
                }
                overrides.security_tasks = Some((lo, hi));
            }
            Workload::Synthetic(overrides)
        }
        "uav" => Workload::CaseStudyUav,
        other => return Err(format!("unknown workload: {other}")),
    };

    let evaluation = match want_str(get("eval"), "eval")?.unwrap_or("allocate") {
        "allocate" => Evaluation::Allocate,
        "detection" => Evaluation::Detection {
            horizon: Time::from_secs(want_u64(get("horizon"), "horizon")?.unwrap_or(120)),
            attacks: want_usize(get("attacks"), "attacks")?.unwrap_or(100),
        },
        other => return Err(format!("unknown evaluation: {other}")),
    };

    let utilizations = if matches!(workload, Workload::CaseStudyUav) {
        UtilizationGrid::NotApplicable
    } else if let Some(fractions) = want_list(get("utils"), "utils", "numbers", Json::as_f64)? {
        if fractions.iter().any(|f| !(*f > 0.0 && *f <= 1.0)) {
            return Err("\"utils\" fractions must lie in (0, 1]".to_owned());
        }
        UtilizationGrid::Fractions(fractions)
    } else {
        UtilizationGrid::NormalizedSteps(want_usize(get("util_steps"), "util_steps")?.unwrap_or(13))
    };

    let allocators = match want_list(get("allocators"), "allocators", "strings", |v| {
        v.as_str().map(str::to_owned)
    })? {
        None => vec![
            AllocatorKind::Hydra,
            AllocatorKind::SingleCore,
            AllocatorKind::NpHydra,
        ],
        Some(labels) => labels
            .iter()
            .map(|label| {
                AllocatorKind::parse(label).ok_or_else(|| format!("unknown allocator: {label}"))
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    if allocators.is_empty() {
        return Err("at least one allocator is required".to_owned());
    }

    let period_policies =
        match want_list(get("period_policies"), "period_policies", "strings", |v| {
            v.as_str().map(str::to_owned)
        })? {
            None => vec![PeriodPolicy::Fixed],
            Some(labels) => labels
                .iter()
                .map(|label| {
                    PeriodPolicy::parse(label)
                        .ok_or_else(|| format!("unknown period policy: {label}"))
                })
                .collect::<Result<Vec<_>, String>>()?,
        };
    if period_policies.is_empty() {
        return Err("at least one period policy is required".to_owned());
    }

    let expansion = match want_usize(get("sample"), "sample")? {
        Some(n) => Expansion::Sampled(n),
        None => Expansion::Cartesian,
    };

    let cores = want_list(get("cores"), "cores", "integers", Json::as_usize)?
        .unwrap_or_else(|| vec![2, 4, 8]);
    if cores.is_empty() || cores.contains(&0) {
        return Err("\"cores\" requires one or more core counts >= 1".to_owned());
    }

    let refine_budget = want_usize(get("refine_budget"), "refine_budget")?;
    let explore = match want_str(get("explore"), "explore")?.unwrap_or("exhaustive") {
        "exhaustive" => {
            if refine_budget.is_some() {
                return Err(
                    "\"refine_budget\" only applies to the frontier explore mode".to_owned(),
                );
            }
            ExploreMode::Exhaustive
        }
        "frontier" => ExploreMode::Frontier(FrontierConfig {
            refine_budget: refine_budget.unwrap_or(FrontierConfig::default().refine_budget),
        }),
        other => return Err(format!("unknown explore mode: {other}")),
    };

    let spec = ScenarioSpec {
        name: want_str(get("name"), "name")?.unwrap_or("sweep").to_owned(),
        workload,
        evaluation,
        cores,
        utilizations,
        allocators,
        period_policies,
        trials: want_usize(get("trials"), "trials")?.unwrap_or(5),
        base_seed: want_u64(get("seed"), "seed")?.unwrap_or(2018),
        expansion,
        explore,
    };
    spec.validate()?;
    Ok(SweepRequest { spec })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn an_empty_request_matches_the_cli_defaults() {
        let req = parse_request(&json::parse("{}").expect("valid json")).expect("valid request");
        assert_eq!(req.spec.name, "sweep");
        assert_eq!(req.spec.cores, vec![2, 4, 8]);
        assert_eq!(req.spec.trials, 5);
        assert_eq!(req.spec.base_seed, 2018);
        assert_eq!(
            req.spec.allocators,
            vec![
                AllocatorKind::Hydra,
                AllocatorKind::SingleCore,
                AllocatorKind::NpHydra
            ]
        );
        assert_eq!(req.spec.period_policies, vec![PeriodPolicy::Fixed]);
        assert!(matches!(
            req.spec.utilizations,
            UtilizationGrid::NormalizedSteps(13)
        ));
        assert_eq!(req.spec.explore, ExploreMode::Exhaustive);
    }

    #[test]
    fn frontier_requests_parse_the_adaptive_fields() {
        let req = parse_request(
            &json::parse(r#"{"explore": "frontier", "refine_budget": 12}"#).expect("valid json"),
        )
        .expect("valid request");
        assert_eq!(
            req.spec.explore,
            ExploreMode::Frontier(FrontierConfig { refine_budget: 12 })
        );
        // The budget defaults like the CLI's when omitted.
        let req = parse_request(&json::parse(r#"{"explore": "frontier"}"#).expect("valid json"))
            .expect("valid request");
        assert_eq!(
            req.spec.explore,
            ExploreMode::Frontier(FrontierConfig::default())
        );
    }

    #[test]
    fn explicit_fields_reach_the_spec() {
        let body = r#"{
            "name": "mini", "cores": [2], "utils": [0.3, 0.6], "trials": 2,
            "seed": 7, "allocators": ["hydra"], "period_policies": ["fixed"]
        }"#;
        let req = parse_request(&json::parse(body).expect("valid json")).expect("valid request");
        assert_eq!(req.spec.name, "mini");
        assert_eq!(req.spec.cores, vec![2]);
        assert_eq!(req.spec.base_seed, 7);
        match &req.spec.utilizations {
            UtilizationGrid::Fractions(f) => assert_eq!(f, &vec![0.3, 0.6]),
            other => panic!("expected fractions, got {other:?}"),
        }
    }

    #[test]
    fn unknown_fields_and_bad_values_are_rejected() {
        for (body, needle) in [
            (r#"{"coores": [2]}"#, "unknown field"),
            (r#"{"cores": [0]}"#, "core counts"),
            (r#"{"utils": [1.5]}"#, "(0, 1]"),
            (r#"{"allocators": []}"#, "at least one allocator"),
            (r#"{"allocators": ["warpdrive"]}"#, "unknown allocator"),
            (r#"{"sec_tasks": [5, 2]}"#, "empty or zero"),
            (r#"{"trials": "many"}"#, "unsigned integer"),
            (r#"{"workload": "quantum"}"#, "unknown workload"),
            (r#"{"explore": "random"}"#, "unknown explore mode"),
            (r#"{"batch": false}"#, "unknown field"),
            (r#"{"trials": 0}"#, "trials must be at least 1"),
            (
                r#"{"explore": "frontier", "sample": 5}"#,
                "cannot sample the grid",
            ),
            (
                r#"{"workload": "uav", "explore": "frontier"}"#,
                "needs a utilization axis",
            ),
            (
                r#"{"refine_budget": 4}"#,
                "only applies to the frontier explore mode",
            ),
            (r#"[1]"#, "must be a JSON object"),
        ] {
            let doc = json::parse(body).expect("valid json");
            let err = parse_request(&doc).expect_err("must be rejected");
            assert!(
                err.contains(needle),
                "`{body}` -> `{err}` (wanted `{needle}`)"
            );
        }
    }

    #[test]
    fn request_fields_list_is_canonical() {
        // Guards the D006 contract: every field the parser consults appears
        // in REQUEST_FIELDS (the parser rejects anything outside the list,
        // so a field missing from the list would be unreachable).
        for key in [
            "name",
            "workload",
            "eval",
            "horizon",
            "attacks",
            "cores",
            "util_steps",
            "utils",
            "allocators",
            "period_policies",
            "trials",
            "seed",
            "sec_tasks",
            "sample",
            "explore",
            "refine_budget",
        ] {
            assert!(
                REQUEST_FIELDS.split(',').any(|f| f.trim() == key),
                "{key} missing from REQUEST_FIELDS"
            );
        }
    }
}

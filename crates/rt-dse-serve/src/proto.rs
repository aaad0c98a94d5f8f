//! The serve wire protocol: JSON sweep requests in, status documents and
//! JSONL streams out.
//!
//! A request body is one JSON object whose fields mirror the `dse sweep`
//! options one-for-one: the same names modulo `-`/`_` (with one exception,
//! `period_policies` is `--period-policy`). Both surfaces read their syntax
//! into [`SpecFields`] and build the spec through the one
//! [`SpecFields::into_spec`], so they share every default and input rule
//! and refuse bad input with the same message, and a request and a CLI
//! invocation describing the same sweep produce **byte-identical** JSONL.
//! Unknown and duplicate fields are rejected rather than ignored: a typo'd
//! axis name must not silently run the default sweep.

use rt_dse::prelude::*;

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
/// A human-readable reason: an unknown field, a value of the wrong type,
/// or whatever [`SpecFields::into_spec`] refuses (the same message the
/// CLI prints).
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
    let text = |key: &str| want_str(get(key), key).map(|s| s.map(str::to_owned));
    let count = |key: &str| want_usize(get(key), key);
    let counts = |key: &str| want_list(get(key), key, "integers", Json::as_usize);
    let labels = |key: &str| want_list(get(key), key, "strings", |v| v.as_str().map(str::to_owned));
    let fields = SpecFields {
        name: text("name")?,
        workload: text("workload")?,
        eval: text("eval")?,
        horizon: want_u64(get("horizon"), "horizon")?,
        attacks: count("attacks")?,
        cores: counts("cores")?,
        util_steps: count("util_steps")?,
        utils: want_list(get("utils"), "utils", "numbers", Json::as_f64)?,
        allocators: labels("allocators")?,
        period_policies: labels("period_policies")?,
        trials: count("trials")?,
        seed: want_u64(get("seed"), "seed")?,
        sec_tasks: counts("sec_tasks")?,
        sample: count("sample")?,
        explore: text("explore")?,
        refine_budget: count("refine_budget")?,
    };
    Ok(SweepRequest {
        spec: fields.into_spec()?,
    })
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
                "refine_budget only applies to explore frontier",
            ),
            (r#"[1]"#, "must be a JSON object"),
            (
                r#"{"workload": "uav", "eval": "detection", "horizon": 0}"#,
                "horizon must be greater than 0",
            ),
            (r#"{"cores": [2, 2]}"#, "cores lists 2 twice"),
            (
                r#"{"allocators": ["hydra", "hydra"]}"#,
                "allocators lists hydra twice",
            ),
            (
                r#"{"period_policies": ["fixed", "fixed"]}"#,
                "period_policies lists fixed twice",
            ),
            (r#"{"utils": [0.5, 0.5]}"#, "utils lists 0.5 twice"),
            (r#"{"util_steps": 0}"#, "util_steps must be at least 1"),
            (r#"{"sample": 0}"#, "sample must be at least 1"),
            (
                r#"{"utils": []}"#,
                "utils must list at least one utilization",
            ),
            (
                r#"{"eval": "detection", "attacks": 0}"#,
                "attacks must be at least 1",
            ),
            (
                r#"{"utils": [0.5], "util_steps": 3}"#,
                "utils cannot be combined with util_steps",
            ),
            (
                r#"{"horizon": 60}"#,
                "horizon only applies to eval detection",
            ),
            (
                r#"{"attacks": 5}"#,
                "attacks only applies to eval detection",
            ),
            (
                r#"{"workload": "uav", "sec_tasks": [2, 6]}"#,
                "sec_tasks only applies to workload synthetic",
            ),
            (
                r#"{"workload": "uav", "utils": [0.5]}"#,
                "utils only applies to workload synthetic",
            ),
            (
                r#"{"workload": "uav", "util_steps": 3}"#,
                "util_steps only applies to workload synthetic",
            ),
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

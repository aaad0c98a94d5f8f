//! One table of sweeps read through both surfaces: each case pairs a
//! `dse sweep` argument list with the `dse-serve` request body that
//! describes the same sweep. Valid cases must build equal specs, invalid
//! ones must be refused with the same message, and every default `dse`'s
//! help text states must be the one the builder applies.

use rt_dse::cli::Args;
use rt_dse::prelude::*;
use rt_dse_serve::{json, proto};

/// `dse`'s usage text, read from the binary's source: its option lines are
/// the options `dse sweep` accepts.
fn dse_usage() -> &'static str {
    const SOURCE: &str = include_str!("../../rt-dse/src/bin/dse.rs");
    const OPEN: &str = "const USAGE: &str = \"\\\n";
    let start = SOURCE.find(OPEN).expect("dse.rs declares USAGE") + OPEN.len();
    let len = SOURCE[start..].find("\";\n").expect("USAGE is terminated");
    let usage = &SOURCE[start..start + len];
    assert!(
        !usage.contains(['\\', '"']),
        "USAGE must hold no escape sequence this reader would have to undo"
    );
    usage
}

/// The spec `dse sweep ARGS` would run, or its refusal.
fn through_cli(args: &[&str]) -> Result<ScenarioSpec, String> {
    let args = Args::new(dse_usage(), args.iter().copied());
    args.validate()?;
    args.spec_fields()?.into_spec()
}

/// The spec `dse-serve` would run for a request `body`, or its refusal.
fn through_serve(body: &str) -> Result<ScenarioSpec, String> {
    let doc = json::parse(body).expect("the case's body is valid JSON");
    proto::parse_request(&doc).map(|request| request.spec)
}

const VALID: [(&[&str], &str); 7] = [
    (&[], "{}"),
    // CI serve-smoke's `req` and `freq` bodies.
    (
        &[
            "--cores",
            "2,4",
            "--util-steps",
            "4",
            "--allocators",
            "hydra,singlecore",
            "--trials",
            "2",
        ],
        r#"{"cores": [2, 4], "util_steps": 4, "allocators": ["hydra", "singlecore"], "trials": 2}"#,
    ),
    (
        &[
            "--cores",
            "2,4",
            "--util-steps",
            "13",
            "--allocators",
            "hydra,singlecore",
            "--trials",
            "2",
            "--explore",
            "frontier",
        ],
        r#"{"cores": [2, 4], "util_steps": 13, "allocators": ["hydra", "singlecore"],
            "trials": 2, "explore": "frontier"}"#,
    ),
    // The three request shapes of perfbench's serve-store workload.
    (
        &[
            "--name",
            "frontier",
            "--cores",
            "2,4",
            "--util-steps",
            "40",
            "--explore",
            "frontier",
            "--refine-budget",
            "4",
            "--trials",
            "2",
            "--seed",
            "1",
        ],
        r#"{"name":"frontier","cores":[2,4],"util_steps":40,"explore":"frontier",
            "refine_budget":4,"trials":2,"seed":1}"#,
    ),
    (
        &[
            "--name",
            "fig3",
            "--cores",
            "2",
            "--sec-tasks",
            "2,6",
            "--allocators",
            "hydra,optimal",
            "--trials",
            "2",
            "--seed",
            "1",
        ],
        r#"{"name":"fig3","cores":[2],"sec_tasks":[2,6],"allocators":["hydra","optimal"],
            "trials":2,"seed":1}"#,
    ),
    (
        &[
            "--name",
            "uav",
            "--workload",
            "uav",
            "--eval",
            "detection",
            "--horizon",
            "1800",
            "--attacks",
            "200",
            "--cores",
            "2,4",
            "--allocators",
            "hydra,singlecore",
            "--trials",
            "4",
            "--seed",
            "1",
        ],
        r#"{"name":"uav","workload":"uav","eval":"detection","horizon":1800,"attacks":200,
            "cores":[2,4],"allocators":["hydra","singlecore"],"trials":4,"seed":1}"#,
    ),
    (
        &[
            "--utils",
            "0.3,0.6",
            "--period-policy",
            "fixed,adapt,joint",
            "--seed",
            "7",
            "--name",
            "mini",
        ],
        r#"{"utils": [0.3, 0.6], "period_policies": ["fixed", "adapt", "joint"],
            "seed": 7, "name": "mini"}"#,
    ),
];

#[test]
fn both_surfaces_build_the_same_spec() {
    for (args, body) in VALID {
        let spec = through_cli(args).unwrap_or_else(|e| panic!("dse sweep {args:?}: {e}"));
        assert_eq!(
            through_serve(body),
            Ok(spec),
            "dse sweep {args:?} vs {body}"
        );
    }
}

/// Every refusal the builder and `ScenarioSpec::validate` make, with the
/// message both surfaces must print.
const INVALID: [(&[&str], &str, &str); 33] = [
    (
        &["--workload", "uav", "--eval", "detection", "--horizon", "0"],
        r#"{"workload": "uav", "eval": "detection", "horizon": 0}"#,
        "horizon must be greater than 0",
    ),
    (
        &["--eval", "detection", "--horizon", "18446744073709551615"],
        r#"{"eval": "detection", "horizon": 18446744073709551615}"#,
        "horizon 18446744073709551615 s is out of range",
    ),
    (
        &["--cores", "2,2"],
        r#"{"cores": [2, 2]}"#,
        "cores lists 2 twice",
    ),
    (
        &["--allocators", "hydra,hydra"],
        r#"{"allocators": ["hydra", "hydra"]}"#,
        "allocators lists hydra twice",
    ),
    (
        &["--period-policy", "fixed,fixed"],
        r#"{"period_policies": ["fixed", "fixed"]}"#,
        "period_policies lists fixed twice",
    ),
    (
        &["--utils", "0.5,0.5"],
        r#"{"utils": [0.5, 0.5]}"#,
        "utils lists 0.5 twice",
    ),
    (
        &["--util-steps", "0"],
        r#"{"util_steps": 0}"#,
        "util_steps must be at least 1",
    ),
    (
        &["--sample", "0"],
        r#"{"sample": 0}"#,
        "sample must be at least 1",
    ),
    (
        &["--utils", ""],
        r#"{"utils": []}"#,
        "utils must list at least one utilization",
    ),
    (
        &["--eval", "detection", "--attacks", "0"],
        r#"{"eval": "detection", "attacks": 0}"#,
        "attacks must be at least 1",
    ),
    (
        &["--utils", "0.5", "--util-steps", "3"],
        r#"{"utils": [0.5], "util_steps": 3}"#,
        "utils cannot be combined with util_steps",
    ),
    (
        &["--horizon", "60"],
        r#"{"horizon": 60}"#,
        "horizon only applies to eval detection",
    ),
    (
        &["--attacks", "5"],
        r#"{"attacks": 5}"#,
        "attacks only applies to eval detection",
    ),
    (
        &["--workload", "uav", "--sec-tasks", "2,6"],
        r#"{"workload": "uav", "sec_tasks": [2, 6]}"#,
        "sec_tasks only applies to workload synthetic",
    ),
    (
        &["--workload", "uav", "--utils", "0.5"],
        r#"{"workload": "uav", "utils": [0.5]}"#,
        "utils only applies to workload synthetic",
    ),
    (
        &["--workload", "uav", "--util-steps", "3"],
        r#"{"workload": "uav", "util_steps": 3}"#,
        "util_steps only applies to workload synthetic",
    ),
    (
        &["--refine-budget", "4"],
        r#"{"refine_budget": 4}"#,
        "refine_budget only applies to explore frontier",
    ),
    (
        &["--trials", "0"],
        r#"{"trials": 0}"#,
        "trials must be at least 1",
    ),
    (
        &["--explore", "frontier", "--sample", "5"],
        r#"{"explore": "frontier", "sample": 5}"#,
        "frontier exploration plans its own points and cannot sample the grid",
    ),
    (
        &["--workload", "uav", "--explore", "frontier"],
        r#"{"workload": "uav", "explore": "frontier"}"#,
        "frontier exploration needs a utilization axis to bisect, and this workload has none",
    ),
    (
        &["--cores", "0"],
        r#"{"cores": [0]}"#,
        "cores requires one or more core counts >= 1",
    ),
    (
        &["--cores", ""],
        r#"{"cores": []}"#,
        "cores requires one or more core counts >= 1",
    ),
    (
        &["--utils", "1.5"],
        r#"{"utils": [1.5]}"#,
        "utils fractions must lie in (0, 1]",
    ),
    (
        &["--allocators", ""],
        r#"{"allocators": []}"#,
        "at least one allocator is required",
    ),
    (
        &["--allocators", "warpdrive"],
        r#"{"allocators": ["warpdrive"]}"#,
        "unknown allocator: warpdrive",
    ),
    (
        &["--period-policy", ""],
        r#"{"period_policies": []}"#,
        "at least one period policy is required",
    ),
    (
        &["--period-policy", "sometimes"],
        r#"{"period_policies": ["sometimes"]}"#,
        "unknown period policy: sometimes",
    ),
    (
        &["--sec-tasks", "5,2"],
        r#"{"sec_tasks": [5, 2]}"#,
        "sec_tasks range [5, 2] is empty or zero",
    ),
    (
        &["--sec-tasks", "2"],
        r#"{"sec_tasks": [2]}"#,
        "sec_tasks expects two counts, lo and hi",
    ),
    // Up to 4.8 - 4.8 / 1.3 of the 8 cores' 4.8 is security utilization,
    // more than one task can carry; the generator used to panic mid-run.
    (
        &["--sec-tasks", "1,1", "--cores", "8", "--utils", "0.6"],
        r#"{"sec_tasks": [1, 1], "cores": [8], "utils": [0.6]}"#,
        "utilization 4.8 on 8 cores needs at least 2 security tasks, but sec_tasks starts at 1",
    ),
    (
        &["--workload", "quantum"],
        r#"{"workload": "quantum"}"#,
        "unknown workload: quantum",
    ),
    (
        &["--eval", "psychic"],
        r#"{"eval": "psychic"}"#,
        "unknown evaluation: psychic",
    ),
    (
        &["--explore", "random"],
        r#"{"explore": "random"}"#,
        "unknown explore mode: random",
    ),
];

#[test]
fn both_surfaces_refuse_the_same_input_with_the_same_message() {
    for (args, body, message) in INVALID {
        assert_eq!(
            through_cli(args),
            Err(message.to_owned()),
            "dse sweep {args:?}"
        );
        assert_eq!(through_serve(body), Err(message.to_owned()), "{body}");
    }
}

#[test]
fn both_surfaces_refuse_values_of_the_wrong_type() {
    // The type of a value is surface syntax, so the two messages differ.
    for (args, body) in [
        (&["--trials", "many"][..], r#"{"trials": "many"}"#),
        (&["--seed", "-1"], r#"{"seed": -1}"#),
        (&["--cores", "2,x"], r#"{"cores": [2, "x"]}"#),
        (&["--horizon", "1.5"], r#"{"horizon": 1.5}"#),
    ] {
        assert!(through_cli(args).is_err(), "dse sweep {args:?}");
        assert!(through_serve(body).is_err(), "{body}");
    }
}

#[test]
fn every_default_the_usage_states_is_the_one_the_builder_applies() {
    // The run options (`--threads`, `--out`, ...) never reach the builder.
    const SPEC_OPTIONS: [&str; 16] = [
        "--name",
        "--workload",
        "--eval",
        "--horizon",
        "--attacks",
        "--cores",
        "--util-steps",
        "--utils",
        "--allocators",
        "--period-policy",
        "--trials",
        "--seed",
        "--sec-tasks",
        "--sample",
        "--explore",
        "--refine-budget",
    ];
    let mut option = String::new();
    let mut checked = Vec::new();
    for line in dse_usage().lines() {
        if let Some(decl) = line.strip_prefix("    --") {
            option = format!("--{}", decl.split(' ').next().unwrap_or_default());
        }
        let Some(default) = line
            .split_once("[default: ")
            .and_then(|(_, rest)| rest.strip_suffix(']'))
        else {
            continue;
        };
        if !SPEC_OPTIONS.contains(&option.as_str()) {
            continue;
        }
        // The options that apply only next to another get that one too.
        let context: &[&str] = match option.as_str() {
            "--horizon" | "--attacks" => &["--eval", "detection"],
            "--refine-budget" => &["--explore", "frontier"],
            _ => &[],
        };
        let mut explicit = context.to_vec();
        explicit.extend([option.as_str(), default]);
        assert_eq!(
            through_cli(&explicit),
            through_cli(context),
            "{option} {default}"
        );
        assert!(through_cli(context).is_ok(), "{context:?}");
        checked.push(option.clone());
    }
    assert_eq!(
        checked,
        [
            "--cores",
            "--util-steps",
            "--allocators",
            "--period-policy",
            "--explore",
            "--refine-budget",
            "--trials",
            "--seed",
            "--workload",
            "--eval",
            "--horizon",
            "--attacks",
            "--name",
        ]
    );
}

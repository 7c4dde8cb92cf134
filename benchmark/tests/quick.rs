//! Quick mode (`--seconds 1`: one warm-up pass and one round) for every
//! workload in `BENCHMARK.json`, with tracing off and on.

use std::process::Command;

use serde_json::Value;

/// Any JSON document, as the vendored parser's value tree.
struct Json(Value);

impl serde::Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self(v.clone()))
    }
}

fn parse(text: &str) -> Value {
    match serde_json::from_str::<Json>(text) {
        Ok(Json(v)) => v,
        Err(e) => panic!("not JSON ({e}): {text}"),
    }
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    v.get_field(name).unwrap_or_else(|e| panic!("{e}"))
}

fn string(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::I64(i) => *i as f64,
        Value::U64(u) => *u as f64,
        Value::F64(f) => *f,
        other => panic!("expected a number, found {other:?}"),
    }
}

fn array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, found {other:?}"),
    }
}

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark"))
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    array(field(spec, list))
        .iter()
        .map(|m| {
            (
                string(field(m, "name")).to_owned(),
                string(field(m, "unit")).to_owned(),
            )
        })
        .collect()
}

/// Runs the benchmark from the repository root at the default seed (the
/// paper's) and parses the last line of its standard output.
fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_qfc-benchmark"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args(["--workload", workload, "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    parse(stdout.lines().last().expect("a result line"))
}

/// The emitted metrics, in order, as `(name, unit)`.
fn emitted(result: &Value) -> Vec<(String, String)> {
    match field(result, "metrics") {
        Value::Object(fields) => fields
            .iter()
            .map(|(name, m)| {
                assert!(
                    number(field(m, "value")).is_finite(),
                    "{name} is not finite"
                );
                (name.clone(), string(field(m, "unit")).to_owned())
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let spec = spec();
    for workload in array(field(&spec, "workloads")) {
        let name = string(field(workload, "name"));
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(name, trace);
            assert_eq!(
                field(&result, "correct"),
                &Value::Bool(true),
                "{name} trace {trace}"
            );
            assert_eq!(
                number(field(&result, "failed")),
                0.0,
                "{name} trace {trace}"
            );
            assert!(number(field(&result, "attempted")) >= 1.0);
            assert_eq!(
                emitted(&result),
                declared(&spec, list),
                "{name} trace {trace}"
            );
            if trace == 0 {
                for (metric, _) in declared(&spec, list) {
                    let value = number(field(field(field(&result, "metrics"), &metric), "value"));
                    assert!(value > 0.0, "{name}: end-to-end {metric} reads {value}");
                }
            }
        }
    }
}

/// At this seed the §II F1 contrast reads 4.625 against the paper's 5,
/// a statistical miss: the run reports it and stays correct.
#[test]
fn a_statistical_miss_at_the_runs_seed_is_reported_not_failed() {
    let out = Command::new(env!("CARGO_BIN_EXE_qfc-benchmark"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args(["--workload", "paper", "--seed", "1039631346"])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("statistical miss"), "{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let result = parse(stdout.lines().last().expect("a result line"));
    assert_eq!(field(&result, "correct"), &Value::Bool(true), "{stderr}");
}

#[test]
fn a_bad_argument_exits_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_qfc-benchmark"))
        .args(["--workload", "no-such-workload", "--seconds", "1"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

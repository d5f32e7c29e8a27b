//! The benchmark against its own declaration in `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`:
//! each workload test runs one pass of the real workload, untraced and
//! traced, which is slow in a debug build.

use perfbench::{run, Options, Workload, END_TO_END, PER_LAYER};
use serde::Value;
use std::process::Command;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(m) => {
            &m.iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no key {key}"))
                .1
        }
        _ => panic!("not an object looking up {key}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => panic!("not a string: {v:?}"),
    }
}

fn list(v: &Value) -> &[Value] {
    match v {
        Value::Seq(s) => s,
        _ => panic!("not a list: {v:?}"),
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let raw = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    serde_json::from_str(&raw).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    list(field(&benchmark_json(), section))
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_owned(),
                text(field(m, "unit")).to_owned(),
            )
        })
        .collect()
}

fn catalogue(defs: &[(&str, &str)]) -> Vec<(String, String)> {
    defs.iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect()
}

#[test]
fn benchmark_json_declares_the_catalogue() {
    assert_eq!(declared("end_to_end"), catalogue(&END_TO_END));
    assert_eq!(declared("per_layer"), catalogue(&PER_LAYER));
    let workloads: Vec<String> = list(field(&benchmark_json(), "workloads"))
        .iter()
        .map(|w| text(field(w, "name")).to_owned())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);
}

/// The metrics of a result line as `(name, unit)`, checking the line's
/// shape: `correct`, no failures, at least one attempt, numeric values.
fn result_metrics(line: &str) -> Vec<(String, String)> {
    let result: Value = serde_json::from_str(line).expect("the result line is JSON");
    assert_eq!(field(&result, "correct"), &Value::Bool(true), "{line}");
    assert_eq!(field(&result, "failed"), &Value::U64(0), "{line}");
    assert!(matches!(field(&result, "attempted"), Value::U64(n) if *n > 0));
    let Value::Map(metrics) = field(&result, "metrics") else {
        panic!("metrics is an object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(
                    field(m, "value"),
                    Value::F64(_) | Value::U64(_) | Value::I64(_)
                ),
                "{name} has a numeric value"
            );
            (name.clone(), text(field(m, "unit")).to_owned())
        })
        .collect()
}

/// One pass of `workload` as the benchmark runs it (`--seconds 0`),
/// untraced then traced: both print exactly the declared metrics with
/// their units, every end-to-end metric is non-zero, and the traced
/// run's layer self times account for its traced wall time.
fn check_workload(workload: Workload) {
    let untraced = run(&Options {
        workload,
        seed: 5,
        seconds: 0.0,
        trace: false,
    });
    assert_eq!(
        result_metrics(&untraced.json()),
        declared("end_to_end"),
        "{workload:?} untraced"
    );
    for (name, value, _) in &untraced.metrics {
        assert!(
            value.is_finite() && *value > 0.0,
            "{workload:?} {name} = {value}"
        );
    }

    let traced = run(&Options {
        workload,
        seed: 5,
        seconds: 0.0,
        trace: true,
    });
    assert_eq!(
        result_metrics(&traced.json()),
        declared("per_layer"),
        "{workload:?} traced"
    );
    let metric = |name: &str| {
        traced
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .expect("metric printed")
    };
    let wall = metric("bench.traced_wall_s");
    let self_times = perfbench::spans::self_times(&traced.spans);
    let total: f64 = self_times.values().sum();
    assert!(
        (total - wall).abs() < 1e-6,
        "{workload:?}: self times sum to {total}, traced wall {wall}"
    );
    // What is not a layer's self time is the benchmark's own
    // bookkeeping, and it stays small.
    let harness = metric("bench.harness_s");
    assert!(
        harness >= 0.0 && harness < 0.02 * wall,
        "{workload:?}: harness {harness}s of {wall}s"
    );
    let ratio = metric("bench.trace_overhead");
    assert!(ratio > 0.5 && ratio < 2.0, "{workload:?}: overhead {ratio}");
}

#[test]
fn suite_memory_meets_its_declaration() {
    check_workload(Workload::SuiteMemory);
}

#[test]
fn suite_compute_meets_its_declaration() {
    check_workload(Workload::SuiteCompute);
}

#[test]
fn fault_campaign_meets_its_declaration() {
    check_workload(Workload::FaultCampaign);
}

#[test]
fn serve_sweep_meets_its_declaration() {
    check_workload(Workload::ServeSweep);
}

#[test]
fn the_command_prints_the_result_last() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "fault_campaign", "--seed", "3"])
        .args(["--seconds", "0", "--trace", "0"])
        .output()
        .expect("perfbench runs");
    assert!(out.status.success(), "exited {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    assert_eq!(result_metrics(last), declared("end_to_end"));
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "serve_sweep", "--trace", "2"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("perfbench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

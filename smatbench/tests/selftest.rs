//! Quick-mode self-test of the benchmark binary: every metric is printed
//! with a unit, the traced run writes well-formed spans, and
//! `BENCHMARK.json` names the metrics the binary reports.

#[allow(dead_code)]
#[path = "../src/metrics.rs"]
mod metrics;

use serde::Value;
use std::collections::BTreeMap;
use std::process::Command;

const SEED: u64 = 7;

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_smatbench"))
        .args(args)
        .output()
        .expect("run the benchmark binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn quick(workload: &str, trace: &str) -> String {
    let seed = SEED.to_string();
    let (ok, stdout) = run(&[
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        "0.5",
        "--trace",
        trace,
        "--quick",
    ]);
    assert!(ok, "{workload} trace {trace} failed:\n{stdout}");
    stdout
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing {key:?} in {v:?}"))
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        other => panic!("not a number: {other:?}"),
    }
}

/// The result line's metrics as `name -> (value, unit)`, after checking
/// its shape.
fn result(stdout: &str) -> BTreeMap<String, (f64, String)> {
    let last = stdout.lines().last().expect("some output");
    let v = serde_json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = v
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(matches!(field(&v, "correct"), Value::Bool(true)));
    assert!(number(field(&v, "attempted")) >= 1.0);
    assert_eq!(number(field(&v, "failed")), 0.0);
    field(&v, "metrics")
        .as_object()
        .unwrap()
        .iter()
        .map(|(name, m)| {
            let unit = match field(m, "unit") {
                Value::Str(u) => u.clone(),
                other => panic!("{name}: unit {other:?}"),
            };
            (name.clone(), (number(field(m, "value")), unit))
        })
        .collect()
}

fn assert_metric_line(stdout: &str, name: &str, unit: &str) {
    let prefix = format!("metric {name} = ");
    let line = stdout
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no metric line for {name}"));
    let rest = &line[prefix.len()..];
    let (value, got_unit) = rest.split_once(' ').expect("value and unit");
    value.parse::<f64>().expect("numeric value");
    assert_eq!(got_unit, unit, "{name}");
}

#[test]
fn every_workload_prints_its_metrics_with_units() {
    for workload in ["suite", "amg", "serve_mix"] {
        let stdout = quick(workload, "0");
        let got = result(&stdout);
        let want: Vec<(String, String)> = metrics::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let have: Vec<(String, String)> = got
            .iter()
            .map(|(n, (_, u))| (n.clone(), u.clone()))
            .collect();
        assert_eq!(have.len(), want.len());
        for w in &want {
            assert!(have.contains(w), "{workload}: missing {w:?}");
            assert!(got[&w.0].0 > 0.0, "{workload}: {} is 0", w.0);
        }
        for &(wl, name, unit) in metrics::NAMED {
            if wl == workload {
                assert_metric_line(&stdout, name, unit);
            }
        }
        assert!(
            stdout.contains("ops attempted = "),
            "{workload}: counts line"
        );
        assert!(
            stdout.contains("fact pool_width = "),
            "{workload}: pool width"
        );
        assert!(stdout.contains("pick {"), "{workload}: picks");
        assert!(stdout.contains("ratio "), "{workload}: paper ratio");
    }
}

#[test]
fn traced_run_writes_per_layer_metrics_and_well_formed_spans() {
    let stdout = quick("amg", "1");
    let got = result(&stdout);
    for (name, unit) in metrics::per_layer() {
        let (_, u) = got.get(&name).unwrap_or_else(|| panic!("missing {name}"));
        assert_eq!(u, unit, "{name}");
    }
    assert!(got["amg.iterations"].0 > 0.0);
    assert!(got["amg.vcycle_ms"].0 > 0.0);

    let path = format!(
        "{}/out/amg-seed{SEED}-trace1-spans.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).expect("span log written");
    let doc = serde_json::parse(&text).expect("span log is JSON");
    let spans = field(&doc, "spans").as_array().expect("spans array");
    assert!(!spans.is_empty());
    let mut by_id = BTreeMap::new();
    for s in spans {
        let id = number(field(s, "id")) as u64;
        let start = number(field(s, "start_ns"));
        let end = number(field(s, "end_ns"));
        assert!(start <= end);
        assert!(matches!(field(s, "name"), Value::Str(n) if n.contains('.')));
        number(field(s, "op"));
        assert!(
            by_id
                .insert(id, (start, end, number(field(s, "op"))))
                .is_none(),
            "duplicate id {id}"
        );
    }
    for s in spans {
        if let Value::UInt(_) | Value::Int(_) = field(s, "parent") {
            let parent = number(field(s, "parent")) as u64;
            let (ps, pe, pop) = by_id[&parent];
            assert!(ps <= number(field(s, "start_ns")) && number(field(s, "end_ns")) <= pe);
            assert_eq!(
                pop,
                number(field(s, "op")),
                "a child shares its parent's operation"
            );
        } else {
            assert!(matches!(field(s, "parent"), Value::Null));
        }
    }
}

#[test]
fn benchmark_json_names_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::parse(&text).expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        field(&doc, key)
            .as_array()
            .unwrap()
            .iter()
            .map(|m| match (field(m, "name"), field(m, "unit")) {
                (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
                other => panic!("bad metric entry {other:?}"),
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = metrics::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("end_to_end"), e2e);
    let layer: Vec<(String, String)> = metrics::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names("per_layer"), layer);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "amg"][..],
        &["--workload", "amg", "--seed", "1", "--trace", "2"][..],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(!stdout.contains("\"metrics\""), "{args:?} printed a result");
    }
}

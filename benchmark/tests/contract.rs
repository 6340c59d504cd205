//! End-to-end tests of the benchmark binary: quick runs of every workload,
//! names against `BENCHMARK.json`, and the negative control of the checker.

use koala_benchmark::spec::{DEFAULT_SECONDS, END_TO_END, PER_LAYER, WORKLOADS};
use koala_json::JsonValue;
use std::process::Command;

fn run(args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_koala-benchmark"))
        .args(args)
        .output()
        .expect("binary runs");
    (String::from_utf8(out.stdout).expect("utf-8 output"), out.status.success())
}

fn run_to_file(tag: &str, args: &[&str]) -> JsonValue {
    let path = format!("{}/{tag}.json", env!("CARGO_TARGET_TMPDIR"));
    let mut full = vec!["run", "--out", &path];
    full.extend_from_slice(args);
    let (stdout, ok) = run(&full);
    assert!(ok, "run {args:?} failed:\n{stdout}");
    JsonValue::parse(&std::fs::read_to_string(&path).expect("result file"))
        .expect("result file is JSON")
}

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json is JSON")
}

fn keys(v: &JsonValue) -> Vec<String> {
    match v {
        JsonValue::Object(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("expected an object, got {v:?}"),
    }
}

fn field<'a>(v: &'a JsonValue, path: &[&str]) -> &'a JsonValue {
    path.iter()
        .fold(v, |v, key| v.get(key).unwrap_or_else(|| panic!("missing '{key}' in {path:?}")))
}

fn names(list: &JsonValue) -> Vec<String> {
    list.as_array()
        .expect("array")
        .iter()
        .map(|e| field(e, &["name"]).as_str().expect("name").to_string())
        .collect()
}

#[test]
fn spec_matches_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    assert_eq!(field(&doc, &["run_seconds"]).as_num(), Some(DEFAULT_SECONDS));
    let workloads = field(&doc, &["workloads"]).as_array().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, spec) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(field(entry, &["name"]).as_str(), Some(spec.name));
        assert_eq!(field(entry, &["why"]).as_str(), Some(spec.why));
        assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
    }
    for (list, specs, bounded) in
        [("end_to_end", END_TO_END, true), ("per_layer", PER_LAYER, false)]
    {
        let entries = field(&doc, &[list]).as_array().unwrap();
        assert_eq!(entries.len(), specs.len(), "{list}");
        for (entry, spec) in entries.iter().zip(specs) {
            assert_eq!(field(entry, &["name"]).as_str(), Some(spec.name));
            assert_eq!(field(entry, &["unit"]).as_str(), Some(spec.unit), "{}", spec.name);
            assert_eq!(field(entry, &["better"]).as_str(), Some(spec.better), "{}", spec.name);
            if bounded {
                assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
                assert_eq!(field(entry, &["bound"]).as_num(), Some(spec.bound), "{}", spec.name);
                assert!(spec.bound > 0.0 && spec.bound <= 0.25);
            } else {
                assert_eq!(keys(entry), ["name", "unit", "better"]);
            }
        }
    }
    // The contract's limits on names and units.
    let ok = |s: &str, extra: &str, max: usize| {
        !s.is_empty()
            && s.len() <= max
            && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    for name in
        WORKLOADS.iter().map(|w| w.name).chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
    {
        assert!(
            ok(name, "_.-", 64) && name.chars().next().unwrap().is_ascii_alphanumeric(),
            "{name}"
        );
        assert!(seen.insert(name), "{name} is used twice");
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(ok(m.unit, "_/%.-", 16), "unit {}", m.unit);
        assert!(m.better == "lower" || m.better == "higher");
    }
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
}

#[test]
fn quick_run_passes_every_check_and_emits_the_declared_names() {
    let doc = run_to_file("quick", &["--quick", "--seed", "1"]);
    let declared = benchmark_json();
    assert_eq!(keys(field(&doc, &["workloads"])), names(field(&declared, &["workloads"])));
    for w in WORKLOADS {
        let report = field(&doc, &["workloads", w.name]);
        assert_eq!(
            field(report, &["failed_frac"]).as_num(),
            Some(0.0),
            "{} failed a check",
            w.name
        );
        assert_eq!(field(report, &["attempted"]).as_num(), Some(4.0), "{}", w.name);
        assert_eq!(
            keys(field(report, &["end_to_end"])),
            names(field(&declared, &["end_to_end"])),
            "{}",
            w.name
        );
        for m in END_TO_END {
            let value = field(report, &["end_to_end", m.name, "value"]).as_num().unwrap();
            assert!(value.is_finite() && value > 0.0, "{}/{} = {value}", w.name, m.name);
        }
    }
    let host = field(&doc, &["host"]);
    assert!(field(host, &["nproc"]).as_num().unwrap() >= 1.0);
    assert!(field(host, &["exec_threads"]).as_num().unwrap() >= 1.0);
    assert!(field(host, &["cpu_model"]).as_str().is_some());
}

#[test]
fn single_workload_runs_end_with_the_contract_line() {
    let declared = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (stdout, ok) = run(&[
            "run",
            "--quick",
            "--workload",
            "contract_ibmps",
            "--seed",
            "2",
            "--trace",
            trace,
        ]);
        assert!(ok);
        let last = JsonValue::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
        assert_eq!(keys(&last), ["correct", "attempted", "failed", "metrics"]);
        assert!(matches!(field(&last, &["correct"]), JsonValue::Bool(true)), "{stdout}");
        assert_eq!(field(&last, &["failed"]).as_num(), Some(0.0));
        assert!(field(&last, &["attempted"]).as_num().unwrap() >= 1.0);
        assert_eq!(keys(field(&last, &["metrics"])), names(field(&declared, &[list])));
        for (name, metric) in keys(field(&last, &["metrics"]))
            .iter()
            .zip(field(&declared, &[list]).as_array().unwrap())
        {
            assert_eq!(keys(field(&last, &["metrics", name])), ["value", "unit"]);
            assert_eq!(
                field(&last, &["metrics", name, "unit"]).as_str(),
                field(metric, &["unit"]).as_str()
            );
            assert!(field(&last, &["metrics", name, "value"]).as_num().unwrap().is_finite());
        }
        // Counts are whole numbers on the wire, not `4.0`.
        assert!(stdout.lines().last().unwrap().contains("\"failed\": 0,"));
    }
}

/// The checker's negative control: against a wrong reference (an oracle or
/// twin amplitude off by 1e-6, an ITE reference off by 0.1) every workload
/// must report failures, so that a passing check means something.
#[test]
fn a_wrong_reference_fails_every_workload() {
    let doc = run_to_file("wrong-reference", &["--quick", "--wrong-reference"]);
    for w in WORKLOADS {
        let failed_frac = field(&doc, &["workloads", w.name, "failed_frac"]).as_num().unwrap();
        assert!(failed_frac > 0.0, "{} passed against a wrong reference", w.name);
    }
}

#[test]
fn compare_accepts_a_file_against_itself_and_rejects_a_regression() {
    let path = format!("{}/compare-a.json", env!("CARGO_TARGET_TMPDIR"));
    let (_, ok) = run(&["run", "--quick", "--workload", "contract_ibmps", "--out", &path]);
    assert!(ok);
    let (stdout, ok) = run(&["compare", &path, &path]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("contract_ibmps") && stdout.contains("iter_p50_ms"));
    // Halve the throughput of B: out of bound, exit code 1.
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = JsonValue::parse(&text).unwrap();
    let ups =
        field(&doc, &["workloads", "contract_ibmps", "end_to_end", "throughput_ups", "value"])
            .as_num()
            .unwrap();
    let slower = format!("{}/compare-b.json", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&slower, text.replace(&format!("{ups}"), &format!("{}", ups / 2.0))).unwrap();
    let (stdout, ok) = run(&["compare", &path, &slower]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("OUT OF BOUND"));
}

//! The run protocol: one fresh child process per (workload, round), strictly
//! one after another, rounds interleaved round-robin across workloads so
//! host drift hits all workloads alike; then pooling, metrics and reports.

use crate::child::ChildResult;
use crate::spec::{
    self, MetricSpec, WorkloadSpec, END_TO_END, MIN_ITERS_PER_ROUND, PER_LAYER, ROUNDS,
};
use crate::stats::{median, percentile};
use koala_json::JsonValue;
use std::process::Command;

/// Iterations per workload in `--quick` mode.
const QUICK_ITERS: usize = 3;

/// What `run` was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Workload names, in run order.
    pub workloads: Vec<String>,
    /// Measured seconds per workload, split evenly across rounds.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: Option<String>,
    /// Test-only: run every workload against a wrong reference.
    pub wrong_reference: bool,
}

/// Pooled results of one workload.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub spec: &'static WorkloadSpec,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Warm samples pooled over rounds.
    pub samples: usize,
    /// Median plain wall time of the pooled warm iterations, ms — what
    /// `iter_p50_ms` is before rescaling to the reference clock.
    pub wall_p50_ms: f64,
    /// Workload units one iteration completes.
    pub units: u64,
    pub threads: usize,
    pub input_checksum: u64,
    /// `(name, value)` in `spec::END_TO_END` order (untraced runs).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// `(name, value)` in `spec::PER_LAYER` order (traced runs).
    pub per_layer: Vec<(&'static str, f64)>,
}

impl WorkloadReport {
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn spawn_child(cfg: &RunConfig, workload: &str, rounds: usize) -> ChildResult {
    let crashed = |why: String| ChildResult {
        attempted: 1,
        failed: 1,
        errors: vec![why],
        ..Default::default()
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return crashed(format!("cannot find own executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &(cfg.seconds / rounds as f64).to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }]);
    if cfg.quick {
        cmd.args(["--max-iters", &QUICK_ITERS.to_string()]);
    } else if !cfg.trace {
        cmd.args(["--min-iters", &MIN_ITERS_PER_ROUND.to_string()]);
    }
    if cfg.wrong_reference {
        cmd.arg("--wrong-reference");
    }
    if cfg.trace {
        // Beside the benchmark's sources, wherever the run was started from.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        cmd.args(["--trace-out", &format!("{dir}/trace-{workload}-seed{}.json", cfg.seed)]);
    }
    // `output` waits for the child to end, so children never overlap.
    let output = match cmd.output() {
        Ok(output) => output,
        Err(e) => return crashed(format!("cannot start child: {e}")),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .last()
        .ok_or_else(|| "child printed nothing".to_string())
        .and_then(JsonValue::parse)
        .and_then(|v| ChildResult::from_json(&v));
    match parsed {
        Ok(result) if output.status.success() => result,
        Ok(_) => crashed(format!("child exited with {}", output.status)),
        Err(e) => crashed(format!(
            "child for {workload} gave no result ({e}; {}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )),
    }
}

fn pool(spec: &'static WorkloadSpec, rounds: &[ChildResult], cfg: &RunConfig) -> WorkloadReport {
    let samples: Vec<f64> = rounds.iter().flat_map(|r| r.samples_ms.iter().copied()).collect();
    let medians = |f: fn(&ChildResult) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mut report = WorkloadReport {
        spec,
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        errors: rounds.iter().flat_map(|r| r.errors.iter().cloned()).take(5).collect(),
        samples: samples.len(),
        wall_p50_ms: median(
            &rounds.iter().flat_map(|r| r.wall_ms.iter().copied()).collect::<Vec<_>>(),
        ),
        units: rounds.iter().map(|r| r.units).max().unwrap_or(0),
        threads: rounds.iter().map(|r| r.threads).max().unwrap_or(0),
        input_checksum: rounds.first().map_or(0, |r| r.input_checksum),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    if rounds.iter().any(|r| r.input_checksum != report.input_checksum) {
        report.failed += 1;
        report.errors.push("rounds generated different inputs from the same seed".into());
    }
    if cfg.trace {
        let layer = rounds.first().map(|r| r.layer.as_slice()).unwrap_or_default();
        report.per_layer = PER_LAYER
            .iter()
            .map(|m| (m.name, layer.iter().find(|(k, _)| k == m.name).map_or(0.0, |(_, v)| *v)))
            .map(|(name, value)| (name, if value.is_finite() { value } else { 0.0 }))
            .collect();
        if rounds.iter().any(|r| r.decomposition_checked == Some(false)) {
            report.failed += 1;
            report
                .errors
                .push("no input was run both through the entry point and as traced stages".into());
        }
    } else {
        // A tail percentile needs a tail; the 3-iteration quick mode has
        // none and reports its slowest sample instead.
        let p80 = percentile(&samples, 80.0)
            .unwrap_or_else(|_| samples.iter().copied().fold(f64::NAN, f64::max));
        let total_s: f64 = samples.iter().sum::<f64>() / 1e3;
        report.end_to_end = vec![
            ("setup_s", medians(|r| r.setup_s)),
            ("iter_p50_ms", median(&samples)),
            ("iter_p80_ms", p80),
            ("throughput_ups", report.units as f64 * samples.len() as f64 / total_s),
            ("peak_rss_mb", medians(|r| r.peak_rss_mb)),
        ];
        debug_assert!(report.end_to_end.iter().map(|m| m.0).eq(END_TO_END.iter().map(|m| m.name)));
    }
    report
}

/// Run the configured workloads and return their reports, in run order.
pub fn run(cfg: &RunConfig) -> Result<Vec<WorkloadReport>, String> {
    let specs: Vec<&'static WorkloadSpec> = cfg
        .workloads
        .iter()
        .map(|name| spec::workload(name).ok_or(format!("unknown workload '{name}'")))
        .collect::<Result<_, _>>()?;
    let rounds = if cfg.quick || cfg.trace { 1 } else { ROUNDS };
    let mut results: Vec<Vec<ChildResult>> = vec![Vec::new(); specs.len()];
    for _round in 0..rounds {
        for (slot, spec) in specs.iter().enumerate() {
            results[slot].push(spawn_child(cfg, spec.name, rounds));
        }
    }
    Ok(specs.iter().zip(&results).map(|(spec, rounds)| pool(spec, rounds, cfg)).collect())
}

fn metric_spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Print every metric of every report by name, with its unit.
pub fn print_reports(reports: &[WorkloadReport]) {
    for r in reports {
        println!(
            "== {} ({} x{} per iteration; {} samples, {} threads, inputs {:016x})",
            r.spec.name, r.spec.unit, r.units, r.samples, r.threads, r.input_checksum
        );
        for (name, value) in r.end_to_end.iter().chain(&r.per_layer) {
            let unit = metric_spec(name).map_or("", |m| m.unit);
            println!("  {name:<32} {value:>18.6} {unit}");
        }
        println!(
            "  {:<32} {:>18.6} ratio ({} failed of {} attempted)",
            "failed_frac",
            r.failed_frac(),
            r.failed,
            r.attempted
        );
        for e in &r.errors {
            println!("  ! {e}");
        }
    }
}

fn metrics_json(metrics: &[(&'static str, f64)]) -> JsonValue {
    JsonValue::Object(
        metrics
            .iter()
            .map(|(name, value)| {
                let unit = metric_spec(name).map_or("", |m| m.unit);
                (
                    name.to_string(),
                    JsonValue::object([
                        ("value", JsonValue::Num(*value)),
                        ("unit", JsonValue::str(unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The last line of a single-workload run: exactly the keys the driver
/// reads, with counts as whole numbers and values with all their digits.
pub fn contract_line(r: &WorkloadReport) -> String {
    let metrics = if r.per_layer.is_empty() { &r.end_to_end } else { &r.per_layer };
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = metric_spec(name).map_or("", |m| m.unit);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The result document written by `--out` and read by `compare`.
pub fn results_json(cfg: &RunConfig, reports: &[WorkloadReport]) -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workloads = reports
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("unit", JsonValue::str(r.spec.unit)),
                ("units_per_iteration", JsonValue::num(r.units as f64)),
                ("attempted", JsonValue::num(r.attempted as f64)),
                ("failed", JsonValue::num(r.failed as f64)),
                ("failed_frac", JsonValue::Num(r.failed_frac())),
                ("samples", JsonValue::num(r.samples as f64)),
                ("wall_p50_ms", JsonValue::Num(r.wall_p50_ms)),
                ("input_checksum", JsonValue::str(format!("{:016x}", r.input_checksum))),
            ];
            if !r.end_to_end.is_empty() {
                fields.push(("end_to_end", metrics_json(&r.end_to_end)));
            }
            if !r.per_layer.is_empty() {
                fields.push(("per_layer", metrics_json(&r.per_layer)));
            }
            (r.spec.name.to_string(), JsonValue::object(fields))
        })
        .collect();
    JsonValue::object([
        ("benchmark", JsonValue::str("koala-benchmark")),
        ("seed", JsonValue::num(cfg.seed as f64)),
        ("seconds", JsonValue::Num(cfg.seconds)),
        ("rounds", JsonValue::num(if cfg.quick || cfg.trace { 1.0 } else { ROUNDS as f64 })),
        ("trace", JsonValue::Bool(cfg.trace)),
        ("quick", JsonValue::Bool(cfg.quick)),
        (
            "host",
            JsonValue::object([
                ("nproc", JsonValue::num(nproc as f64)),
                ("cpu_model", JsonValue::str(cpu_model())),
                (
                    "exec_threads",
                    JsonValue::num(reports.iter().map(|r| r.threads).max().unwrap_or(0) as f64),
                ),
            ]),
        ),
        ("workloads", JsonValue::Object(workloads)),
    ])
}

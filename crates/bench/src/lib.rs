//! # koala-bench
//!
//! Benchmark and figure-reproduction harness for the koala-rs workspace.
//! Every `bin/` target regenerates one table or figure of the source paper's
//! evaluation section (*"Efficient 2D Tensor Network Simulation of Quantum
//! Systems"*, SC 2020) or records a kernel-level perf series; this library
//! crate holds the small amount of shared plumbing ([`BenchArgs`] CLI
//! parsing, [`Figure`]/[`Series`]/[`Point`] result containers, timing and
//! slope-fitting helpers, and the cost-model calibration loader
//! ([`calibrated_cost_model`])).
//!
//! ## Binary targets and what each reproduces
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table2_complexity` | Table II — empirical scaling exponents of update / contraction kernels |
//! | `fig7_evolution` | Figure 7 — evolution step time vs bond dimension (update flavours) |
//! | `fig8_contraction` | Figure 8 — contraction time/error vs boundary bond dimension |
//! | `fig9_caching` | Figure 9 — row-environment caching speedup, plus a koala-rs-specific cached-vs-cleared einsum-planner overhead series |
//! | `fig10_rqc_error` | Figure 10 — random-quantum-circuit amplitude error vs truncation |
//! | `fig11_strong_scaling` | Figure 11 — strong scaling over the simulated cluster backend |
//! | `fig12_weak_scaling` | Figure 12 — weak scaling: useful GFLOP/s per core under the cost model |
//! | `fig13_ite` | Figure 13 — imaginary-time-evolution energy curves (J1-J2 / TFI) |
//! | `fig14_vqe` | Figure 14 — VQE optimisation traces on the TFI model |
//! | `bench_gemm` | (koala-rs addition) GEMM perf trajectory: `packed_vs_seed` and `real_vs_complex` series, committed as `BENCH_gemm.json` |
//!
//! Conventions shared by all binaries:
//!
//! * `--quick` (or `KOALA_QUICK=1`) runs a reduced sweep — CI uses this for
//!   its smoke runs; `--full` forces the full sweep.
//! * `--json <path>` additionally dumps the series as JSON.
//! * Flop-derived numbers come from the GEMM layer's own work accounting
//!   ([`koala_exec::WorkMeter`]: 8 real flops per complex MAC, 2 per real
//!   MAC) — never from a formula duplicated in a binary.
//!
//! ## Why a hand-rolled JSON emitter?
//!
//! The build environment cannot fetch `serde`/`serde_json`. The shared
//! `koala-json` crate provides a minimal value model with a stable
//! pretty-printer and parser ([`koala_json::JsonValue`]); its output shape
//! matches the old serde output so
//! downstream tooling keeps parsing it, and `koala-cluster` reads the same
//! dialect back when calibrating its cost model from `BENCH_gemm.json`.

#![warn(missing_docs)]

use std::time::Instant;

/// Command-line options shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Run a reduced parameter sweep (also enabled by the `KOALA_QUICK=1`
    /// environment variable).
    pub quick: bool,
    /// Optional JSON output path.
    pub json: Option<String>,
}

impl BenchArgs {
    /// Parse `--quick` / `--full` / `--json <path>` from `std::env::args`.
    pub fn parse() -> Self {
        let mut quick = std::env::var("KOALA_QUICK").map(|v| v != "0").unwrap_or(false);
        let mut json = None;
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => quick = true,
                "--full" => quick = false,
                "--json" => {
                    if i + 1 < args.len() {
                        json = Some(args[i + 1].clone());
                        i += 1;
                    }
                }
                other => eprintln!("ignoring unknown argument: {other}"),
            }
            i += 1;
        }
        BenchArgs { quick, json }
    }
}

/// One measured point of a benchmark series.
#[derive(Debug, Clone)]
pub struct Point {
    /// The swept parameter (bond dimension, side length, cores, step, ...).
    pub x: f64,
    /// The measured value (seconds, error, energy, GF/s, ...).
    pub y: f64,
}

/// A named series of measurements (one curve of a figure).
#[derive(Debug, Clone)]
pub struct Series {
    /// Curve label (matches the paper's legend where possible).
    pub label: String,
    /// Measured points.
    pub points: Vec<Point>,
}

impl Series {
    /// Create an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series { label: label.into(), points: Vec::new() }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(Point { x, y });
    }
}

/// A full figure: a title, an x-axis meaning, and a set of curves.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure identifier, e.g. "fig8a".
    pub id: String,
    /// Human-readable description.
    pub title: String,
    /// Meaning of the x axis.
    pub x_label: String,
    /// Meaning of the y axis.
    pub y_label: String,
    /// The measured curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Create an empty figure.
    pub fn new(id: &str, title: &str, x_label: &str, y_label: &str) -> Self {
        Figure {
            id: id.to_string(),
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            series: Vec::new(),
        }
    }

    /// Add a series.
    pub fn add(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Print the figure as an aligned text table.
    pub fn print(&self) {
        println!("\n=== {} — {} ===", self.id, self.title);
        println!("{:>12} | {}", self.x_label, self.y_label);
        for s in &self.series {
            println!("--- {} ---", s.label);
            for p in &s.points {
                println!("{:>12.4} | {:.6e}", p.x, p.y);
            }
        }
    }

    /// Render the figure as pretty-printed JSON (same shape as the old
    /// serde output, kept stable for downstream tooling).
    pub fn to_json(&self) -> String {
        use koala_json::JsonValue;
        let series: Vec<JsonValue> = self
            .series
            .iter()
            .map(|s| {
                let points: Vec<JsonValue> = s
                    .points
                    .iter()
                    .map(|p| {
                        JsonValue::object([("x", JsonValue::num(p.x)), ("y", JsonValue::num(p.y))])
                    })
                    .collect();
                JsonValue::object([
                    ("label", JsonValue::str(&s.label)),
                    ("points", JsonValue::Array(points)),
                ])
            })
            .collect();
        JsonValue::object([
            ("id", JsonValue::str(&self.id)),
            ("title", JsonValue::str(&self.title)),
            ("x_label", JsonValue::str(&self.x_label)),
            ("y_label", JsonValue::str(&self.y_label)),
            ("series", JsonValue::Array(series)),
        ])
        .pretty()
    }

    /// Write the figure as JSON if a path was requested.
    pub fn maybe_write_json(&self, args: &BenchArgs) {
        if let Some(path) = &args.json {
            if let Err(e) = std::fs::write(path, self.to_json()) {
                eprintln!("failed to write {path}: {e}");
            } else {
                println!("wrote {path}");
            }
        }
    }
}

/// Build the cluster cost model calibrated from the committed
/// `BENCH_gemm.json` (searched in the current directory, then at the
/// workspace root relative to this crate), falling back to
/// [`koala_cluster::CostModel::default`] with a warning when the file is
/// missing or unusable.
///
/// Every figure binary that converts [`koala_cluster::CommStats`] into
/// modelled times goes through this helper, so the scaling figures price
/// per-rank work at the GFLOP/s the packed kernels actually sustain on the
/// machine that produced the committed baseline (complex rate from the
/// `packed_vs_seed` series, real rate from `real_vs_complex`; see
/// [`koala_cluster::CostModel::from_bench`]).
pub fn calibrated_cost_model() -> koala_cluster::CostModel {
    let candidates =
        ["BENCH_gemm.json", concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json")];
    for path in candidates {
        let Ok(text) = std::fs::read_to_string(path) else { continue };
        match koala_cluster::CostModel::from_bench(&text) {
            Ok(model) => {
                println!(
                    "cost model calibrated from {path}: complex {:.2} GF/s, real {:.2} GF/s per rank",
                    model.complex_peak_flops() / 1e9,
                    model.real_peak_flops() / 1e9
                );
                return model;
            }
            Err(e) => eprintln!("cost model: {path} unusable ({e}); trying next candidate"),
        }
    }
    eprintln!("cost model: no usable BENCH_gemm.json found, using uncalibrated defaults");
    koala_cluster::CostModel::default()
}

/// Time a closure, returning `(result, seconds)`.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Least-squares slope of `log(y)` vs `log(x)` — used to report empirical
/// scaling exponents for the Table II reproduction.
pub fn log_log_slope(points: &[Point]) -> f64 {
    let pts: Vec<(f64, f64)> =
        points.iter().filter(|p| p.x > 0.0 && p.y > 0.0).map(|p| (p.x.ln(), p.y.ln())).collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_log_slope_of_power_law() {
        let mut s = Series::new("cubic");
        for x in [1.0f64, 2.0, 4.0, 8.0] {
            s.push(x, 5.0 * x.powi(3));
        }
        let slope = log_log_slope(&s.points);
        assert!((slope - 3.0).abs() < 1e-9);
    }

    #[test]
    fn figure_roundtrip_and_timer() {
        let mut fig = Figure::new("t", "test", "x", "y");
        let mut s = Series::new("a");
        s.push(1.0, 2.0);
        fig.add(s);
        assert_eq!(fig.series.len(), 1);
        let (v, secs) = time_it(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}

//! # koala-bench
//!
//! The CI gates and cost-model sweeps of the koala-rs workspace. The
//! workload numbers of the source paper's evaluation section (*"Efficient 2D
//! Tensor Network Simulation of Quantum Systems"*, SC 2020) live in
//! `benchmark/`; a binary stays here only if it gates or persists something
//! `benchmark/` does not. This library crate holds what the binaries share:
//! the [`quick`] flag, the [`Figure`]/[`Series`]/[`Point`] result tables,
//! the one threads-must-pay timer ([`threads_must_pay`]), the one
//! distributed sweep point of Figs. 11 and 12 ([`dist_sweep_point`]) and the
//! cost-model calibration loader ([`calibrated_cost_model`]).
//!
//! ## Binary targets and what each gates or persists
//!
//! | Binary | Reproduces | Gates / persists |
//! |---|---|---|
//! | `fig7_evolution` | Figure 7 — one TEBD layer vs bond dimension, local and on a virtual cluster | threads must pay |
//! | `fig8_contraction` | Figure 8 — contraction time vs boundary bond dimension | threads must pay |
//! | `fig9_caching` | Figure 9 — row-environment caching speedup | cache must pay, threads must pay |
//! | `fig10_rqc_error` | Figure 10 — random-quantum-circuit amplitude error vs truncation | threads must pay |
//! | `fig11_strong_scaling` | Figure 11 — strong scaling over the simulated cluster backend | the `CostModel`/SUMMA strong-scaling sweep |
//! | `fig12_weak_scaling` | Figure 12 — weak scaling: useful GFLOP/s per core under the cost model | the `CostModel`/SUMMA weak-scaling sweep |
//! | `bench_gemm` | (koala-rs addition) GEMM perf trajectory: `packed_vs_seed` and `real_vs_complex` series | persists `BENCH_gemm.json` |
//! | `check_bench` | (koala-rs addition) compares a `bench_gemm` run with `BENCH_gemm.json` | the GEMM perf gate |
//!
//! Table II's per-kernel costs are the per-layer split of `benchmark/`; the
//! ITE and VQE studies of Figures 13 and 14 are `examples/ite_ground_state.rs`
//! and `examples/vqe_tfi.rs`.
//!
//! Conventions shared by the figure binaries:
//!
//! * `--quick` runs a reduced sweep and arms the gates; CI passes it.
//! * Flop-derived numbers come from the GEMM layer's own work accounting
//!   ([`koala_exec::WorkMeter`]: 8 real flops per complex MAC, 2 per real
//!   MAC) — never from a formula duplicated in a binary.

#![warn(missing_docs)]

use std::time::Instant;

use koala_cluster::{Cluster, CommStats, DistMatrix};
use koala_linalg::{c64, expm_hermitian, Matrix};
use koala_peps::operators::{kron, pauli_x, pauli_z};
use koala_peps::{
    dist_contract_no_phys, dist_tebd_layer, ContractionMethod, DistEvolutionVariant, Peps,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Whether `--quick` was passed: run the reduced sweep and arm the gates.
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
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

/// The threads-must-pay rule: a gate fails only on a `--quick` run on a
/// host with two or more CPUs and a pool of two or more threads, when the
/// threaded run is not faster than the serial one. Elsewhere it passes: on
/// one CPU or one pool thread the threads cannot win, and a full run only
/// reports.
pub fn threads_gate_fails(
    quick: bool,
    host_cpus: usize,
    pool_threads: usize,
    serial_s: f64,
    threaded_s: f64,
) -> bool {
    quick && host_cpus >= 2 && pool_threads >= 2 && threaded_s >= serial_s
}

/// Best-of wall times of one workload on one executor thread and on the
/// pool's default, and the verdict of the threads-must-pay rule on them.
#[derive(Debug, Clone, Copy)]
pub struct ThreadsTiming {
    /// Best time on one executor thread, in seconds.
    pub serial_s: f64,
    /// Best time on [`koala_exec::default_threads`] executor threads.
    pub threaded_s: f64,
    /// Whether the gate passes ([`threads_gate_fails`] is false).
    pub pays: bool,
}

/// Time `run` on one executor thread and on [`koala_exec::default_threads`],
/// print one line naming `label`, and judge the pair by
/// [`threads_gate_fails`].
///
/// The two thread counts alternate round by round: on a shared host the
/// second core comes and goes, and alternating gives both the same chances.
/// Round 0 warms the plan caches and is not timed; each side keeps the best
/// of the next ten. The pool is left at its default.
pub fn threads_must_pay(label: &str, quick: bool, mut run: impl FnMut()) -> ThreadsTiming {
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pool_threads = koala_exec::default_threads();
    let mut best = [f64::INFINITY; 2];
    for round in 0..11 {
        for (side, threads) in [1, pool_threads].into_iter().enumerate() {
            koala_exec::set_threads(threads);
            let secs = time_it(&mut run).1;
            if round > 0 {
                best[side] = best[side].min(secs);
            }
        }
    }
    let [serial_s, threaded_s] = best;
    println!(
        "host_cpus={host_cpus} {label}: {threaded_s:.4}s at {pool_threads} threads, \
         {serial_s:.4}s at 1 (speed-up {:.2}x)",
        serial_s / threaded_s.max(1e-12)
    );
    let pays = !threads_gate_fails(quick, host_cpus, pool_threads, serial_s, threaded_s);
    ThreadsTiming { serial_s, threaded_s, pays }
}

/// The two-site TEBD gate of Figs. 7, 11 and 12: `exp(-0.05 (XX + ZZ))`.
pub fn tebd_gate() -> Matrix {
    let h = &kron(&pauli_x(), &pauli_x()) + &kron(&pauli_z(), &pauli_z());
    expm_hermitian(&h, c64(-0.05, 0.0)).expect("the TEBD generator is Hermitian")
}

/// The communication counters of the three distributed workloads of one
/// Fig. 11/12 sweep point.
#[derive(Debug, Clone)]
pub struct DistStats {
    /// One `LocalGramQrSvd` TEBD layer.
    pub evolution: CommStats,
    /// One IBMPS contraction without physical indices.
    pub contraction: CommStats,
    /// One block-cyclic SUMMA GEMM (the scatter is not counted).
    pub summa: CommStats,
}

/// Run the distributed workloads of Figs. 11 and 12 at `ranks` virtual
/// ranks, each on a fresh cluster, drawing every random input from one
/// generator seeded with `seed`, in this order:
///
/// * a `side x side` PEPS of bond `r_evo`, then one `LocalGramQrSvd` TEBD
///   layer of [`tebd_gate`] at bond `r_evo`;
/// * a `side x side` PEPS of bond `m_con` without physical indices, then its
///   IBMPS contraction at boundary bond `m_con`;
/// * two `n_gemm x n_gemm` matrices, scattered block-cyclically on the
///   cluster's near-square grid, then their SUMMA product. The block size
///   shrinks with the grid so every grid row and column owns at least one
///   block; otherwise the largest grids would leave whole rank rows idle
///   and measure a smaller effective grid.
pub fn dist_sweep_point(
    ranks: usize,
    side: usize,
    r_evo: usize,
    m_con: usize,
    n_gemm: usize,
    seed: u64,
) -> DistStats {
    let mut rng = StdRng::seed_from_u64(seed);

    let mut peps = Peps::random(side, side, 2, r_evo, &mut rng);
    let cluster = Cluster::new(ranks);
    dist_tebd_layer(&cluster, &mut peps, &tebd_gate(), r_evo, DistEvolutionVariant::LocalGramQrSvd)
        .expect("fault-free TEBD layer cannot fail");
    let evolution = cluster.stats();

    let peps = Peps::random_no_phys(side, side, m_con, &mut rng);
    let cluster = Cluster::new(ranks);
    dist_contract_no_phys(&cluster, &peps, ContractionMethod::ibmps(m_con), &mut rng)
        .expect("fault-free contraction cannot fail");
    let contraction = cluster.stats();

    let a = Matrix::random(n_gemm, n_gemm, &mut rng);
    let b = Matrix::random(n_gemm, n_gemm, &mut rng);
    let cluster = Cluster::new(ranks);
    let grid = cluster.grid();
    let row_block = n_gemm.div_ceil(grid.rows()).clamp(1, 32);
    let col_block = n_gemm.div_ceil(grid.cols()).clamp(1, 32);
    let da = DistMatrix::scatter_block_cyclic(&cluster, &a, grid, row_block, col_block);
    let db = DistMatrix::scatter_block_cyclic(&cluster, &b, grid, row_block, col_block);
    cluster.reset_stats();
    da.matmul_dist(&db).expect("fault-free SUMMA cannot fail");
    let summa = cluster.stats();

    DistStats { evolution, contraction, summa }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn threads_gate_passes_where_threads_cannot_win() {
        // A slower threaded run passes on one CPU, on a one-thread pool and
        // without --quick.
        assert!(!threads_gate_fails(true, 1, 2, 1.0, 2.0));
        assert!(!threads_gate_fails(true, 2, 1, 1.0, 2.0));
        assert!(!threads_gate_fails(false, 2, 2, 1.0, 2.0));
    }

    #[test]
    fn threads_gate_fails_exactly_when_threads_do_not_win() {
        for cpus in [2, 4] {
            assert!(!threads_gate_fails(true, cpus, cpus, 1.0, 0.5));
            assert!(threads_gate_fails(true, cpus, cpus, 1.0, 1.0));
            assert!(threads_gate_fails(true, cpus, cpus, 1.0, 1.5));
        }
    }
}

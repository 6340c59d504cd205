//! Figure 11: strong scaling of PEPS evolution (one TEBD layer) and a SUMMA
//! distributed GEMM as the number of cores grows, with the problem size held
//! fixed.
//!
//! The virtual cluster executes on one machine, so each workload's curve is
//! the *predicted* parallel time: per-rank work and communication counters,
//! priced by the cost model calibrated from the committed `BENCH_gemm.json`
//! ([`koala_bench::calibrated_cost_model`]). Every communication counter
//! comes from a transfer the run makes: the evolution runs the
//! `LocalGramQrSvd` variant (site scatters, Gram allreduces, recombination
//! GEMMs on the row blocks), and SUMMA broadcasts real panels. Only the
//! replicated small steps (the Gram factors and the local einsumsvd) bill
//! their MACs from shapes, once per rank. Every predicted curve is paired with
//! its *ideal* curve (the one-rank prediction divided by the rank count), so
//! the gap shows exactly where communication, latency, and load imbalance
//! leave the ideal-speedup line — the comparison the paper's Figure 11 makes
//! against its own linear-scaling guides. The paper's contraction curve is
//! not reproduced: the library has no distributed boundary contraction.
//!
//! At these sizes the evolution curve is latency-bound: it measures the
//! per-update message latency, not the work, so the paper's evolution
//! strong scaling is not reproduced. The predicted layer time *grows* with
//! the rank count: 0.094 ms at 1 rank to 4.4 ms at 16 under `--quick`
//! (4x4, r = 4), and 2.0 ms at 1 rank to 45.9 ms at 64 at full size (6x6,
//! r = 6), while the max-rank flops fall 10.6x (7.29e6 to 6.88e5). The
//! compute-critical-path series is the one that scales.

use koala_bench::{calibrated_cost_model, dist_sweep_point, DistStats, Figure, Series};
use koala_cluster::ProcGrid;

/// Append the `t(1)/P` ideal-scaling curve derived from a predicted series.
fn ideal_of(predicted: &Series, label: &str) -> Series {
    let mut ideal = Series::new(label);
    if let Some(first) = predicted.points.first() {
        let t1 = first.y * first.x; // normalise in case the series starts at P > 1
        for p in &predicted.points {
            ideal.push(p.x, t1 / p.x);
        }
    }
    ideal
}

fn main() {
    let quick = koala_bench::quick();
    let (side, r_evo): (usize, usize) = if quick { (4, 4) } else { (6, 6) };
    let n_gemm: usize = if quick { 96 } else { 192 };
    let rank_counts: Vec<usize> =
        if quick { vec![1, 2, 4, 8, 16] } else { vec![1, 2, 4, 8, 16, 32, 64] };
    let model = calibrated_cost_model();

    let mut fig = Figure::new(
        "fig11",
        &format!(
            "Strong scaling on a {side}x{side} PEPS (evolution r={r_evo}) \
             and a {n_gemm}x{n_gemm} SUMMA GEMM, calibrated cost model"
        ),
        "virtual ranks (cores)",
        "predicted parallel time (seconds)",
    );
    let mut evo =
        Series::new(format!("Evolution: {side}x{side}, r = {r_evo} (predicted, latency-bound)"));
    let mut summa = Series::new(format!("SUMMA GEMM: n = {n_gemm} (predicted, serialized)"));
    // The overlap-aware model prices round k+1's panel broadcasts as hidden
    // behind round k's local GEMM (max(comm, compute) per round plus the
    // pipeline fill), so its curve bends below the serialized prediction
    // wherever the rounds are compute-bound.
    let mut summa_overlap =
        Series::new(format!("SUMMA GEMM: n = {n_gemm} (predicted, comm/compute overlap)"));
    // The compute critical path (max per-rank complex MACs) isolates how well
    // the work itself strong-scales, independent of the latency floor that
    // dominates laptop-sized problems.
    let mut evo_compute = Series::new("Evolution: compute critical path (max rank flops)");

    for &ranks in &rank_counts {
        let DistStats { evolution, summa: gemm } =
            dist_sweep_point(ranks, side, r_evo, n_gemm, 11_000 + ranks as u64);
        let t_evo = model.modelled_time(&evolution);
        evo.push(ranks as f64, t_evo);
        evo_compute.push(ranks as f64, evolution.max_rank_flops() as f64);
        let t_summa = model.modelled_time(&gemm);
        summa.push(ranks as f64, t_summa);
        let t_summa_ov = model.modelled_time_overlap(&gemm);
        summa_overlap.push(ranks as f64, t_summa_ov);

        let grid = ProcGrid::square_for(ranks);
        println!(
            "ranks={ranks:<3} evolution: t={t_evo:.4}s max_flops={:.3e} imbalance={:.2} | \
             summa({}x{} grid): t={t_summa:.6}s overlap={t_summa_ov:.6}s comm={:.3} MB",
            evolution.max_rank_flops() as f64,
            evolution.load_imbalance(),
            grid.rows(),
            grid.cols(),
            gemm.bytes_communicated as f64 / 1e6,
        );
    }

    let evo_ideal = ideal_of(&evo, "Evolution: ideal scaling (t1 / P)");
    let summa_ideal = ideal_of(&summa, "SUMMA GEMM: ideal scaling (t1 / P)");
    fig.add(evo);
    fig.add(evo_ideal);
    fig.add(summa);
    fig.add(summa_overlap);
    fig.add(summa_ideal);
    fig.add(evo_compute);
    fig.print();
}

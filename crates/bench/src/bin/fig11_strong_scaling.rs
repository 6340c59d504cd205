//! Figure 11: strong scaling of PEPS evolution (one TEBD layer), PEPS
//! contraction (IBMPS, no physical indices), and a SUMMA distributed GEMM as
//! the number of cores grows, with the problem size held fixed.
//!
//! The virtual cluster executes on one machine, so each workload's curve is
//! the *predicted* parallel time: per-rank work and communication counters
//! measured from real data movement, priced by the cost model calibrated
//! from the committed `BENCH_gemm.json`
//! ([`koala_bench::calibrated_cost_model`]). Every predicted curve is paired
//! with its *ideal* curve (the one-rank prediction divided by the rank
//! count), so the gap shows exactly where communication, latency, and load
//! imbalance leave the ideal-speedup line — the comparison the paper's
//! Figure 11 makes against its own linear-scaling guides.

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
    let (side, r_evo, r_con): (usize, usize, usize) = if quick { (4, 4, 6) } else { (6, 6, 8) };
    let n_gemm: usize = if quick { 96 } else { 192 };
    let rank_counts: Vec<usize> =
        if quick { vec![1, 2, 4, 8, 16] } else { vec![1, 2, 4, 8, 16, 32, 64] };
    let model = calibrated_cost_model();

    let mut fig = Figure::new(
        "fig11",
        &format!(
            "Strong scaling on a {side}x{side} PEPS (evolution r={r_evo}, contraction r=m={r_con}) \
             and a {n_gemm}x{n_gemm} SUMMA GEMM, calibrated cost model"
        ),
        "virtual ranks (cores)",
        "predicted parallel time (seconds)",
    );
    let mut evo = Series::new(format!("Evolution: {side}x{side}, r = {r_evo} (predicted)"));
    let mut con = Series::new(format!("Contraction: {side}x{side}, r = {r_con} (predicted)"));
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
    let mut con_compute = Series::new("Contraction: compute critical path (max rank flops)");

    for &ranks in &rank_counts {
        let DistStats { evolution, contraction, summa: gemm } =
            dist_sweep_point(ranks, side, r_evo, r_con, n_gemm, 11_000 + ranks as u64);
        let t_evo = model.modelled_time(&evolution);
        evo.push(ranks as f64, t_evo);
        let t_con = model.modelled_time(&contraction);
        con.push(ranks as f64, t_con);
        evo_compute.push(ranks as f64, evolution.max_rank_flops() as f64);
        con_compute.push(ranks as f64, contraction.max_rank_flops() as f64);
        let t_summa = model.modelled_time(&gemm);
        summa.push(ranks as f64, t_summa);
        let t_summa_ov = model.modelled_time_overlap(&gemm);
        summa_overlap.push(ranks as f64, t_summa_ov);

        let grid = ProcGrid::square_for(ranks);
        println!(
            "ranks={ranks:<3} evolution: t={t_evo:.4}s max_flops={:.3e} imbalance={:.2} | \
             contraction: t={t_con:.4}s max_flops={:.3e} comm={:.2} MB | \
             summa({}x{} grid): t={t_summa:.6}s overlap={t_summa_ov:.6}s comm={:.3} MB",
            evolution.max_rank_flops() as f64,
            evolution.load_imbalance(),
            contraction.max_rank_flops() as f64,
            contraction.bytes_communicated as f64 / 1e6,
            grid.rows(),
            grid.cols(),
            gemm.bytes_communicated as f64 / 1e6,
        );
    }

    let evo_ideal = ideal_of(&evo, "Evolution: ideal scaling (t1 / P)");
    let con_ideal = ideal_of(&con, "Contraction: ideal scaling (t1 / P)");
    let summa_ideal = ideal_of(&summa, "SUMMA GEMM: ideal scaling (t1 / P)");
    fig.add(evo);
    fig.add(evo_ideal);
    fig.add(con);
    fig.add(con_ideal);
    fig.add(summa);
    fig.add(summa_overlap);
    fig.add(summa_ideal);
    fig.add(evo_compute);
    fig.add(con_compute);
    fig.print();
}

//! Figure 12: weak scaling — the bond dimension grows with the number of
//! ranks so the memory per rank stays roughly constant, and the reported
//! metric is the useful flop rate per core under the calibrated cluster cost
//! model ([`koala_bench::calibrated_cost_model`]).
//!
//! Paper setup: evolution bond dimensions r = 70..280 and contraction bond
//! dimensions m = 80..320 over 2^6..2^12 cores. Scaled-down default: the bond
//! dimension grows as ranks^(1/4) from a small base so a single machine can
//! execute every point. Each predicted curve is compared against the *ideal*
//! flat line — the calibrated per-rank kernel peak the cost model charges
//! for an all-complex workload — so the vertical gap is exactly the
//! communication + latency + imbalance overhead, mirroring how the paper
//! reads its Figure 12 against the machine peak.

use koala_bench::{calibrated_cost_model, dist_sweep_point, DistStats, Figure, Series};

fn main() {
    let quick = koala_bench::quick();
    let side = if quick { 4 } else { 6 };
    let rank_counts: Vec<usize> = if quick { vec![1, 4, 16] } else { vec![1, 4, 16, 64] };
    let (r_base, m_base) = (3usize, 4usize);
    let model = calibrated_cost_model();

    let mut fig = Figure::new(
        "fig12",
        &format!(
            "Weak scaling on a {side}x{side} PEPS (bond dimension grows with rank count), \
             calibrated cost model"
        ),
        "virtual ranks (cores)",
        "predicted useful Gflop/s per core",
    );
    let mut evo = Series::new("Evolution: scale r (predicted)");
    let mut con = Series::new("Contraction: scale m (predicted)");
    // Weak-scaled SUMMA GEMM (n ~ sqrt(ranks) keeps n^2/P per rank fixed),
    // rated by both communication models: the serialized rate pays every
    // panel broadcast on the critical path, the overlap-aware rate hides
    // round k+1's broadcast behind round k's GEMM, so its curve sits higher
    // and bends away as the grids grow.
    let mut summa = Series::new("SUMMA GEMM: scale n (predicted, serialized)");
    let mut summa_overlap = Series::new("SUMMA GEMM: scale n (predicted, comm/compute overlap)");
    let mut ideal = Series::new("Ideal: calibrated per-rank kernel peak");
    let peak_gflops = model.complex_peak_flops() / 1e9;
    let n_gemm_base = if quick { 48 } else { 96 };

    for &ranks in &rank_counts {
        // Per-rank memory of the dominant site tensors scales like r^4 / ranks,
        // so growing r ~ ranks^(1/4) keeps it constant; we use a slightly
        // faster growth to keep the points distinguishable at small scale.
        let scale = (ranks as f64).powf(0.25);
        let r = ((r_base as f64) * scale).round() as usize;
        let m = ((m_base as f64) * scale).round() as usize;

        let n_gemm = ((n_gemm_base as f64) * (ranks as f64).sqrt()).round() as usize;
        let DistStats { evolution, contraction, summa: gemm } =
            dist_sweep_point(ranks, side, r, m, n_gemm, 12_000 + ranks as u64);
        // flop_rate_per_rank already prices hardware flops (8 per complex
        // MAC, 2 per real MAC), directly comparable to bench_gemm's rates.
        let gflops_evo = model.flop_rate_per_rank(&evolution) / 1e9;
        evo.push(ranks as f64, gflops_evo);
        let gflops_con = model.flop_rate_per_rank(&contraction) / 1e9;
        con.push(ranks as f64, gflops_con);
        ideal.push(ranks as f64, peak_gflops);
        let gflops_summa = model.flop_rate_per_rank(&gemm) / 1e9;
        let gflops_summa_ov = model.flop_rate_per_rank_overlap(&gemm) / 1e9;
        summa.push(ranks as f64, gflops_summa);
        summa_overlap.push(ranks as f64, gflops_summa_ov);

        println!(
            "ranks={ranks:<3} r={r:<3} m={m:<3} evolution={gflops_evo:.3} Gflop/s/core \
             contraction={gflops_con:.3} Gflop/s/core \
             summa(n={n_gemm})={gflops_summa:.3}/{gflops_summa_ov:.3} Gflop/s/core \
             serialized/overlap (ideal peak {peak_gflops:.3})"
        );
    }

    fig.add(evo);
    fig.add(con);
    fig.add(summa);
    fig.add(summa_overlap);
    fig.add(ideal);
    fig.print();
}

//! Layer probes: public functions of the lower layers, called from outside
//! on operands built from a workload's live state, median of a few calls.

use crate::trace::Counters;
use koala_exec::{TaskGraph, TaskKind};
use koala_linalg::{eigh, gemm, qr, rsvd, svd, MatOp, Matrix, Op, RsvdOptions};
use koala_mps::{Mpo, Mps};
use koala_tensor::{
    contraction_plan, einsum, parse_spec, qr_split, svd_split, Plan, Tensor, Truncation,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Steps of the dependent integer chain behind [`clock_probe_ms`].
const CLOCK_CHAIN_STEPS: u64 = 200_000;

/// Time the calibration chain takes at the reference clock, in ms: what it
/// takes on the reference host in its usual state.
pub const REFERENCE_CHAIN_MS: f64 = 0.30;

/// Wall time in ms of a fixed chain of dependent xorshift-multiply steps: a
/// fixed number of core-clock cycles whatever else the machine does, so its
/// wall time is the reciprocal of the core clock right now.
///
/// The reference host's clock moves between about 0.8x and 1.3x of its usual
/// rate in phases of a second or more (no steal time shows in the guest),
/// and iteration times follow it in lockstep. Timing samples are therefore
/// rescaled to the reference clock by the chain time measured right before
/// and after them, which makes them cycle counts expressed in ms.
pub fn clock_probe_ms() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..CLOCK_CHAIN_STEPS {
        // Not affine, so the compiler cannot fold steps together.
        x ^= x >> 7;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// `wall_ms` rescaled to the reference clock, given the chain times measured
/// before and after it.
pub fn at_reference_clock(wall_ms: f64, chain_before_ms: f64, chain_after_ms: f64) -> f64 {
    wall_ms * REFERENCE_CHAIN_MS / (0.5 * (chain_before_ms + chain_after_ms))
}

/// Calls per probe; the median is reported.
pub const PROBE_REPS: usize = 5;

/// Named metric values produced by a traced run.
pub type Metrics = Vec<(&'static str, f64)>;

/// Median time in milliseconds of `PROBE_REPS` calls, after one untimed
/// warm-up call, at the reference clock.
pub fn time_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let chain_before = clock_probe_ms();
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    at_reference_clock(crate::stats::median(&samples), chain_before, clock_probe_ms())
}

/// The value of `name` among the metrics gathered so far, 0 if absent.
pub fn value(metrics: &Metrics, name: &str) -> f64 {
    metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1)
}

/// The QR side of one QR-SVD update on `site` (`[p, u, l, d, r]`, paired
/// downwards): the permute into `apply_two_site`'s canonical layout
/// `[p, u, l, r, bond]`, `qr_split` with the outer bonds as rows, and
/// `linalg::qr` of that matricization. Returns what an update pays for both
/// sites (2 splits, 4 permutes) in ms, and the site's R factor.
pub fn update_qr_side(out: &mut Metrics, site: &Tensor) -> Option<(f64, Tensor)> {
    let permute_ms = time_ms(|| site.permute(&[0, 1, 2, 4, 3]).map(|t| t.len()));
    let a = site.permute(&[0, 1, 2, 4, 3]).ok()?;
    let qr_split_ms = time_ms(|| qr_split(&a, &[1, 2, 3]).map(|(q, _)| q.len()));
    out.push(("tensor.permute_ms", permute_ms));
    out.push(("tensor.qr_split_ms", qr_split_ms));
    // qr_split matricizes rows = outer bonds, columns = (p, bond).
    let matrix = a.permute(&[1, 2, 3, 0, 4]).ok()?.unfold(3);
    linalg(out, None, Some(&matrix), None, None);
    let (_, r) = qr_split(&a, &[1, 2, 3]).ok()?;
    Some((2.0 * qr_split_ms + 4.0 * permute_ms, r))
}

/// `svd_split` of an update's theta `[ka, p, kb, p]` and `linalg::svd` of its
/// unfolding; returns the split's ms.
pub fn update_svd_side(out: &mut Metrics, theta: &Tensor, max_bond: usize) -> f64 {
    let trunc = Truncation::rank_and_tol(max_bond, 1e-14);
    let svd_split_ms = time_ms(|| svd_split(theta, &[0, 1], trunc).map(|f| f.s.len()));
    out.push(("tensor.svd_split_ms", svd_split_ms));
    linalg(out, Some(&theta.unfold(2)), None, None, None);
    svd_split_ms
}

/// Factorization probes at the given shapes. `rsvd` is `(matrix, rank)`.
pub fn linalg(
    out: &mut Metrics,
    svd_of: Option<&Matrix>,
    qr_of: Option<&Matrix>,
    rsvd_of: Option<(&Matrix, usize)>,
    eigh_of: Option<&Matrix>,
) {
    if let Some(m) = svd_of {
        let ms = time_ms(|| svd(m).map(|f| f.s.len()));
        // Nominal flops as in `bench_gemm`'s real_factorization series.
        let nominal = 8.0 * (m.nrows() * m.ncols() * m.nrows().min(m.ncols())) as f64;
        out.push(("linalg.svd_ms", ms));
        out.push(("linalg.svd_gflops", nominal / (ms * 1e-3) / 1e9));
    }
    if let Some(m) = qr_of {
        out.push(("linalg.qr_ms", time_ms(|| qr(m).r.nrows())));
    }
    if let Some((m, rank)) = rsvd_of {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let ms = time_ms(|| {
            rsvd(&MatOp::new(m), RsvdOptions::with_rank(rank), &mut rng).map(|f| f.s.len())
        });
        out.push(("linalg.rsvd_ms", ms));
    }
    if let Some(m) = eigh_of {
        out.push(("linalg.eigh_ms", time_ms(|| eigh(m).map(|e| e.values.len()))));
    }
}

/// Planner and einsum probes for one contraction of the workload: cold
/// planning (`Plan::build`, no cache), a warm cache lookup, and the einsum
/// itself on warm plans.
pub fn einsum_and_plan(out: &mut Metrics, spec: &str, operands: &[&Tensor]) {
    let Ok(parsed) = parse_spec(spec) else { return };
    let shapes: Vec<&[usize]> = operands.iter().map(|t| t.shape()).collect();
    out.push((
        "tensor.plan_cold_ms",
        time_ms(|| Plan::build(&parsed, &shapes).map(|p| p.num_steps())),
    ));
    let warm_ms = time_ms(|| {
        for _ in 0..1000 {
            black_box(contraction_plan(&parsed, &shapes).map(|p| p.num_steps()).ok());
        }
    });
    out.push(("tensor.plan_warm_us", warm_ms)); // ms per 1000 lookups = us per lookup
    out.push(("tensor.einsum_theta_ms", time_ms(|| einsum(spec, operands).map(|t| t.len()))));
}

/// The einsumsvd spec of one zip-up step: running tensor `[l, d, r_s, r_o]`,
/// MPS site `[r_s, p, r_s']`, MPO site `[r_o, p, d', r_o']`.
pub const ZIP_MERGE_SPEC: &str = "ldxy,xpt,ypqr->ldtqr";

/// What the lower layers account for inside one `zip_up(mps, mpo) -> out`
/// call, in ms: for every step of the sweep, the merge einsum and the
/// factorization of the merged tensor, timed on random operands of exactly
/// that step's shapes (all of which can be read off the public inputs and
/// the output). The explicit variant is charged `svd_split`; the implicit
/// one never forms the merged tensor, so an explicit `rsvd` of it stands in
/// and the result is an upper estimate.
pub fn zip_up_lower_ms(mps: &Mps, mpo: &Mpo, out: &Mps, max_bond: usize, implicit: bool) -> f64 {
    let mut rng = StdRng::seed_from_u64(0x21b);
    let real = mps.tensors().iter().chain(mpo.tensors()).all(Tensor::is_real);
    let mut total = 0.0;
    for i in 1..mps.len() {
        let (s, o, done) = (mps.tensor(i), mpo.tensor(i), out.tensor(i - 1));
        let shape = [done.dim(0), done.dim(1), s.dim(0), o.dim(0)];
        let v = if real {
            Tensor::random_real(&shape, &mut rng)
        } else {
            Tensor::random(&shape, &mut rng)
        };
        let Ok(merged) = einsum(ZIP_MERGE_SPEC, &[&v, s, o]) else { continue };
        total += time_ms(|| einsum(ZIP_MERGE_SPEC, &[&v, s, o]).map(|t| t.len()));
        total += if implicit {
            let theta = merged.unfold(2);
            time_ms(|| {
                rsvd(&MatOp::new(&theta), RsvdOptions::with_rank(max_bond), &mut rng)
                    .map(|f| f.s.len())
            })
        } else {
            let trunc = Truncation::rank_and_tol(max_bond, 1e-14);
            time_ms(|| svd_split(&merged, &[0, 1], trunc).map(|f| f.s.len()))
        };
    }
    total
}

/// GEMM peak of this host, this run: a 512^3 product on the complex and on
/// the real kernel, in hardware GFLOP/s (complex MAC = 8 flops, real = 2).
pub fn gemm_peaks() -> (f64, f64) {
    let n = 512;
    let mut rng = StdRng::seed_from_u64(512);
    let (a, b) = (Matrix::random(n, n, &mut rng), Matrix::random(n, n, &mut rng));
    let (ar, br) = (Matrix::random_real(n, n, &mut rng), Matrix::random_real(n, n, &mut rng));
    let macs = (n * n * n) as f64;
    let complex_ms = time_ms(|| gemm(Op::None, Op::None, &a, &b).nrows());
    let real_ms = time_ms(|| gemm(Op::None, Op::None, &ar, &br).nrows());
    (8.0 * macs / (complex_ms * 1e-3) / 1e9, 2.0 * macs / (real_ms * 1e-3) / 1e9)
}

/// Executor overhead: microseconds per task of 10 000 no-op tasks through
/// `TaskGraph::run`.
pub fn task_overhead_us() -> f64 {
    const TASKS: usize = 10_000;
    let ms = time_ms(|| {
        let mut graph = TaskGraph::new();
        for _ in 0..TASKS {
            graph.add(TaskKind::Other, &[], || Ok(()));
        }
        graph.run().is_ok()
    });
    ms * 1e3 / TASKS as f64
}

/// Share of an iteration's wall time its GEMM work would take at the
/// measured peaks: an upper bound on what any kernel change can save.
pub fn gemm_share(work: &Counters, iter_ms: f64, peaks: (f64, f64)) -> f64 {
    let seconds = 8.0 * work.complex_macs as f64 / (peaks.0 * 1e9)
        + 2.0 * work.real_macs as f64 / (peaks.1 * 1e9);
    seconds / (iter_ms * 1e-3)
}

/// `1 - (time the lower-layer probes account for) / (the layer's own time)`,
/// floored at 0: the share of a layer's call that is its own glue as far as
/// can be told from outside.
pub fn self_frac(layer_ms: f64, lower_layers_ms: f64) -> f64 {
    if layer_ms <= 0.0 {
        return 0.0;
    }
    (1.0 - lower_layers_ms / layer_ms).max(0.0)
}

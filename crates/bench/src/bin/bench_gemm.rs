//! GEMM kernel benchmark: packed kernel vs the retained seed kernel, plus the
//! real-valued fast path vs the split-complex kernel.
//!
//! Writes `BENCH_gemm.json` (override with `--json <path>`) with GFLOP/s for
//! a fixed shape grid, so the repository records a machine-readable perf
//! trajectory from PR 1 onward (the kernel is serial: one row per shape,
//! `threads: 1`, the key `check_bench` matches on). Every case seeds its
//! own RNG from a hash of `(series, label, shape)`, so the `--quick` CI run
//! and the committed full run factorize/multiply bit-identical matrices —
//! `check_bench` compares like for like. Three series are emitted:
//!
//! * `packed_vs_seed` — the packed split-complex kernel against the seed
//!   repository's blocked kernel on complex random data (the PR 1 speedup).
//! * `real_vs_complex` — the same shapes with purely real, hint-carrying
//!   operands (real-only dispatch) against genuinely complex operands
//!   (split-complex kernel). `speedup_real_vs_complex` is the wall-time
//!   ratio; equivalently the ratio of *effective* GFLOP/s, where both runs
//!   are credited the same `8 * m * n * k` real flops for solving the same
//!   problem. `hw_gflops` additionally reports the flops the hardware
//!   actually executed (2 per real MAC), which shows the real kernel trading
//!   arithmetic for memory-boundedness.
//! * `real_factorization` — the realness-preserving factorization paths
//!   (QR / QR-preconditioned Jacobi SVD / the leading-triplets SVD / eigh /
//!   Gram QR) on hint-carrying real matrices against the complex paths on
//!   the *same* (hint-laundered) data.
//!   `effective_gflops` (real) and `complex_effective_gflops` credit each
//!   run the same nominal `8 * m * n * min(m, n)` flops for solving the
//!   same problem, so their ratio equals the wall-time speedup and the CI
//!   gate can compare runs of either path.
//!
//! The document also says where it was recorded: `host_cpus`, `host_cpu`
//! (the `/proc/cpuinfo` model name, else `"unknown"`) and `microkernel`
//! (`"avx512f"` or `"portable"`: which register kernels the build compiled,
//! [`koala_linalg::MICROKERNEL`]).
//!
//! GFLOP/s are derived from the GEMM layer's own work accounting (a scoped
//! [`koala_exec::WorkMeter`]: complex MACs at 8 real flops each, real MACs
//! at 2), not from a formula duplicated here — so the numbers stay honest if
//! the kernel's dispatch or work accounting ever changes.
//!
//! Usage: `cargo run --release -p koala-bench --bin bench_gemm [--quick]
//! [--json <path>]`

use koala_exec::WorkMeter;
use koala_json::JsonValue;
use koala_linalg::{gemm, matmul, matmul_seed, Matrix, Op, MICROKERNEL};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One benchmarked configuration.
struct Case {
    m: usize,
    k: usize,
    n: usize,
    opa: Op,
    opb: Op,
    label: &'static str,
}

const fn case(m: usize, k: usize, n: usize, opa: Op, opb: Op, label: &'static str) -> Case {
    Case { m, k, n, opa, opb, label }
}

fn op_name(op: Op) -> &'static str {
    match op {
        Op::None => "N",
        Op::Adjoint => "H",
        Op::Transpose => "T",
    }
}

/// Deterministic per-case seed: FNV-1a over the series, label, and shape.
/// Seeding each case independently (instead of streaming one RNG through the
/// whole grid) makes the generated matrices identical no matter which grid
/// (`--quick` or full) a case appears in — the CI regression gate compares
/// timings of bit-identical inputs.
fn case_seed(series: &str, label: &str, dims: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    eat(series.as_bytes());
    eat(b"/");
    eat(label.as_bytes());
    for d in dims {
        eat(&d.to_le_bytes());
    }
    h
}

/// Best-of-`reps` wall time plus the (complex, real) MAC counts per run.
fn time_best(reps: usize, mut f: impl FnMut()) -> (f64, u64, u64) {
    f(); // warm-up
    let mut best = f64::INFINITY;
    let mut cmacs = 0;
    let mut rmacs = 0;
    for _ in 0..reps {
        let meter = WorkMeter::new();
        let t = Instant::now();
        meter.scope(&mut f);
        let secs = t.elapsed().as_secs_f64();
        cmacs = meter.complex_macs();
        rmacs = meter.real_macs();
        if secs < best {
            best = secs;
        }
    }
    (best, cmacs, rmacs)
}

/// The CPU model name from `/proc/cpuinfo`, or `"unknown"` where there is
/// none to read.
fn host_cpu() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name")?.split_once(':'))
                .map(|(_, name)| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The seed repository's GEMM path for this case: materialise transposed
/// operands (as the seed `gemm` did — and only those; `Op::None` operands
/// are used by reference so the baseline is not billed for copies the seed
/// code never made), then run the seed blocked kernel.
fn run_seed(case: &Case, a: &Matrix, b: &Matrix) -> Matrix {
    let a_eff;
    let a_ref = match case.opa {
        Op::None => a,
        Op::Adjoint => {
            a_eff = a.adjoint();
            &a_eff
        }
        Op::Transpose => {
            a_eff = a.transpose();
            &a_eff
        }
    };
    let b_eff;
    let b_ref = match case.opb {
        Op::None => b,
        Op::Adjoint => {
            b_eff = b.adjoint();
            &b_eff
        }
        Op::Transpose => {
            b_eff = b.transpose();
            &b_eff
        }
    };
    matmul_seed(a_ref, b_ref)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_gemm.json".to_string());

    let full_grid = [
        case(256, 256, 256, Op::None, Op::None, "square_256"),
        case(512, 512, 512, Op::None, Op::None, "square_512"),
        case(512, 512, 512, Op::Adjoint, Op::None, "square_512_adj_a"),
        case(512, 512, 512, Op::None, Op::Transpose, "square_512_t_b"),
        case(2048, 64, 64, Op::None, Op::None, "tall_skinny"),
        case(64, 64, 2048, Op::None, Op::None, "short_wide"),
        case(64, 2048, 64, Op::None, Op::None, "deep_k"),
    ];
    let quick_grid = [
        case(256, 256, 256, Op::None, Op::None, "square_256"),
        case(512, 512, 512, Op::None, Op::None, "square_512"),
    ];
    // Real-vs-complex sweep: plain and fused-transposition shapes, so the
    // real packers' fused gather is exercised too.
    let real_full_grid = [
        case(256, 256, 256, Op::None, Op::None, "square_256"),
        case(512, 512, 512, Op::None, Op::None, "square_512"),
        case(512, 512, 512, Op::Transpose, Op::None, "square_512_t_a"),
        case(2048, 64, 64, Op::None, Op::None, "tall_skinny"),
        case(64, 2048, 64, Op::None, Op::None, "deep_k"),
    ];
    let real_quick_grid = [
        case(256, 256, 256, Op::None, Op::None, "square_256"),
        case(512, 512, 512, Op::None, Op::None, "square_512"),
    ];
    let (grid, real_grid): (&[Case], &[Case]) =
        if quick { (&quick_grid, &real_quick_grid) } else { (&full_grid, &real_full_grid) };
    let reps = if quick { 3 } else { 7 };

    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mut results: Vec<JsonValue> = Vec::new();
    // Realness-preserving factorization paths vs the complex paths on the
    // same (hint-laundered) data. Factorizations are dominated by their
    // rotation/substitution inner loops rather than GEMM, so rates are
    // credited a fixed nominal `8 * m * n * min(m, n)` flops — the constant
    // cancels in the CI gate's ratio and the speedup is the wall-time ratio.
    //
    // This section runs FIRST: its small kernels are sensitive to allocator
    // and cache state left behind by the big GEMM grids, and those grids
    // differ between `--quick` and full runs — measuring from fresh process
    // state keeps the CI gate's quick run comparable to the committed full
    // baseline.
    println!();
    println!(
        "{:<18} {:>14} {:>9} {:>9} {:>9} {:>8}",
        "factorization", "shape", "real_s", "eff_GF/s", "cplx_s", "speedup"
    );
    let fact_grid: &[(&str, usize, usize)] = &[
        ("qr_tall", 384, 96),
        // A power-of-two column length, as tensor-network dimensions are:
        // its 8 KiB columns are the case the factorization buffer pads off
        // the 4 KiB alias (`koala_linalg`'s `lanes.rs`, "Storage").
        ("qr_tall_pow2", 1024, 32),
        ("svd_square", 96, 96),
        ("svd_wide", 64, 192),
        // The zip-up theta of `contract_bmps` and the rank-8 theta of
        // `rqc_amplitudes` (benchmark/): the shapes the QR-preconditioned
        // Jacobi was measured on.
        ("svd_wide_bmps", 49, 343),
        ("svd_rankdef", 32, 512),
        // The truncated splits those workloads make, on the leading route:
        // the `R`-factor theta of an `evolve_tebd` bond update kept to 8,
        // and the `contract_bmps` zip-up theta kept to 7.
        ("svd_leading_tebd", 32, 32),
        ("svd_leading_bmps", 49, 343),
        ("eigh", 96, 96),
    ];
    let fact_reps = 5;
    for &(label, m, n) in fact_grid {
        let mut rng = StdRng::seed_from_u64(case_seed("real_factorization", label, &[m, n]));
        let real = if label == "svd_rankdef" {
            matmul(&Matrix::random_real(m, 8, &mut rng), &Matrix::random_real(8, n, &mut rng))
        } else {
            Matrix::random_real(m, n, &mut rng)
        };
        // Identical numbers with the hint laundered away: the complex path
        // runs on the same matrix.
        let cplx = Matrix::from_vec(m, n, real.data().to_vec()).expect("launder");
        assert!(real.is_real() && !cplx.is_real());
        let (real_in, cplx_in) = if label == "eigh" {
            // Symmetrize for the eigensolver (stays real / laundered).
            let h = |a: &Matrix| {
                let mut h = Matrix::zeros(m, n);
                for i in 0..m {
                    for j in 0..n {
                        h[(i, j)] = (a[(i, j)] + a[(j, i)].conj()).scale(0.5);
                    }
                }
                h
            };
            let mut hr = h(&real);
            hr.mark_real_if_exact();
            (hr, h(&cplx))
        } else {
            (real, cplx)
        };
        let run = |input: &Matrix| match label {
            "qr_tall" | "qr_tall_pow2" => {
                let f = koala_linalg::qr(input);
                std::hint::black_box((f.q.nrows(), f.r.ncols()));
            }
            "svd_square" | "svd_wide" | "svd_wide_bmps" | "svd_rankdef" => {
                let f = koala_linalg::svd(input).expect("bench svd");
                std::hint::black_box(f.s.len());
            }
            "svd_leading_tebd" | "svd_leading_bmps" => {
                let keep = if m == 32 { 8 } else { 7 };
                let (f, _) =
                    koala_linalg::svd_leading(input, |_: &[f64]| keep).expect("bench svd_leading");
                std::hint::black_box(f.s.len());
            }
            "eigh" => {
                let e = koala_linalg::eigh(input).expect("bench eigh");
                std::hint::black_box(e.values.len());
            }
            _ => unreachable!("unknown factorization case"),
        };
        let (real_s, _, _) = time_best(fact_reps, || run(&real_in));
        let (cplx_s, _, _) = time_best(fact_reps, || run(&cplx_in));
        let nominal = 8.0 * (m * n * m.min(n)) as f64;
        let eff_gf = nominal / real_s / 1e9;
        let cplx_gf = nominal / cplx_s / 1e9;
        let speedup = cplx_s / real_s;
        println!(
            "{:<18} {:>14} {:>9.4} {:>9.2} {:>9.4} {:>7.2}x",
            label,
            format!("{m}x{n}"),
            real_s,
            eff_gf,
            cplx_s,
            speedup
        );
        results.push(JsonValue::object([
            ("series", JsonValue::str("real_factorization")),
            ("label", JsonValue::str(label)),
            ("m", JsonValue::num(m as f64)),
            ("n", JsonValue::num(n as f64)),
            ("threads", JsonValue::num(1.0)),
            ("real_seconds", JsonValue::num(real_s)),
            ("complex_seconds", JsonValue::num(cplx_s)),
            ("effective_gflops", JsonValue::num(eff_gf)),
            ("complex_effective_gflops", JsonValue::num(cplx_gf)),
            ("speedup_real_vs_complex", JsonValue::num(speedup)),
        ]));
    }
    println!(
        "{:<18} {:>14} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "case", "shape", "packed_s", "GF/s", "seed_s", "seed_GF", "speedup"
    );
    for case in grid {
        let mut rng = StdRng::seed_from_u64(case_seed(
            "packed_vs_seed",
            case.label,
            &[case.m, case.k, case.n],
        ));
        // Stored shapes chosen so the effective product is (m x k) * (k x n).
        let a = match case.opa {
            Op::None => Matrix::random(case.m, case.k, &mut rng),
            _ => Matrix::random(case.k, case.m, &mut rng),
        };
        let b = match case.opb {
            Op::None => Matrix::random(case.k, case.n, &mut rng),
            _ => Matrix::random(case.n, case.k, &mut rng),
        };
        let (packed_s, cmacs, rmacs) = time_best(reps, || {
            std::hint::black_box(gemm(case.opa, case.opb, &a, &b));
        });
        let (seed_s, _, _) = time_best(reps, || {
            std::hint::black_box(run_seed(case, &a, &b));
        });
        let hw_flops = 8.0 * cmacs as f64 + 2.0 * rmacs as f64;
        let gf = hw_flops / packed_s / 1e9;
        let seed_gf = hw_flops / seed_s / 1e9;
        let speedup = seed_s / packed_s;
        println!(
            "{:<18} {:>14} {:>9.4} {:>9.2} {:>9.4} {:>9.2} {:>7.2}x",
            case.label,
            format!("{}x{}x{}", case.m, case.k, case.n),
            packed_s,
            gf,
            seed_s,
            seed_gf,
            speedup
        );
        results.push(JsonValue::object([
            ("series", JsonValue::str("packed_vs_seed")),
            ("label", JsonValue::str(case.label)),
            ("m", JsonValue::num(case.m as f64)),
            ("k", JsonValue::num(case.k as f64)),
            ("n", JsonValue::num(case.n as f64)),
            ("opa", JsonValue::str(op_name(case.opa))),
            ("opb", JsonValue::str(op_name(case.opb))),
            ("threads", JsonValue::num(1.0)),
            ("complex_macs", JsonValue::num(cmacs as f64)),
            ("real_macs", JsonValue::num(rmacs as f64)),
            ("packed_seconds", JsonValue::num(packed_s)),
            ("packed_gflops", JsonValue::num(gf)),
            ("seed_seconds", JsonValue::num(seed_s)),
            ("seed_gflops", JsonValue::num(seed_gf)),
            ("speedup_vs_seed", JsonValue::num(speedup)),
        ]));
    }

    println!();
    println!(
        "{:<18} {:>14} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "real case", "shape", "real_s", "eff_GF/s", "cplx_s", "cplx_GF", "speedup"
    );
    for case in real_grid {
        let mut rng = StdRng::seed_from_u64(case_seed(
            "real_vs_complex",
            case.label,
            &[case.m, case.k, case.n],
        ));
        let (a_rows, a_cols) =
            if case.opa == Op::None { (case.m, case.k) } else { (case.k, case.m) };
        let (b_rows, b_cols) =
            if case.opb == Op::None { (case.k, case.n) } else { (case.n, case.k) };
        // Hint-carrying real operands vs genuinely complex operands of the
        // same shape.
        let a_real = Matrix::random_real(a_rows, a_cols, &mut rng);
        let b_real = Matrix::random_real(b_rows, b_cols, &mut rng);
        let a_cplx = Matrix::random(a_rows, a_cols, &mut rng);
        let b_cplx = Matrix::random(b_rows, b_cols, &mut rng);
        assert!(a_real.is_real() && b_real.is_real());
        let (real_s, real_cm, real_rm) = time_best(reps, || {
            std::hint::black_box(gemm(case.opa, case.opb, &a_real, &b_real));
        });
        let (cplx_s, cplx_cm, cplx_rm) = time_best(reps, || {
            std::hint::black_box(gemm(case.opa, case.opb, &a_cplx, &b_cplx));
        });
        assert_eq!(real_cm, 0, "real series must run entirely on the real kernel");
        assert_eq!(cplx_rm, 0, "complex series must run entirely on the complex kernel");
        let macs = (case.m * case.k * case.n) as f64;
        debug_assert_eq!(real_rm as f64, macs);
        // Effective rate: both runs solve the same m x n x k problem, so
        // both are credited its 8 * m * n * k complex-equivalent flops —
        // the ratio equals the wall-time speedup.
        let real_eff_gf = 8.0 * macs / real_s / 1e9;
        let cplx_gf = 8.0 * cplx_cm as f64 / cplx_s / 1e9;
        // Hardware rate: flops the real kernel actually executed.
        let real_hw_gf = 2.0 * real_rm as f64 / real_s / 1e9;
        let speedup = cplx_s / real_s;
        println!(
            "{:<18} {:>14} {:>9.4} {:>9.2} {:>9.4} {:>9.2} {:>7.2}x",
            case.label,
            format!("{}x{}x{}", case.m, case.k, case.n),
            real_s,
            real_eff_gf,
            cplx_s,
            cplx_gf,
            speedup
        );
        results.push(JsonValue::object([
            ("series", JsonValue::str("real_vs_complex")),
            ("label", JsonValue::str(case.label)),
            ("m", JsonValue::num(case.m as f64)),
            ("k", JsonValue::num(case.k as f64)),
            ("n", JsonValue::num(case.n as f64)),
            ("opa", JsonValue::str(op_name(case.opa))),
            ("opb", JsonValue::str(op_name(case.opb))),
            ("threads", JsonValue::num(1.0)),
            ("real_macs", JsonValue::num(real_rm as f64)),
            ("complex_macs", JsonValue::num(cplx_cm as f64)),
            ("real_seconds", JsonValue::num(real_s)),
            ("real_effective_gflops", JsonValue::num(real_eff_gf)),
            ("real_hw_gflops", JsonValue::num(real_hw_gf)),
            ("complex_seconds", JsonValue::num(cplx_s)),
            ("complex_gflops", JsonValue::num(cplx_gf)),
            ("speedup_real_vs_complex", JsonValue::num(speedup)),
        ]));
    }

    let doc = JsonValue::object([
        ("bench", JsonValue::str("gemm")),
        ("schema_version", JsonValue::num(5.0)),
        ("flop_convention", JsonValue::str("complex MAC = 8 real flops; real MAC = 2 real flops")),
        ("host_cpus", JsonValue::num(host_cpus as f64)),
        ("host_cpu", JsonValue::str(host_cpu())),
        ("microkernel", JsonValue::str(MICROKERNEL)),
        ("results", JsonValue::Array(results)),
    ]);
    match std::fs::write(&json_path, doc.pretty()) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("failed to write {json_path}: {e}"),
    }
}

//! Property-based tests for the linear-algebra substrate.

use koala_linalg::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: matrix dimensions kept small so Jacobi iterations stay fast.
fn dims() -> impl Strategy<Value = (usize, usize)> {
    (1usize..10, 1usize..10)
}

fn seeded_matrix(m: usize, n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::random(m, n, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gemm_distributes_over_addition((m, k) in dims(), n in 1usize..10, seed in 0u64..1000) {
        let a = seeded_matrix(m, k, seed);
        let b = seeded_matrix(k, n, seed.wrapping_add(1));
        let c = seeded_matrix(k, n, seed.wrapping_add(2));
        let lhs = matmul(&a, &(&b + &c));
        let rhs = &matmul(&a, &b) + &matmul(&a, &c);
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn gemm_adjoint_reverses_order((m, k) in dims(), n in 1usize..10, seed in 0u64..1000) {
        let a = seeded_matrix(m, k, seed);
        let b = seeded_matrix(k, n, seed.wrapping_add(7));
        let lhs = matmul(&a, &b).adjoint();
        let rhs = matmul(&b.adjoint(), &a.adjoint());
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn qr_reconstructs_and_is_orthonormal((m, n) in dims(), seed in 0u64..1000) {
        let a = seeded_matrix(m, n, seed);
        let f = qr(&a);
        prop_assert!(f.q.has_orthonormal_cols(1e-9));
        prop_assert!(matmul(&f.q, &f.r).approx_eq(&a, 1e-9));
    }

    #[test]
    fn svd_reconstructs_with_sorted_nonnegative_values((m, n) in dims(), seed in 0u64..1000) {
        let a = seeded_matrix(m, n, seed);
        let f = svd(&a).unwrap();
        prop_assert!(f.reconstruct().approx_eq(&a, 1e-8));
        prop_assert!(f.s.iter().all(|&x| x >= 0.0));
        prop_assert!(f.s.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn svd_frobenius_norm_is_l2_of_singular_values((m, n) in dims(), seed in 0u64..1000) {
        let a = seeded_matrix(m, n, seed);
        let f = svd(&a).unwrap();
        let s_norm = f.s.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!((s_norm - a.norm_fro()).abs() < 1e-8 * a.norm_fro().max(1.0));
    }

    #[test]
    fn truncated_svd_obeys_eckart_young_bound((m, n) in dims(), k in 1usize..6, seed in 0u64..1000) {
        let a = seeded_matrix(m, n, seed);
        let full = svd(&a).unwrap();
        let k = k.min(full.s.len());
        let bound = full.truncation_error(k);
        let err = (&a - &full.truncated(k).reconstruct()).norm_fro();
        prop_assert!(err <= bound + 1e-8);
    }

    #[test]
    fn eigh_reconstructs_hermitian(n in 1usize..9, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random_hermitian(n, &mut rng);
        let e = eigh(&a).unwrap();
        let scaled = matmul(&e.vectors, &Matrix::from_diag_real(&e.values));
        let rec = gemm(Op::None, Op::Adjoint, &scaled, &e.vectors);
        prop_assert!(rec.approx_eq(&a, 1e-8));
        prop_assert!(e.vectors.has_orthonormal_cols(1e-9));
    }

    #[test]
    fn gram_factors_reconstruct_input(m in 2usize..20, n in 1usize..6, seed in 0u64..1000) {
        // Tall inputs, as in Algorithm 5's intended use: A = (A R^{-1}) R.
        let m = m.max(n);
        let a = seeded_matrix(m, n, seed);
        let (r, r_inv) = gram_factors(&matmul_adj_a(&a, &a)).unwrap();
        prop_assert!(matmul(&matmul(&a, &r_inv), &r).approx_eq(&a, 1e-7));
    }

    #[test]
    fn rsvd_recovers_exact_low_rank(m in 4usize..20, n in 4usize..20, r in 1usize..4, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = r.min(m).min(n);
        let left = Matrix::random(m, r, &mut rng);
        let right = Matrix::random(r, n, &mut rng);
        let a = matmul(&left, &right);
        let f = rsvd(&MatOp::new(&a), RsvdOptions::with_rank(r), &mut rng).unwrap();
        prop_assert!(f.reconstruct().approx_eq(&a, 1e-7 * a.norm_max().max(1.0)));
    }

    #[test]
    fn expm_of_antihermitian_is_unitary(n in 1usize..6, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = Matrix::random_hermitian(n, &mut rng);
        let u = expm_hermitian(&h, c64(0.0, 1.0)).unwrap();
        prop_assert!(u.has_orthonormal_cols(1e-9));
    }
}

/// Materialise the effective operand for an `Op`, for cross-checking the
/// packed kernel's fused paths against the naive reference.
fn materialize(op: Op, m: &Matrix) -> Matrix {
    match op {
        Op::None => m.clone(),
        Op::Transpose => m.transpose(),
        Op::Adjoint => m.adjoint(),
    }
}

const ALL_OPS: [Op; 3] = [Op::None, Op::Adjoint, Op::Transpose];

/// Packed GEMM vs the naive kernel across deliberately awkward shapes — tall
/// and skinny, short and wide, exact multiples of the register tile, sizes
/// straddling every blocking boundary, and empty operands — for all nine
/// `Op` combinations.
#[test]
fn packed_gemm_matches_naive_across_shapes_and_ops() {
    let shapes: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 7, 1),
        (6, 8, 8),    // exactly one MR x NR tile
        (5, 3, 9),    // ragged edges everywhere
        (1, 300, 1),  // dot-product shape crossing KC
        (400, 2, 3),  // tall and skinny crossing MC
        (3, 2, 600),  // short and wide crossing NC
        (37, 41, 29), // primes
        (0, 5, 4),    // empty m
        (4, 0, 5),    // empty k
        (5, 4, 0),    // empty n
    ];
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for &(m, k, n) in shapes {
        for opa in ALL_OPS {
            for opb in ALL_OPS {
                // Stored shapes so that the *effective* product is m x k * k x n.
                let a = match opa {
                    Op::None => Matrix::random(m, k, &mut rng),
                    _ => Matrix::random(k, m, &mut rng),
                };
                let b = match opb {
                    Op::None => Matrix::random(k, n, &mut rng),
                    _ => Matrix::random(n, k, &mut rng),
                };
                let fast = gemm(opa, opb, &a, &b);
                let slow = matmul_naive(&materialize(opa, &a), &materialize(opb, &b));
                assert_eq!(fast.shape(), (m, n));
                assert!(
                    fast.approx_eq(&slow, 1e-10 * (k.max(1) as f64)),
                    "gemm({opa:?}, {opb:?}) mismatch at {m}x{k}x{n}: {:e}",
                    fast.max_diff(&slow)
                );
            }
        }
    }
}

/// Real-dispatch GEMM vs the complex reference across the same awkward shape
/// grid and all nine `Op` combinations. The operands carry the structural
/// realness hint, so every product below runs on the real-only microkernel
/// (`f64` panels, one FMA per lane); the results must agree with full complex
/// arithmetic on the same data to 1e-12, and the outputs must carry the hint.
#[test]
fn real_dispatch_matches_complex_kernel_across_shapes_and_ops() {
    let shapes: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (6, 8, 8),    // exactly one MR x NR tile
        (5, 3, 9),    // ragged edges everywhere
        (1, 300, 1),  // dot-product shape crossing KC
        (400, 2, 3),  // tall and skinny crossing MC
        (3, 2, 600),  // short and wide crossing NC
        (37, 41, 29), // primes
        (0, 5, 4),    // empty m
        (4, 0, 5),    // empty k
    ];
    let mut rng = StdRng::seed_from_u64(0x5EA1);
    for &(m, k, n) in shapes {
        for opa in ALL_OPS {
            for opb in ALL_OPS {
                let a = match opa {
                    Op::None => Matrix::random_real(m, k, &mut rng),
                    _ => Matrix::random_real(k, m, &mut rng),
                };
                let b = match opb {
                    Op::None => Matrix::random_real(k, n, &mut rng),
                    _ => Matrix::random_real(n, k, &mut rng),
                };
                assert!(a.is_real() && b.is_real());
                let meter = WorkMeter::new();
                let fast = meter.scope(|| gemm(opa, opb, &a, &b));
                assert_eq!(
                    meter.real_macs(),
                    (m * n * k) as u64,
                    "gemm({opa:?}, {opb:?}) at {m}x{k}x{n} did not run on the real kernel"
                );
                assert_eq!(meter.complex_macs(), 0);
                assert!(fast.is_real(), "real dispatch must mark its output real");
                let slow = matmul_naive(&materialize(opa, &a), &materialize(opb, &b));
                assert_eq!(fast.shape(), (m, n));
                assert!(
                    fast.approx_eq(&slow, 1e-12),
                    "real gemm({opa:?}, {opb:?}) mismatch at {m}x{k}x{n}: {:e}",
                    fast.max_diff(&slow)
                );
            }
        }
    }
}

// The realness hint is a *guarantee*, never a guess: whenever a matrix
// reports `is_real()`, a full scan of its data must find exactly-zero
// imaginary parts — across constructor/transform chains that mix real and
// complex inputs, including ones that only *look* real (a complex phase
// entering through a scalar or an operand must drop the hint).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn realness_hint_is_never_falsely_retained(
        (m, n) in dims(),
        seed in 0u64..1000,
        phase in 0.0f64..std::f64::consts::TAU,
        pick in 0u32..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let real = Matrix::random_real(m, n, &mut rng);
        let complex = Matrix::random(m, n, &mut rng);
        let candidate = match pick {
            0 => real.scale(c64(phase.cos(), phase.sin())), // complex phase: hint must drop unless phase ≈ 0
            1 => &real + &complex,
            2 => real.transpose(),
            3 => matmul(&real, &Matrix::random_real(n, m, &mut rng)),
            4 => matmul(&real.conj(), &Matrix::random(n, m, &mut rng)),
            _ => {
                let mut x = real.clone();
                x[(m - 1, n - 1)] = c64(0.0, 1.0); // raw mutation: hint must drop
                x
            }
        };
        if candidate.is_real() {
            prop_assert!(
                candidate.data().iter().all(|z| z.im == 0.0),
                "is_real() reported true on data with nonzero imaginary parts"
            );
        }
    }
}

/// The retained seed kernel stays numerically interchangeable with the packed
/// kernel (it is the baseline the benchmark suite reports speedups against).
#[test]
fn seed_kernel_matches_packed_kernel() {
    let mut rng = StdRng::seed_from_u64(0xFACE);
    for &(m, k, n) in &[(13, 130, 7), (64, 64, 64), (130, 9, 201)] {
        let a = Matrix::random(m, k, &mut rng);
        let b = Matrix::random(k, n, &mut rng);
        let packed = matmul(&a, &b);
        let seed = matmul_seed(&a, &b);
        assert!(packed.approx_eq(&seed, 1e-9 * (k as f64)));
    }
}

/// Same data, realness hint cleared (`from_vec` is conservative), so the
/// complex factorization branch runs on identical numbers.
fn launder(a: &Matrix) -> Matrix {
    let l = Matrix::from_vec(a.nrows(), a.ncols(), a.data().to_vec()).unwrap();
    assert!(!l.is_real());
    l
}

/// The null-direction convention of `svd`: beyond the `live` leading
/// directions, `s` is exactly zero and so are the column of `U` and the row
/// of `V^H`.
fn assert_null_directions_are_exact_zeros(f: &Svd, live: usize, label: &str) {
    for j in live..f.s.len() {
        assert_eq!(f.s[j], 0.0, "{label}: null singular value {j}");
        assert!(f.u.col(j).iter().all(|z| z.abs() == 0.0), "{label}: null U column {j}");
        assert!(f.vh.row(j).iter().all(|z| z.abs() == 0.0), "{label}: null V^H row {j}");
    }
}

/// The real-only factorization paths must agree with the complex paths run on
/// the same (laundered) data to 1e-12 across every shape class, and their
/// outputs must carry the realness hint. The complex Jacobi paths leave
/// O(eps) imaginary noise behind on real data (`sin(pi) != 0` in floating
/// point), so the comparison is tolerance-based, not bitwise.
#[test]
fn real_path_factorizations_match_complex_path_across_shape_classes() {
    let mut rng = StdRng::seed_from_u64(0xFAC7);
    let rank_deficient = {
        let b = Matrix::random_real(12, 3, &mut rng);
        let c = Matrix::random_real(3, 8, &mut rng);
        matmul(&b, &c) // rank 3, 12x8
    };
    let cases: Vec<(&str, Matrix)> = vec![
        ("tall", Matrix::random_real(24, 6, &mut rng)),
        ("wide", Matrix::random_real(5, 17, &mut rng)),
        ("square", Matrix::random_real(9, 9, &mut rng)),
        ("rank_deficient", rank_deficient),
        ("empty_rows", Matrix::zeros(0, 4)),
        ("empty_cols", Matrix::zeros(4, 0)),
    ];
    for (label, a) in &cases {
        assert!(a.is_real(), "{label}: input must carry the hint");
        let laundered = launder(a);
        let scale = a.norm_max().max(1.0);

        // QR: identical algorithm on identical numbers up to complex round-off.
        let fr = qr(a);
        let fc = qr(&laundered);
        assert!(fr.q.is_real() && fr.r.is_real(), "{label}: QR factors must carry the hint");
        assert!(fr.q.max_diff(&fc.q) <= 1e-12, "{label}: Q mismatch");
        assert!(fr.r.max_diff(&fc.r) <= 1e-12 * scale, "{label}: R mismatch");
        assert!(matmul(&fr.q, &fr.r).approx_eq(a, 1e-12 * scale), "{label}: QR != A");

        // SVD: compare spectra and reconstructions (factor signs follow the
        // same rotation sequence but accumulate eps-level phase noise).
        let sr = svd(a).unwrap();
        let sc = svd(&laundered).unwrap();
        assert!(sr.u.is_real() && sr.vh.is_real(), "{label}: SVD factors must carry the hint");
        for (x, y) in sr.s.iter().zip(sc.s.iter()) {
            assert!((x - y).abs() <= 1e-12 * scale, "{label}: singular value mismatch");
        }
        assert!(sr.reconstruct().approx_eq(a, 1e-11 * scale), "{label}: USV^H != A");
        if !a.is_empty() {
            // Orthonormal over the live directions; a null direction is an
            // exactly zero column of U and row of V^H (3 live of 8 for
            // `rank_deficient`, all of them elsewhere).
            let live = sr.s.iter().filter(|&&x| x > 1e-13 * sr.s[0]).count();
            assert_eq!(live, if *label == "rank_deficient" { 3 } else { sr.s.len() }, "{label}");
            assert!(sr.u.truncate_cols(live).has_orthonormal_cols(1e-11));
            assert!(sr.vh.truncate_rows(live).adjoint().has_orthonormal_cols(1e-11));
            assert_null_directions_are_exact_zeros(&sr, live, label);
        }
    }

    // eigh on a real symmetric matrix: real Jacobi vs complex Jacobi.
    let r = Matrix::random_real(8, 8, &mut rng);
    let h = &r + &r.transpose();
    assert!(h.is_real());
    let er = eigh(&h).unwrap();
    let ec = eigh(&launder(&h)).unwrap();
    assert!(er.vectors.is_real(), "eigh eigenvectors must carry the hint");
    for (x, y) in er.values.iter().zip(ec.values.iter()) {
        assert!((x - y).abs() <= 1e-12 * h.norm_max().max(1.0), "eigenvalue mismatch");
    }
    let av = matmul(&h, &er.vectors);
    let vd = matmul(&er.vectors, &Matrix::from_diag_real(&er.values));
    assert!(av.approx_eq(&vd, 1e-10 * h.norm_max().max(1.0)));

    // gram_factors: reconstruction + hints (real eigh + element-wise
    // assembly), and Q = A R^{-1} stays on the real kernel.
    let t = Matrix::random_real(30, 5, &mut rng);
    let (r, r_inv) = gram_factors(&matmul_adj_a(&t, &t)).unwrap();
    let q = matmul(&t, &r_inv);
    assert!(q.is_real() && r.is_real() && r_inv.is_real(), "gram factors must carry the hint");
    assert!(matmul(&q, &r).approx_eq(&t, 1e-9));

    // rsvd: a structurally real operator draws a real sketch, so the whole
    // iteration stays real and the factors carry the hint.
    let low_rank = {
        let b = Matrix::random_real(18, 3, &mut rng);
        let c = Matrix::random_real(3, 14, &mut rng);
        matmul(&b, &c)
    };
    let f = rsvd(&MatOp::new(&low_rank), RsvdOptions::with_rank(3), &mut rng).unwrap();
    assert!(f.u.is_real() && f.vh.is_real(), "rsvd factors must carry the hint");
    assert!(f.reconstruct().approx_eq(&low_rank, 1e-9));
}

/// The contract of `svd` on the benchmark's theta shapes, at both scalar
/// types: the zip-up step of `contract_bmps` (49x343) and its adjoint, the
/// rank-8 32x512 theta of `rqc_amplitudes`, a 24x24 of rank 18, and a graded
/// spectrum of condition 1e12.
#[test]
fn svd_contract_holds_on_the_benchmark_shapes() {
    let mut rng = StdRng::seed_from_u64(0x5D_2D);
    for hinted in [false, true] {
        let mut draw = |m: usize, n: usize| {
            if hinted {
                Matrix::random_real(m, n, &mut rng)
            } else {
                Matrix::random(m, n, &mut rng)
            }
        };
        let graded = {
            let (u, v) = (qr(&draw(40, 30)).q, qr(&draw(30, 30)).q);
            let spectrum: Vec<f64> = (0..30).map(|i| 10f64.powf(-12.0 * i as f64 / 29.0)).collect();
            gemm(Op::None, Op::Adjoint, &matmul(&u, &Matrix::from_diag_real(&spectrum)), &v)
        };
        // (label, input, rank)
        let cases = [
            ("wide_bmps", draw(49, 343), 49),
            ("tall_bmps", draw(343, 49), 49),
            ("rank8_rqc", matmul(&draw(32, 8), &draw(8, 512)), 8),
            ("rank18_square", matmul(&draw(24, 18), &draw(18, 24)), 18),
            ("graded_1e12", graded, 30),
        ];
        for (label, a, rank) in &cases {
            assert_eq!(a.is_real(), hinted, "{label}: wrong input hint");
            let f = svd(a).unwrap();
            let k = a.nrows().min(a.ncols());
            assert_eq!((f.u.shape(), f.s.len(), f.vh.shape()), ((a.nrows(), k), k, (k, a.ncols())));
            let err = (a - &f.reconstruct()).norm_fro();
            assert!(err <= 1e-12 * a.norm_fro(), "{label}: |A - U S V^H| = {err:e}");
            assert!(f.s.windows(2).all(|w| w[0] >= w[1]) && f.s[k - 1] >= 0.0, "{label}: order");

            // Spectrum against the Gram matrix, to the sqrt(eps) the Gram
            // route can deliver.
            let gram = if a.nrows() < a.ncols() {
                gemm(Op::None, Op::Adjoint, a, a)
            } else {
                matmul_adj_a(a, a)
            };
            let lambda = eigvalsh(&gram).unwrap();
            for (s, l) in f.s.iter().zip(lambda.iter().rev()) {
                assert!((s - l.max(0.0).sqrt()).abs() <= 1.5e-8 * f.s[0], "{label}: spectrum");
            }

            // Realness follows the input, and is never claimed falsely.
            assert_eq!((f.u.is_real(), f.vh.is_real()), (hinted, hinted), "{label}: output hint");
            for factor in [&f.u, &f.vh] {
                assert!(!factor.is_real() || factor.data().iter().all(|z| z.im == 0.0), "{label}");
            }

            // An isometry over the live directions, exact zeros over the
            // null ones.
            assert!(f.s[rank - 1] > 1e-13 * f.s[0], "{label}: live direction lost");
            assert!(f.u.truncate_cols(*rank).has_orthonormal_cols(1e-12), "{label}: U");
            assert!(f.vh.truncate_rows(*rank).adjoint().has_orthonormal_cols(1e-12), "{label}: V");
            assert_null_directions_are_exact_zeros(&f, *rank, label);
        }
    }
}

// Factorization outputs must never *falsely* carry the realness hint: for
// arbitrary (mixed real/complex) inputs, any factor reporting `is_real()`
// must scan clean. This is the factorization-level counterpart of
// `realness_hint_is_never_falsely_retained`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn factorization_outputs_never_falsely_carry_the_hint(
        (m, n) in dims(),
        seed in 0u64..1000,
        make_real in 0u32..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = if make_real == 1 {
            Matrix::random_real(m, n, &mut rng)
        } else {
            Matrix::random(m, n, &mut rng)
        };
        let exactly_real = |mat: &Matrix| !mat.is_real() || mat.data().iter().all(|z| z.im == 0.0);

        let f = qr(&a);
        prop_assert!(exactly_real(&f.q), "Q falsely carries the hint");
        prop_assert!(exactly_real(&f.r), "R falsely carries the hint");

        let s = svd(&a).unwrap();
        prop_assert!(exactly_real(&s.u), "U falsely carries the hint");
        prop_assert!(exactly_real(&s.vh), "Vh falsely carries the hint");

        let h = {
            let sq = if m == n { a.clone() } else { Matrix::random(n, n, &mut rng) };
            &sq + &sq.adjoint()
        };
        let e = eigh(&h).unwrap();
        prop_assert!(exactly_real(&e.vectors), "eigenvectors falsely carry the hint");

        let (r, r_inv) = gram_factors(&matmul_adj_a(&a, &a)).unwrap();
        prop_assert!(exactly_real(&matmul(&a, &r_inv)), "gram Q falsely carries the hint");
        prop_assert!(exactly_real(&r), "gram R falsely carries the hint");
        prop_assert!(exactly_real(&r_inv), "gram R^-1 falsely carries the hint");
    }
}

/// `U diag(s) V^H` with Haar-like `U` (`m x k`) and `V` (`n x k`) from the
/// QR of random matrices, `k = s.len()`, real or complex.
fn with_spectrum(m: usize, n: usize, s: &[f64], real: bool, rng: &mut StdRng) -> Matrix {
    let k = s.len();
    let mut draw = |r: usize, c: usize| {
        if real {
            Matrix::random_real(r, c, &mut *rng)
        } else {
            Matrix::random(r, c, &mut *rng)
        }
    };
    let (u, v) = (qr(&draw(m, k)).q, qr(&draw(n, k)).q);
    gemm(Op::None, Op::Adjoint, &matmul(&u, &Matrix::from_diag_real(s)), &v)
}

/// `svd_leading` of `a` kept to `keep`, asserting that it took the leading
/// route (no fallback to the Jacobi ladder was counted).
fn leading(a: &Matrix, keep: usize) -> koala_error::Result<(Svd, f64)> {
    let before = koala_error::recovery::snapshot().leading_svd_fallbacks;
    let out = svd_leading(a, |_: &[f64]| keep);
    assert_eq!(koala_error::recovery::snapshot().leading_svd_fallbacks, before, "fell back");
    out
}

/// The kept triplets of `svd_leading` against `svd` truncated at the same
/// cut: equal spectra and discarded weight, equal rank-`keep` products
/// (the cut lies at a gap), orthonormal kept columns, and the input's
/// realness.
fn check_leading(a: &Matrix, keep: usize, label: &str) -> Svd {
    let (f, err) = leading(a, keep).unwrap();
    let full = svd(a).unwrap();
    let (tail, s1) = (full.truncation_error(keep), full.s[0]);
    let jacobi = full.truncated(keep);
    let (m, n) = a.shape();
    assert_eq!((f.u.shape(), f.s.len(), f.vh.shape()), ((m, keep), keep, (keep, n)), "{label}");
    for (x, y) in f.s.iter().zip(&jacobi.s) {
        assert!((x - y).abs() <= 1e-13 * s1, "{label}: value {x:e} vs {y:e}");
    }
    assert!((err - tail).abs() <= 1e-13 * s1, "{label}: error {err:e} vs {tail:e}");
    let gap = f.reconstruct().max_diff(&jacobi.reconstruct());
    assert!(gap <= 1e-12 * a.norm_fro(), "{label}: products differ by {gap:e}");
    assert!(f.u.has_orthonormal_cols(1e-12), "{label}: U");
    assert!(f.vh.adjoint().has_orthonormal_cols(1e-12), "{label}: V");
    assert_eq!((f.u.is_real(), f.vh.is_real()), (a.is_real(), a.is_real()), "{label}: hint");
    f
}

// The leading route of the truncated SVD over tall, wide and square shapes,
// both scalars and input scales 1e-20, 1 and 1e20, with a cut at a gap of
// the spectrum (kept values in [1, 2], the rest in [0, 0.1]).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn leading_svd_matches_the_truncated_jacobi_svd(
        (m, n) in (2usize..40, 2usize..40),
        keep_frac in 0.0f64..1.0,
        real in 0u32..2,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = m.min(n);
        let keep = ((keep_frac * k as f64) as usize).clamp(1, k - 1);
        let spectrum: Vec<f64> = (0..k)
            .map(|i| if i < keep { 2.0 - i as f64 / k as f64 } else { 0.1 * (k - i) as f64 / k as f64 })
            .collect();
        let a = with_spectrum(m, n, &spectrum, real == 1, &mut rng);
        for scale in [1e-20, 1.0, 1e20] {
            let a = a.scale(c64(scale, 0.0));
            check_leading(&a, keep, &format!("{m}x{n} keep {keep} real {real} scale {scale:e}"));
        }
    }
}

/// Exactly degenerate clusters (4-fold and 8-fold): a cut at a cluster
/// boundary keeps Jacobi's product.
#[test]
fn leading_svd_keeps_degenerate_clusters_whole() {
    let mut rng = StdRng::seed_from_u64(0xC1u64);
    let mut spectrum = vec![3.0; 4];
    spectrum.extend([2.0; 8]);
    spectrum.extend((0..20).map(|i| 1.0 / (i + 2) as f64));
    for real in [false, true] {
        for (m, n) in [(40, 32), (32, 60), (32, 32)] {
            let a = with_spectrum(m, n, &spectrum, real, &mut rng);
            for keep in [4, 12] {
                check_leading(&a, keep, &format!("clusters {m}x{n} real {real} keep {keep}"));
            }
        }
    }
}

/// The long sides of the workloads' thetas (`contract_bmps` splits 49 x 343
/// and 343 x 49, `evolve_tebd` factors 512 x 16 sites): where a Householder
/// and a Gram-Schmidt `Q` differ. Each shape with a gap after the kept
/// values, with graded columns (scales 1 down to 1e-10), and at rank 12 of a
/// long side (every column past the rank gets no reflector).
#[test]
fn leading_svd_on_long_sides_graded_and_rank_deficient_inputs() {
    let mut rng = StdRng::seed_from_u64(0x1049);
    for real in [false, true] {
        for (m, n, keep) in [(343, 49, 7), (49, 343, 7), (512, 16, 8), (16, 512, 8)] {
            let k = m.min(n);
            // `rank` values, the kept ones in [1, 2] and the rest below 0.1.
            let gapped = |rank: usize| -> Vec<f64> {
                let value =
                    |i| if i < keep { 2.0 - i as f64 / k as f64 } else { 0.1 / (i + 1) as f64 };
                (0..rank).map(value).collect()
            };
            let a = with_spectrum(m, n, &gapped(k), real, &mut rng);
            check_leading(&a, keep, &format!("gap {m}x{n} real {real}"));

            let mut graded = if real {
                Matrix::random_real(m, n, &mut rng)
            } else {
                Matrix::random(m, n, &mut rng)
            };
            for j in 0..n {
                let scale = 10f64.powf(-10.0 * j as f64 / (n - 1) as f64);
                for i in 0..m {
                    graded[(i, j)] = graded[(i, j)].scale(scale);
                }
            }
            if real {
                graded.mark_real_if_exact();
            }
            check_leading(&graded, keep, &format!("graded {m}x{n} real {real}"));

            let a = with_spectrum(m, n, &gapped(12), real, &mut rng);
            check_leading(&a, keep, &format!("rank 12 of {m}x{n} real {real}"));
        }
    }
}

/// A rank-`r` input with more than `r` directions kept: the null ones come
/// back as `s = 0.0` with zero columns, and the product is still `A`. The
/// zero matrix is all null; non-finite input is rejected.
#[test]
fn leading_svd_null_directions_zero_matrix_and_non_finite_input() {
    let mut rng = StdRng::seed_from_u64(0x9011);
    for real in [false, true] {
        let draw = |r: usize, c: usize, rng: &mut StdRng| {
            if real {
                Matrix::random_real(r, c, rng)
            } else {
                Matrix::random(r, c, rng)
            }
        };
        for (m, n) in [(20, 12), (12, 30), (343, 49), (16, 512)] {
            let a = matmul(&draw(m, 3, &mut rng), &draw(3, n, &mut rng));
            let (f, err) = leading(&a, 6).unwrap();
            assert_eq!(f.s.len(), 6);
            assert!(f.s[2] > 1e-8 * f.s[0] && err <= 1e-13 * f.s[0], "{m}x{n}: {:?}", f.s);
            assert!(f.reconstruct().approx_eq(&a, 1e-12 * a.norm_fro()), "{m}x{n}: product");
            assert!(f.u.truncate_cols(3).has_orthonormal_cols(1e-12));
            assert!(f.vh.truncate_rows(3).adjoint().has_orthonormal_cols(1e-12));
            assert_null_directions_are_exact_zeros(&f, 3, &format!("rank 3 of {m}x{n}"));
        }
        let zero =
            if real { Matrix::from_real(5, 7, &[0.0; 35]).unwrap() } else { Matrix::zeros(5, 7) };
        let (f, err) = leading(&zero, 2).unwrap();
        assert_eq!((f.s.as_slice(), err), (&[0.0, 0.0][..], 0.0));
        assert_null_directions_are_exact_zeros(&f, 0, "zero matrix");
        let mut bad = draw(6, 5, &mut rng);
        bad[(2, 3)] = c64(f64::NAN, 0.0);
        let e = svd_leading(&bad, |_: &[f64]| 2).unwrap_err();
        assert_eq!(e.kind(), koala_error::ErrorKind::NonFinite);
    }
}

/// A real-hinted input runs the leading route at `f64`: hinted factors, and
/// not one complex multiply-add billed. The route runs no GEMM at all (the
/// long factor is the Householder reflectors applied to the kept vectors),
/// so no real one is billed either.
#[test]
fn leading_svd_of_real_input_stays_real() {
    let mut rng = StdRng::seed_from_u64(0x4EA1);
    for (m, n, keep) in [(32, 32, 8), (49, 343, 7), (343, 49, 7)] {
        let a = Matrix::random_real(m, n, &mut rng);
        let meter = WorkMeter::new();
        let (f, _) = meter.scope(|| leading(&a, keep)).unwrap();
        assert!(f.u.is_real() && f.vh.is_real(), "{m}x{n}: factors must carry the hint");
        assert_eq!(meter.complex_macs(), 0, "{m}x{n}: complex MACs billed");
        assert_eq!(meter.real_macs(), 0, "{m}x{n}: GEMM MACs billed");
    }
}

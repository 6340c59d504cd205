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
        let trunc = full.truncated(k);
        let err = (&a - &trunc.reconstruct()).norm_fro();
        prop_assert!(err <= full.truncation_error(k) + 1e-8);
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
    fn gram_qr_matches_input(m in 2usize..20, n in 1usize..6, seed in 0u64..1000) {
        // Tall inputs, as in Algorithm 5's intended use.
        let m = m.max(n);
        let a = seeded_matrix(m, n, seed);
        let f = gram_qr(&a).unwrap();
        prop_assert!(matmul(&f.q, &f.r).approx_eq(&a, 1e-7));
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

    // gram_qr: reconstruction + hints (real eigh + element-wise assembly).
    let t = Matrix::random_real(30, 5, &mut rng);
    let g = gram_qr(&t).unwrap();
    assert!(
        g.q.is_real() && g.r.is_real() && g.r_inv.is_real(),
        "gram_qr factors must carry the hint"
    );
    assert!(matmul(&g.q, &g.r).approx_eq(&t, 1e-9));

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

        let g = gram_qr(&a).unwrap();
        prop_assert!(exactly_real(&g.q), "gram Q falsely carries the hint");
        prop_assert!(exactly_real(&g.r), "gram R falsely carries the hint");
        prop_assert!(exactly_real(&g.r_inv), "gram R^-1 falsely carries the hint");
    }
}

//! Property-based tests for the tensor layer.

use koala_linalg::c64;
use koala_tensor::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_shape(max_rank: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..4, 1..=max_rank)
}

fn seeded_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::random(shape, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn permute_preserves_norm_and_inverts(shape in small_shape(4), seed in 0u64..1000) {
        let t = seeded_tensor(&shape, seed);
        let mut perm: Vec<usize> = (0..shape.len()).collect();
        // A deterministic non-trivial permutation: rotate by one.
        perm.rotate_left(1);
        let p = t.permute(&perm).unwrap();
        prop_assert!((p.norm() - t.norm()).abs() < 1e-12);
        let mut inverse: Vec<usize> = (0..shape.len()).collect();
        inverse.rotate_right(1);
        prop_assert!(p.permute(&inverse).unwrap().approx_eq(&t, 0.0));
    }

    #[test]
    fn reshape_roundtrip_preserves_data(shape in small_shape(4), seed in 0u64..1000) {
        let t = seeded_tensor(&shape, seed);
        let flat = t.reshape(&[t.len()]).unwrap();
        let back = flat.reshape(&shape).unwrap();
        prop_assert!(back.approx_eq(&t, 0.0));
    }

    #[test]
    fn unfold_fold_roundtrip(shape in small_shape(4), split_frac in 0usize..5, seed in 0u64..1000) {
        let t = seeded_tensor(&shape, seed);
        let split = split_frac % (shape.len() + 1);
        let m = t.unfold(split);
        let back = Tensor::fold(m, &shape[..split], &shape[split..]).unwrap();
        prop_assert!(back.approx_eq(&t, 0.0));
    }

    #[test]
    fn tensordot_matches_naive(
        d0 in 1usize..4, d1 in 1usize..4, d2 in 1usize..4, d3 in 1usize..4,
        seed in 0u64..1000
    ) {
        let a = seeded_tensor(&[d0, d1, d2], seed);
        let b = seeded_tensor(&[d2, d1, d3], seed.wrapping_add(1));
        let fast = tensordot(&a, &b, &[2, 1], &[0, 1]).unwrap();
        let slow = tensordot_naive(&a, &b, &[2, 1], &[0, 1]).unwrap();
        prop_assert!(fast.approx_eq(&slow, 1e-9));
    }

    #[test]
    fn tensordot_is_bilinear(
        d0 in 1usize..4, d1 in 1usize..4, d2 in 1usize..4,
        seed in 0u64..1000
    ) {
        let a = seeded_tensor(&[d0, d1], seed);
        let b1 = seeded_tensor(&[d1, d2], seed.wrapping_add(2));
        let b2 = seeded_tensor(&[d1, d2], seed.wrapping_add(3));
        let lhs = tensordot(&a, &b1.add(&b2).unwrap(), &[1], &[0]).unwrap();
        let rhs = tensordot(&a, &b1, &[1], &[0]).unwrap()
            .add(&tensordot(&a, &b2, &[1], &[0]).unwrap()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn einsum_matrix_chain_is_associative(
        d0 in 1usize..4, d1 in 1usize..4, d2 in 1usize..4, d3 in 1usize..4,
        seed in 0u64..1000
    ) {
        let a = seeded_tensor(&[d0, d1], seed);
        let b = seeded_tensor(&[d1, d2], seed.wrapping_add(4));
        let c = seeded_tensor(&[d2, d3], seed.wrapping_add(5));
        let chained = einsum("ij,jk,kl->il", &[&a, &b, &c]).unwrap();
        let ab = tensordot(&a, &b, &[1], &[0]).unwrap();
        let manual = tensordot(&ab, &c, &[1], &[0]).unwrap();
        prop_assert!(chained.approx_eq(&manual, 1e-9));
    }

    #[test]
    fn svd_split_truncation_is_monotone(
        d0 in 2usize..4, d1 in 2usize..4, d2 in 2usize..4,
        seed in 0u64..1000
    ) {
        let t = seeded_tensor(&[d0, d1, d2], seed);
        let full = svd_split(&t, &[0], Truncation::none()).unwrap();
        let mut prev_err = -1.0f64;
        for k in (1..=full.s.len()).rev() {
            let f = svd_split(&t, &[0], Truncation::max_rank(k)).unwrap();
            prop_assert!(f.truncation_error >= prev_err - 1e-12,
                "error should grow as rank shrinks");
            prev_err = f.truncation_error;
        }
    }

    #[test]
    fn qr_split_isometry(shape in small_shape(4), seed in 0u64..1000) {
        prop_assume!(shape.len() >= 2);
        let t = seeded_tensor(&shape, seed);
        let (q, r) = qr_split(&t, &[0]).unwrap();
        let qm = q.unfold(1);
        prop_assert!(qm.has_orthonormal_cols(1e-9));
        let rebuilt = tensordot(&q, &r, &[1], &[0]).unwrap();
        prop_assert!(rebuilt.approx_eq(&t, 1e-9));
    }

    #[test]
    fn inner_product_cauchy_schwarz(shape in small_shape(3), seed in 0u64..1000) {
        let a = seeded_tensor(&shape, seed);
        let b = seeded_tensor(&shape, seed.wrapping_add(9));
        let inner = a.inner(&b).unwrap().abs();
        prop_assert!(inner <= a.norm() * b.norm() + 1e-9);
    }
}

/// Exhaustive-ish `tensordot` vs `tensordot_naive` sweep over rank-3/4/5
/// operands, covering every count of contracted axes (including zero — an
/// outer product) and several axis orders, so both the zero-copy matricized
/// fast paths and the permuting fallback get exercised.
#[test]
fn tensordot_matches_naive_rank_3_4_5_sweep() {
    let mut rng = StdRng::seed_from_u64(0xD07);
    // (shape_a, shape_b, axes_a, axes_b)
    let cases: Vec<(Vec<usize>, Vec<usize>, Vec<usize>, Vec<usize>)> = vec![
        // rank 3 x rank 3
        (vec![2, 3, 4], vec![4, 3, 2], vec![2], vec![0]),
        (vec![2, 3, 4], vec![4, 3, 2], vec![1, 2], vec![1, 0]),
        (vec![2, 3, 4], vec![2, 3, 4], vec![0, 1, 2], vec![0, 1, 2]),
        (vec![2, 3, 4], vec![3, 2, 2], vec![0], vec![1]),
        // leading/trailing contracted axes hit the zero-copy transpose path
        (vec![3, 2, 4], vec![3, 5, 2], vec![0], vec![0]),
        (vec![2, 3, 4], vec![5, 4, 2], vec![2], vec![1]),
        // rank 4
        (vec![2, 3, 2, 4], vec![4, 2, 3, 2], vec![3, 1], vec![0, 2]),
        (vec![2, 3, 2, 4], vec![2, 3, 5, 2], vec![0, 1], vec![0, 1]),
        (vec![2, 2, 3, 3], vec![3, 3, 2, 2], vec![2, 3], vec![0, 1]),
        // rank 5
        (vec![2, 2, 2, 3, 2], vec![3, 2, 2, 2, 2], vec![3, 4], vec![0, 1]),
        (vec![2, 2, 2, 3, 2], vec![2, 3, 2, 2, 2], vec![1, 3, 0], vec![2, 1, 4]),
        // mixed ranks and outer product
        (vec![2, 3, 4], vec![4, 5], vec![2], vec![0]),
        (vec![2, 2], vec![3, 2, 2], vec![], vec![]),
    ];
    for (sa, sb, axes_a, axes_b) in cases {
        let a = Tensor::random(&sa, &mut rng);
        let b = Tensor::random(&sb, &mut rng);
        let fast = tensordot(&a, &b, &axes_a, &axes_b).unwrap();
        let slow = tensordot_naive(&a, &b, &axes_a, &axes_b).unwrap();
        assert!(
            fast.approx_eq(&slow, 1e-10),
            "tensordot({sa:?}, {sb:?}, {axes_a:?}, {axes_b:?}) diverges from naive: {:e}",
            fast.max_diff(&slow)
        );
    }
}

/// Realness propagation through the einsum pipeline: contractions of
/// hinted-real tensors run end to end on the real GEMM path, produce
/// hint-carrying real results identical (to 1e-12) to full complex
/// arithmetic, and the hint survives every layout stage the planner uses
/// (permute, reshape, matricization, axis sums, output permutation).
#[test]
fn einsum_of_real_tensors_is_real_and_matches_complex_arithmetic() {
    let mut rng = StdRng::seed_from_u64(0x0DDC0DE);
    let a = Tensor::random_real(&[2, 3, 4], &mut rng);
    let b = Tensor::random_real(&[4, 3, 5], &mut rng);
    let c = Tensor::random_real(&[5, 2], &mut rng);
    // Multi-operand spec exercising interleaved axes, a dropped label, and a
    // permuted output.
    let out = einsum("ijk,kjl,lm->mi", &[&a, &b, &c]).unwrap();
    assert!(out.is_real(), "einsum of real tensors must carry the realness hint");
    assert!(out.data().iter().all(|z| z.im == 0.0));
    // Same contraction with the hints laundered away: the products run the
    // complex kernel, whose extra FMAs add exact zero products, so results
    // agree to rounding: semantics are those of complex arithmetic.
    let a_c = Tensor::from_vec(&[2, 3, 4], a.data().to_vec()).unwrap();
    let b_c = Tensor::from_vec(&[4, 3, 5], b.data().to_vec()).unwrap();
    let c_c = Tensor::from_vec(&[5, 2], c.data().to_vec()).unwrap();
    assert!(!a_c.is_real());
    let reference = einsum("ijk,kjl,lm->mi", &[&a_c, &b_c, &c_c]).unwrap();
    assert!(!reference.is_real(), "unhinted operands must not produce a hinted result");
    assert!(out.approx_eq(&reference, 1e-12));

    // One complex operand anywhere poisons the result hint — and the result
    // really is complex.
    let phase = b.scale(c64(0.0, 1.0));
    assert!(!phase.is_real());
    let mixed = einsum("ijk,kjl,lm->mi", &[&a, &phase, &c]).unwrap();
    assert!(!mixed.is_real());
    assert!(mixed.data().iter().any(|z| z.im != 0.0));

    // Layout stages preserve the hint without rescans.
    let p = a.permute(&[2, 0, 1]).unwrap();
    assert!(p.is_real());
    assert!(p.reshape(&[4, 6]).unwrap().is_real());
    assert!(p.unfold(1).is_real());
    assert!(Tensor::fold(p.unfold(1), &[4], &[2, 3]).unwrap().is_real());
    assert!(sum_axis(&a, 1).unwrap().is_real());
    assert!(a.conj().is_real());
    assert!(!a.scale(c64(0.5, -0.5)).is_real());
}

/// `sum_axis` (now a direct strided reduction) equals contracting against a
/// ones tensor, on every axis of rank-1..4 tensors.
#[test]
fn sum_axis_matches_ones_contraction() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for shape in [vec![5], vec![3, 4], vec![2, 3, 4], vec![2, 3, 2, 3]] {
        let t = Tensor::random(&shape, &mut rng);
        for axis in 0..shape.len() {
            let direct = sum_axis(&t, axis).unwrap();
            let ones = Tensor::ones(&[shape[axis]]);
            let via_gemm = tensordot(&t, &ones, &[axis], &[0]).unwrap();
            assert!(direct.approx_eq(&via_gemm, 1e-12));
        }
    }
}

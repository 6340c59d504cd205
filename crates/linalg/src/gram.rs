//! Reshape-avoiding orthogonalization via a Gram matrix (paper Algorithm 5).
//!
//! Given a tall operator `A : C^n -> C^m` (m >> n), form the small Gram matrix
//! `G = A^H A`, eigendecompose it locally, and recover
//! `R = sqrt(Lambda) X^H` and `Q = A R^{-1}` so that `A = Q R` with `Q`
//! having orthonormal columns. In the distributed setting the only operations
//! on the big operand are a contraction (to form `G`) and a contraction (to
//! apply `R^{-1}`) — no matricization/redistribution of `A` is ever needed.
//! This module provides the local math on `G`, [`gram_factors`];
//! `koala-cluster`'s `gram_qr_dist` forms `G` by one allreduce, replicates
//! [`gram_factors`] on every rank and applies `R^{-1}` to the distributed
//! operand. The two together are Algorithm 5's one implementation, which
//! `koala-peps` runs for the `local-gram-qr` evolution variants of Figure 7.

use crate::eig::eigh;
use crate::matrix::Matrix;

/// Relative rank tolerance of [`gram_factors`].
const GRAM_RANK_TOL: f64 = 1e-12;

/// Relative eigenvalue floor below which the Gram matrix is considered to
/// have lost positive semi-definiteness. Round-off on a legitimate
/// rank-deficient input produces negative eigenvalues at the `-eps * lam_max`
/// level (~1e-14 relative); anything past this floor signals the squared
/// condition number has genuinely destroyed the Gram spectrum — the exact
/// instability the paper trades QR+SVD against Gram-based factorization for.
const GRAM_PSD_FLOOR: f64 = 1e-10;

/// The `(R, R^{-1})` factors of a Gram matrix `G = A^H A`, or `None` when
/// `G` is unhealthy: non-finite, its eigendecomposition fails or has a
/// non-finite eigenvalue, or an eigenvalue falls below
/// `-GRAM_PSD_FLOOR * lambda_max` (loss of positive semi-definiteness).
/// Eigenvalues at or below `GRAM_RANK_TOL^2 * lambda_max` count as null:
/// the corresponding rows of `R` are kept (so the reconstruction
/// `A R^{-1} R ≈ A` still holds to round-off) but their contribution to
/// `R^{-1}` is zeroed, exactly like a pseudo-inverse.
///
/// The health rule of `koala-cluster`'s `gram_qr_dist`, which replicates
/// this small factorization on every rank and degrades to its gather QR on
/// `None`.
pub fn gram_factors(g: &Matrix) -> Option<(Matrix, Matrix)> {
    g.validate_finite("gram matrix").ok()?;
    let e = eigh(g).ok()?;
    let lam_max = e.values.iter().cloned().fold(0.0, f64::max).max(0.0);
    let lam_min = e.values.first().copied().unwrap_or(0.0); // ascending order
    let finite = e.values.iter().all(|lam| lam.is_finite());
    if !finite || lam_min < -GRAM_PSD_FLOOR * lam_max.max(f64::MIN_POSITIVE) {
        return None;
    }
    Some(r_factors(&e, lam_max * GRAM_RANK_TOL * GRAM_RANK_TOL))
}

/// Assemble `R = sqrt(Lambda) X^H` and `R^{-1} = X sqrt(Lambda)^{-1}` from an
/// eigendecomposition of the Gram matrix `A^H A`, in descending eigenvalue
/// order. The scaled adjoint is written element-wise into its destination —
/// no `X` / `X^H` intermediate is materialised. Eigenvalues at or below
/// `cutoff` (or non-positive) contribute zero columns to `R^{-1}`, exactly
/// like a pseudo-inverse.
fn r_factors(e: &crate::eig::EigH, cutoff: f64) -> (Matrix, Matrix) {
    let n = e.values.len();
    let mut r = Matrix::zeros(n, n);
    let mut r_inv = Matrix::zeros(n, n);
    for (newcol, oldcol) in (0..n).rev().enumerate() {
        let lam = e.values[oldcol].max(0.0);
        let sqrt_lam = lam.sqrt();
        let inv_sqrt = if lam > cutoff && lam > 0.0 { 1.0 / sqrt_lam } else { 0.0 };
        for i in 0..n {
            let x_i = e.vectors[(i, oldcol)];
            r[(newcol, i)] = x_i.conj().scale(sqrt_lam);
            r_inv[(i, newcol)] = x_i.scale(inv_sqrt);
        }
    }
    if e.vectors.is_real() {
        // Real eigenvectors scaled by finite reals stay real; the element-wise
        // assembly through IndexMut dropped the hint conservatively. This is
        // what keeps `Q = A R^{-1}` (and every later contraction against the
        // factors) on the real GEMM kernel for real inputs.
        r.assume_real();
        r_inv.assume_real();
    }
    (r, r_inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matmul_adj_a};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `(Q, R, R^{-1})` of `A` through [`gram_factors`], as `gram_qr_dist`
    /// assembles them on a single rank.
    fn gram_qr_local(a: &Matrix) -> (Matrix, Matrix, Matrix) {
        let (r, r_inv) = gram_factors(&matmul_adj_a(a, a)).expect("healthy Gram matrix");
        (matmul(a, &r_inv), r, r_inv)
    }

    #[test]
    fn reconstructs_and_orthogonalizes_tall_matrix() {
        let mut rng = StdRng::seed_from_u64(80);
        let a = Matrix::random(50, 6, &mut rng);
        let (q, r, _) = gram_qr_local(&a);
        assert!(matmul(&q, &r).approx_eq(&a, 1e-9));
        assert!(q.has_orthonormal_cols(1e-8));
    }

    #[test]
    fn r_inverse_is_consistent() {
        let mut rng = StdRng::seed_from_u64(81);
        let a = Matrix::random(30, 5, &mut rng);
        let (_, r, r_inv) = gram_qr_local(&a);
        assert!(matmul(&r, &r_inv).approx_eq(&Matrix::identity(5), 1e-8));
    }

    #[test]
    fn agrees_with_mgs_qr_up_to_unitary_freedom() {
        let mut rng = StdRng::seed_from_u64(82);
        let a = Matrix::random(40, 4, &mut rng);
        let (q, _, _) = gram_qr_local(&a);
        let m = crate::qr::qr(&a);
        // Column spaces must agree: projectors are equal.
        let p1 = crate::gemm::matmul_adj_b(&q, &q);
        let p2 = crate::gemm::matmul_adj_b(&m.q, &m.q);
        assert!(p1.approx_eq(&p2, 1e-8));
    }

    #[test]
    fn rank_deficient_input_gets_pseudo_inverse() {
        let mut rng = StdRng::seed_from_u64(83);
        let b = Matrix::random(20, 2, &mut rng);
        let c = Matrix::random(2, 5, &mut rng);
        let a = matmul(&b, &c); // rank 2, 20x5
        let (q, r, r_inv) = gram_qr_local(&a);
        assert!(matmul(&q, &r).approx_eq(&a, 1e-8));
        // Q has exactly rank-2 worth of orthonormal columns; Q^H Q is a projector.
        let qhq = matmul_adj_a(&q, &q);
        let p2 = matmul(&qhq, &qhq);
        assert!(p2.approx_eq(&qhq, 1e-7));
        assert!((qhq.trace().re - 2.0).abs() < 1e-6);
        // R^{-1} R is a rank-2 projector in R's row space.
        let pinv = matmul(&r_inv, &r);
        assert!(matmul(&pinv, &pinv).approx_eq(&pinv, 1e-7));
    }

    #[test]
    fn non_finite_gram_matrix_is_unhealthy() {
        let mut g = Matrix::identity(2);
        g[(1, 1)] = crate::scalar::c64(f64::INFINITY, 0.0);
        assert!(gram_factors(&g).is_none());
        g[(1, 1)] = crate::scalar::c64(f64::NAN, 0.0);
        assert!(gram_factors(&g).is_none());
    }
}

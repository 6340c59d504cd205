//! Reshape-avoiding orthogonalization via a Gram matrix (paper Algorithm 5).
//!
//! Given a tall operator `A : C^n -> C^m` (m >> n), form the small Gram matrix
//! `G = A^H A`, eigendecompose it locally, and recover
//! `R = sqrt(Lambda) X^H` and `Q = A R^{-1}` so that `A = Q R` with `Q`
//! having orthonormal columns. In the distributed setting the only operations
//! on the big operand are a contraction (to form `G`) and a contraction (to
//! apply `R^{-1}`) — no matricization/redistribution of `A` is ever needed.
//! This module provides the shared local math; `koala-cluster` wires it to
//! distributed tensors and `koala-peps` uses it for the `local-gram-qr`
//! evolution variants benchmarked in Figure 7.

use crate::eig::eigh;
use crate::gemm::{gemm, matmul, matmul_adj_a, Op};
use crate::matrix::Matrix;
use crate::svd::{scale_cols, svd};
use koala_error::Result;

/// Result of the Gram-based orthogonalization.
#[derive(Debug, Clone)]
pub struct GramQr {
    /// Isometric factor with orthonormal columns (up to the numerical rank).
    pub q: Matrix,
    /// Square factor such that `A = Q R`.
    pub r: Matrix,
    /// `R^{-1}` (pseudo-inverse on the numerical null space).
    pub r_inv: Matrix,
}

/// Relative rank tolerance of [`gram_qr`] and of its QR+SVD fallback.
const GRAM_RANK_TOL: f64 = 1e-12;

/// Relative eigenvalue floor below which the Gram matrix is considered to
/// have lost positive semi-definiteness. Round-off on a legitimate
/// rank-deficient input produces negative eigenvalues at the `-eps * lam_max`
/// level (~1e-14 relative); anything past this floor signals the squared
/// condition number has genuinely destroyed the Gram spectrum — the exact
/// instability the paper trades QR+SVD against Gram-based factorization for.
const GRAM_PSD_FLOOR: f64 = 1e-10;

/// Factor `A = Q R` through the Gram matrix `G = A^H A` (Algorithm 5).
///
/// Directions of `G` whose eigenvalue is below `GRAM_RANK_TOL^2 * lambda_max`
/// are treated as numerically null: the corresponding rows of `R` are kept
/// (so the reconstruction `Q R ≈ A` still holds to round-off) but their
/// contribution to `R^{-1}` is zeroed, exactly like a pseudo-inverse.
///
/// Ill-conditioning is detected, not suffered: if the eigendecomposition of
/// `G = A^H A` fails, produces non-finite values, or shows an eigenvalue
/// below `-GRAM_PSD_FLOOR * lambda_max` (loss of positive semi-definiteness),
/// the routine degrades to a conventional QR+SVD factorization — numerically
/// stable at roughly twice the big-operand cost — and records the degradation
/// on the [`koala_error::recovery`] counters. Non-finite *inputs* are
/// rejected up front instead of degraded: no factorization can repair them.
pub fn gram_qr(a: &Matrix) -> Result<GramQr> {
    a.validate_finite("gram_qr input")?;
    let Some((r, r_inv)) = gram_factors(&matmul_adj_a(a, a)) else {
        koala_error::recovery::note_qr_degradation();
        return qr_svd_degrade(a);
    };
    let q = matmul(a, &r_inv);
    q.validate_finite("gram_qr Q factor")?;
    Ok(GramQr { q, r, r_inv })
}

/// Stable fallback for [`gram_qr`]: conventional QR of the big
/// operand, with `R^{-1}` recovered as a pseudo-inverse through the SVD of
/// the small square `R` (so rank-deficient directions are zeroed exactly
/// like the Gram path would).
fn qr_svd_degrade(a: &Matrix) -> Result<GramQr> {
    let f = crate::qr::qr(a);
    let sv = svd(f.r.clone())?;
    let smax = sv.s.first().copied().unwrap_or(0.0);
    let pinv_s: Vec<f64> =
        sv.s.iter()
            .map(|&x| if x > smax * GRAM_RANK_TOL && x > 0.0 { 1.0 / x } else { 0.0 })
            .collect();
    // pinv(R) = V S^+ U^H, assembled through the fused-adjoint GEMM as
    // (V^H)^H * (U S^+)^H — no factor adjoint is materialised.
    let us = scale_cols(&sv.u, &pinv_s);
    let r_inv = gemm(Op::Adjoint, Op::Adjoint, &sv.vh, &us);
    let q = f.q;
    q.validate_finite("qr_svd_degrade Q factor")?;
    Ok(GramQr { q, r: f.r, r_inv })
}

/// The `(R, R^{-1})` factors of a Gram matrix `G = A^H A`, or `None` when
/// `G` is unhealthy: non-finite, its eigendecomposition fails or has a
/// non-finite eigenvalue, or an eigenvalue falls below
/// `-GRAM_PSD_FLOOR * lambda_max` (loss of positive semi-definiteness).
/// Eigenvalues at or below `GRAM_RANK_TOL^2 * lambda_max` count as null.
///
/// The one health rule of [`gram_qr`] and the distributed `gram_qr_dist` of
/// `koala-cluster`, which replicates the same small factorization on every
/// rank; each caller keeps its own degrade path for `None`.
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reconstructs_and_orthogonalizes_tall_matrix() {
        let mut rng = StdRng::seed_from_u64(80);
        let a = Matrix::random(50, 6, &mut rng);
        let f = gram_qr(&a).unwrap();
        assert!(matmul(&f.q, &f.r).approx_eq(&a, 1e-9));
        assert!(f.q.has_orthonormal_cols(1e-8));
    }

    #[test]
    fn r_inverse_is_consistent() {
        let mut rng = StdRng::seed_from_u64(81);
        let a = Matrix::random(30, 5, &mut rng);
        let f = gram_qr(&a).unwrap();
        assert!(matmul(&f.r, &f.r_inv).approx_eq(&Matrix::identity(5), 1e-8));
    }

    #[test]
    fn agrees_with_mgs_qr_up_to_unitary_freedom() {
        let mut rng = StdRng::seed_from_u64(82);
        let a = Matrix::random(40, 4, &mut rng);
        let g = gram_qr(&a).unwrap();
        let m = crate::qr::qr(&a);
        // Column spaces must agree: projectors are equal.
        let p1 = crate::gemm::matmul_adj_b(&g.q, &g.q);
        let p2 = crate::gemm::matmul_adj_b(&m.q, &m.q);
        assert!(p1.approx_eq(&p2, 1e-8));
    }

    #[test]
    fn rank_deficient_input_gets_pseudo_inverse() {
        let mut rng = StdRng::seed_from_u64(83);
        let b = Matrix::random(20, 2, &mut rng);
        let c = Matrix::random(2, 5, &mut rng);
        let a = matmul(&b, &c); // rank 2, 20x5
        let f = gram_qr(&a).unwrap();
        assert!(matmul(&f.q, &f.r).approx_eq(&a, 1e-8));
        // Q has exactly rank-2 worth of orthonormal columns; Q^H Q is a projector.
        let qhq = matmul_adj_a(&f.q, &f.q);
        let p2 = matmul(&qhq, &qhq);
        assert!(p2.approx_eq(&qhq, 1e-7));
        assert!((qhq.trace().re - 2.0).abs() < 1e-6);
    }

    #[test]
    fn non_finite_input_is_rejected() {
        let mut a = Matrix::zeros(4, 2);
        a[(3, 1)] = crate::scalar::c64(f64::INFINITY, 0.0);
        assert_eq!(gram_qr(&a).unwrap_err().kind(), koala_error::ErrorKind::NonFinite);
    }

    #[test]
    fn qr_svd_degrade_reconstructs_and_pseudo_inverts() {
        let mut rng = StdRng::seed_from_u64(85);
        // Full-rank tall input.
        let a = Matrix::random(25, 4, &mut rng);
        let f = super::qr_svd_degrade(&a).unwrap();
        assert!(matmul(&f.q, &f.r).approx_eq(&a, 1e-9));
        assert!(f.q.has_orthonormal_cols(1e-8));
        assert!(matmul(&f.r, &f.r_inv).approx_eq(&Matrix::identity(4), 1e-8));
        // Rank-deficient input: R^{-1} acts as a pseudo-inverse, exactly like
        // the Gram path ([`rank_deficient_input_gets_pseudo_inverse`]).
        let b = matmul(&Matrix::random(20, 2, &mut rng), &Matrix::random(2, 5, &mut rng));
        let f = super::qr_svd_degrade(&b).unwrap();
        assert!(matmul(&f.q, &f.r).approx_eq(&b, 1e-8));
        let pinv = matmul(&f.r_inv, &f.r);
        // R^{-1} R is a rank-2 projector in R's row space.
        assert!(matmul(&pinv, &pinv).approx_eq(&pinv, 1e-7));
        // Realness propagates through the degrade path.
        let c = Matrix::random_real(15, 3, &mut rng);
        let f = super::qr_svd_degrade(&c).unwrap();
        assert!(f.q.is_real() && f.r_inv.is_real());
        assert!(matmul(&f.q, &f.r).approx_eq(&c, 1e-9));
    }
}

//! Thin QR factorization of complex matrices.
//!
//! Uses modified Gram-Schmidt with one reorthogonalization pass ("twice is
//! enough"), which gives orthogonality at the level of machine precision for
//! the well-scaled matrices produced by tensor-network algorithms, and keeps
//! the implementation simple and easy to distribute (the Gram-matrix variant
//! in [`crate::gram`] / `koala-cluster` follows the paper's Algorithm 5).

use crate::matrix::Matrix;
use crate::scalar::{Scalar, C64};

/// Result of a thin QR factorization `A = Q R` with `Q` of shape `(m, k)` and
/// `R` upper triangular of shape `(k, n)`, where `k = min(m, n)`.
#[derive(Debug, Clone)]
pub struct QrFactors {
    /// Matrix with orthonormal columns.
    pub q: Matrix,
    /// Upper-triangular factor.
    pub r: Matrix,
}

/// Thin QR via modified Gram-Schmidt with reorthogonalization.
///
/// Rank-deficient columns are replaced by deterministic unit vectors that are
/// orthogonalized against the basis built so far, and the corresponding
/// diagonal of `R` is set to zero, so `Q` always has exactly `min(m, n)`
/// orthonormal columns and `A = Q R` still holds.
///
/// This function cannot fail, so non-finite input is reported through the
/// factors: a column whose residual norm is NaN or infinite is never taken
/// for a null one — it counts as a non-finite detection
/// ([`koala_error::recovery::note_nonfinite_detection`]) and leaves a
/// non-finite entry in its column of `R` (a poisoned column past `min(m, n)`
/// does so through its projections). Fallible callers check `R`;
/// `koala_tensor::qr_split` turns it into a typed error.
///
/// The iteration is one algorithm over the scalar type. Inputs carrying the
/// structural [`Matrix::is_real`] hint run it at `f64` (no imaginary lane
/// ever touched — roughly a quarter of the arithmetic and half the memory
/// traffic) and both factors come back carrying the hint, so downstream
/// products stay on the real GEMM kernel; all other inputs run it at
/// [`C64`].
pub fn qr(a: &Matrix) -> QrFactors {
    if a.is_real() {
        qr_at::<f64>(a)
    } else {
        qr_at::<C64>(a)
    }
}

/// Twice-applied modified Gram-Schmidt over `cols`, the `n` columns (each of
/// length `m`) of a matrix held as `T`: the projection loop shared by [`qr`]
/// and the preconditioner of [`svd`](crate::svd::svd).
///
/// Returns the `k = min(m, n)` basis columns and the row-major `k x n` factor
/// `R`. A column whose residual norm is at most `tol` (a NaN norm is not) is
/// numerically null: its diagonal of `R` stays zero and `on_null(basis so
/// far)` supplies the basis column that takes its place. [`qr`] completes
/// the basis there
/// ([`complete_basis`]); the SVD passes an empty column, which later
/// projections skip for free, whose row of `R` stays exactly zero and which
/// `Matrix::from_scalar_cols` lays out as a zero column of `Q`.
pub(crate) fn mgs<T: Scalar>(
    mut cols: Vec<Vec<T>>,
    m: usize,
    tol: f64,
    on_null: impl Fn(&[Vec<T>]) -> Vec<T>,
) -> (Vec<Vec<T>>, Vec<T>) {
    let n = cols.len();
    let k = m.min(n);
    let mut q_cols: Vec<Vec<T>> = Vec::with_capacity(k);
    let mut r = vec![T::ZERO; k * n];

    for j in 0..k {
        let mut col = std::mem::take(&mut cols[j]);
        // Two passes of projection against the established basis.
        for _ in 0..2 {
            for (i, qi) in q_cols.iter().enumerate() {
                let proj: T = qi.iter().zip(col.iter()).map(|(qe, ce)| qe.conj() * *ce).sum();
                // Both passes accumulate into R; the second pass adds the
                // small correction left over by the first.
                r[i * n + j] += proj;
                for (ce, qe) in col.iter_mut().zip(qi.iter()) {
                    *ce -= *qe * proj;
                }
            }
        }
        let norm = col.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if norm.is_finite() && norm <= tol {
            q_cols.push(on_null(&q_cols));
        } else {
            // A NaN or infinite norm lands here whatever `tol` is (an
            // infinite entry makes `tol` infinite too): a poisoned column is
            // not null. It stays in the basis, so its diagonal of `R` is
            // non-finite and fallible callers can reject the factors.
            if !norm.is_finite() {
                koala_error::recovery::note_nonfinite_detection();
            }
            r[j * n + j] = T::from_real(norm);
            let inv = 1.0 / norm;
            col.iter_mut().for_each(|z| *z = z.scale(inv));
            q_cols.push(col);
        }
    }

    // Remaining columns (n > m case): project onto the finished basis.
    for j in k..n {
        for (i, qi) in q_cols.iter().enumerate() {
            r[i * n + j] = qi.iter().zip(cols[j].iter()).map(|(qe, ce)| qe.conj() * *ce).sum();
        }
    }
    (q_cols, r)
}

/// The completion step of [`qr`]: a canonical unit vector of length `m`,
/// orthogonalized against `basis` and normalised, to stand in for a
/// numerically null column.
fn complete_basis<T: Scalar>(basis: &[Vec<T>], m: usize) -> Vec<T> {
    let mut v = vec![T::ZERO; m];
    for seed in 0..m {
        v.iter_mut().for_each(|z| *z = T::ZERO);
        v[seed] = T::ONE;
        for _ in 0..2 {
            for qi in basis.iter() {
                let proj: T = qi.iter().zip(v.iter()).map(|(qe, ce)| qe.conj() * *ce).sum();
                for (ce, qe) in v.iter_mut().zip(qi.iter()) {
                    *ce -= *qe * proj;
                }
            }
        }
        let nv = v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if nv > 0.5 {
            let inv = 1.0 / nv;
            v.iter_mut().for_each(|z| *z = z.scale(inv));
            break;
        }
    }
    v
}

/// [`qr`] at one scalar type.
fn qr_at<T: Scalar>(a: &Matrix) -> QrFactors {
    let (m, n) = a.shape();
    let tol = a.norm_max().max(1.0) * 1e-14;
    let (q_cols, r) = mgs::<T>(a.gather_cols(false), m, tol, |basis| complete_basis(basis, m));
    QrFactors { q: Matrix::from_scalar_cols(m, q_cols), r: Matrix::from_scalars(m.min(n), n, r) }
}

/// Orthonormalize the columns of `a`, returning only the `Q` factor.
pub fn orthonormalize(a: &Matrix) -> Matrix {
    qr(a).q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_qr(a: &Matrix, tol: f64) {
        let QrFactors { q, r } = qr(a);
        let (m, n) = a.shape();
        let k = m.min(n);
        assert_eq!(q.shape(), (m, k));
        assert_eq!(r.shape(), (k, n));
        assert!(q.has_orthonormal_cols(tol), "Q columns not orthonormal");
        assert!(matmul(&q, &r).approx_eq(a, tol * a.norm_max().max(1.0)), "QR != A");
        // R upper triangular
        for i in 0..k {
            for j in 0..i.min(n) {
                assert!(r[(i, j)].abs() < tol);
            }
        }
    }

    #[test]
    fn tall_matrix() {
        let mut rng = StdRng::seed_from_u64(20);
        check_qr(&Matrix::random(20, 5, &mut rng), 1e-11);
    }

    #[test]
    fn square_matrix() {
        let mut rng = StdRng::seed_from_u64(21);
        check_qr(&Matrix::random(8, 8, &mut rng), 1e-11);
    }

    #[test]
    fn wide_matrix() {
        let mut rng = StdRng::seed_from_u64(22);
        check_qr(&Matrix::random(4, 9, &mut rng), 1e-11);
    }

    #[test]
    fn rank_deficient_matrix() {
        let mut rng = StdRng::seed_from_u64(23);
        let b = Matrix::random(10, 2, &mut rng);
        let c = Matrix::random(2, 6, &mut rng);
        let a = matmul(&b, &c); // rank <= 2 but 10x6
        let QrFactors { q, r } = qr(&a);
        assert!(q.has_orthonormal_cols(1e-10));
        assert!(matmul(&q, &r).approx_eq(&a, 1e-10));
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(5, 3);
        let QrFactors { q, r } = qr(&a);
        assert!(q.has_orthonormal_cols(1e-12));
        assert!(r.norm_max() < 1e-14);
    }

    #[test]
    fn identity_input() {
        let a = Matrix::identity(4);
        let QrFactors { q, r } = qr(&a);
        assert!(q.approx_eq(&Matrix::identity(4), 1e-14));
        assert!(r.approx_eq(&Matrix::identity(4), 1e-14));
    }

    #[test]
    fn orthonormalize_is_projection_of_qr() {
        let mut rng = StdRng::seed_from_u64(25);
        let a = Matrix::random(12, 4, &mut rng);
        let q = orthonormalize(&a);
        assert!(q.has_orthonormal_cols(1e-11));
        // Column spaces agree: Q Q^H A == A.
        let proj = matmul(&q, &crate::gemm::matmul_adj_a(&q, &a));
        assert!(proj.approx_eq(&a, 1e-10));
    }
}

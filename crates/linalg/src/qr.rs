//! Thin QR factorization of complex matrices.
//!
//! Uses modified Gram-Schmidt with one reorthogonalization pass ("twice is
//! enough"), which gives orthogonality at the level of machine precision for
//! the well-scaled matrices produced by tensor-network algorithms, and keeps
//! the implementation simple and easy to distribute (the Gram-matrix variant
//! in [`crate::gram`] / `koala-cluster` follows the paper's Algorithm 5).
//! The columns live in one column-major buffer with split real and
//! imaginary planes, and every projection, update and norm is one of the
//! 8-lane kernels of `lanes.rs` (AVX-512F intrinsics where the target has
//! them, bit-identical portable loops elsewhere).

use crate::lanes::{Cols, Lanes};
use crate::matrix::Matrix;
use crate::scalar::C64;

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
/// A column whose Gram-Schmidt residual is at most `1e-14 |A|_F` is
/// numerically dependent (a tolerance relative to the input's scale, so a
/// full-rank input is full rank at any scale). Such columns are replaced by
/// deterministic unit vectors that are orthogonalized against the basis
/// built so far, and the corresponding diagonal of `R` is set to zero, so `Q` always has exactly `min(m, n)`
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

/// Twice-applied modified Gram-Schmidt over the `n` columns of `cols`
/// (each of length `m`), in place: the projection loop shared by [`qr`] and
/// the preconditioner of [`svd`](crate::svd::svd).
///
/// On return the first `k = min(m, n)` columns of `cols` are the basis, and
/// the result is the row-major `k x n` factor `R`. Columns past `k` keep the
/// input they held. A column whose residual norm is at most `tol` (a NaN
/// norm is not) is numerically null, and its diagonal of `R` stays zero.
/// With `complete` the basis is completed there ([`complete_basis`], as
/// [`qr`] does); without it the column is left zero, later projections skip
/// it, and its row of `R` stays exactly zero (the SVD's convention).
pub(crate) fn mgs<T: Lanes>(cols: &mut Cols<T>, tol: f64, complete: bool) -> Vec<T> {
    let (m, n, stride) = (cols.col_len(), cols.ncols(), cols.stride());
    let k = m.min(n);
    let mut r = vec![T::ZERO; k * n];
    // The basis columns projections run against: all but the zeroed nulls.
    let mut live: Vec<usize> = Vec::with_capacity(k);

    for j in 0..k {
        let (basis, col) = cols.split_col_mut(j);
        // Two passes of projection against the established basis.
        for _ in 0..2 {
            for &i in &live {
                let qi = &basis[i * stride..(i + 1) * stride];
                let proj = T::dotc(qi, col);
                // Both passes accumulate into R; the second pass adds the
                // small correction left over by the first.
                r[i * n + j] += proj;
                T::axpy(-proj, qi, col);
            }
        }
        let norm = T::col_norm_sqr(col).sqrt();
        if norm.is_finite() && norm <= tol {
            if complete {
                complete_basis::<T>(basis, &live, stride, col, m);
                live.push(j);
            } else {
                col.fill(0.0);
            }
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
            col.iter_mut().for_each(|x| *x *= inv);
            live.push(j);
        }
    }

    // Remaining columns (n > m case): project onto the finished basis.
    for j in k..n {
        for &i in &live {
            r[i * n + j] = T::dotc(cols.col(i), cols.col(j));
        }
    }
    r
}

/// The completion step of [`qr`]: overwrite `col` (of length `m`) with a
/// canonical unit vector orthogonalized against the `live` columns of
/// `basis` and normalised, to stand in for a numerically null column.
fn complete_basis<T: Lanes>(
    basis: &[f64],
    live: &[usize],
    stride: usize,
    col: &mut [f64],
    m: usize,
) {
    for seed in 0..m {
        col.fill(0.0);
        T::write(col, seed, T::ONE);
        for _ in 0..2 {
            for &i in live {
                let qi = &basis[i * stride..(i + 1) * stride];
                let proj = T::dotc(qi, col);
                T::axpy(-proj, qi, col);
            }
        }
        let nv = T::col_norm_sqr(col).sqrt();
        if nv > 0.5 {
            let inv = 1.0 / nv;
            col.iter_mut().for_each(|x| *x *= inv);
            break;
        }
    }
}

/// [`qr`] at one scalar type. The null tolerance is relative to the input's
/// scale, like the SVD preconditioner's, so a well-conditioned input is
/// factorized the same at any scale; an exactly zero column still has a
/// zero residual and completes the basis.
fn qr_at<T: Lanes>(a: &Matrix) -> QrFactors {
    let (m, n) = a.shape();
    let tol = 1e-14 * a.norm_fro();
    let k = m.min(n);
    // `Q` is gathered into a buffer allocated before the column buffer.
    // Callers such as `qr_split` keep `Q`, and allocated after the column
    // buffer it sat above that buffer's freed bytes in the heap for the rest
    // of its life, which raised `serve_batch`'s peak RSS by 5 %. (The SVD
    // preconditioner's `Q` dies inside `svd`; allocated first there, it cost
    // a page fault per warm 49 x 343 complex `svd`.)
    let q = Vec::with_capacity(m * k);
    let mut cols = Cols::<T>::from_matrix(a, false);
    let r = mgs(&mut cols, tol, true);
    QrFactors { q: cols.to_matrix(k, q), r: Matrix::from_scalars(k, n, r) }
}

/// Orthonormalize the columns of `a`, returning only the `Q` factor.
pub(crate) fn orthonormalize(a: &Matrix) -> Matrix {
    qr(a).q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Factor `a` scaled by each of 1e-20, 1e-15, 1 and 1e20: a
    /// well-conditioned input is full rank at any scale, and `QR = A` holds
    /// relative to that scale.
    fn check_qr(a: &Matrix, tol: f64) {
        for scale in [1e-20, 1e-15, 1.0, 1e20] {
            let a = a.scale(C64::from_real(scale));
            let QrFactors { q, r } = qr(&a);
            let (m, n) = a.shape();
            let k = m.min(n);
            assert_eq!(q.shape(), (m, k));
            assert_eq!(r.shape(), (k, n));
            assert!(q.has_orthonormal_cols(tol), "Q columns not orthonormal at scale {scale:e}");
            assert!(matmul(&q, &r).approx_eq(&a, tol * a.norm_max()), "QR != A at scale {scale:e}");
            // R upper triangular
            for i in 0..k {
                for j in 0..i.min(n) {
                    assert!(r[(i, j)].abs() < tol);
                }
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

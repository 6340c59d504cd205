//! Hermitian eigendecomposition via the cyclic Jacobi method.
//!
//! The Gram-matrix orthogonalization of the paper's Algorithm 5 and the
//! exponentials of local Hamiltonian terms both reduce to Hermitian
//! eigendecompositions of small matrices, for which Jacobi iteration is
//! simple, accurate, and fast enough.

use crate::matrix::Matrix;
use crate::scalar::{Scalar, C64};
use koala_error::{KoalaError, Result};

/// Eigendecomposition `A = V diag(lambda) V^H` of a Hermitian matrix, with
/// real eigenvalues sorted in ascending order and orthonormal eigenvectors in
/// the columns of `V`.
#[derive(Debug, Clone)]
pub struct EigH {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors (column `j` corresponds to `values[j]`).
    pub vectors: Matrix,
}

/// Maximum number of Jacobi sweeps before reporting non-convergence.
const MAX_SWEEPS: usize = 60;

/// Compute the eigendecomposition of a Hermitian matrix.
///
/// The matrix is symmetrised as `(A + A^H)/2` before iterating so that tiny
/// non-Hermitian round-off coming from upstream contractions is tolerated; a
/// grossly non-Hermitian input is rejected, and a non-finite one is reported
/// as such (kind `NonFinite`) before the Hermitian test can misname it.
///
/// The iteration is one algorithm over the scalar type. Inputs carrying the
/// structural [`Matrix::is_real`] hint (a real Hermitian matrix is
/// symmetric) run it at `f64`: the rotation phase degenerates to the sign of
/// the off-diagonal entry, every rotation is a plain real Givens rotation,
/// and the eigenvectors come back exactly real with the hint set, which
/// keeps downstream GEMMs (Gram-based QR/SVD, matrix functions of real
/// operators) on the real kernel. All other inputs run it at [`C64`].
pub fn eigh(a: &Matrix) -> Result<EigH> {
    let (m, n) = a.shape();
    if m != n {
        return Err(KoalaError::shape(format!("eigh: matrix must be square, got {m}x{n}")));
    }
    a.validate_finite("eigh input")?;
    let scale = a.norm_max().max(1.0);
    if !a.is_hermitian(1e-8 * scale) {
        return Err(KoalaError::invalid("eigh: matrix is not Hermitian"));
    }
    if a.is_real() {
        jacobi_eigh::<f64>(a)
    } else {
        jacobi_eigh::<C64>(a)
    }
}

/// Cosine and sine of the real Jacobi rotation that diagonalises
/// `[[app, g], [g, aqq]]` (`g > 0`), taking the smaller of the two angles.
/// Shared with the one-sided Jacobi SVD, whose column pairs define the same
/// 2x2 problem.
pub(crate) fn jacobi_rotation(app: f64, aqq: f64, g: f64) -> (f64, f64) {
    let zeta = (aqq - app) / (2.0 * g);
    let t = if zeta >= 0.0 {
        1.0 / (zeta + (1.0 + zeta * zeta).sqrt())
    } else {
        -1.0 / (-zeta + (1.0 + zeta * zeta).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    (c, c * t)
}

/// Cyclic Jacobi on the Hermitian average of `A`, held row-major as `T`.
fn jacobi_eigh<T: Scalar>(a: &Matrix) -> Result<EigH> {
    let n = a.nrows();
    // Work on the Hermitian average to kill round-off asymmetry.
    let mut h = vec![T::ZERO; n * n];
    for i in 0..n {
        for j in 0..n {
            h[i * n + j] = (T::from_c64(a[(i, j)]) + T::from_c64(a[(j, i)]).conj()).scale(0.5);
        }
    }
    let mut v = vec![T::ZERO; n * n];
    for i in 0..n {
        v[i * n + i] = T::ONE;
    }

    let off = |h: &[T]| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    s += h[i * n + j].norm_sqr();
                }
            }
        }
        s.sqrt()
    };
    let fro = h.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt().max(1e-300);

    let tol = 1e-14 * fro;
    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        if off(&h) <= tol {
            converged = true;
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = h[p * n + q];
                let g = apq.abs();
                if g <= 1e-300 {
                    continue;
                }
                let app = h[p * n + p].re();
                let aqq = h[q * n + q].re();
                // Phase that makes the off-diagonal entry real and positive.
                let e_m = apq.unit_phase_conj(g);
                let (c, s) = jacobi_rotation(app, aqq, g);
                // Unitary 2x2: J = diag(1, e^{-i phi}) * [[c, s], [-s, c]]
                // i.e. columns (p', q') = (c*e_p - s*e^{-i phi} e_q, s*e_p + c*e^{-i phi} e_q).
                let jpp = T::from_real(c);
                let jpq = T::from_real(s);
                let jqp = -e_m.scale(s);
                let jqq = e_m.scale(c);

                // A <- J^H A J : update columns then rows.
                for i in 0..n {
                    let aip = h[i * n + p];
                    let aiq = h[i * n + q];
                    h[i * n + p] = aip * jpp + aiq * jqp;
                    h[i * n + q] = aip * jpq + aiq * jqq;
                }
                for j in 0..n {
                    let apj = h[p * n + j];
                    let aqj = h[q * n + j];
                    h[p * n + j] = jpp.conj() * apj + jqp.conj() * aqj;
                    h[q * n + j] = jpq.conj() * apj + jqq.conj() * aqj;
                }
                // V <- V J
                for i in 0..n {
                    let vip = v[i * n + p];
                    let viq = v[i * n + q];
                    v[i * n + p] = vip * jpp + viq * jqp;
                    v[i * n + q] = vip * jpq + viq * jqq;
                }
            }
        }
    }
    if !converged && off(&h) > 1e-8 * fro {
        return Err(KoalaError::no_convergence("jacobi-eigh", MAX_SWEEPS));
    }

    let mut order: Vec<usize> = (0..n).collect();
    let values_raw: Vec<f64> = (0..n).map(|i| h[i * n + i].re()).collect();
    order.sort_by(|&i, &j| {
        values_raw[i].partial_cmp(&values_raw[j]).unwrap_or(std::cmp::Ordering::Equal)
    });

    let values: Vec<f64> = order.iter().map(|&i| values_raw[i]).collect();
    let mut vectors = vec![T::ZERO; n * n];
    for (newcol, &oldcol) in order.iter().enumerate() {
        for r in 0..n {
            vectors[r * n + newcol] = v[r * n + oldcol];
        }
    }
    Ok(EigH { values, vectors: Matrix::from_scalars(n, n, vectors) })
}

/// Eigenvalues only (ascending).
pub fn eigvalsh(a: &Matrix) -> Result<Vec<f64>> {
    Ok(eigh(a)?.values)
}

/// Apply a real function to a Hermitian matrix through its eigendecomposition:
/// `f(A) = V diag(f(lambda)) V^H`.
pub(crate) fn funm_hermitian(a: &Matrix, f: impl Fn(f64) -> C64) -> Result<Matrix> {
    let EigH { values, vectors } = eigh(a)?;
    let n = values.len();
    let mut fd = Matrix::zeros(n, n);
    let mut diag_real = true;
    for (i, &lam) in values.iter().enumerate() {
        let fi = f(lam);
        fd[(i, i)] = fi;
        diag_real &= fi.im == 0.0;
    }
    if diag_real {
        // Zeros stayed zero and every written diagonal entry is real;
        // IndexMut dropped the hint conservatively. With real eigenvectors
        // (real input), f(A) then assembles entirely on the real kernel.
        fd.assume_real();
    }
    let vf = crate::gemm::matmul(&vectors, &fd);
    Ok(crate::gemm::matmul_adj_b(&vf, &vectors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matmul_adj_b};
    use crate::scalar::c64;
    use koala_error::ErrorKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_eigh(a: &Matrix, tol: f64) -> EigH {
        let e = eigh(a).expect("eigh failed");
        let n = a.nrows();
        assert!(e.vectors.has_orthonormal_cols(tol), "eigenvectors not orthonormal");
        // A V = V diag(lambda)
        let av = matmul(a, &e.vectors);
        let vd = matmul(&e.vectors, &Matrix::from_diag_real(&e.values));
        assert!(av.approx_eq(&vd, tol * a.norm_max().max(1.0) * n as f64), "A V != V D");
        // ascending order
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        e
    }

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::from_diag_real(&[3.0, -1.0, 2.0]);
        let e = check_eigh(&a, 1e-12);
        assert!((e.values[0] + 1.0).abs() < 1e-12);
        assert!((e.values[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pauli_y_eigenvalues() {
        // Y = [[0, -i], [i, 0]] has eigenvalues -1, +1.
        let a = Matrix::from_vec(2, 2, vec![C64::ZERO, c64(0.0, -1.0), c64(0.0, 1.0), C64::ZERO])
            .unwrap();
        let e = check_eigh(&a, 1e-12);
        assert!((e.values[0] + 1.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_hermitian_various_sizes() {
        let mut rng = StdRng::seed_from_u64(30);
        for &n in &[1usize, 2, 3, 5, 8, 16, 33] {
            let a = Matrix::random_hermitian(n, &mut rng);
            check_eigh(&a, 1e-9);
        }
    }

    #[test]
    fn eigenvalue_sum_is_trace() {
        let mut rng = StdRng::seed_from_u64(31);
        let a = Matrix::random_hermitian(10, &mut rng);
        let e = eigh(&a).unwrap();
        let sum: f64 = e.values.iter().sum();
        assert!((sum - a.trace().re).abs() < 1e-10);
    }

    #[test]
    fn rejects_non_square_and_non_hermitian() {
        assert_eq!(eigh(&Matrix::zeros(2, 3)).unwrap_err().kind(), ErrorKind::Shape);
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = c64(5.0, 0.0);
        assert!(eigh(&a).is_err());
    }

    #[test]
    fn non_finite_input_is_rejected_up_front() {
        // NaN on and off the diagonal and an infinity: each must be named as
        // corruption, not as a non-Hermitian argument.
        for (i, j, bad) in [(1, 1, f64::NAN), (0, 2, f64::NAN), (2, 0, f64::INFINITY)] {
            let before = koala_error::recovery::snapshot();
            let mut a = Matrix::identity(3);
            a[(i, j)] = c64(bad, 0.0);
            let e = eigh(&a).unwrap_err();
            assert_eq!(e.kind(), ErrorKind::NonFinite);
            assert!(e.message().contains("eigh input"), "{e}");
            let after = koala_error::recovery::snapshot();
            assert!(after.nonfinite_detections > before.nonfinite_detections);
        }
    }

    #[test]
    fn funm_exponential_of_zero_is_identity() {
        let a = Matrix::zeros(4, 4);
        let e = funm_hermitian(&a, |x| c64(x.exp(), 0.0)).unwrap();
        assert!(e.approx_eq(&Matrix::identity(4), 1e-13));
    }

    #[test]
    fn funm_square_matches_matrix_square() {
        let mut rng = StdRng::seed_from_u64(32);
        let a = Matrix::random_hermitian(6, &mut rng);
        let sq = funm_hermitian(&a, |x| c64(x * x, 0.0)).unwrap();
        assert!(sq.approx_eq(&matmul(&a, &a), 1e-9));
    }

    #[test]
    fn reconstruction_from_factors() {
        let mut rng = StdRng::seed_from_u64(33);
        let a = Matrix::random_hermitian(7, &mut rng);
        let EigH { values, vectors } = eigh(&a).unwrap();
        let rec = matmul_adj_b(&matmul(&vectors, &Matrix::from_diag_real(&values)), &vectors);
        assert!(rec.approx_eq(&a, 1e-10));
    }
}

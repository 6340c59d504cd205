//! Matrix exponentials.
//!
//! The simulation layer needs `exp(factor * H)` for Hermitian `H`
//! (imaginary-time evolution uses a real negative `factor`, real-time
//! evolution / gate synthesis uses a purely imaginary one), computed through
//! the eigendecomposition.
//!
//! The unit tests cross-check it against a general dense `expm` (scaling and
//! squaring with a truncated Taylor series).

use crate::eig::funm_hermitian;
use crate::matrix::Matrix;
use crate::scalar::C64;
use koala_error::Result;

/// `exp(factor * H)` for Hermitian `H`.
///
/// When `H` carries the structural realness hint and `factor` is real, the
/// result `U exp(factor * Lambda) U^H` is real *mathematically* (a real
/// Hermitian matrix is symmetric, its spectrum is real, and a real function
/// of it is real); the O(eps) imaginary rounding noise left behind by the
/// complex eigendecomposition's rotation phases is projected away and the
/// output is marked real. This is what makes Trotter gates of real
/// Hamiltonians (TFI imaginary-time evolution) enter the tensor network with
/// the realness hint intact; an imaginary `factor` (real-time evolution,
/// `RZ`-style gates) leaves the result unhinted as it is genuinely complex.
///
/// With the real-only Jacobi path in [`crate::eig::eigh`] the result of a
/// hinted-real `H` with a real factor is exactly real and arrives already
/// hinted, so the projection below is normally dead. It is kept as a guarded
/// backstop should a future `funm_hermitian` change stop propagating the
/// hint: `Matrix::project_real_if_negligible` scales its tolerance with
/// `max_abs * n * EPSILON` instead of using a hardcoded eps, so it neither
/// loses the hint on large matrices nor falsely projects genuinely complex
/// results. (An *unhinted* real `H` is deliberately not projected — nothing
/// guarantees its exponential is mathematically real.)
pub fn expm_hermitian(h: &Matrix, factor: C64) -> Result<Matrix> {
    let mut out = funm_hermitian(h, |lam| (factor.scale(lam)).exp())?;
    if h.is_real() && factor.im == 0.0 && !out.is_real() {
        out.project_real_if_negligible();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use crate::scalar::c64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// General matrix exponential by scaling and squaring with a truncated Taylor
    /// series. Intended for small matrices (gates are 2x2 or 4x4); accuracy is at
    /// machine-precision level for the norms encountered there.
    fn expm(a: &Matrix) -> Result<Matrix> {
        let n = a.nrows();
        assert_eq!(n, a.ncols(), "expm: matrix must be square");
        let norm = a.norm_max();
        // Scale so the series converges quickly.
        let s = if norm > 0.5 { (norm / 0.5).log2().ceil() as u32 } else { 0 };
        let scale = 1.0 / f64::powi(2.0, s as i32);
        let a_scaled = a.scale(C64::from_real(scale));

        // Taylor series sum_{k=0}^{K} A^k / k!
        let mut term = Matrix::identity(n);
        let mut sum = Matrix::identity(n);
        for k in 1..=24 {
            term = matmul(&term, &a_scaled).scale(C64::from_real(1.0 / k as f64));
            sum += &term;
            if term.norm_max() < 1e-18 {
                break;
            }
        }
        // Undo the scaling by repeated squaring.
        let mut result = sum;
        for _ in 0..s {
            result = matmul(&result, &result);
        }
        Ok(result)
    }

    #[test]
    fn exponential_of_zero() {
        assert!(expm(&Matrix::zeros(3, 3)).unwrap().approx_eq(&Matrix::identity(3), 1e-14));
        assert!(expm_hermitian(&Matrix::zeros(3, 3), c64(1.0, 0.0))
            .unwrap()
            .approx_eq(&Matrix::identity(3), 1e-14));
    }

    #[test]
    fn hermitian_and_general_agree() {
        let mut rng = StdRng::seed_from_u64(60);
        let h = Matrix::random_hermitian(5, &mut rng);
        let factor = c64(-0.3, 0.0);
        let e1 = expm_hermitian(&h, factor).unwrap();
        let e2 = expm(&h.scale(factor)).unwrap();
        assert!(e1.approx_eq(&e2, 1e-10));
    }

    #[test]
    fn imaginary_factor_gives_unitary() {
        let mut rng = StdRng::seed_from_u64(61);
        let h = Matrix::random_hermitian(4, &mut rng);
        let u = expm_hermitian(&h, c64(0.0, -1.0)).unwrap();
        assert!(u.has_orthonormal_cols(1e-10), "exp(-iH) should be unitary");
    }

    #[test]
    fn pauli_rotation_matches_closed_form() {
        // exp(-i theta/2 * Y) = [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]
        let y = Matrix::from_vec(2, 2, vec![C64::ZERO, c64(0.0, -1.0), c64(0.0, 1.0), C64::ZERO])
            .unwrap();
        let theta = 0.9f64;
        let u = expm_hermitian(&y, c64(0.0, -theta / 2.0)).unwrap();
        let expected = Matrix::from_real(
            2,
            2,
            &[(theta / 2.0).cos(), -(theta / 2.0).sin(), (theta / 2.0).sin(), (theta / 2.0).cos()],
        )
        .unwrap();
        assert!(u.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn additivity_for_commuting_matrices() {
        let a = Matrix::from_diag_real(&[0.3, -0.7, 1.1]);
        let b = Matrix::from_diag_real(&[-0.2, 0.4, 0.9]);
        let lhs = expm(&(&a + &b)).unwrap();
        let rhs = matmul(&expm(&a).unwrap(), &expm(&b).unwrap());
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn large_norm_uses_squaring_correctly() {
        let mut rng = StdRng::seed_from_u64(62);
        let h = Matrix::random_hermitian(4, &mut rng).scale(c64(6.0, 0.0));
        let e1 = expm(&h).unwrap();
        let e2 = expm_hermitian(&h, C64::ONE).unwrap();
        assert!(e1.approx_eq(&e2, 1e-7 * e1.norm_max()));
    }
}

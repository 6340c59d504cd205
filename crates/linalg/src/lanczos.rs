//! Lanczos iteration for extremal eigenpairs of large Hermitian operators.
//!
//! Used by the application layer to compute reference ground-state energies of
//! spin Hamiltonians on the full 2^n state vector (the "state vector" curves
//! of Figures 13 and 14) without ever forming the Hamiltonian matrix.

use crate::eig::eigh;
use crate::matrix::Matrix;
use crate::scalar::{c64, C64};
use koala_error::{KoalaError, Result};
use rand::Rng;

/// A Hermitian operator acting on vectors of a fixed dimension.
pub trait HermitianOp {
    /// Dimension of the underlying vector space.
    fn dim(&self) -> usize;
    /// `y = A x`.
    fn apply(&self, x: &[C64]) -> Vec<C64>;
}

/// Result of a Lanczos ground-state computation.
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// Smallest eigenvalue found.
    pub value: f64,
    /// Corresponding normalized eigenvector.
    pub vector: Vec<C64>,
    /// Number of Krylov vectors actually used.
    pub iterations: usize,
}

fn dot(a: &[C64], b: &[C64]) -> C64 {
    a.iter().zip(b.iter()).map(|(x, y)| x.conj() * *y).sum()
}

fn norm(a: &[C64]) -> f64 {
    a.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
}

fn axpy(y: &mut [C64], alpha: C64, x: &[C64]) {
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi = yi.mul_add(alpha, *xi);
    }
}

/// Compute the smallest eigenpair of a Hermitian operator with Lanczos
/// iteration (full reorthogonalization, restart-free).
///
/// `max_krylov` bounds the Krylov space dimension; `tol` is the residual
/// tolerance on `||A v - lambda v||`.
pub fn lanczos_ground_state<O: HermitianOp, R: Rng + ?Sized>(
    op: &O,
    max_krylov: usize,
    tol: f64,
    rng: &mut R,
) -> Result<LanczosResult> {
    let n = op.dim();
    if n == 0 {
        return Err(KoalaError::invalid("lanczos: empty operator"));
    }
    let m = max_krylov.min(n).max(1);

    // Random normalized start vector.
    let mut v0: Vec<C64> =
        (0..n).map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect();
    let nv = norm(&v0);
    v0.iter_mut().for_each(|z| *z = z.scale(1.0 / nv));

    let mut basis: Vec<Vec<C64>> = vec![v0];
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();

    let mut best: Option<LanczosResult> = None;

    for j in 0..m {
        let vj = basis[j].clone();
        let mut w = op.apply(&vj);
        let alpha = dot(&vj, &w).re;
        alphas.push(alpha);
        // w <- w - alpha v_j - beta_{j-1} v_{j-1}
        axpy(&mut w, c64(-alpha, 0.0), &vj);
        if j > 0 {
            let beta_prev = betas[j - 1];
            let prev = basis[j - 1].clone();
            axpy(&mut w, c64(-beta_prev, 0.0), &prev);
        }
        // Full reorthogonalization against the whole basis (twice).
        for _ in 0..2 {
            for b in &basis {
                let proj = dot(b, &w);
                axpy(&mut w, -proj, b);
            }
        }

        // Solve the small tridiagonal problem to monitor convergence.
        let k = alphas.len();
        let mut t = Matrix::zeros(k, k);
        for i in 0..k {
            t[(i, i)] = c64(alphas[i], 0.0);
            if i + 1 < k {
                t[(i, i + 1)] = c64(betas[i], 0.0);
                t[(i + 1, i)] = c64(betas[i], 0.0);
            }
        }
        let e = eigh(&t)?;
        let lambda = e.values[0];
        // Ritz vector in the original space.
        let mut ritz = vec![C64::ZERO; n];
        for (i, b) in basis.iter().enumerate() {
            let coeff = e.vectors[(i, 0)];
            axpy(&mut ritz, coeff, b);
        }
        let nr = norm(&ritz);
        ritz.iter_mut().for_each(|z| *z = z.scale(1.0 / nr));
        // Residual norm.
        let av = op.apply(&ritz);
        let mut res = av.clone();
        axpy(&mut res, c64(-lambda, 0.0), &ritz);
        let resid = norm(&res);
        let result = LanczosResult { value: lambda, vector: ritz, iterations: k };
        let improved = best.as_ref().is_none_or(|b| lambda < b.value + 1e-14);
        if improved {
            best = Some(result);
        }
        if resid < tol {
            if let Some(b) = best.take() {
                return Ok(b);
            }
        }

        let beta = norm(&w);
        if beta < 1e-14 {
            // Krylov space exhausted (exact invariant subspace reached).
            break;
        }
        betas.push(beta);
        w.iter_mut().for_each(|z| *z = z.scale(1.0 / beta));
        basis.push(w);
    }

    best.ok_or_else(|| KoalaError::no_convergence("lanczos", m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Hermitian matrix wrapper, the dense oracle operator.
    struct DenseHermitianOp<'a> {
        matrix: &'a Matrix,
    }

    impl<'a> DenseHermitianOp<'a> {
        /// Wrap a Hermitian matrix.
        fn new(matrix: &'a Matrix) -> Self {
            assert_eq!(matrix.nrows(), matrix.ncols());
            DenseHermitianOp { matrix }
        }
    }

    impl HermitianOp for DenseHermitianOp<'_> {
        fn dim(&self) -> usize {
            self.matrix.nrows()
        }
        fn apply(&self, x: &[C64]) -> Vec<C64> {
            self.matrix.matvec(x)
        }
    }

    #[test]
    fn finds_smallest_eigenvalue_of_diagonal() {
        let mut rng = StdRng::seed_from_u64(90);
        let a = Matrix::from_diag_real(&[4.0, -2.0, 7.0, 0.5, -1.5]);
        let r = lanczos_ground_state(&DenseHermitianOp::new(&a), 20, 1e-10, &mut rng).unwrap();
        assert!((r.value + 2.0).abs() < 1e-8);
    }

    #[test]
    fn matches_dense_eigensolver_on_random_hermitian() {
        let mut rng = StdRng::seed_from_u64(91);
        let a = Matrix::random_hermitian(40, &mut rng);
        let dense = eigh(&a).unwrap();
        let r = lanczos_ground_state(&DenseHermitianOp::new(&a), 60, 1e-9, &mut rng).unwrap();
        assert!((r.value - dense.values[0]).abs() < 1e-7, "{} vs {}", r.value, dense.values[0]);
        // Eigenvector check: A v ≈ lambda v.
        let av = a.matvec(&r.vector);
        let err: f64 = av
            .iter()
            .zip(r.vector.iter())
            .map(|(x, v)| (*x - v.scale(r.value)).norm_sqr())
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-6);
    }

    #[test]
    fn small_krylov_space_still_returns_upper_bound() {
        let mut rng = StdRng::seed_from_u64(92);
        let a = Matrix::random_hermitian(30, &mut rng);
        let dense = eigh(&a).unwrap();
        let r = lanczos_ground_state(&DenseHermitianOp::new(&a), 5, 1e-12, &mut rng).unwrap();
        // Variational property: Ritz value >= true ground state.
        assert!(r.value >= dense.values[0] - 1e-9);
    }

    #[test]
    fn dimension_one_operator() {
        let mut rng = StdRng::seed_from_u64(93);
        let a = Matrix::from_diag_real(&[3.5]);
        let r = lanczos_ground_state(&DenseHermitianOp::new(&a), 3, 1e-12, &mut rng).unwrap();
        assert!((r.value - 3.5).abs() < 1e-10);
    }
}

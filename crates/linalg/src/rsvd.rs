//! Randomized SVD with an implicitly applied operator (paper Algorithm 4).
//!
//! The operator `A` does not need to exist as an explicit matrix — only its
//! action `A * X` and `A^H * Y` on blocks of vectors is required. In the PEPS
//! algorithms the operator is an uncontracted tensor sub-network (the one
//! network operator of `koala_tensor::einsumsvd`), and applying it implicitly
//! is what gives IBMPS / two-layer IBMPS their asymptotic advantage (Table II
//! of the paper).

use crate::gemm::{matmul, matmul_adj_a};
use crate::matrix::Matrix;
use crate::qr::orthonormalize;
use crate::svd::{svd, Svd};
use koala_error::{KoalaError, Result};
use rand::Rng;

/// A linear operator `C^{ncols} -> C^{nrows}` that can be applied to blocks of
/// vectors without being materialised.
pub trait LinearOp {
    /// Output dimension.
    fn nrows(&self) -> usize;
    /// Input dimension.
    fn ncols(&self) -> usize;
    /// Apply `A * X` where `X` has shape `(ncols, k)`; result `(nrows, k)`.
    fn apply(&self, x: &Matrix) -> Matrix;
    /// Apply `A^H * Y` where `Y` has shape `(nrows, k)`; result `(ncols, k)`.
    fn apply_adj(&self, y: &Matrix) -> Matrix;
    /// Structural realness of the operator: `true` guarantees it maps real
    /// blocks to real blocks (every tensor/matrix it is built from carries
    /// the [`Matrix::is_real`] hint). [`rsvd`] then draws a *real* sketch, so
    /// the whole iteration — operator applications, QR orthonormalizations,
    /// and the final small SVD — stays on the real-only kernels and the
    /// returned factors carry the hint. Defaults to `false` (unknown).
    fn is_real(&self) -> bool {
        false
    }
}

/// Adapter exposing an explicit matrix as a [`LinearOp`].
pub struct MatOp<'a> {
    matrix: &'a Matrix,
}

impl<'a> MatOp<'a> {
    /// Wrap a matrix reference.
    pub fn new(matrix: &'a Matrix) -> Self {
        MatOp { matrix }
    }
}

impl LinearOp for MatOp<'_> {
    fn nrows(&self) -> usize {
        self.matrix.nrows()
    }
    fn ncols(&self) -> usize {
        self.matrix.ncols()
    }
    fn apply(&self, x: &Matrix) -> Matrix {
        matmul(self.matrix, x)
    }
    fn apply_adj(&self, y: &Matrix) -> Matrix {
        matmul_adj_a(self.matrix, y)
    }
    fn is_real(&self) -> bool {
        self.matrix.is_real()
    }
}

/// Options controlling the randomized SVD.
#[derive(Debug, Clone, Copy)]
pub struct RsvdOptions {
    /// Target rank of the approximation.
    pub rank: usize,
    /// Extra columns carried through the iteration for accuracy.
    pub oversample: usize,
    /// Number of subspace (power) iterations (the paper's `k`).
    pub n_iter: usize,
}

impl RsvdOptions {
    /// Sensible defaults for a given rank: 10 oversamples, 2 power iterations.
    pub fn with_rank(rank: usize) -> Self {
        RsvdOptions { rank, oversample: 10, n_iter: 2 }
    }
}

/// Number of fresh-sketch retries after a failed randomized SVD attempt.
pub(crate) const MAX_SKETCH_RETRIES: usize = 2;

/// Randomized truncated SVD of an implicitly applied operator
/// (paper Algorithm 4). Returns factors with at most `rank` columns.
///
/// A failed attempt — the inner SVD of the sketch not converging, or the
/// assembled factors containing NaN/Inf — is retried with a fresh random
/// sketch up to `MAX_SKETCH_RETRIES` times (recorded on the
/// [`koala_error::recovery`] counters); an unlucky sketch is recoverable,
/// a genuinely corrupted operator is not and the last error propagates.
pub fn rsvd<O: LinearOp, R: Rng + ?Sized>(op: &O, opts: RsvdOptions, rng: &mut R) -> Result<Svd> {
    if opts.rank == 0 {
        return Err(KoalaError::invalid("rsvd: rank must be positive"));
    }
    let n = op.ncols();
    let m = op.nrows();
    if n == 0 || m == 0 {
        return Ok(Svd { u: Matrix::zeros(m, 0), s: vec![], vh: Matrix::zeros(0, n) });
    }
    let mut retries = 0;
    loop {
        match rsvd_attempt(op, opts, rng) {
            Err(_) if retries < MAX_SKETCH_RETRIES => {
                retries += 1;
                koala_error::recovery::note_rsvd_resketch();
            }
            done => return done,
        }
    }
}

/// One randomized-SVD attempt with a freshly drawn sketch.
fn rsvd_attempt<O: LinearOp, R: Rng + ?Sized>(
    op: &O,
    opts: RsvdOptions,
    rng: &mut R,
) -> Result<Svd> {
    let n = op.ncols();
    let m = op.nrows();
    // The sketch cannot be wider than either dimension of the operator.
    let l = (opts.rank + opts.oversample).min(n).min(m);

    // Q <- random n x l block with entries in [-1, 1] (paper's initialisation).
    // For a structurally real operator the sketch is drawn real, so every
    // operator application and orthonormalization below stays on the
    // real-only kernels and the returned factors carry the realness hint.
    let op_real = op.is_real();
    let mut q = Matrix::zeros(n, l);
    for v in q.data_mut() {
        *v = if op_real {
            crate::scalar::c64(rng.gen_range(-1.0..1.0), 0.0)
        } else {
            crate::scalar::c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        };
    }
    if op_real {
        q.assume_real();
    }

    // P <- orth(A Q)
    let mut p = orthonormalize(&op.apply(&q));
    // Subspace iteration: Q <- orth(A^H P); P <- orth(A Q)
    for _ in 0..opts.n_iter {
        q = orthonormalize(&op.apply_adj(&p));
        p = orthonormalize(&op.apply(&q));
    }

    // B = P^H A (l x n), represented implicitly as (A^H P)^H. Instead of
    // materialising the adjoint and factorizing B, factorize the tall sketch
    // A^H P = W S Z^H directly; then B = Z S W^H, so U = P Z (computed with
    // the adjoint of Z^H fused into the GEMM) and V^H = W^H (assembled
    // element-wise at the truncated size).
    let ahp = op.apply_adj(&p); // n x l
    let t = svd(ahp)?;
    let k = opts.rank.min(t.s.len());
    let zh_k = t.vh.truncate_rows(k); // Z^H, leading k rows
    let u = crate::gemm::gemm(crate::gemm::Op::None, crate::gemm::Op::Adjoint, &p, &zh_k);
    let mut vh = Matrix::zeros(k, n);
    for i in 0..k {
        for j in 0..n {
            vh[(i, j)] = t.u[(j, i)].conj();
        }
    }
    // Conjugated copies of real factors are real (IndexMut dropped the hint).
    if t.u.is_real() {
        vh.assume_real();
    }
    let s = t.s[..k].to_vec();
    if !s.iter().all(|x| x.is_finite()) {
        koala_error::recovery::note_nonfinite_detection();
        return Err(KoalaError::non_finite("rsvd: singular values"));
    }
    u.validate_finite("rsvd U factor")?;
    vh.validate_finite("rsvd Vh factor")?;
    Ok(Svd { u, s, vh })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svd::scale_cols;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Build a matrix with a prescribed, rapidly decaying spectrum.
    fn matrix_with_spectrum(m: usize, n: usize, spectrum: &[f64], rng: &mut StdRng) -> Matrix {
        let k = spectrum.len();
        let u = orthonormalize(&Matrix::random(m, k, rng));
        let v = orthonormalize(&Matrix::random(n, k, rng));
        matmul(&scale_cols(&u, spectrum), &v.adjoint())
    }

    #[test]
    fn recovers_low_rank_matrix_exactly() {
        let mut rng = StdRng::seed_from_u64(70);
        let spectrum = [5.0, 3.0, 1.0];
        let a = matrix_with_spectrum(30, 20, &spectrum, &mut rng);
        let f = rsvd(&MatOp::new(&a), RsvdOptions::with_rank(3), &mut rng).unwrap();
        assert!(f.reconstruct().approx_eq(&a, 1e-9));
        for (got, want) in f.s.iter().zip(spectrum.iter()) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn truncation_close_to_optimal_for_decaying_spectrum() {
        let mut rng = StdRng::seed_from_u64(71);
        let spectrum: Vec<f64> = (0..12).map(|i| (2.0f64).powi(-i)).collect();
        let a = matrix_with_spectrum(40, 25, &spectrum, &mut rng);
        let k = 5;
        let f = rsvd(&MatOp::new(&a), RsvdOptions { rank: k, oversample: 10, n_iter: 3 }, &mut rng)
            .unwrap();
        let err = (&a - &f.reconstruct()).norm_fro();
        let optimal: f64 = spectrum[k..].iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(err < 2.0 * optimal + 1e-12, "rsvd error {err} vs optimal {optimal}");
    }

    #[test]
    fn rank_larger_than_dimensions_is_clamped() {
        let mut rng = StdRng::seed_from_u64(73);
        let a = Matrix::random(5, 4, &mut rng);
        let f = rsvd(&MatOp::new(&a), RsvdOptions::with_rank(100), &mut rng).unwrap();
        assert!(f.rank() <= 4);
        assert!(f.reconstruct().approx_eq(&a, 1e-9));
    }

    #[test]
    fn zero_rank_rejected() {
        let mut rng = StdRng::seed_from_u64(74);
        let a = Matrix::random(3, 3, &mut rng);
        assert!(rsvd(&MatOp::new(&a), RsvdOptions { rank: 0, oversample: 0, n_iter: 0 }, &mut rng)
            .is_err());
    }

    /// Operator that corrupts its adjoint applications for the first few
    /// calls, then behaves like the wrapped matrix — models a transient
    /// fault. (Corruption on the forward `apply` is laundered by the MGS
    /// rank-deficiency handling inside `orthonormalize`; the adjoint feeds
    /// the inner SVD directly, which is where the NaN guard fires.)
    struct FlakyOp<'a> {
        inner: MatOp<'a>,
        poisoned_applies: std::cell::Cell<usize>,
    }

    impl LinearOp for FlakyOp<'_> {
        fn nrows(&self) -> usize {
            self.inner.nrows()
        }
        fn ncols(&self) -> usize {
            self.inner.ncols()
        }
        fn apply(&self, x: &Matrix) -> Matrix {
            self.inner.apply(x)
        }
        fn apply_adj(&self, y: &Matrix) -> Matrix {
            let left = self.poisoned_applies.get();
            let mut out = self.inner.apply_adj(y);
            if left > 0 {
                self.poisoned_applies.set(left - 1);
                out[(0, 0)] = crate::scalar::c64(f64::NAN, 0.0);
            }
            out
        }
        fn is_real(&self) -> bool {
            self.inner.is_real()
        }
    }

    #[test]
    fn transient_corruption_is_recovered_by_a_fresh_sketch() {
        let mut rng = StdRng::seed_from_u64(76);
        let a = Matrix::random(20, 12, &mut rng);
        // Poison every adjoint application of the first attempt (n_iter power
        // iterations + the final sketch), so attempt #1 must fail the NaN
        // guard and attempt #2 runs clean.
        let op = FlakyOp { inner: MatOp::new(&a), poisoned_applies: std::cell::Cell::new(3) };
        let before = koala_error::recovery::snapshot();
        let f = rsvd(&op, RsvdOptions { rank: 12, oversample: 10, n_iter: 2 }, &mut rng).unwrap();
        let after = koala_error::recovery::snapshot();
        assert!(after.rsvd_resketches > before.rsvd_resketches);
        assert!(after.nonfinite_detections > before.nonfinite_detections);
        assert!(f.reconstruct().approx_eq(&a, 1e-8), "retry must produce clean factors");
    }

    #[test]
    fn persistent_corruption_exhausts_retries() {
        let mut rng = StdRng::seed_from_u64(77);
        let a = Matrix::random(10, 6, &mut rng);
        let op =
            FlakyOp { inner: MatOp::new(&a), poisoned_applies: std::cell::Cell::new(usize::MAX) };
        assert!(rsvd(&op, RsvdOptions::with_rank(4), &mut rng).is_err());
    }

    #[test]
    fn factors_are_orthonormal() {
        let mut rng = StdRng::seed_from_u64(75);
        let a = Matrix::random(25, 16, &mut rng);
        let f = rsvd(&MatOp::new(&a), RsvdOptions::with_rank(6), &mut rng).unwrap();
        assert!(f.u.has_orthonormal_cols(1e-9));
        assert!(f.vh.adjoint().has_orthonormal_cols(1e-9));
        for w in f.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }
}

//! Singular value decomposition of complex matrices.
//!
//! The workhorse is a one-sided Jacobi SVD, which is accurate to
//! machine precision (needed for the RQC contraction-error study of
//! Figure 10, where errors drop to ~1e-15) and needs no bidiagonalisation
//! machinery. A Gram-matrix based variant trades a little accuracy on the
//! smallest singular values for speed and is the building block the paper's
//! Algorithm 5 uses in the distributed setting.

use crate::eig::{eigh, jacobi_rotation};
use crate::error::{LinalgError, Result};
use crate::gemm::{matmul, matmul_adj_a};
use crate::matrix::Matrix;
use crate::scalar::{Scalar, C64};

/// Result of an SVD `A = U diag(s) V^H` with singular values in descending
/// order.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, shape `(m, k)`.
    pub u: Matrix,
    /// Singular values, descending, length `k`.
    pub s: Vec<f64>,
    /// Conjugate-transposed right singular vectors, shape `(k, n)`.
    pub vh: Matrix,
}

impl Svd {
    /// Number of retained singular values.
    pub fn rank(&self) -> usize {
        self.s.len()
    }

    /// Reassemble `U diag(s) V^H`.
    pub fn reconstruct(&self) -> Matrix {
        let us = scale_cols(&self.u, &self.s);
        matmul(&us, &self.vh)
    }

    /// Keep only the leading `k` singular triplets.
    pub fn truncated(&self, k: usize) -> Svd {
        let k = k.min(self.s.len());
        Svd { u: self.u.truncate_cols(k), s: self.s[..k].to_vec(), vh: self.vh.truncate_rows(k) }
    }

    /// Frobenius norm of the discarded part if truncated to rank `k`
    /// (i.e. sqrt of the sum of squared trailing singular values).
    pub fn truncation_error(&self, k: usize) -> f64 {
        if k >= self.s.len() {
            return 0.0;
        }
        self.s[k..].iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Merge the singular values into the left factor: returns `(U diag(s), V^H)`.
    pub fn absorb_left(&self) -> (Matrix, Matrix) {
        (scale_cols(&self.u, &self.s), self.vh.clone())
    }

    /// Merge the singular values into the right factor: returns `(U, diag(s) V^H)`.
    pub fn absorb_right(&self) -> (Matrix, Matrix) {
        (self.u.clone(), scale_rows(&self.vh, &self.s))
    }

    /// Split the singular values evenly: returns `(U diag(sqrt s), diag(sqrt s) V^H)`.
    pub fn absorb_split(&self) -> (Matrix, Matrix) {
        let sq: Vec<f64> = self.s.iter().map(|x| x.sqrt()).collect();
        (scale_cols(&self.u, &sq), scale_rows(&self.vh, &sq))
    }
}

/// Multiply column `j` of `m` by `s[j]`. The realness hint survives for
/// finite scale factors (scaling a real entry by a finite real stays real).
pub fn scale_cols(m: &Matrix, s: &[f64]) -> Matrix {
    let mut out = m.clone();
    let ncols = m.ncols();
    assert!(s.len() >= ncols, "scale_cols: not enough scale factors");
    let keep_real = m.is_real() && s[..ncols].iter().all(|x| x.is_finite());
    for i in 0..m.nrows() {
        let row = out.row_mut(i);
        for (j, entry) in row.iter_mut().enumerate().take(ncols) {
            *entry = entry.scale(s[j]);
        }
    }
    if keep_real {
        out.assume_real();
    }
    out
}

/// Multiply row `i` of `m` by `s[i]` (hint rule as in [`scale_cols`]).
pub fn scale_rows(m: &Matrix, s: &[f64]) -> Matrix {
    let mut out = m.clone();
    let nrows = m.nrows();
    assert!(s.len() >= nrows, "scale_rows: not enough scale factors");
    let keep_real = m.is_real() && s[..nrows].iter().all(|x| x.is_finite());
    for i in 0..nrows {
        let si = s[i];
        for entry in out.row_mut(i) {
            *entry = entry.scale(si);
        }
    }
    if keep_real {
        out.assume_real();
    }
    out
}

/// Maximum number of one-sided Jacobi sweeps on the first attempt.
pub const MAX_SWEEPS: usize = 60;

/// Sweep budget after a [`LinalgError::NoConvergence`] escalation.
pub const ESCALATED_SWEEPS: usize = 240;

/// Full (thin) SVD via one-sided Jacobi iteration, hardened by a
/// numerical-recovery ladder.
///
/// Wide inputs (`m < n`) are handled by running the Jacobi iteration on the
/// columns of `A^H` — which are gathered directly as conjugated rows of the
/// row-major storage of `A` — and assembling the swapped factors in place.
/// No adjoint of the input (or of the resulting factors) is ever
/// materialised.
///
/// The iteration is one algorithm over the scalar type. Inputs carrying the
/// structural [`Matrix::is_real`] hint run it at `f64` — the rotation phase
/// degenerates to a sign, every rotation is a plain real Givens rotation, no
/// imaginary lane is touched — and `U` / `V^H` come back exactly real with
/// the hint set; all other inputs run it at [`C64`].
///
/// # Recovery ladder
///
/// Non-finite inputs are rejected up front ([`LinalgError::NonFinite`]) so
/// corruption is caught where it enters. If the Jacobi iteration fails to
/// converge in [`MAX_SWEEPS`] sweeps, the sweep budget is escalated to
/// [`ESCALATED_SWEEPS`]; if that still fails, the ladder falls back to the
/// Gram-matrix SVD ([`svd_gram`]), trading ~sqrt(eps) accuracy on the
/// smallest singular values for a guaranteed factorization. Every rung is
/// recorded on the [`koala_error::recovery`] counters and the final factors
/// pass a NaN/Inf guard before they are returned.
pub fn svd(a: &Matrix) -> Result<Svd> {
    svd_with_budgets(a, MAX_SWEEPS, ESCALATED_SWEEPS)
}

/// The recovery ladder of [`svd`] with explicit sweep budgets (separated out
/// so tests can force the escalation and fallback rungs).
fn svd_with_budgets(a: &Matrix, first_sweeps: usize, escalated_sweeps: usize) -> Result<Svd> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Ok(Svd { u: Matrix::zeros(m, 0), s: vec![], vh: Matrix::zeros(0, n) });
    }
    a.validate_finite("svd input")?;
    let jacobi = if a.is_real() { svd_jacobi::<f64> } else { svd_jacobi::<C64> };
    let f = match jacobi(a, first_sweeps) {
        Ok(f) => f,
        Err(LinalgError::NoConvergence { .. }) => {
            koala_error::recovery::note_svd_sweep_escalation();
            match jacobi(a, escalated_sweeps) {
                Ok(f) => f,
                Err(LinalgError::NoConvergence { .. }) => {
                    koala_error::recovery::note_gram_svd_fallback();
                    svd_gram(a)?
                }
                Err(e) => return Err(e),
            }
        }
        Err(e) => return Err(e),
    };
    validate_svd_finite(&f, "svd output")?;
    Ok(f)
}

/// NaN/Inf guard over all three factors of an SVD.
fn validate_svd_finite(f: &Svd, context: &str) -> Result<()> {
    if !f.s.iter().all(|s| s.is_finite()) {
        koala_error::recovery::note_nonfinite_detection();
        return Err(LinalgError::NonFinite { context: format!("{context}: singular values") });
    }
    f.u.validate_finite(context)?;
    f.vh.validate_finite(context)
}

/// One Jacobi attempt with an explicit sweep budget, over the columns of `A`
/// held as `T`.
fn svd_jacobi<T: Scalar>(a: &Matrix, max_sweeps: usize) -> Result<Svd> {
    let (m, n_full) = a.shape();
    let wide = m < n_full;
    // `w` holds the columns of A (tall) or of A^H (wide): k columns, where
    // k = min(m, n) is the thin rank.
    let k = m.min(n_full);
    let mut w: Vec<Vec<T>> = a.gather_cols(wide);
    // Columns of W converge to U * diag(s); the row-major k x k matrix V
    // accumulates the rotations.
    let mut v = vec![T::ZERO; k * k];
    for i in 0..k {
        v[i * k + i] = T::ONE;
    }
    let fro = a.norm_fro().max(1e-300);

    let mut converged = false;
    for _sweep in 0..max_sweeps {
        let mut rotated = false;
        for p in 0..k {
            for q in (p + 1)..k {
                let (wp, wq) = pair_mut(&mut w, p, q);
                let app: f64 = wp.iter().map(|z| z.norm_sqr()).sum();
                let aqq: f64 = wq.iter().map(|z| z.norm_sqr()).sum();
                let apq: T = wp.iter().zip(wq.iter()).map(|(x, y)| x.conj() * *y).sum();
                let g = apq.abs();
                // Relative criterion of Demmel-Veselic: the pair is converged
                // when the cosine of the angle between columns is at the level
                // of round-off.
                if g <= 1e-15 * (app * aqq).sqrt().max(1e-300) {
                    continue;
                }
                rotated = true;
                let e_m = apq.unit_phase_conj();
                let (c, s) = jacobi_rotation(app, aqq, g);
                // Column update [w_p, w_q] <- [w_p, w_q] * J with
                // J = [[c, s], [-s e^{-i phi}, c e^{-i phi}]].
                let jqp = -e_m.scale(s);
                let jqq = e_m.scale(c);
                for (xp, xq) in wp.iter_mut().zip(wq.iter_mut()) {
                    let old_p = *xp;
                    let old_q = *xq;
                    *xp = old_p.scale(c) + old_q * jqp;
                    *xq = old_p.scale(s) + old_q * jqq;
                }
                // Same update on the columns of V.
                for i in 0..k {
                    let vip = v[i * k + p];
                    let viq = v[i * k + q];
                    v[i * k + p] = vip.scale(c) + viq * jqp;
                    v[i * k + q] = vip.scale(s) + viq * jqq;
                }
            }
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        // One-sided Jacobi in floating point can stall just above the strict
        // threshold; accept the result if the remaining coupling is tiny
        // relative to the matrix scale, otherwise report failure.
        let mut worst: f64 = 0.0;
        for p in 0..k {
            for q in (p + 1)..k {
                let apq: T = w[p].iter().zip(w[q].iter()).map(|(x, y)| x.conj() * *y).sum();
                worst = worst.max(apq.abs());
            }
        }
        if worst > 1e-9 * fro * fro {
            return Err(LinalgError::NoConvergence {
                algorithm: "jacobi-svd",
                iterations: max_sweeps,
            });
        }
    }

    // Extract singular values and assemble the factors.
    let sigma: Vec<f64> =
        w.iter().map(|col| col.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()).collect();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&i, &j| sigma[j].partial_cmp(&sigma[i]).unwrap_or(std::cmp::Ordering::Equal));

    let mut u = vec![T::ZERO; m * k];
    let mut vh = vec![T::ZERO; k * n_full];
    let mut s_sorted = Vec::with_capacity(k);
    let cutoff = sigma.iter().cloned().fold(0.0, f64::max) * 1e-300;
    for (newcol, &old) in order.iter().enumerate() {
        let sv = sigma[old];
        // A null direction reports a zero singular value and leaves the
        // W-derived factor zero (harmless for truncation).
        let significant = sv > cutoff && sv > 0.0;
        s_sorted.push(if significant { sv } else { 0.0 });
        if wide {
            // A = A^H^H = V' S W'^H: U comes from the accumulated rotations,
            // V^H rows from the (conjugated) converged columns.
            for r in 0..k {
                u[r * k + newcol] = v[r * k + old];
            }
            if significant {
                let inv = 1.0 / sv;
                for (r, z) in w[old].iter().enumerate() {
                    vh[newcol * n_full + r] = z.conj().scale(inv);
                }
            }
        } else {
            // A = W V^H: U columns from the converged columns, V^H rows from
            // the conjugated rotations.
            if significant {
                let inv = 1.0 / sv;
                for (r, z) in w[old].iter().enumerate() {
                    u[r * k + newcol] = z.scale(inv);
                }
            }
            for r in 0..k {
                vh[newcol * n_full + r] = v[r * k + old].conj();
            }
        }
    }
    Ok(Svd {
        u: Matrix::from_scalars(m, k, u),
        s: s_sorted,
        vh: Matrix::from_scalars(k, n_full, vh),
    })
}

/// Borrow two distinct entries of a vector of columns mutably.
fn pair_mut<T>(v: &mut [T], p: usize, q: usize) -> (&mut T, &mut T) {
    assert!(p < q);
    let (lo, hi) = v.split_at_mut(q);
    (&mut lo[p], &mut hi[0])
}

/// SVD through the Gram matrix `A^H A` (or `A A^H`, whichever is smaller):
/// faster than Jacobi for tall-skinny matrices at the cost of ~sqrt(eps)
/// accuracy on small singular values. Used where the paper forms Gram
/// matrices explicitly (Algorithm 5).
///
/// Both Gram products and the factor recovery run through the fused
/// [`Op::Adjoint`](crate::gemm::Op) GEMM paths — no transposed operand or
/// factor copy is materialised on either the tall or the wide branch.
pub fn svd_gram(a: &Matrix) -> Result<Svd> {
    use crate::gemm::{gemm, matmul_adj_b, Op};
    let (m, n) = a.shape();
    if m < n {
        // Wide: G = A A^H = U diag(lambda) U^H, sigma = sqrt(lambda), and
        // V^H = diag(1/sigma) U^H A with the adjoint fused into the GEMM.
        let g = matmul_adj_b(a, a);
        let e = eigh(&g)?;
        let n_eff = e.values.len();
        // eigh returns ascending order; we want descending singular values.
        let mut s = Vec::with_capacity(n_eff);
        let mut u = Matrix::zeros(m, n_eff);
        for (newcol, oldcol) in (0..n_eff).rev().enumerate() {
            s.push(e.values[oldcol].max(0.0).sqrt());
            u.set_col(newcol, &e.vectors.col(oldcol));
        }
        let mut vh = gemm(Op::Adjoint, Op::None, &u, a);
        // Row scaling by finite reals (and zero fills) keeps realness; row_mut
        // conservatively drops the hint, so restore it afterwards.
        let vh_real = vh.is_real();
        let smax = s.first().copied().unwrap_or(0.0);
        for i in 0..n_eff {
            if s[i] > smax * 1e-14 && s[i] > 0.0 {
                let inv = 1.0 / s[i];
                for z in vh.row_mut(i) {
                    *z = z.scale(inv);
                }
            } else {
                vh.row_mut(i).fill(C64::ZERO);
            }
        }
        if vh_real {
            vh.assume_real();
        }
        return Ok(Svd { u, s, vh });
    }
    // Tall: G = A^H A = V diag(lambda) V^H, sigma = sqrt(lambda),
    // U = A V / sigma with A V computed as A (V^H)^H via the fused GEMM.
    let g = matmul_adj_a(a, a);
    let e = eigh(&g)?;
    let n_eff = e.values.len();
    let mut s = Vec::with_capacity(n_eff);
    let mut vh = Matrix::zeros(n_eff, n);
    for (newrow, oldcol) in (0..n_eff).rev().enumerate() {
        s.push(e.values[oldcol].max(0.0).sqrt());
        for r in 0..n {
            vh[(newrow, r)] = e.vectors[(r, oldcol)].conj();
        }
    }
    // Conjugated copies of real eigenvectors are real; IndexMut dropped the
    // hint conservatively.
    if e.vectors.is_real() {
        vh.assume_real();
    }
    let av = gemm(Op::None, Op::Adjoint, a, &vh);
    let mut u = Matrix::zeros(m, n_eff);
    let smax = s.first().copied().unwrap_or(0.0);
    for j in 0..n_eff {
        if s[j] > smax * 1e-14 && s[j] > 0.0 {
            let inv = 1.0 / s[j];
            let col: Vec<C64> = av.col(j).iter().map(|&z| z * inv).collect();
            u.set_col(j, &col);
        }
    }
    Ok(Svd { u, s, vh })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::c64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_svd(a: &Matrix, tol: f64) -> Svd {
        let f = svd(a).expect("svd failed");
        let (m, n) = a.shape();
        let k = m.min(n);
        assert_eq!(f.u.shape(), (m, k));
        assert_eq!(f.vh.shape(), (k, n));
        assert_eq!(f.s.len(), k);
        assert!(f.reconstruct().approx_eq(a, tol * a.norm_max().max(1.0)), "USV^H != A");
        for w in f.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "singular values not sorted");
        }
        assert!(f.s.iter().all(|&x| x >= 0.0));
        f
    }

    #[test]
    fn diagonal_matrix_has_obvious_singular_values() {
        let a = Matrix::from_diag_real(&[3.0, -5.0, 1.0]);
        let f = check_svd(&a, 1e-12);
        assert!((f.s[0] - 5.0).abs() < 1e-12);
        assert!((f.s[1] - 3.0).abs() < 1e-12);
        assert!((f.s[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_matrices_reconstruct() {
        let mut rng = StdRng::seed_from_u64(40);
        for &(m, n) in &[(1usize, 1usize), (4, 4), (10, 4), (4, 10), (17, 9), (9, 17)] {
            let a = Matrix::random(m, n, &mut rng);
            let f = check_svd(&a, 1e-10);
            assert!(f.u.has_orthonormal_cols(1e-10));
            assert!(f.vh.adjoint().has_orthonormal_cols(1e-10));
        }
    }

    #[test]
    fn rank_deficient_matrix() {
        let mut rng = StdRng::seed_from_u64(41);
        let b = Matrix::random(8, 3, &mut rng);
        let c = Matrix::random(3, 8, &mut rng);
        let a = matmul(&b, &c);
        let f = check_svd(&a, 1e-9);
        // Only 3 significant singular values.
        assert!(f.s[3] < 1e-10 * f.s[0]);
    }

    #[test]
    fn truncation_error_matches_discarded_tail() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = Matrix::random(10, 10, &mut rng);
        let f = svd(&a).unwrap();
        let k = 4;
        let trunc = f.truncated(k);
        let err = (&a - &trunc.reconstruct()).norm_fro();
        assert!((err - f.truncation_error(k)).abs() < 1e-9, "Eckart-Young mismatch");
    }

    #[test]
    fn gram_svd_agrees_with_jacobi_on_well_conditioned_input() {
        let mut rng = StdRng::seed_from_u64(43);
        let a = Matrix::random(20, 6, &mut rng);
        let f1 = svd(&a).unwrap();
        let f2 = svd_gram(&a).unwrap();
        for (x, y) in f1.s.iter().zip(f2.s.iter()) {
            assert!((x - y).abs() < 1e-8 * f1.s[0]);
        }
        assert!(f2.reconstruct().approx_eq(&a, 1e-8));
        // Wide input goes through the adjoint path.
        let b = Matrix::random(5, 14, &mut rng);
        assert!(svd_gram(&b).unwrap().reconstruct().approx_eq(&b, 1e-8));
    }

    #[test]
    fn absorb_variants_reassemble() {
        let mut rng = StdRng::seed_from_u64(44);
        let a = Matrix::random(6, 5, &mut rng);
        let f = svd(&a).unwrap();
        let (l, r) = f.absorb_left();
        assert!(matmul(&l, &r).approx_eq(&a, 1e-10));
        let (l, r) = f.absorb_right();
        assert!(matmul(&l, &r).approx_eq(&a, 1e-10));
        let (l, r) = f.absorb_split();
        assert!(matmul(&l, &r).approx_eq(&a, 1e-10));
    }

    #[test]
    fn hermitian_phase_handling() {
        // A matrix with genuinely complex singular vectors.
        let a = Matrix::from_vec(
            2,
            2,
            vec![c64(0.0, 2.0), c64(1.0, -1.0), c64(-3.0, 0.5), c64(0.0, -1.0)],
        )
        .unwrap();
        check_svd(&a, 1e-12);
    }

    #[test]
    fn non_finite_input_is_rejected_up_front() {
        let before = koala_error::recovery::snapshot();
        let mut a = Matrix::zeros(3, 3);
        a[(1, 2)] = c64(f64::NAN, 0.0);
        match svd(&a) {
            Err(LinalgError::NonFinite { context }) => assert!(context.contains("svd input")),
            other => panic!("expected NonFinite, got {other:?}"),
        }
        let after = koala_error::recovery::snapshot();
        assert!(after.nonfinite_detections > before.nonfinite_detections);
    }

    #[test]
    fn exhausted_sweep_budget_reports_no_convergence() {
        let mut rng = StdRng::seed_from_u64(47);
        // Zero sweeps cannot decorrelate random columns, in either
        // instantiation.
        let attempts = [
            super::svd_jacobi::<C64>(&Matrix::random(6, 4, &mut rng), 0),
            super::svd_jacobi::<f64>(&Matrix::random_real(6, 4, &mut rng), 0),
        ];
        for attempt in attempts {
            match attempt {
                Err(LinalgError::NoConvergence { algorithm, iterations }) => {
                    assert_eq!(algorithm, "jacobi-svd");
                    assert_eq!(iterations, 0);
                }
                other => panic!("expected NoConvergence, got {other:?}"),
            }
        }
    }

    #[test]
    fn ladder_escalates_then_falls_back_to_gram() {
        let mut rng = StdRng::seed_from_u64(48);
        for hint_real in [false, true] {
            let a = if hint_real {
                Matrix::random_real(12, 5, &mut rng)
            } else {
                Matrix::random(12, 5, &mut rng)
            };
            let before = koala_error::recovery::snapshot();
            // Zero-sweep budgets force both Jacobi rungs to fail, so the
            // ladder must land on the Gram-SVD fallback and still factorize.
            let f = super::svd_with_budgets(&a, 0, 0).expect("gram fallback should succeed");
            assert!(f.reconstruct().approx_eq(&a, 1e-8), "fallback factors must reconstruct");
            let after = koala_error::recovery::snapshot();
            assert!(after.svd_sweep_escalations > before.svd_sweep_escalations);
            assert!(after.gram_svd_fallbacks > before.gram_svd_fallbacks);
        }
    }

    #[test]
    fn empty_and_single_entry() {
        let f = svd(&Matrix::zeros(0, 3)).unwrap();
        assert_eq!(f.s.len(), 0);
        let a = Matrix::from_vec(1, 1, vec![c64(0.0, -2.0)]).unwrap();
        let f = check_svd(&a, 1e-14);
        assert!((f.s[0] - 2.0).abs() < 1e-14);
    }
}

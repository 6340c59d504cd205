//! Singular value decomposition of complex matrices.
//!
//! # Two routes
//!
//! Both start from a QR preconditioner `B = Q R` of the input's long side
//! (`R` is `k x k`, `k = min(m, n)`).
//!
//! * [`svd`] computes every triplet by one-sided Jacobi on `R^H`, and is
//!   the accurate route: the full factorization, always. Its `Q` comes
//!   from Gram-Schmidt, and one GEMM of `Q` gives the long factor.
//! * [`svd_leading`] computes the leading ones that its caller keeps: a
//!   Householder QR that keeps `Q` as reflectors, a Householder
//!   bidiagonalization of `R`, every singular value of the bidiagonal (the
//!   caller's cut sees the whole spectrum), and vectors for the kept values
//!   only, by inverse iteration on the Golub-Kahan tridiagonal (`bidiag.rs`;
//!   LAPACK's `zgesvdx` design). The long factor is the QR's reflectors
//!   applied to the `keep` kept vectors: `Q` is never formed.
//!
//! The rule between them belongs to the caller: `koala_tensor`'s truncated
//! split, the one caller of [`svd_leading`], takes it when its rank cap is
//! below `k` and `k` is at least 10 (the rule and the measurement behind
//! its size bound are on that split).
//!
//! # The ladder
//!
//! [`svd_leading`] checks its kept triplets against `R` before returning
//! them (orthonormal columns, both residuals at round-off relative to
//! `s_1`). When the check fails, it rebuilds the input from its `Q R` and
//! runs the Jacobi ladder of [`svd`] on that matrix and truncates the
//! result: Jacobi, then Jacobi with an escalated sweep budget, then the
//! Gram-matrix SVD. Each rung is counted on [`koala_error::recovery`].
//!
//! # The Jacobi route
//!
//! The workhorse is a QR-preconditioned one-sided Jacobi SVD (Drmac and
//! Veselic): Gram-Schmidt reduces the `m x n` input to a `k x k` triangular
//! factor, `k = min(m, n)`, the Jacobi sweeps run on that factor, and one
//! GEMM carries the rotations back to the long side. It keeps Jacobi's
//! accuracy to machine precision (needed for the RQC contraction-error study
//! of Figure 10, where errors drop to ~1e-15) and needs no bidiagonalisation
//! machinery, while the `O(m n k)` part of the work is a QR and a GEMM
//! instead of sweeps over length-`max(m, n)` columns. Gram-Schmidt and the
//! sweeps keep their columns in one split-plane buffer, and each pair's
//! three inner products and its rotation are single passes of the 8-lane
//! kernels of `lanes.rs` (AVX-512F intrinsics where the target has them);
//! the rotation phase is `conj(z) / |z|`, with no trigonometry. A
//! Gram-matrix based variant trades a little accuracy on the smallest
//! singular values for speed and is the building block the paper's
//! Algorithm 5 uses in the distributed setting.

use crate::bidiag::{householder_qr, singular_values, singular_vectors, Bidiagonal, Reflectors};
use crate::eig::{eigh, jacobi_rotation};
use crate::gemm::{gemm, matmul, matmul_adj_a, matmul_adj_b, Op};
use crate::lanes::{Cols, Lanes};
use crate::matrix::Matrix;
use crate::qr::mgs;
use crate::scalar::C64;
use koala_error::{KoalaError, Result};

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

    /// Keep only the leading `k` singular triplets, in the factors' own
    /// buffers (shrunk in place).
    pub fn truncated(mut self, k: usize) -> Svd {
        let k = k.min(self.s.len());
        self.s.truncate(k);
        self.u.shrink_cols(k);
        self.vh.shrink_rows(k);
        self
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
pub(crate) fn scale_cols(m: &Matrix, s: &[f64]) -> Matrix {
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
pub(crate) fn scale_rows(m: &Matrix, s: &[f64]) -> Matrix {
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

/// A direction is numerically null at `NULL_TOL |A|_F`: a Gram-Schmidt
/// residual of [`svd`]'s preconditioner, a residual below the diagonal of
/// the leading route's Householder QR, or a singular value of that route.
const NULL_TOL: f64 = 1e-14;

/// Maximum number of one-sided Jacobi sweeps on the first attempt.
pub(crate) const MAX_SWEEPS: usize = 60;

/// Sweep budget after a `NoConvergence` escalation.
pub(crate) const ESCALATED_SWEEPS: usize = 240;

/// Full (thin) SVD via QR-preconditioned one-sided Jacobi iteration, hardened
/// by a numerical-recovery ladder.
///
/// # Algorithm
///
/// Let `B = A` for a tall input and `B = A^H` for a wide one (`m < n`; its
/// columns are gathered as conjugated rows of the row-major storage of `A`),
/// so `B` is `max(m, n) x k` with `k = min(m, n)`.
///
/// 1. Twice-applied modified Gram-Schmidt — the loop behind
///    [`qr`](crate::qr::qr) — factors `B = Q R` with `R` `k x k`.
/// 2. One-sided Jacobi rotates the columns of `L = R^H` (the conjugated rows
///    of `R`, length `k`) until they are mutually orthogonal: `L J = U_L
///    diag(s)` with `J` the accumulated unitary. Pairs are visited in
///    cyclic-by-rows order; each rotation is `[[c, s], [-s e, c e]]` with
///    `e = conj(a_pq) / |a_pq|` and the real `(c, s)` of the 2x2 Hermitian
///    problem.
/// 3. Then `B = (Q J) diag(s) U_L^H`. The `k x k` factor `U_L` is assembled
///    element-wise in its destination layout; the long factor is one GEMM,
///    `U = Q J` for a tall input and `V^H = (Q J)^H` for a wide one, the
///    adjoint fused into operand packing. No adjoint of the input or of a
///    factor is ever materialised.
///
/// The sweeps run on `R^H` and not on `R` on purpose. The columns of `R` have
/// the Gram matrix of the columns of `B`, so Jacobi on them is the
/// un-preconditioned iteration at shorter length: the same sweep count, and
/// on a rank-deficient input the dependent columns have to be rotated down to
/// round-off, which never meets the convergence criterion and burns the whole
/// sweep budget on every call. The columns of `R^H` are the rows of `R`, and
/// those are exactly zero wherever Gram-Schmidt found a dependent column (see
/// below), so they start converged.
///
/// The iteration is one algorithm over the scalar type. Inputs carrying the
/// structural [`Matrix::is_real`] hint run it at `f64` — the rotation phase
/// degenerates to a sign, every rotation is a plain real Givens rotation, no
/// imaginary lane is touched, the GEMM takes the real kernel — and `U` /
/// `V^H` come back exactly real with the hint set; all other inputs run it
/// at [`C64`].
///
/// # Null directions
///
/// A column of `B` whose Gram-Schmidt residual is at most `1e-14 |A|_F` is
/// numerically null. Unlike [`qr`](crate::qr::qr), the preconditioner does
/// not complete the basis there: the column of `Q` and the row of `R` stay
/// zero, Jacobi never rotates them, and the direction comes back with
/// `s` exactly `0.0` and an exactly zero column in `U` *and* zero row in
/// `V^H`. So `U` and `V^H` are isometries over the directions with `s > 0`,
/// not over all `k`: rank deficiency is the cheapest case instead of the
/// slowest, and `U diag(s) V^H` is unaffected. The three consumers were
/// audited for this: `tensor::decomp::build_split_svd` truncates by `s` and
/// multiplies the factors back together (the operator Schmidt decomposition
/// of `koala-peps`, and through it the circuit IR's rank bound, is one of
/// its callers and cuts those directions); `rsvd` forms `U = P Z` and reads
/// `V^H` off the small factor, which inherits the same convention; and
/// `svd_gram`, the last rung below, already returns zero columns in its
/// recovered factor.
/// None needs a full isometry over null directions.
///
/// # Recovery ladder
///
/// Non-finite inputs are rejected up front (kind `NonFinite`) so corruption
/// is caught where it enters. If the Jacobi iteration fails to
/// converge in `MAX_SWEEPS` sweeps, the sweep budget is escalated to
/// `ESCALATED_SWEEPS`, restarting from the `Q R` already in hand; if that
/// still fails, the ladder falls back to the Gram-matrix SVD (`svd_gram`)
/// of the input rebuilt from that `Q R`, trading ~sqrt(eps) accuracy on the
/// smallest singular values for a guaranteed factorization. Every rung is
/// recorded on the [`koala_error::recovery`] counters and the final factors
/// pass a NaN/Inf guard before they are returned.
///
/// # Memory
///
/// The matrix is taken by value and dropped as soon as the preconditioner
/// has gathered its columns, so a caller that hands over a temporary (the
/// `theta` of an einsumsvd) never holds it alongside `Q`. A borrowed
/// `&Matrix` is accepted too and converts by cloning, for callers that keep
/// their matrix.
pub fn svd(a: impl Into<Matrix>) -> Result<Svd> {
    svd_with_budgets(a.into(), MAX_SWEEPS, ESCALATED_SWEEPS)
}

/// The recovery ladder of [`svd`] with explicit sweep budgets (separated out
/// so tests can force the escalation and fallback rungs).
fn svd_with_budgets(a: Matrix, first_sweeps: usize, escalated_sweeps: usize) -> Result<Svd> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Ok(Svd { u: Matrix::zeros(m, 0), s: vec![], vh: Matrix::zeros(0, n) });
    }
    a.validate_finite("svd input")?;
    let ladder = if a.is_real() { svd_ladder::<f64> } else { svd_ladder::<C64> };
    let f = ladder(a, first_sweeps, escalated_sweeps)?;
    validate_svd_finite(&f, "svd output")?;
    Ok(f)
}

/// The ladder at one scalar type.
fn svd_ladder<T: Lanes>(a: Matrix, first_sweeps: usize, escalated_sweeps: usize) -> Result<Svd> {
    Preconditioned::<T>::new(a).ladder(first_sweeps, escalated_sweeps)
}

/// The self-check of the leading route: kept columns orthonormal, and both
/// residuals of every kept triplet, `|R v - s u|` and `|R^H u - s v|`, at
/// most this times `s_1`.
const LEADING_TOL: f64 = 1e-12;

/// The leading singular triplets of `a`: the `keep(s)` largest, where `s` is
/// the whole spectrum in descending order, together with the Frobenius norm
/// of the values it leaves out (the truncation error).
///
/// # Two routes
///
/// This is [`svd`] truncated, at a cost that follows what is kept.
///
/// * **Leading route.** `B` (as in [`svd`]) is factored `B = Q R` by
///   Householder reflectors, in the buffer its columns are gathered into,
///   and `Q` stays as those `k` reflectors. A column whose residual below
///   the diagonal is at most `1e-14 |A|_F` gets no reflector, so a rank-`r`
///   input costs `max(m, n) k r` there, not `max(m, n) k^2`. `R` is reduced
///   to a real bidiagonal by Householder reflectors from both sides, every
///   singular value of the bidiagonal is computed (so `keep` and the error
///   see the whole spectrum), and vectors are found for the kept values
///   only, by inverse iteration on the Golub-Kahan tridiagonal. They are
///   carried back through the reflectors, and the long factor is the QR's
///   reflectors applied to the kept columns: no GEMM and no explicit `Q`.
///   `O(k^3)` work on `R` remains, but no Jacobi sweeps.
/// * **Self-check.** Before it returns, the leading route checks its kept
///   triplets against `R` (`O(k^2 keep)` lane-kernel work): the columns are
///   orthonormal and both residuals are at round-off relative to `s_1`.
///   If the check fails, or the values or vectors did not converge, the
///   input is rebuilt from the factors (`Q R`, or its adjoint for a wide
///   input), the Jacobi ladder of [`svd`] runs on it, its result is
///   truncated by `keep`, and the fallback is counted on
///   [`koala_error::recovery`] (`leading_svd_fallbacks`). That result is
///   bit for bit `svd` of the rebuilt input, truncated.
///
/// [`svd`] keeps Gram-Schmidt, and so do [`qr`](crate::qr::qr) and
/// `orthonormalize`: they need `Q` itself, and a Householder `R` plus
/// forming `Q` costs the same `~2 max(m, n) k^2` as twice-applied
/// Gram-Schmidt.
///
/// # Conventions
///
/// As [`svd`]: non-finite input is rejected up front, and the realness
/// hint runs the whole route at `f64` and returns hinted factors. A
/// direction is numerically null when its singular value is at most
/// `1e-14 |A|_F`: it comes back with `s` exactly `0.0` and zero columns.
/// `keep` is clamped to `k`.
///
/// # Memory
///
/// `a` is taken by value and dropped once its columns are gathered; the
/// reflectors of `Q` take over that buffer, so the route holds `B` once,
/// beside `O(k^2)` work arrays and the `max(m, n) x keep` long factor. Only
/// the fallback holds more: the input rebuilt as a matrix, beside the
/// reflectors it is rebuilt from.
pub fn svd_leading(a: impl Into<Matrix>, keep: impl Fn(&[f64]) -> usize) -> Result<(Svd, f64)> {
    svd_leading_checked(a.into(), &keep, LEADING_TOL)
}

/// [`svd_leading`] with an explicit self-check tolerance (separated out so
/// tests can force the fallback).
fn svd_leading_checked(a: Matrix, keep: &dyn Fn(&[f64]) -> usize, tol: f64) -> Result<(Svd, f64)> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Ok((Svd { u: Matrix::zeros(m, 0), s: vec![], vh: Matrix::zeros(0, n) }, 0.0));
    }
    a.validate_finite("svd input")?;
    let leading = if a.is_real() { leading_at::<f64> } else { leading_at::<C64> };
    let (f, err) = leading(a, keep, tol)?;
    validate_svd_finite(&f, "svd output")?;
    Ok((f, err))
}

/// [`svd_leading`] at one scalar type.
fn leading_at<T: Lanes>(a: Matrix, keep: &dyn Fn(&[f64]) -> usize, tol: f64) -> Result<(Svd, f64)> {
    let pre = Leading::<T>::new(a);
    if let Some(found) = pre.triplets(keep, tol) {
        return Ok(found);
    }
    koala_error::recovery::note_leading_svd_fallback();
    let f = Preconditioned::<T>::new(pre.into_input()).ladder(MAX_SWEEPS, ESCALATED_SWEEPS)?;
    let kept = keep(&f.s).min(f.s.len());
    let err = f.truncation_error(kept);
    Ok((f.truncated(kept), err))
}

/// NaN/Inf guard over all three factors of an SVD.
fn validate_svd_finite(f: &Svd, context: &str) -> Result<()> {
    if !f.s.iter().all(|s| s.is_finite()) {
        koala_error::recovery::note_nonfinite_detection();
        return Err(KoalaError::non_finite(format!("{context}: singular values")));
    }
    f.u.validate_finite(context)?;
    f.vh.validate_finite(context)
}

/// The preconditioner of [`svd`]: `B = Q R` by Gram-Schmidt, where `B = A` (tall) or
/// `B = A^H` (wide, gathered as conjugated rows of `A`), `Q` is
/// `max(m, n) x k` and `R` is `k x k` row-major, `k = min(m, n)`. A
/// numerically null column of `B` leaves a zero column in `Q` and a zero row
/// in `R` (no basis completion, unlike [`qr`](crate::qr::qr)).
struct Preconditioned<T> {
    wide: bool,
    fro: f64,
    q: Matrix,
    r: Vec<T>,
}

impl<T: Lanes> Preconditioned<T> {
    /// Factorize `B`, dropping `a` once its columns are gathered.
    fn new(a: Matrix) -> Self {
        let wide = a.nrows() < a.ncols();
        let fro = a.norm_fro();
        let mut cols = Cols::<T>::from_matrix(&a, wide);
        drop(a);
        let r = mgs(&mut cols, NULL_TOL * fro, false);
        Preconditioned { wide, fro, q: cols.to_matrix(cols.ncols(), Vec::new()), r }
    }

    /// The input `A` rebuilt from the factors: `Q R` for a tall input,
    /// `R^H Q^H` for a wide one (exact up to round-off).
    fn input(&self) -> Matrix {
        let k = self.q.ncols();
        let r = Matrix::from_scalars(k, k, self.r.clone());
        if self.wide {
            gemm(Op::Adjoint, Op::Adjoint, &r, &self.q)
        } else {
            gemm(Op::None, Op::None, &self.q, &r)
        }
    }

    /// The recovery ladder of [`svd`] from this `Q R`: both Jacobi rungs
    /// start from it, and the last rung rebuilds the input from it.
    fn ladder(&self, first_sweeps: usize, escalated_sweeps: usize) -> Result<Svd> {
        if let Ok((f, _)) = self.jacobi(first_sweeps) {
            return Ok(f);
        }
        koala_error::recovery::note_svd_sweep_escalation();
        if let Ok((f, _)) = self.jacobi(escalated_sweeps) {
            return Ok(f);
        }
        koala_error::recovery::note_gram_svd_fallback();
        svd_gram(&self.input())
    }

    /// One Jacobi attempt with an explicit sweep budget on the columns of
    /// `L = R^H`; returns the factors and the number of sweeps that rotated.
    ///
    /// The rotations `L J = W` converge to `W = U_L diag(s)` with `J`
    /// unitary, so `B = Q R = (Q J) diag(s) U_L^H`: the `k x k` factor `U_L`
    /// is read off `W`, the long factor is the one GEMM `Q J`.
    fn jacobi(&self, max_sweeps: usize) -> Result<(Svd, usize)> {
        let k = self.q.ncols();
        // Stacked column j of `w` is column j of L (the conjugated row j of
        // R) in buffer column 2j on column j of J (initially the identity) in
        // buffer column 2j + 1: adjacent, so a pair borrows both at once.
        let mut w = Cols::<T>::zeros(k, 2 * k);
        for j in 0..k {
            let l = w.col_mut(2 * j);
            for (i, &x) in self.r[j * k..(j + 1) * k].iter().enumerate() {
                T::write(l, i, x.conj());
            }
            T::write(w.col_mut(2 * j + 1), j, T::ONE);
        }
        let stride = w.stride();

        let mut sweeps = 0;
        let mut converged = false;
        while !converged && sweeps < max_sweeps {
            converged = true;
            for p in 0..k {
                for q in (p + 1)..k {
                    let (wp, wq) = w.blocks_mut(p, q, 2);
                    let ((lp, jp), (lq, jq)) = (wp.split_at_mut(stride), wq.split_at_mut(stride));
                    let (app, aqq, apq) = T::pair(lp, lq);
                    let g = apq.abs();
                    // Relative criterion of Demmel-Veselic: the pair is
                    // converged when the cosine of the angle between columns
                    // is at the level of round-off. Null columns (zero rows
                    // of R) have g = 0 and are never rotated.
                    if g <= 1e-15 * (app * aqq).sqrt().max(1e-300) {
                        continue;
                    }
                    converged = false;
                    let e_m = apq.unit_phase_conj(g);
                    let (c, s) = jacobi_rotation(app, aqq, g);
                    // Column update [w_p, w_q] <- [w_p, w_q] * J with
                    // J = [[c, s], [-s e^{-i phi}, c e^{-i phi}]].
                    let jqp = -e_m.scale(s);
                    let jqq = e_m.scale(c);
                    T::rotate(lp, lq, c, s, jqp, jqq);
                    T::rotate(jp, jq, c, s, jqp, jqq);
                }
            }
            sweeps += usize::from(!converged);
        }
        if !converged {
            // One-sided Jacobi in floating point can stall just above the
            // strict threshold; accept the result if the remaining coupling
            // is tiny relative to the matrix scale, otherwise report failure.
            let mut worst: f64 = 0.0;
            for p in 0..k {
                for q in (p + 1)..k {
                    worst = worst.max(T::dotc(w.col(2 * p), w.col(2 * q)).abs());
                }
            }
            if worst > 1e-9 * self.fro * self.fro {
                return Err(KoalaError::no_convergence("jacobi-svd", max_sweeps));
            }
        }

        // Extract singular values and assemble the factors in sorted order.
        let sigma: Vec<f64> = (0..k).map(|j| T::col_norm_sqr(w.col(2 * j)).sqrt()).collect();
        let mut order: Vec<usize> = (0..k).collect();
        order
            .sort_by(|&i, &j| sigma[j].partial_cmp(&sigma[i]).unwrap_or(std::cmp::Ordering::Equal));
        let cutoff = sigma.iter().cloned().fold(0.0, f64::max) * 1e-300;

        // `small` is U_L (wide: U itself) or its adjoint (tall: V^H), built
        // element-wise in its destination layout; `rot` is J, columns sorted.
        let mut s_sorted = Vec::with_capacity(k);
        let mut small = vec![T::ZERO; k * k];
        let mut rot = vec![T::ZERO; k * k];
        for (newcol, &old) in order.iter().enumerate() {
            let sv = sigma[old];
            // A null direction reports an exactly zero singular value and a
            // zero column in both factors: `small` is left zero here, and
            // column `old` of J is still the unit vector e_old, which picks
            // the zero column of Q.
            let significant = sv > cutoff && sv > 0.0;
            s_sorted.push(if significant { sv } else { 0.0 });
            let inv = if significant { 1.0 / sv } else { 0.0 };
            let (l, j) = (w.col(2 * old), w.col(2 * old + 1));
            for r in 0..k {
                rot[r * k + newcol] = T::read(j, r);
                let lr = T::read(l, r);
                if self.wide {
                    small[r * k + newcol] = lr.scale(inv);
                } else {
                    small[newcol * k + r] = lr.conj().scale(inv);
                }
            }
        }
        let small = Matrix::from_scalars(k, k, small);
        let rot = Matrix::from_scalars(k, k, rot);
        let (u, vh) = if self.wide {
            (small, gemm(Op::Adjoint, Op::Adjoint, &rot, &self.q))
        } else {
            (gemm(Op::None, Op::None, &self.q, &rot), small)
        };
        Ok((Svd { u, s: s_sorted, vh }, sweeps))
    }
}

/// The preconditioner of the leading route: `B = Q R` with `B` as in
/// [`Preconditioned`], by Householder reflectors instead of Gram-Schmidt,
/// and `Q` kept as those reflectors (never formed). A column of `B` whose
/// residual below the diagonal is at most `NULL_TOL |A|_F` gets no
/// reflector, so a rank-deficient `B` costs its rank in reflectors.
struct Leading<T> {
    wide: bool,
    fro: f64,
    q: Reflectors<T>,
    /// Row-major `k x k`.
    r: Vec<T>,
}

impl<T: Lanes> Leading<T> {
    /// Factorize `B` in the buffer its columns are gathered into, dropping
    /// `a` once they are.
    fn new(a: Matrix) -> Self {
        let wide = a.nrows() < a.ncols();
        let fro = a.norm_fro();
        let cols = Cols::<T>::from_matrix(&a, wide);
        drop(a);
        let (q, r) = householder_qr(cols, NULL_TOL * fro);
        Leading { wide, fro, q, r }
    }

    /// `Q [x; 0]` for the first `count` of the `k`-long columns `x` of `xs`,
    /// as the columns of a buffer as wide as `xs` (the rest stay zero).
    fn q_times(&self, xs: &Cols<T>, count: usize) -> Cols<T> {
        let mut out = Cols::<T>::zeros(self.q.len(), xs.ncols());
        for j in 0..count {
            let (x, col) = (xs.col(j), out.col_mut(j));
            for i in 0..xs.col_len() {
                T::write(col, i, T::read(x, i));
            }
        }
        self.q.apply(&mut out, count);
        out
    }

    /// The input rebuilt from the factors, `Q R` for a tall input and
    /// `(Q R)^H` for a wide one (exact up to round-off and the dropped
    /// residuals of null columns).
    fn into_input(self) -> Matrix {
        let k = self.q.count();
        let mut r = Cols::<T>::zeros(k, k);
        for (i, row) in self.r.chunks_exact(k).enumerate() {
            for (c, &x) in row.iter().enumerate() {
                T::write(r.col_mut(c), i, x);
            }
        }
        let b = self.q_times(&r, k);
        if self.wide {
            b.to_adjoint(k)
        } else {
            b.to_matrix(k, Vec::new())
        }
    }

    /// The leading route of [`svd_leading`] from this `Q R`, or `None` when
    /// an iteration does not converge or the result fails the self-check.
    fn triplets(&self, keep: &dyn Fn(&[f64]) -> usize, tol: f64) -> Option<(Svd, f64)> {
        let k = self.q.count();
        // `R / |A|_F`: the bidiagonal stage runs at unit scale.
        let unit = if self.fro > 0.0 { 1.0 / self.fro } else { 1.0 };
        let b = Bidiagonal::new(&self.r, k, unit);
        let mut sigma = singular_values(&b.d, &b.e)?;
        for x in &mut sigma {
            if *x <= NULL_TOL {
                *x = 0.0;
            }
        }
        let s: Vec<f64> = sigma.iter().map(|x| x * self.fro).collect();
        let kept = keep(&s).min(k);
        let err = s[kept..].iter().map(|x| x * x).sum::<f64>().sqrt();
        let live = s[..kept].iter().take_while(|&&x| x > 0.0).count();
        let (xs, ys) = singular_vectors(&b.d, &b.e, &sigma[..live])?;
        let (x, y) = (b.left(&xs, kept), b.right(&ys, kept));

        if !triplets_hold(&self.r, &s[..live], &x, &y, tol) {
            return None;
        }
        // `small` is the k x kept factor Y (wide: U itself) or its adjoint
        // (tall: V^H), built in its destination layout; `long` is Q X, the
        // null directions' columns left zero.
        let mut small = vec![T::ZERO; k * kept];
        for j in 0..kept {
            let col = y.col(j);
            for i in 0..k {
                if self.wide {
                    small[i * kept + j] = T::read(col, i);
                } else {
                    small[j * k + i] = T::read(col, i).conj();
                }
            }
        }
        let long = self.q_times(&x, live);
        let (u, vh) = if self.wide {
            (Matrix::from_scalars(k, kept, small), long.to_adjoint(kept))
        } else {
            (long.to_matrix(kept, Vec::new()), Matrix::from_scalars(kept, k, small))
        };
        Some((Svd { u, s: s[..kept].to_vec(), vh }, err))
    }
}

/// The self-check of the leading route: whether the triplets `(x_j, s_j,
/// y_j)`, one per entry of `s` (descending, positive), hold for the
/// row-major `k x k` factor `r` to `tol`: orthonormal columns of `x` and of
/// `y`, and `|R y_j - s_j x_j|` and `|R^H x_j - s_j y_j|` at most `tol s_1`.
/// `O(k^2)` lane-kernel work per triplet: `R y` as `axpy`s over the columns
/// of `R`, `R^H x` as their `dotc`s with `x`.
fn triplets_hold<T: Lanes>(r: &[T], s: &[f64], x: &Cols<T>, y: &Cols<T>, tol: f64) -> bool {
    let live = s.len();
    for p in 0..live {
        for q in p..live {
            let want = T::from_real(if p == q { -1.0 } else { 0.0 });
            let (xx, yy) = (T::dotc(x.col(p), x.col(q)) + want, T::dotc(y.col(p), y.col(q)) + want);
            if !(xx.abs() <= tol && yy.abs() <= tol) {
                return false;
            }
        }
    }
    let k = x.col_len();
    // The columns of R, then one work column.
    let mut cols = Cols::<T>::zeros(k, k + 1);
    for (i, row) in r.chunks_exact(k).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            T::write(cols.col_mut(c), i, v);
        }
    }
    let stride = cols.stride();
    let (r_cols, work) = cols.split_col_mut(k);
    let bound = tol * s.first().copied().unwrap_or(0.0);
    for (j, &sj) in s.iter().enumerate() {
        let (xj, yj) = (x.col(j), y.col(j));
        work.fill(0.0);
        for (c, rc) in r_cols.chunks_exact(stride).enumerate() {
            T::axpy(T::read(yj, c), rc, work);
        }
        T::axpy(T::from_real(-sj), xj, work);
        let forward = T::col_norm_sqr(work).sqrt();
        work.fill(0.0);
        for (c, rc) in r_cols.chunks_exact(stride).enumerate() {
            T::write(work, c, T::dotc(rc, xj));
        }
        T::axpy(T::from_real(-sj), yj, work);
        let adjoint = T::col_norm_sqr(work).sqrt();
        if !(forward <= bound && adjoint <= bound) {
            return false;
        }
    }
    true
}

/// SVD through the Gram matrix `A^H A` (or `A A^H`, whichever is smaller):
/// faster than Jacobi for tall-skinny matrices at the cost of ~sqrt(eps)
/// accuracy on small singular values. Used where the paper forms Gram
/// matrices explicitly (Algorithm 5).
///
/// Both Gram products and the factor recovery run through the fused
/// [`Op::Adjoint`](crate::gemm::Op) GEMM paths — no transposed operand or
/// factor copy is materialised on either the tall or the wide branch.
pub(crate) fn svd_gram(a: &Matrix) -> Result<Svd> {
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
    use koala_error::ErrorKind;
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
        let tail = f.truncation_error(k);
        let err = (&a - &f.truncated(k).reconstruct()).norm_fro();
        assert!((err - tail).abs() < 1e-9, "Eckart-Young mismatch");
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
        let e = svd(&a).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::NonFinite);
        assert!(e.message().contains("svd input"), "{e}");
        let after = koala_error::recovery::snapshot();
        assert!(after.nonfinite_detections > before.nonfinite_detections);
    }

    #[test]
    fn exhausted_sweep_budget_reports_no_convergence() {
        let mut rng = StdRng::seed_from_u64(47);
        // Zero sweeps cannot decorrelate random columns, in either
        // instantiation.
        let attempts = [
            Preconditioned::<C64>::new(Matrix::random(6, 4, &mut rng)).jacobi(0),
            Preconditioned::<f64>::new(Matrix::random_real(6, 4, &mut rng)).jacobi(0),
        ];
        for attempt in attempts {
            let e = attempt.unwrap_err();
            assert_eq!(e.kind(), ErrorKind::NoConvergence);
            assert_eq!(e.message(), "jacobi-svd did not converge after 0 iterations");
        }
    }

    /// Orientation pin. Jacobi runs on the columns of `R^H`. Run on the
    /// columns of `R` instead (whose Gram matrix is that of `B`'s own columns,
    /// i.e. the un-preconditioned iteration) the two dense inputs below need
    /// the same 8 sweeps each, but the rank-8 input never meets the strict
    /// criterion (1000 sweeps measured): its 24 dependent columns have to be
    /// rotated down to round-off instead of starting as exact zeros, and every
    /// call burns the whole [`MAX_SWEEPS`] budget before the stall acceptance.
    #[test]
    fn jacobi_on_the_rows_of_r_converges_in_few_sweeps() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let rank8 = matmul(&Matrix::random(32, 8, &mut rng), &Matrix::random(8, 32, &mut rng));
        // (input, sweeps recorded on x86-64, bound asserted)
        let cases = [
            (Matrix::random(49, 343, &mut rng), 8, 10),
            (Matrix::random(32, 32, &mut rng), 7, 10),
            (rank8, 6, 8),
        ];
        for (a, recorded, bound) in cases {
            let (f, sweeps) = Preconditioned::<C64>::new(a.clone()).jacobi(MAX_SWEEPS).unwrap();
            assert!(f.reconstruct().approx_eq(&a, 1e-12 * a.norm_fro()));
            assert!(
                sweeps <= bound,
                "{:?}: {sweeps} sweeps (recorded {recorded}, bound {bound})",
                a.shape()
            );
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
            let f = super::svd_with_budgets(a.clone(), 0, 0).expect("gram fallback should succeed");
            assert!(f.reconstruct().approx_eq(&a, 1e-8), "fallback factors must reconstruct");
            let after = koala_error::recovery::snapshot();
            assert!(after.svd_sweep_escalations > before.svd_sweep_escalations);
            assert!(after.gram_svd_fallbacks > before.gram_svd_fallbacks);
        }
    }

    /// A failed self-check lands on the Jacobi ladder of the input rebuilt
    /// from the Householder `Q R`: the fallback is counted, and the result is
    /// `svd` of that matrix truncated, bit for bit, with the same discarded
    /// weight.
    #[test]
    fn leading_fallback_is_the_truncated_jacobi_svd_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(49);
        for (m, n, real) in [(30, 12, false), (9, 25, false), (16, 16, true), (7, 20, true)] {
            let a = if real {
                Matrix::random_real(m, n, &mut rng)
            } else {
                Matrix::random(m, n, &mut rng)
            };
            let keep = |s: &[f64]| s.len() / 2;
            let before = koala_error::recovery::snapshot().leading_svd_fallbacks;
            // A negative tolerance fails every check.
            let (f, err) = svd_leading_checked(a.clone(), &keep, -1.0).unwrap();
            assert!(koala_error::recovery::snapshot().leading_svd_fallbacks > before);
            let rebuilt = if real {
                Leading::<f64>::new(a.clone()).into_input()
            } else {
                Leading::<C64>::new(a.clone()).into_input()
            };
            assert!(rebuilt.approx_eq(&a, 1e-13 * a.norm_fro()), "{m}x{n}: Q R != A");
            let full = svd(&rebuilt).unwrap();
            let kept = keep(&full.s);
            assert_eq!(err.to_bits(), full.truncation_error(kept).to_bits());
            let want = full.truncated(kept);
            let bits = |f: &Svd| {
                let entries = f.u.data().iter().chain(f.vh.data()).flat_map(|z| [z.re, z.im]);
                entries.chain(f.s.iter().copied()).map(f64::to_bits).collect::<Vec<_>>()
            };
            assert_eq!((f.u.shape(), f.vh.shape()), (want.u.shape(), want.vh.shape()));
            assert_eq!(bits(&f), bits(&want), "{m}x{n}");
            assert_eq!((f.u.is_real(), f.vh.is_real()), (real, real));
        }
    }

    /// The Gram route materialises no transposed operand or factor copy in
    /// either orientation: both Gram products and the factor recovery fuse
    /// the adjoint into GEMM packing.
    #[test]
    fn svd_gram_materializes_no_adjoints() {
        let mut rng = StdRng::seed_from_u64(8);
        let tall = Matrix::random(40, 7, &mut rng);
        let wide = Matrix::random(7, 40, &mut rng);
        let before = crate::matrix::THREAD_TRANSPOSES.with(|n| n.get());
        let g = svd_gram(&tall).unwrap();
        assert!(g.reconstruct().approx_eq(&tall, 1e-8));
        let g = svd_gram(&wide).unwrap();
        assert!(g.reconstruct().approx_eq(&wide, 1e-8));
        let after = crate::matrix::THREAD_TRANSPOSES.with(|n| n.get());
        assert_eq!(after, before, "svd_gram multiply paths materialised a transpose");
    }

    /// On real inputs of every full-rank shape class the Gram route runs
    /// the real eigh path underneath, so its factors carry the hint.
    #[test]
    fn svd_gram_keeps_the_realness_hint() {
        let mut rng = StdRng::seed_from_u64(0xFAC7);
        // The rank-deficient 12x8 input of the real-path property test,
        // drawn only to keep the stream of the cases below.
        Matrix::random_real(12, 3, &mut rng);
        Matrix::random_real(3, 8, &mut rng);
        let cases = [
            ("tall", Matrix::random_real(24, 6, &mut rng)),
            ("wide", Matrix::random_real(5, 17, &mut rng)),
            ("square", Matrix::random_real(9, 9, &mut rng)),
        ];
        for (label, a) in &cases {
            let scale = a.norm_max().max(1.0);
            let sg = svd_gram(a).unwrap();
            assert!(
                sg.u.is_real() && sg.vh.is_real(),
                "{label}: svd_gram factors must carry the hint"
            );
            assert!(sg.reconstruct().approx_eq(a, 1e-7 * scale), "{label}: gram USV^H != A");
        }
    }

    #[test]
    fn empty_and_single_entry() {
        let f = svd(Matrix::zeros(0, 3)).unwrap();
        assert_eq!(f.s.len(), 0);
        let a = Matrix::from_vec(1, 1, vec![c64(0.0, -2.0)]).unwrap();
        let f = check_svd(&a, 1e-14);
        assert!((f.s[0] - 2.0).abs() < 1e-14);
    }
}

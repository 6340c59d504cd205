//! The leading route of [`svd_leading`](crate::svd::svd_leading): a
//! Householder QR of the input's long side, a Golub-Kahan bidiagonalization
//! of its small square factor, all of its singular values, and singular
//! vectors for the leading ones only (the design of LAPACK's `zgesvdx`).
//!
//! 0. [`householder_qr`] factors the `max(m, n) x k` long side `B = Q R`
//!    in place (`zgeqrf`, QR before bidiagonalization as in Chan's
//!    algorithm) and keeps `Q` as its [`Reflectors`]: the route only ever
//!    applies `Q`, to the kept vectors, so it never forms it.
//! 1. [`Bidiagonal::new`] reduces the `k x k` factor `R` to `R = P B W^H`
//!    with Householder reflectors from both sides (`zgebrd`). Each reflector
//!    is generated as in `zlarfg`, so `B` is real and upper bidiagonal at
//!    either scalar type.
//! 2. [`singular_values`] finds every singular value of `B` by the
//!    implicit-shift QR iteration of Golub, Kahan, Demmel and Kahan
//!    (`dbdsqr` without vectors): `O(k^2)` rotations.
//! 3. [`singular_vectors`] finds `B y = s x` for the requested values only,
//!    by inverse iteration on the `2k x 2k` Golub-Kahan tridiagonal, whose
//!    eigenvalues are `+-s` and whose eigenvectors interleave `y` and `x`
//!    (`dstein` on the matrix `dbdsvdx` forms). Each iterate is
//!    re-orthogonalized against the vectors already found, and the `x` and
//!    `y` halves are orthonormalized as two sets at the end.
//! 4. [`Bidiagonal::left`] and [`Bidiagonal::right`] carry those vectors
//!    back through the reflectors: `R (W y) = s (P x)`; the caller applies
//!    `Q` to `P x` for the long factor.
//!
//! Every reflector is applied column by column with the 8-lane kernels of
//! `lanes.rs`, from its first nonzero row (rounded down to the lane
//! boundary) on: `H_j` costs the rows it acts on.
//!
//! Nothing here decides whether a result is good enough: the caller checks
//! the back-transformed triplets against `R` and falls back to the Jacobi
//! iteration when they fail.

use crate::lanes::{Cols, Lanes};

/// Householder reflectors `H_j = I - tau_j v_j v_j^H`, `j = 0..taus.len()`:
/// column `j` of `vs` holds `v_j`, zero above its active row `j + shift`
/// and one at it. A reflector with `tau = 0` is the identity.
pub(crate) struct Reflectors<T> {
    vs: Cols<T>,
    taus: Vec<T>,
    shift: usize,
}

impl<T: Lanes> Reflectors<T> {
    /// `H_0 ... H_{r-1} x` (the last reflector first) for each of the first
    /// `count` columns `x` of `out`, whose length is that of the vectors.
    pub(crate) fn apply(&self, out: &mut Cols<T>, count: usize) {
        for (i, &tau) in self.taus.iter().enumerate().rev() {
            if tau.abs() == 0.0 {
                continue;
            }
            let v = self.vs.col(i);
            for j in 0..count {
                reflect(v, tau, i + self.shift, out.col_mut(j));
            }
        }
    }

    /// Length of the vectors.
    pub(crate) fn len(&self) -> usize {
        self.vs.col_len()
    }

    /// Number of reflectors.
    pub(crate) fn count(&self) -> usize {
        self.taus.len()
    }
}

/// `col <- (I - tau v v^H) col` for a `v` that is zero above row `at`: both
/// kernels start at `at` (rounded down to the lane boundary), so a reflector
/// costs the rows it acts on. `tau` for `H`, `conj(tau)` for `H^H`.
fn reflect<T: Lanes>(v: &[f64], tau: T, at: usize, col: &mut [f64]) {
    let p = T::dotc_from(v, col, at);
    T::axpy_from(-(tau * p), v, col, at);
}

/// `B = Q R` for the `k` columns of `b` (length at least `k`), in place by
/// Householder reflectors (LAPACK's `zgeqrf`, left-looking: column `j`
/// takes `H_0^H`, ..., `H_{j-1}^H` in turn, then yields `H_j`). Returns `Q`
/// as its reflectors, which take over the buffer of `b`, and the row-major
/// `k x k` factor `R`.
///
/// A column whose residual below the diagonal has norm at most `tol` gets
/// no reflector (`tau = 0`): its diagonal of `R` is the entry as it stands
/// and the residual is dropped, an error of at most `tol` per column. So a
/// rank-`r` input makes `r` reflectors, and every later column pays for
/// those `r` only.
pub(crate) fn householder_qr<T: Lanes>(mut b: Cols<T>, tol: f64) -> (Reflectors<T>, Vec<T>) {
    let (k, stride) = (b.ncols(), b.stride());
    let mut r = vec![T::ZERO; k * k];
    let mut taus: Vec<T> = Vec::with_capacity(k);
    for j in 0..k {
        let (vs, col) = b.split_col_mut(j);
        for (i, (v, &tau)) in vs.chunks_exact(stride).zip(&taus).enumerate() {
            if tau.abs() != 0.0 {
                reflect(v, tau.conj(), i, col);
            }
        }
        // Rows above j are column j of R; the vector of H_j is zero there.
        for i in 0..j {
            r[i * k + j] = T::read(col, i);
            T::write(col, i, T::ZERO);
        }
        let (alpha, below) = pivot::<T>(col, j);
        let (diagonal, tau) = if below.sqrt() <= tol {
            (alpha, T::ZERO)
        } else {
            let (beta, tau) = householder(col, j, alpha, below);
            (T::from_real(beta), tau)
        };
        r[j * k + j] = diagonal;
        taus.push(tau);
    }
    (Reflectors { vs: b, taus, shift: 0 }, r)
}

/// `R = P B W^H` for a square `k x k` factor `R`: `B` real upper bidiagonal,
/// `P = H_0 ... H_{k-1}` and `W = G_0 ... G_{k-2}` products of Householder
/// reflectors.
pub(crate) struct Bidiagonal<T> {
    /// Diagonal of `B`, length `k`.
    pub(crate) d: Vec<f64>,
    /// Superdiagonal of `B`, length `k - 1`.
    pub(crate) e: Vec<f64>,
    /// The `H_j`, active from row `j`.
    left: Reflectors<T>,
    /// The `G_j`, active from row `j + 1`.
    right: Reflectors<T>,
}

impl<T: Lanes> Bidiagonal<T> {
    /// Bidiagonalize the row-major `k x k` matrix `r` times `scale`.
    pub(crate) fn new(r: &[T], k: usize, scale: f64) -> Self {
        let mut a = Cols::<T>::zeros(k, k);
        for (i, row) in r.chunks_exact(k).enumerate() {
            for (c, &x) in row.iter().enumerate() {
                T::write(a.col_mut(c), i, x.scale(scale));
            }
        }
        let mut left = Cols::<T>::zeros(k, k);
        let mut right = Cols::<T>::zeros(k, k.saturating_sub(1));
        let mut w = Cols::<T>::zeros(k, 1);
        let (mut d, mut e) = (Vec::with_capacity(k), Vec::with_capacity(k));
        let (mut left_tau, mut right_tau) = (Vec::with_capacity(k), Vec::with_capacity(k));
        for j in 0..k {
            // H_j^H takes column j to `d_j e_j`; apply it to the columns
            // right of it.
            let v = left.col_mut(j);
            for i in j..k {
                T::write(v, i, T::read(a.col(j), i));
            }
            let (beta, tau) = reflector::<T>(v, j);
            d.push(beta);
            left_tau.push(tau);
            if tau.abs() != 0.0 {
                let v = left.col(j);
                for c in j + 1..k {
                    reflect(v, tau.conj(), j, a.col_mut(c));
                }
            }
            if j + 1 == k {
                break;
            }
            // G_j takes row j to `(d_j, e_j, 0, ...)` from the right: the
            // reflector of the conjugated row, applied as `A - tau (A v) v^H`.
            // Rows above j of these columns hold round-off the left
            // reflectors never read again.
            let v = right.col_mut(j);
            for c in j + 1..k {
                T::write(v, c, T::read(a.col(c), j).conj());
            }
            let (beta, tau) = reflector::<T>(v, j + 1);
            e.push(beta);
            right_tau.push(tau);
            if tau.abs() != 0.0 {
                let v = right.col(j);
                let av = w.col_mut(0);
                av.fill(0.0);
                for c in j + 1..k {
                    T::axpy(T::read(v, c), a.col(c), av);
                }
                for c in j + 1..k {
                    T::axpy(-(tau * T::read(v, c).conj()), w.col(0), a.col_mut(c));
                }
            }
        }
        Bidiagonal {
            d,
            e,
            left: Reflectors { vs: left, taus: left_tau, shift: 0 },
            right: Reflectors { vs: right, taus: right_tau, shift: 1 },
        }
    }

    /// `P x` for each real `x` of length `k` in the concatenation `xs`, as
    /// the columns of a buffer with `ncols` columns (those past `xs` stay
    /// zero).
    pub(crate) fn left(&self, xs: &[f64], ncols: usize) -> Cols<T> {
        back_transform(&self.left, xs, ncols)
    }

    /// `W y` for each real `y` of length `k` in `ys` (as [`Bidiagonal::left`]).
    pub(crate) fn right(&self, ys: &[f64], ncols: usize) -> Cols<T> {
        back_transform(&self.right, ys, ncols)
    }
}

/// The reflectors applied to each real vector of `xs`.
fn back_transform<T: Lanes>(reflectors: &Reflectors<T>, xs: &[f64], ncols: usize) -> Cols<T> {
    let k = reflectors.len();
    let mut out = Cols::<T>::zeros(k, ncols);
    let count = xs.len() / k.max(1);
    for (j, x) in xs.chunks_exact(k.max(1)).enumerate() {
        let col = out.col_mut(j);
        for (i, &xi) in x.iter().enumerate() {
            T::write(col, i, T::from_real(xi));
        }
    }
    reflectors.apply(&mut out, count);
    out
}

/// Split entry `at` off a column `v` that is zero above it: returns it as
/// `alpha` together with `|v|^2` over the entries below, and leaves a one
/// in its place.
fn pivot<T: Lanes>(v: &mut [f64], at: usize) -> (T, f64) {
    let alpha = T::read(v, at);
    T::write(v, at, T::ZERO);
    let below = T::col_norm_sqr(v);
    T::write(v, at, T::ONE);
    (alpha, below)
}

/// Overwrite entries `at..` of `v` (zero above `at`), which hold `x`, with
/// the vector of the reflector `H = I - tau v v^H`, `v[at] = 1`, such that
/// `H^H x = beta e_at` with `beta` real; return `(beta, tau)` (LAPACK's
/// `zlarfg`). A real `x` with nothing below `at` gets `tau = 0`.
fn reflector<T: Lanes>(v: &mut [f64], at: usize) -> (f64, T) {
    let (alpha, below) = pivot::<T>(v, at);
    if below == 0.0 && (alpha + -alpha.conj()).abs() == 0.0 {
        return (alpha.re(), T::ZERO);
    }
    householder(v, at, alpha, below)
}

/// The rest of [`reflector`] once [`pivot`] has split off `alpha` and
/// `below`.
fn householder<T: Lanes>(v: &mut [f64], at: usize, alpha: T, below: f64) -> (f64, T) {
    let beta = -(alpha.norm_sqr() + below).sqrt().copysign(alpha.re());
    let tau = (T::from_real(beta) + -alpha).scale(1.0 / beta);
    let pivot = alpha + T::from_real(-beta);
    let inv = pivot.conj().scale(1.0 / pivot.norm_sqr());
    for i in at + 1..v.len() / T::PLANES {
        T::write(v, i, T::read(v, i) * inv);
    }
    (beta, tau)
}

/// `(c, s, r)` with `[c s; -s c] [f; g] = [r; 0]` (LAPACK's `dlartg`).
fn rotation(f: f64, g: f64) -> (f64, f64, f64) {
    if g == 0.0 {
        return (1.0, 0.0, f);
    }
    if f == 0.0 {
        return (0.0, g.signum(), g.abs());
    }
    let mut r = (f * f + g * g).sqrt();
    if !(r > 0.0 && r.is_finite()) {
        r = f.hypot(g);
    }
    let r = r.copysign(f);
    let inv = 1.0 / r;
    (f * inv, g * inv, r)
}

/// The smaller singular value of `[[f, g], [0, h]]` (LAPACK's `dlas2`).
fn smaller_singular_value(f: f64, g: f64, h: f64) -> f64 {
    let (fa, ga, ha) = (f.abs(), g.abs(), h.abs());
    let (fhmn, fhmx) = (fa.min(ha), fa.max(ha));
    if fhmn == 0.0 {
        return 0.0;
    }
    if ga < fhmx {
        let as_ = 1.0 + fhmn / fhmx;
        let at = (fhmx - fhmn) / fhmx;
        let au = (ga / fhmx) * (ga / fhmx);
        return fhmn * (2.0 / ((as_ * as_ + au).sqrt() + (at * at + au).sqrt()));
    }
    let au = fhmx / ga;
    if au == 0.0 {
        return (fhmn * fhmx) / ga;
    }
    let as_ = 1.0 + fhmn / fhmx;
    let at = (fhmx - fhmn) / fhmx;
    let c = 1.0 / ((1.0 + (as_ * au) * (as_ * au)).sqrt() + (1.0 + (at * au) * (at * au)).sqrt());
    2.0 * ((fhmn * c) * au)
}

/// Every singular value of the upper bidiagonal matrix with diagonal `d` and
/// superdiagonal `e`, in descending order, or `None` if the iteration has
/// not converged after `6 k^2` inner steps (`dbdsqr`'s budget).
///
/// A superdiagonal entry is dropped when it is below `eps` times its two
/// diagonal neighbours, a diagonal entry when it is below `eps |B|`, so each
/// value is accurate to a small multiple of `eps |B|`. A zero on the
/// diagonal is chased out of its block by rotations, which splits it off;
/// a 2x2 block is solved in closed form; anything else takes one sweep of
/// the shifted QR step, or of the zero-shift step when the shift would be
/// lost against the block's first diagonal entry.
pub(crate) fn singular_values(d: &[f64], e: &[f64]) -> Option<Vec<f64>> {
    let (mut d, mut e) = (d.to_vec(), e.to_vec());
    let n = d.len();
    let eps = f64::EPSILON;
    let scale = d.iter().chain(&e).fold(0.0f64, |m, x| m.max(x.abs()));
    let negligible = |e: f64, d0: f64, d1: f64| e.abs() <= eps * (d0.abs() + d1.abs());
    let mut budget = 6 * n * n;
    let mut hi = n.saturating_sub(1);
    while hi > 0 {
        if negligible(e[hi - 1], d[hi - 1], d[hi]) {
            e[hi - 1] = 0.0;
            hi -= 1;
            continue;
        }
        let mut lo = hi - 1;
        while lo > 0 && !negligible(e[lo - 1], d[lo - 1], d[lo]) {
            lo -= 1;
        }
        if lo > 0 {
            e[lo - 1] = 0.0;
        }
        if let Some(i) = (lo..=hi).find(|&i| d[i].abs() <= eps * scale) {
            d[i] = 0.0;
            if i < hi {
                // Rotate rows i+1.. into row i until its superdiagonal is gone.
                let mut f = std::mem::take(&mut e[i]);
                for j in i + 1..=hi {
                    let (c, s, r) = rotation(d[j], f);
                    d[j] = r;
                    if j < hi {
                        f = -s * e[j];
                        e[j] *= c;
                    }
                }
            } else {
                // Rotate columns ..hi into column hi until it is gone.
                let mut f = std::mem::take(&mut e[hi - 1]);
                for j in (lo..hi).rev() {
                    let (c, s, r) = rotation(d[j], f);
                    d[j] = r;
                    if j > lo {
                        f = -s * e[j - 1];
                        e[j - 1] *= c;
                    }
                }
            }
            continue;
        }
        if hi == lo + 1 {
            let small = smaller_singular_value(d[lo], e[lo], d[hi]);
            // The product of the two values is |d_lo d_hi|.
            let large = if small > 0.0 {
                (d[lo] * d[hi]).abs() / small
            } else {
                d[lo].hypot(e[lo]).max(d[hi].hypot(e[lo]))
            };
            d[lo] = large;
            d[hi] = small;
            e[lo] = 0.0;
            continue;
        }
        budget = budget.checked_sub(hi - lo)?;
        let shift = smaller_singular_value(d[hi - 1], e[hi - 1], d[hi]);
        let first = d[lo].abs();
        if (shift / first) * (shift / first) < eps {
            zero_shift_sweep(&mut d[lo..=hi], &mut e[lo..hi]);
        } else {
            shifted_sweep(&mut d[lo..=hi], &mut e[lo..hi], shift);
        }
    }
    let mut s: Vec<f64> = d.iter().map(|x| x.abs()).collect();
    s.sort_by(|a, b| b.total_cmp(a));
    Some(s)
}

/// One implicit zero-shift QR sweep of Demmel and Kahan over an unreduced
/// block.
fn zero_shift_sweep(d: &mut [f64], e: &mut [f64]) {
    let m = e.len();
    let (mut cs, mut oldcs, mut oldsn) = (1.0, 1.0, 0.0);
    for i in 0..m {
        let (c, s, r) = rotation(d[i] * cs, e[i]);
        cs = c;
        if i > 0 {
            e[i - 1] = oldsn * r;
        }
        let (c, s2, r) = rotation(oldcs * r, d[i + 1] * s);
        (oldcs, oldsn, d[i]) = (c, s2, r);
    }
    let h = d[m] * cs;
    d[m] = h * oldcs;
    e[m - 1] = h * oldsn;
}

/// One implicit shifted QR sweep (the Golub-Kahan step) over an unreduced
/// block.
fn shifted_sweep(d: &mut [f64], e: &mut [f64], shift: f64) {
    let m = e.len();
    let mut f = (d[0].abs() - shift) * (1.0f64.copysign(d[0]) + shift / d[0]);
    let mut g = e[0];
    for i in 0..m {
        let (cosr, sinr, r) = rotation(f, g);
        if i > 0 {
            e[i - 1] = r;
        }
        f = cosr * d[i] + sinr * e[i];
        e[i] = cosr * e[i] - sinr * d[i];
        g = sinr * d[i + 1];
        d[i + 1] *= cosr;
        let (cosl, sinl, r) = rotation(f, g);
        d[i] = r;
        f = cosl * e[i] + sinl * d[i + 1];
        d[i + 1] = cosl * d[i + 1] - sinl * e[i];
        if i + 1 < m {
            g = sinl * e[i + 1];
            e[i + 1] *= cosl;
        }
    }
    e[m - 1] = f;
}

/// Inverse-iteration steps per vector before giving up.
const MAX_ITERATIONS: usize = 4;

/// Unit vectors `x` and `y` with `B y = s x` and `B^T x = s y` for each `s`
/// of `sigma` (singular values of `B`, positive), concatenated: `(xs, ys)`,
/// each `sigma.len() * k` long. `None` where an iteration fails to converge.
///
/// The Golub-Kahan tridiagonal `T` is `[[0, B^T], [B, 0]]` with rows and
/// columns interleaved as `(y_0, x_0, y_1, x_1, ...)`: zero diagonal and
/// off-diagonal `(d_0, e_0, d_1, ..., d_{k-1})`. Its eigenvector for `+s`
/// is `(y, x) / sqrt(2)`. Each vector starts from a fixed pseudo-random
/// vector and is iterated as `(T - s) z_new = z`, with `T - s` factorized
/// once by Gaussian elimination with partial pivoting (a pivot below
/// `eps |T|` is raised to it) and every iterate orthogonalized against the
/// vectors already found. It has converged when its growth certifies a
/// residual at round-off, `|T z - s z| <= 2k eps |T|`; one step usually
/// suffices, since `s` is accurate to a few `eps |T|`.
pub(crate) fn singular_vectors(
    d: &[f64],
    e: &[f64],
    sigma: &[f64],
) -> Option<(Vec<f64>, Vec<f64>)> {
    let k = d.len();
    let n = 2 * k;
    let mut off = Vec::with_capacity(n);
    for i in 0..k {
        off.push(d[i]);
        if i + 1 < k {
            off.push(e[i]);
        }
    }
    let norm = (0..n)
        .map(|i| {
            let before = if i > 0 { off[i - 1].abs() } else { 0.0 };
            before + off.get(i).map_or(0.0, |x| x.abs())
        })
        .fold(0.0, f64::max);
    let round_off = n as f64 * f64::EPSILON * norm;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut zs = vec![0.0; sigma.len() * n];
    let mut lu = Tridiagonal::with_len(n);
    for (j, &s) in sigma.iter().enumerate() {
        lu.factor(&off, s, f64::EPSILON * norm);
        let (found, rest) = zs.split_at_mut(j * n);
        let z = &mut rest[..n];
        z.iter_mut().for_each(|x| *x = uniform(&mut state));
        normalize(z)?;
        let mut converged = false;
        for _ in 0..MAX_ITERATIONS {
            lu.solve(z);
            for prev in found.chunks_exact(n) {
                let p = dot(prev, z);
                z.iter_mut().zip(prev).for_each(|(a, b)| *a -= p * b);
            }
            if normalize(z)? * round_off >= 1.0 {
                converged = true;
                break;
            }
        }
        if !converged {
            return None;
        }
    }
    let mut xs: Vec<f64> = zs.iter().skip(1).step_by(2).copied().collect();
    let mut ys: Vec<f64> = zs.iter().step_by(2).copied().collect();
    orthonormalize(&mut xs, k)?;
    orthonormalize(&mut ys, k)?;
    Some((xs, ys))
}

/// Twice-applied Gram-Schmidt over the concatenated vectors of length `k`
/// in `vs`, each normalized. The halves of the `z` are orthogonal only
/// together: a kept value `s` that is tiny against `|T|` has eigenvectors
/// `eps |T| / 2s` away from those of the values `-s_i` next to its mirror,
/// so each half mixes in its neighbours' by that much. Orthonormalizing
/// the `x` and the `y` separately moves each pair off `B y = s x` by only
/// `s` times that mixing, far below round-off relative to `|B|`.
fn orthonormalize(vs: &mut [f64], k: usize) -> Option<()> {
    for j in 0..vs.len() / k.max(1) {
        let (done, rest) = vs.split_at_mut(j * k);
        let v = &mut rest[..k];
        for _ in 0..2 {
            for prev in done.chunks_exact(k) {
                let p = dot(prev, v);
                v.iter_mut().zip(prev).for_each(|(a, b)| *a -= p * b);
            }
        }
        normalize(v)?;
    }
    Some(())
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Scale `z` to unit length and return its former length, or `None` if that
/// is zero or not finite.
fn normalize(z: &mut [f64]) -> Option<f64> {
    let norm = dot(z, z).sqrt();
    if !(norm > 0.0 && norm.is_finite()) {
        return None;
    }
    let inv = 1.0 / norm;
    z.iter_mut().for_each(|x| *x *= inv);
    Some(norm)
}

/// The next value in `[-1, 1)` of a splitmix64 stream.
fn uniform(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// `L U` of the symmetric tridiagonal matrix with zero diagonal shifted by
/// `-s`, with row interchanges (LAPACK's `dgttrf`): `U` has two
/// superdiagonals.
struct Tridiagonal {
    /// Reciprocal diagonal of `U`.
    inv: Vec<f64>,
    /// First superdiagonal of `U`.
    u1: Vec<f64>,
    /// Second superdiagonal of `U` (nonzero only after an interchange).
    u2: Vec<f64>,
    /// Multipliers of `L`.
    l: Vec<f64>,
    /// Whether step `i` swapped rows `i` and `i + 1`.
    swapped: Vec<bool>,
}

impl Tridiagonal {
    /// Buffers for order `n`.
    fn with_len(n: usize) -> Self {
        let z = vec![0.0; n];
        Tridiagonal { inv: z.clone(), u1: z.clone(), u2: z.clone(), l: z, swapped: vec![false; n] }
    }

    /// Factorize `T - s` of order `off.len() + 1`, raising pivots below
    /// `floor` to it.
    fn factor(&mut self, off: &[f64], s: f64, floor: f64) {
        let n = off.len() + 1;
        let raise = |x: f64| if x.abs() < floor { floor.copysign(x) } else { x };
        let Tridiagonal { inv, u1, u2, l, swapped } = self;
        u1[..n - 1].copy_from_slice(off);
        u2.fill(0.0);
        // `pivot` is the running diagonal entry of row i.
        let mut pivot = -s;
        for i in 0..n - 1 {
            let below = off[i];
            if pivot.abs() >= below.abs() {
                let p = raise(pivot);
                inv[i] = 1.0 / p;
                l[i] = below * inv[i];
                pivot = -s - l[i] * u1[i];
                swapped[i] = false;
            } else {
                l[i] = pivot / below;
                inv[i] = 1.0 / raise(below);
                let t = u1[i];
                u1[i] = -s;
                pivot = t + s * l[i];
                if i + 2 < n {
                    u2[i] = u1[i + 1];
                    u1[i + 1] *= -l[i];
                }
                swapped[i] = true;
            }
        }
        inv[n - 1] = 1.0 / raise(pivot);
    }

    /// Overwrite `b` with the solution of `(T - s) z = b`.
    fn solve(&self, b: &mut [f64]) {
        let n = b.len();
        for i in 0..n - 1 {
            if self.swapped[i] {
                b.swap(i, i + 1);
            }
            b[i + 1] -= self.l[i] * b[i];
        }
        b[n - 1] *= self.inv[n - 1];
        if n > 1 {
            b[n - 2] = (b[n - 2] - self.u1[n - 2] * b[n - 1]) * self.inv[n - 2];
        }
        for i in (0..n.saturating_sub(2)).rev() {
            b[i] = (b[i] - self.u1[i] * b[i + 1] - self.u2[i] * b[i + 2]) * self.inv[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Singular values of a small bidiagonal by the eigenvalues of
    /// `B^T B` from a dense Jacobi, for comparison.
    fn dense_values(d: &[f64], e: &[f64]) -> Vec<f64> {
        let n = d.len();
        let mut b = crate::matrix::Matrix::zeros(n, n);
        for i in 0..n {
            b[(i, i)] = crate::scalar::c64(d[i], 0.0);
            if i + 1 < n {
                b[(i, i + 1)] = crate::scalar::c64(e[i], 0.0);
            }
        }
        crate::svd::svd(b).unwrap().s
    }

    #[test]
    fn bidiagonal_values_match_the_jacobi_svd() {
        let mut state = 7u64;
        let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (vec![3.0], vec![]),
            (vec![1.0, 2.0], vec![0.5]),
            (vec![0.0, 2.0, 1.0], vec![1.0, 1.0]),
            (vec![1.0, 0.0, 1.0, 2.0], vec![1.0, 1.0, 0.0]),
            (vec![1.0, 1.0, 1.0, 1.0, 1.0], vec![1e-20, 1.0, 1e-300, 1.0]),
            (
                (0..40).map(|_| uniform(&mut state)).collect(),
                (0..39).map(|_| uniform(&mut state)).collect(),
            ),
            ((0..30).map(|i| 10f64.powi(-i / 3)).collect(), vec![1e-3; 29]),
        ];
        for (d, e) in cases {
            let got = singular_values(&d, &e).unwrap();
            let want = dense_values(&d, &e);
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g - w).abs() <= 1e-14 * want[0].max(1e-300) * d.len() as f64,
                    "{d:?}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn golub_kahan_vectors_solve_the_bidiagonal() {
        let mut state = 11u64;
        let d: Vec<f64> = (0..24).map(|_| uniform(&mut state)).collect();
        let e: Vec<f64> = (0..23).map(|_| uniform(&mut state)).collect();
        let s = singular_values(&d, &e).unwrap();
        let (xs, ys) = singular_vectors(&d, &e, &s[..6]).unwrap();
        let (xs, ys): (Vec<_>, Vec<_>) = (xs.chunks(24).collect(), ys.chunks(24).collect());
        for j in 0..6 {
            let (x, y) = (xs[j], ys[j]);
            for i in 0..24 {
                let by = d[i] * y[i] + if i + 1 < 24 { e[i] * y[i + 1] } else { 0.0 };
                let btx = d[i] * x[i] + if i > 0 { e[i - 1] * x[i - 1] } else { 0.0 };
                assert!((by - s[j] * x[i]).abs() < 1e-13 && (btx - s[j] * y[i]).abs() < 1e-13);
            }
            for p in 0..j {
                assert!(dot(xs[p], x).abs() < 1e-13 && dot(ys[p], y).abs() < 1e-13);
            }
        }
    }
}

//! Dense row-major complex matrix.

use crate::scalar::{c64, Scalar, C64};
use koala_error::{KoalaError, Result};
use rand::Rng;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};
use std::sync::atomic::{AtomicU64, Ordering};

/// Global count of materialised transpositions ([`Matrix::transpose`] /
/// [`Matrix::adjoint`] calls). The hot linalg paths are expected to fuse
/// transposition into GEMM packing via [`crate::gemm::Op`] instead of
/// materialising copies; tests assert the counter stays at zero across those
/// paths. Diagnostics only — never used for control flow.
static TRANSPOSE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Read the global transpose/adjoint materialisation counter.
pub fn transpose_counter() -> u64 {
    TRANSPOSE_COUNTER.load(Ordering::Relaxed)
}

#[cfg(test)]
thread_local! {
    /// This thread's share of [`TRANSPOSE_COUNTER`]: unit tests of serial
    /// kernels read it while other tests materialise copies in parallel.
    pub(crate) static THREAD_TRANSPOSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn count_transpose() {
    TRANSPOSE_COUNTER.fetch_add(1, Ordering::Relaxed);
    #[cfg(test)]
    THREAD_TRANSPOSES.with(|n| n.set(n.get() + 1));
}

/// Dense matrix of [`C64`] stored in row-major order.
///
/// # Realness hint
///
/// Every matrix carries a structural `is_real` hint: `true` guarantees that
/// every imaginary part is exactly zero, `false` means "unknown" (the data may
/// still happen to be real). The hint is set by real constructors
/// ([`Matrix::from_real`], [`Matrix::zeros`], [`Matrix::identity`], ...),
/// propagated by operations that cannot introduce imaginary parts
/// (transpose, conjugation, scaling by a real scalar, addition of two real
/// matrices, ...), and conservatively dropped by any raw mutable access
/// ([`Matrix::data_mut`], indexing assignment). [`crate::gemm::gemm`] uses it
/// to route products of real operands onto the real-only microkernel, which
/// executes a quarter of the FMAs of the split-complex kernel — so a wrong
/// `true` would silently corrupt results. Never set it by assumption; use
/// [`Matrix::mark_real_if_exact`] (a scan) or [`Matrix::assume_real`] (a
/// structural guarantee, scanned under `debug_assertions`).
#[derive(Clone)]
pub struct Matrix {
    nrows: usize,
    ncols: usize,
    data: Vec<C64>,
    /// Structural realness hint; see the type-level docs. Never observable
    /// through `PartialEq` — two matrices with equal data compare equal
    /// regardless of their hints.
    real: bool,
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows && self.ncols == other.ncols && self.data == other.data
    }
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Matrix { nrows, ncols, data: vec![C64::ZERO; nrows * ncols], real: true }
    }

    /// Matrix filled with a constant.
    pub fn full(nrows: usize, ncols: usize, value: C64) -> Self {
        Matrix { nrows, ncols, data: vec![value; nrows * ncols], real: value.im == 0.0 }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m.real = true;
        m
    }

    /// Build from a row-major data vector.
    ///
    /// Returns an error if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<C64>) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(KoalaError::shape(format!(
                "from_vec: data length {} does not match {nrows}x{ncols}",
                data.len()
            )));
        }
        // No realness scan here: from_vec sits on hot paths (GEMM outputs,
        // matricizations). Callers that know the data is real follow up with
        // `assume_real` / `mark_real_if_exact`.
        Ok(Matrix { nrows, ncols, data, real: false })
    }

    /// Build from a row-major slice of real numbers.
    pub fn from_real(nrows: usize, ncols: usize, data: &[f64]) -> Result<Self> {
        let cdata = data.iter().map(|&x| C64::from_real(x)).collect();
        let mut m = Matrix::from_vec(nrows, ncols, cdata)?;
        m.real = true;
        Ok(m)
    }

    /// Build from a row-major buffer of either factorization scalar. The
    /// realness hint is set exactly when `T = f64`: real by construction,
    /// never by a scan.
    pub(crate) fn from_scalars<T: Scalar>(nrows: usize, ncols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "from_scalars: buffer is not nrows x ncols");
        let data = data.into_iter().map(T::to_c64).collect();
        Matrix { nrows, ncols, data, real: T::IS_REAL }
    }

    /// Build from nested rows (primarily for tests and gate definitions).
    /// Small-matrix constructor, so the realness hint is set by scanning.
    pub fn from_rows(rows: &[Vec<C64>]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        if rows.iter().any(|r| r.len() != ncols) {
            return Err(KoalaError::shape("from_rows: ragged rows"));
        }
        let data: Vec<C64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        let real = data.iter().all(|z| z.im == 0.0);
        Ok(Matrix { nrows, ncols, data, real })
    }

    /// Diagonal matrix from a vector of diagonal entries.
    pub fn from_diag(diag: &[C64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m.real = diag.iter().all(|z| z.im == 0.0);
        m
    }

    /// Diagonal matrix from real diagonal entries.
    pub fn from_diag_real(diag: &[f64]) -> Self {
        let entries: Vec<C64> = diag.iter().map(|&x| C64::from_real(x)).collect();
        Matrix::from_diag(&entries)
    }

    /// Matrix with independent entries uniform in `[-1, 1]` for both components.
    pub fn random<R: Rng + ?Sized>(nrows: usize, ncols: usize, rng: &mut R) -> Self {
        let data = (0..nrows * ncols)
            .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        Matrix { nrows, ncols, data, real: false }
    }

    /// Random matrix with purely real entries uniform in `[-1, 1]`.
    pub fn random_real<R: Rng + ?Sized>(nrows: usize, ncols: usize, rng: &mut R) -> Self {
        let data = (0..nrows * ncols).map(|_| c64(rng.gen_range(-1.0..1.0), 0.0)).collect();
        Matrix { nrows, ncols, data, real: true }
    }

    /// Random Hermitian matrix (A + A^H)/2.
    pub fn random_hermitian<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let a = Matrix::random(n, n, rng);
        let mut h = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                h[(i, j)] = (a[(i, j)] + a[(j, i)].conj()).scale(0.5);
            }
        }
        h
    }

    /// Number of rows.
    #[inline(always)]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// True if the matrix has zero rows or columns.
    pub fn is_empty(&self) -> bool {
        self.nrows == 0 || self.ncols == 0
    }

    /// Raw row-major data.
    #[inline(always)]
    pub fn data(&self) -> &[C64] {
        &self.data
    }

    /// Mutable raw row-major data. Drops the realness hint: the caller may
    /// write arbitrary complex values through the returned slice.
    #[inline(always)]
    pub fn data_mut(&mut self) -> &mut [C64] {
        self.real = false;
        &mut self.data
    }

    /// Consume the matrix and return its row-major data vector.
    pub fn into_data(self) -> Vec<C64> {
        self.data
    }

    /// Structural realness hint: `true` guarantees every imaginary part is
    /// exactly zero; `false` means unknown. See the type-level docs.
    #[inline(always)]
    pub fn is_real(&self) -> bool {
        self.real
    }

    /// Assert that every imaginary part of this matrix is exactly zero,
    /// setting the realness hint without a scan in release builds.
    ///
    /// Use only when realness is structurally guaranteed (e.g. the buffer was
    /// filled by the real-only GEMM path). A wrong assertion makes later
    /// products silently drop imaginary parts; under `debug_assertions` the
    /// claim is verified by a full scan.
    pub fn assume_real(&mut self) {
        debug_assert!(
            self.data.iter().all(|z| z.im == 0.0),
            "assume_real: matrix has nonzero imaginary parts"
        );
        self.real = true;
    }

    /// Scan the data and set the realness hint iff every imaginary part is
    /// exactly zero (`-0.0` counts as zero). Returns the resulting hint.
    ///
    /// O(nrows * ncols) — intended for one-time construction points (gate
    /// matrices, Hamiltonian terms), not hot loops.
    pub fn mark_real_if_exact(&mut self) -> bool {
        self.real = self.data.iter().all(|z| z.im == 0.0);
        self.real
    }

    /// Zero every imaginary part and set the realness hint.
    ///
    /// For results that are real *mathematically* but carry O(eps) imaginary
    /// rounding noise from intermediate phases (e.g. `exp(-tau H)` of a real
    /// symmetric `H` computed through a complex eigendecomposition), this is a
    /// correction toward the exact value, not an approximation.
    pub(crate) fn project_real(&mut self) {
        for z in &mut self.data {
            z.im = 0.0;
        }
        self.real = true;
    }

    /// [`Matrix::project_real`] guarded by a tolerance that scales with the
    /// data: imaginary parts are zeroed (and the hint set) only if every
    /// `|im|` is at most `max_abs * n * EPSILON`, where `max_abs` is the
    /// largest entry modulus and `n = max(nrows, ncols)`. Returns whether the
    /// projection was applied.
    ///
    /// This is the right guard for results of complex Jacobi sweeps on
    /// mathematically-real inputs: their imaginary rounding noise grows with
    /// both the matrix scale and the number of rotations, so any *hardcoded*
    /// eps either falsely keeps the hint on large ill-conditioned matrices or
    /// loses it on well-behaved ones. A result whose imaginary parts exceed
    /// the scaled bound is genuinely complex (or a bug upstream) and is left
    /// untouched.
    pub(crate) fn project_real_if_negligible(&mut self) -> bool {
        let max_abs = self.norm_max();
        let n = self.nrows.max(self.ncols) as f64;
        let tol = max_abs * n * f64::EPSILON;
        if self.data.iter().all(|z| z.im.abs() <= tol) {
            self.project_real();
            true
        } else {
            false
        }
    }

    /// Borrow one row as a slice.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[C64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Borrow one row mutably. Drops the realness hint (see
    /// [`Matrix::data_mut`]).
    #[inline(always)]
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [C64] {
        self.real = false;
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<C64> {
        (0..self.nrows).map(|i| self[(i, j)]).collect()
    }

    /// Overwrite column `j`. The realness hint survives iff it was set and the
    /// new column is exactly real (an O(nrows) scan).
    pub(crate) fn set_col(&mut self, j: usize, col: &[C64]) {
        assert_eq!(col.len(), self.nrows, "set_col: wrong column length");
        let keep_real = self.real && col.iter().all(|z| z.im == 0.0);
        for i in 0..self.nrows {
            self[(i, j)] = col[i];
        }
        self.real = keep_real;
    }

    /// Transpose (no conjugation). Runs in `32 x 32` cache tiles so both the
    /// row reads and the column writes stay cache-resident on large matrices.
    ///
    /// Note the GEMM layer never calls this: [`crate::gemm::gemm`] fuses
    /// transposition into operand packing instead of materialising a copy.
    /// The linalg kernels (`svd`, `gram`, `rsvd`) likewise route
    /// their multiplications through [`crate::gemm::Op::Adjoint`] /
    /// [`crate::gemm::Op::Transpose`] — [`transpose_counter`] counts the
    /// materialisations that remain, so tests can pin that property down.
    pub fn transpose(&self) -> Matrix {
        count_transpose();
        self.transpose_with(|z| z)
    }

    /// Conjugate transpose `A^H` (cache-blocked like [`Matrix::transpose`]).
    pub fn adjoint(&self) -> Matrix {
        count_transpose();
        self.transpose_with(C64::conj)
    }

    fn transpose_with(&self, f: impl Fn(C64) -> C64) -> Matrix {
        const B: usize = 32;
        let (m, n) = self.shape();
        let mut t = Matrix::zeros(n, m);
        let src = &self.data;
        let dst = t.data_mut();
        for i0 in (0..m).step_by(B) {
            let imax = (i0 + B).min(m);
            for j0 in (0..n).step_by(B) {
                let jmax = (j0 + B).min(n);
                for i in i0..imax {
                    for j in j0..jmax {
                        dst[j * m + i] = f(src[i * n + j]);
                    }
                }
            }
        }
        // Both transpose flavours map real entries to real entries.
        t.real = self.real;
        t
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> Matrix {
        let data = self.data.iter().map(|z| z.conj()).collect();
        Matrix { nrows: self.nrows, ncols: self.ncols, data, real: self.real }
    }

    /// Multiply every entry by a scalar.
    ///
    /// The realness hint survives only for a *finite* real scalar: for
    /// `s.re = inf/NaN` the complex multiply produces `0.0 * s.re = NaN`
    /// imaginary parts, which would break the hint's exact-zero guarantee.
    pub fn scale(&self, s: C64) -> Matrix {
        let data = self.data.iter().map(|&z| z * s).collect();
        let real = self.real && s.im == 0.0 && s.re.is_finite();
        Matrix { nrows: self.nrows, ncols: self.ncols, data, real }
    }

    /// In-place scalar multiplication (hint rule as in [`Matrix::scale`]).
    pub fn scale_inplace(&mut self, s: C64) {
        self.real = self.real && s.im == 0.0 && s.re.is_finite();
        for z in &mut self.data {
            *z *= s;
        }
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest entry modulus.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Cheap NaN/Inf guard: `Ok` iff every entry is finite.
    ///
    /// The fault-tolerance layer calls this on factorization outputs so
    /// corruption is caught where it enters, not three calls later. On
    /// failure, `context` names the operation for the error chain.
    pub fn validate_finite(&self, context: &str) -> Result<()> {
        if self.data.iter().all(|z| z.re.is_finite() && z.im.is_finite()) {
            Ok(())
        } else {
            koala_error::recovery::note_nonfinite_detection();
            Err(KoalaError::non_finite(format!("{context} ({}x{} matrix)", self.nrows, self.ncols)))
        }
    }

    /// Sum of diagonal entries.
    pub fn trace(&self) -> C64 {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self[(i, i)]).sum()
    }

    /// Extract the sub-matrix `rows x cols` starting at `(row0, col0)`.
    pub fn submatrix(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(row0 + rows <= self.nrows && col0 + cols <= self.ncols, "submatrix out of range");
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            out.row_mut(i).copy_from_slice(&self.row(row0 + i)[col0..col0 + cols]);
        }
        out.real = self.real;
        out
    }

    /// Keep only the first `k` columns.
    pub fn truncate_cols(&self, k: usize) -> Matrix {
        let k = k.min(self.ncols);
        self.submatrix(0, 0, self.nrows, k)
    }

    /// Keep only the first `k` rows.
    pub fn truncate_rows(&self, k: usize) -> Matrix {
        let k = k.min(self.nrows);
        self.submatrix(0, 0, k, self.ncols)
    }

    /// Drop all but the first `k` columns in place: the kept rows move to the
    /// front of the buffer, which is then shrunk.
    pub(crate) fn shrink_cols(&mut self, k: usize) {
        let k = k.min(self.ncols);
        if k == self.ncols {
            return;
        }
        for i in 1..self.nrows {
            self.data.copy_within(i * self.ncols..i * self.ncols + k, i * k);
        }
        self.data.truncate(self.nrows * k);
        self.data.shrink_to_fit();
        self.ncols = k;
    }

    /// Drop all but the first `k` rows in place, shrinking the buffer.
    pub(crate) fn shrink_rows(&mut self, k: usize) {
        self.nrows = k.min(self.nrows);
        self.data.truncate(self.nrows * self.ncols);
        self.data.shrink_to_fit();
    }

    /// Maximum entry-wise deviation from another matrix.
    pub fn max_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_diff: shape mismatch");
        self.data.iter().zip(other.data.iter()).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max)
    }

    /// True if `self` is entry-wise within `tol` of `other`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape() && self.max_diff(other) <= tol
    }

    /// True if the matrix is Hermitian within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for i in 0..self.nrows {
            for j in i..self.ncols {
                if !(self[(i, j)] - self[(j, i)].conj()).abs().le(&tol) {
                    return false;
                }
            }
        }
        true
    }

    /// True if `A^H A ≈ I` within `tol` (columns orthonormal).
    pub fn has_orthonormal_cols(&self, tol: f64) -> bool {
        let g = crate::gemm::matmul_adj_a(self, self);
        g.approx_eq(&Matrix::identity(self.ncols), tol)
    }

    /// Matrix-vector product `A x`.
    pub fn matvec(&self, x: &[C64]) -> Vec<C64> {
        assert_eq!(x.len(), self.ncols, "matvec: length mismatch");
        let mut y = vec![C64::ZERO; self.nrows];
        for i in 0..self.nrows {
            let row = self.row(i);
            let mut acc = C64::ZERO;
            for j in 0..self.ncols {
                acc = acc.mul_add(row[j], x[j]);
            }
            y[i] = acc;
        }
        y
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = C64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        debug_assert!(i < self.nrows && j < self.ncols, "index ({i},{j}) out of range");
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        debug_assert!(i < self.nrows && j < self.ncols, "index ({i},{j}) out of range");
        // The caller may write any complex value through the reference.
        self.real = false;
        &mut self.data[i * self.ncols + j]
    }
}

/// A borrowed matrix converts by cloning, so functions that consume their
/// matrix ([`svd`](crate::svd::svd)) also accept one the caller keeps.
impl From<&Matrix> for Matrix {
    fn from(m: &Matrix) -> Matrix {
        m.clone()
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.nrows, self.ncols)?;
        let max_rows = 8.min(self.nrows);
        for i in 0..max_rows {
            write!(f, "  ")?;
            let max_cols = 8.min(self.ncols);
            for j in 0..max_cols {
                write!(f, "{} ", self[(i, j)])?;
            }
            if self.ncols > max_cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.nrows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add: shape mismatch");
        let data = self.data.iter().zip(rhs.data.iter()).map(|(a, b)| *a + *b).collect();
        Matrix { nrows: self.nrows, ncols: self.ncols, data, real: self.real && rhs.real }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub: shape mismatch");
        let data = self.data.iter().zip(rhs.data.iter()).map(|(a, b)| *a - *b).collect();
        Matrix { nrows: self.nrows, ncols: self.ncols, data, real: self.real && rhs.real }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale(c64(-1.0, 0.0))
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix add_assign: shape mismatch");
        self.real = self.real && rhs.real;
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += *b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub_assign: shape mismatch");
        self.real = self.real && rhs.real;
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= *b;
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        crate::gemm::matmul(self, rhs)
    }
}

impl Mul<C64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: C64) -> Matrix {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_and_shape() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.data().iter().all(|&x| x == C64::ZERO));
        let id = Matrix::identity(3);
        assert_eq!(id.trace(), c64(3.0, 0.0));
        assert!(Matrix::from_vec(2, 2, vec![C64::ONE; 3]).is_err());
    }

    #[test]
    fn indexing_roundtrip() {
        let mut m = Matrix::zeros(3, 2);
        m[(2, 1)] = c64(1.0, -1.0);
        assert_eq!(m[(2, 1)], c64(1.0, -1.0));
        assert_eq!(m.row(2)[1], c64(1.0, -1.0));
        assert_eq!(m.col(1)[2], c64(1.0, -1.0));
    }

    #[test]
    fn adjoint_is_involution() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::random(4, 6, &mut rng);
        assert!(a.adjoint().adjoint().approx_eq(&a, 0.0));
        assert!(a.transpose().conj().approx_eq(&a.adjoint(), 0.0));
    }

    #[test]
    fn hermitian_detection() {
        let mut rng = StdRng::seed_from_u64(2);
        let h = Matrix::random_hermitian(5, &mut rng);
        assert!(h.is_hermitian(1e-14));
        let a = Matrix::random(5, 5, &mut rng);
        assert!(!a.is_hermitian(1e-10));
    }

    #[test]
    fn submatrix_extracts_a_block() {
        let b = Matrix::from_real(2, 2, &[5.0, 6.0, 7.0, 8.0]).unwrap();
        let v = Matrix::from_real(4, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]).unwrap();
        assert!(v.submatrix(2, 0, 2, 2).approx_eq(&b, 0.0));
    }

    #[test]
    fn norms_and_trace() {
        let a = Matrix::from_real(2, 2, &[3.0, 0.0, 0.0, 4.0]).unwrap();
        assert!((a.norm_fro() - 5.0).abs() < 1e-14);
        assert!((a.norm_max() - 4.0).abs() < 1e-14);
        assert_eq!(a.trace(), c64(7.0, 0.0));
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::random(4, 3, &mut rng);
        let x = Matrix::random(3, 1, &mut rng);
        let y = a.matvec(x.data());
        let y2 = crate::gemm::matmul(&a, &x);
        for i in 0..4 {
            assert!(y[i].approx_eq(y2[(i, 0)], 1e-12));
        }
    }

    #[test]
    fn realness_hint_constructors_and_propagation() {
        let mut rng = StdRng::seed_from_u64(5);
        // Constructors.
        assert!(Matrix::zeros(2, 3).is_real());
        assert!(Matrix::identity(4).is_real());
        assert!(Matrix::from_real(2, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap().is_real());
        assert!(Matrix::from_diag_real(&[1.0, -2.0]).is_real());
        assert!(Matrix::random_real(3, 3, &mut rng).is_real());
        assert!(Matrix::full(2, 2, c64(1.5, 0.0)).is_real());
        assert!(!Matrix::full(2, 2, c64(1.5, 1e-300)).is_real());
        assert!(!Matrix::random(3, 3, &mut rng).is_real());
        assert!(!Matrix::from_diag(&[C64::I]).is_real());
        assert!(Matrix::from_diag(&[C64::ONE]).is_real());
        // from_vec is conservative; mark_real_if_exact recovers by scanning.
        let mut laundered = Matrix::from_vec(1, 2, vec![C64::ONE, c64(2.0, -0.0)]).unwrap();
        assert!(!laundered.is_real());
        assert!(laundered.mark_real_if_exact());
        // Propagation.
        let r = Matrix::random_real(3, 4, &mut rng);
        let z = Matrix::random(3, 4, &mut rng);
        assert!(r.transpose().is_real());
        assert!(r.adjoint().is_real());
        assert!(r.conj().is_real());
        assert!(r.scale(c64(2.0, 0.0)).is_real());
        assert!(!r.scale(C64::I).is_real());
        // A non-finite real scalar would produce NaN imaginary parts
        // (0.0 * inf), so the hint must drop.
        assert!(!r.scale(c64(f64::INFINITY, 0.0)).is_real());
        assert!(!r.scale(c64(f64::NAN, 0.0)).is_real());
        assert!((&r + &r).is_real());
        assert!(!(&r + &z).is_real());
        assert!(r.submatrix(1, 1, 2, 2).is_real());
    }

    #[test]
    fn realness_hint_drops_on_raw_mutation() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut m = Matrix::random_real(3, 3, &mut rng);
        assert!(m.is_real());
        m[(0, 0)] = c64(1.0, 0.0); // even a real write through IndexMut drops it
        assert!(!m.is_real());
        assert!(m.mark_real_if_exact());
        let _ = m.data_mut();
        assert!(!m.is_real());
        m.assume_real();
        assert!(m.is_real());
        let _ = m.row_mut(1);
        assert!(!m.is_real());
        // set_col keeps the hint for a real column, drops it for a complex one.
        m.mark_real_if_exact();
        m.set_col(0, &[C64::ONE, C64::ZERO, C64::ONE]);
        assert!(m.is_real());
        m.set_col(1, &[C64::I, C64::ZERO, C64::ZERO]);
        assert!(!m.is_real());
        // project_real is the explicit recovery for mathematically-real data.
        m.project_real();
        assert!(m.is_real());
        assert!(m.data().iter().all(|v| v.im == 0.0));
    }

    /// Regression test for the scaled projection tolerance: a hardcoded eps
    /// either loses the hint on large-scale matrices (complex-Jacobi noise
    /// grows with the data) or falsely keeps it on small-scale ones. The
    /// tolerance must scale with `max_abs * n * EPSILON`.
    #[test]
    fn project_real_tolerance_scales_with_the_data() {
        // Large, ill-conditioned real matrix `h` run through the complex
        // Jacobi eigendecomposition as `D h D^H`, `D` a diagonal of phases,
        // and rotated back: the result is mathematically real but carries
        // imaginary noise far above any fixed 1e-14-style cutoff. (A real
        // matrix merely stripped of its hint no longer does: the rotation
        // phase of a real entry is exactly real.)
        let n = 24;
        let mut h = Matrix::zeros(n, n);
        for i in 0..n {
            // Exponentially graded spectrum => ill-conditioned.
            h[(i, i)] = c64(1e8 * (0.5f64).powi(i as i32), 0.0);
            if i + 1 < n {
                h[(i, i + 1)] = c64(3e7, 0.0);
                h[(i + 1, i)] = c64(3e7, 0.0);
            }
        }
        let d: Vec<C64> = (0..n).map(|i| C64::cis(0.7 * i as f64)).collect();
        let mut rotated = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                rotated[(i, j)] = d[i] * h[(i, j)] * d[j].conj();
            }
        }
        assert!(!rotated.is_real(), "the complex eigh path must run");
        let e = crate::eig::eigh(&rotated).unwrap();
        let vf = crate::gemm::matmul(&e.vectors, &Matrix::from_diag_real(&e.values));
        let back = crate::gemm::matmul_adj_b(&vf, &e.vectors);
        let mut rec = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                rec[(i, j)] = d[i].conj() * back[(i, j)] * d[j];
            }
        }
        let worst_im = rec.data().iter().map(|z| z.im.abs()).fold(0.0, f64::max);
        assert!(worst_im > 1e-14, "expected Jacobi noise above a hardcoded eps, got {worst_im:e}");
        assert!(rec.project_real_if_negligible(), "scaled tolerance must accept Jacobi noise");
        assert!(rec.is_real());
        assert!(rec.approx_eq(&h, 1e-8 * h.norm_max()));

        // Small-scale matrix with imaginary parts that are *genuine* relative
        // to its entries: any eps above 1e-12 would falsely project; the
        // scaled tolerance (~1e-23 here) must refuse.
        let mut tiny = Matrix::zeros(2, 2);
        tiny[(0, 0)] = c64(1e-8, 1e-12);
        tiny[(1, 1)] = c64(-2e-8, 0.0);
        assert!(!tiny.project_real_if_negligible(), "genuinely complex data must be left alone");
        assert!(!tiny.is_real());
        assert_eq!(tiny[(0, 0)].im, 1e-12, "refused projection must not modify the data");
    }

    #[test]
    fn arithmetic_operators() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Matrix::random(3, 3, &mut rng);
        let b = Matrix::random(3, 3, &mut rng);
        let sum = &a + &b;
        let diff = &sum - &b;
        assert!(diff.approx_eq(&a, 1e-12));
        let mut c = a.clone();
        c += &b;
        assert!(c.approx_eq(&sum, 1e-12));
        c -= &b;
        assert!(c.approx_eq(&a, 1e-12));
        assert!((&(-&a) + &a).norm_max() < 1e-15);
    }
}

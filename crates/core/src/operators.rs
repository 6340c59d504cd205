//! Observables: Hermitian operators given as sums of local one-site and
//! two-site terms, the form every driver application of the paper uses
//! (Hamiltonians for ITE/VQE, measurement operators for expectation values).

use crate::peps::{Peps, Site};
use koala_error::KoalaError;
use koala_error::Result;
use koala_linalg::{c64, Matrix, C64};
use koala_tensor::{svd_split, Tensor, Truncation};
use std::borrow::Cow;
use std::ops::{Add, Mul};
use std::sync::OnceLock;

/// Pauli X matrix.
pub fn pauli_x() -> Matrix {
    Matrix::from_rows(&[vec![C64::ZERO, C64::ONE], vec![C64::ONE, C64::ZERO]])
        .unwrap_or_else(|_| unreachable!("literal 2x2 rows"))
}

/// Pauli Y matrix.
pub fn pauli_y() -> Matrix {
    Matrix::from_rows(&[vec![C64::ZERO, c64(0.0, -1.0)], vec![c64(0.0, 1.0), C64::ZERO]])
        .unwrap_or_else(|_| unreachable!("literal 2x2 rows"))
}

/// Pauli Z matrix.
pub fn pauli_z() -> Matrix {
    Matrix::from_rows(&[vec![C64::ONE, C64::ZERO], vec![C64::ZERO, c64(-1.0, 0.0)]])
        .unwrap_or_else(|_| unreachable!("literal 2x2 rows"))
}

/// Kronecker product of two matrices (row-major, left factor major).
/// Products of real entries are real, so the realness hint combines as AND.
pub fn kron(a: &Matrix, b: &Matrix) -> Matrix {
    let (ar, ac) = a.shape();
    let (br, bc) = b.shape();
    let real = a.is_real() && b.is_real();
    let mut out = Matrix::zeros(ar * br, ac * bc);
    for i in 0..ar {
        for j in 0..ac {
            let aij = a[(i, j)];
            for k in 0..br {
                for l in 0..bc {
                    out[(i * br + k, j * bc + l)] = aij * b[(k, l)];
                }
            }
        }
    }
    if real {
        out.assume_real();
    }
    out
}

/// Operator Schmidt decomposition `G = sum_k A_k (x) B_k` of a two-site
/// matrix `G[(a'b'),(ab)]`: the SVD of the reshuffle `[(a'a),(b'b)]` with
/// `sqrt(s_k)` absorbed into both factors, dropping `s_k <= rel_tol * s_0`.
/// Returns `(A, B)` as `[chi, d_a, d_a]` and `[chi, d_b, d_b]`; `chi` is the
/// operator Schmidt rank (1 for a product operator such as `Z (x) Z`).
pub fn operator_schmidt(
    matrix: &Matrix,
    d_a: usize,
    d_b: usize,
    rel_tol: f64,
) -> Result<(Tensor, Tensor)> {
    let g = Tensor::from_matrix_2d(matrix).into_reshape(&[d_a, d_b, d_a, d_b])?;
    let truncation = Truncation { max_rank: None, rel_tol: Some(rel_tol) };
    let (a, b) = svd_split(&g, &[0, 2], truncation)?.absorb_split();
    // a: [a', a, k] -> [k, a', a]
    Ok((a.permute(&[2, 0, 1])?, b))
}

/// One local term of an observable.
#[derive(Debug, Clone)]
pub enum LocalTerm {
    /// A single-site operator: `coefficient * matrix` acting on `site`.
    OneSite {
        /// Lattice site the operator acts on.
        site: Site,
        /// The `d x d` operator matrix.
        matrix: Matrix,
    },
    /// A two-site operator acting on an ordered pair of (not necessarily
    /// adjacent) sites; the matrix is `d^2 x d^2` with the first site as the
    /// most significant index.
    TwoSite {
        /// First lattice site.
        site_a: Site,
        /// Second lattice site.
        site_b: Site,
        /// The `d^2 x d^2` operator matrix.
        matrix: Matrix,
    },
}

impl LocalTerm {
    /// Sites this term acts on.
    pub fn sites(&self) -> Vec<Site> {
        match self {
            LocalTerm::OneSite { site, .. } => vec![*site],
            LocalTerm::TwoSite { site_a, site_b, .. } => vec![*site_a, *site_b],
        }
    }

    /// Rows spanned by this term (min, max).
    pub fn row_span(&self) -> (usize, usize) {
        let rows: Vec<usize> = self.sites().iter().map(|s| s.0).collect();
        let lo = rows.iter().min().unwrap_or_else(|| unreachable!("a term acts on >= 1 site"));
        let hi = rows.iter().max().unwrap_or_else(|| unreachable!("a term acts on >= 1 site"));
        (*lo, *hi)
    }

    /// Scale the term's matrix by a constant.
    pub(crate) fn scaled(&self, factor: C64) -> LocalTerm {
        match self {
            LocalTerm::OneSite { site, matrix } => {
                LocalTerm::OneSite { site: *site, matrix: matrix.scale(factor) }
            }
            LocalTerm::TwoSite { site_a, site_b, matrix } => LocalTerm::TwoSite {
                site_a: *site_a,
                site_b: *site_b,
                matrix: matrix.scale(factor),
            },
        }
    }
}

/// Operator Schmidt values at or below this fraction of the largest are
/// dropped: the null directions of a product operator come back from the SVD
/// as exact zeros, and keeping them would multiply the shared bond for nothing.
const SCHMIDT_TOL: f64 = 1e-14;

/// The operator Schmidt factors of a two-site term and the site dimensions
/// `(d_a, d_b)` they were computed for.
type Schmidt = ((usize, usize), (Tensor, Tensor));

/// A Hermitian observable expressed as a sum of local terms,
/// `H = sum_i H_i` (paper Equation 5).
#[derive(Debug, Clone, Default)]
pub struct Observable {
    terms: Vec<LocalTerm>,
    /// One slot per term: a two-site term's operator Schmidt factors, filled
    /// by the first measurement that needs them (see
    /// [`Observable::two_site_factors`]).
    schmidt: Vec<OnceLock<Schmidt>>,
}

impl Observable {
    /// The zero observable.
    pub fn zero() -> Self {
        Observable::default()
    }

    /// An observable of `terms`, none decomposed yet.
    fn from_terms(terms: Vec<LocalTerm>) -> Self {
        let schmidt = terms.iter().map(|_| OnceLock::new()).collect();
        Observable { terms, schmidt }
    }

    /// The operator Schmidt factors `(A, B)` of term `i`, a two-site term on
    /// sites of dimensions `d_a` and `d_b`: [`operator_schmidt`] dropping
    /// values at or below `1e-14` of the largest. The terms of an observable
    /// do not change between measurements, so the first call decomposes the
    /// term and later ones borrow the same factors; only a call for other
    /// site dimensions than the stored ones decomposes again. Errors when
    /// term `i` is not a two-site term or does not decompose.
    pub(crate) fn two_site_factors(
        &self,
        i: usize,
        d_a: usize,
        d_b: usize,
    ) -> Result<Cow<'_, (Tensor, Tensor)>> {
        let LocalTerm::TwoSite { matrix, .. } = &self.terms[i] else {
            return Err(KoalaError::invalid(format!("term {i} is not a two-site term")));
        };
        let slot = &self.schmidt[i];
        if slot.get().is_none() {
            let factors = operator_schmidt(matrix, d_a, d_b, SCHMIDT_TOL)?;
            // A racing first call stores the same factors: the SVD is
            // deterministic.
            let _ = slot.set(((d_a, d_b), factors));
        }
        match slot.get() {
            Some((dims, factors)) if *dims == (d_a, d_b) => Ok(Cow::Borrowed(factors)),
            _ => operator_schmidt(matrix, d_a, d_b, SCHMIDT_TOL).map(Cow::Owned),
        }
    }

    /// The local terms.
    pub fn terms(&self) -> &[LocalTerm] {
        &self.terms
    }

    /// Number of local terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if there are no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Add a single-site term.
    pub fn add_one_site(&mut self, site: Site, matrix: Matrix) -> &mut Self {
        self.terms.push(LocalTerm::OneSite { site, matrix });
        self.schmidt.push(OnceLock::new());
        self
    }

    /// Add a two-site term.
    pub fn add_two_site(&mut self, site_a: Site, site_b: Site, matrix: Matrix) -> &mut Self {
        self.terms.push(LocalTerm::TwoSite { site_a, site_b, matrix });
        self.schmidt.push(OnceLock::new());
        self
    }

    /// Single-site Pauli X on `site`.
    pub fn x(site: Site) -> Self {
        Observable::from_terms(vec![LocalTerm::OneSite { site, matrix: pauli_x() }])
    }

    /// Single-site Pauli Y on `site`.
    pub fn y(site: Site) -> Self {
        Observable::from_terms(vec![LocalTerm::OneSite { site, matrix: pauli_y() }])
    }

    /// Single-site Pauli Z on `site`.
    pub fn z(site: Site) -> Self {
        Observable::from_terms(vec![LocalTerm::OneSite { site, matrix: pauli_z() }])
    }

    /// Two-site `Z Z` coupling.
    pub fn zz(site_a: Site, site_b: Site) -> Self {
        Observable::from_terms(vec![LocalTerm::TwoSite {
            site_a,
            site_b,
            matrix: kron(&pauli_z(), &pauli_z()),
        }])
    }

    /// Two-site `X X` coupling.
    pub fn xx(site_a: Site, site_b: Site) -> Self {
        Observable::from_terms(vec![LocalTerm::TwoSite {
            site_a,
            site_b,
            matrix: kron(&pauli_x(), &pauli_x()),
        }])
    }

    /// Two-site `Y Y` coupling.
    pub fn yy(site_a: Site, site_b: Site) -> Self {
        Observable::from_terms(vec![LocalTerm::TwoSite {
            site_a,
            site_b,
            matrix: kron(&pauli_y(), &pauli_y()),
        }])
    }

    /// Validate the observable against a PEPS lattice (site ranges and matrix
    /// dimensions).
    pub fn validate(&self, peps: &Peps) -> Result<()> {
        for term in &self.terms {
            for (r, c) in term.sites() {
                if r >= peps.nrows() || c >= peps.ncols() {
                    return Err(KoalaError::invalid(format!(
                        "observable site ({r},{c}) outside the lattice"
                    )));
                }
            }
            match term {
                LocalTerm::OneSite { site, matrix } => {
                    let d = peps.phys_dim(*site);
                    if matrix.shape() != (d, d) {
                        return Err(KoalaError::shape(format!(
                            "one-site term at {:?} has matrix {:?}, expected {d}x{d}",
                            site,
                            matrix.shape()
                        )));
                    }
                }
                LocalTerm::TwoSite { site_a, site_b, matrix } => {
                    let d = peps.phys_dim(*site_a) * peps.phys_dim(*site_b);
                    if matrix.shape() != (d, d) {
                        return Err(KoalaError::shape(format!(
                            "two-site term at {:?}-{:?} has matrix {:?}, expected {d}x{d}",
                            site_a,
                            site_b,
                            matrix.shape()
                        )));
                    }
                    if site_a == site_b {
                        return Err(KoalaError::invalid("two-site term with identical sites"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Dense matrix of the observable on the full `2^n` (or `d^n`) Hilbert
    /// space of a lattice, in row-major site ordering. Exponential; used to
    /// validate small lattices against exact diagonalisation and the
    /// state-vector simulator.
    pub fn to_dense(&self, nrows: usize, ncols: usize, phys_dim: usize) -> Matrix {
        let n = nrows * ncols;
        let dim = phys_dim.pow(n as u32);
        let mut h = Matrix::zeros(dim, dim);
        for term in &self.terms {
            h += &term_to_dense(term, nrows, ncols, phys_dim);
        }
        h
    }
}

fn term_to_dense(term: &LocalTerm, nrows: usize, ncols: usize, phys_dim: usize) -> Matrix {
    let n = nrows * ncols;
    let site_idx = |(r, c): Site| r * ncols + c;
    match term {
        LocalTerm::OneSite { site, matrix } => {
            let mut out = Matrix::identity(1);
            let target = site_idx(*site);
            for i in 0..n {
                let factor = if i == target { matrix.clone() } else { Matrix::identity(phys_dim) };
                out = kron(&out, &factor);
            }
            out
        }
        LocalTerm::TwoSite { site_a, site_b, matrix } => {
            // Embed by summing over the matrix elements of the two-site
            // operator: O = sum_{ab,cd} M[(a,b),(c,d)] |a><c|_A x |b><d|_B.
            let ia = site_idx(*site_a);
            let ib = site_idx(*site_b);
            let d = phys_dim;
            let dim = d.pow(n as u32);
            let mut out = Matrix::zeros(dim, dim);
            for a in 0..d {
                for b in 0..d {
                    for c in 0..d {
                        for e in 0..d {
                            let coeff = matrix[(a * d + b, c * d + e)];
                            if coeff.abs() == 0.0 {
                                continue;
                            }
                            // Build |a><c| on site A and |b><e| on site B via a
                            // Kronecker chain.
                            let mut op = Matrix::identity(1);
                            for i in 0..n {
                                let factor = if i == ia {
                                    elementary(d, a, c)
                                } else if i == ib {
                                    elementary(d, b, e)
                                } else {
                                    Matrix::identity(d)
                                };
                                op = kron(&op, &factor);
                            }
                            out += &op.scale(coeff);
                        }
                    }
                }
            }
            out
        }
    }
}

fn elementary(d: usize, i: usize, j: usize) -> Matrix {
    let mut m = Matrix::zeros(d, d);
    m[(i, j)] = C64::ONE;
    m
}

impl Add for Observable {
    type Output = Observable;
    fn add(mut self, mut rhs: Observable) -> Observable {
        self.terms.append(&mut rhs.terms);
        self.schmidt.append(&mut rhs.schmidt);
        self
    }
}

impl Mul<Observable> for f64 {
    type Output = Observable;
    fn mul(self, rhs: Observable) -> Observable {
        Observable::from_terms(rhs.terms.iter().map(|t| t.scaled(c64(self, 0.0))).collect())
    }
}

impl Mul<f64> for Observable {
    type Output = Observable;
    fn mul(self, rhs: f64) -> Observable {
        rhs * self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pauli_algebra() {
        let x = pauli_x();
        let y = pauli_y();
        let z = pauli_z();
        // X^2 = Y^2 = Z^2 = I
        for p in [&x, &y, &z] {
            assert!(koala_linalg::matmul(p, p).approx_eq(&Matrix::identity(2), 1e-14));
        }
        // XY = iZ
        let xy = koala_linalg::matmul(&x, &y);
        assert!(xy.approx_eq(&z.scale(c64(0.0, 1.0)), 1e-14));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let a = Matrix::from_real(2, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::identity(2);
        let k = kron(&a, &b);
        assert_eq!(k.shape(), (4, 4));
        assert!(k[(0, 0)].approx_eq(c64(1.0, 0.0), 1e-14));
        assert!(k[(2, 2)].approx_eq(c64(4.0, 0.0), 1e-14));
        assert!(k[(0, 2)].approx_eq(c64(2.0, 0.0), 1e-14));
        assert!(k[(1, 0)].approx_eq(C64::ZERO, 1e-14));
    }

    #[test]
    fn operator_schmidt_reassembles_and_finds_the_rank() {
        let reassemble = |a: &Tensor, b: &Tensor| {
            let mut g = Matrix::zeros(4, 4);
            for k in 0..a.dim(0) {
                let (ak, bk) = (a.select(0, k).unwrap(), b.select(0, k).unwrap());
                g += &kron(&ak.to_matrix_2d(), &bk.to_matrix_2d());
            }
            g
        };
        let heisenberg = &(&kron(&pauli_x(), &pauli_x()) + &kron(&pauli_y(), &pauli_y()))
            + &kron(&pauli_z(), &pauli_z());
        let cases =
            [(kron(&pauli_z(), &pauli_z()), 1), (kron(&pauli_y(), &pauli_x()), 1), (heisenberg, 3)];
        for (g, rank) in cases {
            let (a, b) = operator_schmidt(&g, 2, 2, 1e-14).unwrap();
            assert_eq!((a.shape(), b.shape()), (&[rank, 2, 2][..], &[rank, 2, 2][..]));
            assert!(reassemble(&a, &b).approx_eq(&g, 1e-14));
        }
        // Real operators decompose into real factors (the real SVD path).
        let (a, b) = operator_schmidt(&kron(&pauli_z(), &pauli_z()), 2, 2, 1e-14).unwrap();
        assert!(a.is_real() && b.is_real());
        assert!(operator_schmidt(&Matrix::identity(3), 2, 2, 1e-14).is_err());
    }

    /// A two-site term is decomposed once per observable: later calls (and
    /// clones and sums of the observable) borrow the same factors, which
    /// are `operator_schmidt`'s bit for bit; other site dimensions get a
    /// fresh decomposition, and a one-site term none.
    #[test]
    fn two_site_factors_are_operator_schmidt_computed_once() {
        let bits = |t: &Tensor| {
            let entries = t.data().iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]);
            (t.shape().to_vec(), entries.collect::<Vec<_>>())
        };
        let heisenberg = &(&kron(&pauli_x(), &pauli_x()) + &kron(&pauli_y(), &pauli_y()))
            + &kron(&pauli_z(), &pauli_z());
        let mut obs = Observable::zz((0, 0), (0, 1)) + 0.5 * Observable::x((0, 0));
        obs.add_two_site((1, 0), (1, 1), heisenberg.clone());
        for (i, matrix) in [(0, kron(&pauli_z(), &pauli_z())), (2, heisenberg)] {
            let (a, b) = operator_schmidt(&matrix, 2, 2, SCHMIDT_TOL).unwrap();
            let first = obs.two_site_factors(i, 2, 2).unwrap();
            assert!(matches!(first, Cow::Borrowed(_)), "term {i}: not stored");
            assert_eq!((bits(&first.0), bits(&first.1)), (bits(&a), bits(&b)), "term {i}");
            let summed = obs.clone() + Observable::z((0, 1));
            let again = obs.two_site_factors(i, 2, 2).unwrap();
            assert!(std::ptr::eq(&*again, &*first), "term {i}: decomposed again");
            let kept = summed.two_site_factors(i, 2, 2).unwrap();
            assert!(matches!(kept, Cow::Borrowed(_)), "term {i}: the sum lost the factors");
            assert_eq!((bits(&kept.0), bits(&kept.1)), (bits(&a), bits(&b)), "term {i}");
            let (a, b) = operator_schmidt(&matrix, 1, 4, SCHMIDT_TOL).unwrap();
            let other = obs.two_site_factors(i, 1, 4).unwrap();
            assert!(matches!(other, Cow::Owned(_)), "term {i}: other dimensions");
            assert_eq!((bits(&other.0), bits(&other.1)), (bits(&a), bits(&b)), "term {i}");
        }
        assert!(obs.two_site_factors(1, 2, 2).is_err());
    }

    #[test]
    fn observable_composition() {
        let obs = Observable::zz((0, 0), (0, 1)) + 0.2 * Observable::x((0, 1));
        assert_eq!(obs.len(), 2);
        let scaled = obs.clone() * 2.0;
        assert_eq!(scaled.len(), 2);
        match &scaled.terms()[1] {
            LocalTerm::OneSite { matrix, .. } => {
                assert!(matrix.approx_eq(&pauli_x().scale(c64(0.4, 0.0)), 1e-14));
            }
            _ => panic!("expected one-site term"),
        }
    }

    #[test]
    fn validation_against_lattice() {
        let peps = Peps::computational_zeros(2, 2);
        assert!(Observable::z((0, 0)).validate(&peps).is_ok());
        assert!(Observable::z((5, 0)).validate(&peps).is_err());
        assert!(Observable::zz((0, 0), (0, 0)).validate(&peps).is_err());
        let bad = Observable::from_terms(vec![LocalTerm::OneSite {
            site: (0, 0),
            matrix: Matrix::identity(3),
        }]);
        assert!(bad.validate(&peps).is_err());
    }

    #[test]
    fn dense_one_site_term_is_embedded_correctly() {
        // Z on site (0,1) of a 1x2 lattice: I (x) Z.
        let obs = Observable::z((0, 1));
        let dense = obs.to_dense(1, 2, 2);
        let expected = kron(&Matrix::identity(2), &pauli_z());
        assert!(dense.approx_eq(&expected, 1e-13));
    }

    #[test]
    fn dense_two_site_term_matches_direct_kron() {
        // ZZ on adjacent sites of a 1x2 lattice is just the 4x4 kron.
        let obs = Observable::zz((0, 0), (0, 1));
        let dense = obs.to_dense(1, 2, 2);
        assert!(dense.approx_eq(&kron(&pauli_z(), &pauli_z()), 1e-13));
        // XX on the *non-adjacent ordering* (site_b before site_a in memory).
        let obs2 = Observable::xx((0, 1), (0, 0));
        let dense2 = obs2.to_dense(1, 2, 2);
        assert!(dense2.approx_eq(&kron(&pauli_x(), &pauli_x()), 1e-13));
    }

    #[test]
    fn dense_observable_is_hermitian() {
        let obs = Observable::zz((0, 0), (0, 1))
            + Observable::xx((0, 1), (1, 1))
            + 0.5 * Observable::y((1, 0));
        let dense = obs.to_dense(2, 2, 2);
        assert!(dense.is_hermitian(1e-12));
    }

    #[test]
    fn row_span_of_terms() {
        let t = LocalTerm::TwoSite { site_a: (1, 0), site_b: (2, 0), matrix: Matrix::identity(4) };
        assert_eq!(t.row_span(), (1, 2));
        let o = LocalTerm::OneSite { site: (3, 1), matrix: Matrix::identity(2) };
        assert_eq!(o.row_span(), (3, 3));
    }
}

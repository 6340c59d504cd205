//! Tensor factorizations: QR / Gram-QR / SVD across a bipartition of the
//! axes. These wrappers are the glue between the matrix factorizations in
//! `koala-linalg` and the site tensors manipulated by the MPS/PEPS layers;
//! contract-then-factorize of a whole sub-network is [`crate::einsumsvd`].

use crate::tensor::Tensor;
use koala_error::{KoalaError, Result};
use koala_linalg::{gram_qr, qr, svd, Matrix, Svd};

/// Truncation policy for factorizations that produce a new bond.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Truncation {
    /// Keep at most this many singular values (None = no cap).
    pub max_rank: Option<usize>,
    /// Drop singular values below `rel_tol * s_max` (None = keep all).
    pub rel_tol: Option<f64>,
}

impl Truncation {
    /// No truncation at all.
    pub fn none() -> Self {
        Truncation { max_rank: None, rel_tol: None }
    }

    /// Keep at most `k` singular values.
    pub fn max_rank(k: usize) -> Self {
        Truncation { max_rank: Some(k), rel_tol: None }
    }

    /// Keep at most `k` singular values and drop anything below `rel_tol * s_max`.
    pub fn rank_and_tol(k: usize, rel_tol: f64) -> Self {
        Truncation { max_rank: Some(k), rel_tol: Some(rel_tol) }
    }

    /// Number of singular values to keep from a descending spectrum.
    pub fn keep(&self, s: &[f64]) -> usize {
        let mut k = s.len();
        if let Some(max) = self.max_rank {
            k = k.min(max.max(1));
        }
        if let Some(tol) = self.rel_tol {
            let cutoff = s.first().copied().unwrap_or(0.0) * tol;
            let significant = s.iter().take_while(|&&x| x > cutoff).count();
            k = k.min(significant.max(1));
        }
        k.max(1).min(s.len().max(1))
    }
}

/// Result of a split-and-truncate SVD of a tensor across an axis bipartition.
#[derive(Debug, Clone)]
pub struct SplitSvd {
    /// Left factor with shape `[row_dims..., k]`.
    pub u: Tensor,
    /// Singular values (descending).
    pub s: Vec<f64>,
    /// Right factor with shape `[k, col_dims...]`.
    pub vh: Tensor,
    /// Frobenius norm of the discarded singular values.
    pub truncation_error: f64,
}

impl SplitSvd {
    /// Absorb `sqrt(s)` into both factors, returning `(L, R)` with the bond as
    /// the last axis of `L` and the first axis of `R`.
    pub fn absorb_split(&self) -> (Tensor, Tensor) {
        let sq: Vec<f64> = self.s.iter().map(|x| x.sqrt()).collect();
        (scale_last_axis(&self.u, &sq), scale_first_axis(&self.vh, &sq))
    }

    /// Absorb the singular values entirely into the left factor.
    pub fn absorb_left(&self) -> (Tensor, Tensor) {
        (scale_last_axis(&self.u, &self.s), self.vh.clone())
    }

    /// Absorb the singular values entirely into the right factor.
    pub fn absorb_right(&self) -> (Tensor, Tensor) {
        (self.u.clone(), scale_first_axis(&self.vh, &self.s))
    }
}

/// Multiply slices along the last axis by `s[j]`. The realness hint survives
/// for finite scale factors (singular values absorbed into SVD factors), so
/// truncated splits of real tensors keep the whole pipeline on the real GEMM
/// kernel.
pub fn scale_last_axis(t: &Tensor, s: &[f64]) -> Tensor {
    let Some(&last) = t.shape().last() else {
        return t.clone(); // rank-0: no axis to scale
    };
    assert!(s.len() >= last);
    let keep_real = t.is_real() && s[..last].iter().all(|x| x.is_finite());
    let mut out = t.clone();
    for (i, v) in out.data_mut().iter_mut().enumerate() {
        *v = v.scale(s[i % last]);
    }
    if keep_real {
        out.assume_real();
    }
    out
}

/// Multiply slices along the first axis by `s[i]` (hint rule as in
/// [`scale_last_axis`]).
pub fn scale_first_axis(t: &Tensor, s: &[f64]) -> Tensor {
    let Some(&first) = t.shape().first() else {
        return t.clone(); // rank-0: no axis to scale
    };
    assert!(s.len() >= first);
    let keep_real = t.is_real() && s[..first].iter().all(|x| x.is_finite());
    let block: usize = t.shape()[1..].iter().product();
    let mut out = t.clone();
    for (i, v) in out.data_mut().iter_mut().enumerate() {
        *v = v.scale(s[i / block.max(1)]);
    }
    if keep_real {
        out.assume_real();
    }
    out
}

/// Matricize `t` with `row_axes` (in that order) as rows and the remaining
/// axes as columns, returning the matrix with the row/column dimension
/// lists. The matrix is the one buffer the permutation writes (an identity
/// permutation copies once); the realness hint carries over.
fn matricize(t: &Tensor, row_axes: &[usize]) -> Result<(Matrix, Vec<usize>, Vec<usize>)> {
    let ndim = t.ndim();
    for &a in row_axes {
        if a >= ndim {
            return Err(KoalaError::invalid(format!(
                "split: axis {a} out of range for rank {ndim}"
            )));
        }
    }
    let mut seen = vec![false; ndim];
    for &a in row_axes {
        if seen[a] {
            return Err(KoalaError::invalid(format!("split: duplicate axis {a}")));
        }
        seen[a] = true;
    }
    let col_axes: Vec<usize> = (0..ndim).filter(|a| !row_axes.contains(a)).collect();
    let mut perm = row_axes.to_vec();
    perm.extend_from_slice(&col_axes);
    let row_dims: Vec<usize> = row_axes.iter().map(|&a| t.dim(a)).collect();
    let col_dims: Vec<usize> = col_axes.iter().map(|&a| t.dim(a)).collect();
    let mat = t.permute(&perm)?.into_unfold(row_dims.len());
    Ok((mat, row_dims, col_dims))
}

/// Thin QR of the tensor viewed as a matrix with `row_axes` as rows.
///
/// Returns `(Q, R)` where `Q` has shape `[row_dims..., k]` and `R` has shape
/// `[k, col_dims...]`, with `k = min(prod(row_dims), prod(col_dims))`.
///
/// A NaN or infinity anywhere in `t` is an error of kind `NonFinite`:
/// [`qr()`] leaves such poison in `R`, which is checked here (`R` is the
/// small factor of a tall split, so the input itself is never scanned).
pub fn qr_split(t: &Tensor, row_axes: &[usize]) -> Result<(Tensor, Tensor)> {
    let (mat, row_dims, col_dims) = matricize(t, row_axes)?;
    let f = qr(&mat);
    f.r.validate_finite("qr_split R factor")?;
    let k = f.q.ncols();
    let q = Tensor::fold(&f.q, &row_dims, &[k])?;
    let r = Tensor::fold(&f.r, &[k], &col_dims)?;
    Ok((q, r))
}

/// Gram-matrix based QR (paper Algorithm 5) of a tensor across a bipartition.
/// Unlike [`qr_split`], the "R" factor is square with dimension
/// `prod(col_dims)`; this is exactly the shape needed by the reshape-avoiding
/// evolution algorithm where the small Gram matrix is formed over the bond
/// being updated.
pub fn gram_qr_split(t: &Tensor, row_axes: &[usize]) -> Result<(Tensor, Tensor)> {
    let (mat, row_dims, col_dims) = matricize(t, row_axes)?;
    let f = gram_qr(&mat)?;
    let k = f.r.nrows();
    let q = Tensor::fold(&f.q, &row_dims, &[k])?;
    let r = Tensor::fold(&f.r, &[k], &col_dims)?;
    Ok((q, r))
}

/// Truncated SVD of the tensor viewed as a matrix with `row_axes` as rows.
pub fn svd_split(t: &Tensor, row_axes: &[usize], truncation: Truncation) -> Result<SplitSvd> {
    let (mat, row_dims, col_dims) = matricize(t, row_axes)?;
    let f = svd(&mat)?;
    build_split_svd(f, &row_dims, &col_dims, truncation)
}

/// Truncate a matrix SVD and fold its factors back into tensors.
pub(crate) fn build_split_svd(
    f: Svd,
    row_dims: &[usize],
    col_dims: &[usize],
    truncation: Truncation,
) -> Result<SplitSvd> {
    let keep = truncation.keep(&f.s);
    let err = f.truncation_error(keep);
    let t = f.truncated(keep);
    let k = t.s.len();
    let u = Tensor::fold(&t.u, row_dims, &[k])?;
    let vh = Tensor::fold(&t.vh, &[k], col_dims)?;
    Ok(SplitSvd { u, s: t.s, vh, truncation_error: err })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::tensordot;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reassemble_split(split: &SplitSvd) -> Result<Tensor> {
        let (l, r) = split.absorb_left();
        tensordot(&l, &r, &[l.ndim() - 1], &[0])
    }

    #[test]
    fn truncation_policy_keep_counts() {
        let s = [10.0, 5.0, 1.0, 1e-9, 1e-12];
        assert_eq!(Truncation::none().keep(&s), 5);
        assert_eq!(Truncation::max_rank(2).keep(&s), 2);
        assert_eq!(Truncation::max_rank(100).keep(&s), 5);
        assert_eq!(Truncation::rank_and_tol(100, 1e-8).keep(&s), 3);
        assert_eq!(Truncation::rank_and_tol(2, 1e-8).keep(&s), 2);
        assert_eq!(Truncation::max_rank(0).keep(&s), 1, "rank 0 clamps to 1");
    }

    #[test]
    fn qr_split_reconstructs() {
        let mut rng = StdRng::seed_from_u64(30);
        let t = Tensor::random(&[3, 4, 2, 5], &mut rng);
        let (q, r) = qr_split(&t, &[0, 2]).unwrap();
        assert_eq!(q.shape()[..2], [3, 2]);
        assert_eq!(r.shape()[1..], [4, 5]);
        // Contract back and compare against the permuted original.
        let rebuilt = tensordot(&q, &r, &[2], &[0]).unwrap();
        let expected = t.permute(&[0, 2, 1, 3]).unwrap();
        assert!(rebuilt.approx_eq(&expected, 1e-10));
        // Q isometric over its row axes.
        let qmat = q.unfold(2);
        assert!(qmat.has_orthonormal_cols(1e-10));
    }

    #[test]
    fn qr_split_rejects_a_single_non_finite_entry() {
        let mut rng = StdRng::seed_from_u64(32);
        // Tall (12 x 4), square (6 x 6) and wide (3 x 8, where columns 3..8
        // only ever meet the projection loop) matricizations; real and
        // complex instantiations.
        for (shape, rows) in [(&[4, 3, 4][..], 2), (&[6, 6][..], 1), (&[3, 2, 4][..], 1)] {
            for real in [false, true] {
                let clean = if real {
                    Tensor::random_real(shape, &mut rng)
                } else {
                    Tensor::random(shape, &mut rng)
                };
                let row_axes: Vec<usize> = (0..rows).collect();
                assert!(qr_split(&clean, &row_axes).is_ok());
                let ncols: usize = shape[rows..].iter().product();
                // First column, a middle column, the last column.
                for col in [0, ncols / 2, ncols - 1] {
                    for bad in [f64::NAN, f64::INFINITY] {
                        let mut t = clean.clone();
                        t.data_mut()[ncols + col].re = bad;
                        if real {
                            t.assume_real();
                        }
                        let before = koala_error::recovery::snapshot().nonfinite_detections;
                        let Err(err) = qr_split(&t, &row_axes) else {
                            panic!("{shape:?} real={real} column {col} value {bad}: not rejected");
                        };
                        assert_eq!(
                            err.kind(),
                            koala_error::ErrorKind::NonFinite,
                            "{shape:?} real={real} column {col} value {bad}"
                        );
                        assert!(koala_error::recovery::snapshot().nonfinite_detections > before);
                    }
                }
            }
        }
    }

    #[test]
    fn gram_qr_split_matches_qr_split_column_space() {
        let mut rng = StdRng::seed_from_u64(31);
        let t = Tensor::random(&[4, 3, 2], &mut rng);
        let (q, r) = gram_qr_split(&t, &[0, 1]).unwrap();
        let rebuilt = tensordot(&q, &r, &[2], &[0]).unwrap();
        assert!(rebuilt.approx_eq(&t, 1e-8));
    }

    #[test]
    fn svd_split_reconstructs_without_truncation() {
        let mut rng = StdRng::seed_from_u64(32);
        let t = Tensor::random(&[2, 3, 4], &mut rng);
        let f = svd_split(&t, &[0, 1], Truncation::none()).unwrap();
        assert!(f.truncation_error < 1e-12);
        let rebuilt = reassemble_split(&f).unwrap();
        assert!(rebuilt.approx_eq(&t, 1e-10));
    }

    #[test]
    fn svd_split_truncation_error_matches() {
        let mut rng = StdRng::seed_from_u64(33);
        let t = Tensor::random(&[4, 4, 4], &mut rng);
        let f = svd_split(&t, &[0], Truncation::max_rank(2)).unwrap();
        assert_eq!(f.s.len(), 2);
        let rebuilt = reassemble_split(&f).unwrap();
        let diff = rebuilt.sub(&t.permute(&[0, 1, 2]).unwrap()).unwrap().norm();
        assert!((diff - f.truncation_error).abs() < 1e-9);
    }

    #[test]
    fn svd_split_with_non_leading_row_axes() {
        let mut rng = StdRng::seed_from_u64(34);
        let t = Tensor::random(&[2, 5, 3], &mut rng);
        let f = svd_split(&t, &[2], Truncation::none()).unwrap();
        assert_eq!(f.u.shape()[0], 3);
        assert_eq!(f.vh.shape()[1..], [2, 5]);
        let rebuilt = reassemble_split(&f).unwrap();
        assert!(rebuilt.approx_eq(&t.permute(&[2, 0, 1]).unwrap(), 1e-10));
    }

    #[test]
    fn splits_of_real_tensors_keep_the_realness_hint() {
        let mut rng = StdRng::seed_from_u64(38);
        let t = Tensor::random_real(&[3, 4, 2, 5], &mut rng);
        assert!(t.is_real());
        let (q, r) = qr_split(&t, &[0, 2]).unwrap();
        assert!(q.is_real() && r.is_real(), "QR split factors must carry the hint");
        let (gq, gr) = gram_qr_split(&t, &[0, 2]).unwrap();
        assert!(gq.is_real() && gr.is_real(), "Gram-QR split factors must carry the hint");
        let f = svd_split(&t, &[0, 1], Truncation::max_rank(3)).unwrap();
        assert!(f.u.is_real() && f.vh.is_real(), "SVD split factors must carry the hint");
        // The absorb variants scale by (finite) singular values: hint survives.
        for (l, rr) in [f.absorb_left(), f.absorb_right(), f.absorb_split()] {
            assert!(l.is_real() && rr.is_real(), "absorbed factors must carry the hint");
        }
        // A genuinely complex tensor must not leak the hint through a split.
        let z = Tensor::random(&[3, 4, 2], &mut rng);
        let fz = svd_split(&z, &[0], Truncation::none()).unwrap();
        assert!(!fz.u.is_real() || fz.u.to_matrix_2d().data().iter().all(|v| v.im == 0.0));
    }

    #[test]
    fn matricize_is_the_permuted_unfolding() {
        let mut rng = StdRng::seed_from_u64(39);
        for t in [Tensor::random(&[3, 4, 2], &mut rng), Tensor::random_real(&[3, 4, 2], &mut rng)] {
            // Identity and non-identity permutations.
            for (rows, perm) in [(&[0, 1][..], [0, 1, 2]), (&[2, 0][..], [2, 0, 1])] {
                let (m, row_dims, col_dims) = matricize(&t, rows).unwrap();
                let want = t.permute(&perm).unwrap().unfold(rows.len());
                assert_eq!(m.data(), want.data());
                assert_eq!(m.is_real(), t.is_real());
                assert_eq!((row_dims.iter().product(), col_dims.iter().product()), m.shape());
            }
        }
    }

    #[test]
    fn invalid_axes_are_rejected() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(qr_split(&t, &[3]).is_err());
        assert!(svd_split(&t, &[0, 0], Truncation::none()).is_err());
    }

    #[test]
    fn absorb_variants_reassemble_identically() {
        let mut rng = StdRng::seed_from_u64(37);
        let t = Tensor::random(&[3, 2, 4], &mut rng);
        let f = svd_split(&t, &[0], Truncation::none()).unwrap();
        for (l, r) in [f.absorb_left(), f.absorb_right(), f.absorb_split()] {
            let rebuilt = tensordot(&l, &r, &[l.ndim() - 1], &[0]).unwrap();
            assert!(rebuilt.approx_eq(&t, 1e-9));
        }
    }
}

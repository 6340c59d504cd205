//! Pairwise tensor contraction (tensordot) implemented on top of GEMM.
//!
//! `tensordot` lowers a contraction to a single GEMM by viewing each operand
//! as a matrix over (free axes) x (contracted axes). The lowering is
//! zero-copy whenever the axis lists line up with the stored layout:
//!
//! * if the operand's axes are already ordered `free ++ contracted` (left) or
//!   `contracted ++ free` (right), its buffer is passed to the GEMM directly;
//! * if they are ordered the other way round, the *transposed* matricization
//!   is passed with [`Op::Transpose`], which the GEMM folds into operand
//!   packing — still no copy;
//! * only genuinely interleaved axis orders fall back to one `permute`.
//!
//! The GEMM output is written straight into the result tensor's buffer, so
//! already-matricized contractions perform zero intermediate allocations
//! beyond the result itself.
//!
//! Realness rides along structurally: when both operands carry the
//! [`Tensor::is_real`] hint the GEMM is dispatched to `koala-linalg`'s
//! real-only kernel ([`gemm_into_real`]) and the result tensor is marked
//! real, so a chain of contractions over real tensors (a TFI evolution
//! network) stays on the cheap kernel end to end without a single data scan.

use crate::shape::num_elements;
use crate::tensor::Tensor;
use koala_error::{KoalaError, Result};
use koala_linalg::C64;
use koala_linalg::{gemm_into, gemm_into_real, Op};

/// Contract `a` and `b` over the axis pairs `(axes_a[i], axes_b[i])`.
///
/// The result carries the uncontracted axes of `a` (in their original order)
/// followed by the uncontracted axes of `b`. This is the same convention as
/// NumPy's `tensordot`, which the original Koala library builds on.
///
/// Internally this builds a one-shot `PairPlan` and executes it; the einsum
/// planner (`crate::plan`) builds the same `PairPlan`s once per
/// `(spec, shapes)` key and replays them, so repeated contractions skip the
/// axis validation and matricization-layout analysis entirely.
pub fn tensordot(a: &Tensor, b: &Tensor, axes_a: &[usize], axes_b: &[usize]) -> Result<Tensor> {
    PairPlan::new(a.shape(), axes_a, b.shape(), axes_b)?.execute(a, b)
}

/// How one operand of a pairwise contraction is lowered to a GEMM input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum MatLayout {
    /// The stored buffer already is the requested matricization (possibly as
    /// its transpose, which the GEMM fuses into packing) — zero copy.
    Direct(Op),
    /// The axes genuinely interleave: one permuted copy is required.
    Permute(Vec<usize>),
}

/// The fully analysed lowering of one pairwise tensor contraction to a single
/// GEMM call: effective `(m, n, k)` dimensions, the matricization layout of
/// each operand, and the result shape. Valid only for operands of exactly the
/// shapes it was built for — the layout decisions depend on nothing else, so a
/// `PairPlan` can be reused across any number of executions with different
/// operand *values* (this is what [`crate::plan::Plan`] memoises per step).
#[derive(Debug, Clone)]
pub(crate) struct PairPlan {
    shape_a: Vec<usize>,
    shape_b: Vec<usize>,
    m: usize,
    n: usize,
    k: usize,
    a_layout: MatLayout,
    b_layout: MatLayout,
    out_shape: Vec<usize>,
}

impl PairPlan {
    /// Validate the contraction and analyse both matricization layouts.
    pub(crate) fn new(
        shape_a: &[usize],
        axes_a: &[usize],
        shape_b: &[usize],
        axes_b: &[usize],
    ) -> Result<PairPlan> {
        let (nda, ndb) = (shape_a.len(), shape_b.len());
        if axes_a.len() != axes_b.len() {
            return Err(KoalaError::invalid(format!(
                "tensordot: {} axes for left operand but {} for right",
                axes_a.len(),
                axes_b.len()
            )));
        }
        for (&ia, &ib) in axes_a.iter().zip(axes_b.iter()) {
            if ia >= nda || ib >= ndb {
                return Err(KoalaError::invalid(format!(
                    "tensordot: axis pair ({ia},{ib}) out of range for ranks {nda} and {ndb}"
                )));
            }
            if shape_a[ia] != shape_b[ib] {
                return Err(KoalaError::shape(format!(
                    "tensordot: axis {ia} of left (dim {}) vs axis {ib} of right (dim {})",
                    shape_a[ia], shape_b[ib]
                )));
            }
        }
        let mut seen_a = vec![false; nda];
        for &ia in axes_a {
            if seen_a[ia] {
                return Err(KoalaError::invalid(format!("tensordot: duplicate left axis {ia}")));
            }
            seen_a[ia] = true;
        }
        let mut seen_b = vec![false; ndb];
        for &ib in axes_b {
            if seen_b[ib] {
                return Err(KoalaError::invalid(format!("tensordot: duplicate right axis {ib}")));
            }
            seen_b[ib] = true;
        }

        let free_a: Vec<usize> = (0..nda).filter(|i| !axes_a.contains(i)).collect();
        let free_b: Vec<usize> = (0..ndb).filter(|i| !axes_b.contains(i)).collect();

        let m: usize = free_a.iter().map(|&i| shape_a[i]).product();
        let k: usize = axes_a.iter().map(|&i| shape_a[i]).product();
        let n: usize = free_b.iter().map(|&i| shape_b[i]).product();

        // Left operand: matricize as (free axes) x (contracted axes); right
        // operand as (contracted axes) x (free axes).
        let a_layout = layout_for(&free_a, axes_a);
        let b_layout = layout_for(axes_b, &free_b);

        let mut out_shape: Vec<usize> = free_a.iter().map(|&i| shape_a[i]).collect();
        out_shape.extend(free_b.iter().map(|&i| shape_b[i]));
        Ok(PairPlan {
            shape_a: shape_a.to_vec(),
            shape_b: shape_b.to_vec(),
            m,
            n,
            k,
            a_layout,
            b_layout,
            out_shape,
        })
    }

    /// Shape of the contraction result.
    pub(crate) fn out_shape(&self) -> &[usize] {
        &self.out_shape
    }

    /// Run the planned contraction on concrete operands.
    pub(crate) fn execute(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        if a.shape() != self.shape_a || b.shape() != self.shape_b {
            return Err(KoalaError::shape(format!(
                "contraction plan built for shapes {:?} x {:?} applied to {:?} x {:?}",
                self.shape_a,
                self.shape_b,
                a.shape(),
                b.shape()
            )));
        }
        // Realness dispatch: permuted copies inherit their source's hint
        // (permute preserves realness), so checking the operands is enough.
        let real = a.is_real() && b.is_real();
        let (a_view, opa) = apply_layout(a, &self.a_layout)?;
        let (b_view, opb) = apply_layout(b, &self.b_layout)?;
        let mut out = vec![C64::ZERO; self.m * self.n];
        if real {
            gemm_into_real(
                opa,
                opb,
                self.m,
                self.n,
                self.k,
                a_view.data(),
                b_view.data(),
                &mut out,
            );
        } else {
            gemm_into(opa, opb, self.m, self.n, self.k, a_view.data(), b_view.data(), &mut out);
        }
        let mut out_t = Tensor::from_vec(&self.out_shape, out)?;
        if real {
            // The real kernel writes only real parts into the zeroed buffer.
            out_t.assume_real();
        }
        Ok(out_t)
    }
}

/// Decide how to matricize a tensor with `rows` axes indexing matrix rows and
/// `cols` axes indexing matrix columns. Zero-copy when the stored layout (or
/// its transpose) already matches; a single permutation otherwise.
fn layout_for(rows: &[usize], cols: &[usize]) -> MatLayout {
    if is_identity_order(rows, cols) {
        return MatLayout::Direct(Op::None);
    }
    if is_identity_order(cols, rows) {
        return MatLayout::Direct(Op::Transpose);
    }
    let mut perm: Vec<usize> = rows.to_vec();
    perm.extend_from_slice(cols);
    MatLayout::Permute(perm)
}

/// Materialize a planned matricization layout for a concrete operand.
fn apply_layout<'a>(t: &'a Tensor, layout: &MatLayout) -> Result<(MatView<'a>, Op)> {
    match layout {
        MatLayout::Direct(op) => Ok((MatView::Borrowed(t.data()), *op)),
        MatLayout::Permute(perm) => Ok((MatView::Owned(t.permute(perm)?.into_data()), Op::None)),
    }
}

/// A matricized view of a tensor: either the tensor's own buffer (zero-copy)
/// or a permuted copy when the axis order genuinely interleaves.
enum MatView<'a> {
    Borrowed(&'a [C64]),
    Owned(Vec<C64>),
}

impl MatView<'_> {
    fn data(&self) -> &[C64] {
        match self {
            MatView::Borrowed(d) => d,
            MatView::Owned(d) => d,
        }
    }
}

/// True if `first ++ second` is the identity permutation `0..n`.
fn is_identity_order(first: &[usize], second: &[usize]) -> bool {
    first.iter().chain(second.iter()).copied().eq(0..first.len() + second.len())
}

/// Sum the tensor over one axis, removing it.
///
/// Implemented as a direct strided reduction — one pass over the data with
/// contiguous inner accumulation — rather than a contraction with a ones
/// tensor, which would allocate the ones vector and dispatch a full GEMM.
pub fn sum_axis(t: &Tensor, axis: usize) -> Result<Tensor> {
    if axis >= t.ndim() {
        return Err(KoalaError::invalid(format!(
            "sum_axis: axis {axis} out of range for rank {}",
            t.ndim()
        )));
    }
    let shape = t.shape();
    let outer: usize = shape[..axis].iter().product();
    let len = shape[axis];
    let inner: usize = shape[axis + 1..].iter().product();
    let mut new_shape = shape.to_vec();
    new_shape.remove(axis);
    let mut out = vec![C64::ZERO; num_elements(&new_shape)];
    let src = t.data();
    for o in 0..outer {
        let dst = &mut out[o * inner..(o + 1) * inner];
        let base = o * len * inner;
        for p in 0..len {
            let row = &src[base + p * inner..base + (p + 1) * inner];
            for (d, s) in dst.iter_mut().zip(row.iter()) {
                *d += *s;
            }
        }
    }
    let mut out_t = Tensor::from_vec(&new_shape, out)?;
    if t.is_real() {
        // A sum of real entries is real.
        out_t.assume_real();
    }
    Ok(out_t)
}

/// Naive element-wise reference contraction used by tests and property checks
/// in dependent crates. O(prod(all dims)) — only for small tensors.
pub fn tensordot_naive(
    a: &Tensor,
    b: &Tensor,
    axes_a: &[usize],
    axes_b: &[usize],
) -> Result<Tensor> {
    use crate::shape::{increment_index, num_elements};
    let free_a: Vec<usize> = (0..a.ndim()).filter(|i| !axes_a.contains(i)).collect();
    let free_b: Vec<usize> = (0..b.ndim()).filter(|i| !axes_b.contains(i)).collect();
    let mut out_shape: Vec<usize> = free_a.iter().map(|&i| a.dim(i)).collect();
    out_shape.extend(free_b.iter().map(|&i| b.dim(i)));
    let contracted_dims: Vec<usize> = axes_a.iter().map(|&i| a.dim(i)).collect();

    let mut out = Tensor::zeros(&out_shape);
    if num_elements(&out_shape) == 0 {
        return Ok(out);
    }
    let mut out_idx = vec![0usize; out_shape.len()];
    loop {
        let mut acc = koala_linalg::C64::ZERO;
        let mut k_idx = vec![0usize; contracted_dims.len()];
        loop {
            let mut ia = vec![0usize; a.ndim()];
            for (pos, &ax) in free_a.iter().enumerate() {
                ia[ax] = out_idx[pos];
            }
            for (pos, &ax) in axes_a.iter().enumerate() {
                ia[ax] = k_idx[pos];
            }
            let mut ib = vec![0usize; b.ndim()];
            for (pos, &ax) in free_b.iter().enumerate() {
                ib[ax] = out_idx[free_a.len() + pos];
            }
            for (pos, &ax) in axes_b.iter().enumerate() {
                ib[ax] = k_idx[pos];
            }
            acc = acc.mul_add(a.get(&ia), b.get(&ib));
            if contracted_dims.is_empty() || !increment_index(&mut k_idx, &contracted_dims) {
                break;
            }
        }
        out.set(&out_idx, acc);
        if out_shape.is_empty() || !increment_index(&mut out_idx, &out_shape) {
            break;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use koala_linalg::matmul;
    use koala_linalg::{c64, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matrix_product_special_case() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = Tensor::random(&[4, 5], &mut rng);
        let b = Tensor::random(&[5, 3], &mut rng);
        let c = tensordot(&a, &b, &[1], &[0]).unwrap();
        let expected = matmul(&a.to_matrix_2d(), &b.to_matrix_2d());
        assert!(c.to_matrix_2d().approx_eq(&expected, 1e-11));
    }

    #[test]
    fn matches_naive_on_random_tensors() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Tensor::random(&[2, 3, 4], &mut rng);
        let b = Tensor::random(&[4, 3, 5], &mut rng);
        let fast = tensordot(&a, &b, &[2, 1], &[0, 1]).unwrap();
        let slow = tensordot_naive(&a, &b, &[2, 1], &[0, 1]).unwrap();
        assert_eq!(fast.shape(), &[2, 5]);
        assert!(fast.approx_eq(&slow, 1e-10));
    }

    #[test]
    fn no_contracted_axes_gives_outer_product() {
        let a = Tensor::from_real(&[2], &[1.0, 2.0]).unwrap();
        let b = Tensor::from_real(&[2], &[3.0, 4.0]).unwrap();
        let c = tensordot(&a, &b, &[], &[]).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.get(&[1, 0]), c64(6.0, 0.0));
        assert!(c.approx_eq(&a.outer(&b), 1e-14));
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(tensordot(&a, &b, &[1], &[0]).is_err());
        assert!(tensordot(&a, &b, &[1], &[0, 1]).is_err());
        assert!(tensordot(&a, &b, &[5], &[0]).is_err());
        assert!(tensordot(&a, &b, &[1, 1], &[0, 1]).is_err());
    }

    #[test]
    fn identity_contraction_is_a_noop() {
        let mut rng = StdRng::seed_from_u64(13);
        let t = Tensor::random(&[3, 4], &mut rng);
        let eye = Tensor::eye(4);
        let out = tensordot(&t, &eye, &[1], &[0]).unwrap();
        assert!(out.approx_eq(&t, 1e-12));
    }

    #[test]
    fn sum_axis_matches_manual_sum() {
        let t = Tensor::from_real(&[2, 3], &[1., 2., 3., 4., 5., 6.]).unwrap();
        let s = sum_axis(&t, 1).unwrap();
        assert_eq!(s.shape(), &[2]);
        assert_eq!(s.get(&[0]), c64(6.0, 0.0));
        assert_eq!(s.get(&[1]), c64(15.0, 0.0));
        assert!(sum_axis(&t, 2).is_err());
    }

    #[test]
    fn contraction_order_of_free_axes() {
        let mut rng = StdRng::seed_from_u64(14);
        let a = Tensor::random(&[2, 3, 4], &mut rng);
        let b = Tensor::random(&[3, 5], &mut rng);
        let c = tensordot(&a, &b, &[1], &[0]).unwrap();
        assert_eq!(c.shape(), &[2, 4, 5]);
        // Check one element against the definition.
        let mut acc = koala_linalg::C64::ZERO;
        for k in 0..3 {
            acc += a.get(&[1, k, 2]) * b.get(&[k, 3]);
        }
        assert!(c.get(&[1, 2, 3]).approx_eq(acc, 1e-12));
    }

    #[test]
    fn gemm_matrix_helper_roundtrip() {
        let m = Matrix::identity(3);
        let t = Tensor::from_matrix_2d(&m);
        let out = tensordot(&t, &t, &[1], &[0]).unwrap();
        assert!(out.to_matrix_2d().approx_eq(&m, 1e-14));
    }
}

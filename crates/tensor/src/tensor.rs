//! Dense row-major complex tensor.

use crate::shape::{
    is_identity_perm, is_permutation, num_elements, permute_shape, ravel, strides_for,
};
use koala_error::{KoalaError, Result};
use koala_linalg::{c64, Matrix, C64};
use rand::Rng;
use std::fmt;

/// Dense tensor of [`C64`] stored contiguously in row-major order.
///
/// # Realness hint
///
/// Like [`Matrix`], every tensor carries a structural `is_real` hint (`true`
/// guarantees all imaginary parts are exactly zero; `false` means unknown).
/// It is set by real constructors, survives the layout operations used by the
/// contraction pipeline (permute, reshape, matricization via
/// [`Tensor::unfold`] / [`Tensor::fold`], axis sums), combines as a logical
/// AND across binary operations, and is conservatively dropped by raw mutable
/// access. The pairwise contraction planner reads it to dispatch GEMMs of
/// real operands onto `koala-linalg`'s real-only microkernel and marks the
/// results real, so realness set once at construction (e.g. a TFI Trotter
/// gate) flows through whole einsum networks without ever rescanning data.
#[derive(Clone)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<C64>,
    /// Structural realness hint; see the type-level docs. Not observable
    /// through `PartialEq`.
    real: bool,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

impl Tensor {
    /// Zero tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor { shape: shape.to_vec(), data: vec![C64::ZERO; num_elements(shape)], real: true }
    }

    /// Tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor { shape: shape.to_vec(), data: vec![C64::ONE; num_elements(shape)], real: true }
    }

    /// Rank-0 tensor holding a single scalar.
    pub fn scalar(value: C64) -> Self {
        Tensor { shape: vec![], data: vec![value], real: value.im == 0.0 }
    }

    /// Build from shape and row-major data.
    pub fn from_vec(shape: &[usize], data: Vec<C64>) -> Result<Self> {
        if data.len() != num_elements(shape) {
            return Err(KoalaError::shape(format!(
                "from_vec: {} elements provided for shape {:?} ({} expected)",
                data.len(),
                shape,
                num_elements(shape)
            )));
        }
        // No realness scan: from_vec sits on hot paths (contraction outputs).
        // Callers that know better follow up with `assume_real`.
        Ok(Tensor { shape: shape.to_vec(), data, real: false })
    }

    /// Build from real-valued row-major data.
    pub fn from_real(shape: &[usize], data: &[f64]) -> Result<Self> {
        let cdata = data.iter().map(|&x| C64::from_real(x)).collect();
        let mut t = Tensor::from_vec(shape, cdata)?;
        t.real = true;
        Ok(t)
    }

    /// Tensor with independent entries uniform in `[-1,1]` (both components).
    pub fn random<R: Rng + ?Sized>(shape: &[usize], rng: &mut R) -> Self {
        let data = (0..num_elements(shape))
            .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        Tensor { shape: shape.to_vec(), data, real: false }
    }

    /// Random tensor with purely real entries.
    pub fn random_real<R: Rng + ?Sized>(shape: &[usize], rng: &mut R) -> Self {
        let data = (0..num_elements(shape)).map(|_| c64(rng.gen_range(-1.0..1.0), 0.0)).collect();
        Tensor { shape: shape.to_vec(), data, real: true }
    }

    /// Identity "matrix" as a rank-2 tensor.
    pub fn eye(n: usize) -> Self {
        Tensor::from_matrix_2d(&Matrix::identity(n))
    }

    /// Shape of the tensor.
    #[inline(always)]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes.
    #[inline(always)]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of one axis.
    #[inline(always)]
    pub fn dim(&self, axis: usize) -> usize {
        self.shape[axis]
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

    /// Consume into the raw data vector.
    pub fn into_data(self) -> Vec<C64> {
        self.data
    }

    /// Structural realness hint: `true` guarantees every imaginary part is
    /// exactly zero; `false` means unknown. See the type-level docs.
    #[inline(always)]
    pub fn is_real(&self) -> bool {
        self.real
    }

    /// Assert that every imaginary part is exactly zero, setting the realness
    /// hint without a scan in release builds. Verified by a full scan under
    /// `debug_assertions`; a wrong assertion makes later contractions
    /// silently drop imaginary parts.
    pub fn assume_real(&mut self) {
        debug_assert!(
            self.data.iter().all(|z| z.im == 0.0),
            "assume_real: tensor has nonzero imaginary parts"
        );
        self.real = true;
    }

    /// Scan the data and set the realness hint iff every imaginary part is
    /// exactly zero. Returns the resulting hint. O(len) — for construction
    /// points, not hot loops.
    pub fn mark_real_if_exact(&mut self) -> bool {
        self.real = self.data.iter().all(|z| z.im == 0.0);
        self.real
    }

    /// Element access by multi-index.
    pub fn get(&self, index: &[usize]) -> C64 {
        let strides = strides_for(&self.shape);
        self.data[ravel(index, &strides)]
    }

    /// Mutable element access by multi-index. The realness hint survives iff
    /// it was set and the written value is real.
    pub fn set(&mut self, index: &[usize], value: C64) {
        let strides = strides_for(&self.shape);
        let off = ravel(index, &strides);
        self.data[off] = value;
        self.real = self.real && value.im == 0.0;
    }

    /// The single element of a rank-0 (or single-element) tensor.
    pub fn item(&self) -> C64 {
        assert_eq!(
            self.data.len(),
            1,
            "item() requires exactly one element, shape {:?}",
            self.shape
        );
        self.data[0]
    }

    /// Change the shape without moving data (sizes must match).
    pub fn reshape(&self, new_shape: &[usize]) -> Result<Tensor> {
        if num_elements(new_shape) != self.data.len() {
            return Err(KoalaError::shape(format!(
                "reshape: cannot view {:?} ({} elems) as {:?} ({} elems)",
                self.shape,
                self.data.len(),
                new_shape,
                num_elements(new_shape)
            )));
        }
        Ok(Tensor { shape: new_shape.to_vec(), data: self.data.clone(), real: self.real })
    }

    /// Reshape consuming `self` (no data copy).
    pub fn into_reshape(self, new_shape: &[usize]) -> Result<Tensor> {
        if num_elements(new_shape) != self.data.len() {
            return Err(KoalaError::shape(format!(
                "into_reshape: cannot view {:?} as {:?}",
                self.shape, new_shape
            )));
        }
        Ok(Tensor { shape: new_shape.to_vec(), data: self.data, real: self.real })
    }

    /// Permute (transpose) the axes: axis `i` of the result is axis `perm[i]`
    /// of the input.
    ///
    /// Identity permutations (and rank <= 1) return a straight copy without
    /// touching the gather machinery; other permutations run a cache-blocked
    /// kernel (see `permute_gather` in this module's source).
    pub fn permute(&self, perm: &[usize]) -> Result<Tensor> {
        if perm.len() != self.ndim() || !is_permutation(perm) {
            return Err(KoalaError::invalid(format!(
                "permute: {:?} is not a permutation of 0..{}",
                perm,
                self.ndim()
            )));
        }
        let new_shape = permute_shape(&self.shape, perm);
        if self.ndim() <= 1 || is_identity_perm(perm) {
            return Ok(Tensor { shape: new_shape, data: self.data.clone(), real: self.real });
        }
        let mut out = vec![C64::ZERO; self.data.len()];
        permute_gather(&self.data, &self.shape, perm, &new_shape, &mut out);
        Ok(Tensor { shape: new_shape, data: out, real: self.real })
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|z| z.conj()).collect(),
            real: self.real,
        }
    }

    /// Multiply every element by a scalar.
    ///
    /// The realness hint survives only for a *finite* real scalar: a
    /// non-finite `s.re` turns zero imaginary parts into `0.0 * inf = NaN`.
    pub fn scale(&self, s: C64) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&z| z * s).collect(),
            real: self.real && s.im == 0.0 && s.re.is_finite(),
        }
    }

    /// In-place scalar multiplication (hint rule as in [`Tensor::scale`]).
    pub fn scale_inplace(&mut self, s: C64) {
        self.real = self.real && s.im == 0.0 && s.re.is_finite();
        for z in &mut self.data {
            *z *= s;
        }
    }

    /// Element-wise sum (shapes must match).
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(KoalaError::shape(format!("add: {:?} vs {:?}", self.shape, other.shape)));
        }
        let data = self.data.iter().zip(other.data.iter()).map(|(a, b)| *a + *b).collect();
        Ok(Tensor { shape: self.shape.clone(), data, real: self.real && other.real })
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(KoalaError::shape(format!("sub: {:?} vs {:?}", self.shape, other.shape)));
        }
        let data = self.data.iter().zip(other.data.iter()).map(|(a, b)| *a - *b).collect();
        Ok(Tensor { shape: self.shape.clone(), data, real: self.real && other.real })
    }

    /// Frobenius (2-)norm of the tensor.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest element modulus.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Maximum element-wise deviation from another tensor of the same shape.
    pub fn max_diff(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape, other.shape, "max_diff: shape mismatch");
        self.data.iter().zip(other.data.iter()).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max)
    }

    /// True if element-wise within `tol` of `other`.
    pub fn approx_eq(&self, other: &Tensor, tol: f64) -> bool {
        self.shape == other.shape && self.max_diff(other) <= tol
    }

    /// Inner product `<self, other> = sum conj(self) * other`.
    pub fn inner(&self, other: &Tensor) -> Result<C64> {
        if self.shape != other.shape {
            return Err(KoalaError::shape(format!("inner: {:?} vs {:?}", self.shape, other.shape)));
        }
        Ok(self.data.iter().zip(other.data.iter()).map(|(a, b)| a.conj() * *b).sum())
    }

    /// Matricization: view the tensor as a matrix whose rows are indexed by the
    /// first `split` axes and whose columns are indexed by the rest. The
    /// realness hint carries over.
    pub fn unfold(&self, split: usize) -> Matrix {
        self.clone().into_unfold(split)
    }

    /// [`Tensor::unfold`] consuming `self`: the matrix takes over the
    /// tensor's buffer (no data copy).
    pub fn into_unfold(self, split: usize) -> Matrix {
        assert!(split <= self.ndim(), "unfold: split {} exceeds rank {}", split, self.ndim());
        let rows: usize = self.shape[..split].iter().product();
        let cols: usize = self.shape[split..].iter().product();
        let mut m = Matrix::from_vec(rows, cols, self.data)
            .unwrap_or_else(|_| unreachable!("unfold: rows*cols == len by construction"));
        if self.real {
            m.assume_real();
        }
        m
    }

    /// Inverse of [`Tensor::into_unfold`]: reinterpret a matrix as a tensor
    /// with the given row-axis and column-axis dimensions. The tensor takes
    /// over the matrix's buffer (no data copy); the realness hint carries
    /// over.
    pub fn fold(m: Matrix, row_dims: &[usize], col_dims: &[usize]) -> Result<Tensor> {
        let rows: usize = row_dims.iter().product();
        let cols: usize = col_dims.iter().product();
        if m.nrows() != rows || m.ncols() != cols {
            return Err(KoalaError::shape(format!(
                "fold: matrix {}x{} does not match row dims {:?} / col dims {:?}",
                m.nrows(),
                m.ncols(),
                row_dims,
                col_dims
            )));
        }
        let mut shape = row_dims.to_vec();
        shape.extend_from_slice(col_dims);
        let real = m.is_real();
        let mut t = Tensor::from_vec(&shape, m.into_data())?;
        t.real = real;
        Ok(t)
    }

    /// View a matrix as a rank-2 tensor (the realness hint carries over).
    pub fn from_matrix_2d(m: &Matrix) -> Tensor {
        Tensor { shape: vec![m.nrows(), m.ncols()], data: m.data().to_vec(), real: m.is_real() }
    }

    /// Convert a rank-2 tensor into a matrix (the realness hint carries over).
    pub fn to_matrix_2d(&self) -> Matrix {
        assert_eq!(self.ndim(), 2, "to_matrix_2d: tensor rank is {}", self.ndim());
        let mut m = Matrix::from_vec(self.shape[0], self.shape[1], self.data.clone())
            .unwrap_or_else(|_| unreachable!("to_matrix_2d: rank-2 shape matches data"));
        if self.real {
            m.assume_real();
        }
        m
    }

    /// Outer (tensor) product.
    pub fn outer(&self, other: &Tensor) -> Tensor {
        let mut shape = self.shape.clone();
        shape.extend_from_slice(&other.shape);
        let mut data = Vec::with_capacity(self.data.len() * other.data.len());
        for &a in &self.data {
            for &b in &other.data {
                data.push(a * b);
            }
        }
        Tensor { shape, data, real: self.real && other.real }
    }

    /// Slice the tensor by fixing `axis` to `index`, dropping that axis.
    pub fn select(&self, axis: usize, index: usize) -> Result<Tensor> {
        if axis >= self.ndim() || index >= self.shape[axis] {
            return Err(KoalaError::invalid(format!(
                "select: axis {axis} index {index} out of range for shape {:?}",
                self.shape
            )));
        }
        let mut new_shape = self.shape.clone();
        let dim = new_shape.remove(axis);
        // Row-major: the result is `outer` runs of `inner` contiguous
        // elements, one run out of every `dim` of them.
        let inner: usize = new_shape[axis..].iter().product();
        let outer: usize = new_shape[..axis].iter().product();
        let mut data = Vec::with_capacity(outer * inner);
        for block in 0..outer {
            let start = (block * dim + index) * inner;
            data.extend_from_slice(&self.data[start..start + inner]);
        }
        Ok(Tensor { shape: new_shape, data, real: self.real })
    }

    /// Insert a new axis of size 1 at `axis`.
    pub fn expand_dims(&self, axis: usize) -> Tensor {
        assert!(axis <= self.ndim());
        let mut shape = self.shape.clone();
        shape.insert(axis, 1);
        Tensor { shape, data: self.data.clone(), real: self.real }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> C64 {
        self.data.iter().copied().sum()
    }
}

/// Cache-blocked gather kernel behind [`Tensor::permute`].
///
/// Walks the output in row-major order, reading input offsets through the
/// permuted strides. Two layouts cover every rank >= 2 permutation:
///
/// * if the output's innermost axis is also the input's innermost axis, the
///   data moves in contiguous runs (`copy_from_slice` per run);
/// * otherwise the output axis `t` that walks the input contiguously
///   (`perm[t] == ndim-1`) and the output's innermost axis form a 2-D
///   transpose, executed in `32 x 32` tiles so both the strided reads and
///   the contiguous writes stay cache-resident.
///
/// All per-element index arithmetic is incremental (odometer updates), not
/// the multiply-per-axis `ravel` of the previous implementation.
fn permute_gather(
    src: &[C64],
    in_shape: &[usize],
    perm: &[usize],
    out_shape: &[usize],
    out: &mut [C64],
) {
    let nd = out_shape.len();
    debug_assert!(nd >= 2);
    if out.is_empty() {
        return;
    }
    let in_strides = strides_for(in_shape);
    let out_strides = strides_for(out_shape);
    // Input stride of each *output* axis.
    let g: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
    let inner_len = out_shape[nd - 1];
    let inner_stride = g[nd - 1];

    if inner_stride == 1 {
        // Contiguous runs: odometer over the outer output axes, incremental
        // input base offset.
        let mut idx = vec![0usize; nd - 1];
        let mut base_in = 0usize;
        for run in out.chunks_exact_mut(inner_len) {
            run.copy_from_slice(&src[base_in..base_in + inner_len]);
            for ax in (0..nd - 1).rev() {
                idx[ax] += 1;
                base_in += g[ax];
                if idx[ax] < out_shape[ax] {
                    break;
                }
                base_in -= g[ax] * out_shape[ax];
                idx[ax] = 0;
            }
        }
        return;
    }

    // Blocked 2-D transpose path. Axis `t` of the output walks the input
    // contiguously (g[t] == 1); it exists and differs from the innermost
    // output axis because inner_stride != 1.
    const B: usize = 32;
    let t = perm
        .iter()
        .position(|&p| p == in_shape.len() - 1)
        .unwrap_or_else(|| unreachable!("permute: perm is a valid permutation"));
    let dim_t = out_shape[t];
    let ost_t = out_strides[t];
    let outer_axes: Vec<usize> = (0..nd - 1).filter(|&ax| ax != t).collect();
    let mut idx = vec![0usize; outer_axes.len()];
    let mut base_in = 0usize;
    let mut base_out = 0usize;
    loop {
        // Tile copy: out[base_out + i*ost_t + j] = src[base_in + i + j*inner_stride].
        for i0 in (0..dim_t).step_by(B) {
            let imax = (i0 + B).min(dim_t);
            for j0 in (0..inner_len).step_by(B) {
                let jmax = (j0 + B).min(inner_len);
                for i in i0..imax {
                    let orow = base_out + i * ost_t;
                    let irow = base_in + i;
                    for j in j0..jmax {
                        out[orow + j] = src[irow + j * inner_stride];
                    }
                }
            }
        }
        let mut wrapped = true;
        for (pos, &ax) in outer_axes.iter().enumerate().rev() {
            idx[pos] += 1;
            base_in += g[ax];
            base_out += out_strides[ax];
            if idx[pos] < out_shape[ax] {
                wrapped = false;
                break;
            }
            base_in -= g[ax] * out_shape[ax];
            base_out -= out_strides[ax] * out_shape[ax];
            idx[pos] = 0;
        }
        if wrapped {
            break;
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}, norm={:.4e})", self.shape, self.norm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{invert_permutation, unravel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_real(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(t.ndim(), 2);
        assert_eq!(t.dim(1), 3);
        assert_eq!(t.get(&[1, 2]), c64(6.0, 0.0));
        assert_eq!(t.get(&[0, 1]), c64(2.0, 0.0));
        let mut t2 = t.clone();
        t2.set(&[0, 0], c64(0.0, 9.0));
        assert_eq!(t2.get(&[0, 0]), c64(0.0, 9.0));
        assert!(Tensor::from_vec(&[2, 2], vec![C64::ONE; 3]).is_err());
    }

    #[test]
    fn scalar_tensor_item() {
        let s = Tensor::scalar(c64(2.0, -1.0));
        assert_eq!(s.ndim(), 0);
        assert_eq!(s.item(), c64(2.0, -1.0));
    }

    #[test]
    fn reshape_preserves_data_order() {
        let t = Tensor::from_real(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.get(&[0, 1]), c64(2.0, 0.0));
        assert_eq!(r.get(&[2, 1]), c64(6.0, 0.0));
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn permute_matches_manual_transpose() {
        let t = Tensor::from_real(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let p = t.permute(&[1, 0]).unwrap();
        assert_eq!(p.shape(), &[3, 2]);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(t.get(&[i, j]), p.get(&[j, i]));
            }
        }
        assert!(t.permute(&[0, 0]).is_err());
        assert!(t.permute(&[0]).is_err());
    }

    #[test]
    fn permute_roundtrip_higher_rank() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::random(&[2, 3, 4, 2], &mut rng);
        let perm = [2, 0, 3, 1];
        let p = t.permute(&perm).unwrap();
        assert_eq!(p.shape(), &[4, 2, 2, 3]);
        let back = p.permute(&invert_permutation(&perm)).unwrap();
        assert!(back.approx_eq(&t, 0.0));
        // Spot-check an element mapping.
        assert_eq!(p.get(&[3, 1, 0, 2]), t.get(&[1, 2, 3, 0]));
    }

    #[test]
    fn unfold_fold_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Tensor::random(&[2, 3, 4], &mut rng);
        let m = t.unfold(1);
        assert_eq!(m.shape(), (2, 12));
        let buffer = m.data().as_ptr();
        let back = Tensor::fold(m, &[2], &[3, 4]).unwrap();
        assert!(back.approx_eq(&t, 0.0));
        assert_eq!(back.data().as_ptr(), buffer, "fold keeps the matrix's buffer");
        let m2 = t.unfold(2);
        assert_eq!(m2.shape(), (6, 4));
        assert!(Tensor::fold(m2, &[5], &[4]).is_err());
        // The consuming form hands its buffer over, with the same bits and hint.
        let r = Tensor::random_real(&[2, 3, 4], &mut rng);
        let (want, buffer) = (r.unfold(2), r.data().as_ptr());
        let got = r.into_unfold(2);
        assert_eq!(got.data().as_ptr(), buffer);
        assert!(got.is_real() && want.is_real());
        assert!(got.approx_eq(&want, 0.0));
    }

    #[test]
    fn elementwise_ops_and_norm() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::random(&[3, 3], &mut rng);
        let b = Tensor::random(&[3, 3], &mut rng);
        let sum = a.add(&b).unwrap();
        assert!(sum.sub(&b).unwrap().approx_eq(&a, 1e-12));
        assert!(a.add(&Tensor::zeros(&[2, 2])).is_err());
        let scaled = a.scale(c64(0.0, 1.0));
        assert!((scaled.norm() - a.norm()).abs() < 1e-12);
        let n2: f64 = a.data().iter().map(|z| z.norm_sqr()).sum();
        assert!((a.norm() - n2.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn inner_product_is_conjugate_linear() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Tensor::random(&[2, 5], &mut rng);
        let b = Tensor::random(&[2, 5], &mut rng);
        let ab = a.inner(&b).unwrap();
        let ba = b.inner(&a).unwrap();
        assert!(ab.approx_eq(ba.conj(), 1e-12));
        let aa = a.inner(&a).unwrap();
        assert!(aa.im.abs() < 1e-12);
        assert!((aa.re - a.norm() * a.norm()).abs() < 1e-10);
    }

    #[test]
    fn outer_product_shape_and_values() {
        let a = Tensor::from_real(&[2], &[1.0, 2.0]).unwrap();
        let b = Tensor::from_real(&[3], &[3.0, 4.0, 5.0]).unwrap();
        let o = a.outer(&b);
        assert_eq!(o.shape(), &[2, 3]);
        assert_eq!(o.get(&[1, 2]), c64(10.0, 0.0));
    }

    #[test]
    fn select_fixes_an_axis() {
        let t = Tensor::from_real(&[2, 2, 2], &[0., 1., 2., 3., 4., 5., 6., 7.]).unwrap();
        let s = t.select(1, 1).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.get(&[0, 0]), c64(2.0, 0.0));
        assert_eq!(s.get(&[1, 1]), c64(7.0, 0.0));
        assert!(t.select(3, 0).is_err());
        assert!(t.select(1, 2).is_err());
    }

    #[test]
    fn select_is_plain_index_arithmetic_on_every_axis() {
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..60 {
            let rank = 1 + case % 6;
            // Dimension-1 axes (leading and trailing ones included) turn up
            // in a third of the draws.
            let shape: Vec<usize> = (0..rank).map(|_| rng.gen_range(1..4usize)).collect();
            let t = if case % 2 == 0 {
                Tensor::random(&shape, &mut rng)
            } else {
                Tensor::random_real(&shape, &mut rng)
            };
            for axis in 0..rank {
                for index in 0..shape[axis] {
                    let s = t.select(axis, index).unwrap();
                    let mut want_shape = shape.clone();
                    want_shape.remove(axis);
                    assert_eq!(s.shape(), &want_shape[..]);
                    assert_eq!(s.is_real(), t.is_real());
                    for (offset, &value) in s.data().iter().enumerate() {
                        let mut at = unravel(offset, s.shape());
                        at.insert(axis, index);
                        assert_eq!(value, t.get(&at), "{shape:?} axis {axis} index {index}");
                    }
                }
                let err = t.select(axis, shape[axis]).unwrap_err();
                assert_eq!(err.kind(), koala_error::ErrorKind::InvalidArgument);
            }
            let err = t.select(rank, 0).unwrap_err();
            assert_eq!(err.kind(), koala_error::ErrorKind::InvalidArgument);
        }
    }

    #[test]
    fn expand_dims_adds_singleton() {
        let t = Tensor::from_real(&[2, 3], &[1., 2., 3., 4., 5., 6.]).unwrap();
        let e = t.expand_dims(1);
        assert_eq!(e.shape(), &[2, 1, 3]);
        assert_eq!(e.get(&[1, 0, 2]), c64(6.0, 0.0));
    }

    #[test]
    fn eye_and_matrix_conversion() {
        let t = Tensor::eye(3);
        assert_eq!(t.get(&[1, 1]), C64::ONE);
        assert_eq!(t.get(&[1, 2]), C64::ZERO);
        let m = t.to_matrix_2d();
        assert!(m.approx_eq(&Matrix::identity(3), 0.0));
    }
}

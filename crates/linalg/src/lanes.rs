//! Split-plane column storage and the vector kernels of the factorizations.
//!
//! [`qr`](crate::qr::qr), [`orthonormalize`](crate::qr::orthonormalize) and
//! [`svd`](crate::svd::svd) do their `O(m k^2)` work column against column:
//! the projections of Gram-Schmidt and the pair rotations of one-sided
//! Jacobi. Written over array-of-structs [`C64`] columns with
//! order-preserving sums, those loops stay scalar: LLVM does not vectorize
//! them. So the factorizations hold their columns in one [`Cols`] buffer and
//! run them through the five kernels of [`Lanes`] on 8-lane vectors.
//!
//! # Storage
//!
//! [`Cols`] is one contiguous, column-major buffer of `f64`. Each column is
//! split into planes: `f64` columns have one plane, [`C64`] columns a real
//! plane followed by an imaginary plane. Each plane is zero-padded to a
//! multiple of [`LANES`], so every kernel runs on whole vectors with no
//! remainder loop, and the padding lanes contribute exact zeros to every
//! sum.
//!
//! One more rule keeps the columns off the 4 KiB alias. Tensor-network
//! dimensions are powers of two, and so are many column lengths: an
//! interior site of a bond-8 PEPS matricizes to 512 x 16 for its QR, and a
//! 512-entry complex column is 8 KiB long, its planes 4 KiB apart. Then
//! entry `i` of every column and plane maps to the same L1 sets, and the
//! loads of one column alias the stores to another on the 4 KiB
//! store-forwarding check (which compares only the low 12 address bits),
//! so every Gram-Schmidt projection and every Jacobi rotation waits on a
//! false dependence. Complex `qr` of 512 x 16 took 2.4x as long as that of
//! 640 x 16 (AMD EPYC, AVX-512F). So wherever the column stride, all
//! planes included, would be a nonzero multiple of 4 KiB, each plane gets
//! one more zero chunk of [`LANES`]. The rule is keyed on the stride, not
//! on the plane: a 256-entry complex column has 2 KiB planes but a 4 KiB
//! stride, and aliases column to column all the same. It pads nothing
//! else, since every extra lane is work for the kernels. The extra lanes
//! are zeros like the others, so results are bit for bit those of the
//! unpadded layout.
//!
//! # Kernels
//!
//! Per scalar: `dotc` (`x^H y`), `axpy` (`y += a x`), `norm_sqr` (`|x|^2`),
//! `pair` (`|x|^2`, `|y|^2` and `x^H y` in one pass) and `rotate` (the
//! 2-column Jacobi update). Each sum runs one accumulator vector per
//! product term (so a complex `x^H y` keeps four independent FMA chains),
//! adds the terms lane by lane, and ends in one fixed horizontal-reduction
//! tree over the 8 lanes.
//!
//! `dotc` and `axpy` also have row-offset entry points, `dotc_from` and
//! `axpy_from`, for the Householder reflectors of the leading SVD route: a
//! reflector's vector is zero above its first row, so the kernels start at
//! that row rounded down to a multiple of [`LANES`], on whole vectors of
//! each plane. They are the same kernels on a tail of the planes, on either
//! path below.
//!
//! # Two implementations, one set of bits
//!
//! As for the GEMM microkernels ([`crate::microkernel`]), each kernel exists
//! twice and the build picks one at compile time: AVX-512F intrinsics when
//! the target has `avx512f`, portable `f64` lane loops everywhere else. The
//! portable kernels are also the test oracle of the intrinsic ones.
//!
//! **Bit-identity contract.** Per lane, the intrinsic kernels run exactly the
//! portable kernels' sequence of multiplies, fused multiply-adds and adds in
//! the same order, and both finish with the same reduction tree, written out
//! in each module. `avx512f` implies `fma`, so the portable kernels fuse too.
//! The two paths therefore give the same bits for every input, signed zeros,
//! subnormals and infinities included (NaN payloads aside), and one recorded
//! table of factorization digests holds on both. The
//! `simd_kernels_are_bit_identical_to_the_portable_ones` test below pins it
//! in AVX-512F builds, the only ones that have both paths.

use crate::matrix::Matrix;
use crate::scalar::{c64, Scalar, C64};
use std::marker::PhantomData;

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
use avx512 as kernels;
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
use portable as kernels;

/// `f64` lanes per vector; every plane of a [`Cols`] column is padded to a
/// multiple of it.
pub(crate) const LANES: usize = 8;

/// `f64`s in 4 KiB: no [`Cols`] stride is a multiple of it (see the module
/// doc, "Storage").
const ALIAS_F64S: usize = 4096 / std::mem::size_of::<f64>();

/// `f64`s per plane of a column of `len` entries held in `planes` planes:
/// `len` rounded up to [`LANES`], plus one chunk of [`LANES`] where the
/// column stride would otherwise be a nonzero multiple of 4 KiB.
fn plane_len(len: usize, planes: usize) -> usize {
    let plane = len.div_ceil(LANES) * LANES;
    if plane > 0 && (planes * plane).is_multiple_of(ALIAS_F64S) {
        plane + LANES
    } else {
        plane
    }
}

/// A factorization scalar whose columns live in a [`Cols`] buffer, with the
/// five vector kernels over such columns.
///
/// A column argument is one whole column of a [`Cols`]: `PLANES` planes of
/// equal, 8-lane-padded length. Two columns passed together have the same
/// length.
pub(crate) trait Lanes: Scalar {
    /// Planes per column: one for `f64`, real then imaginary for [`C64`].
    const PLANES: usize;
    /// Entry `i` of a column.
    fn read(col: &[f64], i: usize) -> Self;
    /// Overwrite entry `i` of a column.
    fn write(col: &mut [f64], i: usize, v: Self);
    /// `x^H y`.
    #[inline(always)]
    fn dotc(x: &[f64], y: &[f64]) -> Self {
        Self::dotc_from(x, y, 0)
    }
    /// `y += a x`.
    #[inline(always)]
    fn axpy(a: Self, x: &[f64], y: &mut [f64]) {
        Self::axpy_from(a, x, y, 0)
    }
    /// [`Lanes::dotc`] over the rows from `row` down, for an `x` that is
    /// zero above `row`: the kernel starts at `row` rounded down to a
    /// multiple of [`LANES`], so the sum is the whole column's.
    fn dotc_from(x: &[f64], y: &[f64], row: usize) -> Self;
    /// [`Lanes::axpy`] over the rows from `row` down, rounded as in
    /// [`Lanes::dotc_from`]: for an `x` that is zero above `row`, the whole
    /// column's update.
    fn axpy_from(a: Self, x: &[f64], y: &mut [f64], row: usize);
    /// `|x|^2` (the `norm_sqr` kernel; named apart from
    /// [`Scalar::norm_sqr`], the modulus of one entry).
    fn col_norm_sqr(x: &[f64]) -> f64;
    /// `(|x|^2, |y|^2, x^H y)` in one pass over both columns.
    fn pair(x: &[f64], y: &[f64]) -> (f64, f64, Self);
    /// The 2-column Jacobi update `[x, y] <- [x, y] [[c, s], [jqp, jqq]]`.
    fn rotate(x: &mut [f64], y: &mut [f64], c: f64, s: f64, jqp: Self, jqq: Self);
}

impl Lanes for f64 {
    const PLANES: usize = 1;
    #[inline(always)]
    fn read(col: &[f64], i: usize) -> Self {
        col[i]
    }
    #[inline(always)]
    fn write(col: &mut [f64], i: usize, v: Self) {
        col[i] = v;
    }
    #[inline(always)]
    fn dotc_from(x: &[f64], y: &[f64], row: usize) -> Self {
        let at = lane_floor(row);
        kernels::real::dot(&x[at..], &y[at..])
    }
    #[inline(always)]
    fn axpy_from(a: Self, x: &[f64], y: &mut [f64], row: usize) {
        let at = lane_floor(row);
        kernels::real::axpy(a, &x[at..], &mut y[at..])
    }
    #[inline(always)]
    fn col_norm_sqr(x: &[f64]) -> f64 {
        kernels::real::norm_sqr(x)
    }
    #[inline(always)]
    fn pair(x: &[f64], y: &[f64]) -> (f64, f64, Self) {
        kernels::real::pair(x, y)
    }
    #[inline(always)]
    fn rotate(x: &mut [f64], y: &mut [f64], c: f64, s: f64, jqp: Self, jqq: Self) {
        kernels::real::rotate(x, y, c, s, jqp, jqq)
    }
}

/// `row` rounded down to a multiple of [`LANES`]: where a row-offset kernel
/// starts, on a vector boundary of every plane.
#[inline(always)]
fn lane_floor(row: usize) -> usize {
    row / LANES * LANES
}

/// The real and imaginary planes of a complex column.
#[inline(always)]
fn planes(x: &[f64]) -> [&[f64]; 2] {
    let (re, im) = x.split_at(x.len() / 2);
    [re, im]
}

/// [`planes`], writable.
#[inline(always)]
fn planes_mut(x: &mut [f64]) -> [&mut [f64]; 2] {
    let (re, im) = x.split_at_mut(x.len() / 2);
    [re, im]
}

/// [`planes`] from row `row` down, rounded as in [`Lanes::dotc_from`].
#[inline(always)]
fn planes_from(x: &[f64], row: usize) -> [&[f64]; 2] {
    let (at, [re, im]) = (lane_floor(row), planes(x));
    [&re[at..], &im[at..]]
}

/// [`planes_from`], writable.
#[inline(always)]
fn planes_from_mut(x: &mut [f64], row: usize) -> [&mut [f64]; 2] {
    let (at, [re, im]) = (lane_floor(row), planes_mut(x));
    [&mut re[at..], &mut im[at..]]
}

impl Lanes for C64 {
    const PLANES: usize = 2;
    #[inline(always)]
    fn read(col: &[f64], i: usize) -> Self {
        let [re, im] = planes(col);
        c64(re[i], im[i])
    }
    #[inline(always)]
    fn write(col: &mut [f64], i: usize, v: Self) {
        let [re, im] = planes_mut(col);
        re[i] = v.re;
        im[i] = v.im;
    }
    #[inline(always)]
    fn dotc_from(x: &[f64], y: &[f64], row: usize) -> Self {
        kernels::complex::dotc(planes_from(x, row), planes_from(y, row))
    }
    #[inline(always)]
    fn axpy_from(a: Self, x: &[f64], y: &mut [f64], row: usize) {
        kernels::complex::axpy(a, planes_from(x, row), planes_from_mut(y, row))
    }
    #[inline(always)]
    fn col_norm_sqr(x: &[f64]) -> f64 {
        kernels::complex::norm_sqr(planes(x))
    }
    #[inline(always)]
    fn pair(x: &[f64], y: &[f64]) -> (f64, f64, Self) {
        kernels::complex::pair(planes(x), planes(y))
    }
    #[inline(always)]
    fn rotate(x: &mut [f64], y: &mut [f64], c: f64, s: f64, jqp: Self, jqq: Self) {
        kernels::complex::rotate(planes_mut(x), planes_mut(y), c, s, jqp, jqq)
    }
}

/// Columns of length `len` held as `T`, in one column-major, plane-split,
/// 8-lane-padded buffer (see the module doc).
pub(crate) struct Cols<T> {
    len: usize,
    ncols: usize,
    /// `f64`s per column: `PLANES` times [`plane_len`].
    stride: usize,
    /// Where column 0 starts in `data`: the first 64-byte boundary, so that
    /// every 8-lane vector of every plane sits in one cache line (an
    /// unaligned `zmm` load straddles two and costs about twice as much).
    start: usize,
    data: Vec<f64>,
    scalar: PhantomData<T>,
}

impl<T: Lanes> Cols<T> {
    /// `ncols` zero columns of length `len`.
    pub(crate) fn zeros(len: usize, ncols: usize) -> Self {
        let stride = T::PLANES * plane_len(len, T::PLANES);
        let data = vec![0.0; stride * ncols + LANES - 1];
        let start = data.as_ptr().align_offset(LANES * std::mem::size_of::<f64>()).min(LANES - 1);
        Cols { len, ncols, stride, start, data, scalar: PhantomData }
    }

    /// The columns of `a` or, with `adjoint`, of `a^H`, read straight off
    /// the conjugated rows of `a` so no adjoint is materialised.
    pub(crate) fn from_matrix(a: &Matrix, adjoint: bool) -> Self {
        let (m, n) = a.shape();
        if adjoint {
            let mut cols = Self::zeros(n, m);
            for j in 0..m {
                let col = cols.col_mut(j);
                for (i, &z) in a.row(j).iter().enumerate() {
                    T::write(col, i, T::from_c64(z).conj());
                }
            }
            cols
        } else {
            let mut cols = Self::zeros(m, n);
            for i in 0..m {
                for (j, &z) in a.row(i).iter().enumerate() {
                    T::write(cols.col_mut(j), i, T::from_c64(z));
                }
            }
            cols
        }
    }

    /// The first `ncols` columns as a `len x ncols` matrix gathered into
    /// `out` (cleared first), carrying the realness hint exactly when
    /// `T = f64`. The caller picks where the entries are gathered: [`qr`]
    /// passes a buffer allocated before this one, which a complex matrix
    /// then keeps.
    ///
    /// [`qr`]: crate::qr::qr
    pub(crate) fn to_matrix(&self, ncols: usize, mut out: Vec<T>) -> Matrix {
        out.clear();
        out.reserve(self.len * ncols);
        for i in 0..self.len {
            out.extend((0..ncols).map(|j| T::read(self.col(j), i)));
        }
        Matrix::from_scalars(self.len, ncols, out)
    }

    /// The adjoint of the first `ncols` columns: the `ncols x len` matrix
    /// whose row `j` is column `j` conjugated, with the hint as in
    /// [`Cols::to_matrix`].
    pub(crate) fn to_adjoint(&self, ncols: usize) -> Matrix {
        let mut out = Vec::with_capacity(ncols * self.len);
        for j in 0..ncols {
            let col = self.col(j);
            out.extend((0..self.len).map(|i| T::read(col, i).conj()));
        }
        Matrix::from_scalars(ncols, self.len, out)
    }

    /// Entries per column.
    pub(crate) fn col_len(&self) -> usize {
        self.len
    }

    /// Number of columns.
    pub(crate) fn ncols(&self) -> usize {
        self.ncols
    }

    /// `f64`s per column in the buffer.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Column `j`.
    pub(crate) fn col(&self, j: usize) -> &[f64] {
        let at = self.start + j * self.stride;
        &self.data[at..at + self.stride]
    }

    /// Column `j`, writable.
    pub(crate) fn col_mut(&mut self, j: usize) -> &mut [f64] {
        let at = self.start + j * self.stride;
        &mut self.data[at..at + self.stride]
    }

    /// Columns `0..j` (column `i` at `i * stride`) and column `j`, writable.
    pub(crate) fn split_col_mut(&mut self, j: usize) -> (&[f64], &mut [f64]) {
        let (before, rest) = self.data[self.start..].split_at_mut(j * self.stride);
        (before, &mut rest[..self.stride])
    }

    /// Two disjoint blocks of `width` adjacent columns, the ones starting at
    /// columns `p * width` and `q * width` (`p < q`), writable.
    pub(crate) fn blocks_mut(
        &mut self,
        p: usize,
        q: usize,
        width: usize,
    ) -> (&mut [f64], &mut [f64]) {
        assert!(p < q, "blocks_mut: blocks must be distinct and ordered");
        let block = width * self.stride;
        let (lo, hi) = self.data[self.start..].split_at_mut(q * block);
        (&mut lo[p * block..(p + 1) * block], &mut hi[..block])
    }
}

/// The kernels as plain `f64` lane loops: the build's kernels on targets
/// without AVX-512F, and the oracle of the intrinsic kernels' tests.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx512f"))))]
mod portable {
    use super::LANES;
    use crate::microkernel::portable::fmadd;

    type Lane = [f64; LANES];

    /// The reduction tree: halves, then quarters, then the last pair.
    #[inline(always)]
    fn hsum(v: Lane) -> f64 {
        ((v[0] + v[4]) + (v[2] + v[6])) + ((v[1] + v[5]) + (v[3] + v[7]))
    }

    #[inline(always)]
    fn add(a: Lane, b: Lane) -> Lane {
        std::array::from_fn(|l| a[l] + b[l])
    }

    #[inline(always)]
    fn sub(a: Lane, b: Lane) -> Lane {
        std::array::from_fn(|l| a[l] - b[l])
    }

    /// One 8-lane chunk of `x`.
    #[inline(always)]
    fn lane(x: &[f64]) -> Lane {
        std::array::from_fn(|l| x[l])
    }

    /// The 8-lane chunks of a plane.
    #[inline(always)]
    fn chunks(x: &[f64]) -> impl Iterator<Item = Lane> + '_ {
        x.chunks_exact(LANES).map(lane)
    }

    pub(crate) mod real {
        use super::{fmadd, hsum, lane, Lane, LANES};

        pub(crate) fn dot(x: &[f64], y: &[f64]) -> f64 {
            let mut acc: Lane = [0.0; LANES];
            for (x, y) in x.chunks_exact(LANES).zip(y.chunks_exact(LANES)) {
                let (x, y) = (lane(x), lane(y));
                for l in 0..LANES {
                    acc[l] = fmadd(x[l], y[l], acc[l]);
                }
            }
            hsum(acc)
        }

        pub(crate) fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
            for (x, y) in x.chunks_exact(LANES).zip(y.chunks_exact_mut(LANES)) {
                for l in 0..LANES {
                    y[l] = fmadd(a, x[l], y[l]);
                }
            }
        }

        pub(crate) fn norm_sqr(x: &[f64]) -> f64 {
            dot(x, x)
        }

        pub(crate) fn pair(x: &[f64], y: &[f64]) -> (f64, f64, f64) {
            let (mut xx, mut yy, mut xy): (Lane, Lane, Lane) =
                ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
            for (x, y) in x.chunks_exact(LANES).zip(y.chunks_exact(LANES)) {
                let (x, y) = (lane(x), lane(y));
                for l in 0..LANES {
                    xx[l] = fmadd(x[l], x[l], xx[l]);
                    yy[l] = fmadd(y[l], y[l], yy[l]);
                    xy[l] = fmadd(x[l], y[l], xy[l]);
                }
            }
            (hsum(xx), hsum(yy), hsum(xy))
        }

        pub(crate) fn rotate(x: &mut [f64], y: &mut [f64], c: f64, s: f64, jqp: f64, jqq: f64) {
            for (x, y) in x.chunks_exact_mut(LANES).zip(y.chunks_exact_mut(LANES)) {
                for l in 0..LANES {
                    let (xl, yl) = (x[l], y[l]);
                    x[l] = fmadd(yl, jqp, xl * c);
                    y[l] = fmadd(yl, jqq, xl * s);
                }
            }
        }
    }

    pub(crate) mod complex {
        use super::{add, chunks, fmadd, hsum, sub, Lane, LANES};
        use crate::scalar::{c64, C64};

        pub(crate) fn dotc(x: [&[f64]; 2], y: [&[f64]; 2]) -> C64 {
            let [mut rr, mut ii, mut ri, mut ir]: [Lane; 4] = [[0.0; LANES]; 4];
            for (((xr, xi), yr), yi) in
                chunks(x[0]).zip(chunks(x[1])).zip(chunks(y[0])).zip(chunks(y[1]))
            {
                for l in 0..LANES {
                    rr[l] = fmadd(xr[l], yr[l], rr[l]);
                    ii[l] = fmadd(xi[l], yi[l], ii[l]);
                    ri[l] = fmadd(xr[l], yi[l], ri[l]);
                    ir[l] = fmadd(xi[l], yr[l], ir[l]);
                }
            }
            c64(hsum(add(rr, ii)), hsum(sub(ri, ir)))
        }

        pub(crate) fn axpy(a: C64, x: [&[f64]; 2], y: [&mut [f64]; 2]) {
            let [yr, yi] = y;
            let xs = x[0].chunks_exact(LANES).zip(x[1].chunks_exact(LANES));
            let ys = yr.chunks_exact_mut(LANES).zip(yi.chunks_exact_mut(LANES));
            for ((xr, xi), (yr, yi)) in xs.zip(ys) {
                for l in 0..LANES {
                    yr[l] = fmadd(a.re, xr[l], yr[l]);
                    yr[l] = fmadd(-a.im, xi[l], yr[l]);
                    yi[l] = fmadd(a.re, xi[l], yi[l]);
                    yi[l] = fmadd(a.im, xr[l], yi[l]);
                }
            }
        }

        pub(crate) fn norm_sqr(x: [&[f64]; 2]) -> f64 {
            let [mut rr, mut ii]: [Lane; 2] = [[0.0; LANES]; 2];
            for (xr, xi) in x[0].chunks_exact(LANES).zip(x[1].chunks_exact(LANES)) {
                for l in 0..LANES {
                    rr[l] = fmadd(xr[l], xr[l], rr[l]);
                    ii[l] = fmadd(xi[l], xi[l], ii[l]);
                }
            }
            hsum(add(rr, ii))
        }

        pub(crate) fn pair(x: [&[f64]; 2], y: [&[f64]; 2]) -> (f64, f64, C64) {
            let [mut xrr, mut xii, mut yrr, mut yii, mut rr, mut ii, mut ri, mut ir]: [Lane; 8] =
                [[0.0; LANES]; 8];
            for (((xr, xi), yr), yi) in
                chunks(x[0]).zip(chunks(x[1])).zip(chunks(y[0])).zip(chunks(y[1]))
            {
                for l in 0..LANES {
                    xrr[l] = fmadd(xr[l], xr[l], xrr[l]);
                    xii[l] = fmadd(xi[l], xi[l], xii[l]);
                    yrr[l] = fmadd(yr[l], yr[l], yrr[l]);
                    yii[l] = fmadd(yi[l], yi[l], yii[l]);
                    rr[l] = fmadd(xr[l], yr[l], rr[l]);
                    ii[l] = fmadd(xi[l], yi[l], ii[l]);
                    ri[l] = fmadd(xr[l], yi[l], ri[l]);
                    ir[l] = fmadd(xi[l], yr[l], ir[l]);
                }
            }
            let dot = c64(hsum(add(rr, ii)), hsum(sub(ri, ir)));
            (hsum(add(xrr, xii)), hsum(add(yrr, yii)), dot)
        }

        pub(crate) fn rotate(
            x: [&mut [f64]; 2],
            y: [&mut [f64]; 2],
            c: f64,
            s: f64,
            jqp: C64,
            jqq: C64,
        ) {
            let [xr, xi] = x;
            let [yr, yi] = y;
            let xs = xr.chunks_exact_mut(LANES).zip(xi.chunks_exact_mut(LANES));
            let ys = yr.chunks_exact_mut(LANES).zip(yi.chunks_exact_mut(LANES));
            for ((xr, xi), (yr, yi)) in xs.zip(ys) {
                for l in 0..LANES {
                    let (ar, ai, br, bi) = (xr[l], xi[l], yr[l], yi[l]);
                    xr[l] = fmadd(-bi, jqp.im, fmadd(br, jqp.re, ar * c));
                    xi[l] = fmadd(br, jqp.im, fmadd(bi, jqp.re, ai * c));
                    yr[l] = fmadd(-bi, jqq.im, fmadd(br, jqq.re, ar * s));
                    yi[l] = fmadd(br, jqq.im, fmadd(bi, jqq.re, ai * s));
                }
            }
        }
    }
}

/// The kernels in AVX-512F intrinsics: one `zmm` register per 8-lane chunk,
/// each lane running the portable kernels' sequence. The load, store, splat
/// and FMA wrappers are the GEMM microkernels'; `mul`, `add` and `sub` are
/// added here.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod avx512 {
    use crate::microkernel::avx512::{fmadd, fnmadd, load, splat, store, LANES};
    use core::arch::x86_64::{__m512d, _mm512_add_pd, _mm512_mul_pd, _mm512_sub_pd};

    const _: () = assert!(LANES == super::LANES);

    /// `a * b` per lane.
    #[inline(always)]
    fn mul(a: __m512d, b: __m512d) -> __m512d {
        // SAFETY: this module is compiled only with `avx512f` enabled.
        unsafe { _mm512_mul_pd(a, b) }
    }

    /// `a + b` per lane.
    #[inline(always)]
    fn add(a: __m512d, b: __m512d) -> __m512d {
        // SAFETY: this module is compiled only with `avx512f` enabled.
        unsafe { _mm512_add_pd(a, b) }
    }

    /// `a - b` per lane.
    #[inline(always)]
    fn sub(a: __m512d, b: __m512d) -> __m512d {
        // SAFETY: this module is compiled only with `avx512f` enabled.
        unsafe { _mm512_sub_pd(a, b) }
    }

    /// The 8-lane chunks of a plane, loaded.
    #[inline(always)]
    fn chunks(x: &[f64]) -> impl Iterator<Item = __m512d> + '_ {
        x.chunks_exact(LANES).map(load)
    }

    /// The reduction tree: halves, then quarters, then the last pair.
    #[inline(always)]
    fn hsum(v: __m512d) -> f64 {
        let mut v8 = [0.0; LANES];
        store(v, &mut v8);
        ((v8[0] + v8[4]) + (v8[2] + v8[6])) + ((v8[1] + v8[5]) + (v8[3] + v8[7]))
    }

    pub(crate) mod real {
        use super::{fmadd, hsum, load, mul, splat, store, LANES};

        pub(crate) fn dot(x: &[f64], y: &[f64]) -> f64 {
            let mut acc = splat(0.0);
            for (x, y) in x.chunks_exact(LANES).zip(y.chunks_exact(LANES)) {
                acc = fmadd(load(x), load(y), acc);
            }
            hsum(acc)
        }

        pub(crate) fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
            let a = splat(a);
            for (x, y) in x.chunks_exact(LANES).zip(y.chunks_exact_mut(LANES)) {
                store(fmadd(a, load(x), load(y)), y);
            }
        }

        pub(crate) fn norm_sqr(x: &[f64]) -> f64 {
            dot(x, x)
        }

        pub(crate) fn pair(x: &[f64], y: &[f64]) -> (f64, f64, f64) {
            let (mut xx, mut yy, mut xy) = (splat(0.0), splat(0.0), splat(0.0));
            for (x, y) in x.chunks_exact(LANES).zip(y.chunks_exact(LANES)) {
                let (x, y) = (load(x), load(y));
                xx = fmadd(x, x, xx);
                yy = fmadd(y, y, yy);
                xy = fmadd(x, y, xy);
            }
            (hsum(xx), hsum(yy), hsum(xy))
        }

        pub(crate) fn rotate(x: &mut [f64], y: &mut [f64], c: f64, s: f64, jqp: f64, jqq: f64) {
            let (c, s, jqp, jqq) = (splat(c), splat(s), splat(jqp), splat(jqq));
            for (x, y) in x.chunks_exact_mut(LANES).zip(y.chunks_exact_mut(LANES)) {
                let (xl, yl) = (load(x), load(y));
                store(fmadd(yl, jqp, mul(xl, c)), x);
                store(fmadd(yl, jqq, mul(xl, s)), y);
            }
        }
    }

    pub(crate) mod complex {
        use super::{add, chunks, fmadd, fnmadd, hsum, load, mul, splat, store, sub, LANES};
        use crate::scalar::{c64, C64};

        pub(crate) fn dotc(x: [&[f64]; 2], y: [&[f64]; 2]) -> C64 {
            let [mut rr, mut ii, mut ri, mut ir] = [splat(0.0); 4];
            for (((xr, xi), yr), yi) in
                chunks(x[0]).zip(chunks(x[1])).zip(chunks(y[0])).zip(chunks(y[1]))
            {
                rr = fmadd(xr, yr, rr);
                ii = fmadd(xi, yi, ii);
                ri = fmadd(xr, yi, ri);
                ir = fmadd(xi, yr, ir);
            }
            c64(hsum(add(rr, ii)), hsum(sub(ri, ir)))
        }

        pub(crate) fn axpy(a: C64, x: [&[f64]; 2], y: [&mut [f64]; 2]) {
            let (ar, ai) = (splat(a.re), splat(a.im));
            let [yr, yi] = y;
            let xs = x[0].chunks_exact(LANES).zip(x[1].chunks_exact(LANES));
            let ys = yr.chunks_exact_mut(LANES).zip(yi.chunks_exact_mut(LANES));
            for ((xr, xi), (yr, yi)) in xs.zip(ys) {
                let (xr, xi) = (load(xr), load(xi));
                store(fnmadd(ai, xi, fmadd(ar, xr, load(yr))), yr);
                store(fmadd(ai, xr, fmadd(ar, xi, load(yi))), yi);
            }
        }

        pub(crate) fn norm_sqr(x: [&[f64]; 2]) -> f64 {
            let [mut rr, mut ii] = [splat(0.0); 2];
            for (xr, xi) in x[0].chunks_exact(LANES).zip(x[1].chunks_exact(LANES)) {
                let (xr, xi) = (load(xr), load(xi));
                rr = fmadd(xr, xr, rr);
                ii = fmadd(xi, xi, ii);
            }
            hsum(add(rr, ii))
        }

        pub(crate) fn pair(x: [&[f64]; 2], y: [&[f64]; 2]) -> (f64, f64, C64) {
            let [mut xrr, mut xii, mut yrr, mut yii, mut rr, mut ii, mut ri, mut ir] =
                [splat(0.0); 8];
            for (((xr, xi), yr), yi) in
                chunks(x[0]).zip(chunks(x[1])).zip(chunks(y[0])).zip(chunks(y[1]))
            {
                xrr = fmadd(xr, xr, xrr);
                xii = fmadd(xi, xi, xii);
                yrr = fmadd(yr, yr, yrr);
                yii = fmadd(yi, yi, yii);
                rr = fmadd(xr, yr, rr);
                ii = fmadd(xi, yi, ii);
                ri = fmadd(xr, yi, ri);
                ir = fmadd(xi, yr, ir);
            }
            let dot = c64(hsum(add(rr, ii)), hsum(sub(ri, ir)));
            (hsum(add(xrr, xii)), hsum(add(yrr, yii)), dot)
        }

        pub(crate) fn rotate(
            x: [&mut [f64]; 2],
            y: [&mut [f64]; 2],
            c: f64,
            s: f64,
            jqp: C64,
            jqq: C64,
        ) {
            let (c, s) = (splat(c), splat(s));
            let (pr, pi, qr, qi) = (splat(jqp.re), splat(jqp.im), splat(jqq.re), splat(jqq.im));
            let [xr, xi] = x;
            let [yr, yi] = y;
            let xs = xr.chunks_exact_mut(LANES).zip(xi.chunks_exact_mut(LANES));
            let ys = yr.chunks_exact_mut(LANES).zip(yi.chunks_exact_mut(LANES));
            for ((xr, xi), (yr, yi)) in xs.zip(ys) {
                let (ar, ai, br, bi) = (load(xr), load(xi), load(yr), load(yi));
                store(fnmadd(bi, pi, fmadd(br, pr, mul(ar, c))), xr);
                store(fmadd(br, pi, fmadd(bi, pr, mul(ai, c))), xi);
                store(fnmadd(bi, qi, fmadd(br, qr, mul(ar, s))), yr);
                store(fmadd(br, qi, fmadd(bi, qr, mul(ai, s))), yi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cols_hold_matrix_columns_and_zero_padding() {
        let mut rng = StdRng::seed_from_u64(35);
        let a = Matrix::random(5, 11, &mut rng);
        for adjoint in [false, true] {
            let want = if adjoint { a.adjoint() } else { a.clone() };
            let cols = Cols::<C64>::from_matrix(&a, adjoint);
            assert_eq!((cols.col_len(), cols.ncols()), want.shape());
            assert_eq!(cols.stride(), 2 * want.nrows().div_ceil(LANES) * LANES);
            assert_eq!(cols.to_matrix(want.ncols(), Vec::new()), want);
            for j in 0..cols.ncols() {
                let [re, im] = planes(cols.col(j));
                assert!(re[want.nrows()..].iter().chain(&im[want.nrows()..]).all(|&x| x == 0.0));
            }
        }
        let a = Matrix::random_real(9, 3, &mut rng);
        let cols = Cols::<f64>::from_matrix(&a, false);
        assert_eq!(cols.stride(), 16);
        let back = cols.to_matrix(3, Vec::new());
        assert!(back.is_real());
        assert_eq!(back, a);
        // 256 complex entries would make a 4 KiB stride: each plane takes
        // one more chunk, and it holds zeros too.
        let a = Matrix::random(256, 3, &mut rng);
        let cols = Cols::<C64>::from_matrix(&a, false);
        assert_eq!(cols.stride(), 2 * (256 + LANES));
        assert_eq!(cols.to_matrix(3, Vec::new()), a);
        for j in 0..3 {
            let [re, im] = planes(cols.col(j));
            assert!(re[256..].iter().chain(&im[256..]).all(|&x| x == 0.0));
        }
    }

    /// For every column length up to 4096: no stride is a multiple of
    /// 4 KiB, a stride that is not one without the extra chunk gets none,
    /// and the padding lanes of every plane stay zero through the writing
    /// kernels.
    fn check_layout<T: Lanes>(one: T) {
        for len in 1..=4096usize {
            let rounded = T::PLANES * len.div_ceil(LANES) * LANES;
            let mut cols = Cols::<T>::zeros(len, 2);
            let stride = cols.stride();
            assert!(!stride.is_multiple_of(ALIAS_F64S), "len {len}");
            if rounded.is_multiple_of(ALIAS_F64S) {
                assert_eq!(stride, rounded + T::PLANES * LANES, "len {len}");
            } else {
                assert_eq!(stride, rounded, "len {len}");
            }
            for i in 0..len {
                T::write(cols.col_mut(0), i, one);
                T::write(cols.col_mut(1), i, one + one);
            }
            let (x, y) = cols.blocks_mut(0, 1, 1);
            T::axpy(one, x, y);
            T::rotate(x, y, 0.6, 0.8, one, one);
            for j in 0..2 {
                let col = cols.col(j);
                for plane in col.chunks_exact(stride / T::PLANES) {
                    assert!(plane[len..].iter().all(|&x| x == 0.0), "len {len}");
                }
            }
        }
    }

    #[test]
    fn no_column_stride_is_a_multiple_of_4_kib() {
        check_layout::<f64>(1.0);
        check_layout::<C64>(c64(1.0, -1.0));
    }

    /// A column of `T` holding `vals`.
    fn column<T: Lanes>(vals: &[T]) -> Vec<f64> {
        let mut cols = Cols::<T>::zeros(vals.len(), 1);
        vals.iter().enumerate().for_each(|(i, &v)| T::write(cols.col_mut(0), i, v));
        cols.col(0).to_vec()
    }

    fn entries<T: Lanes>(col: &[f64], len: usize) -> Vec<T> {
        (0..len).map(|i| T::read(col, i)).collect()
    }

    /// Each kernel of one scalar against its definition over `T`.
    fn check_kernels<T: Lanes>(draw: impl Fn(&mut StdRng) -> T) {
        let mut rng = StdRng::seed_from_u64(36);
        for len in [0, 1, 7, 8, 9, 33] {
            let x: Vec<T> = (0..len).map(|_| draw(&mut rng)).collect();
            let y: Vec<T> = (0..len).map(|_| draw(&mut rng)).collect();
            let (cx, cy) = (column(&x), column(&y));
            let dot: T = x.iter().zip(&y).map(|(a, b)| a.conj() * *b).sum();
            let nx: f64 = x.iter().map(|a| a.norm_sqr()).sum();
            let ny: f64 = y.iter().map(|a| a.norm_sqr()).sum();
            let close = |a: T, b: T| (a + -b).abs() <= 1e-13 * (1.0 + b.abs());
            assert!(close(T::dotc(&cx, &cy), dot), "dotc at {len}");
            assert!((T::col_norm_sqr(&cx) - nx).abs() <= 1e-13 * (1.0 + nx), "norm_sqr at {len}");
            let (px, py, pd) = T::pair(&cx, &cy);
            assert!((px - nx).abs() <= 1e-13 * (1.0 + nx), "pair |x|^2 at {len}");
            assert!((py - ny).abs() <= 1e-13 * (1.0 + ny), "pair |y|^2 at {len}");
            assert!(close(pd, dot), "pair x^H y at {len}");

            let a = draw(&mut rng);
            let mut out = cy.clone();
            T::axpy(a, &cx, &mut out);
            for (i, got) in entries::<T>(&out, len).into_iter().enumerate() {
                assert!(close(got, y[i] + a * x[i]), "axpy at {len}");
            }

            let (c, s, jqp, jqq) = (0.6, 0.8, draw(&mut rng), draw(&mut rng));
            let (mut rx, mut ry) = (cx.clone(), cy.clone());
            T::rotate(&mut rx, &mut ry, c, s, jqp, jqq);
            let (rx, ry) = (entries::<T>(&rx, len), entries::<T>(&ry, len));
            for i in 0..len {
                assert!(close(rx[i], x[i].scale(c) + y[i] * jqp), "rotate x at {len}");
                assert!(close(ry[i], x[i].scale(s) + y[i] * jqq), "rotate y at {len}");
            }
        }
    }

    /// For an `x` that is zero above `row`, the row-offset kernels give the
    /// whole column's bits: the rows they skip add exact zeros.
    fn check_row_offsets<T: Lanes>(draw: impl Fn(&mut StdRng) -> T) {
        let mut rng = StdRng::seed_from_u64(37);
        for len in [9, 33, 64] {
            for row in [0, 3, 8, 13, len - 1] {
                let x: Vec<T> =
                    (0..len).map(|i| if i < row { T::ZERO } else { draw(&mut rng) }).collect();
                let y: Vec<T> = (0..len).map(|_| draw(&mut rng)).collect();
                let (cx, cy) = (column(&x), column(&y));
                let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let (whole, from) = (T::dotc(&cx, &cy), T::dotc_from(&cx, &cy, row));
                assert_eq!(bits(&column(&[whole])), bits(&column(&[from])), "dotc at {len}, {row}");
                let a = draw(&mut rng);
                let (mut whole, mut from) = (cy.clone(), cy.clone());
                T::axpy(a, &cx, &mut whole);
                T::axpy_from(a, &cx, &mut from, row);
                assert_eq!(bits(&whole), bits(&from), "axpy at {len}, {row}");
            }
        }
    }

    #[test]
    fn row_offset_kernels_skip_only_zero_rows() {
        check_row_offsets::<f64>(|rng| rng.gen_range(-1.0..1.0));
        check_row_offsets::<C64>(|rng| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)));
    }

    #[test]
    fn kernels_match_their_definitions() {
        check_kernels::<f64>(|rng| rng.gen_range(-1.0..1.0));
        check_kernels::<C64>(|rng| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)));
    }
}

/// The intrinsic kernels against the portable ones. Only AVX-512F builds
/// have both; elsewhere the build's kernels *are* the portable ones.
#[cfg(all(test, target_arch = "x86_64", target_feature = "avx512f"))]
mod simd_tests {
    use super::{avx512, portable};
    use crate::scalar::{c64, C64};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Lane values: uniform in `[-2, 2)` times `scale`, with a `special`
    /// fraction replaced by signed zeros, subnormals, infinities and NaN.
    fn plane(len: usize, (scale, special): (f64, f64), rng: &mut StdRng) -> Vec<f64> {
        const SPECIALS: [f64; 8] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 3.0,
            -5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
        ];
        (0..len)
            .map(|_| {
                if rng.gen::<f64>() < special {
                    SPECIALS[rng.gen_range(0..SPECIALS.len())]
                } else {
                    (4.0 * rng.gen::<f64>() - 2.0) * scale
                }
            })
            .collect()
    }

    /// Bit-equal, or NaN on both sides (payloads are not part of the
    /// contract).
    fn same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len());
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what} lane {j}: avx512f {g:e} vs portable {w:e}"
            );
        }
    }

    fn parts(z: C64) -> [f64; 2] {
        [z.re, z.im]
    }

    #[test]
    fn simd_kernels_are_bit_identical_to_the_portable_ones() {
        let mut rng = StdRng::seed_from_u64(35);
        // Plain values, values whose products underflow into subnormals, and
        // lanes sprinkled with signed zeros, subnormals, infinities and NaN.
        let flavours = [(1.0, 0.0), (1e-160, 0.0), (1.0, 0.02), (1.0, 0.25)];
        for len in [0, 8, 16, 344] {
            for flavour in flavours {
                let what = format!("len={len} flavour={flavour:?}");
                let [x, y, xi, yi] = std::array::from_fn(|_| plane(len, flavour, &mut rng));
                let [a, b, c, s, e, f] = std::array::from_fn(|_| plane(1, flavour, &mut rng)[0]);

                // Real kernels.
                let sums = |d: f64, n: f64, p: (f64, f64, f64)| [d, n, p.0, p.1, p.2];
                same_bits(
                    &sums(
                        avx512::real::dot(&x, &y),
                        avx512::real::norm_sqr(&x),
                        avx512::real::pair(&x, &y),
                    ),
                    &sums(
                        portable::real::dot(&x, &y),
                        portable::real::norm_sqr(&x),
                        portable::real::pair(&x, &y),
                    ),
                    &format!("real sums {what}"),
                );
                let (mut got, mut want) = (y.clone(), y.clone());
                avx512::real::axpy(a, &x, &mut got);
                portable::real::axpy(a, &x, &mut want);
                same_bits(&got, &want, &format!("real axpy {what}"));
                let (mut gx, mut gy, mut wx, mut wy) = (x.clone(), y.clone(), x.clone(), y.clone());
                avx512::real::rotate(&mut gx, &mut gy, c, s, e, f);
                portable::real::rotate(&mut wx, &mut wy, c, s, e, f);
                same_bits(&[gx, gy].concat(), &[wx, wy].concat(), &format!("real rotate {what}"));

                // Complex kernels.
                let (px, py) = ([&x[..], &xi[..]], [&y[..], &yi[..]]);
                let sums = |d: C64, n: f64, p: (f64, f64, C64)| {
                    [parts(d), [n, p.0], [p.1, p.2.re], [p.2.im, 0.0]].concat()
                };
                same_bits(
                    &sums(
                        avx512::complex::dotc(px, py),
                        avx512::complex::norm_sqr(px),
                        avx512::complex::pair(px, py),
                    ),
                    &sums(
                        portable::complex::dotc(px, py),
                        portable::complex::norm_sqr(px),
                        portable::complex::pair(px, py),
                    ),
                    &format!("complex sums {what}"),
                );
                let (mut gr, mut gi, mut wr, mut wi) =
                    (y.clone(), yi.clone(), y.clone(), yi.clone());
                avx512::complex::axpy(c64(a, b), px, [&mut gr, &mut gi]);
                portable::complex::axpy(c64(a, b), px, [&mut wr, &mut wi]);
                same_bits(&[gr, gi].concat(), &[wr, wi].concat(), &format!("complex axpy {what}"));
                let mut got = [x.clone(), xi.clone(), y.clone(), yi.clone()];
                let mut want = got.clone();
                let (jqp, jqq) = (c64(e, f), c64(b, a));
                let [gxr, gxi, gyr, gyi] = &mut got;
                avx512::complex::rotate([gxr, gxi], [gyr, gyi], c, s, jqp, jqq);
                let [wxr, wxi, wyr, wyi] = &mut want;
                portable::complex::rotate([wxr, wxi], [wyr, wyi], c, s, jqp, jqq);
                same_bits(&got.concat(), &want.concat(), &format!("complex rotate {what}"));
            }
        }
    }
}

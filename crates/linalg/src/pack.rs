//! Operand packing for the blocked GEMM, with transposition fused in.
//!
//! A cache block of each operand is repacked into panels laid out exactly as
//! the microkernel consumes them (see [`crate::microkernel`]). Two panel
//! formats exist:
//!
//! * **Split-complex** ([`pack_a`] / [`pack_b`]): A blocks become a sequence
//!   of `MR`-row strips, B blocks a sequence of `NR`-column strips, each strip
//!   storing, per depth index, the strip's real parts followed by its
//!   imaginary parts.
//! * **Real-only** ([`pack_a_real`] / [`pack_b_real`]): the `f64`-panel
//!   variant used when the caller asserts both operands are real (via the
//!   [`Matrix::is_real`](crate::matrix::Matrix::is_real) hint). Only the real
//!   parts are gathered — half the packing traffic and half the panel
//!   footprint of the split-complex format — and the strips are sized for
//!   the wider `MR_REAL x NR_REAL = 8 x 16` real register tile
//!   ([`crate::microkernel::microkernel_real_wide`]).
//!
//! Crucially, the *effective* operand is gathered element-by-element here, so
//! [`Op::Transpose`] and [`Op::Adjoint`] (and any conjugation) cost nothing
//! beyond a different read stride during packing — the old code path that
//! materialised a full transposed copy of the operand is gone. The same holds
//! for the real-only packers: no complex (or transposed) copy of a real
//! operand is ever materialised, a property pinned down by
//! `linalg/tests/alloc.rs`.

use crate::gemm::Op;
use crate::microkernel::{MR, MR_REAL, NR, NR_REAL};
use crate::scalar::C64;

/// Read element `(i, p)` of the effective left operand.
///
/// For `Op::None` the stored matrix is `m x k` with row stride `lda`; for
/// `Op::Transpose` / `Op::Adjoint` it is `k x m` and the roles of `i`/`p`
/// swap (with conjugation for the adjoint).
#[inline(always)]
fn read_a(op: Op, a: &[C64], lda: usize, i: usize, p: usize) -> C64 {
    match op {
        Op::None => a[i * lda + p],
        Op::Transpose => a[p * lda + i],
        Op::Adjoint => a[p * lda + i].conj(),
    }
}

/// Read element `(p, j)` of the effective right operand.
#[inline(always)]
fn read_b(op: Op, b: &[C64], ldb: usize, p: usize, j: usize) -> C64 {
    match op {
        Op::None => b[p * ldb + j],
        Op::Transpose => b[j * ldb + p],
        Op::Adjoint => b[j * ldb + p].conj(),
    }
}

/// Number of strips needed to cover `len` rows/columns of panel height `unit`.
#[inline(always)]
pub(crate) fn strips(len: usize, unit: usize) -> usize {
    len.div_ceil(unit)
}

/// Pack the `mc x kc` block of the effective A starting at `(i0, p0)` into
/// `out` as `ceil(mc / MR)` split-complex strips of `kc * 2 * MR` floats each,
/// zero-padding the ragged final strip.
pub(crate) fn pack_a(
    op: Op,
    a: &[C64],
    lda: usize,
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    out: &mut Vec<f64>,
) {
    let n_strips = strips(mc, MR);
    out.clear();
    out.resize(n_strips * kc * 2 * MR, 0.0);
    for s in 0..n_strips {
        let rows = MR.min(mc - s * MR);
        let strip = &mut out[s * kc * 2 * MR..(s + 1) * kc * 2 * MR];
        for p in 0..kc {
            let group = &mut strip[p * 2 * MR..(p + 1) * 2 * MR];
            for r in 0..rows {
                let z = read_a(op, a, lda, i0 + s * MR + r, p0 + p);
                group[r] = z.re;
                group[MR + r] = z.im;
            }
            // Padding rows stay zero from the resize above.
        }
    }
}

/// Pack the `kc x nc` block of the effective B starting at `(p0, j0)` into
/// `out` as `ceil(nc / NR)` split-complex strips of `kc * 2 * NR` floats each,
/// zero-padding the ragged final strip.
pub(crate) fn pack_b(
    op: Op,
    b: &[C64],
    ldb: usize,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    out: &mut Vec<f64>,
) {
    let n_strips = strips(nc, NR);
    out.clear();
    out.resize(n_strips * kc * 2 * NR, 0.0);
    for s in 0..n_strips {
        let cols = NR.min(nc - s * NR);
        let strip = &mut out[s * kc * 2 * NR..(s + 1) * kc * 2 * NR];
        for p in 0..kc {
            let group = &mut strip[p * 2 * NR..(p + 1) * 2 * NR];
            for c in 0..cols {
                let z = read_b(op, b, ldb, p0 + p, j0 + s * NR + c);
                group[c] = z.re;
                group[NR + c] = z.im;
            }
        }
    }
}

/// Pack the `mc x kc` block of the effective A into real-only panels:
/// `ceil(mc / MR_REAL)` strips of `kc * MR_REAL` floats (real parts only),
/// zero-padding the ragged final strip.
///
/// The caller must guarantee the operand is real; the imaginary parts are not
/// even read (for real data `Op::Adjoint` degenerates to `Op::Transpose`, so
/// conjugation is a no-op by assumption).
pub(crate) fn pack_a_real(
    op: Op,
    a: &[C64],
    lda: usize,
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    out: &mut Vec<f64>,
) {
    let n_strips = strips(mc, MR_REAL);
    out.clear();
    out.resize(n_strips * kc * MR_REAL, 0.0);
    for s in 0..n_strips {
        let rows = MR_REAL.min(mc - s * MR_REAL);
        let strip = &mut out[s * kc * MR_REAL..(s + 1) * kc * MR_REAL];
        for p in 0..kc {
            let group = &mut strip[p * MR_REAL..(p + 1) * MR_REAL];
            for r in 0..rows {
                group[r] = read_a(op, a, lda, i0 + s * MR_REAL + r, p0 + p).re;
            }
        }
    }
}

/// Pack the `kc x nc` block of the effective B into real-only panels:
/// `ceil(nc / NR_REAL)` strips of `kc * NR_REAL` floats (real parts only).
/// Same realness contract as [`pack_a_real`].
pub(crate) fn pack_b_real(
    op: Op,
    b: &[C64],
    ldb: usize,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    out: &mut Vec<f64>,
) {
    let n_strips = strips(nc, NR_REAL);
    out.clear();
    out.resize(n_strips * kc * NR_REAL, 0.0);
    for s in 0..n_strips {
        let cols = NR_REAL.min(nc - s * NR_REAL);
        let strip = &mut out[s * kc * NR_REAL..(s + 1) * kc * NR_REAL];
        for p in 0..kc {
            let group = &mut strip[p * NR_REAL..(p + 1) * NR_REAL];
            for c in 0..cols {
                group[c] = read_b(op, b, ldb, p0 + p, j0 + s * NR_REAL + c).re;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::c64;

    fn sample(m: usize, n: usize) -> Vec<C64> {
        (0..m * n).map(|i| c64(i as f64, -(i as f64) * 0.5)).collect()
    }

    fn sample_real(m: usize, n: usize) -> Vec<C64> {
        (0..m * n).map(|i| c64(i as f64 * 0.75 - 3.0, 0.0)).collect()
    }

    #[test]
    fn pack_a_fuses_transpose_and_adjoint() {
        let (m, k) = (5, 3);
        let plain = sample(m, k); // stored m x k
        let stored_t = {
            // stored k x m, so its transpose equals `plain`
            let mut t = vec![C64::ZERO; k * m];
            for i in 0..m {
                for p in 0..k {
                    t[p * m + i] = plain[i * k + p];
                }
            }
            t
        };
        let mut packed_none = Vec::new();
        let mut packed_t = Vec::new();
        let mut packed_h = Vec::new();
        pack_a(Op::None, &plain, k, 0, m, 0, k, &mut packed_none);
        pack_a(Op::Transpose, &stored_t, m, 0, m, 0, k, &mut packed_t);
        let conj_t: Vec<C64> = stored_t.iter().map(|z| z.conj()).collect();
        pack_a(Op::Adjoint, &conj_t, m, 0, m, 0, k, &mut packed_h);
        assert_eq!(packed_none, packed_t);
        assert_eq!(packed_none, packed_h);
        // Padded rows of the ragged final strip are zero.
        let last = strips(m, MR) - 1;
        let strip = &packed_none[last * k * 2 * MR..];
        for p in 0..k {
            for r in (m - last * MR)..MR {
                assert_eq!(strip[p * 2 * MR + r], 0.0);
                assert_eq!(strip[p * 2 * MR + MR + r], 0.0);
            }
        }
    }

    #[test]
    fn pack_b_layout_roundtrip() {
        let (k, n) = (4, 10); // one full strip + one ragged strip
        let b = sample(k, n);
        let mut packed = Vec::new();
        pack_b(Op::None, &b, n, 0, k, 0, n, &mut packed);
        assert_eq!(packed.len(), strips(n, NR) * k * 2 * NR);
        for p in 0..k {
            for j in 0..n {
                let s = j / NR;
                let c = j % NR;
                let group = &packed[s * k * 2 * NR + p * 2 * NR..];
                assert_eq!(group[c], b[p * n + j].re);
                assert_eq!(group[NR + c], b[p * n + j].im);
            }
        }
    }

    #[test]
    fn real_packers_gather_the_effective_operand_in_wide_strips() {
        for op in [Op::None, Op::Transpose, Op::Adjoint] {
            // A side: effective m x k, ragged final strip (m = 11 > MR_REAL).
            let (m, k) = (11, 5);
            let (rows, cols) = if op == Op::None { (m, k) } else { (k, m) };
            let stored = sample_real(rows, cols);
            let mut real_only = Vec::new();
            pack_a_real(op, &stored, cols, 0, m, 0, k, &mut real_only);
            assert_eq!(real_only.len(), strips(m, MR_REAL) * k * MR_REAL);
            for i in 0..m {
                let (s, r) = (i / MR_REAL, i % MR_REAL);
                for p in 0..k {
                    let want = read_a(op, &stored, cols, i, p).re;
                    assert_eq!(real_only[s * k * MR_REAL + p * MR_REAL + r], want);
                }
            }
            // Padding rows of the ragged final strip stay zero.
            let last = strips(m, MR_REAL) - 1;
            for p in 0..k {
                for r in (m - last * MR_REAL)..MR_REAL {
                    assert_eq!(real_only[last * k * MR_REAL + p * MR_REAL + r], 0.0);
                }
            }

            // B side: effective k x n, ragged final strip (n = 18 > NR_REAL).
            let (bk, bn) = (4, 18);
            let (brows, bcols) = if op == Op::None { (bk, bn) } else { (bn, bk) };
            let bstored = sample_real(brows, bcols);
            let mut real_b = Vec::new();
            pack_b_real(op, &bstored, bcols, 0, bk, 0, bn, &mut real_b);
            assert_eq!(real_b.len(), strips(bn, NR_REAL) * bk * NR_REAL);
            for j in 0..bn {
                let (s, c) = (j / NR_REAL, j % NR_REAL);
                for p in 0..bk {
                    let want = read_b(op, &bstored, bcols, p, j).re;
                    assert_eq!(real_b[s * bk * NR_REAL + p * NR_REAL + c], want);
                }
            }
        }
    }
}

//! Packed, blocked complex matrix multiplication.
//!
//! This is the hot kernel of the whole stack: every tensor contraction in
//! `koala-tensor` maps to a single GEMM after index permutation, and the
//! paper's evaluation reports that 60-70% of contraction time is spent in
//! GEMM.
//!
//! # Algorithm
//!
//! The implementation follows the BLIS decomposition:
//!
//! ```text
//! for ic in 0..m step MC            # C row blocks
//!   for jc in 0..n step NC          # C column blocks
//!     for pc in 0..k step KC        # depth blocks
//!       pack B[pc..pc+KC, jc..jc+NC] into NR-column strips   (pack.rs)
//!       pack A[ic..ic+MC, pc..pc+KC] into MR-row strips      (pack.rs)
//!       for jr, ir over the strips:
//!         microkernel: MR x NR register tile += A-strip * B-strip
//! ```
//!
//! * **Packing** ([`crate::pack`]) rearranges each cache block into
//!   *split-complex* panels — per depth index, `MR`/`NR` real parts followed
//!   by the imaginary parts — so the microkernel's inner loops are pure
//!   `f64` lane arithmetic ([`crate::microkernel`]): AVX-512F intrinsics
//!   (one `zmm` per 8-lane row) on targets with `avx512f`, portable loops
//!   that auto-vectorize to AVX2 FMA sequences elsewhere, bit-identical to
//!   each other. The intrinsics are explicit because LLVM left the portable
//!   loops scalar under `znver4`/`znver5` tuning.
//! * **Transposition is fused into packing.** [`Op::Adjoint`] and
//!   [`Op::Transpose`] only change the gather stride (and conjugation sign)
//!   used while packing; no transposed copy of an operand is ever
//!   materialised.
//! * **One product is one serial call.** The tile walk runs on the calling
//!   thread, as a BLAS call does in the paper's stack; the parallel levels
//!   sit above it (the bond updates of a gate list, SUMMA's per-rank
//!   products, served jobs), so concurrent callers never share a product.
//!
//! # Blocking parameters
//!
//! `MR x NR = 6 x 8` register tile (split re/im accumulators = 12 AVX-512
//! registers, leaving room for operand broadcasts); `KC = 256` sizes one
//! packed A strip at 24 KiB and one packed B strip at 32 KiB (L1/L2
//! resident); `MC = 192` sizes the packed A block at 768 KiB for L2;
//! `NC = 512` sizes the packed B block at 2 MiB for L3. Parameters were
//! tuned empirically with `bench_gemm` on an AVX-512 Xeon, where the
//! portable kernels auto-vectorized; they were kept unchanged when the
//! AVX-512 kernels became explicit intrinsics (`BENCH_gemm.json` records the
//! host and kernel of each baseline; the sweep is cheap to re-run if the
//! deployment target changes).
//!
//! # Real-valued fast path
//!
//! The paper's headline workloads (TFI imaginary-time evolution, ground-state
//! PEPS contraction) keep every tensor purely real, so burning the full
//! 8-real-flop complex MAC on operands with identically-zero imaginary planes
//! wastes three quarters of the arithmetic. Two mechanisms route such
//! products onto a real-only microkernel
//! ([`crate::microkernel::microkernel_real`], one FMA per lane per depth
//! step):
//!
//! * **Caller-asserted realness.** [`gemm`] inspects the structural
//!   [`Matrix::is_real`] hints; when both operands carry them it calls
//!   [`gemm_into_real`], which packs `f64`-only panels (half the packing
//!   traffic) consumed by a *wider* `8 x 16` register tile
//!   ([`crate::microkernel::microkernel_real_wide`] — the `6 x 8` complex
//!   tile is dictated by split re/im register pressure the real kernel does
//!   not have) under its own cache blocking (`MC_REAL = 256` vs `MC = 192`:
//!   the halved `f64`-only panels let the row block grow while the packed-A
//!   L2 footprint still *shrinks*, 512 KiB vs 768 KiB), and never touches an
//!   imaginary lane. The output is marked real.
//! * **Per-block detection.** The split-complex packers report whether every
//!   imaginary part in the gathered cache block was exactly zero; when both
//!   blocks of a depth step are real, the real microkernel runs over the real
//!   lanes of the already-packed split-complex panels. This catches real data
//!   whose hint was lost (e.g. buffers built through `from_vec`) at zero
//!   extra memory traffic.
//!
//! Neither path ever materialises a complex (or transposed) copy of a real
//! operand — `linalg/tests/alloc.rs` pins this with a counting allocator.
//!
//! # Flop accounting
//!
//! Work is billed to [`koala_exec::meter::WorkMeter`] handles:
//! `complex_macs` counts **complex multiply-adds** (one `C += A * B` update
//! of complex scalars, 8 real flops: 4 mul + 4 add) executed by the
//! split-complex kernel; `real_macs` counts **real multiply-adds** (2 real
//! flops) executed by the real-only kernel. Total hardware flops are
//! therefore `8 * complex_macs + 2 * real_macs`
//! ([`WorkLedger::hw_flops`](koala_exec::meter::WorkLedger::hw_flops)), which
//! is what `bench_gemm` uses as its GFLOP/s numerator — so the recorded
//! numbers stay honest no matter which kernel dispatch picked. (The Figure 12
//! weak-scaling binary derives its rates from the cluster *cost model*, not
//! these runtime counters; only its 8-flops-per-complex-MAC convention is
//! shared.)
//!
//! Every billing site adds to the process-global meter
//! ([`WorkMeter::global`](koala_exec::meter::WorkMeter::global)) *and* to any
//! [`WorkMeter::scope`](koala_exec::meter::WorkMeter::scope) active on the
//! billing thread — scopes travel with executor tasks, which is what makes
//! per-tenant billing in `koala-serve` exact. The meter additionally tracks
//! **bytes** of GEMM interface traffic (operand reads + output writes, 16
//! bytes per complex element, billed once per product).

use crate::matrix::Matrix;
use crate::microkernel::{
    microkernel, microkernel_real, microkernel_real_wide, AccTile, RealAccTile, RealAccTileWide,
    MR, MR_REAL, NR, NR_REAL,
};
use crate::pack::{pack_a, pack_a_real, pack_b, pack_b_real};
use crate::scalar::C64;
use koala_exec::meter;

/// Cache-blocking tile along the shared (k) dimension.
const KC: usize = 256;
/// Cache-blocking tile along output columns.
const NC: usize = 512;
/// Cache-blocking tile along output rows.
const MC: usize = 192;
/// Real-path cache blocking. The packed panels are `f64`-only (half the
/// footprint of split-complex: the complex packed-A block is
/// `MC * KC * 2 * 8 B = 768 KiB`), so a larger row block still shrinks the
/// L2 footprint (`MC_REAL * KC_REAL * 8 B = 512 KiB`); a packed B strip
/// (`KC_REAL * NR_REAL * 8 B = 32 KiB`) stays L1-resident.
const KC_REAL: usize = 256;
/// Real-path tile along output columns (multiple of `NR_REAL`).
const NC_REAL: usize = 512;
/// Real-path tile along output rows (multiple of `MR_REAL`).
const MC_REAL: usize = 256;
/// How the left/right operand should be read by [`gemm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored.
    None,
    /// Use the conjugate transpose of the operand.
    Adjoint,
    /// Use the (non-conjugated) transpose of the operand.
    Transpose,
}

impl Op {
    /// Shape of the effective operand given the stored shape.
    #[inline]
    pub fn effective_shape(self, stored: (usize, usize)) -> (usize, usize) {
        match self {
            Op::None => stored,
            Op::Adjoint | Op::Transpose => (stored.1, stored.0),
        }
    }
}

/// C = A * B.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    gemm(Op::None, Op::None, a, b)
}

/// C = A^H * B.
pub fn matmul_adj_a(a: &Matrix, b: &Matrix) -> Matrix {
    gemm(Op::Adjoint, Op::None, a, b)
}

/// C = A * B^H.
pub fn matmul_adj_b(a: &Matrix, b: &Matrix) -> Matrix {
    gemm(Op::None, Op::Adjoint, a, b)
}

/// General complex matrix product with optional (conjugate) transposition of
/// either operand. Transposition and conjugation are fused into operand
/// packing — no copy of either operand is materialised.
///
/// When both operands carry the structural [`Matrix::is_real`] hint the
/// product is dispatched to the real-only kernel ([`gemm_into_real`]) and the
/// result is marked real.
pub fn gemm(opa: Op, opb: Op, a: &Matrix, b: &Matrix) -> Matrix {
    let (m, ka) = opa.effective_shape(a.shape());
    let (kb, n) = opb.effective_shape(b.shape());
    assert_eq!(ka, kb, "gemm: inner dimensions do not match ({m}x{ka} * {kb}x{n})");
    let real = a.is_real() && b.is_real();
    let mut c = Matrix::zeros(m, n);
    if real {
        gemm_into_real(opa, opb, m, n, ka, a.data(), b.data(), c.data_mut());
        // The real path writes only real parts into the zeroed buffer.
        c.assume_real();
    } else {
        gemm_into(opa, opb, m, n, ka, a.data(), b.data(), c.data_mut());
    }
    c
}

/// Accumulate `op(A) * op(B)` into `c` (`c += ...`, i.e. BLAS `beta = 1`).
///
/// `a`/`b` are the row-major *stored* operands; `m x k` / `k x n` are the
/// *effective* shapes after applying `opa` / `opb`. This slice-level entry
/// point is what `koala-tensor` uses to contract tensors without going
/// through intermediate `Matrix` copies.
///
/// Cache blocks whose imaginary parts are detected to be identically zero
/// during packing are still executed by the real-only microkernel; callers
/// that can *assert* realness structurally should use [`gemm_into_real`],
/// which also halves the packing traffic.
#[allow(clippy::too_many_arguments)]
pub fn gemm_into(
    opa: Op,
    opb: Op,
    m: usize,
    n: usize,
    k: usize,
    a: &[C64],
    b: &[C64],
    c: &mut [C64],
) {
    gemm_into_dispatch(opa, opb, m, n, k, a, b, c, false);
}

/// [`gemm_into`] for operands the caller guarantees are purely real (every
/// imaginary part exactly zero, `-0.0` included).
///
/// Packs `f64`-only panels and runs the real microkernel throughout — a
/// quarter of the FMAs and half the packing traffic of the split-complex
/// path; only real parts of `c` are updated. The guarantee is verified by a
/// full operand scan under `debug_assertions`; in release builds a wrong
/// claim silently drops imaginary contributions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_into_real(
    opa: Op,
    opb: Op,
    m: usize,
    n: usize,
    k: usize,
    a: &[C64],
    b: &[C64],
    c: &mut [C64],
) {
    debug_assert!(
        a.iter().all(|z| z.im == 0.0),
        "gemm_into_real: left operand has nonzero imaginary parts"
    );
    debug_assert!(
        b.iter().all(|z| z.im == 0.0),
        "gemm_into_real: right operand has nonzero imaginary parts"
    );
    gemm_into_dispatch(opa, opb, m, n, k, a, b, c, true);
}

/// Shared blocked driver behind [`gemm_into`] / [`gemm_into_real`].
/// `assume_real` selects real-only packing; otherwise realness is detected
/// per cache block.
#[allow(clippy::too_many_arguments)]
fn gemm_into_dispatch(
    opa: Op,
    opb: Op,
    m: usize,
    n: usize,
    k: usize,
    a: &[C64],
    b: &[C64],
    c: &mut [C64],
    assume_real: bool,
) {
    assert_eq!(a.len(), m * k, "gemm_into: left operand length");
    assert_eq!(b.len(), k * n, "gemm_into: right operand length");
    assert_eq!(c.len(), m * n, "gemm_into: output length");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Interface traffic of this product — operand reads plus output writes,
    // 16 bytes per complex element. Billed once per product (not per packed
    // panel).
    meter::add_bytes(((m * k + k * n + m * n) as u64) * 16);
    // Row stride of the *stored* operand.
    let lda = if opa == Op::None { k } else { m };
    let ldb = if opb == Op::None { n } else { k };

    // 2-D macro-tile decomposition of C (the real path has its own blocking;
    // see the constants above).
    let (mc_blk, nc_blk) = if assume_real { (MC_REAL, NC_REAL) } else { (MC, NC) };
    for ic in (0..m).step_by(mc_blk) {
        for jc in (0..n).step_by(nc_blk) {
            // SAFETY: `c` is an exclusively borrowed `m * n` buffer (length
            // asserted above) and `(ic, jc)` is a tile origin inside it.
            unsafe {
                if assume_real {
                    compute_tile_real(opa, opb, m, n, k, a, b, lda, ldb, c.as_mut_ptr(), ic, jc)
                } else {
                    compute_tile(opa, opb, m, n, k, a, b, lda, ldb, c.as_mut_ptr(), ic, jc)
                }
            };
        }
    }
}

/// Compute one `(MC, NC)` macro-tile of C at `(ic, jc)`.
///
/// Work executed here is credited to the global counters at per-kernel
/// granularity: depth blocks run by the real microkernel (asserted or
/// detected) count as real MACs, the rest as complex MACs. The per-tile sums
/// over all tiles and depth blocks reconstruct exactly `m * n * k`.
///
/// # Safety
///
/// `c` must be valid for reads and writes of `m * n` elements and be the
/// only live access to them for the duration of the call (the one caller
/// derives it from its `&mut [C64]` and walks the tiles one at a time);
/// `ic < m` and `jc < n`.
#[allow(clippy::too_many_arguments)]
unsafe fn compute_tile(
    opa: Op,
    opb: Op,
    m: usize,
    n: usize,
    k: usize,
    a: &[C64],
    b: &[C64],
    lda: usize,
    ldb: usize,
    c: *mut C64,
    ic: usize,
    jc: usize,
) {
    let mc = MC.min(m - ic);
    let nc = NC.min(n - jc);
    let mut ap: Vec<f64> = Vec::new();
    let mut bp: Vec<f64> = Vec::new();
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        let b_real = pack_b(opb, b, ldb, pc, kc, jc, nc, &mut bp);
        let a_real = pack_a(opa, a, lda, ic, mc, pc, kc, &mut ap);
        // When both packed blocks turned out all-real, the strided real
        // kernel consumes just the real lanes of the split-complex panels.
        tile_depth_block(&ap, &bp, a_real && b_real, c, n, ic, jc, mc, nc, kc);
    }
}

/// Run the strip loops of one `(macro-tile, depth-block)` pair over already
/// packed split-complex panels, and credit its `mc * nc * kc` MACs to the
/// matching counter.
///
/// # Safety
///
/// Same contract as [`compute_tile`] with `ldc` the row length of `c`:
/// the `(ic..ic+mc, jc..jc+nc)` block must lie inside the buffer.
#[allow(clippy::too_many_arguments)]
unsafe fn tile_depth_block(
    ap: &[f64],
    bp: &[f64],
    block_real: bool,
    c: *mut C64,
    ldc: usize,
    ic: usize,
    jc: usize,
    mc: usize,
    nc: usize,
    kc: usize,
) {
    let a_strip_len = kc * 2 * MR;
    let b_strip_len = kc * 2 * NR;
    if block_real {
        meter::add_real_macs((mc * nc * kc) as u64);
    } else {
        meter::add_complex_macs((mc * nc * kc) as u64);
    }
    for (js, j0) in (jc..jc + nc).step_by(NR).enumerate() {
        let nr = NR.min(jc + nc - j0);
        let b_strip = &bp[js * b_strip_len..(js + 1) * b_strip_len];
        for (is, i0) in (ic..ic + mc).step_by(MR).enumerate() {
            let mr = MR.min(ic + mc - i0);
            let a_strip = &ap[is * a_strip_len..(is + 1) * a_strip_len];
            if block_real {
                let acc = microkernel_real(kc, a_strip, 2 * MR, b_strip, 2 * NR);
                write_tile_real(&acc, c, ldc, i0, j0, mr, nr);
            } else {
                let acc = microkernel(kc, a_strip, b_strip);
                write_tile(&acc, c, ldc, i0, j0, mr, nr);
            }
        }
    }
}

/// Compute one `(MC_REAL, NC_REAL)` macro-tile of C at `(ic, jc)` on the
/// caller-asserted real path: `f64`-only packed panels consumed by the wide
/// `8 x 16` real microkernel. All work is credited to the real-MAC counter.
///
/// # Safety
///
/// Same contract as [`compute_tile`].
#[allow(clippy::too_many_arguments)]
unsafe fn compute_tile_real(
    opa: Op,
    opb: Op,
    m: usize,
    n: usize,
    k: usize,
    a: &[C64],
    b: &[C64],
    lda: usize,
    ldb: usize,
    c: *mut C64,
    ic: usize,
    jc: usize,
) {
    let mc = MC_REAL.min(m - ic);
    let nc = NC_REAL.min(n - jc);
    let mut ap: Vec<f64> = Vec::new();
    let mut bp: Vec<f64> = Vec::new();
    for pc in (0..k).step_by(KC_REAL) {
        let kc = KC_REAL.min(k - pc);
        pack_b_real(opb, b, ldb, pc, kc, jc, nc, &mut bp);
        pack_a_real(opa, a, lda, ic, mc, pc, kc, &mut ap);
        tile_depth_block_real(&ap, &bp, c, n, ic, jc, mc, nc, kc);
    }
}

/// [`tile_depth_block`] for the caller-asserted real path: `f64`-only
/// panels, the wide `8 x 16` real microkernel, all work credited to the
/// real-MAC counter.
///
/// # Safety
///
/// Same contract as [`tile_depth_block`].
#[allow(clippy::too_many_arguments)]
unsafe fn tile_depth_block_real(
    ap: &[f64],
    bp: &[f64],
    c: *mut C64,
    ldc: usize,
    ic: usize,
    jc: usize,
    mc: usize,
    nc: usize,
    kc: usize,
) {
    let a_strip_len = kc * MR_REAL;
    let b_strip_len = kc * NR_REAL;
    meter::add_real_macs((mc * nc * kc) as u64);
    for (js, j0) in (jc..jc + nc).step_by(NR_REAL).enumerate() {
        let nr = NR_REAL.min(jc + nc - j0);
        let b_strip = &bp[js * b_strip_len..(js + 1) * b_strip_len];
        for (is, i0) in (ic..ic + mc).step_by(MR_REAL).enumerate() {
            let mr = MR_REAL.min(ic + mc - i0);
            let a_strip = &ap[is * a_strip_len..(is + 1) * a_strip_len];
            let acc = microkernel_real_wide(kc, a_strip, b_strip);
            write_tile_real_wide(&acc, c, ldc, i0, j0, mr, nr);
        }
    }
}

/// Add an accumulator tile into C, masking the ragged edges.
///
/// # Safety
///
/// Same contract as [`compute_tile`] with `ldc` the row length of `c`:
/// the `(i0..i0+mr, j0..j0+nr)` block must lie inside the buffer.
#[inline(always)]
unsafe fn write_tile(
    acc: &AccTile,
    c: *mut C64,
    ldc: usize,
    i0: usize,
    j0: usize,
    mr: usize,
    nr: usize,
) {
    for i in 0..mr {
        let row = c.add((i0 + i) * ldc + j0);
        for j in 0..nr {
            let z = &mut *row.add(j);
            z.re += acc.re[i][j];
            z.im += acc.im[i][j];
        }
    }
}

/// Add a real accumulator tile into the real parts of C, masking the ragged
/// edges. Imaginary parts are untouched (the update contributes none).
///
/// # Safety
///
/// Same contract as [`write_tile`].
#[inline(always)]
unsafe fn write_tile_real(
    acc: &RealAccTile,
    c: *mut C64,
    ldc: usize,
    i0: usize,
    j0: usize,
    mr: usize,
    nr: usize,
) {
    for i in 0..mr {
        let row = c.add((i0 + i) * ldc + j0);
        for j in 0..nr {
            (*row.add(j)).re += acc[i][j];
        }
    }
}

/// [`write_tile_real`] for the wide `8 x 16` real accumulator tile.
///
/// # Safety
///
/// Same contract as [`write_tile`].
#[inline(always)]
unsafe fn write_tile_real_wide(
    acc: &RealAccTileWide,
    c: *mut C64,
    ldc: usize,
    i0: usize,
    j0: usize,
    mr: usize,
    nr: usize,
) {
    for i in 0..mr {
        let row = c.add((i0 + i) * ldc + j0);
        for j in 0..nr {
            (*row.add(j)).re += acc[i][j];
        }
    }
}

/// The seed repository's blocked-but-unpacked kernel, kept verbatim so the
/// benchmark suite (`bench_gemm`) can report the packed kernel's speedup
/// against the exact baseline it replaced. Not used by any production path.
pub fn matmul_seed(a: &Matrix, b: &Matrix) -> Matrix {
    const SEED_KC: usize = 128;
    const SEED_NC: usize = 128;
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(ka, kb, "matmul_seed: inner dimensions do not match");
    let k = ka;
    let mut c = Matrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return c;
    }
    let a_data = a.data();
    let b_data = b.data();
    let c_data = c.data_mut();
    for kk in (0..k).step_by(SEED_KC) {
        let kmax = (kk + SEED_KC).min(k);
        for jj in (0..n).step_by(SEED_NC) {
            let jmax = (jj + SEED_NC).min(n);
            for i in 0..m {
                let a_row = &a_data[i * k..i * k + k];
                let c_row = &mut c_data[i * n..(i + 1) * n];
                for p in kk..kmax {
                    let aip = a_row[p];
                    if aip.re == 0.0 && aip.im == 0.0 {
                        continue;
                    }
                    let b_row = &b_data[p * n..p * n + n];
                    for j in jj..jmax {
                        c_row[j] = c_row[j].mul_add(aip, b_row[j]);
                    }
                }
            }
        }
    }
    c
}

/// Naive triple-loop reference implementation (used by tests and kept public
/// so property tests in dependent crates can cross-check the fast path).
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "matmul_naive: inner dimensions do not match");
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = C64::ZERO;
            for p in 0..k {
                acc = acc.mul_add(a[(i, p)], b[(p, j)]);
            }
            c[(i, j)] = acc;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::c64;
    use koala_exec::meter::WorkLedger;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Run `f` under a fresh meter scope; the ledger holds exactly its work
    /// even while other tests multiply matrices concurrently.
    fn metered<T>(f: impl FnOnce() -> T) -> (T, WorkLedger) {
        let meter = meter::WorkMeter::new();
        let out = meter.scope(f);
        (out, meter.ledger())
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = Matrix::random(7, 5, &mut rng);
        assert!(matmul(&Matrix::identity(7), &a).approx_eq(&a, 1e-13));
        assert!(matmul(&a, &Matrix::identity(5)).approx_eq(&a, 1e-13));
    }

    #[test]
    fn matches_naive_small() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (5, 5, 5), (7, 2, 9), (13, 17, 3)] {
            let a = Matrix::random(m, k, &mut rng);
            let b = Matrix::random(k, n, &mut rng);
            assert!(matmul(&a, &b).approx_eq(&matmul_naive(&a, &b), 1e-11));
        }
    }

    #[test]
    fn matches_naive_across_blocking_edges() {
        // Shapes straddling MR/NR/KC/MC/NC boundaries.
        let mut rng = StdRng::seed_from_u64(12);
        for &(m, k, n) in &[(4, 8, 8), (5, 9, 9), (3, 130, 11), (130, 5, 17), (9, 7, 515)] {
            let a = Matrix::random(m, k, &mut rng);
            let b = Matrix::random(k, n, &mut rng);
            let fast = matmul(&a, &b);
            let slow = matmul_naive(&a, &b);
            assert!(
                fast.approx_eq(&slow, 1e-9 * (k as f64)),
                "mismatch at {m}x{k}x{n}: {:e}",
                fast.max_diff(&slow)
            );
        }
    }

    #[test]
    fn matches_naive_beyond_one_register_strip() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = Matrix::random(70, 90, &mut rng);
        let b = Matrix::random(90, 65, &mut rng);
        assert!(matmul(&a, &b).approx_eq(&matmul_naive(&a, &b), 1e-9));
    }

    #[test]
    fn adjoint_variants() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = Matrix::random(6, 4, &mut rng);
        let b = Matrix::random(6, 5, &mut rng);
        let c1 = matmul_adj_a(&a, &b);
        let c2 = matmul(&a.adjoint(), &b);
        assert!(c1.approx_eq(&c2, 1e-12));

        let d = Matrix::random(3, 4, &mut rng);
        let e = Matrix::random(5, 4, &mut rng);
        let f1 = matmul_adj_b(&d, &e);
        let f2 = matmul(&d, &e.adjoint());
        assert!(f1.approx_eq(&f2, 1e-12));

        let g1 = gemm(Op::Transpose, Op::None, &a, &a.conj());
        let g2 = matmul(&a.transpose(), &a.conj());
        assert!(g1.approx_eq(&g2, 1e-12));
    }

    #[test]
    fn seed_kernel_agrees_with_packed_kernel() {
        let mut rng = StdRng::seed_from_u64(15);
        let a = Matrix::random(33, 47, &mut rng);
        let b = Matrix::random(47, 29, &mut rng);
        assert!(matmul_seed(&a, &b).approx_eq(&matmul(&a, &b), 1e-10));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_inner_dimension_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn empty_operands() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        assert_eq!(matmul(&a, &b).shape(), (0, 2));
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 4);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (2, 4));
        assert!(c.norm_max() == 0.0);
    }

    #[test]
    fn meter_tracks_work() {
        // Real operands (hinted): all work is credited to the real-MAC
        // counter, none to the complex one.
        let a = Matrix::full(8, 4, c64(1.0, 0.0));
        let b = Matrix::full(4, 6, c64(1.0, 0.0));
        let (_, work) = metered(|| matmul(&a, &b));
        assert_eq!((work.complex_macs, work.real_macs), (0, 8 * 4 * 6));
        // Genuinely complex operands: all work is complex MACs.
        let a = Matrix::full(8, 4, c64(1.0, 0.5));
        let b = Matrix::full(4, 6, c64(1.0, -0.25));
        let (_, work) = metered(|| matmul(&a, &b));
        assert_eq!((work.complex_macs, work.real_macs), (8 * 4 * 6, 0));
    }

    #[test]
    fn real_dispatch_matches_naive_and_marks_output() {
        let mut rng = StdRng::seed_from_u64(21);
        for &(m, k, n) in &[(1, 1, 1), (5, 9, 9), (13, 17, 3), (70, 90, 65), (3, 130, 11)] {
            let a = Matrix::random_real(m, k, &mut rng);
            let b = Matrix::random_real(k, n, &mut rng);
            assert!(a.is_real() && b.is_real());
            let fast = matmul(&a, &b);
            assert!(fast.is_real(), "product of hinted-real operands is marked real");
            let slow = matmul_naive(&a, &b);
            assert!(
                fast.approx_eq(&slow, 1e-12 * (k as f64).max(1.0)),
                "real dispatch mismatch at {m}x{k}x{n}: {:e}",
                fast.max_diff(&slow)
            );
        }
    }

    #[test]
    fn per_block_detection_runs_real_kernel_on_unhinted_real_data() {
        let mut rng = StdRng::seed_from_u64(22);
        let hinted = Matrix::random_real(20, 30, &mut rng);
        // Launder the data through from_vec so the structural hint is lost.
        let unhinted_a = Matrix::from_vec(20, 30, hinted.data().to_vec()).unwrap();
        let unhinted_b = Matrix::random_real(30, 10, &mut rng);
        let unhinted_b = Matrix::from_vec(30, 10, unhinted_b.data().to_vec()).unwrap();
        assert!(!unhinted_a.is_real() && !unhinted_b.is_real());
        let (c, work) = metered(|| matmul(&unhinted_a, &unhinted_b));
        // The packers detect the zero imaginary lanes and the whole product
        // runs on the real kernel, billed as real MACs.
        assert_eq!((work.complex_macs, work.real_macs), (0, 20 * 30 * 10));
        // The output hint stays conservative (detection is per block, not a
        // structural guarantee about the operands).
        assert!(!c.is_real());
    }

    #[test]
    fn mixed_real_complex_operands_use_the_complex_kernel() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = Matrix::random_real(12, 9, &mut rng);
        let b = Matrix::random(9, 7, &mut rng);
        let (fast, work) = metered(|| matmul(&a, &b));
        assert_eq!((work.complex_macs, work.real_macs), (12 * 9 * 7, 0));
        assert!(!fast.is_real());
        assert!(fast.approx_eq(&matmul_naive(&a, &b), 1e-11));
    }

    #[test]
    fn associativity_with_random_matrices() {
        let mut rng = StdRng::seed_from_u64(14);
        let a = Matrix::random(4, 5, &mut rng);
        let b = Matrix::random(5, 6, &mut rng);
        let c = Matrix::random(6, 3, &mut rng);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        assert!(left.approx_eq(&right, 1e-10));
    }
}

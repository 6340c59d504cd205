//! Register-blocked GEMM microkernels over packed panels.
//!
//! Each microkernel multiplies one packed A strip with one packed B strip.
//! Three variants exist:
//!
//! * [`microkernel`] — the split-complex `MR x NR` kernel. Operands arrive
//!   packed (see [`crate::pack`]) as split-complex groups — for each depth
//!   index `p`, `MR` (or `NR`) real parts followed by the matching imaginary
//!   parts — and the kernel runs four FMAs per output lane per depth step.
//! * [`microkernel_real_wide`] — the `MR_REAL x NR_REAL = 8 x 16` real-only
//!   kernel consuming the dense `f64` panels of `pack_a_real`/`pack_b_real`:
//!   one FMA per output lane per depth step on a register tile sized for the
//!   real case (the `6 x 8` complex tile is dictated by split re/im register
//!   pressure the real kernel does not have).
//! * [`microkernel_real`] — the strided `MR x NR` real-only kernel used when
//!   realness is only *detected* during split-complex packing: it reads just
//!   the real lanes of the already-packed split-complex panels through a
//!   caller-supplied group stride (`2 * MR`/`2 * NR`), so the detected case
//!   costs no repacking.
//!
//! # Two implementations, one set of bits
//!
//! Each kernel exists twice, and the build picks one at compile time:
//!
//! * **AVX-512F intrinsics** (`core::arch::x86_64`), when the target has
//!   `avx512f`: one `zmm` register per 8-lane row, `_mm512_fmadd_pd` /
//!   `_mm512_fnmadd_pd` on broadcast A lanes. These are explicit because
//!   LLVM does not reliably vectorize the portable loops for AVX-512
//!   targets: under `znver4`/`znver5` tuning (the `target-cpu=native` of an
//!   AVX-512 AMD EPYC) with the release profile's default thin-local LTO,
//!   all three compiled to scalar `vfmadd*sd`, and the packed GEMM ran at
//!   7 GFLOP/s, 0.15x the unpacked seed loop. Rewrites of the loops that
//!   LLVM vectorized in isolation did not survive LTO either; intrinsics do.
//! * **Portable** `f64` lane loops everywhere else. Every AVX2 tuning
//!   (`x86-64-v3`, `znver2`/`znver3`, Intel cores) auto-vectorizes them to
//!   FMA sequences, and they are the test oracle of the intrinsic path.
//!
//! **Bit-identity contract.** The intrinsic kernels run, per output lane,
//! exactly the portable kernel's sequence of fused multiply-adds in the same
//! order (`fnmadd(ai, b_im, c)` is `fma(-ai, b_im, c)`, both exact products
//! rounded once), and `avx512f` implies `fma`, so the portable kernel fuses
//! too. Both paths therefore produce the same bits for every input, signed
//! zeros, subnormals and infinities included (NaN payloads aside); the
//! `simd_kernels_are_bit_identical_to_the_portable_ones` test pins it. That
//! test exists only in AVX-512F builds: elsewhere there is no second path to
//! compare, so CI compile-checks the intrinsic path and bit-checks it only
//! on hosts with `avx512f`.

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
use avx512 as kernels;
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
use portable as kernels;

/// Which implementation this build compiled: `"avx512f"` or `"portable"`
/// (recorded by `bench_gemm` next to its rates).
pub const IMPLEMENTATION: &str = kernels::NAME;

/// Rows of C computed per microkernel invocation.
pub const MR: usize = 6;
/// Columns of C computed per microkernel invocation. One AVX-512 register
/// holds exactly NR `f64` lanes, and AVX2 uses two. The `6 x 8` tile was the
/// fastest of the `{2,4,6,8} x {8,16}` sweep on an AVX-512 Xeon.
pub const NR: usize = 8;

/// Split-complex accumulator tile: `re[i][j]` / `im[i][j]` for `C[i][j]`.
#[derive(Clone, Copy)]
pub struct AccTile {
    /// Real parts of the `MR x NR` tile.
    pub re: [[f64; NR]; MR],
    /// Imaginary parts of the `MR x NR` tile.
    pub im: [[f64; NR]; MR],
}

/// Multiply a packed `MR x kc` A-strip by a packed `kc x NR` B-strip.
///
/// `ap` holds `kc` groups of `2 * MR` floats (MR real parts, then MR
/// imaginary parts); `bp` holds `kc` groups of `2 * NR` floats. Returns the
/// accumulated tile; the caller adds it into C (masked at edges).
#[inline(always)]
pub fn microkernel(kc: usize, ap: &[f64], bp: &[f64]) -> AccTile {
    debug_assert!(ap.len() >= 2 * MR * kc);
    debug_assert!(bp.len() >= 2 * NR * kc);
    kernels::microkernel(kc, ap, bp)
}

/// Rows of C computed per invocation of the *wide* real-only microkernel.
/// The split-complex kernel needs 12 accumulator registers for a `6 x 8`
/// tile (split re/im); the real kernel holds one accumulator per lane, so it
/// can afford a wider `8 x 16` tile (16 AVX-512 accumulator registers) that
/// amortises the A-broadcasts over twice the output columns.
pub const MR_REAL: usize = 8;
/// Columns of C computed per wide real microkernel invocation (two AVX-512
/// registers of `f64` lanes).
pub const NR_REAL: usize = 16;

/// Real-only accumulator tile: `re[i][j]` for `C[i][j]` (imaginary parts of
/// the update are identically zero).
pub type RealAccTile = [[f64; NR]; MR];

/// Accumulator tile of the wide `8 x 16` real microkernel.
pub type RealAccTileWide = [[f64; NR_REAL]; MR_REAL];

/// Multiply a packed real-only `MR_REAL x kc` A-strip by a packed real-only
/// `kc x NR_REAL` B-strip (the dense `f64` panels produced by
/// [`crate::pack::pack_a_real`] / [`crate::pack::pack_b_real`]).
///
/// This is the kernel behind the caller-asserted real path: one FMA per
/// output lane per depth step on a register tile sized for the real case
/// (see [`MR_REAL`]). The strided [`microkernel_real`] remains for depth
/// blocks whose realness is only *detected* after split-complex packing,
/// where the panel geometry is fixed at `MR x NR`.
#[inline(always)]
pub fn microkernel_real_wide(kc: usize, ap: &[f64], bp: &[f64]) -> RealAccTileWide {
    debug_assert!(ap.len() >= MR_REAL * kc);
    debug_assert!(bp.len() >= NR_REAL * kc);
    kernels::microkernel_real_wide(kc, ap, bp)
}

/// Multiply the real lanes of a packed `MR x kc` A-strip by the real lanes of
/// a packed `kc x NR` B-strip.
///
/// `a_group` / `b_group` are the distances (in floats) between consecutive
/// depth groups of the panel: `MR` / `NR` for real-only panels, `2 * MR` /
/// `2 * NR` to address only the real halves of split-complex panels. The
/// first `MR` (resp. `NR`) floats of each group are the real lanes consumed.
#[inline(always)]
pub fn microkernel_real(
    kc: usize,
    ap: &[f64],
    a_group: usize,
    bp: &[f64],
    b_group: usize,
) -> RealAccTile {
    debug_assert!(a_group >= MR && b_group >= NR);
    debug_assert!(kc == 0 || ap.len() >= (kc - 1) * a_group + MR);
    debug_assert!(kc == 0 || bp.len() >= (kc - 1) * b_group + NR);
    kernels::microkernel_real(kc, ap, a_group, bp, b_group)
}

/// The kernels as plain `f64` lane loops: the build's kernels on targets
/// without AVX-512F, and the oracle of the intrinsic kernels' tests.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx512f"))))]
mod portable {
    use super::{AccTile, RealAccTile, RealAccTileWide, MR, MR_REAL, NR, NR_REAL};

    pub(super) const NAME: &str = "portable";

    /// Fused multiply-add that only uses the hardware `fma` instruction when
    /// the target actually has it; the plain form otherwise (a libm `fma()`
    /// call would be ~20x slower than mul+add).
    #[inline(always)]
    fn fmadd(a: f64, b: f64, c: f64) -> f64 {
        if cfg!(target_feature = "fma") {
            a.mul_add(b, c)
        } else {
            a * b + c
        }
    }

    #[inline(always)]
    pub(super) fn microkernel(kc: usize, ap: &[f64], bp: &[f64]) -> AccTile {
        let mut acc = AccTile { re: [[0.0; NR]; MR], im: [[0.0; NR]; MR] };
        for (ak, bk) in ap.chunks_exact(2 * MR).zip(bp.chunks_exact(2 * NR)).take(kc) {
            let (a_re, a_im) = ak.split_at(MR);
            let (b_re, b_im) = bk.split_at(NR);
            for i in 0..MR {
                let ar = a_re[i];
                let ai = a_im[i];
                let cre = &mut acc.re[i];
                let cim = &mut acc.im[i];
                for j in 0..NR {
                    // (ar + i*ai) * (br + i*bi): four FMAs per lane.
                    cre[j] = fmadd(ar, b_re[j], cre[j]);
                    cre[j] = fmadd(-ai, b_im[j], cre[j]);
                    cim[j] = fmadd(ar, b_im[j], cim[j]);
                    cim[j] = fmadd(ai, b_re[j], cim[j]);
                }
            }
        }
        acc
    }

    #[inline(always)]
    pub(super) fn microkernel_real_wide(kc: usize, ap: &[f64], bp: &[f64]) -> RealAccTileWide {
        let mut acc: RealAccTileWide = [[0.0; NR_REAL]; MR_REAL];
        for (ak, bk) in ap.chunks_exact(MR_REAL).zip(bp.chunks_exact(NR_REAL)).take(kc) {
            for i in 0..MR_REAL {
                let ar = ak[i];
                let row = &mut acc[i];
                for j in 0..NR_REAL {
                    row[j] = fmadd(ar, bk[j], row[j]);
                }
            }
        }
        acc
    }

    #[inline(always)]
    pub(super) fn microkernel_real(
        kc: usize,
        ap: &[f64],
        a_group: usize,
        bp: &[f64],
        b_group: usize,
    ) -> RealAccTile {
        let mut acc: RealAccTile = [[0.0; NR]; MR];
        for p in 0..kc {
            let ak = &ap[p * a_group..p * a_group + MR];
            let bk = &bp[p * b_group..p * b_group + NR];
            for i in 0..MR {
                let ar = ak[i];
                let row = &mut acc[i];
                for j in 0..NR {
                    row[j] = fmadd(ar, bk[j], row[j]);
                }
            }
        }
        acc
    }
}

/// The kernels in AVX-512F intrinsics: one `zmm` register per 8-lane row of
/// the tile, each lane running the portable kernel's FMA sequence.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod avx512 {
    use super::{AccTile, RealAccTile, RealAccTileWide, MR, MR_REAL, NR, NR_REAL};
    use core::arch::x86_64::{
        __m512d, _mm512_fmadd_pd, _mm512_fnmadd_pd, _mm512_loadu_pd, _mm512_set1_pd,
        _mm512_storeu_pd,
    };

    pub(super) const NAME: &str = "avx512f";

    /// `f64` lanes per `zmm` register.
    const LANES: usize = 8;
    const _: () = assert!(NR == LANES && NR_REAL == 2 * LANES);

    /// The first eight lanes of `x` as one register (panics if `x` is
    /// shorter, like the portable kernels' slice indexing).
    #[inline(always)]
    fn load(x: &[f64]) -> __m512d {
        let x = &x[..LANES];
        // SAFETY: this module is compiled only with `avx512f` enabled, and
        // `x` is eight readable `f64`s (the unaligned load needs no more).
        unsafe { _mm512_loadu_pd(x.as_ptr()) }
    }

    /// Write `v` to the first eight lanes of `out` (panics if shorter).
    #[inline(always)]
    fn store(v: __m512d, out: &mut [f64]) {
        let out = &mut out[..LANES];
        // SAFETY: this module is compiled only with `avx512f` enabled, and
        // `out` is eight writable `f64`s (the unaligned store needs no more).
        unsafe { _mm512_storeu_pd(out.as_mut_ptr(), v) }
    }

    /// `x` in every lane.
    #[inline(always)]
    fn splat(x: f64) -> __m512d {
        // SAFETY: this module is compiled only with `avx512f` enabled.
        unsafe { _mm512_set1_pd(x) }
    }

    /// `a * b + c` per lane, rounded once.
    #[inline(always)]
    fn fmadd(a: __m512d, b: __m512d, c: __m512d) -> __m512d {
        // SAFETY: this module is compiled only with `avx512f` enabled.
        unsafe { _mm512_fmadd_pd(a, b, c) }
    }

    /// `-(a * b) + c` per lane, rounded once: the bits of `fma(-a, b, c)`.
    #[inline(always)]
    fn fnmadd(a: __m512d, b: __m512d, c: __m512d) -> __m512d {
        // SAFETY: this module is compiled only with `avx512f` enabled.
        unsafe { _mm512_fnmadd_pd(a, b, c) }
    }

    #[inline(always)]
    pub(super) fn microkernel(kc: usize, ap: &[f64], bp: &[f64]) -> AccTile {
        let mut cre = [splat(0.0); MR];
        let mut cim = [splat(0.0); MR];
        for (ak, bk) in ap.chunks_exact(2 * MR).zip(bp.chunks_exact(2 * NR)).take(kc) {
            let b_re = load(&bk[..NR]);
            let b_im = load(&bk[NR..]);
            for i in 0..MR {
                let ar = splat(ak[i]);
                let ai = splat(ak[MR + i]);
                cre[i] = fmadd(ar, b_re, cre[i]);
                cre[i] = fnmadd(ai, b_im, cre[i]);
                cim[i] = fmadd(ar, b_im, cim[i]);
                cim[i] = fmadd(ai, b_re, cim[i]);
            }
        }
        let mut acc = AccTile { re: [[0.0; NR]; MR], im: [[0.0; NR]; MR] };
        for i in 0..MR {
            store(cre[i], &mut acc.re[i]);
            store(cim[i], &mut acc.im[i]);
        }
        acc
    }

    #[inline(always)]
    pub(super) fn microkernel_real_wide(kc: usize, ap: &[f64], bp: &[f64]) -> RealAccTileWide {
        let mut lo = [splat(0.0); MR_REAL];
        let mut hi = [splat(0.0); MR_REAL];
        for (ak, bk) in ap.chunks_exact(MR_REAL).zip(bp.chunks_exact(NR_REAL)).take(kc) {
            let b_lo = load(&bk[..LANES]);
            let b_hi = load(&bk[LANES..]);
            for i in 0..MR_REAL {
                let ar = splat(ak[i]);
                lo[i] = fmadd(ar, b_lo, lo[i]);
                hi[i] = fmadd(ar, b_hi, hi[i]);
            }
        }
        let mut acc: RealAccTileWide = [[0.0; NR_REAL]; MR_REAL];
        for i in 0..MR_REAL {
            store(lo[i], &mut acc[i][..LANES]);
            store(hi[i], &mut acc[i][LANES..]);
        }
        acc
    }

    #[inline(always)]
    pub(super) fn microkernel_real(
        kc: usize,
        ap: &[f64],
        a_group: usize,
        bp: &[f64],
        b_group: usize,
    ) -> RealAccTile {
        let mut acc = [splat(0.0); MR];
        for p in 0..kc {
            let ak = &ap[p * a_group..p * a_group + MR];
            let bk = load(&bp[p * b_group..]);
            for i in 0..MR {
                acc[i] = fmadd(splat(ak[i]), bk, acc[i]);
            }
        }
        let mut out: RealAccTile = [[0.0; NR]; MR];
        for i in 0..MR {
            store(acc[i], &mut out[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_scalar_reference() {
        let kc = 5;
        // Synthetic packed panels with recognisable values.
        let mut ap = vec![0.0f64; 2 * MR * kc];
        let mut bp = vec![0.0f64; 2 * NR * kc];
        for p in 0..kc {
            for i in 0..MR {
                ap[p * 2 * MR + i] = (p * MR + i) as f64 * 0.25; // re
                ap[p * 2 * MR + MR + i] = 1.0 - i as f64 * 0.5; // im
            }
            for j in 0..NR {
                bp[p * 2 * NR + j] = 0.5 + (p + j) as f64 * 0.125;
                bp[p * 2 * NR + NR + j] = (j as f64) - 2.0;
            }
        }
        let acc = microkernel(kc, &ap, &bp);
        for i in 0..MR {
            for j in 0..NR {
                let mut re = 0.0;
                let mut im = 0.0;
                for p in 0..kc {
                    let ar = ap[p * 2 * MR + i];
                    let ai = ap[p * 2 * MR + MR + i];
                    let br = bp[p * 2 * NR + j];
                    let bi = bp[p * 2 * NR + NR + j];
                    re += ar * br - ai * bi;
                    im += ar * bi + ai * br;
                }
                assert!((acc.re[i][j] - re).abs() < 1e-12);
                assert!((acc.im[i][j] - im).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn wide_real_kernel_matches_scalar_reference() {
        let kc = 7;
        let mut ap = vec![0.0f64; MR_REAL * kc];
        let mut bp = vec![0.0f64; NR_REAL * kc];
        for p in 0..kc {
            for i in 0..MR_REAL {
                ap[p * MR_REAL + i] = (p * MR_REAL + i) as f64 * 0.125 - 2.0;
            }
            for j in 0..NR_REAL {
                bp[p * NR_REAL + j] = 1.0 - (p + 3 * j) as f64 * 0.0625;
            }
        }
        let acc = microkernel_real_wide(kc, &ap, &bp);
        for i in 0..MR_REAL {
            for j in 0..NR_REAL {
                let mut want = 0.0;
                for p in 0..kc {
                    want += ap[p * MR_REAL + i] * bp[p * NR_REAL + j];
                }
                assert!((acc[i][j] - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn real_kernel_matches_complex_kernel_on_zero_imaginary_panels() {
        let kc = 6;
        // Split-complex panels with zero imaginary lanes.
        let mut ap = vec![0.0f64; 2 * MR * kc];
        let mut bp = vec![0.0f64; 2 * NR * kc];
        for p in 0..kc {
            for i in 0..MR {
                ap[p * 2 * MR + i] = (p + 2 * i) as f64 * 0.5 - 1.0;
            }
            for j in 0..NR {
                bp[p * 2 * NR + j] = 1.5 - (p * NR + j) as f64 * 0.25;
            }
        }
        let complex = microkernel(kc, &ap, &bp);
        // Strided read over the split-complex panels...
        let strided = microkernel_real(kc, &ap, 2 * MR, &bp, 2 * NR);
        // ...and dense real-only panels with the same values.
        let mut ap_real = vec![0.0f64; MR * kc];
        let mut bp_real = vec![0.0f64; NR * kc];
        for p in 0..kc {
            ap_real[p * MR..(p + 1) * MR].copy_from_slice(&ap[p * 2 * MR..p * 2 * MR + MR]);
            bp_real[p * NR..(p + 1) * NR].copy_from_slice(&bp[p * 2 * NR..p * 2 * NR + NR]);
        }
        let dense = microkernel_real(kc, &ap_real, MR, &bp_real, NR);
        for i in 0..MR {
            for j in 0..NR {
                assert_eq!(strided[i][j], complex.re[i][j]);
                assert_eq!(dense[i][j], complex.re[i][j]);
                assert_eq!(complex.im[i][j], 0.0);
            }
        }
    }
}

/// The intrinsic kernels against the portable ones. Only AVX-512F builds
/// have both; elsewhere the public kernels *are* the portable ones.
#[cfg(all(test, target_arch = "x86_64", target_feature = "avx512f"))]
mod simd_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Panel values: uniform in `[-2, 2)` times `scale`, with a `special`
    /// fraction of lanes replaced by signed zeros, subnormals, infinities and
    /// NaN.
    fn panel(len: usize, scale: f64, special: f64, rng: &mut StdRng) -> Vec<f64> {
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
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what} lane {j}: {IMPLEMENTATION} {g:e} vs {} {w:e}",
                portable::NAME
            );
        }
    }

    #[test]
    fn simd_kernels_are_bit_identical_to_the_portable_ones() {
        let mut rng = StdRng::seed_from_u64(29);
        // Plain values, products that underflow into subnormals, and panels
        // sprinkled with signed zeros, subnormals, infinities and NaN.
        let flavours = [(1.0, 0.0), (1e-160, 0.0), (1.0, 0.02), (1.0, 0.25)];
        for kc in [0, 1, 2, 7, 256] {
            for (scale, special) in flavours {
                let what = format!("kc={kc} scale={scale:e} special={special}");
                let ap = panel(2 * MR * kc, scale, special, &mut rng);
                let bp = panel(2 * NR * kc, scale, special, &mut rng);
                let (got, want) = (microkernel(kc, &ap, &bp), portable::microkernel(kc, &ap, &bp));
                for i in 0..MR {
                    same_bits(&got.re[i], &want.re[i], &format!("complex re row {i} {what}"));
                    same_bits(&got.im[i], &want.im[i], &format!("complex im row {i} {what}"));
                }

                let ap = panel(MR_REAL * kc, scale, special, &mut rng);
                let bp = panel(NR_REAL * kc, scale, special, &mut rng);
                let got = microkernel_real_wide(kc, &ap, &bp);
                let want = portable::microkernel_real_wide(kc, &ap, &bp);
                for i in 0..MR_REAL {
                    same_bits(&got[i], &want[i], &format!("wide row {i} {what}"));
                }

                // Dense, split-complex and odd group strides; the panels end
                // exactly at the last lane read.
                for (a_group, b_group) in [(MR, NR), (2 * MR, 2 * NR), (MR + 3, NR + 5)] {
                    let len = |group: usize, width: usize| {
                        if kc == 0 {
                            0
                        } else {
                            (kc - 1) * group + width
                        }
                    };
                    let ap = panel(len(a_group, MR), scale, special, &mut rng);
                    let bp = panel(len(b_group, NR), scale, special, &mut rng);
                    let got = microkernel_real(kc, &ap, a_group, &bp, b_group);
                    let want = portable::microkernel_real(kc, &ap, a_group, &bp, b_group);
                    for i in 0..MR {
                        let what = format!("strided ({a_group}, {b_group}) row {i} {what}");
                        same_bits(&got[i], &want[i], &what);
                    }
                }
            }
        }
    }
}

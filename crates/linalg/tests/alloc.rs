//! Allocation accounting for the GEMM fused-transposition paths.
//!
//! The packed GEMM folds `Op::Adjoint` / `Op::Transpose` into operand
//! packing. This test pins that property down with a counting global
//! allocator: a transposed product must allocate (to within noise) exactly
//! what the plain product allocates — if either path materialised an operand
//! copy, the difference would show up as at least one full operand size.
//!
//! The same property is asserted for the higher-level kernels: the SVD wide
//! fallbacks, Gram QR and randomized SVD must not call `Matrix::adjoint` /
//! `Matrix::transpose` at all (tracked by the transpose-materialisation
//! counter), and the wide-input SVD must stay within the tall-input
//! allocation footprint.

use koala_linalg::{
    gemm, gram_qr, matmul, rsvd, svd, transpose_counter, MatOp, Matrix, Op, RsvdOptions,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// The tests in this file read process-wide counters (bytes allocated,
/// transpositions materialised); run them one at a time so concurrent test
/// threads cannot pollute each other's measurements.
static SERIAL: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn bytes_allocated_by(f: impl FnOnce() -> Matrix) -> u64 {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    let after = ALLOCATED.load(Ordering::Relaxed);
    drop(out);
    after - before
}

#[test]
fn transposed_gemm_does_not_materialize_operands() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    const N: usize = 512;
    let operand_bytes = (N * N * std::mem::size_of::<koala_linalg::C64>()) as u64; // 4 MiB
    let mut rng = StdRng::seed_from_u64(7);
    let a = Matrix::random(N, N, &mut rng);
    let b = Matrix::random(N, N, &mut rng);

    // Warm up once so lazily initialised runtime state doesn't get billed to
    // the first measurement.
    let _ = gemm(Op::None, Op::None, &a, &b);

    let plain = bytes_allocated_by(|| gemm(Op::None, Op::None, &a, &b));
    let adjoint = bytes_allocated_by(|| gemm(Op::Adjoint, Op::None, &a, &b));
    let transpose = bytes_allocated_by(|| gemm(Op::Transpose, Op::Transpose, &a, &b));
    let both = bytes_allocated_by(|| gemm(Op::Adjoint, Op::Transpose, &a, &b));

    // The old implementation materialised `a.adjoint()` / `b.transpose()`
    // before multiplying, which costs `operand_bytes` per transposed operand.
    // The packed kernel fuses the transposition into packing, so every Op
    // combination must allocate the same as the plain product, give or take
    // far less than one operand.
    let slack = operand_bytes / 8;
    for (label, measured) in [("A^H*B", adjoint), ("A^T*B^T", transpose), ("A^H*B^T", both)] {
        let diff = measured.abs_diff(plain);
        assert!(
            diff < slack,
            "{label} allocated {measured} bytes vs {plain} for plain GEMM \
             (diff {diff}, operand is {operand_bytes}) — an operand copy is being materialised"
        );
    }
}

/// The multiply paths of `svd` (wide fallback), `gram_qr` and `rsvd`
/// must never materialise a
/// transposed operand: every product routes the transposition through
/// `Op::Adjoint` / `Op::Transpose` GEMM packing, and the factors are
/// assembled element-wise in their destination layout.
#[test]
fn linalg_kernels_do_not_materialize_adjoints() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = StdRng::seed_from_u64(8);
    let tall = Matrix::random(40, 7, &mut rng);
    let wide = Matrix::random(7, 40, &mut rng);

    let before = transpose_counter();
    let f = svd(&wide).unwrap();
    assert!(f.reconstruct().approx_eq(&wide, 1e-9), "wide Jacobi SVD must stay correct");
    let q = gram_qr(&tall).unwrap();
    assert!(matmul(&q.q, &q.r).approx_eq(&tall, 1e-8));
    let r = rsvd(&MatOp::new(&tall), RsvdOptions::with_rank(5), &mut rng).unwrap();
    assert_eq!(r.rank(), 5);
    assert_eq!(
        transpose_counter() - before,
        0,
        "svd/gram/rsvd multiply paths materialised a transpose"
    );
}

/// Counting-allocator check on the SVD wide fallback: factorizing a wide
/// matrix must not allocate more than factorizing the equivalent tall matrix
/// (it used to pay one full `a.adjoint()` plus two factor adjoints on top).
#[test]
fn wide_svd_allocates_no_more_than_tall() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = StdRng::seed_from_u64(9);
    let tall = Matrix::random(160, 10, &mut rng);
    // Element-wise conjugate transpose, built without Matrix::adjoint so the
    // materialisation counter stays meaningful for the other test.
    let mut wide = Matrix::zeros(10, 160);
    for i in 0..160 {
        for j in 0..10 {
            wide[(j, i)] = tall[(i, j)].conj();
        }
    }
    let operand_bytes = (160 * 10 * std::mem::size_of::<koala_linalg::C64>()) as u64;

    // Warm up both paths.
    let _ = svd(&tall).unwrap();
    let _ = svd(&wide).unwrap();

    let before_tall = ALLOCATED.load(Ordering::Relaxed);
    let f_tall = svd(&tall).unwrap();
    let tall_bytes = ALLOCATED.load(Ordering::Relaxed) - before_tall;
    let before_wide = ALLOCATED.load(Ordering::Relaxed);
    let f_wide = svd(&wide).unwrap();
    let wide_bytes = ALLOCATED.load(Ordering::Relaxed) - before_wide;
    for (a, b) in f_tall.s.iter().zip(f_wide.s.iter()) {
        assert!((a - b).abs() < 1e-9 * f_tall.s[0], "spectra of A and A^H must agree");
    }

    let slack = operand_bytes / 2;
    assert!(
        wide_bytes <= tall_bytes + slack,
        "wide SVD allocated {wide_bytes} bytes vs {tall_bytes} for tall \
         (operand is {operand_bytes}) — the old path materialised the adjoint"
    );
}

/// Real GEMM dispatch must never materialise a complex copy of an operand:
/// the real path packs `f64`-only panels straight out of the `C64` operands,
/// so on the same shape it allocates (a) strictly less than the complex path
/// — the packing footprint halves — and (b) the same for transposed as for
/// plain operands, i.e. fused transposition survives the real path too. A
/// complex operand copy anywhere would show up as a full `operand_bytes`
/// excess over either bound.
#[test]
fn real_gemm_dispatch_materializes_no_complex_copy() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    const N: usize = 512;
    let out_bytes = (N * N * std::mem::size_of::<koala_linalg::C64>()) as u64; // 4 MiB
    let mut rng = StdRng::seed_from_u64(10);
    let a_complex = Matrix::random(N, N, &mut rng);
    let b_complex = Matrix::random(N, N, &mut rng);
    let a_real = Matrix::random_real(N, N, &mut rng);
    let b_real = Matrix::random_real(N, N, &mut rng);
    assert!(a_real.is_real() && b_real.is_real());

    // Warm up both dispatch paths.
    let _ = gemm(Op::None, Op::None, &a_complex, &b_complex);
    let _ = gemm(Op::None, Op::None, &a_real, &b_real);

    let complex_alloc = bytes_allocated_by(|| gemm(Op::None, Op::None, &a_complex, &b_complex));
    let real_alloc = bytes_allocated_by(|| gemm(Op::None, Op::None, &a_real, &b_real));
    let real_alloc_t = bytes_allocated_by(|| gemm(Op::Transpose, Op::Adjoint, &a_real, &b_real));

    // Both paths allocate the m x n complex output; everything beyond it is
    // packing buffers. Real panels are exactly half the split-complex panels,
    // so the real path's packing overhead must come in well under the complex
    // path's — if the real dispatch materialised even one complex operand
    // copy it would exceed the complex path instead.
    assert!(complex_alloc > out_bytes, "complex path must at least allocate the output");
    assert!(real_alloc > out_bytes, "real path must at least allocate the output");
    let complex_pack = complex_alloc - out_bytes;
    let real_pack = real_alloc - out_bytes;
    assert!(
        real_pack <= complex_pack * 3 / 4,
        "real dispatch packed {real_pack} bytes vs {complex_pack} for the complex path \
         (operand is {out_bytes}) — a complex intermediate is being materialised"
    );
    // Fused transposition: transposed real operands cost no extra allocation.
    let slack = out_bytes / 8;
    assert!(
        real_alloc_t.abs_diff(real_alloc) < slack,
        "transposed real GEMM allocated {real_alloc_t} bytes vs {real_alloc} plain — \
         a transposed operand copy is being materialised"
    );
}

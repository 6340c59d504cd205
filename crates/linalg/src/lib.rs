//! # koala-linalg
//!
//! Dense complex linear algebra substrate for the koala-rs reproduction of
//! *"Efficient 2D Tensor Network Simulation of Quantum Systems"* (SC 2020).
//!
//! The original Koala library delegates its dense kernels to NumPy/MKL,
//! CuPy, or Cyclops+ScaLAPACK. This crate provides the equivalent from-scratch
//! building blocks used by every layer above it:
//!
//! * [`C64`] — complex double-precision scalar,
//! * [`Matrix`] — dense row-major complex matrix,
//! * [`gemm()`] / [`gemm_into`] — packed, blocked matrix multiplication (one
//!   serial call per product, transposition fused into packing),
//! * [`qr`] — thin QR (modified Gram-Schmidt with reorthogonalization,
//!   a null tolerance relative to the input's scale),
//! * [`svd`] — QR-preconditioned one-sided Jacobi SVD with a recovery
//!   ladder whose last rung is a Gram-based SVD (QR and SVD hold their
//!   columns in one split-plane buffer and run every projection, norm and
//!   pair rotation on 8-lane vector kernels: AVX-512F intrinsics where the
//!   target has them, bit-identical portable loops elsewhere),
//! * [`eigh`] — Hermitian Jacobi eigendecomposition (each of these three
//!   is one algorithm, generic over the scalar and instantiated at `f64`
//!   for hinted-real inputs and at `C64` otherwise),
//! * [`rsvd`] — randomized SVD with implicitly applied operators
//!   (paper Algorithm 4),
//! * [`gram_factors`] — the `R`, `R^{-1}` factors of a Gram matrix, the
//!   local math of the reshape-avoiding orthogonalization of paper
//!   Algorithm 5 (`koala-cluster`'s `gram_qr_dist` runs it distributed),
//! * [`expm_hermitian`] — Hermitian matrix exponentials for time evolution
//!   and gate synthesis,
//! * [`lanczos_ground_state`] — ground states of large implicit Hermitian
//!   operators.
//!
//! A design rule runs through the whole crate: **transposition is never
//! materialised on a multiply path.** The packed GEMM fuses
//! [`Op::Adjoint`] / [`Op::Transpose`] into operand
//! packing, and the SVD / Gram / randomized-SVD kernels route their
//! products through those fused paths instead of calling
//! [`Matrix::adjoint`]. The [`transpose_counter`] diagnostic lets
//! tests pin that property down.
//!
//! A second rule follows the same spirit: **purely real data never pays for
//! complex arithmetic.** Every [`Matrix`] carries a structural
//! [`is_real`](Matrix::is_real) hint (set by real constructors, propagated by
//! realness-preserving operations, conservatively dropped by raw mutation);
//! [`gemm()`] routes products of hinted-real operands onto a real-only
//! microkernel that executes one quarter of the FMAs; the hint is the only
//! way onto it, so real data whose hint was dropped runs the complex kernel
//! (same real parts, full price). Work accounting is *scoped*: every
//! product bills its complex and real multiply-adds to the process-global
//! [`WorkMeter`], and callers that need per-workload attribution (e.g.
//! per-tenant billing in `koala-serve`) wrap their work in
//! [`WorkMeter::scope`] — the scope travels with executor tasks, so a
//! workload's ledger is exact even when its bond updates or SUMMA rounds
//! run on shared pool workers.
//!
//! # Example: fused adjoint GEMM with [`gemm_into`]
//!
//! `gemm_into` accumulates `op(A) * op(B)` into a caller-owned buffer; the
//! transposition only changes the packing gather order, so no copy of `A` is
//! made:
//!
//! ```
//! use koala_linalg::{gemm_into, Op};
//! use koala_linalg::{c64, C64};
//!
//! // A is stored 2x3 row-major; we multiply A^H (3x2) by B (2x2).
//! let a = [c64(1., 1.), c64(2., 0.), c64(0., 3.), c64(4., 0.), c64(5., 0.), c64(6., 0.)];
//! let b = [c64(1., 0.), c64(0., 0.), c64(0., 0.), c64(1., 0.)]; // identity
//! let (m, n, k) = (3, 2, 2); // effective shapes: A^H is 3x2, B is 2x2
//! let mut c = vec![C64::ZERO; m * n];
//! gemm_into(Op::Adjoint, Op::None, m, n, k, &a, &b, &mut c);
//! // C = A^H * I = A^H: entry (0, 0) is conj(A[0, 0]).
//! assert_eq!(c[0], c64(1., -1.));
//! assert_eq!(c[1], c64(4., 0.));
//! ```

#![warn(missing_docs)]
// Library code must not panic on fallible paths: every failure is a
// `KoalaError` whose kind is set here, where it is detected, so the recovery
// ladder above can catch and degrade instead of aborting a long job.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod scalar;

mod bidiag;
mod eig;
mod expm;
mod gemm;
mod gram;
mod lanczos;
mod lanes;
mod matrix;
mod microkernel;
mod pack;
mod qr;
mod rsvd;
mod svd;

pub use koala_exec::{WorkLedger, WorkMeter};
pub use matrix::{transpose_counter, Matrix};
pub use microkernel::MICROKERNEL;
pub use scalar::{c64, C64};

pub use eig::{eigh, eigvalsh, EigH};
pub use expm::expm_hermitian;
pub use gemm::{
    gemm, gemm_into, gemm_into_real, matmul, matmul_adj_a, matmul_naive, matmul_seed, Op,
};
pub use gram::gram_factors;
pub use lanczos::{lanczos_ground_state, HermitianOp, LanczosResult};
pub use qr::{qr, QrFactors};
pub use rsvd::{rsvd, LinearOp, MatOp, RsvdOptions};
pub use svd::{svd, svd_leading, Svd};

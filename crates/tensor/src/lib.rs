//! # koala-tensor
//!
//! Dense complex tensors and the `einsum` contraction layer for the koala-rs
//! reproduction of *"Efficient 2D Tensor Network Simulation of Quantum
//! Systems"* (SC 2020).
//!
//! The original Koala library manipulates site tensors through a thin
//! `tensorbackends` abstraction over NumPy / CuPy / Cyclops. This crate plays
//! the role of the dense in-memory backend: a row-major [`Tensor`] type,
//! permutation / reshaping / matricization utilities, pairwise contraction
//! ([`tensordot`]) lowered to the GEMM kernel of `koala-linalg`, a general
//! [`einsum`](fn@einsum) for tensor-network contractions backed by a memoised
//! contraction planner (`plan`), tensor-level factorizations
//! ([`qr_split`], [`svd_split`]), and the paper's
//! contract-and-refactorize primitive [`EinsumSvd`] (one network spec,
//! evaluated by an explicit truncated SVD or by the implicit
//! randomized SVD of Alg. 4) that every MPS and PEPS algorithm above this
//! crate is written against.
//!
//! # Example: contracting a small network with `einsum`
//!
//! Repeated calls with the same spec and operand shapes reuse one cached
//! contraction plan — the greedy ordering search runs exactly once:
//!
//! ```
//! use koala_tensor::{einsum, plan_stats, Tensor};
//!
//! let a = Tensor::from_real(&[2, 3], &[1., 2., 3., 4., 5., 6.]).unwrap();
//! let b = Tensor::from_real(&[3, 2], &[6., 5., 4., 3., 2., 1.]).unwrap();
//! // Matrix product with the output transposed, as one einsum.
//! let c = einsum("ij,jk->ki", &[&a, &b]).unwrap();
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.get(&[0, 0]).re, 1.0 * 6.0 + 2.0 * 4.0 + 3.0 * 2.0);
//!
//! let before = plan_stats();
//! let c2 = einsum("ij,jk->ki", &[&a, &b]).unwrap(); // plan-cache hit
//! assert!(c2.approx_eq(&c, 0.0));
//! assert!(plan_stats().hits > before.hits);
//! ```

#![warn(missing_docs)]
// Library code must not panic on fallible paths: failures become a
// `KoalaError` so long-running drivers can recover instead of aborting.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod contract;
mod decomp;
mod einsum;
mod einsumsvd;
mod plan;
mod shape;
mod tensor;

pub use contract::{sum_axis, tensordot, tensordot_naive};
pub use decomp::{qr_split, svd_split, SplitSvd, Truncation};
pub use einsum::{einsum, einsum_spec, parse_spec, EinsumSpec};
pub use einsumsvd::{EinsumSvd, EinsumSvdMethod};
pub use plan::{clear_plan_cache, contraction_plan, plan_stats, reset_plan_stats, Plan, PlanStats};
pub use tensor::Tensor;

/// Poison-tolerant mutex lock for the process-wide plan cache: a panicked
/// holder cannot leave the cache permanently unusable (the data is a memo, so
/// the worst case after a poisoned write is a stale-but-valid entry).
pub(crate) fn lock_ignore_poison<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

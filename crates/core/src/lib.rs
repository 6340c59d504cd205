//! # koala-peps
//!
//! The core contribution of the reproduced paper, *"Efficient 2D Tensor
//! Network Simulation of Quantum Systems"* (SC 2020): evolution and
//! contraction algorithms for projected entangled pair states (PEPS), built
//! on the dense tensor / MPS / simulated-cluster substrates of the companion
//! crates.
//!
//! * [`Peps`] — the 2D tensor network state,
//! * [`operators::Observable`] — sums of local terms (Hamiltonians, measurements),
//! * [`apply_one_site`] / [`apply_two_site`] — one-site and two-site
//!   operator application ([`UpdateMethod`]): the QR-SVD update of
//!   Algorithm 1; gate lists run as a site-dependency task graph
//!   ([`apply_gates`]), so independent bond updates use every core,
//! * [`contract`] — Exact, BMPS (Algorithm 2 + 3) and IBMPS (implicit
//!   randomized SVD, Algorithm 4) contraction of one-layer networks; the
//!   bitstrings of an amplitude batch run as independent tasks
//!   ([`amplitude_batch`]),
//! * [`two_layer`] — the two-layer inner product that keeps bra and ket
//!   unmerged (two-layer IBMPS, Table II),
//! * [`expectation_normalized`] — expectation values with the
//!   row-environment caching strategy of §IV-B,
//! * [`dist_tebd_layer`] — the evolution kernel driven through the
//!   simulated distributed-memory backend (`koala-cluster`), with the
//!   reshape-avoiding Gram-matrix QR of Algorithm 5, used by the scaling
//!   and backend-comparison benchmarks (Figures 7, 11, 12).
//!
//! Every contract-and-refactorize step of these algorithms — the QR-SVD
//! update, each zip-up step under BMPS/IBMPS, the two-layer step — is
//! one `koala_tensor::EinsumSvd` call site: a network spec plus the explicit
//! or implicit method. [`ContractionMethod`] is the user-facing bundle of a
//! boundary bond and that method. `EinsumSvd`'s contraction plans are
//! memoised per `(spec, shapes)` key, so a sweep pays the planning cost once
//! and replays the cached schedule for every site and step (see
//! `koala_tensor::contraction_plan`).
//! The remaining site-local contractions (gate application, bra–ket site
//! merging, stacked measurement operators) are single pairs of tensors and
//! call `koala_tensor::tensordot` directly.
//!
//! ## Quick example
//!
//! ```
//! use koala_peps::operators::{kron, pauli_x, pauli_z};
//! use koala_peps::{apply_one_site, apply_two_site, Observable, Peps, UpdateMethod};
//! use koala_peps::{expectation_normalized, ExpectationOptions};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! // Create a 2x3 PEPS in the |000000> state.
//! let mut qstate = Peps::computational_zeros(2, 3);
//! // Apply a one-site and a two-site operator with the QR-SVD update.
//! apply_one_site(&mut qstate, &pauli_x(), (0, 1)).unwrap();
//! let zz = kron(&pauli_z(), &pauli_z());
//! apply_two_site(&mut qstate, &zz, (0, 1), (1, 1), UpdateMethod::qr_svd(2)).unwrap();
//! // Measure an observable with IBMPS contraction and intermediate caching.
//! let h = Observable::zz((1, 0), (1, 1)) + 0.2 * Observable::x((0, 1));
//! let energy = expectation_normalized(&qstate, &h, ExpectationOptions::ibmps_cached(4), &mut rng).unwrap();
//! assert!(energy.im.abs() < 1e-8);
//! ```

#![warn(missing_docs)]
// Library code must not panic on fallible paths: failures become
// `KoalaError` results so long-running drivers can recover instead of
// aborting (see ARCHITECTURE.md, "Failure model").
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod contract;
mod dist;
mod expectation;
pub mod operators;
mod peps;
pub mod two_layer;
mod update;

pub use contract::{amplitude, amplitude_batch, contract_no_phys, norm_sqr, ContractionMethod};
pub use dist::{dist_tebd_layer, DistEvolutionVariant};
pub use expectation::{
    expectation, expectation_and_norm, expectation_normalized, EnvCache, ExpectationOptions,
};
pub use operators::{LocalTerm, Observable};
pub use peps::{Direction, Peps, Site};
pub use update::{
    apply_gates, apply_one_site, apply_two_site, apply_two_site_any, apply_two_site_everywhere,
    route_two_site, routed_error, GateOp, UpdateMethod,
};

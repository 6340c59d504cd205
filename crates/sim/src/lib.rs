//! # koala-sim
//!
//! Application layer of the koala-rs reproduction of *"Efficient 2D Tensor
//! Network Simulation of Quantum Systems"* (SC 2020): everything the paper's
//! evaluation runs *on top of* the PEPS library.
//!
//! * [`gates`] — standard quantum gates,
//! * `statevector` — exact state-vector simulator (reference curves),
//! * `hamiltonian` — transverse-field Ising and J1-J2 Heisenberg models and
//!   their Trotter gates,
//! * `circuit` — quantum circuits and the random-quantum-circuit generator
//!   of the Figure 10 benchmark,
//! * [`ite`] — imaginary time evolution / TEBD (Figure 13),
//! * `vqe` — the variational quantum eigensolver driver (Figure 14),
//! * `opt` — derivative-free optimizers (Nelder–Mead, SPSA).
//!
//! # Example: a transverse-field Ising energy, state vector vs PEPS
//!
//! The exact state-vector simulator provides the reference curves the
//! paper's figures are checked against; the PEPS path (through
//! `koala-peps`) must agree on small lattices:
//!
//! ```
//! use koala_sim::{tfi_hamiltonian, StateVector, TfiParams};
//! use koala_peps::{expectation_normalized, ExpectationOptions};
//! use koala_peps::Peps;
//! use rand::SeedableRng;
//!
//! let h = tfi_hamiltonian(2, 2, TfiParams::paper_figure14());
//! // |0000> has <H> = sum of ZZ couplings: Jz = -1 on 4 bonds.
//! let sv = StateVector::computational_zeros(2, 2);
//! assert!((sv.expectation(&h) + 4.0).abs() < 1e-12);
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let peps = Peps::computational_zeros(2, 2);
//! let e = expectation_normalized(&peps, &h, ExpectationOptions::bmps_cached(8), &mut rng)
//!     .unwrap();
//! assert!((e.re - sv.expectation(&h)).abs() < 1e-8);
//! ```

#![warn(missing_docs)]
// Library code must not panic on fallible paths: failures become
// `KoalaError` results that reach the caller instead of an abort (see
// ARCHITECTURE.md, "Failure model").
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod circuit;
pub mod gates;
mod hamiltonian;
pub mod ite;
mod opt;
mod statevector;
mod vqe;

pub use circuit::{random_circuit, Circuit, CircuitOp};
pub use hamiltonian::{
    j1j2_hamiltonian, tfi_hamiltonian, trotter_gates, J1J2Params, TfiParams, TrotterGate,
};
pub use ite::{
    ite_checkpoint, ite_peps, ite_peps_from, ite_statevector, IteCheckpoint, IteOptions, IteResult,
};
pub use opt::{nelder_mead, spsa, OptResult};
pub use statevector::StateVector;
pub use vqe::{run_vqe, run_vqe_cancellable, Optimizer, VqeBackend, VqeOptions, VqeResult};

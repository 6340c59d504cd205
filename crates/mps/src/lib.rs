//! # koala-mps
//!
//! Matrix product states (MPS) and matrix product operators (MPO) for the
//! koala-rs reproduction of *"Efficient 2D Tensor Network Simulation of
//! Quantum Systems"* (SC 2020).
//!
//! The boundary-MPS family of PEPS contraction algorithms (paper §III-B and
//! Algorithm 2) treats one row of a PEPS as an MPS and the remaining rows as
//! MPOs that are applied approximately. This crate provides that machinery:
//!
//! * [`Mps`] / [`Mpo`] chain types with exact inner products and sandwiches,
//! * exact MPO application (bond dimensions multiply),
//! * the zip-up approximate application of Algorithm 3: one
//!   [`koala_tensor::EinsumSvd`] network per step, evaluated either by an
//!   explicit truncated SVD ([`ZipUpMethod::ExactSvd`], the BMPS building
//!   block) or by the implicit randomized SVD of Algorithm 4
//!   ([`ZipUpMethod::ImplicitRandSvd`], the IBMPS building block). Its
//!   steps are public ([`zip_start`], [`zip_step`], [`zip_finish`], seeded
//!   by [`zip_seeds`]) so a caller can run the steps of several rows as a
//!   wavefront; [`zip_up`] is the loop over them.
//!
//! # Example: applying an MPO with the zip-up compression
//!
//! A bond-capped zip-up application of the identity MPO leaves the state
//! unchanged (up to round-off), which makes a compact end-to-end check of
//! the Algorithm 3 machinery:
//!
//! ```
//! use koala_mps::{ghz_state, zip_up, Mpo, ZipUpMethod};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let ghz = ghz_state(5); // (|00000> + |11111>)/sqrt(2), bond dimension 2
//! assert!((ghz.norm() - 1.0).abs() < 1e-12);
//! let identity = Mpo::identity(&ghz.phys_dims());
//! let applied = zip_up(&ghz, &identity, 4, ZipUpMethod::ExactSvd, &mut rng).unwrap();
//! // <GHZ| (I |GHZ>) = 1.
//! assert!((ghz.inner(&applied).unwrap().re - 1.0).abs() < 1e-9);
//! // |00000> and |11111> each carry amplitude 1/sqrt(2).
//! let amp = applied.amplitude(&[1, 1, 1, 1, 1]).unwrap();
//! assert!((amp.re - 0.5f64.sqrt()).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
// Library code must surface failures as errors, not panics (ARCHITECTURE.md,
// "Failure model"); test modules are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod mpo;
mod mps;
mod zipup;

pub use mpo::Mpo;
pub use mps::{ghz_state, Mps};
pub use zipup::{zip_finish, zip_seeds, zip_start, zip_step, zip_up, ZipUpMethod};

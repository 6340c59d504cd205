//! # koala-circuit — the circuit-as-tensor-network front end
//!
//! Turns gate-list quantum circuits into servable tensor-network workloads:
//!
//! ```text
//!   Circuit (typed gate list IR)
//!      | simplify: 1q-run fusion, identity drop, diagonal absorption
//!      v
//!   simplified Circuit
//!      | light-cone pruning (single-amplitude queries)
//!      v
//!   dispatch: statevector (<= 20 qubits, the oracle)
//!           | MPS + SVD truncation (entanglement bound fits the chain)
//!           | PEPS + boundary-MPS contraction (everything wider)
//! ```
//!
//! Every backend evolves the state once per bitstring batch and answers each
//! query with a value-independent contraction, so warm batches replay cached
//! einsum plans; realness hints propagate end to end (an all-real circuit
//! executes zero complex MACs); and all work bills to the ambient
//! [`koala_exec::WorkMeter`] scope.
//!
//! The differential property-test suite (`tests/differential.rs`) pins each
//! backend and each structural pass against the exact statevector oracle.

#![warn(missing_docs)]
// Front-end code must not panic on fallible paths: every failure surfaces
// as a typed error (invalid gate, bad bitstring, engine failure).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod backend;
mod ir;
mod lightcone;
mod simplify;

pub use backend::{amplitudes, AmplitudeBatch, Backend, BackendChoice};
pub use ir::{Circuit, Gate, Gate1, Gate2};
pub use lightcone::{prune_for_bits, PrunedQuery};
pub use simplify::{simplify, SimplifyStats};

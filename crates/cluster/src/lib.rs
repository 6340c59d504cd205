//! # koala-cluster
//!
//! Simulated distributed-memory tensor backend for the koala-rs reproduction
//! of *"Efficient 2D Tensor Network Simulation of Quantum Systems"* (SC 2020).
//!
//! The original Koala library uses the Cyclops Tensor Framework (CTF) over
//! MPI and ScaLAPACK on the Stampede2 supercomputer. This crate replaces that
//! stack with a **virtual cluster**: a bulk-synchronous simulation in which
//! every rank owns private buffers, every collective moves data between those
//! buffers exactly as its MPI counterpart would, and all traffic and per-rank
//! work is tallied in [`CommStats`]. A [`CostModel`] — calibrated from the
//! committed `BENCH_gemm.json` via [`CostModel::from_bench`] — converts the
//! counters into modelled parallel execution times, which is how the scaling
//! figures of the paper are reproduced on a single machine (see
//! ARCHITECTURE.md, "Distributed layer").
//!
//! Provided building blocks:
//! * [`Cluster`] — the virtual machine and its statistics,
//! * [`ProcGrid`] — 2-D processor grids and the block / block-cyclic index
//!   layouts mapped onto them,
//! * [`DistMatrix`] — grid-distributed matrices with a SUMMA
//!   [`DistMatrix::matmul_dist`] (`C = A * B`, `C` stationary) whose
//!   per-rank products run the same packed `gemm_into` macro-tiles (and
//!   real-only fast path) as the shared-memory kernel, Gram matrices of
//!   tall-skinny `P x 1` operands, and the two distributed QR paths compared
//!   in Figure 7 ([`gram_qr_dist`] = paper Algorithm 5 vs [`qr_gather_dist`]
//!   = the reshape/gather baseline).
//!
//! Tensors reach the cluster as matrices: a caller matricizes a site tensor
//! locally and scatters the matrix (`koala_peps::dist` does this for every
//! bond update), so every scatter is the one checksummed
//! [`DistMatrix`] scatter.
//!
//! The operations of this crate bill what they move and compute; callers
//! bill only replicated local work, through [`Cluster::record_macs_all`]
//! (ARCHITECTURE.md, "What runs distributed, and what is modelled").
//!
//! Realness is first-class end to end: scatter, SUMMA, Gram, gather, and
//! every mutator propagate the structural [`koala_linalg::Matrix::is_real`]
//! hint ([`DistMatrix::is_real`]), per-rank products of hinted operands run
//! the real-only microkernel, and the work lands in
//! [`CommStats::rank_real_macs`] so the cost model prices it at the
//! calibrated real-kernel rate.
//!
//! # Example: a distributed Gram matrix and its communication bill
//!
//! The Gram product of paper Algorithm 5 needs only one allreduce of an
//! `n x n` matrix, no matter how tall the distributed operand is — exactly
//! what [`CommStats`] records. With a *real* operand the whole pipeline —
//! local Gram products, the replicated eigendecomposition, and the recovery
//! of the distributed `Q` — stays on the real kernel:
//!
//! ```
//! use koala_cluster::{gram_qr_dist, Cluster, DistMatrix};
//! use koala_linalg::{matmul, matmul_adj_a, Matrix};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let cluster = Cluster::new(4);
//! let a = Matrix::random_real(16, 3, &mut rng);
//! let dist = DistMatrix::scatter(&cluster, &a).unwrap();
//! let g = dist.gram().unwrap(); // per-rank local A_i^H A_i, then one allreduce
//! assert!(g.approx_eq(&matmul_adj_a(&a, &a), 1e-10));
//! let stats = cluster.stats();
//! assert_eq!(stats.collectives, 1);
//! assert!(stats.redistributions == 0, "the tall operand never moves");
//! assert_eq!(stats.total_flops(), 0, "a real operand bills no complex MACs");
//!
//! // End to end: factorize and verify A = Q R without ever gathering A.
//! let f = gram_qr_dist(&dist).unwrap();
//! assert!(f.q.is_real(), "realness survives the distributed factorization");
//! assert!(matmul(&f.q.gather_unaccounted(), &f.r).approx_eq(&a, 1e-8));
//! ```
//!
//! # Example: SUMMA on a 2-D grid vs gathering the operand
//!
//! Block-cyclic operands on a square grid multiply with
//! `O(n^2 / sqrt(P))` words of traffic per rank; the block-row layout
//! degenerates to the gather-everything dataflow:
//!
//! ```
//! use koala_cluster::{Cluster, CostModel, DistMatrix};
//! use koala_linalg::{matmul, Matrix};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let a = Matrix::random(48, 48, &mut rng);
//! let b = Matrix::random(48, 48, &mut rng);
//!
//! let cluster = Cluster::new(4); // default grid: 2 x 2
//! let da = DistMatrix::scatter_block_cyclic(&cluster, &a, cluster.grid(), 8, 8).unwrap();
//! let db = DistMatrix::scatter_block_cyclic(&cluster, &b, cluster.grid(), 8, 8).unwrap();
//! cluster.reset_stats();
//! let c = da.matmul_dist(&db).unwrap(); // SUMMA rounds over the depth panels
//! assert!(c.gather_unaccounted().approx_eq(&matmul(&a, &b), 1e-10));
//! let summa_bytes = cluster.reset_stats().bytes_communicated;
//!
//! let ra = DistMatrix::scatter(&cluster, &a).unwrap(); // block-row baseline
//! let rb = DistMatrix::scatter(&cluster, &b).unwrap();
//! cluster.reset_stats();
//! let _ = ra.matmul_dist(&rb).unwrap(); // degenerates to allgather-B
//! let gather_bytes = cluster.reset_stats().bytes_communicated;
//! assert!(summa_bytes < gather_bytes);
//!
//! // Counters convert to modelled time through the (calibratable) cost model.
//! let model = CostModel::default();
//! let _seconds = model.modelled_time(&cluster.stats());
//! ```

#![warn(missing_docs)]
// Library code must not panic on fallible paths: failures become
// `KoalaError` results so long-running drivers can recover instead of
// aborting (see ARCHITECTURE.md, "Failure model").
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cluster;
mod dist_matrix;
mod fault;
mod grid;
mod stats;

pub use cluster::Cluster;
pub use dist_matrix::{gram_qr_dist, qr_gather_dist, DistMatrix, DistQr};
pub use fault::{FaultEvent, FaultKind, FaultLog, FaultPlan, FaultSite};
pub use grid::ProcGrid;
pub use stats::{CommStats, CostModel, RoundCost, ELEM_BYTES};

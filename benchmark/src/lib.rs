//! The koala-rs repository benchmark.
//!
//! Seven workloads taken from the source paper's evaluation are timed end to
//! end, checked for correctness, and — in a separate traced run — split by
//! layer. Everything here sits *outside* the libraries: layers are measured
//! by timing calls into their public functions and reading their public
//! counters. `benchmark/README.md` describes every metric and workload and
//! the run protocol; `BENCHMARK.json` at the repository root is the contract
//! the driver runs it by.

pub mod child;
pub mod cli;
pub mod compare;
pub mod driver;
pub mod gen;
pub mod probe;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

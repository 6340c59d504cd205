//! # koala-serve
//!
//! Multi-tenant simulation service for the koala-rs stack: a typed job
//! front door over the engine's workloads (ITE ground state, VQE energy,
//! batched random-circuit amplitudes, and gate-list circuits through the
//! `koala-circuit` front end).
//!
//! Two entry points share all scheduling and billing machinery:
//!
//! * the in-process API — build a [`Server`], [`Server::submit`] typed
//!   [`JobSpec`]s for named tenants, [`Server::drain`] the batch, read
//!   [`JobOutcome`]s;
//! * the `serve_stdio` binary — a minimal line-delimited JSON stdin/stdout
//!   server (this build environment is network-free) speaking the same
//!   specs over the wire.
//!
//! # What the service guarantees
//!
//! * **Bit-identical results.** A job's seeds fix its RNG streams and the
//!   executor's determinism contract fixes every floating-point
//!   accumulation order, so a job drained alongside seven others returns
//!   exactly the bits it returns alone.
//! * **Exact billing.** Each job runs inside its own [`WorkMeter`](koala_exec::WorkMeter) scope;
//!   the scope travels with executor tasks, so the [`JobReceipt`] counts
//!   precisely the complex/real multiply-adds and bytes that job caused on
//!   any pool worker — and sibling receipts sum exactly to the process
//!   global meter delta.
//! * **Independent jobs, one plan cache.** A drain runs every job as its
//!   own task, with no ordering between jobs. All of them look their einsum
//!   plans up in the one process-wide plan cache, so a shape any job has
//!   planned is warm for every later one.
//! * **Bounded admission, cooperative eviction.** The queue rejects
//!   overflow ([`koala_error::ErrorKind::Exhausted`]); every job carries a
//!   [`koala_exec::CancelToken`] and an optional deadline enforced by a
//!   watchdog thread.

#![warn(missing_docs)]
// Service code must not panic on fallible paths: every failure becomes a
// `KoalaError` (invalid spec, full queue) or a failed `JobReceipt`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod server;
mod spec;

pub use server::{JobOutcome, JobReceipt, JobStatus, Server, ServerConfig, Submission};
pub use spec::{
    AmplitudeJob, AmplitudeOutput, CircuitJob, CircuitOutput, IteJob, IteOutput, JobResult,
    JobSpec, VqeJob, VqeOutput,
};

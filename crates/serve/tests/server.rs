//! Integration tests of the serve front door: admission control,
//! cancellation, timeouts, signatures, and bit-identity of the
//! chunked execution paths against the engine's single-shot runs.
//!
//! These tests read no process-global counters, so they are safe to run
//! concurrently with each other (the global-delta billing story is pinned by
//! the workspace-root `serve_acceptance` test).

use koala_circuit::{Backend, BackendChoice, Circuit};
use koala_error::ErrorKind;
use koala_peps::{ContractionMethod, Peps};
use koala_serve::{
    AmplitudeJob, IteJob, JobResult, JobSpec, JobStatus, Server, ServerConfig, VqeJob,
};
use koala_sim::{ite_peps, run_vqe, tfi_hamiltonian, IteOptions, TfiParams, VqeBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn small_ite() -> IteJob {
    IteJob { steps: 6, measure_every: 2, seed: 3, ..IteJob::new(2, 2, 2) }
}

fn small_vqe() -> VqeJob {
    let mut job = VqeJob::new(2, 2, VqeBackend::StateVector);
    job.optimizer = koala_sim::Optimizer::NelderMead { scale: 0.4, max_iterations: 10 };
    job
}

fn small_amp() -> AmplitudeJob {
    AmplitudeJob {
        layers: 2,
        entangle_every: 2,
        bitstrings: vec![vec![0, 0, 0, 0], vec![0, 1, 1, 0]],
        ..AmplitudeJob::new(2, 2, ContractionMethod::bmps(8))
    }
}

#[test]
fn invalid_specs_are_rejected_at_submission() {
    let mut server = Server::new(ServerConfig::default());
    let mut bad = small_ite();
    bad.evolution_bond = 0;
    let err = server.submit("tenant", JobSpec::Ite(bad)).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidArgument);
    assert_eq!(server.queued(), 0, "rejected jobs must not occupy the queue");
}

#[test]
fn full_queue_rejects_with_exhausted() {
    let mut server = Server::new(ServerConfig { queue_capacity: 2 });
    server.submit("a", JobSpec::Ite(small_ite())).unwrap();
    server.submit("b", JobSpec::Ite(small_ite())).unwrap();
    let err = server.submit("c", JobSpec::Ite(small_ite())).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Exhausted);
    assert_eq!(server.queued(), 2);
}

#[test]
fn chunked_ite_matches_the_single_shot_engine_run_bit_for_bit() {
    let job = small_ite();
    let h = tfi_hamiltonian(job.nrows, job.ncols, TfiParams { jz: job.jz, hx: job.hx });
    let mut options = IteOptions::new(job.tau, job.steps, job.evolution_bond, job.contraction_bond);
    options.measure_every = job.measure_every;
    let mut rng = StdRng::seed_from_u64(job.seed);
    let reference =
        ite_peps(&Peps::computational_zeros(job.nrows, job.ncols), &h, options, &mut rng).unwrap();

    let mut server = Server::new(ServerConfig::default());
    let outcome = server.run_one("tenant", JobSpec::Ite(job)).unwrap();
    assert_eq!(outcome.receipt.status, JobStatus::Ok);
    let JobResult::Ite(served) = outcome.result.unwrap() else { panic!("wrong result kind") };
    assert_eq!(reference.energies.len(), served.energies.len());
    for (&(sa, ea), &(sb, eb)) in reference.energies.iter().zip(served.energies.iter()) {
        assert_eq!(sa, sb);
        assert_eq!(
            ea.to_bits(),
            eb.to_bits(),
            "chunked serve run diverged from the single-shot engine at step {sa}"
        );
    }
    assert!(outcome.receipt.work.real_macs > 0, "ITE on TFI is an all-real workload");
}

#[test]
fn served_vqe_matches_the_direct_engine_run_bit_for_bit() {
    let job = small_vqe();
    let h = tfi_hamiltonian(job.nrows, job.ncols, TfiParams { jz: job.jz, hx: job.hx });
    let options = koala_sim::VqeOptions {
        layers: job.layers,
        backend: job.backend,
        optimizer: job.optimizer,
    };
    let mut rng = StdRng::seed_from_u64(job.seed);
    let reference = run_vqe(job.nrows, job.ncols, &h, options, None, &mut rng).unwrap();

    let mut server = Server::new(ServerConfig::default());
    let outcome = server.run_one("tenant", JobSpec::Vqe(job)).unwrap();
    assert_eq!(outcome.receipt.status, JobStatus::Ok);
    let JobResult::Vqe(served) = outcome.result.unwrap() else { panic!("wrong result kind") };
    assert_eq!(reference.best_energy.to_bits(), served.best_energy.to_bits());
    assert_eq!(reference.evaluations, served.evaluations);
    assert_eq!(reference.best_params, served.best_params);
}

#[test]
fn pre_drain_cancellation_yields_a_zero_work_cancelled_receipt() {
    let mut server = Server::new(ServerConfig::default());
    let cancelled = server.submit("a", JobSpec::Ite(small_ite())).unwrap();
    server.submit("b", JobSpec::Vqe(small_vqe())).unwrap();
    cancelled.cancel_token().cancel();

    let outcomes = server.drain();
    assert_eq!(outcomes.len(), 2);
    assert_eq!(outcomes[0].receipt.status, JobStatus::Cancelled);
    assert!(outcomes[0].receipt.work.is_zero(), "a never-started job must bill nothing");
    assert!(outcomes[0].result.is_none());
    // The cancelled sibling must not take the batch down.
    assert_eq!(outcomes[1].receipt.status, JobStatus::Ok);
    assert!(outcomes[1].result.is_some());
}

#[test]
fn zero_timeout_reports_timed_out_deterministically() {
    let mut server = Server::new(ServerConfig::default());
    server
        .submit_with_timeout("t", JobSpec::Amplitudes(small_amp()), Some(Duration::ZERO))
        .unwrap();
    let outcomes = server.drain();
    assert_eq!(outcomes[0].receipt.status, JobStatus::TimedOut);
    assert!(outcomes[0].receipt.work.is_zero());
}

#[test]
fn batched_amplitudes_match_the_direct_engine_path_bit_for_bit() {
    let job = small_amp();
    // Reference: the circuit the job denotes, hand-wired through the
    // `koala-circuit` front end on the PEPS backend.
    let mut circuit_rng = StdRng::seed_from_u64(job.circuit_seed);
    let rqc = koala_sim::random_circuit(
        job.nrows,
        job.ncols,
        job.layers,
        job.entangle_every,
        &mut circuit_rng,
    );
    let circuit = Circuit::from_lattice_circuit(&rqc, job.nrows, job.ncols).unwrap();
    let backend = BackendChoice::Fixed(Backend::Peps {
        evolution_bond: job.evolution_bond,
        method: job.method,
    });
    let mut rng = StdRng::seed_from_u64(job.seed);
    let reference =
        koala_circuit::amplitudes(&circuit, &job.bitstrings, backend, &mut rng).unwrap();

    let mut server = Server::new(ServerConfig::default());
    let outcome = server.run_one("tenant", JobSpec::Amplitudes(job)).unwrap();
    assert_eq!(outcome.receipt.status, JobStatus::Ok);
    let JobResult::Amplitudes(out) = outcome.result.unwrap() else { panic!("wrong result kind") };
    assert_eq!(out.amplitudes.len(), reference.amplitudes.len());
    for (served, wanted) in out.amplitudes.iter().zip(&reference.amplitudes) {
        assert_eq!(served.re.to_bits(), wanted.re.to_bits());
        assert_eq!(served.im.to_bits(), wanted.im.to_bits());
    }
    assert_eq!(out.max_bond, reference.max_bond);
    assert!(outcome.receipt.work.bytes > 0, "GEMM interface traffic must be billed");
}

#[test]
fn same_signature_jobs_batch_and_differ_only_by_value_inputs() {
    // Three same-signature ITE jobs — the signature covers shapes only, so
    // jobs may differ in value-level inputs (here the coupling jz) and still
    // share one signature. All complete; the values (not the signature)
    // determine the results.
    let mut server = Server::new(ServerConfig::default());
    for jz in [-1.0, -0.9, -1.0] {
        let job = IteJob { jz, ..small_ite() };
        server.submit("tenant", JobSpec::Ite(job)).unwrap();
    }
    let outcomes = server.drain();
    assert_eq!(outcomes.len(), 3);
    let energies: Vec<u64> = outcomes
        .iter()
        .map(|o| {
            assert_eq!(o.receipt.status, JobStatus::Ok);
            assert_eq!(o.receipt.signature, outcomes[0].receipt.signature);
            let Some(JobResult::Ite(out)) = &o.result else { panic!("wrong result kind") };
            out.final_energy.to_bits()
        })
        .collect();
    assert_eq!(energies[0], energies[2], "same inputs, same signature => identical bits");
    assert_ne!(energies[0], energies[1], "different coupling must change the trajectory");
}

#[test]
fn receipts_carry_tenant_kind_and_ids_in_submission_order() {
    let mut server = Server::new(ServerConfig::default());
    let a = server.submit("alice", JobSpec::Vqe(small_vqe())).unwrap();
    let b = server.submit("bob", JobSpec::Amplitudes(small_amp())).unwrap();
    let outcomes = server.drain();
    assert_eq!(outcomes[0].receipt.job_id, a.job_id);
    assert_eq!(outcomes[0].receipt.tenant, "alice");
    assert_eq!(outcomes[0].receipt.kind, "vqe");
    assert_eq!(outcomes[1].receipt.job_id, b.job_id);
    assert_eq!(outcomes[1].receipt.tenant, "bob");
    assert_eq!(outcomes[1].receipt.kind, "amplitudes");
}

#[test]
fn a_failed_job_reports_the_kind_set_where_the_failure_was_detected() {
    // A valid spec whose coupling overflows the Trotter gates: the SVD's
    // finite guard rejects them in the first step, which fails the run.
    let job = IteJob {
        jz: -1e200,
        tau: 1.0,
        steps: 2,
        contraction_bond: 4,
        measure_every: 1,
        ..IteJob::new(2, 2, 2)
    };
    let mut server = Server::new(ServerConfig::default());
    server.submit("tenant", JobSpec::Ite(job)).unwrap();
    let outcome = server.drain().pop().unwrap();
    assert_eq!(outcome.receipt.status, JobStatus::Failed);
    let error = outcome.error.unwrap();
    assert!(error.starts_with("non-finite:"), "{error}");
    // One frame names the failed step, and nothing ran it again.
    assert!(error.ends_with("while: ite_peps: step 1)"), "{error}");
    assert_eq!(error.matches("ite_peps").count(), 1, "{error}");
    assert!(!error.contains("linear algebra error"), "{error}");
}

#[test]
fn a_vqe_whose_energy_overflows_fails_instead_of_returning_the_penalty() {
    let job = VqeJob {
        jz: -1e200,
        hx: -1e200,
        ..VqeJob::new(2, 2, VqeBackend::Peps { bond: 2, contraction_bond: 4 })
    };
    let mut server = Server::new(ServerConfig::default());
    server.submit("tenant", JobSpec::Vqe(job)).unwrap();
    let outcome = server.drain().pop().unwrap();
    assert_eq!(outcome.receipt.status, JobStatus::Failed);
    assert!(outcome.result.is_none());
    let error = outcome.error.unwrap();
    assert!(error.starts_with("non-finite:"), "{error}");
    assert!(error.ends_with("while: run_vqe: objective evaluation)"), "{error}");
}

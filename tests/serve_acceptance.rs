//! End-to-end acceptance test for the serving layer (ISSUE PR 9; circuit
//! jobs added in PR 10).
//!
//! Ten concurrent jobs across four tenants must (a) return bit-identical
//! results to solo runs, (b) produce per-tenant receipts whose work ledgers
//! sum *exactly* to the process-global meter delta, and (c) record zero
//! einsum plan-cache misses when same-signature jobs re-run warm.
//!
//! A second test drains a batch of jobs that end `Failed`, `TimedOut` and
//! `Cancelled`, then checks that the same server still runs a fresh job
//! exactly as a fresh server does.
//!
//! The global work meter and the plan-cache statistics are process-wide,
//! and Rust runs the tests of one binary on concurrent threads — a sibling
//! test doing tensor work would perturb both deltas — so every test holds
//! `SERIAL` for its whole run.

use koala::circuit::{Backend, BackendChoice, Circuit, Gate1, Gate2};
use koala::exec::{WorkLedger, WorkMeter};
use koala::serve::{
    AmplitudeJob, CircuitJob, IteJob, JobResult, JobSpec, JobStatus, Server, ServerConfig, VqeJob,
};
use koala::sim::{Optimizer, VqeBackend};
use koala::tensor::{plan_stats, reset_plan_stats};
use koala_peps::ContractionMethod;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn ite_a(jz: f64) -> JobSpec {
    JobSpec::Ite(IteJob { jz, steps: 6, measure_every: 2, seed: 3, ..IteJob::new(2, 2, 2) })
}

fn ite_b() -> JobSpec {
    JobSpec::Ite(IteJob { steps: 4, measure_every: 2, seed: 5, ..IteJob::new(2, 3, 1) })
}

fn vqe(backend: VqeBackend, seed: u64) -> JobSpec {
    let mut job = VqeJob::new(2, 2, backend);
    job.optimizer = Optimizer::NelderMead { scale: 0.4, max_iterations: 10 };
    job.seed = seed;
    JobSpec::Vqe(job)
}

fn amp(method: ContractionMethod, seed: u64) -> JobSpec {
    JobSpec::Amplitudes(AmplitudeJob {
        layers: 2,
        entangle_every: 2,
        bitstrings: vec![vec![0, 0, 0, 0], vec![0, 1, 1, 0]],
        seed,
        ..AmplitudeJob::new(2, 2, method)
    })
}

/// A gate-list circuit job through the `koala-circuit` front end, pinned to
/// the MPS backend (the statevector oracle bills no tensor work, and every
/// receipt below must be non-zero). Two jobs with different `theta` share a
/// signature: the gate *structure* is identical, only values differ. The
/// long-range CZ exercises SWAP routing inside the chain evolution.
fn circuit_job(theta: f64, seed: u64) -> JobSpec {
    let n = 5;
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push_one(q, Gate1::H).expect("h");
    }
    for layer in 0..2 {
        for q in 0..n - 1 {
            if (q + layer) % 2 == 0 {
                c.push_two(q, q + 1, Gate2::Cnot).expect("cnot");
            }
        }
        for q in 0..n {
            c.push_one(q, Gate1::Ry(theta + 0.1 * q as f64)).expect("ry");
        }
    }
    c.push_two(0, n - 1, Gate2::Cz).expect("cz");
    JobSpec::Circuit(CircuitJob {
        backend: BackendChoice::Fixed(Backend::Mps { max_bond: 8 }),
        seed,
        ..CircuitJob::new(c, vec![vec![0; n], vec![1, 0, 1, 0, 1], vec![1; n]])
    })
}

/// The ten-job mixed-tenant batch: two same-signature ITE jobs for `alpha`,
/// two VQE backends plus an odd-shaped ITE for `beta`, three amplitude jobs
/// (two sharing a signature) for `gamma`, and two same-signature gate-list
/// circuit jobs for `delta`.
fn batch() -> Vec<(&'static str, JobSpec)> {
    vec![
        ("alpha", ite_a(-1.0)),
        ("alpha", ite_a(-0.9)),
        ("beta", vqe(VqeBackend::StateVector, 11)),
        ("beta", vqe(VqeBackend::Peps { bond: 1, contraction_bond: 2 }, 11)),
        ("beta", ite_b()),
        ("gamma", amp(ContractionMethod::bmps(8), 21)),
        ("gamma", amp(ContractionMethod::bmps(8), 22)),
        ("gamma", amp(ContractionMethod::ibmps(8), 21)),
        ("delta", circuit_job(0.35, 31)),
        ("delta", circuit_job(-0.8, 31)),
    ]
}

/// Bitwise equality of two job results — `==` on floats would also accept
/// `-0.0 == 0.0`, and the service promises *bit* identity.
fn assert_bits_equal(batched: &JobResult, solo: &JobResult, label: &str) {
    match (batched, solo) {
        (JobResult::Ite(a), JobResult::Ite(b)) => {
            assert_eq!(a.energies.len(), b.energies.len(), "{label}: energy trace length");
            for (&(sa, ea), &(sb, eb)) in a.energies.iter().zip(b.energies.iter()) {
                assert_eq!(sa, sb, "{label}: measured steps");
                assert_eq!(ea.to_bits(), eb.to_bits(), "{label}: energy at step {sa}");
            }
            assert_eq!(a.final_energy.to_bits(), b.final_energy.to_bits(), "{label}");
            assert_eq!(a.max_bond, b.max_bond, "{label}");
        }
        (JobResult::Vqe(a), JobResult::Vqe(b)) => {
            assert_eq!(a.best_energy.to_bits(), b.best_energy.to_bits(), "{label}");
            assert_eq!(a.evaluations, b.evaluations, "{label}");
            assert_eq!(a.energy_history.len(), b.energy_history.len(), "{label}");
            for (x, y) in a.energy_history.iter().zip(b.energy_history.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{label}: energy history");
            }
            for (x, y) in a.best_params.iter().zip(b.best_params.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{label}: best params");
            }
        }
        (JobResult::Amplitudes(a), JobResult::Amplitudes(b)) => {
            assert_eq!(a.amplitudes.len(), b.amplitudes.len(), "{label}");
            for (x, y) in a.amplitudes.iter().zip(b.amplitudes.iter()) {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "{label}: amplitude re");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "{label}: amplitude im");
            }
            assert_eq!(a.max_bond, b.max_bond, "{label}");
        }
        (JobResult::Circuit(a), JobResult::Circuit(b)) => {
            assert_eq!(a.amplitudes.len(), b.amplitudes.len(), "{label}");
            for (x, y) in a.amplitudes.iter().zip(b.amplitudes.iter()) {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "{label}: amplitude re");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "{label}: amplitude im");
            }
            assert_eq!(a.backend, b.backend, "{label}: dispatched backend");
            assert_eq!(a.max_bond, b.max_bond, "{label}");
            assert_eq!(a.gates_executed, b.gates_executed, "{label}: executed gate count");
        }
        _ => panic!("{label}: batched and solo runs returned different result kinds"),
    }
}

#[test]
fn ten_concurrent_jobs_bill_exactly_and_match_solo_runs_bit_for_bit() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // --- Solo reference runs: each job alone on a fresh server. ---
    let solo: Vec<JobResult> = batch()
        .into_iter()
        .map(|(tenant, spec)| {
            let mut server = Server::new(ServerConfig::default());
            let outcome = server.run_one(tenant, spec).expect("solo submit");
            assert_eq!(outcome.receipt.status, JobStatus::Ok, "solo run failed");
            outcome.result.expect("solo run produced no result")
        })
        .collect();

    // --- The concurrent batch, bracketed by global-meter snapshots. ---
    let mut server = Server::new(ServerConfig::default());
    for (tenant, spec) in batch() {
        server.submit(tenant, spec).expect("submit");
    }
    let before = WorkMeter::global().ledger();
    let outcomes = server.drain();
    let after = WorkMeter::global().ledger();
    let delta = after.minus(&before);

    assert_eq!(outcomes.len(), solo.len());
    let mut billed = WorkLedger::default();
    for (outcome, reference) in outcomes.iter().zip(solo.iter()) {
        let label = format!(
            "job {} (tenant {}, {})",
            outcome.receipt.job_id, outcome.receipt.tenant, outcome.receipt.signature
        );
        assert_eq!(outcome.receipt.status, JobStatus::Ok, "{label}");
        let result = outcome.result.as_ref().expect("completed job carries a result");
        assert_bits_equal(result, reference, &label);
        assert!(!outcome.receipt.work.is_zero(), "{label}: every job does billable work");
        billed = billed.plus(&outcome.receipt.work);
    }

    // Receipts must account for the batch's work *exactly*: same atomic adds,
    // different views, so not a single MAC or byte may leak either way.
    assert_eq!(billed.complex_macs, delta.complex_macs, "complex-MAC billing leak");
    assert_eq!(billed.real_macs, delta.real_macs, "real-MAC billing leak");
    assert_eq!(billed.bytes, delta.bytes, "byte billing leak");

    // Per-tenant subtotals are plain sums of the per-job ledgers; spot-check
    // that tenants partition the delta.
    let tenant_total = |name: &str| {
        outcomes
            .iter()
            .filter(|o| o.receipt.tenant == name)
            .fold(WorkLedger::default(), |acc, o| acc.plus(&o.receipt.work))
    };
    let partition = tenant_total("alpha")
        .plus(&tenant_total("beta"))
        .plus(&tenant_total("gamma"))
        .plus(&tenant_total("delta"));
    assert_eq!(partition, delta, "tenant subtotals must partition the global delta");

    // --- Warm plan cache: re-running the same-signature groups must plan
    // nothing new. Every shape in these jobs was planned above, so a warm
    // drain performs only cache hits. The circuit batch rides along: a warm
    // served gate-list circuit replays the cold run's contraction plans.
    let mut warm = Server::new(ServerConfig::default());
    warm.submit("alpha", ite_a(-1.0)).expect("submit");
    warm.submit("alpha", ite_a(-0.9)).expect("submit");
    warm.submit("gamma", amp(ContractionMethod::bmps(8), 21)).expect("submit");
    warm.submit("gamma", amp(ContractionMethod::bmps(8), 22)).expect("submit");
    warm.submit("delta", circuit_job(0.35, 31)).expect("submit");
    warm.submit("delta", circuit_job(-0.8, 31)).expect("submit");
    reset_plan_stats();
    let warm_before = WorkMeter::global().ledger();
    let warm_outcomes = warm.drain();
    let warm_delta = WorkMeter::global().ledger().minus(&warm_before);
    let stats = plan_stats();
    assert!(warm_outcomes.iter().all(|o| o.receipt.status == JobStatus::Ok));
    assert_eq!(stats.misses, 0, "warm same-signature jobs must not miss the plan cache");
    assert!(stats.hits > 0, "the warm batch must actually exercise the plan cache");

    // Warm receipts still bill exactly: caching changes planning, not work
    // accounting.
    let warm_billed =
        warm_outcomes.iter().fold(WorkLedger::default(), |acc, o| acc.plus(&o.receipt.work));
    assert_eq!(warm_billed, warm_delta, "warm receipts must sum exactly to the meter delta");
}

#[test]
fn a_server_runs_fresh_jobs_exactly_after_failed_timed_out_and_cancelled_ones() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // A valid spec whose coupling overflows the Trotter gates: the SVD's
    // finite guard rejects them and the job fails.
    let failing = JobSpec::Ite(IteJob {
        jz: -1e200,
        tau: 1.0,
        steps: 2,
        contraction_bond: 4,
        measure_every: 1,
        ..IteJob::new(2, 2, 2)
    });
    let mut server = Server::new(ServerConfig::default());
    server.submit("alpha", failing).expect("submit");
    server
        .submit_with_timeout("beta", amp(ContractionMethod::bmps(8), 21), Some(Duration::ZERO))
        .expect("submit");
    let cancelled = server.submit("gamma", ite_b()).expect("submit");
    cancelled.cancel_token().cancel();
    let statuses: Vec<JobStatus> = server.drain().iter().map(|o| o.receipt.status).collect();
    assert_eq!(statuses, [JobStatus::Failed, JobStatus::TimedOut, JobStatus::Cancelled]);

    // The amplitude job runs its bitstrings as nested tasks of the drain.
    let fresh = || amp(ContractionMethod::ibmps(8), 22);
    server.submit("delta", fresh()).expect("submit");
    let before = WorkMeter::global().ledger();
    let outcome = server.drain().pop().expect("one outcome");
    let delta = WorkMeter::global().ledger().minus(&before);
    assert_eq!(outcome.receipt.status, JobStatus::Ok, "{:?}", outcome.error);
    assert_eq!(outcome.receipt.work, delta, "the fresh job must bill the whole meter delta");

    let solo = Server::new(ServerConfig::default()).run_one("delta", fresh()).expect("submit");
    assert_eq!(solo.receipt.status, JobStatus::Ok);
    assert_eq!(outcome.receipt.work, solo.receipt.work, "ledger differs from a fresh server's");
    let (result, reference) = (outcome.result.expect("result"), solo.result.expect("result"));
    assert_bits_equal(&result, &reference, "fresh job after failures");
}

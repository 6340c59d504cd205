//! The in-process job server: bounded queue, concurrent drain, per-job
//! cancellation/timeout, and exact per-tenant work receipts.
//!
//! Circuits have one lowering: an [`AmplitudeJob`] runs as the
//! [`CircuitJob`] it denotes, through `koala_circuit::amplitudes`.

use crate::spec::{
    AmplitudeJob, AmplitudeOutput, CircuitJob, CircuitOutput, IteJob, IteOutput, JobResult,
    JobSpec, VqeJob, VqeOutput,
};
use koala_circuit::{AmplitudeBatch, Backend, BackendChoice, Circuit};
use koala_error::{ErrorKind, KoalaError, Result};
use koala_exec::{CancelToken, TaskGraph, TaskKind, WorkLedger, WorkMeter};
use koala_peps::Peps;
use koala_sim::{
    ite_checkpoint, ite_peps_from, random_circuit, run_vqe_cancellable, tfi_hamiltonian,
    IteOptions, TfiParams, VqeOptions,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Terminal state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed; the outcome carries a [`JobResult`].
    Ok,
    /// The engine reported an error; the outcome carries the message.
    Failed,
    /// The job's [`CancelToken`] fired before or during execution.
    Cancelled,
    /// The job's deadline passed; the watchdog cancelled it.
    TimedOut,
}

impl JobStatus {
    /// Wire tag used by the `serve_stdio` protocol.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::TimedOut => "timed_out",
        }
    }
}

/// Billing record of one job: exactly the work its execution billed to its
/// private [`WorkMeter`] scope — GEMM multiply-adds, GEMM interface bytes,
/// and (for distributed workloads) cluster payload wire bytes. Receipts of
/// concurrently drained jobs sum exactly to the global meter delta.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReceipt {
    /// Tenant that submitted the job.
    pub tenant: String,
    /// Server-assigned job id (unique per [`Server`]).
    pub job_id: u64,
    /// Job kind tag (`"ite"` / `"vqe"` / `"amplitudes"` / `"circuit"`).
    pub kind: &'static str,
    /// The job's workload signature ([`JobSpec::signature`]): its shape
    /// class, reported for grouping receipts; it does not affect scheduling.
    pub signature: String,
    /// Work billed to the job's meter scope.
    pub work: WorkLedger,
    /// Wall-clock execution time (zero for jobs cancelled before starting).
    pub wall: Duration,
    /// Terminal state.
    pub status: JobStatus,
}

/// A completed job: the billing receipt plus the result (on success) or the
/// error message (on failure/cancellation/timeout).
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The billing receipt.
    pub receipt: JobReceipt,
    /// The typed result; `Some` exactly when `receipt.status` is
    /// [`JobStatus::Ok`].
    pub result: Option<JobResult>,
    /// Error message; `Some` exactly when the job did not complete.
    pub error: Option<String>,
}

impl JobOutcome {
    /// Serialise to the wire form emitted by the `serve_stdio` binary: the
    /// receipt flattened alongside the result object.
    pub fn to_json(&self) -> koala_json::JsonValue {
        use koala_json::JsonValue;
        let mut fields = vec![
            ("op".to_string(), JsonValue::str("result")),
            ("job_id".to_string(), JsonValue::num(self.receipt.job_id as f64)),
            ("tenant".to_string(), JsonValue::str(self.receipt.tenant.clone())),
            ("kind".to_string(), JsonValue::str(self.receipt.kind)),
            ("signature".to_string(), JsonValue::str(self.receipt.signature.clone())),
            ("status".to_string(), JsonValue::str(self.receipt.status.as_str())),
            ("complex_macs".to_string(), JsonValue::num(self.receipt.work.complex_macs as f64)),
            ("real_macs".to_string(), JsonValue::num(self.receipt.work.real_macs as f64)),
            ("bytes".to_string(), JsonValue::num(self.receipt.work.bytes as f64)),
            ("wall_s".to_string(), JsonValue::num(self.receipt.wall.as_secs_f64())),
        ];
        if let Some(result) = &self.result {
            fields.push(("result".to_string(), result.to_json()));
        }
        if let Some(error) = &self.error {
            fields.push(("error".to_string(), JsonValue::str(error.clone())));
        }
        JsonValue::Object(fields)
    }
}

/// Handle returned by [`Server::submit`]: the assigned job id and the job's
/// cancellation token.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Server-assigned job id; matches the eventual receipt.
    pub job_id: u64,
    cancel: CancelToken,
}

impl Submission {
    /// The job's cancellation token. Cancelling before [`Server::drain`]
    /// yields a [`JobStatus::Cancelled`] receipt with a zero work ledger;
    /// cancelling mid-run stops the job at its next cooperative check.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum number of queued (not yet drained) jobs; a full queue rejects
    /// submissions with [`ErrorKind::Exhausted`].
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { queue_capacity: 64 }
    }
}

struct QueuedJob {
    id: u64,
    tenant: String,
    spec: JobSpec,
    cancel: CancelToken,
    timeout: Option<Duration>,
    timed_out: Arc<AtomicBool>,
}

/// The multi-tenant job front door.
///
/// # Job lifecycle
///
/// 1. [`submit`](Server::submit) validates the [`JobSpec`] and enqueues it
///    (bounded queue; overflow is [`ErrorKind::Exhausted`]).
/// 2. [`drain`](Server::drain) schedules every queued job as one
///    independent task of a task graph on the shared `koala-exec` pool. All
///    jobs share the process-wide einsum plan cache.
/// 3. Each job executes inside its own [`WorkMeter`] scope, so its
///    [`JobReceipt`] bills exactly the multiply-adds and bytes it caused —
///    on whatever pool workers its tasks ran — and sibling receipts sum
///    exactly to the global meter delta.
///
/// Results are bit-identical to running the job alone: job seeds fix every
/// RNG stream, and the executor's determinism contract fixes every
/// floating-point accumulation order regardless of scheduling.
pub struct Server {
    config: ServerConfig,
    queue: Vec<QueuedJob>,
    next_id: u64,
}

impl Server {
    /// Build a server. Jobs run on the shared `koala-exec` pool, sized by
    /// [`koala_exec::set_threads`].
    pub fn new(config: ServerConfig) -> Server {
        Server { config, queue: Vec::new(), next_id: 1 }
    }

    /// Number of jobs waiting for the next [`drain`](Server::drain).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Validate and enqueue a job with no deadline.
    pub fn submit(&mut self, tenant: &str, spec: JobSpec) -> Result<Submission> {
        self.submit_with_timeout(tenant, spec, None)
    }

    /// Validate and enqueue a job with an explicit per-job deadline
    /// (`None` = no deadline).
    pub fn submit_with_timeout(
        &mut self,
        tenant: &str,
        spec: JobSpec,
        timeout: Option<Duration>,
    ) -> Result<Submission> {
        spec.validate()?;
        if self.queue.len() >= self.config.queue_capacity {
            return Err(KoalaError::new(
                ErrorKind::Exhausted,
                format!("job queue full ({} jobs queued)", self.queue.len()),
            ));
        }
        let id = self.next_id;
        self.next_id += 1;
        let cancel = CancelToken::new();
        self.queue.push(QueuedJob {
            id,
            tenant: tenant.to_string(),
            spec,
            cancel: cancel.clone(),
            timeout,
            timed_out: Arc::new(AtomicBool::new(false)),
        });
        Ok(Submission { job_id: id, cancel })
    }

    /// Execute every queued job and return their outcomes in submission
    /// order. Blocks until all jobs reach a terminal state; a failed or
    /// cancelled job never aborts its batch.
    pub fn drain(&mut self) -> Vec<JobOutcome> {
        let jobs = std::mem::take(&mut self.queue);
        if jobs.is_empty() {
            return Vec::new();
        }

        // Deadline watchdog: one thread cancels tokens past their deadline.
        // Fires `timed_out` strictly before cancelling, so the executing job
        // can always tell a timeout from a plain cancellation.
        let drain_done = Arc::new(AtomicBool::new(false));
        let watchdog = spawn_watchdog(&jobs, &drain_done);

        let slots: Vec<Mutex<Option<JobOutcome>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        let mut graph = TaskGraph::new();
        for (job, slot) in jobs.iter().zip(&slots) {
            graph.add(TaskKind::Other, &[], move || {
                *lock(slot) = Some(execute_job(job));
                Ok(()) // job errors live in the outcome; never abort the batch
            });
        }
        let run = graph.run();

        drain_done.store(true, Ordering::Release);
        if let Some(handle) = watchdog {
            let _ = handle.join();
        }

        jobs.iter()
            .zip(slots)
            .map(|(job, slot)| {
                lock(&slot).take().unwrap_or_else(|| {
                    // Only reachable if the executor aborted the batch run
                    // (e.g. a panic inside a job); synthesise a failure so
                    // every submission still gets a terminal outcome.
                    let message = run
                        .as_ref()
                        .err()
                        .map_or_else(|| "job did not run".to_string(), KoalaError::to_string);
                    JobOutcome {
                        receipt: receipt_for(
                            job,
                            WorkLedger::default(),
                            Duration::ZERO,
                            JobStatus::Failed,
                        ),
                        result: None,
                        error: Some(message),
                    }
                })
            })
            .collect()
    }

    /// Convenience: submit one job and drain immediately — the "run it
    /// alone" reference path for bit-identity checks.
    pub fn run_one(&mut self, tenant: &str, spec: JobSpec) -> Result<JobOutcome> {
        self.submit(tenant, spec)?;
        let mut outcomes = self.drain();
        outcomes.pop().ok_or_else(|| {
            KoalaError::new(ErrorKind::Io, "drain returned no outcome for the submitted job")
        })
    }
}

/// Spawn the deadline watchdog if any job has a positive timeout. Jobs with
/// a zero timeout are handled deterministically in [`execute_job`] instead,
/// so tests never race the watchdog clock.
fn spawn_watchdog(
    jobs: &[QueuedJob],
    drain_done: &Arc<AtomicBool>,
) -> Option<std::thread::JoinHandle<()>> {
    let mut deadlines: Vec<(Instant, CancelToken, Arc<AtomicBool>)> = jobs
        .iter()
        .filter_map(|j| {
            let t = j.timeout.filter(|t| !t.is_zero())?;
            Some((Instant::now() + t, j.cancel.clone(), Arc::clone(&j.timed_out)))
        })
        .collect();
    if deadlines.is_empty() {
        return None;
    }
    let done = Arc::clone(drain_done);
    std::thread::Builder::new()
        .name("koala-serve-watchdog".to_string())
        .spawn(move || {
            while !done.load(Ordering::Acquire) && !deadlines.is_empty() {
                let now = Instant::now();
                deadlines.retain(|(deadline, cancel, timed_out)| {
                    if now >= *deadline {
                        timed_out.store(true, Ordering::Release);
                        cancel.cancel();
                        false
                    } else {
                        true
                    }
                });
                std::thread::sleep(Duration::from_millis(2));
            }
        })
        .ok()
}

fn receipt_for(job: &QueuedJob, work: WorkLedger, wall: Duration, status: JobStatus) -> JobReceipt {
    JobReceipt {
        tenant: job.tenant.clone(),
        job_id: job.id,
        kind: job.spec.kind(),
        signature: job.spec.signature(),
        work,
        wall,
        status,
    }
}

/// Run one job inside its own meter scope and fold the result, the billing
/// ledger, and the terminal status into a [`JobOutcome`].
fn execute_job(job: &QueuedJob) -> JobOutcome {
    // A zero timeout means "already past deadline": report it without
    // running, deterministically (no watchdog race).
    if job.timeout.is_some_and(|t| t.is_zero()) {
        job.timed_out.store(true, Ordering::Release);
        job.cancel.cancel();
    }
    if job.cancel.is_cancelled() {
        let status = if job.timed_out.load(Ordering::Acquire) {
            JobStatus::TimedOut
        } else {
            JobStatus::Cancelled
        };
        return JobOutcome {
            receipt: receipt_for(job, WorkLedger::default(), Duration::ZERO, status),
            result: None,
            error: Some("cancelled before execution".to_string()),
        };
    }

    let meter = WorkMeter::new();
    let start = Instant::now();
    let run = meter.scope(|| run_spec(&job.spec, &job.cancel));
    let wall = start.elapsed();
    let work = meter.ledger();

    match run {
        Ok(result) => JobOutcome {
            receipt: receipt_for(job, work, wall, JobStatus::Ok),
            result: Some(result),
            error: None,
        },
        Err(e) => {
            let status = if e.kind() == ErrorKind::Cancelled {
                if job.timed_out.load(Ordering::Acquire) {
                    JobStatus::TimedOut
                } else {
                    JobStatus::Cancelled
                }
            } else {
                JobStatus::Failed
            };
            JobOutcome {
                receipt: receipt_for(job, work, wall, status),
                result: None,
                error: Some(e.to_string()),
            }
        }
    }
}

fn cancelled() -> KoalaError {
    KoalaError::new(ErrorKind::Cancelled, "job cancelled")
}

/// Dispatch a validated spec to the engine, honouring the cancel token at
/// every cooperative boundary.
fn run_spec(spec: &JobSpec, cancel: &CancelToken) -> Result<JobResult> {
    match spec {
        JobSpec::Ite(job) => run_ite(job, cancel),
        JobSpec::Vqe(job) => run_vqe_job(job, cancel),
        JobSpec::Amplitudes(job) => {
            let AmplitudeBatch { amplitudes, max_bond, .. } =
                run_circuit(&circuit_job(job)?, cancel)?;
            Ok(JobResult::Amplitudes(AmplitudeOutput { amplitudes, max_bond }))
        }
        JobSpec::Circuit(job) => {
            let batch = run_circuit(job, cancel)?;
            Ok(JobResult::Circuit(CircuitOutput {
                amplitudes: batch.amplitudes,
                backend: batch.backend.tag().to_string(),
                max_bond: batch.max_bond,
                gates_submitted: batch.gates_submitted,
                gates_executed: batch.gates_executed,
            }))
        }
    }
}

/// ITE with cooperative cancellation, bit-identical to a single-shot
/// [`koala_sim::ite_peps`] run.
///
/// The evolution is chunked at *measurement boundaries* (multiples of
/// `measure_every`, plus the final step), because [`ite_peps_from`] measures
/// at `step == options.steps` — stopping anywhere else would insert an extra
/// measurement, consume extra RNG draws, and fork the trajectory. Chunk ends
/// coincide with steps the single-shot run measures anyway, so the RNG
/// stream and every energy are reproduced exactly; the token is checked
/// between chunks.
fn run_ite(job: &IteJob, cancel: &CancelToken) -> Result<JobResult> {
    let h = tfi_hamiltonian(job.nrows, job.ncols, TfiParams { jz: job.jz, hx: job.hx });
    let mut options = IteOptions::new(job.tau, job.steps, job.evolution_bond, job.contraction_bond);
    options.measure_every = job.measure_every;

    let rng = StdRng::seed_from_u64(job.seed);
    let mut state = ite_checkpoint(&Peps::computational_zeros(job.nrows, job.ncols), &rng);
    let mut last = None;
    while state.step() < job.steps {
        if cancel.is_cancelled() {
            return Err(cancelled());
        }
        let boundary = (state.step() / job.measure_every + 1) * job.measure_every;
        let mut chunk = options;
        chunk.steps = boundary.min(job.steps);
        let (result, end) = ite_peps_from(state, &h, chunk)?;
        last = Some(result);
        state = end;
    }
    let result = match last {
        Some(r) => r,
        // steps >= 1 is validated, so the loop ran at least once.
        None => return Err(KoalaError::invalid("ite: zero steps")),
    };
    Ok(JobResult::Ite(IteOutput {
        final_energy: result.final_energy(),
        max_bond: result.final_state.max_bond(),
        energies: result.energies,
    }))
}

/// VQE via [`run_vqe_cancellable`]: once the token fires, objective
/// evaluations short-circuit and the run unwinds; a cancelled run reports
/// [`ErrorKind::Cancelled`] rather than its partial optimum.
fn run_vqe_job(job: &VqeJob, cancel: &CancelToken) -> Result<JobResult> {
    if cancel.is_cancelled() {
        return Err(cancelled());
    }
    let h = tfi_hamiltonian(job.nrows, job.ncols, TfiParams { jz: job.jz, hx: job.hx });
    let options = VqeOptions { layers: job.layers, backend: job.backend, optimizer: job.optimizer };
    let mut rng = StdRng::seed_from_u64(job.seed);
    let result =
        run_vqe_cancellable(job.nrows, job.ncols, &h, options, None, &mut rng, Some(cancel))?;
    if cancel.is_cancelled() {
        return Err(cancelled());
    }
    Ok(JobResult::Vqe(VqeOutput {
        best_energy: result.best_energy,
        energy_history: result.energy_history,
        best_params: result.best_params,
        evaluations: result.evaluations,
    }))
}

/// The circuit job an amplitude job denotes: its seeded random circuit,
/// imported onto the job's lattice, on the PEPS backend at the job's
/// evolution bond and contraction method.
fn circuit_job(job: &AmplitudeJob) -> Result<CircuitJob> {
    let mut rng = StdRng::seed_from_u64(job.circuit_seed);
    let rqc = random_circuit(job.nrows, job.ncols, job.layers, job.entangle_every, &mut rng);
    let circuit = Circuit::from_lattice_circuit(&rqc, job.nrows, job.ncols)?;
    let peps = Backend::Peps { evolution_bond: job.evolution_bond, method: job.method };
    let (bitstrings, backend) = (job.bitstrings.clone(), BackendChoice::Fixed(peps));
    Ok(CircuitJob { circuit, bitstrings, backend, seed: job.seed })
}

/// A circuit through the front-end dispatcher. The heavy lifting
/// (simplify -> light-cone prune -> evolution -> one task per bitstring)
/// is one engine call, so the token is checked at entry only: circuits are
/// bounded by `MAX_CIRCUIT_GATES`, amplitude jobs by the lattice cap.
fn run_circuit(job: &CircuitJob, cancel: &CancelToken) -> Result<AmplitudeBatch> {
    if cancel.is_cancelled() {
        return Err(cancelled());
    }
    let mut rng = StdRng::seed_from_u64(job.seed);
    koala_circuit::amplitudes(&job.circuit, &job.bitstrings, job.backend, &mut rng)
}

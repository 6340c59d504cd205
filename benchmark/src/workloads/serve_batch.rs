//! `serve_batch` — the multi-tenant front door: 16 jobs from 4 tenants as
//! JSON-lines text, built once at set-up.
//!
//! * 4 ITE jobs (3x3, r = 2; two share a signature),
//! * 4 VQE jobs (3x3; two state-vector, two PEPS at bond 2; Nelder-Mead),
//! * 4 `AmplitudeJob`s (3x3; `bmps(8)` and `ibmps(8)`),
//! * 4 `CircuitJob`s (24-qubit brick-wall chain on the MPS backend at bond
//!   16; two share a structure).
//!
//! One iteration mirrors `serve_stdio::handle_line` in process, line by
//! line: `JsonValue::parse` -> `JobSpec::from_json` -> `Server::submit`,
//! then `drain` -> `JobOutcome::to_json().pretty()`. The serving layer, the
//! wire format, executor scheduling and small-tensor overhead on warm plans
//! dominate; the big kernels do little. The cold drain is `setup_s`.

use super::{Control, Workload};
use crate::gen::{fnv1a, SplitMix};
use crate::probe::Metrics;
use crate::stats::median;
use crate::trace::{per_iteration, spanned, Span, Tracer};
use koala_circuit::{Backend, BackendChoice, Circuit, Gate1, Gate2};
use koala_json::JsonValue;
use koala_linalg::{WorkLedger, WorkMeter};
use koala_peps::ContractionMethod;
use koala_serve::{
    AmplitudeJob, CircuitJob, IteJob, JobOutcome, JobResult, JobSpec, JobStatus, Server,
    ServerConfig, VqeJob,
};
use koala_sim::{ite_statevector, tfi_hamiltonian, Optimizer, StateVector, TfiParams, VqeBackend};

/// Jobs per iteration.
const UNITS: u64 = 16;
const TENANTS: usize = 4;
const ITE_STEPS: usize = 8;
const VQE_ITERATIONS: usize = 2;
const CHAIN_QUBITS: usize = 24;
const CHAIN_BOND: usize = 16;

pub struct ServeBatch {
    lines: Vec<String>,
    first_ite: IteJob,
    server: Server,
    outcomes: Vec<JobOutcome>,
    drain_work: WorkLedger,
    wire_bytes: usize,
    reference_outputs: Option<Vec<String>>,
    wrong_reference: bool,
    energy_err: f64,
}

/// One line per message, as `serve_stdio` writes them.
fn compact(v: &JsonValue) -> String {
    v.pretty().lines().map(str::trim_start).collect::<Vec<_>>().join("")
}

/// A brick-wall chain circuit: `layers` rounds of seeded one-qubit rotations
/// followed by CNOTs on alternating neighbour pairs, so every cut is crossed
/// `layers / 2` times.
fn chain_circuit(layers: usize, stream: &mut SplitMix) -> Result<Circuit, String> {
    let mut circuit = Circuit::new(CHAIN_QUBITS);
    for layer in 0..layers {
        for q in 0..CHAIN_QUBITS {
            let angle = stream.next_f64() * std::f64::consts::TAU;
            let gate = if (q + layer) % 3 == 0 { Gate1::Rz(angle) } else { Gate1::Ry(angle) };
            circuit.push_one(q, gate).map_err(|e| e.to_string())?;
        }
        for q in (layer % 2..CHAIN_QUBITS - 1).step_by(2) {
            circuit.push_two(q, q + 1, Gate2::Cnot).map_err(|e| e.to_string())?;
        }
    }
    Ok(circuit)
}

fn bitstrings(count: usize, bits: usize, stream: &mut SplitMix) -> Vec<Vec<usize>> {
    (0..count)
        .map(|_| {
            let word = stream.next_u64();
            (0..bits).map(|q| ((word >> q) & 1) as usize).collect()
        })
        .collect()
}

fn specs(stream: &mut SplitMix) -> Result<Vec<JobSpec>, String> {
    let mut jobs = Vec::new();
    // ITE: jobs 0 and 1 share a signature (couplings and seeds are not part of it).
    for (k, (steps, contraction_bond)) in
        [(ITE_STEPS, 4), (ITE_STEPS, 4), (ITE_STEPS - 2, 4), (ITE_STEPS, 6)].into_iter().enumerate()
    {
        let mut job = IteJob::new(3, 3, 2);
        job.steps = steps;
        job.contraction_bond = contraction_bond;
        job.hx = -2.0 - 0.25 * k as f64;
        job.seed = stream.next_u64() >> 12; // the wire carries numbers as f64
        jobs.push(JobSpec::Ite(job));
    }
    for backend in [
        VqeBackend::StateVector,
        VqeBackend::StateVector,
        VqeBackend::Peps { bond: 2, contraction_bond: 4 },
        VqeBackend::Peps { bond: 2, contraction_bond: 4 },
    ] {
        let mut job = VqeJob::new(3, 3, backend);
        job.optimizer = Optimizer::NelderMead { scale: 0.4, max_iterations: VQE_ITERATIONS };
        job.seed = stream.next_u64() >> 12;
        jobs.push(JobSpec::Vqe(job));
    }
    // The circuits are frozen generic instances: an RQC's cost is a property
    // of its gate pattern (near-Clifford instances are up to 20x cheaper).
    for (method, circuit_seed) in [
        (ContractionMethod::bmps(8), 0),
        (ContractionMethod::ibmps(8), 1),
        (ContractionMethod::bmps(8), 2),
        (ContractionMethod::ibmps(8), 7),
    ] {
        let mut job = AmplitudeJob::new(3, 3, method);
        job.circuit_seed = circuit_seed;
        job.seed = stream.next_u64() >> 12;
        job.bitstrings = bitstrings(2, 9, stream);
        jobs.push(JobSpec::Amplitudes(job));
    }
    // Circuits: jobs 0 and 1 share a structure (same gates, other angles).
    for layers in [8, 8, 6, 7] {
        let mut job =
            CircuitJob::new(chain_circuit(layers, stream)?, bitstrings(4, CHAIN_QUBITS, stream));
        job.backend = BackendChoice::Fixed(Backend::Mps { max_bond: CHAIN_BOND });
        job.seed = stream.next_u64() >> 12;
        jobs.push(JobSpec::Circuit(job));
    }
    Ok(jobs)
}

impl ServeBatch {
    pub fn build(stream: &mut SplitMix, control: Control) -> Result<Self, String> {
        let jobs = specs(stream)?;
        let JobSpec::Ite(first_ite) = jobs[0].clone() else { unreachable!("job 0 is an ITE job") };
        // Interleave the kinds so every tenant submits one job of each.
        let mut lines: Vec<String> = (0..jobs.len())
            .map(|slot| {
                let job = &jobs[(slot % 4) * 4 + slot / 4];
                compact(&JsonValue::object([
                    ("op", JsonValue::str("submit")),
                    ("tenant", JsonValue::str(format!("tenant-{}", slot / (jobs.len() / TENANTS)))),
                    ("job", job.to_json()),
                ]))
            })
            .collect();
        lines.push(compact(&JsonValue::object([("op", JsonValue::str("drain"))])));
        Ok(ServeBatch {
            lines,
            first_ite,
            server: Server::new(ServerConfig::default()),
            outcomes: Vec::new(),
            drain_work: WorkLedger::default(),
            wire_bytes: 0,
            reference_outputs: None,
            wrong_reference: control.wrong_reference,
            energy_err: f64::NAN,
        })
    }
}

impl Workload for ServeBatch {
    fn units(&self) -> u64 {
        UNITS
    }

    fn run(&mut self, _i: usize, mut tracer: Option<&mut Tracer>) -> Result<(), String> {
        let t = &mut tracer;
        self.outcomes.clear();
        self.wire_bytes = 0;
        for line in &self.lines {
            self.wire_bytes += line.len();
            let request = spanned(t, "json.parse", || JsonValue::parse(line))?;
            match request.get("op").and_then(JsonValue::as_str) {
                Some("submit") => {
                    let tenant =
                        request.get("tenant").and_then(JsonValue::as_str).unwrap_or("anonymous");
                    let job = request.get("job").ok_or("submit: missing 'job' object")?;
                    let spec = spanned(t, "serve.from_json", || JobSpec::from_json(job))
                        .map_err(|e| e.to_string())?;
                    spanned(t, "serve.submit", || self.server.submit(tenant, spec))
                        .map_err(|e| e.to_string())?;
                }
                Some("drain") => {
                    let before = WorkMeter::global().ledger();
                    self.outcomes = spanned(t, "serve.drain", || self.server.drain());
                    self.drain_work = WorkMeter::global().ledger().minus(&before);
                    for outcome in &self.outcomes {
                        let emit = t.as_mut().map(|t| t.enter("serve.emit"));
                        let value = outcome.to_json();
                        let text = spanned(t, "json.emit", || compact(&value));
                        if let (Some(t), Some(id)) = (t.as_mut(), emit) {
                            t.exit(id);
                        }
                        self.wire_bytes += std::hint::black_box(text).len();
                    }
                }
                other => return Err(format!("unexpected op {other:?}")),
            }
        }
        Ok(())
    }

    fn check(&mut self, _i: usize) -> Result<(), String> {
        if self.outcomes.len() != UNITS as usize {
            return Err(format!("{} outcomes for {UNITS} jobs", self.outcomes.len()));
        }
        let mut billed = WorkLedger::default();
        let mut outputs = Vec::with_capacity(self.outcomes.len());
        for outcome in &self.outcomes {
            let r = &outcome.receipt;
            if r.status != JobStatus::Ok {
                return Err(format!(
                    "job {} ({}) ended {:?}: {:?}",
                    r.job_id, r.kind, r.status, outcome.error
                ));
            }
            billed = billed.plus(&r.work);
            let result = outcome.result.as_ref().ok_or("completed job without a result")?;
            outputs.push(result.to_json().pretty());
        }
        if billed != self.drain_work {
            return Err(format!(
                "receipts bill {billed:?} but the global meter moved by {:?}",
                self.drain_work
            ));
        }
        let wrong = self.wrong_reference;
        let reference = self.reference_outputs.get_or_insert_with(|| {
            let mut first = outputs.clone();
            if wrong {
                first[0].push(' ');
            }
            first
        });
        match outputs.iter().zip(reference.iter()).position(|(got, want)| got != want) {
            None => Ok(()),
            Some(k) => Err(format!("output of job {k} differs from the first drain")),
        }
    }

    /// The first ITE job's final energy against exact state-vector ITE.
    fn finish(&mut self) -> Result<(), String> {
        let job = &self.first_ite;
        let h = tfi_hamiltonian(job.nrows, job.ncols, TfiParams { jz: job.jz, hx: job.hx });
        let sv = StateVector::computational_zeros(job.nrows, job.ncols);
        let reference = ite_statevector(&sv, &h, job.tau, job.steps).map_err(|e| e.to_string())?;
        let reference = reference.last().ok_or("empty reference trajectory")?.1;
        let got = self
            .outcomes
            .iter()
            .find_map(|o| match (&o.result, o.receipt.kind) {
                (Some(JobResult::Ite(out)), "ite") => Some(out.final_energy),
                _ => None,
            })
            .ok_or("no ITE outcome")?;
        self.energy_err = (got - reference).abs();
        if self.energy_err <= 5e-2 {
            Ok(())
        } else {
            Err(format!("served ITE energy {got} differs from the reference {reference}"))
        }
    }

    fn input_checksum(&self) -> u64 {
        fnv1a(self.lines.join("\n").as_bytes())
    }

    fn layer_metrics(&mut self, spans: &[Span], _iter_ms: f64) -> Metrics {
        let mut out = Metrics::new();
        for (metric, span) in [
            ("json.parse_ms", "json.parse"),
            ("json.emit_ms", "json.emit"),
            ("serve.from_json_ms", "serve.from_json"),
            ("serve.submit_ms", "serve.submit"),
            ("serve.drain_ms", "serve.drain"),
            ("serve.emit_ms", "serve.emit"),
        ] {
            out.push((metric, per_iteration(spans, span).0));
        }
        out.push(("json.wire_bytes", self.wire_bytes as f64));
        let walls: Vec<f64> =
            self.outcomes.iter().map(|o| o.receipt.wall.as_secs_f64() * 1e3).collect();
        out.push(("serve.job_wall_p50_ms", median(&walls)));
        let ok = self.outcomes.iter().filter(|o| o.receipt.status == JobStatus::Ok).count();
        out.push(("serve.jobs_ok", ok as f64));

        let (mut submitted, mut executed, mut circuit_bond, mut peps_bond) = (0, 0, 0, 0);
        for outcome in &self.outcomes {
            match &outcome.result {
                Some(JobResult::Circuit(c)) => {
                    submitted += c.gates_submitted;
                    executed += c.gates_executed;
                    circuit_bond = circuit_bond.max(c.max_bond);
                }
                Some(JobResult::Ite(o)) => peps_bond = peps_bond.max(o.max_bond),
                Some(JobResult::Amplitudes(a)) => peps_bond = peps_bond.max(a.max_bond),
                _ => {}
            }
        }
        out.push(("circuit.gates_submitted", submitted as f64));
        out.push(("circuit.gates_executed", executed as f64));
        out.push(("circuit.max_bond", circuit_bond as f64));
        out.push(("core.max_bond", peps_bond as f64));
        if let Some(ite) = self.outcomes.iter().find(|o| o.receipt.kind == "ite") {
            out.push((
                "sim.step_ms",
                ite.receipt.wall.as_secs_f64() * 1e3 / self.first_ite.steps as f64,
            ));
        }
        out.push(("sim.energy_err", self.energy_err));
        out
    }
}

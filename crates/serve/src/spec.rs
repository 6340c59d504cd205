//! Typed job specifications and results.
//!
//! A [`JobSpec`] is a self-contained, validated description of one unit of
//! service work — everything the engine needs to reproduce the run bit for
//! bit (lattice shape, model couplings, algorithm knobs, and the RNG seeds).
//! The variants mirror the repository's example workloads:
//!
//! * [`IteJob`] — imaginary-time-evolution ground-state search (Figure 13),
//! * [`VqeJob`] — variational ground-state energy (Figure 14),
//! * [`AmplitudeJob`] — batched random-circuit output amplitudes (Figure 10),
//! * [`CircuitJob`] — an arbitrary gate-list circuit through the
//!   `koala-circuit` front end (simplify, light-cone, backend dispatch),
//!   answering a batch of bitstring amplitude queries.
//!
//! Every spec has a [`signature`](JobSpec::signature): a string key over the
//! *shape-determining* fields (lattice, bonds, layers, step counts — but not
//! value-level inputs like couplings or value seeds). Jobs sharing a
//! signature execute the same einsum specs on the same tensor shapes, so the
//! scheduler runs them leader-first and the followers hit warm plan-cache
//! stripes (see [`crate::Server::drain`]). The amplitude signature *does*
//! include the circuit seed, because the random circuit's gate placement
//! determines the evolved bond dimensions and hence the contraction shapes.

use koala_circuit::{Backend, BackendChoice, Circuit, Gate, Gate1, Gate2};
use koala_error::{ErrorKind, KoalaError, ResultExt};
use koala_json::JsonValue;
use koala_linalg::{c64, Matrix, C64};
use koala_peps::ContractionMethod;
use koala_sim::{Optimizer, VqeBackend};

pub use koala_error::Result;

fn invalid(msg: impl Into<String>) -> KoalaError {
    KoalaError::invalid(msg)
}

/// The wire boundary: whatever a client sent wrong is `InvalidArgument`,
/// including what a lower layer rejected with another kind (kept in the
/// message).
fn rejected(e: KoalaError) -> KoalaError {
    if e.kind() == ErrorKind::InvalidArgument {
        e
    } else {
        invalid(e.to_string())
    }
}

/// Largest lattice (in sites) a job may request; keeps a single mis-typed
/// spec from pinning the whole service.
pub const MAX_SITES: usize = 64;

fn validate_lattice(nrows: usize, ncols: usize) -> Result<()> {
    if nrows == 0 || ncols == 0 {
        return Err(invalid(format!("lattice {nrows}x{ncols}: dimensions must be >= 1")));
    }
    if nrows.checked_mul(ncols).is_none_or(|sites| sites > MAX_SITES) {
        return Err(invalid(format!(
            "lattice {nrows}x{ncols} exceeds the service cap of {MAX_SITES} sites"
        )));
    }
    Ok(())
}

/// Imaginary-time-evolution ground-state job on the transverse-field Ising
/// model: evolve `|0...0>` with PEPS-TEBD and report the measured energies.
#[derive(Debug, Clone, PartialEq)]
pub struct IteJob {
    /// Lattice rows.
    pub nrows: usize,
    /// Lattice columns.
    pub ncols: usize,
    /// Ising coupling `Jz`.
    pub jz: f64,
    /// Transverse field `hx`.
    pub hx: f64,
    /// Trotter step size `tau`.
    pub tau: f64,
    /// Number of ITE steps.
    pub steps: usize,
    /// Evolution bond dimension `r`.
    pub evolution_bond: usize,
    /// Contraction bond dimension `m` for energy measurement.
    pub contraction_bond: usize,
    /// Measure the energy every this many steps.
    pub measure_every: usize,
    /// Seed of the run's RNG stream (IBMPS sketches).
    pub seed: u64,
}

impl IteJob {
    /// A laptop-friendly default mirroring the `ite_ground_state` example:
    /// `Jz = -1, hx = -2`, `tau = 0.05`, 40 steps measured every 5.
    pub fn new(nrows: usize, ncols: usize, evolution_bond: usize) -> IteJob {
        IteJob {
            nrows,
            ncols,
            jz: -1.0,
            hx: -2.0,
            tau: 0.05,
            steps: 40,
            evolution_bond,
            contraction_bond: (evolution_bond * evolution_bond).max(2),
            measure_every: 5,
            seed: 7,
        }
    }

    fn validate(&self) -> Result<()> {
        validate_lattice(self.nrows, self.ncols)?;
        if !(self.tau.is_finite() && self.tau > 0.0) {
            return Err(invalid(format!("ite: tau must be finite and positive, got {}", self.tau)));
        }
        if !(self.jz.is_finite() && self.hx.is_finite()) {
            return Err(invalid("ite: couplings jz/hx must be finite"));
        }
        if self.steps == 0 {
            return Err(invalid("ite: steps must be >= 1"));
        }
        if self.evolution_bond == 0 || self.contraction_bond == 0 {
            return Err(invalid("ite: bond dimensions must be >= 1"));
        }
        if self.measure_every == 0 {
            return Err(invalid("ite: measure_every must be >= 1"));
        }
        Ok(())
    }

    fn signature(&self) -> String {
        format!(
            "ite/{}x{}/r{}/m{}/steps{}/every{}",
            self.nrows,
            self.ncols,
            self.evolution_bond,
            self.contraction_bond,
            self.steps,
            self.measure_every
        )
    }
}

/// Variational-quantum-eigensolver job on the transverse-field Ising model.
#[derive(Debug, Clone, PartialEq)]
pub struct VqeJob {
    /// Lattice rows.
    pub nrows: usize,
    /// Lattice columns.
    pub ncols: usize,
    /// Ising coupling `Jz`.
    pub jz: f64,
    /// Transverse field `hx`.
    pub hx: f64,
    /// Ansatz layers (Ry on every site + CNOT ladder per layer).
    pub layers: usize,
    /// Simulation backend for the ansatz state.
    pub backend: VqeBackend,
    /// Classical optimizer.
    pub optimizer: Optimizer,
    /// Seed of the run's RNG stream (objective evaluations and SPSA).
    pub seed: u64,
}

impl VqeJob {
    /// A laptop-friendly default mirroring the `vqe_tfi` example: the paper's
    /// Figure 14 couplings, one ansatz layer, Nelder–Mead with 60 iterations.
    pub fn new(nrows: usize, ncols: usize, backend: VqeBackend) -> VqeJob {
        VqeJob {
            nrows,
            ncols,
            jz: -1.0,
            hx: -3.5,
            layers: 1,
            backend,
            optimizer: Optimizer::NelderMead { scale: 0.4, max_iterations: 60 },
            seed: 11,
        }
    }

    fn validate(&self) -> Result<()> {
        validate_lattice(self.nrows, self.ncols)?;
        if !(self.jz.is_finite() && self.hx.is_finite()) {
            return Err(invalid("vqe: couplings jz/hx must be finite"));
        }
        if self.layers == 0 {
            return Err(invalid("vqe: layers must be >= 1"));
        }
        if let VqeBackend::Peps { bond, contraction_bond } = self.backend {
            if bond == 0 || contraction_bond == 0 {
                return Err(invalid("vqe: PEPS backend bond dimensions must be >= 1"));
            }
        }
        let budget = match self.optimizer {
            Optimizer::NelderMead { max_iterations, .. } => max_iterations,
            Optimizer::Spsa { iterations, .. } => iterations,
        };
        if budget == 0 {
            return Err(invalid("vqe: optimizer iteration budget must be >= 1"));
        }
        Ok(())
    }

    fn signature(&self) -> String {
        format!(
            "vqe/{}x{}/l{}/{:?}/{:?}",
            self.nrows, self.ncols, self.layers, self.backend, self.optimizer
        )
    }
}

/// Batched random-quantum-circuit amplitude job: evolve `|0...0>` under a
/// seeded random circuit, then contract one amplitude per requested
/// bitstring.
#[derive(Debug, Clone, PartialEq)]
pub struct AmplitudeJob {
    /// Lattice rows.
    pub nrows: usize,
    /// Lattice columns.
    pub ncols: usize,
    /// Circuit layers.
    pub layers: usize,
    /// Entangling-layer period of the random circuit.
    pub entangle_every: usize,
    /// Seed selecting the random circuit (part of the signature: it fixes
    /// the gate placement and hence the evolved tensor shapes).
    pub circuit_seed: u64,
    /// Bond-dimension cap for the circuit evolution.
    pub evolution_bond: usize,
    /// Contraction method for the amplitudes.
    pub method: ContractionMethod,
    /// Bitstrings (row-major, one bit per site) to compute amplitudes for.
    pub bitstrings: Vec<Vec<usize>>,
    /// Seed of the contraction RNG stream (IBMPS sketches).
    pub seed: u64,
}

impl AmplitudeJob {
    /// A laptop-friendly default mirroring the `rqc_amplitude` example: a
    /// 3x3-suitable 8-layer circuit with an entangling layer every 4,
    /// evolved exactly, asking for the all-zeros amplitude.
    pub fn new(nrows: usize, ncols: usize, method: ContractionMethod) -> AmplitudeJob {
        AmplitudeJob {
            nrows,
            ncols,
            layers: 8,
            entangle_every: 4,
            circuit_seed: 21,
            evolution_bond: 1 << 16,
            method,
            bitstrings: vec![vec![0; nrows * ncols]],
            seed: 21,
        }
    }

    fn validate(&self) -> Result<()> {
        validate_lattice(self.nrows, self.ncols)?;
        if self.layers == 0 || self.entangle_every == 0 {
            return Err(invalid("amplitudes: layers and entangle_every must be >= 1"));
        }
        if self.evolution_bond == 0 {
            return Err(invalid("amplitudes: evolution_bond must be >= 1"));
        }
        match self.method {
            ContractionMethod::Exact => {}
            ContractionMethod::Bmps { max_bond } | ContractionMethod::Ibmps { max_bond, .. } => {
                if max_bond == 0 {
                    return Err(invalid("amplitudes: contraction max_bond must be >= 1"));
                }
            }
        }
        if self.bitstrings.is_empty() {
            return Err(invalid("amplitudes: at least one bitstring is required"));
        }
        let n = self.nrows * self.ncols;
        for (i, bits) in self.bitstrings.iter().enumerate() {
            if bits.len() != n {
                return Err(invalid(format!(
                    "amplitudes: bitstring {i} has {} bits, lattice has {n} sites",
                    bits.len()
                )));
            }
            if bits.iter().any(|&b| b > 1) {
                return Err(invalid(format!("amplitudes: bitstring {i} has a bit outside 0/1")));
            }
        }
        Ok(())
    }

    fn signature(&self) -> String {
        format!(
            "amp/{}x{}/l{}/e{}/cs{}/r{}/{:?}/n{}",
            self.nrows,
            self.ncols,
            self.layers,
            self.entangle_every,
            self.circuit_seed,
            self.evolution_bond,
            self.method,
            self.bitstrings.len()
        )
    }
}

/// Largest gate list a [`CircuitJob`] may carry.
pub const MAX_CIRCUIT_GATES: usize = 4096;

/// Gate-list circuit job: run an arbitrary typed circuit through the
/// `koala-circuit` front end (structural simplification, light-cone pruning
/// for single queries, backend dispatch) and answer a batch of bitstring
/// amplitude queries. The whole batch shares one state evolution, so warm
/// re-submissions of the same circuit replay cached contraction plans.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitJob {
    /// The circuit (qubit count and optional lattice live inside).
    pub circuit: Circuit,
    /// Bitstrings (one bit per qubit) to compute amplitudes for.
    pub bitstrings: Vec<Vec<usize>>,
    /// Backend selection; [`BackendChoice::Auto`] picks by qubit count and
    /// entanglement estimate.
    pub backend: BackendChoice,
    /// Seed of the contraction RNG stream (IBMPS sketches on the PEPS path).
    pub seed: u64,
}

impl CircuitJob {
    /// A job querying `bitstrings` on `circuit` under auto dispatch.
    pub fn new(circuit: Circuit, bitstrings: Vec<Vec<usize>>) -> CircuitJob {
        CircuitJob { circuit, bitstrings, backend: BackendChoice::Auto, seed: 17 }
    }

    fn validate(&self) -> Result<()> {
        let n = self.circuit.num_qubits();
        if n == 0 {
            return Err(invalid("circuit: at least one qubit is required"));
        }
        if n > MAX_SITES {
            return Err(invalid(format!(
                "circuit: {n} qubits exceeds the service cap of {MAX_SITES}"
            )));
        }
        if self.circuit.len() > MAX_CIRCUIT_GATES {
            return Err(invalid(format!(
                "circuit: {} gates exceeds the service cap of {MAX_CIRCUIT_GATES}",
                self.circuit.len()
            )));
        }
        self.circuit.validate().map_err(rejected)?;
        if self.bitstrings.is_empty() {
            return Err(invalid("circuit: at least one bitstring is required"));
        }
        for (i, bits) in self.bitstrings.iter().enumerate() {
            if bits.len() != n {
                return Err(invalid(format!(
                    "circuit: bitstring {i} has {} bits, circuit has {n} qubits",
                    bits.len()
                )));
            }
            if bits.iter().any(|&b| b > 1) {
                return Err(invalid(format!("circuit: bitstring {i} has a bit outside 0/1")));
            }
        }
        match self.backend {
            BackendChoice::Fixed(Backend::Statevector) if n > 26 => {
                Err(invalid(format!("circuit: {n} qubits exceed the 26-qubit statevector limit")))
            }
            BackendChoice::Fixed(Backend::Mps { max_bond: 0 }) => {
                Err(invalid("circuit: MPS max_bond must be >= 1"))
            }
            BackendChoice::Fixed(Backend::Peps { evolution_bond: 0, .. }) => {
                Err(invalid("circuit: PEPS evolution_bond must be >= 1"))
            }
            _ => Ok(()),
        }
    }

    /// The signature hashes the circuit *structure* (gate kinds, qubit
    /// placements, zero patterns of arbitrary unitaries) but not parameter
    /// values: same-structure circuits evolve through the same tensor
    /// shapes. The one caveat is angle-dependent simplification — a
    /// rotation that lands exactly on the identity is dropped and shifts
    /// the shapes — which costs a follower some plan-cache misses, never
    /// correctness.
    fn signature(&self) -> String {
        let backend = match self.backend {
            BackendChoice::Auto => "auto".to_string(),
            BackendChoice::Fixed(Backend::Statevector) => "sv".to_string(),
            BackendChoice::Fixed(Backend::Mps { max_bond }) => format!("mps{max_bond}"),
            BackendChoice::Fixed(Backend::Peps { evolution_bond, method }) => {
                format!("peps{evolution_bond}/{method:?}")
            }
        };
        format!(
            "circuit/{}q/g{}/k{:016x}/{}/n{}",
            self.circuit.num_qubits(),
            self.circuit.len(),
            self.circuit.structure_key(),
            backend,
            self.bitstrings.len()
        )
    }
}

/// A typed, validated unit of service work.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Imaginary-time-evolution ground-state search.
    Ite(IteJob),
    /// Variational ground-state energy.
    Vqe(VqeJob),
    /// Batched circuit amplitudes.
    Amplitudes(AmplitudeJob),
    /// Gate-list circuit through the `koala-circuit` front end.
    Circuit(CircuitJob),
}

impl JobSpec {
    /// Check every field for structural validity. [`crate::Server::submit`]
    /// rejects invalid specs with [`ErrorKind::InvalidArgument`] before they
    /// reach the queue.
    pub fn validate(&self) -> Result<()> {
        match self {
            JobSpec::Ite(j) => j.validate(),
            JobSpec::Vqe(j) => j.validate(),
            JobSpec::Amplitudes(j) => j.validate(),
            JobSpec::Circuit(j) => j.validate(),
        }
    }

    /// Workload-signature key: jobs sharing a signature run the same einsum
    /// specs over the same tensor shapes, so the scheduler serialises them
    /// leader-first to keep every follower on warm plan-cache stripes.
    pub fn signature(&self) -> String {
        match self {
            JobSpec::Ite(j) => j.signature(),
            JobSpec::Vqe(j) => j.signature(),
            JobSpec::Amplitudes(j) => j.signature(),
            JobSpec::Circuit(j) => j.signature(),
        }
    }

    /// Short kind tag (`"ite"` / `"vqe"` / `"amplitudes"` / `"circuit"`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Ite(_) => "ite",
            JobSpec::Vqe(_) => "vqe",
            JobSpec::Amplitudes(_) => "amplitudes",
            JobSpec::Circuit(_) => "circuit",
        }
    }

    /// Serialise to the wire form understood by [`JobSpec::from_json`] and
    /// the `serve_stdio` binary.
    pub fn to_json(&self) -> JsonValue {
        match self {
            JobSpec::Ite(j) => JsonValue::object([
                ("type", JsonValue::str("ite")),
                ("nrows", JsonValue::num(j.nrows as f64)),
                ("ncols", JsonValue::num(j.ncols as f64)),
                ("jz", JsonValue::num(j.jz)),
                ("hx", JsonValue::num(j.hx)),
                ("tau", JsonValue::num(j.tau)),
                ("steps", JsonValue::num(j.steps as f64)),
                ("evolution_bond", JsonValue::num(j.evolution_bond as f64)),
                ("contraction_bond", JsonValue::num(j.contraction_bond as f64)),
                ("measure_every", JsonValue::num(j.measure_every as f64)),
                ("seed", JsonValue::num(j.seed as f64)),
            ]),
            JobSpec::Vqe(j) => {
                let backend = match j.backend {
                    VqeBackend::StateVector => {
                        JsonValue::object([("type", JsonValue::str("statevector"))])
                    }
                    VqeBackend::Peps { bond, contraction_bond } => JsonValue::object([
                        ("type", JsonValue::str("peps")),
                        ("bond", JsonValue::num(bond as f64)),
                        ("contraction_bond", JsonValue::num(contraction_bond as f64)),
                    ]),
                };
                let optimizer = match j.optimizer {
                    Optimizer::NelderMead { scale, max_iterations } => JsonValue::object([
                        ("type", JsonValue::str("nelder_mead")),
                        ("scale", JsonValue::num(scale)),
                        ("max_iterations", JsonValue::num(max_iterations as f64)),
                    ]),
                    Optimizer::Spsa { a0, c0, iterations } => JsonValue::object([
                        ("type", JsonValue::str("spsa")),
                        ("a0", JsonValue::num(a0)),
                        ("c0", JsonValue::num(c0)),
                        ("iterations", JsonValue::num(iterations as f64)),
                    ]),
                };
                JsonValue::object([
                    ("type", JsonValue::str("vqe")),
                    ("nrows", JsonValue::num(j.nrows as f64)),
                    ("ncols", JsonValue::num(j.ncols as f64)),
                    ("jz", JsonValue::num(j.jz)),
                    ("hx", JsonValue::num(j.hx)),
                    ("layers", JsonValue::num(j.layers as f64)),
                    ("backend", backend),
                    ("optimizer", optimizer),
                    ("seed", JsonValue::num(j.seed as f64)),
                ])
            }
            JobSpec::Amplitudes(j) => JsonValue::object([
                ("type", JsonValue::str("amplitudes")),
                ("nrows", JsonValue::num(j.nrows as f64)),
                ("ncols", JsonValue::num(j.ncols as f64)),
                ("layers", JsonValue::num(j.layers as f64)),
                ("entangle_every", JsonValue::num(j.entangle_every as f64)),
                ("circuit_seed", JsonValue::num(j.circuit_seed as f64)),
                ("evolution_bond", JsonValue::num(j.evolution_bond as f64)),
                ("method", method_to_json(j.method)),
                ("bitstrings", bitstrings_to_json(&j.bitstrings)),
                ("seed", JsonValue::num(j.seed as f64)),
            ]),
            JobSpec::Circuit(j) => {
                let backend = match j.backend {
                    BackendChoice::Auto => JsonValue::object([("type", JsonValue::str("auto"))]),
                    BackendChoice::Fixed(Backend::Statevector) => {
                        JsonValue::object([("type", JsonValue::str("statevector"))])
                    }
                    BackendChoice::Fixed(Backend::Mps { max_bond }) => JsonValue::object([
                        ("type", JsonValue::str("mps")),
                        ("max_bond", JsonValue::num(max_bond as f64)),
                    ]),
                    BackendChoice::Fixed(Backend::Peps { evolution_bond, method }) => {
                        JsonValue::object([
                            ("type", JsonValue::str("peps")),
                            ("evolution_bond", JsonValue::num(evolution_bond as f64)),
                            ("method", method_to_json(method)),
                        ])
                    }
                };
                let mut fields = vec![
                    ("type".to_string(), JsonValue::str("circuit")),
                    ("num_qubits".to_string(), JsonValue::num(j.circuit.num_qubits() as f64)),
                ];
                if let Some((r, c)) = j.circuit.lattice() {
                    fields.push(("nrows".to_string(), JsonValue::num(r as f64)));
                    fields.push(("ncols".to_string(), JsonValue::num(c as f64)));
                }
                fields.push((
                    "gates".to_string(),
                    JsonValue::Array(j.circuit.gates().iter().map(gate_to_json).collect()),
                ));
                fields.push(("bitstrings".to_string(), bitstrings_to_json(&j.bitstrings)));
                fields.push(("backend".to_string(), backend));
                fields.push(("seed".to_string(), JsonValue::num(j.seed as f64)));
                JsonValue::Object(fields)
            }
        }
    }

    /// Parse the wire form produced by [`JobSpec::to_json`]. The parsed spec
    /// is validated before being returned.
    ///
    /// Integer fields travel as JSON numbers (`f64`); seeds and counters are
    /// exact up to 2^53, far beyond any spec this service accepts.
    pub fn from_json(v: &JsonValue) -> Result<JobSpec> {
        let kind = req_str(v, "type")?;
        let spec = match kind {
            "ite" => JobSpec::Ite(IteJob {
                nrows: req_usize(v, "nrows")?,
                ncols: req_usize(v, "ncols")?,
                jz: opt_f64(v, "jz", -1.0)?,
                hx: opt_f64(v, "hx", -2.0)?,
                tau: opt_f64(v, "tau", 0.05)?,
                steps: req_usize(v, "steps")?,
                evolution_bond: req_usize(v, "evolution_bond")?,
                contraction_bond: req_usize(v, "contraction_bond")?,
                measure_every: opt_usize(v, "measure_every", 1)?,
                seed: opt_u64(v, "seed", 0)?,
            }),
            "vqe" => {
                let backend_v =
                    v.get("backend").ok_or_else(|| invalid("vqe: missing field 'backend'"))?;
                let backend = match req_str(backend_v, "type")? {
                    "statevector" => VqeBackend::StateVector,
                    "peps" => VqeBackend::Peps {
                        bond: req_usize(backend_v, "bond")?,
                        contraction_bond: req_usize(backend_v, "contraction_bond")?,
                    },
                    other => return Err(invalid(format!("vqe: unknown backend '{other}'"))),
                };
                let opt_v =
                    v.get("optimizer").ok_or_else(|| invalid("vqe: missing field 'optimizer'"))?;
                let optimizer = match req_str(opt_v, "type")? {
                    "nelder_mead" => Optimizer::NelderMead {
                        scale: opt_f64(opt_v, "scale", 0.4)?,
                        max_iterations: req_usize(opt_v, "max_iterations")?,
                    },
                    "spsa" => Optimizer::Spsa {
                        a0: opt_f64(opt_v, "a0", 0.3)?,
                        c0: opt_f64(opt_v, "c0", 0.2)?,
                        iterations: req_usize(opt_v, "iterations")?,
                    },
                    other => return Err(invalid(format!("vqe: unknown optimizer '{other}'"))),
                };
                JobSpec::Vqe(VqeJob {
                    nrows: req_usize(v, "nrows")?,
                    ncols: req_usize(v, "ncols")?,
                    jz: opt_f64(v, "jz", -1.0)?,
                    hx: opt_f64(v, "hx", -3.5)?,
                    layers: opt_usize(v, "layers", 1)?,
                    backend,
                    optimizer,
                    seed: opt_u64(v, "seed", 0)?,
                })
            }
            "amplitudes" => {
                let method_v =
                    v.get("method").ok_or_else(|| invalid("amplitudes: missing field 'method'"))?;
                JobSpec::Amplitudes(AmplitudeJob {
                    nrows: req_usize(v, "nrows")?,
                    ncols: req_usize(v, "ncols")?,
                    layers: opt_usize(v, "layers", 8)?,
                    entangle_every: opt_usize(v, "entangle_every", 4)?,
                    circuit_seed: opt_u64(v, "circuit_seed", 0)?,
                    evolution_bond: opt_usize(v, "evolution_bond", 1 << 16)?,
                    method: method_from_json(method_v)?,
                    bitstrings: bitstrings_from_json(v)?,
                    seed: opt_u64(v, "seed", 0)?,
                })
            }
            "circuit" => {
                let num_qubits = req_usize(v, "num_qubits")?;
                let lattice = match (v.get("nrows"), v.get("ncols")) {
                    (None, None) => None,
                    _ => Some((req_usize(v, "nrows")?, req_usize(v, "ncols")?)),
                };
                let mut circuit = match lattice {
                    Some((r, c)) => {
                        if r.checked_mul(c) != Some(num_qubits) {
                            return Err(invalid(format!(
                                "circuit: lattice {r}x{c} does not hold {num_qubits} qubits"
                            )));
                        }
                        Circuit::with_lattice(r, c)
                    }
                    None => Circuit::new(num_qubits),
                };
                let gates_v = v
                    .get("gates")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| invalid("circuit: missing array field 'gates'"))?;
                for (i, g) in gates_v.iter().enumerate() {
                    gate_from_json(&mut circuit, g)
                        .with_context(|| format!("circuit: gate {i}"))?;
                }
                let backend = match v.get("backend") {
                    None => BackendChoice::Auto,
                    Some(b) => match req_str(b, "type")? {
                        "auto" => BackendChoice::Auto,
                        "statevector" => BackendChoice::Fixed(Backend::Statevector),
                        "mps" => BackendChoice::Fixed(Backend::Mps {
                            max_bond: req_usize(b, "max_bond")?,
                        }),
                        "peps" => {
                            let method = match b.get("method") {
                                None => ContractionMethod::bmps(64),
                                Some(m) => method_from_json(m)?,
                            };
                            BackendChoice::Fixed(Backend::Peps {
                                evolution_bond: req_usize(b, "evolution_bond")?,
                                method,
                            })
                        }
                        other => {
                            return Err(invalid(format!("circuit: unknown backend '{other}'")))
                        }
                    },
                };
                JobSpec::Circuit(CircuitJob {
                    circuit,
                    bitstrings: bitstrings_from_json(v)?,
                    backend,
                    seed: opt_u64(v, "seed", 17)?,
                })
            }
            other => return Err(invalid(format!("unknown job type '{other}'"))),
        };
        spec.validate()?;
        Ok(spec)
    }
}

fn req_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| invalid(format!("missing string field '{key}'")))
}

fn req_usize(v: &JsonValue, key: &str) -> Result<usize> {
    let x = v
        .get(key)
        .and_then(JsonValue::as_num)
        .ok_or_else(|| invalid(format!("missing numeric field '{key}'")))?;
    usize_from_num(x, format_args!("field '{key}'"))
}

/// A wire number as a count or index: fractions, negatives, NaN, infinities
/// and anything past 2^53 (where `f64` stops being exact) are rejected rather
/// than cast (`as usize` would map them all to some in-range value).
fn usize_from_num(x: f64, what: impl std::fmt::Display) -> Result<usize> {
    if !(0.0..=9_007_199_254_740_992.0).contains(&x) || x.fract() != 0.0 {
        return Err(invalid(format!("{what} must be a non-negative integer, got {x}")));
    }
    Ok(x as usize)
}

fn opt_usize(v: &JsonValue, key: &str, default: usize) -> Result<usize> {
    match v.get(key) {
        None => Ok(default),
        Some(_) => req_usize(v, key),
    }
}

fn opt_u64(v: &JsonValue, key: &str, default: u64) -> Result<u64> {
    match v.get(key) {
        None => Ok(default),
        Some(_) => Ok(req_usize(v, key)? as u64),
    }
}

fn opt_f64(v: &JsonValue, key: &str, default: f64) -> Result<f64> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => x.as_num().ok_or_else(|| invalid(format!("field '{key}' must be a number"))),
    }
}

fn req_f64(v: &JsonValue, key: &str) -> Result<f64> {
    v.get(key)
        .and_then(JsonValue::as_num)
        .ok_or_else(|| invalid(format!("missing numeric field '{key}'")))
}

fn method_to_json(method: ContractionMethod) -> JsonValue {
    match method {
        ContractionMethod::Exact => JsonValue::object([("type", JsonValue::str("exact"))]),
        ContractionMethod::Bmps { max_bond } => JsonValue::object([
            ("type", JsonValue::str("bmps")),
            ("max_bond", JsonValue::num(max_bond as f64)),
        ]),
        ContractionMethod::Ibmps { max_bond, n_iter, oversample } => JsonValue::object([
            ("type", JsonValue::str("ibmps")),
            ("max_bond", JsonValue::num(max_bond as f64)),
            ("n_iter", JsonValue::num(n_iter as f64)),
            ("oversample", JsonValue::num(oversample as f64)),
        ]),
    }
}

fn method_from_json(v: &JsonValue) -> Result<ContractionMethod> {
    match req_str(v, "type")? {
        "exact" => Ok(ContractionMethod::Exact),
        "bmps" => Ok(ContractionMethod::bmps(req_usize(v, "max_bond")?)),
        "ibmps" => Ok(ContractionMethod::Ibmps {
            max_bond: req_usize(v, "max_bond")?,
            n_iter: opt_usize(v, "n_iter", 2)?,
            oversample: opt_usize(v, "oversample", 10)?,
        }),
        other => Err(invalid(format!("unknown contraction method '{other}'"))),
    }
}

fn bitstrings_to_json(bitstrings: &[Vec<usize>]) -> JsonValue {
    JsonValue::Array(
        bitstrings
            .iter()
            .map(|bits| JsonValue::Array(bits.iter().map(|&b| JsonValue::num(b as f64)).collect()))
            .collect(),
    )
}

fn bitstrings_from_json(v: &JsonValue) -> Result<Vec<Vec<usize>>> {
    let bits_v = v
        .get("bitstrings")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| invalid("missing array field 'bitstrings'"))?;
    let mut bitstrings = Vec::with_capacity(bits_v.len());
    for (i, bits) in bits_v.iter().enumerate() {
        let arr = bits.as_array().ok_or_else(|| invalid(format!("bitstring {i} not an array")))?;
        let mut parsed = Vec::with_capacity(arr.len());
        for b in arr {
            let x = b
                .as_num()
                .ok_or_else(|| invalid(format!("bitstring {i} has a non-numeric bit")))?;
            parsed.push(usize_from_num(x, format_args!("bitstring {i}: every bit"))?);
        }
        bitstrings.push(parsed);
    }
    Ok(bitstrings)
}

/// A gate matrix on the wire: row-major interleaved `[re, im, re, im, ...]`.
/// `f64` values roundtrip exactly through the JSON layer (shortest-roundtrip
/// printing), so a parsed circuit is bit-identical to the submitted one.
fn matrix_to_json(m: &Matrix) -> JsonValue {
    JsonValue::Array(
        m.data().iter().flat_map(|z| [JsonValue::num(z.re), JsonValue::num(z.im)]).collect(),
    )
}

fn matrix_from_json(v: &JsonValue, dim: usize) -> Result<Matrix> {
    let arr = v
        .get("m")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| invalid("unitary gate: missing array field 'm'"))?;
    if arr.len() != 2 * dim * dim {
        return Err(invalid(format!(
            "unitary gate: expected {} floats for a {dim}x{dim} matrix, got {}",
            2 * dim * dim,
            arr.len()
        )));
    }
    let mut data = Vec::with_capacity(dim * dim);
    for pair in arr.chunks(2) {
        let re = pair[0].as_num().ok_or_else(|| invalid("unitary gate: non-numeric entry"))?;
        let im = pair[1].as_num().ok_or_else(|| invalid("unitary gate: non-numeric entry"))?;
        data.push(c64(re, im));
    }
    let mut m = Matrix::from_vec(dim, dim, data).map_err(rejected)?;
    // Re-derive the structural realness hint lost on the wire, so real
    // unitaries keep the real-kernel fast path after a JSON roundtrip.
    m.mark_real_if_exact();
    Ok(m)
}

fn gate_to_json(gate: &Gate) -> JsonValue {
    match gate {
        Gate::One { qubit, gate } => {
            let mut fields = vec![
                ("g".to_string(), JsonValue::str(gate.tag())),
                ("q".to_string(), JsonValue::num(*qubit as f64)),
            ];
            match gate {
                Gate1::Rx(t) | Gate1::Ry(t) | Gate1::Rz(t) => {
                    fields.push(("theta".to_string(), JsonValue::num(*t)));
                }
                Gate1::Unitary(m) => fields.push(("m".to_string(), matrix_to_json(m))),
                _ => {}
            }
            JsonValue::Object(fields)
        }
        Gate::Two { a, b, gate } => {
            let mut fields = vec![
                ("g".to_string(), JsonValue::str(gate.tag())),
                ("a".to_string(), JsonValue::num(*a as f64)),
                ("b".to_string(), JsonValue::num(*b as f64)),
            ];
            if let Gate2::Unitary(m) = gate {
                fields.push(("m".to_string(), matrix_to_json(m)));
            }
            JsonValue::Object(fields)
        }
    }
}

fn gate_from_json(circuit: &mut Circuit, v: &JsonValue) -> Result<()> {
    let tag = req_str(v, "g")?;
    match tag {
        "h" | "x" | "y" | "z" | "s" | "t" | "rx" | "ry" | "rz" | "u1" => {
            let gate = match tag {
                "h" => Gate1::H,
                "x" => Gate1::X,
                "y" => Gate1::Y,
                "z" => Gate1::Z,
                "s" => Gate1::S,
                "t" => Gate1::T,
                "rx" => Gate1::Rx(req_f64(v, "theta")?),
                "ry" => Gate1::Ry(req_f64(v, "theta")?),
                "rz" => Gate1::Rz(req_f64(v, "theta")?),
                _ => Gate1::Unitary(matrix_from_json(v, 2)?),
            };
            circuit.push_one(req_usize(v, "q")?, gate).map_err(rejected)?;
        }
        "cnot" | "cz" | "swap" | "u2" => {
            let gate = match tag {
                "cnot" => Gate2::Cnot,
                "cz" => Gate2::Cz,
                "swap" => Gate2::Swap,
                _ => Gate2::Unitary(matrix_from_json(v, 4)?),
            };
            circuit.push_two(req_usize(v, "a")?, req_usize(v, "b")?, gate).map_err(rejected)?;
        }
        other => return Err(invalid(format!("unknown gate tag '{other}'"))),
    }
    Ok(())
}

/// Output of a completed [`IteJob`].
#[derive(Debug, Clone, PartialEq)]
pub struct IteOutput {
    /// Energy per site at each measured step `(step, energy)`.
    pub energies: Vec<(usize, f64)>,
    /// The last measured energy per site.
    pub final_energy: f64,
    /// Maximum bond dimension of the evolved PEPS.
    pub max_bond: usize,
}

/// Output of a completed [`VqeJob`].
#[derive(Debug, Clone, PartialEq)]
pub struct VqeOutput {
    /// Best energy per site found.
    pub best_energy: f64,
    /// Best-so-far energy per site after each optimizer iteration.
    pub energy_history: Vec<f64>,
    /// Optimal parameters.
    pub best_params: Vec<f64>,
    /// Number of objective evaluations.
    pub evaluations: usize,
}

/// Output of a completed [`AmplitudeJob`].
#[derive(Debug, Clone, PartialEq)]
pub struct AmplitudeOutput {
    /// One amplitude per requested bitstring, in request order.
    pub amplitudes: Vec<C64>,
    /// Maximum bond dimension of the evolved PEPS.
    pub max_bond: usize,
}

/// Output of a completed [`CircuitJob`].
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitOutput {
    /// One amplitude per requested bitstring, in request order.
    pub amplitudes: Vec<C64>,
    /// Tag of the backend the dispatcher actually executed on.
    pub backend: String,
    /// Maximum bond dimension reached during evolution (0 for statevector).
    pub max_bond: usize,
    /// Gates in the submitted circuit, before structural simplification.
    pub gates_submitted: usize,
    /// Gates actually executed after fusion, absorption, and pruning.
    pub gates_executed: usize,
}

/// The typed result of a successfully completed job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobResult {
    /// Result of an [`IteJob`].
    Ite(IteOutput),
    /// Result of a [`VqeJob`].
    Vqe(VqeOutput),
    /// Result of an [`AmplitudeJob`].
    Amplitudes(AmplitudeOutput),
    /// Result of a [`CircuitJob`].
    Circuit(CircuitOutput),
}

impl JobResult {
    /// Serialise to the wire form emitted by the `serve_stdio` binary.
    pub fn to_json(&self) -> JsonValue {
        match self {
            JobResult::Ite(o) => JsonValue::object([
                ("type", JsonValue::str("ite")),
                (
                    "energies",
                    JsonValue::Array(
                        o.energies
                            .iter()
                            .map(|&(s, e)| {
                                JsonValue::Array(vec![JsonValue::num(s as f64), JsonValue::num(e)])
                            })
                            .collect(),
                    ),
                ),
                ("final_energy", JsonValue::num(o.final_energy)),
                ("max_bond", JsonValue::num(o.max_bond as f64)),
            ]),
            JobResult::Vqe(o) => JsonValue::object([
                ("type", JsonValue::str("vqe")),
                ("best_energy", JsonValue::num(o.best_energy)),
                (
                    "energy_history",
                    JsonValue::Array(o.energy_history.iter().map(|&e| JsonValue::num(e)).collect()),
                ),
                (
                    "best_params",
                    JsonValue::Array(o.best_params.iter().map(|&p| JsonValue::num(p)).collect()),
                ),
                ("evaluations", JsonValue::num(o.evaluations as f64)),
            ]),
            JobResult::Amplitudes(o) => JsonValue::object([
                ("type", JsonValue::str("amplitudes")),
                (
                    "amplitudes",
                    JsonValue::Array(
                        o.amplitudes
                            .iter()
                            .map(|a| {
                                JsonValue::Array(vec![JsonValue::num(a.re), JsonValue::num(a.im)])
                            })
                            .collect(),
                    ),
                ),
                ("max_bond", JsonValue::num(o.max_bond as f64)),
            ]),
            JobResult::Circuit(o) => JsonValue::object([
                ("type", JsonValue::str("circuit")),
                (
                    "amplitudes",
                    JsonValue::Array(
                        o.amplitudes
                            .iter()
                            .map(|a| {
                                JsonValue::Array(vec![JsonValue::num(a.re), JsonValue::num(a.im)])
                            })
                            .collect(),
                    ),
                ),
                ("backend", JsonValue::str(&o.backend)),
                ("max_bond", JsonValue::num(o.max_bond as f64)),
                ("gates_submitted", JsonValue::num(o.gates_submitted as f64)),
                ("gates_executed", JsonValue::num(o.gates_executed as f64)),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_ignore_value_inputs_but_not_shapes() {
        let a = IteJob::new(3, 3, 2);
        let mut b = a.clone();
        b.seed = 99;
        b.jz = -0.5;
        b.tau = 0.01;
        assert_eq!(
            JobSpec::Ite(a.clone()).signature(),
            JobSpec::Ite(b).signature(),
            "value-level fields must not split a signature group"
        );
        let mut c = a;
        c.evolution_bond = 3;
        assert_ne!(JobSpec::Ite(IteJob::new(3, 3, 2)).signature(), JobSpec::Ite(c).signature());
    }

    #[test]
    fn amplitude_signature_includes_the_circuit_seed() {
        let a = AmplitudeJob::new(3, 3, ContractionMethod::bmps(8));
        let mut b = a.clone();
        b.circuit_seed ^= 1;
        assert_ne!(
            JobSpec::Amplitudes(a).signature(),
            JobSpec::Amplitudes(b).signature(),
            "the circuit seed fixes gate placement and hence shapes"
        );
    }

    #[test]
    fn validation_rejects_structural_nonsense() {
        let mut j = IteJob::new(3, 3, 2);
        j.steps = 0;
        assert_eq!(JobSpec::Ite(j).validate().unwrap_err().kind(), ErrorKind::InvalidArgument);
        let mut j = IteJob::new(9, 9, 2);
        j.nrows = 100;
        assert!(JobSpec::Ite(j).validate().is_err());
        let mut a = AmplitudeJob::new(2, 2, ContractionMethod::Exact);
        a.bitstrings = vec![vec![0, 1, 2, 0]];
        assert!(JobSpec::Amplitudes(a).validate().is_err());
        let mut v = VqeJob::new(2, 2, VqeBackend::StateVector);
        v.optimizer = Optimizer::NelderMead { scale: 0.4, max_iterations: 0 };
        assert!(JobSpec::Vqe(v).validate().is_err());
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let specs = [
            JobSpec::Ite(IteJob { seed: 123, ..IteJob::new(3, 2, 2) }),
            JobSpec::Vqe(VqeJob {
                optimizer: Optimizer::Spsa { a0: 0.3, c0: 0.2, iterations: 50 },
                ..VqeJob::new(2, 3, VqeBackend::Peps { bond: 2, contraction_bond: 4 })
            }),
            JobSpec::Amplitudes(AmplitudeJob {
                bitstrings: vec![vec![0, 1, 0, 1], vec![1, 1, 0, 0]],
                method: ContractionMethod::ibmps(16),
                ..AmplitudeJob::new(2, 2, ContractionMethod::Exact)
            }),
        ];
        for spec in specs {
            let text = spec.to_json().pretty();
            let parsed = JsonValue::parse(&text).expect("emitted JSON must parse");
            assert_eq!(JobSpec::from_json(&parsed).expect("roundtrip"), spec);
        }
    }

    #[test]
    fn from_json_rejects_unknown_kinds_and_bad_fields() {
        let bad = JsonValue::object([("type", JsonValue::str("teleport"))]);
        assert!(JobSpec::from_json(&bad).is_err());
        let bad =
            JsonValue::object([("type", JsonValue::str("ite")), ("nrows", JsonValue::num(2.5))]);
        assert!(JobSpec::from_json(&bad).is_err());
        // A site count that wraps `usize` must not slip under the cap, and a
        // count past 2^53 is not an integer the wire can carry.
        let ite = |nrows: &str| {
            let line = format!(
                r#"{{"type":"ite","nrows":{nrows},"ncols":4294967296,"steps":1,"evolution_bond":1,"contraction_bond":1}}"#
            );
            JobSpec::from_json(&JsonValue::parse(&line).expect("well-formed JSON"))
        };
        for nrows in ["4294967296", "1e19"] {
            let err = ite(nrows).expect_err("oversized lattice must be rejected");
            assert_eq!(err.kind(), ErrorKind::InvalidArgument, "nrows {nrows}: {err}");
        }
        // Bits that `as usize` would silently turn into a valid 0.
        for bit in [0.5, -1.0, f64::NAN, f64::INFINITY] {
            let job = |bit: f64| {
                JsonValue::object([
                    ("type", JsonValue::str("amplitudes")),
                    ("nrows", JsonValue::num(1.0)),
                    ("ncols", JsonValue::num(2.0)),
                    ("method", JsonValue::object([("type", JsonValue::str("exact"))])),
                    (
                        "bitstrings",
                        JsonValue::Array(vec![JsonValue::Array(vec![
                            JsonValue::num(1.0),
                            JsonValue::num(bit),
                        ])]),
                    ),
                ])
            };
            assert!(JobSpec::from_json(&job(0.0)).is_ok(), "the well-formed twin must parse");
            let err = JobSpec::from_json(&job(bit)).expect_err("bad bit must be rejected");
            assert_eq!(err.kind(), ErrorKind::InvalidArgument, "bit {bit}: {err}");
        }
    }

    /// A circuit exercising every wire case: named gates, rotations with
    /// irrational angles, arbitrary 1q and 2q unitaries, and a lattice.
    fn wire_test_circuit() -> Circuit {
        let mut c = Circuit::with_lattice(2, 2);
        c.push_one(0, Gate1::H).unwrap();
        c.push_one(1, Gate1::Rz(0.123_456_789_012_345_7)).unwrap();
        c.push_one(2, Gate1::Ry(-2.5)).unwrap();
        c.push_one(3, Gate1::Unitary(Gate1::S.matrix())).unwrap();
        c.push_two(0, 1, Gate2::Cnot).unwrap();
        c.push_two(3, 2, Gate2::Cz).unwrap();
        c.push_two(1, 3, Gate2::Unitary(Gate2::Swap.matrix())).unwrap();
        c
    }

    #[test]
    fn circuit_json_roundtrip_preserves_gates_lattice_and_backend() {
        let backends = [
            BackendChoice::Auto,
            BackendChoice::Fixed(Backend::Statevector),
            BackendChoice::Fixed(Backend::Mps { max_bond: 32 }),
            BackendChoice::Fixed(Backend::Peps {
                evolution_bond: 4,
                method: koala_peps::ContractionMethod::bmps(16),
            }),
        ];
        for backend in backends {
            let spec = JobSpec::Circuit(CircuitJob {
                backend,
                seed: 99,
                ..CircuitJob::new(wire_test_circuit(), vec![vec![0, 1, 0, 1], vec![1, 0, 0, 0]])
            });
            spec.validate().expect("test spec is valid");
            let text = spec.to_json().pretty();
            let parsed = JsonValue::parse(&text).expect("emitted JSON must parse");
            assert_eq!(JobSpec::from_json(&parsed).expect("roundtrip"), spec);
        }
    }

    #[test]
    fn circuit_roundtrip_preserves_realness_hints_of_unitaries() {
        // A real arbitrary unitary must come back real-hinted so the served
        // path keeps the real-kernel fast path after deserialisation.
        let mut c = Circuit::new(2);
        c.push_one(0, Gate1::Unitary(Gate1::H.matrix())).unwrap();
        c.push_two(0, 1, Gate2::Unitary(Gate2::Cnot.matrix())).unwrap();
        let spec = JobSpec::Circuit(CircuitJob::new(c, vec![vec![0, 0]]));
        let parsed = JsonValue::parse(&spec.to_json().pretty()).unwrap();
        let JobSpec::Circuit(job) = JobSpec::from_json(&parsed).unwrap() else {
            panic!("wrong kind");
        };
        for gate in job.circuit.gates() {
            let real = match gate {
                Gate::One { gate, .. } => gate.matrix().is_real(),
                Gate::Two { gate, .. } => gate.matrix().is_real(),
            };
            assert!(real, "real unitary lost its hint on the wire");
        }
    }

    #[test]
    fn circuit_signature_is_value_blind_but_structure_aware() {
        let a = CircuitJob::new(wire_test_circuit(), vec![vec![0; 4]]);
        let mut b = a.clone();
        let mut c2 = Circuit::with_lattice(2, 2);
        c2.push_one(0, Gate1::H).unwrap();
        c2.push_one(1, Gate1::Rz(1.875)).unwrap(); // different angle, same shape
        c2.push_one(2, Gate1::Ry(0.25)).unwrap();
        c2.push_one(3, Gate1::Unitary(Gate1::T.matrix())).unwrap(); // same zero pattern as S
        c2.push_two(0, 1, Gate2::Cnot).unwrap();
        c2.push_two(3, 2, Gate2::Cz).unwrap();
        c2.push_two(1, 3, Gate2::Unitary(Gate2::Swap.matrix())).unwrap();
        b.circuit = c2;
        assert_eq!(
            JobSpec::Circuit(a.clone()).signature(),
            JobSpec::Circuit(b).signature(),
            "parameter values must not split a signature group"
        );
        let mut c = a.clone();
        let mut moved = wire_test_circuit();
        moved.push_one(0, Gate1::X).unwrap();
        c.circuit = moved;
        assert_ne!(
            JobSpec::Circuit(a).signature(),
            JobSpec::Circuit(c).signature(),
            "an extra gate changes the structure"
        );
    }

    #[test]
    fn circuit_validation_rejects_bad_jobs() {
        // Wrong bitstring length.
        let j = CircuitJob::new(wire_test_circuit(), vec![vec![0, 1]]);
        assert_eq!(JobSpec::Circuit(j).validate().unwrap_err().kind(), ErrorKind::InvalidArgument);
        // Non-binary bit.
        let j = CircuitJob::new(wire_test_circuit(), vec![vec![0, 1, 2, 0]]);
        assert!(JobSpec::Circuit(j).validate().is_err());
        // No bitstrings at all.
        let j = CircuitJob::new(wire_test_circuit(), vec![]);
        assert!(JobSpec::Circuit(j).validate().is_err());
        // Statevector pinned above its qubit limit.
        let mut j = CircuitJob::new(Circuit::new(30), vec![vec![0; 30]]);
        j.backend = BackendChoice::Fixed(Backend::Statevector);
        assert!(JobSpec::Circuit(j).validate().is_err());
        // Degenerate bond caps.
        let mut j = CircuitJob::new(wire_test_circuit(), vec![vec![0; 4]]);
        j.backend = BackendChoice::Fixed(Backend::Mps { max_bond: 0 });
        assert!(JobSpec::Circuit(j).validate().is_err());
    }
}

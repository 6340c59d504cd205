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
//!   served as the [`CircuitJob`] it denotes,
//! * [`CircuitJob`] — an arbitrary gate-list circuit through the
//!   `koala-circuit` front end (simplify, light-cone, backend dispatch),
//!   answering a batch of bitstring amplitude queries.
//!
//! Every spec has a [`signature`](JobSpec::signature): a string key over the
//! *shape-determining* fields (lattice, bonds, layers, step counts — but not
//! value-level inputs like couplings or value seeds). It names the job's
//! shape class: jobs sharing a signature execute the same einsum specs on
//! the same tensor shapes. Receipts report it; the scheduler ignores it. The
//! amplitude signature *does* include the circuit seed, because the random
//! circuit's gate placement determines the evolved bond dimensions and
//! hence the contraction shapes.
//!
//! # Wire format
//!
//! Each job, and each tagged value inside one, has one field list: a line
//! per key, saying whether it is required, the default an absent key takes
//! and the value type, whose `Wire` impl decides the JSON shape and the
//! range rule. Emitting, parsing and validation all walk that list;
//! cross-field checks are code after it. The wire defaults are not the
//! `new()` defaults (an `ite` line without `seed` gets 0, `IteJob::new` gives 7).

use koala_circuit::{Backend, BackendChoice, Circuit, Gate, Gate1, Gate2};
use koala_error::{ErrorKind, KoalaError, ResultExt};
use koala_json::JsonValue;
use koala_linalg::{c64, Matrix, C64};
use koala_peps::ContractionMethod;
use koala_sim::{Optimizer, VqeBackend};

use koala_error::Result;

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
pub(crate) const MAX_SITES: usize = 64;

/// The lattice cap; each dimension is a [`Count`] in its field list.
fn check_lattice(nrows: usize, ncols: usize) -> Result<()> {
    if nrows.checked_mul(ncols).is_none_or(|sites| sites > MAX_SITES) {
        return Err(invalid(format!(
            "lattice {nrows}x{ncols} exceeds the service cap of {MAX_SITES} sites"
        )));
    }
    Ok(())
}

/// The one bitstring check of amplitude and circuit jobs: a non-empty batch
/// of `n`-bit strings of 0/1.
fn check_bitstrings(bitstrings: &[Vec<usize>], n: usize) -> Result<()> {
    if bitstrings.is_empty() {
        return Err(invalid("at least one bitstring is required"));
    }
    match bitstrings.iter().position(|bits| bits.len() != n || bits.iter().any(|&b| b > 1)) {
        Some(i) => Err(invalid(format!("bitstring {i} is not {n} bits of 0/1"))),
        None => Ok(()),
    }
}

/// Imaginary-time-evolution ground-state job on the transverse-field Ising
/// model: evolve `|0...0>` with PEPS-TEBD and report the measured energies.
///
/// [`IteJob::new`] has its own defaults; an absent wire key takes the field
/// list's (`jz` -1, `hx` -2, `tau` 0.05, `measure_every` 1, `seed` 0).
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
    /// `Jz = -1, hx = -2`, `tau = 0.05`, 40 steps measured every 5, seed 7.
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

    fn fields(&mut self, w: &mut Walk) -> Result<()> {
        w.req("nrows", Count, &mut self.nrows)?;
        w.req("ncols", Count, &mut self.ncols)?;
        w.opt("jz", Real::Finite, &mut self.jz, -1.0)?;
        w.opt("hx", Real::Finite, &mut self.hx, -2.0)?;
        w.opt("tau", Real::Positive, &mut self.tau, 0.05)?;
        w.req("steps", Count, &mut self.steps)?;
        w.req("evolution_bond", Count, &mut self.evolution_bond)?;
        w.req("contraction_bond", Count, &mut self.contraction_bond)?;
        w.opt("measure_every", Count, &mut self.measure_every, 1)?;
        w.opt("seed", Seed, &mut self.seed, 0)?;
        w.cross(|| check_lattice(self.nrows, self.ncols))
    }

    fn signature(&self) -> String {
        let IteJob { nrows, ncols, evolution_bond: r, contraction_bond: m, steps, .. } = self;
        format!("ite/{nrows}x{ncols}/r{r}/m{m}/steps{steps}/every{}", self.measure_every)
    }
}

/// Variational-quantum-eigensolver job on the transverse-field Ising model.
///
/// [`VqeJob::new`] has its own defaults; an absent wire key takes the field
/// list's (`jz` -1, `hx` -3.5, `layers` 1, `seed` 0, Nelder–Mead `scale`
/// 0.4, SPSA `a0`/`c0` 0.3/0.2).
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
    /// Figure 14 couplings, one ansatz layer, Nelder–Mead with 60 iterations,
    /// seed 11.
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

    fn fields(&mut self, w: &mut Walk) -> Result<()> {
        w.req("nrows", Count, &mut self.nrows)?;
        w.req("ncols", Count, &mut self.ncols)?;
        w.opt("jz", Real::Finite, &mut self.jz, -1.0)?;
        w.opt("hx", Real::Finite, &mut self.hx, -3.5)?;
        w.opt("layers", Count, &mut self.layers, 1)?;
        w.req("backend", Tagged, &mut self.backend)?;
        w.req("optimizer", Tagged, &mut self.optimizer)?;
        w.opt("seed", Seed, &mut self.seed, 0)?;
        w.cross(|| check_lattice(self.nrows, self.ncols))
    }

    fn signature(&self) -> String {
        format!(
            "vqe/{}x{}/l{}/{:?}/{:?}",
            self.nrows, self.ncols, self.layers, self.backend, self.optimizer
        )
    }
}

/// Batched random-quantum-circuit amplitude job: the seeded random circuit
/// of `koala_sim::random_circuit`, served as the [`CircuitJob`] it denotes
/// on the PEPS backend (`evolution_bond`, `method`). A single-bitstring job
/// is light-cone pruned like any circuit job, so its reported `max_bond` is
/// the pruned evolution's.
///
/// [`AmplitudeJob::new`] has its own defaults; an absent wire key takes the
/// field list's (`layers` 8, `entangle_every` 4, `circuit_seed` 0,
/// `evolution_bond` 2^16, `seed` 0, IBMPS `n_iter` 2, `oversample` 10).
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
    /// evolved exactly, asking for the all-zeros amplitude; both seeds 21.
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

    fn fields(&mut self, w: &mut Walk) -> Result<()> {
        w.req("nrows", Count, &mut self.nrows)?;
        w.req("ncols", Count, &mut self.ncols)?;
        w.opt("layers", Count, &mut self.layers, 8)?;
        w.opt("entangle_every", Count, &mut self.entangle_every, 4)?;
        w.opt("circuit_seed", Seed, &mut self.circuit_seed, 0)?;
        w.opt("evolution_bond", Count, &mut self.evolution_bond, 1 << 16)?;
        w.req("method", Tagged, &mut self.method)?;
        w.req("bitstrings", List(List(Unsigned)), &mut self.bitstrings)?;
        w.opt("seed", Seed, &mut self.seed, 0)?;
        w.cross(|| {
            check_lattice(self.nrows, self.ncols)?;
            if let ContractionMethod::Bmps { max_bond: 0 }
            | ContractionMethod::Ibmps { max_bond: 0, .. } = self.method
            {
                return Err(invalid("amplitudes: contraction max_bond must be >= 1"));
            }
            check_bitstrings(&self.bitstrings, self.nrows * self.ncols)
        })
    }

    fn signature(&self) -> String {
        let AmplitudeJob { nrows, ncols, layers, entangle_every: e, circuit_seed: cs, .. } = self;
        let (r, method, n) = (self.evolution_bond, self.method, self.bitstrings.len());
        format!("amp/{nrows}x{ncols}/l{layers}/e{e}/cs{cs}/r{r}/{method:?}/n{n}")
    }
}

/// Largest gate list a [`CircuitJob`] may carry.
pub(crate) const MAX_CIRCUIT_GATES: usize = 4096;

/// Gate-list circuit job: run an arbitrary typed circuit through the
/// `koala-circuit` front end (structural simplification, light-cone pruning
/// for single queries, backend dispatch) and answer a batch of bitstring
/// amplitude queries. The whole batch shares one state evolution, so warm
/// re-submissions of the same circuit replay cached contraction plans.
///
/// The wire flattens the circuit into `num_qubits`, optional `nrows`/`ncols`
/// and `gates`. [`CircuitJob::new`] has its own defaults; an absent wire key
/// takes the field list's (`backend` auto, PEPS `method` `bmps(64)`, `seed`
/// 17).
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
    /// A job querying `bitstrings` on `circuit` under auto dispatch, seed 17.
    pub fn new(circuit: Circuit, bitstrings: Vec<Vec<usize>>) -> CircuitJob {
        CircuitJob { circuit, bitstrings, backend: BackendChoice::Auto, seed: 17 }
    }

    fn fields(&mut self, w: &mut Walk) -> Result<()> {
        w.circuit(&mut self.circuit)?;
        w.req("bitstrings", List(List(Unsigned)), &mut self.bitstrings)?;
        w.opt("backend", Tagged, &mut self.backend, BackendChoice::Auto)?;
        w.opt("seed", Seed, &mut self.seed, 17)?;
        w.cross(|| {
            let n = self.circuit.num_qubits();
            check_bitstrings(&self.bitstrings, n)?;
            if self.backend == BackendChoice::Fixed(Backend::Statevector) && n > 26 {
                return Err(invalid(format!(
                    "circuit: {n} qubits exceed the 26-qubit statevector limit"
                )));
            }
            Ok(())
        })
    }

    /// The signature hashes the circuit *structure* (gate kinds, qubit
    /// placements, zero patterns of arbitrary unitaries) but not parameter
    /// values: same-structure circuits evolve through the same tensor
    /// shapes. The one caveat is angle-dependent simplification — a
    /// rotation that lands exactly on the identity is dropped and shifts
    /// the shapes — so two jobs of one signature may contract a few
    /// different shapes; results are unaffected.
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
        Tagged.check(self).map_err(rejected)
    }

    /// Workload-signature key: the job's shape class. Jobs sharing a
    /// signature run the same einsum specs over the same tensor shapes. It
    /// is reported on the receipt and does not affect scheduling.
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
        Tagged.to_wire(self)
    }

    /// Parse the wire form produced by [`JobSpec::to_json`]. The parsed spec
    /// is validated before being returned.
    ///
    /// Integer fields travel as JSON numbers (`f64`); seeds and counters are
    /// exact up to 2^53, far beyond any spec this service accepts.
    pub fn from_json(v: &JsonValue) -> Result<JobSpec> {
        let spec: JobSpec = Tagged.from_wire(v).map_err(rejected)?;
        spec.validate()?;
        Ok(spec)
    }
}

/// One pass over a field list.
enum Walk<'a> {
    /// Append each field to the object under construction.
    Emit(Vec<(String, JsonValue)>),
    /// Overwrite each field from `object`; an absent optional key takes the
    /// line's default. `matched` records whether the tag line matched.
    Parse { object: &'a JsonValue, matched: bool },
    /// Apply each field's range rule, then the cross-field checks.
    Check,
}

impl Walk<'_> {
    fn field<T, W: Wire<T>>(
        &mut self,
        key: &str,
        wire: W,
        v: &mut T,
        default: Option<T>,
    ) -> Result<()> {
        match self {
            Walk::Emit(fields) => fields.push((key.to_string(), wire.to_wire(v))),
            Walk::Parse { object, .. } => {
                *v = match (object.get(key), default) {
                    (Some(x), _) => wire.from_wire(x).with_context(|| format!("field '{key}'"))?,
                    (None, Some(default)) => default,
                    (None, None) => return Err(invalid(format!("missing field '{key}'"))),
                }
            }
            Walk::Check => wire.check(v).with_context(|| format!("field '{key}'"))?,
        }
        Ok(())
    }

    /// A field the wire must carry.
    fn req<T, W: Wire<T>>(&mut self, key: &str, wire: W, v: &mut T) -> Result<()> {
        self.field(key, wire, v, None)
    }

    /// A field whose absent key means `default`.
    fn opt<T, W: Wire<T>>(&mut self, key: &str, wire: W, v: &mut T, default: T) -> Result<()> {
        self.field(key, wire, v, Some(default))
    }

    /// A field whose absent key means `None`.
    fn maybe<T, W: Wire<T>>(&mut self, key: &str, wire: W, v: &mut Option<T>) -> Result<()> {
        match (self, v) {
            (Walk::Emit(fields), Some(x)) => fields.push((key.to_string(), wire.to_wire(x))),
            (Walk::Parse { object, .. }, v) => {
                let x = object.get(key).map(|x| wire.from_wire(x)).transpose();
                *v = x.with_context(|| format!("field '{key}'"))?;
            }
            (Walk::Check, Some(x)) => wire.check(x).with_context(|| format!("field '{key}'"))?,
            (_, None) => {}
        }
        Ok(())
    }

    /// The first line of a [`Record`] variant: its tag. A parse walk stops
    /// here unless the object carries this tag.
    fn tag(&mut self, key: &str, tag: &str) -> Result<()> {
        match self {
            Walk::Emit(fields) => fields.push((key.to_string(), JsonValue::str(tag))),
            Walk::Parse { object, matched } => {
                *matched = object.get(key).and_then(JsonValue::as_str) == Some(tag);
                if !*matched {
                    return Err(invalid(format!("not a '{tag}'")));
                }
            }
            Walk::Check => {}
        }
        Ok(())
    }

    /// A job's circuit, flattened into the job object: `num_qubits`, an
    /// optional `nrows` x `ncols` lattice that must hold exactly that many
    /// sites, and `gates`, each pushed through the circuit's own checks.
    fn circuit(&mut self, circuit: &mut Circuit) -> Result<()> {
        let (mut n, (mut nrows, mut ncols)) = (circuit.num_qubits(), circuit.lattice().unzip());
        if let Walk::Check = self {
            let gates = circuit.len();
            if n == 0 || n > MAX_SITES || gates > MAX_CIRCUIT_GATES {
                return Err(invalid(format!(
                    "circuit: {n} qubits and {gates} gates, the service takes 1 to {MAX_SITES} \
                     qubits and up to {MAX_CIRCUIT_GATES} gates"
                )));
            }
            return circuit.validate();
        }
        let mut gates = circuit.gates().to_vec();
        self.req("num_qubits", Unsigned, &mut n)?;
        self.maybe("nrows", Unsigned, &mut nrows)?;
        self.maybe("ncols", Unsigned, &mut ncols)?;
        self.req("gates", List(Tagged), &mut gates)?;
        if let Walk::Parse { .. } = self {
            *circuit = match (nrows, ncols) {
                (None, None) => Circuit::new(n),
                (Some(r), Some(c)) if r.checked_mul(c) == Some(n) => Circuit::with_lattice(r, c),
                _ => return Err(invalid(format!("circuit: nrows x ncols must give {n} qubits"))),
            };
            for (i, gate) in gates.into_iter().enumerate() {
                let pushed = match gate {
                    Gate::One { qubit, gate } => circuit.push_one(qubit, gate),
                    Gate::Two { a, b, gate } => circuit.push_two(a, b, gate),
                };
                pushed.with_context(|| format!("circuit: gate {i}"))?;
            }
        }
        Ok(())
    }

    /// Cross-field checks, run after the list by the check walk only.
    fn cross(&self, checks: impl FnOnce() -> Result<()>) -> Result<()> {
        match self {
            Walk::Check => checks(),
            _ => Ok(()),
        }
    }
}

/// A value type's JSON shape (`to_wire`, and `from_wire`, which refuses any
/// other JSON) and its range rule (`check`, which the check walk applies to
/// parsed and in-process specs alike). `self` is the wire type (`Count`,
/// `Real::Finite`, ...); `from_wire` builds the `T` it carries.
#[allow(clippy::wrong_self_convention)]
trait Wire<T> {
    fn to_wire(&self, v: &T) -> JsonValue;
    fn from_wire(&self, v: &JsonValue) -> Result<T>;
    fn check(&self, _v: &T) -> Result<()> {
        Ok(())
    }
}

fn number(v: &JsonValue) -> Result<f64> {
    v.as_num().ok_or_else(|| invalid("must be a number"))
}

/// An unsigned integer (`n_iter`, qubit indices, bits). Fractions,
/// negatives, NaN, infinities and anything past 2^53 (where `f64` stops
/// being exact) are rejected rather than cast (`as usize` would map them all
/// to some in-range value).
struct Unsigned;

impl Wire<usize> for Unsigned {
    fn to_wire(&self, v: &usize) -> JsonValue {
        JsonValue::num(*v as f64)
    }

    fn from_wire(&self, v: &JsonValue) -> Result<usize> {
        let x = number(v)?;
        if !(0.0..=9_007_199_254_740_992.0).contains(&x) || x.fract() != 0.0 {
            return Err(invalid(format!("must be a non-negative integer, got {x}")));
        }
        Ok(x as usize)
    }
}

/// A count (lattice dimensions, bonds, steps, layers, budgets): an
/// [`Unsigned`] that must be >= 1.
struct Count;

impl Wire<usize> for Count {
    fn to_wire(&self, v: &usize) -> JsonValue {
        Unsigned.to_wire(v)
    }

    fn from_wire(&self, v: &JsonValue) -> Result<usize> {
        Unsigned.from_wire(v)
    }

    fn check(&self, v: &usize) -> Result<()> {
        if *v == 0 {
            return Err(invalid("must be >= 1"));
        }
        Ok(())
    }
}

/// An RNG seed: an [`Unsigned`] read as `u64`.
struct Seed;

impl Wire<u64> for Seed {
    fn to_wire(&self, v: &u64) -> JsonValue {
        JsonValue::num(*v as f64)
    }

    fn from_wire(&self, v: &JsonValue) -> Result<u64> {
        Ok(Unsigned.from_wire(v)? as u64)
    }
}

/// A real number, with the range rule its line asks for.
enum Real {
    Any,
    Finite,
    Positive,
}

impl Wire<f64> for Real {
    fn to_wire(&self, v: &f64) -> JsonValue {
        JsonValue::num(*v)
    }

    fn from_wire(&self, v: &JsonValue) -> Result<f64> {
        number(v)
    }

    fn check(&self, v: &f64) -> Result<()> {
        match self {
            Real::Finite if !v.is_finite() => Err(invalid(format!("must be finite, got {v}"))),
            Real::Positive if !(v.is_finite() && *v > 0.0) => {
                Err(invalid(format!("must be finite and positive, got {v}")))
            }
            _ => Ok(()),
        }
    }
}

/// An amplitude: `[re, im]`.
struct Complex;

impl Wire<C64> for Complex {
    fn to_wire(&self, v: &C64) -> JsonValue {
        JsonValue::Array(vec![JsonValue::num(v.re), JsonValue::num(v.im)])
    }

    fn from_wire(&self, v: &JsonValue) -> Result<C64> {
        match v.as_array() {
            Some([re, im]) => Ok(c64(number(re)?, number(im)?)),
            _ => Err(invalid("must be an [re, im] pair")),
        }
    }
}

/// A `dim x dim` gate matrix: row-major interleaved `[re, im, re, im, ...]`.
/// `f64` values roundtrip exactly through the JSON layer (shortest-roundtrip
/// printing), so a parsed circuit is bit-identical to the submitted one.
struct Unitary(usize);

impl Wire<Matrix> for Unitary {
    fn to_wire(&self, m: &Matrix) -> JsonValue {
        let parts = m.data().iter().flat_map(|z| [JsonValue::num(z.re), JsonValue::num(z.im)]);
        JsonValue::Array(parts.collect())
    }

    fn from_wire(&self, v: &JsonValue) -> Result<Matrix> {
        let (dim, parts) = (self.0, v.as_array().ok_or_else(|| invalid("must be an array"))?);
        if parts.len() != 2 * dim * dim {
            return Err(invalid(format!("{} floats for a {dim}x{dim} matrix", parts.len())));
        }
        let data = parts.chunks(2).map(|z| Ok(c64(number(&z[0])?, number(&z[1])?)));
        let mut m = Matrix::from_vec(dim, dim, data.collect::<Result<_>>()?)?;
        // Re-derive the structural realness hint lost on the wire, so real
        // unitaries keep the real-kernel fast path after a JSON roundtrip.
        m.mark_real_if_exact();
        Ok(m)
    }
}

/// A JSON array of one wire type.
struct List<W>(W);

impl<T, W: Wire<T>> Wire<Vec<T>> for List<W> {
    fn to_wire(&self, v: &Vec<T>) -> JsonValue {
        JsonValue::Array(v.iter().map(|x| self.0.to_wire(x)).collect())
    }

    fn from_wire(&self, v: &JsonValue) -> Result<Vec<T>> {
        let items = v.as_array().ok_or_else(|| invalid("must be an array"))?;
        let parsed = items.iter().enumerate();
        parsed.map(|(i, x)| self.0.from_wire(x).with_context(|| format!("item {i}"))).collect()
    }

    fn check(&self, v: &Vec<T>) -> Result<()> {
        v.iter().try_for_each(|x| self.0.check(x))
    }
}

/// A tagged union on the wire: an object whose tag names the variant, then
/// that variant's fields. Each variant's field list starts with its tag.
trait Record: Clone {
    /// One value per variant; a parse walk overwrites every field.
    fn variants() -> Vec<Self>;
    /// The field list of this value's variant, in wire order.
    fn fields(&mut self, w: &mut Walk) -> Result<()>;
}

/// The wire type of every [`Record`].
struct Tagged;

impl<T: Record> Wire<T> for Tagged {
    fn to_wire(&self, v: &T) -> JsonValue {
        let mut w = Walk::Emit(Vec::new());
        // An emit walk only reads the fields: it cannot fail.
        let _ = v.clone().fields(&mut w);
        let Walk::Emit(fields) = w else { return JsonValue::Null };
        JsonValue::Object(fields)
    }

    fn from_wire(&self, v: &JsonValue) -> Result<T> {
        for mut value in T::variants() {
            let mut w = Walk::Parse { object: v, matched: false };
            let parsed = value.fields(&mut w);
            if let Walk::Parse { matched: true, .. } = w {
                return parsed.map(|()| value);
            }
        }
        Err(invalid("missing or unknown tag"))
    }

    fn check(&self, v: &T) -> Result<()> {
        v.clone().fields(&mut Walk::Check)
    }
}

/// The tag key of every record but [`Gate`].
const TYPE: &str = "type";

impl Record for JobSpec {
    fn variants() -> Vec<JobSpec> {
        vec![
            JobSpec::Ite(IteJob::new(0, 0, 0)),
            JobSpec::Vqe(VqeJob::new(0, 0, VqeBackend::StateVector)),
            JobSpec::Amplitudes(AmplitudeJob::new(0, 0, ContractionMethod::Exact)),
            JobSpec::Circuit(CircuitJob::new(Circuit::new(0), Vec::new())),
        ]
    }

    fn fields(&mut self, w: &mut Walk) -> Result<()> {
        w.tag(TYPE, self.kind())?;
        match self {
            JobSpec::Ite(j) => j.fields(w),
            JobSpec::Vqe(j) => j.fields(w),
            JobSpec::Amplitudes(j) => j.fields(w),
            JobSpec::Circuit(j) => j.fields(w),
        }
    }
}

impl Record for VqeBackend {
    fn variants() -> Vec<VqeBackend> {
        vec![VqeBackend::StateVector, VqeBackend::Peps { bond: 0, contraction_bond: 0 }]
    }

    fn fields(&mut self, w: &mut Walk) -> Result<()> {
        match self {
            VqeBackend::StateVector => w.tag(TYPE, "statevector"),
            VqeBackend::Peps { bond, contraction_bond } => {
                w.tag(TYPE, "peps")?;
                w.req("bond", Count, bond)?;
                w.req("contraction_bond", Count, contraction_bond)
            }
        }
    }
}

impl Record for Optimizer {
    fn variants() -> Vec<Optimizer> {
        vec![
            Optimizer::NelderMead { scale: 0.0, max_iterations: 0 },
            Optimizer::Spsa { a0: 0.0, c0: 0.0, iterations: 0 },
        ]
    }

    fn fields(&mut self, w: &mut Walk) -> Result<()> {
        match self {
            Optimizer::NelderMead { scale, max_iterations } => {
                w.tag(TYPE, "nelder_mead")?;
                w.opt("scale", Real::Any, scale, 0.4)?;
                w.req("max_iterations", Count, max_iterations)
            }
            Optimizer::Spsa { a0, c0, iterations } => {
                w.tag(TYPE, "spsa")?;
                w.opt("a0", Real::Any, a0, 0.3)?;
                w.opt("c0", Real::Any, c0, 0.2)?;
                w.req("iterations", Count, iterations)
            }
        }
    }
}

/// `max_bond` is an [`Unsigned`]: a circuit job's PEPS backend takes 0,
/// an amplitude job's cross-field check refuses it.
impl Record for ContractionMethod {
    fn variants() -> Vec<ContractionMethod> {
        let ibmps = ContractionMethod::Ibmps { max_bond: 0, n_iter: 0, oversample: 0 };
        vec![ContractionMethod::Exact, ContractionMethod::bmps(0), ibmps]
    }

    fn fields(&mut self, w: &mut Walk) -> Result<()> {
        let (max_bond, sketch) = match self {
            ContractionMethod::Exact => return w.tag(TYPE, "exact"),
            ContractionMethod::Bmps { max_bond } => (max_bond, None),
            ContractionMethod::Ibmps { max_bond, n_iter, oversample } => {
                (max_bond, Some((n_iter, oversample)))
            }
        };
        w.tag(TYPE, if sketch.is_some() { "ibmps" } else { "bmps" })?;
        w.req("max_bond", Unsigned, max_bond)?;
        if let Some((n_iter, oversample)) = sketch {
            w.opt("n_iter", Unsigned, n_iter, 2)?;
            w.opt("oversample", Unsigned, oversample, 10)?;
        }
        Ok(())
    }
}

impl Record for BackendChoice {
    fn variants() -> Vec<BackendChoice> {
        let peps = Backend::Peps { evolution_bond: 0, method: ContractionMethod::Exact };
        let fixed = [Backend::Statevector, Backend::Mps { max_bond: 0 }, peps];
        std::iter::once(BackendChoice::Auto).chain(fixed.map(BackendChoice::Fixed)).collect()
    }

    fn fields(&mut self, w: &mut Walk) -> Result<()> {
        match self {
            BackendChoice::Auto => w.tag(TYPE, "auto"),
            BackendChoice::Fixed(Backend::Statevector) => w.tag(TYPE, "statevector"),
            BackendChoice::Fixed(Backend::Mps { max_bond }) => {
                w.tag(TYPE, "mps")?;
                w.req("max_bond", Count, max_bond)
            }
            BackendChoice::Fixed(Backend::Peps { evolution_bond, method }) => {
                w.tag(TYPE, "peps")?;
                w.req("evolution_bond", Count, evolution_bond)?;
                w.opt("method", Tagged, method, ContractionMethod::bmps(64))
            }
        }
    }
}

/// A gate: `{"g": tag, "q": qubit}` or `{"g": tag, "a": a, "b": b}`, plus
/// `theta` for rotations and `m` for arbitrary unitaries.
impl Record for Gate {
    fn variants() -> Vec<Gate> {
        use Gate1::{Rx, Ry, Rz, H, S, T, X, Y, Z};
        let ones =
            [H, X, Y, Z, S, T, Rx(0.0), Ry(0.0), Rz(0.0), Gate1::Unitary(Matrix::zeros(2, 2))];
        let twos = [Gate2::Cnot, Gate2::Cz, Gate2::Swap, Gate2::Unitary(Matrix::zeros(4, 4))];
        let ones = ones.into_iter().map(|gate| Gate::One { qubit: 0, gate });
        ones.chain(twos.into_iter().map(|gate| Gate::Two { a: 0, b: 0, gate })).collect()
    }

    fn fields(&mut self, w: &mut Walk) -> Result<()> {
        let tag = match self {
            Gate::One { gate, .. } => gate.tag(),
            Gate::Two { gate, .. } => gate.tag(),
        };
        w.tag("g", tag)?;
        let unitary = match self {
            Gate::One { qubit, gate } => {
                w.req("q", Unsigned, qubit)?;
                match gate {
                    Gate1::Rx(t) | Gate1::Ry(t) | Gate1::Rz(t) => {
                        return w.req("theta", Real::Any, t)
                    }
                    Gate1::Unitary(m) => Some((m, 2)),
                    _ => None,
                }
            }
            Gate::Two { a, b, gate } => {
                w.req("a", Unsigned, a)?;
                w.req("b", Unsigned, b)?;
                match gate {
                    Gate2::Unitary(m) => Some((m, 4)),
                    _ => None,
                }
            }
        };
        unitary.map_or(Ok(()), |(m, dim)| w.req("m", Unitary(dim), m))
    }
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
        let num = |x: usize| Unsigned.to_wire(&x);
        let (tag, fields) = match self {
            JobResult::Ite(o) => {
                let energies = o.energies.iter().map(|&(s, e)| [num(s), JsonValue::num(e)]);
                let energies = energies.map(|pair| JsonValue::Array(pair.into())).collect();
                let fields = vec![
                    ("energies", JsonValue::Array(energies)),
                    ("final_energy", JsonValue::num(o.final_energy)),
                    ("max_bond", num(o.max_bond)),
                ];
                ("ite", fields)
            }
            JobResult::Vqe(o) => (
                "vqe",
                vec![
                    ("best_energy", JsonValue::num(o.best_energy)),
                    ("energy_history", List(Real::Any).to_wire(&o.energy_history)),
                    ("best_params", List(Real::Any).to_wire(&o.best_params)),
                    ("evaluations", num(o.evaluations)),
                ],
            ),
            JobResult::Amplitudes(o) => (
                "amplitudes",
                vec![
                    ("amplitudes", List(Complex).to_wire(&o.amplitudes)),
                    ("max_bond", num(o.max_bond)),
                ],
            ),
            JobResult::Circuit(o) => (
                "circuit",
                vec![
                    ("amplitudes", List(Complex).to_wire(&o.amplitudes)),
                    ("backend", JsonValue::str(&o.backend)),
                    ("max_bond", num(o.max_bond)),
                    ("gates_submitted", num(o.gates_submitted)),
                    ("gates_executed", num(o.gates_executed)),
                ],
            ),
        };
        JsonValue::object(std::iter::once(("type", JsonValue::str(tag))).chain(fields))
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

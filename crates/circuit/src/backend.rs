//! Backend dispatch: lower a simplified circuit to the cheapest simulator.
//!
//! Three lowering targets:
//!
//! * **Statevector** — exact dense evolution, the differential oracle.
//!   Memory-bound at `2^n` amplitudes, so the auto-dispatcher only picks it
//!   up to [`STATEVECTOR_MAX_QUBITS`].
//! * **MPS** — TEBD-style chain evolution with per-gate SVD truncation
//!   (`koala-mps`). Chosen when the circuit's *entanglement bound* — the
//!   product of operator Schmidt ranks of the two-qubit gates crossing the
//!   worst chain cut, capped by the cut's Hilbert dimension — fits in
//!   [`MPS_MAX_BOND`]; at that bond the evolution is numerically exact, not
//!   an approximation.
//! * **PEPS** — the 2-D engine (`koala-peps`) for everything wider, using
//!   the circuit's declared lattice (or a `1 x n` chain) with SWAP routing
//!   and boundary-MPS amplitude contraction. This is the approximate
//!   regime: evolution and contraction bonds are tunable.
//!
//! Every backend evolves the state **once** per batch and then answers each
//! bitstring with a value-independent contraction, so warm batches replay
//! cached einsum plans, and all work lands on the ambient
//! [`koala_exec::WorkMeter`] scope. On the PEPS backend the bitstrings are
//! independent boundary-MPS contractions and run as one task each
//! ([`koala_peps::amplitude_batch`]): the caller's stream yields one seed per
//! bitstring, so the amplitudes are bit-identical at every thread count, and
//! each in-flight bitstring holds one projected row and one zip-up beyond
//! its boundary MPS.

use koala_error::KoalaError;
use koala_linalg::{matmul, Matrix, C64};
use koala_mps::Mps;
use koala_peps::{ContractionMethod, GateOp, Peps, Site, UpdateMethod};
use koala_tensor::{tensordot, EinsumSvd, Tensor, Truncation};
use rand::Rng;

use crate::ir::{Circuit, Gate};
use crate::lightcone::prune_for_bits;
use crate::simplify::{simplify, SimplifyStats};
use koala_error::Result;

/// Largest qubit count the auto-dispatcher sends to the dense statevector.
pub(crate) const STATEVECTOR_MAX_QUBITS: usize = 20;

/// Largest entanglement-bound bond the auto-dispatcher accepts for MPS.
pub(crate) const MPS_MAX_BOND: usize = 64;

/// Hard cap of the dense statevector representation itself.
const STATEVECTOR_HARD_MAX: usize = 26;

/// Relative SVD truncation floor for MPS/PEPS gate applications.
const EVOLUTION_TOL: f64 = 1e-14;

/// A concrete simulation backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// Exact dense statevector (the oracle).
    Statevector,
    /// MPS chain evolution with SVD truncation at `max_bond`.
    Mps {
        /// Bond-dimension cap for the evolved chain.
        max_bond: usize,
    },
    /// PEPS lattice evolution + boundary-MPS amplitude contraction.
    Peps {
        /// Bond-dimension cap during gate application.
        evolution_bond: usize,
        /// Contraction method for the amplitude queries.
        method: ContractionMethod,
    },
}

impl Backend {
    /// Stable lowercase tag ("statevector" / "mps" / "peps") for wire
    /// formats and logs.
    pub fn tag(&self) -> &'static str {
        match self {
            Backend::Statevector => "statevector",
            Backend::Mps { .. } => "mps",
            Backend::Peps { .. } => "peps",
        }
    }
}

/// How the dispatcher picks the backend.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BackendChoice {
    /// Qubit-count / entanglement-estimate heuristic (`choose_backend`).
    #[default]
    Auto,
    /// Manual override.
    Fixed(Backend),
}

/// The result of an amplitude batch.
#[derive(Debug, Clone)]
pub struct AmplitudeBatch {
    /// One amplitude per queried bitstring, in submission order.
    pub amplitudes: Vec<C64>,
    /// The backend that actually ran.
    pub backend: Backend,
    /// Largest bond dimension of the evolved state (1 for statevector).
    pub max_bond: usize,
    /// Gate count of the submitted circuit.
    pub gates_submitted: usize,
    /// Gate count actually executed after simplification (and light-cone
    /// pruning for single-bitstring queries).
    pub gates_executed: usize,
    /// What the structural simplifier did.
    pub simplify_stats: SimplifyStats,
}

/// Worst-cut entanglement bound of a chain layout: for every cut `i`
/// (between qubits `i` and `i+1`), two-qubit gates crossing the cut can
/// each multiply the Schmidt rank by their operator Schmidt rank, but never
/// past the Hilbert dimension `2^min(i+1, n-1-i)` of the smaller side. The
/// returned value is the largest bond any cut can reach — an MPS evolved at
/// this bond is exact.
pub(crate) fn entanglement_bond_bound(circuit: &Circuit) -> usize {
    let n = circuit.num_qubits();
    if n < 2 {
        return 1;
    }
    let mut worst: u32 = 0;
    let mut log_ranks: Vec<u32> = vec![0; n - 1];
    for gate in circuit.gates() {
        if let Gate::Two { a, b, gate } = gate {
            let rank = gate.schmidt_rank() as u32;
            let log_rank = u32::BITS - (rank - 1).leading_zeros(); // ceil(log2)
            let (lo, hi) = if a < b { (*a, *b) } else { (*b, *a) };
            for cut in lo..hi {
                log_ranks[cut] += log_rank;
            }
        }
    }
    for (cut, &lr) in log_ranks.iter().enumerate() {
        let side = (cut + 1).min(n - 1 - cut) as u32;
        worst = worst.max(lr.min(side));
    }
    // Saturate rather than overflow for deep circuits; the caller only
    // compares against small thresholds.
    if worst >= usize::BITS - 1 {
        usize::MAX
    } else {
        1usize << worst
    }
}

/// The auto-dispatch heuristic: statevector while it fits, MPS while the
/// entanglement bound keeps the chain exactly representable, PEPS beyond.
pub(crate) fn choose_backend(circuit: &Circuit) -> Backend {
    let n = circuit.num_qubits();
    if n <= STATEVECTOR_MAX_QUBITS {
        return Backend::Statevector;
    }
    let bound = entanglement_bond_bound(circuit);
    if bound <= MPS_MAX_BOND {
        return Backend::Mps { max_bond: bound };
    }
    // The approximate regime: moderate evolution bond, boundary-MPS
    // contraction with headroom over the evolved bond.
    Backend::Peps { evolution_bond: 16, method: ContractionMethod::bmps(64) }
}

/// Simplify `circuit`, pick a backend, evolve once, and answer every
/// bitstring in `bitstrings`.
///
/// Single-bitstring queries additionally run light-cone pruning (the peeled
/// phase is folded back into the returned amplitude); batches share one
/// evolved state instead, which is what lets warm batches replay cached
/// contraction plans.
///
/// # Errors
/// Invalid bitstrings, circuits too large for a forced statevector backend,
/// and engine failures (SVD breakdown etc.) are returned as errors.
pub fn amplitudes<R: Rng + ?Sized>(
    circuit: &Circuit,
    bitstrings: &[Vec<usize>],
    choice: BackendChoice,
    rng: &mut R,
) -> Result<AmplitudeBatch> {
    let n = circuit.num_qubits();
    if bitstrings.is_empty() {
        return Err(KoalaError::invalid("circuit: empty bitstring batch"));
    }
    for bits in bitstrings {
        if bits.len() != n || bits.iter().any(|&b| b > 1) {
            return Err(KoalaError::invalid(format!(
                "circuit: bitstring {bits:?} is not {n} bits of 0/1"
            )));
        }
    }

    let gates_submitted = circuit.len();
    let (simplified, simplify_stats) = simplify(circuit);

    // Light-cone pruning only helps when the whole batch shares the peel;
    // with one query it always applies.
    let (executed, queries, phase) = if bitstrings.len() == 1 {
        let pruned = prune_for_bits(&simplified, &bitstrings[0])?;
        (pruned.circuit, vec![pruned.bits], pruned.phase)
    } else {
        (simplified, bitstrings.to_vec(), C64::ONE)
    };

    let backend = match choice {
        BackendChoice::Auto => choose_backend(&executed),
        BackendChoice::Fixed(b) => b,
    };
    let gates_executed = executed.len();

    let (mut amplitudes, max_bond) = match backend {
        Backend::Statevector => run_statevector(&executed, &queries)?,
        Backend::Mps { max_bond } => run_mps(&executed, &queries, max_bond)?,
        Backend::Peps { evolution_bond, method } => {
            run_peps(&executed, &queries, evolution_bond, method, rng)?
        }
    };
    if phase != C64::ONE {
        for a in &mut amplitudes {
            *a *= phase;
        }
    }
    Ok(AmplitudeBatch {
        amplitudes,
        backend,
        max_bond,
        gates_submitted,
        gates_executed,
        simplify_stats,
    })
}

// ---------------------------------------------------------------------------
// Statevector lowering (the oracle).
// ---------------------------------------------------------------------------

fn run_statevector(circuit: &Circuit, queries: &[Vec<usize>]) -> Result<(Vec<C64>, usize)> {
    let n = circuit.num_qubits();
    if n > STATEVECTOR_HARD_MAX {
        return Err(KoalaError::invalid(format!(
            "circuit: {n} qubits exceed the {STATEVECTOR_HARD_MAX}-qubit statevector limit"
        )));
    }
    // A 1 x n lattice makes qubit q the site (0, q) in row-major order, so
    // bit order matches the circuit's regardless of any declared lattice.
    let mut sv = koala_sim::StateVector::computational_zeros(1, n.max(1));
    for gate in circuit.gates() {
        match gate {
            Gate::One { qubit, gate } => sv.apply_one_site(&gate.matrix(), (0, *qubit)),
            Gate::Two { a, b, gate } => sv.apply_two_site(&gate.matrix(), (0, *a), (0, *b)),
        }
    }
    Ok((queries.iter().map(|bits| sv.amplitude(bits)).collect(), 1))
}

// ---------------------------------------------------------------------------
// MPS lowering: TEBD with SVD truncation.
// ---------------------------------------------------------------------------

/// |0> site tensor `[1, 2, 1]` with the realness hint, so all-real circuits
/// stay on the real kernels from the first gate.
fn zero_site() -> Tensor {
    Tensor::from_real(&[1, 2, 1], &[1.0, 0.0])
        .unwrap_or_else(|_| unreachable!("literal [1,2,1] tensor"))
}

/// Swap the two Kronecker subsystems of a 4x4 gate: `S G S`.
fn swap_subsystems(g: &Matrix) -> Matrix {
    let s = crate::ir::Gate2::Swap.matrix();
    matmul(&matmul(&s, g), &s)
}

/// A two-qubit gate `[a', b', a, b]` on the chain pair `[l, a, x]`, `[x, b, r]`,
/// split back into `[l, a', k]` and `[k, b', r]`.
static GATE_ON_PAIR: EinsumSvd = EinsumSvd::new("lax,xbr,ABab->lAk,kBr");

/// Apply a 4x4 gate to the adjacent chain pair `(q, q+1)` with site `q` as
/// the most significant subsystem, truncating the shared bond.
fn apply_two_adjacent(mps: &mut Mps, q: usize, gate: &Matrix, trunc: Truncation) -> Result<()> {
    let g4 = Tensor::from_matrix_2d(gate).reshape(&[2, 2, 2, 2])?;
    let f = GATE_ON_PAIR.exact(&[mps.tensor(q), mps.tensor(q + 1), &g4], trunc)?;
    let (left, right) = f.absorb_right();
    mps.set_tensor(q, left);
    mps.set_tensor(q + 1, right);
    Ok(())
}

fn run_mps(
    circuit: &Circuit,
    queries: &[Vec<usize>],
    max_bond: usize,
) -> Result<(Vec<C64>, usize)> {
    let n = circuit.num_qubits().max(1);
    let trunc = Truncation::rank_and_tol(max_bond.max(1), EVOLUTION_TOL);
    let mut mps = Mps::new((0..n).map(|_| zero_site()).collect())?;
    let swap = crate::ir::Gate2::Swap.matrix();
    for gate in circuit.gates() {
        match gate {
            Gate::One { qubit, gate } => {
                let g = Tensor::from_matrix_2d(&gate.matrix());
                let new = tensordot(&g, mps.tensor(*qubit), &[1], &[1])?.permute(&[1, 0, 2])?;
                mps.set_tensor(*qubit, new);
            }
            Gate::Two { a, b, gate } => {
                let (lo, hi) = if a < b { (*a, *b) } else { (*b, *a) };
                // Route `hi` down to `lo + 1` with SWAPs, apply, route back.
                for k in ((lo + 1)..hi).rev() {
                    apply_two_adjacent(&mut mps, k, &swap, trunc)?;
                }
                let g = if *a < *b { gate.matrix() } else { swap_subsystems(&gate.matrix()) };
                apply_two_adjacent(&mut mps, lo, &g, trunc)?;
                for k in (lo + 1)..hi {
                    apply_two_adjacent(&mut mps, k, &swap, trunc)?;
                }
            }
        }
    }
    let evolved_bond = mps.max_bond();
    let amps = queries.iter().map(|bits| mps.amplitude(bits)).collect::<Result<Vec<_>>>()?;
    Ok((amps, evolved_bond))
}

// ---------------------------------------------------------------------------
// PEPS lowering: lattice evolution with SWAP routing.
// ---------------------------------------------------------------------------

fn run_peps<R: Rng + ?Sized>(
    circuit: &Circuit,
    queries: &[Vec<usize>],
    evolution_bond: usize,
    method: ContractionMethod,
    rng: &mut R,
) -> Result<(Vec<C64>, usize)> {
    let n = circuit.num_qubits().max(1);
    let (nrows, ncols) = circuit.lattice().unwrap_or((1, n));
    let site = |q: usize| -> Site { (q / ncols, q % ncols) };
    let update = UpdateMethod::QrSvd {
        truncation: Truncation::rank_and_tol(evolution_bond.max(1), EVOLUTION_TOL),
    };
    let mut peps = Peps::computational_zeros(nrows, ncols);
    // The whole circuit is one gate list, so the updates of a layer that
    // touch disjoint sites overlap (`apply_gates`); the list borrows each
    // gate's matrix from here.
    let matrices: Vec<Matrix> = circuit
        .gates()
        .iter()
        .map(|gate| match gate {
            Gate::One { gate, .. } => gate.matrix(),
            Gate::Two { gate, .. } => gate.matrix(),
        })
        .collect();
    let mut ops = Vec::with_capacity(matrices.len());
    for (gate, matrix) in circuit.gates().iter().zip(&matrices) {
        match gate {
            Gate::One { qubit, .. } => ops.push(GateOp::one_site(matrix, site(*qubit))),
            // Manhattan-path SWAP routing for non-neighbour pairs lives in
            // the engine (`route_two_site`, paper §II-C1).
            Gate::Two { a, b, .. } => {
                koala_peps::route_two_site(&peps, matrix, site(*a), site(*b), &mut ops)?
            }
        }
    }
    koala_peps::apply_gates(&mut peps, &ops, update)?;
    // Each new site tensor comes from the heap arena of the pool thread
    // that ran its last update (glibc keeps one arena per thread). The
    // state lives through the threaded amplitude batch below, whose
    // transients would have to be placed around it there, and an arena
    // keeps the pages it grows into (koala-exec crate doc, "Heap policy").
    // So copy it into this thread's heap, one site at a time.
    for q in 0..nrows * ncols {
        peps.set_tensor(site(q), peps.tensor(site(q)).clone());
    }
    let evolved_bond = peps.max_bond();
    let amps = koala_peps::amplitude_batch(&peps, queries, method, rng)?;
    Ok((amps, evolved_bond))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Gate1, Gate2};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.push_one(0, Gate1::H).unwrap();
        c.push_two(0, 1, Gate2::Cnot).unwrap();
        c
    }

    fn all_bitstrings(n: usize) -> Vec<Vec<usize>> {
        (0..1usize << n).map(|x| (0..n).map(|q| (x >> (n - 1 - q)) & 1).collect()).collect()
    }

    #[test]
    fn bell_state_on_every_backend() {
        let c = bell();
        let queries = all_bitstrings(2);
        let mut rng = StdRng::seed_from_u64(7);
        let s = 1.0 / 2.0f64.sqrt();
        for choice in [
            BackendChoice::Fixed(Backend::Statevector),
            BackendChoice::Fixed(Backend::Mps { max_bond: 4 }),
            BackendChoice::Fixed(Backend::Peps {
                evolution_bond: 4,
                method: ContractionMethod::Exact,
            }),
        ] {
            let batch = amplitudes(&c, &queries, choice, &mut rng).unwrap();
            let expect = [s, 0.0, 0.0, s];
            for (got, want) in batch.amplitudes.iter().zip(expect) {
                assert!((got.re - want).abs() < 1e-12 && got.im.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn auto_dispatch_prefers_statevector_then_mps() {
        let c = bell();
        assert_eq!(choose_backend(&c), Backend::Statevector);
        let mut wide = Circuit::new(30);
        for q in 0..29 {
            wide.push_two(q, q + 1, Gate2::Cnot).unwrap();
        }
        match choose_backend(&wide) {
            Backend::Mps { max_bond } => assert!(max_bond <= MPS_MAX_BOND),
            b => panic!("expected MPS for a low-entanglement chain, got {b:?}"),
        }
        // Enough crossing entanglers to blow the MPS bound -> PEPS.
        let mut dense = Circuit::with_lattice(5, 6);
        for layer in 0..8 {
            for q in 0..29 {
                if (q + layer) % 2 == 0 {
                    dense.push_two(q, q + 1, Gate2::Unitary(random_u4(layer * 29 + q))).unwrap();
                }
            }
        }
        assert!(matches!(choose_backend(&dense), Backend::Peps { .. }));
    }

    /// A Haar-ish 4x4 unitary from a seeded Gram-Schmidt, full Schmidt rank
    /// with overwhelming probability.
    fn random_u4(seed: usize) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let m = Matrix::random(4, 4, &mut rng);
        koala_linalg::qr(&m).q
    }

    #[test]
    fn entanglement_bound_respects_cut_caps() {
        // One CNOT between qubits 0 and 1 of a 10-qubit chain: bound 2.
        let mut c = Circuit::new(10);
        c.push_two(0, 1, Gate2::Cnot).unwrap();
        assert_eq!(entanglement_bond_bound(&c), 2);
        // Many CNOTs over the edge cut cannot exceed the 2-dim side.
        let mut edge = Circuit::new(10);
        for _ in 0..20 {
            edge.push_two(0, 1, Gate2::Cnot).unwrap();
        }
        assert_eq!(entanglement_bond_bound(&edge), 2);
    }

    #[test]
    fn non_adjacent_and_reversed_gates_route_correctly() {
        // CNOT with control 3, target 0 on a 4-qubit chain, after an H on 3.
        let mut c = Circuit::new(4);
        c.push_one(3, Gate1::H).unwrap();
        c.push_two(3, 0, Gate2::Cnot).unwrap();
        let queries = all_bitstrings(4);
        let mut rng = StdRng::seed_from_u64(3);
        let sv =
            amplitudes(&c, &queries, BackendChoice::Fixed(Backend::Statevector), &mut rng).unwrap();
        let mps =
            amplitudes(&c, &queries, BackendChoice::Fixed(Backend::Mps { max_bond: 16 }), &mut rng)
                .unwrap();
        let peps = amplitudes(
            &c,
            &queries,
            BackendChoice::Fixed(Backend::Peps {
                evolution_bond: 16,
                method: ContractionMethod::Exact,
            }),
            &mut rng,
        )
        .unwrap();
        for i in 0..queries.len() {
            assert!((mps.amplitudes[i] - sv.amplitudes[i]).abs() < 1e-12, "mps query {i}");
            assert!((peps.amplitudes[i] - sv.amplitudes[i]).abs() < 1e-12, "peps query {i}");
        }
    }

    #[test]
    fn lattice_circuit_runs_on_its_declared_geometry() {
        let mut c = Circuit::with_lattice(2, 2);
        c.push_one(0, Gate1::H).unwrap();
        c.push_two(0, 3, Gate2::Cz).unwrap(); // diagonal pair: SWAP-routed
        let queries = all_bitstrings(4);
        let mut rng = StdRng::seed_from_u64(11);
        let sv =
            amplitudes(&c, &queries, BackendChoice::Fixed(Backend::Statevector), &mut rng).unwrap();
        let peps = amplitudes(
            &c,
            &queries,
            BackendChoice::Fixed(Backend::Peps {
                evolution_bond: 8,
                method: ContractionMethod::Exact,
            }),
            &mut rng,
        )
        .unwrap();
        for i in 0..queries.len() {
            assert!((peps.amplitudes[i] - sv.amplitudes[i]).abs() < 1e-12, "query {i}");
        }
    }

    #[test]
    fn single_query_light_cone_phase_folds_back() {
        // Bell circuit with a trailing T on qubit 1: the T peels into the
        // phase and the returned amplitude still matches the oracle.
        let mut c = bell();
        c.push_one(1, Gate1::T).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let full = amplitudes(
            &c,
            &all_bitstrings(2),
            BackendChoice::Fixed(Backend::Statevector),
            &mut rng,
        )
        .unwrap();
        let single = amplitudes(
            &c,
            &[vec![1, 1]],
            BackendChoice::Fixed(Backend::Mps { max_bond: 4 }),
            &mut rng,
        )
        .unwrap();
        assert!((single.amplitudes[0] - full.amplitudes[3]).abs() < 1e-12);
        assert!(single.gates_executed < single.gates_submitted, "the trailing T must be pruned");
    }
}

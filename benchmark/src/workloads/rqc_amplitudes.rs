//! `rqc_amplitudes` — Fig. 10 through the front door: a 4x4 random quantum
//! circuit (8 layers, an iSWAP layer every 4) lowered through
//! `koala-circuit` onto the PEPS backend (exact evolution, `bmps(16)`), and
//! 4 seeded bitstrings queried per iteration, from a pool of 4 such batches.
//!
//! Bonds grow 1 -> 16 during the evolution, so operand shapes change with
//! every gate — the opposite of `evolve_tebd`'s fixed shapes.
//!
//! The circuit is one frozen instance of `random_circuit`; `--seed` draws
//! the bitstrings and the contraction stream. Run time here is a property of
//! the gate pattern, not of the size: sqrt(X), sqrt(Y) and iSWAP are
//! Clifford, so instances with few sqrt(W) gates collapse the boundary rank
//! and one batch costs anywhere from 4 ms to 270 ms across generator seeds,
//! while the bitstrings move it by a few percent. The frozen instance is a
//! generic one: its boundary MPS reaches the full bond 16.

use super::{within, Control, Workload};
use crate::gen::{Fnv, SplitMix};
use crate::probe::{self, time_ms, Metrics, ZIP_MERGE_SPEC};
use crate::trace::{Span, Tracer};
use koala_circuit::{
    amplitudes, prune_for_bits, simplify, AmplitudeBatch, Backend, BackendChoice, Circuit, Gate,
};
use koala_linalg::C64;
use koala_peps::contract::{row_as_mpo, row_as_mps};
use koala_peps::{
    amplitude, apply_one_site, apply_two_site_any, ContractionMethod, Peps, UpdateMethod,
};
use koala_sim::random_circuit;
use koala_tensor::{Tensor, Truncation};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIDE: usize = 4;
const LAYERS: usize = 8;
const ENTANGLE_EVERY: usize = 4;
/// Generator seed of the frozen circuit instance.
const CIRCUIT_INSTANCE: u64 = 3;
const CONTRACTION_BOND: usize = 16;
const EVOLUTION_BOND: usize = 1 << 16;
/// Amplitudes per iteration.
const UNITS: u64 = 4;
/// Bitstring batches, visited round-robin: a batch's cost depends on its
/// bitstrings by about 10 %.
const POOL: usize = 4;
const ORACLE_TOL: f64 = 1e-10;

pub struct RqcAmplitudes {
    circuit: Circuit,
    batches: Vec<Vec<Vec<usize>>>,
    contraction_seed: u64,
    oracle: Option<Vec<Vec<C64>>>,
    batch: usize,
    last: Option<AmplitudeBatch>,
    wrong_reference: bool,
}

impl RqcAmplitudes {
    pub fn build(stream: &mut SplitMix, control: Control) -> Result<Self, String> {
        let mut generator = StdRng::seed_from_u64(CIRCUIT_INSTANCE);
        let lattice = random_circuit(SIDE, SIDE, LAYERS, ENTANGLE_EVERY, &mut generator);
        let circuit =
            Circuit::from_lattice_circuit(&lattice, SIDE, SIDE).map_err(|e| e.to_string())?;
        let batches = (0..POOL)
            .map(|_| {
                (0..UNITS)
                    .map(|_| {
                        let word = stream.next_u64();
                        (0..SIDE * SIDE).map(|q| ((word >> q) & 1) as usize).collect()
                    })
                    .collect()
            })
            .collect();
        Ok(RqcAmplitudes {
            circuit,
            batches,
            contraction_seed: stream.next_u64(),
            oracle: None,
            batch: 0,
            last: None,
            wrong_reference: control.wrong_reference,
        })
    }

    fn method() -> ContractionMethod {
        ContractionMethod::bmps(CONTRACTION_BOND)
    }

    fn backend() -> BackendChoice {
        BackendChoice::Fixed(Backend::Peps {
            evolution_bond: EVOLUTION_BOND,
            method: Self::method(),
        })
    }
}

impl Workload for RqcAmplitudes {
    fn units(&self) -> u64 {
        UNITS
    }

    fn cycle(&self) -> usize {
        POOL
    }

    fn run(&mut self, i: usize, _tracer: Option<&mut Tracer>) -> Result<(), String> {
        self.batch = i % POOL;
        // `amplitudes` dispatches to a private PEPS lowering, so the
        // iteration stays one whole span; `layer_metrics` probes the layers.
        let mut rng = StdRng::seed_from_u64(self.contraction_seed);
        let batch = amplitudes(&self.circuit, &self.batches[self.batch], Self::backend(), &mut rng)
            .map_err(|e| e.to_string())?;
        self.last = Some(batch);
        Ok(())
    }

    fn check(&mut self, _i: usize) -> Result<(), String> {
        let oracle = &self.oracle.as_ref().ok_or("oracle not computed")?[self.batch];
        let batch = self.last.as_ref().ok_or("check without run")?;
        for ((got, want), bits) in
            batch.amplitudes.iter().zip(oracle).zip(&self.batches[self.batch])
        {
            let err = (*got - *want).abs();
            if !within(err, ORACLE_TOL) {
                return Err(format!(
                    "amplitude of {bits:?}: {got} differs from the oracle {want} by {err:.3e}"
                ));
            }
        }
        Ok(())
    }

    /// The state-vector oracle (16 qubits), computed once.
    fn verify_setup(&mut self) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(0);
        let choice = BackendChoice::Fixed(Backend::Statevector);
        let mut oracle = self
            .batches
            .iter()
            .map(|bits| {
                amplitudes(&self.circuit, bits, choice, &mut rng).map(|batch| batch.amplitudes)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        if self.wrong_reference {
            oracle[0][0].re += 1e-6;
        }
        self.oracle = Some(oracle);
        Ok(())
    }

    fn input_checksum(&self) -> u64 {
        let mut sum = Fnv::new();
        for gate in self.circuit.gates() {
            let (qubits, matrix) = match gate {
                Gate::One { qubit, gate } => (vec![*qubit], gate.matrix()),
                Gate::Two { a, b, gate } => (vec![*a, *b], gate.matrix()),
            };
            qubits.iter().for_each(|&q| sum.u64(q as u64));
            matrix.data().iter().for_each(|&z| sum.c64(z));
        }
        self.batches.iter().flatten().flatten().for_each(|&b| sum.u64(b as u64));
        sum.u64(self.contraction_seed);
        sum.finish()
    }

    fn layer_metrics(&mut self, _spans: &[Span], iter_ms: f64) -> Metrics {
        let mut out = Metrics::new();
        let Some(batch) = &self.last else { return out };
        out.push(("circuit.gates_submitted", batch.gates_submitted as f64));
        out.push(("circuit.gates_executed", batch.gates_executed as f64));
        out.push(("circuit.max_bond", batch.max_bond as f64));

        // The public calls the PEPS lowering is made of: simplify, evolve
        // gate by gate, then one boundary-MPS amplitude per bitstring.
        let simplify_ms = time_ms(|| simplify(&self.circuit).0.len());
        let (simplified, _) = simplify(&self.circuit);
        out.push(("circuit.simplify_ms", simplify_ms));
        // Pruning only runs for single-bitstring batches; probed for the record.
        out.push((
            "circuit.prune_ms",
            time_ms(|| prune_for_bits(&simplified, &self.batches[0][0]).is_ok()),
        ));

        let update =
            UpdateMethod::QrSvd { truncation: Truncation::rank_and_tol(EVOLUTION_BOND, 1e-14) };
        let site = |q: usize| (q / SIDE, q % SIDE);
        let evolve = || -> Result<(Peps, f64), String> {
            let mut peps = Peps::computational_zeros(SIDE, SIDE);
            let mut err_sq = 0.0;
            for gate in simplified.gates() {
                match gate {
                    Gate::One { qubit, gate } => {
                        apply_one_site(&mut peps, &gate.matrix(), site(*qubit))
                            .map_err(|e| e.to_string())?
                    }
                    Gate::Two { a, b, gate } => {
                        let e = apply_two_site_any(
                            &mut peps,
                            &gate.matrix(),
                            site(*a),
                            site(*b),
                            update,
                        )
                        .map_err(|e| e.to_string())?;
                        err_sq += e * e;
                    }
                }
            }
            Ok((peps, err_sq.sqrt()))
        };
        let evolve_ms = time_ms(|| evolve().is_ok());
        let Ok((peps, truncation_error)) = evolve() else { return out };
        out.push(("core.update_ms", evolve_ms));
        out.push(("core.truncation_error", truncation_error));
        out.push(("core.max_bond", peps.max_bond() as f64));
        let mut rng = StdRng::seed_from_u64(self.contraction_seed);
        // The median iteration is set against the mean batch.
        let amplitudes_ms: f64 = self
            .batches
            .iter()
            .flatten()
            .map(|bits| time_ms(|| amplitude(&peps, bits, Self::method(), &mut rng).is_ok()))
            .sum();
        let attributed = simplify_ms + evolve_ms + amplitudes_ms / POOL as f64;
        out.push(("trace.unattributed_frac", 1.0 - attributed / iter_ms));

        // Inside one amplitude: project, then a zip-up per row.
        let Ok(projected) = peps.project_onto_basis(&self.batches[0][0]) else { return out };
        let zip = koala_mps::ZipUpMethod::ExactSvd;
        let Ok(mut boundary) = row_as_mps(&projected, 0) else { return out };
        let (mut zip_ms, mut lower_ms, mut boundary_bond) = (0.0, 0.0, 0);
        for row in 1..SIDE {
            let Ok(mpo) = row_as_mpo(&projected, row) else { return out };
            let Ok(next) = koala_mps::zip_up(&boundary, &mpo, CONTRACTION_BOND, zip, &mut rng)
            else {
                return out;
            };
            zip_ms += time_ms(|| {
                koala_mps::zip_up(&boundary, &mpo, CONTRACTION_BOND, zip, &mut rng)
                    .map(|m| m.len())
                    .ok()
            });
            lower_ms += probe::zip_up_lower_ms(&boundary, &mpo, &next, CONTRACTION_BOND, false);
            if row == 2 {
                // The widest einsumsvd of the sweep, mid-chain in the middle row.
                let (s, o, done) = (boundary.tensor(2), mpo.tensor(2), next.tensor(1));
                let v = Tensor::random(&[done.dim(0), done.dim(1), s.dim(0), o.dim(0)], &mut rng);
                probe::einsum_and_plan(&mut out, ZIP_MERGE_SPEC, &[&v, s, o]);
                if let Ok(merged) = koala_tensor::einsum(ZIP_MERGE_SPEC, &[&v, s, o]) {
                    let trunc = Truncation::rank_and_tol(CONTRACTION_BOND, 1e-14);
                    let svd_split_ms = time_ms(|| {
                        koala_tensor::svd_split(&merged, &[0, 1], trunc).map(|f| f.s.len()).ok()
                    });
                    out.push(("tensor.svd_split_ms", svd_split_ms));
                    probe::linalg(&mut out, Some(&merged.unfold(2)), None, None, None);
                }
            }
            boundary_bond = boundary_bond.max(next.max_bond());
            boundary = next;
        }
        out.push(("mps.zip_up_ms", zip_ms * UNITS as f64));
        out.push(("mps.zip_up_count", ((SIDE - 1) * UNITS as usize) as f64));
        out.push(("mps.max_bond", boundary_bond as f64));
        out.push(("mps.zip_up_self_frac", probe::self_frac(zip_ms, lower_ms)));

        // The evolution's lower layers on the evolved interior site.
        if let Some((qr_side_ms, _)) = probe::update_qr_side(&mut out, peps.tensor((1, 1))) {
            let updates = simplified.two_qubit_count().max(1) as f64;
            out.push(("core.update_self_frac", probe::self_frac(evolve_ms / updates, qr_side_ms)));
        }
        out
    }
}

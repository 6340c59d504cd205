//! `ite_step` — Figs. 13/14: one imaginary-time-evolution step of the
//! transverse-field Ising model (Jz = -1, hx = -2) on a 4x3 lattice, tau =
//! 0.05, r = 3, m = 6, QR-SVD update.
//!
//! Set-up evolves 4 steps from a seeded real product state so the bonds
//! saturate. One iteration resumes one further step with `measure_every = 1`:
//! a Trotter layer, a renormalisation and an energy measurement. ITE and VQE
//! both end in this measurement, and everything stays real-valued: it is the
//! real-kernel twin of `evolve_tebd` and `rqc_amplitudes`.
//!
//! Every 32 steps the run goes back to the saturated state (an untimed
//! clone), so the trajectory stays where the energy check means something —
//! at r = 3, m = 6 the PEPS energy per site climbs away from the exact one
//! by about 1.3e-4 per step once past step 50 — and every revisited step
//! must reproduce its energy bit for bit.

use super::{Control, Revisits, Workload};
use crate::gen::{Fnv, SplitMix};
use crate::probe::{self, time_ms, Metrics, ZIP_MERGE_SPEC};
use crate::trace::{Span, Tracer};
use koala_linalg::c64;
use koala_mps::{zip_up, ZipUpMethod};
use koala_peps::contract::{row_as_mpo, row_as_mps};
use koala_peps::{
    expectation_normalized, norm_sqr, ContractionMethod, EnvCache, ExpectationOptions, Observable,
    Peps, UpdateMethod,
};
use koala_sim::ite::apply_trotter_layer;
use koala_sim::{
    ite_checkpoint, ite_peps_from, ite_statevector, tfi_hamiltonian, trotter_gates, IteCheckpoint,
    IteOptions, StateVector, TfiParams,
};
use koala_tensor::Tensor;
use rand::rngs::StdRng;

const NROWS: usize = 4;
const NCOLS: usize = 3;
const TAU: f64 = 0.05;
const EVOLUTION_BOND: usize = 3;
const CONTRACTION_BOND: usize = 6;
const SETUP_STEPS: usize = 4;
/// Steps evolved before the run returns to the saturated state.
const CYCLE: usize = 32;
/// Allowed |E - E_statevector| per site at the same step.
const ENERGY_TOL: f64 = 2e-2;

pub struct IteStep {
    hamiltonian: Observable,
    site_angles: Vec<f64>,
    saturated: IteCheckpoint<StdRng>,
    state: Option<IteCheckpoint<StdRng>>,
    energy: f64,
    energy_err: f64,
    reference_shift: f64,
    revisits: Revisits,
}

impl IteStep {
    pub fn build(stream: &mut SplitMix, control: Control) -> Result<Self, String> {
        // A real product state cos(a)|0> + sin(a)|1> per site, a in [0.1, 0.7]:
        // seeded, but on the side of the field the ground state lives on.
        let site_angles: Vec<f64> =
            (0..NROWS * NCOLS).map(|_| 0.1 + 0.6 * stream.next_f64()).collect();
        let sites = site_angles
            .iter()
            .map(|a| Tensor::from_real(&[2, 1, 1, 1, 1], &[a.cos(), a.sin()]))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let initial = Peps::new(NROWS, NCOLS, sites).map_err(|e| e.to_string())?;
        let hamiltonian = tfi_hamiltonian(NROWS, NCOLS, TfiParams { jz: -1.0, hx: -2.0 });
        let checkpoint = ite_checkpoint(&initial, &stream.rng());
        let (_, saturated) = ite_peps_from(checkpoint, &hamiltonian, Self::options(SETUP_STEPS))
            .map_err(|e| e.to_string())?;
        Ok(IteStep {
            hamiltonian,
            site_angles,
            saturated,
            state: None,
            energy: f64::NAN,
            energy_err: f64::NAN,
            reference_shift: if control.wrong_reference { 0.1 } else { 0.0 },
            revisits: Revisits::new(CYCLE),
        })
    }

    fn options(steps: usize) -> IteOptions {
        IteOptions::new(TAU, steps, EVOLUTION_BOND, CONTRACTION_BOND)
    }

    fn method() -> ContractionMethod {
        ContractionMethod::ibmps(CONTRACTION_BOND)
    }

    /// How many `zip_up` calls one step makes, from the public row spans of
    /// the Hamiltonian's terms: the renormalisation contracts every row, the
    /// environment cache sweeps twice over the inner rows, and each term's
    /// strip absorbs the rows it spans below the first.
    fn zip_ups_per_step(&self) -> usize {
        let strips: usize = self
            .hamiltonian
            .terms()
            .iter()
            .map(|t| {
                let (r0, r1) = t.row_span();
                r1 + 1 - r0.max(1)
            })
            .sum();
        (NROWS - 1) + 2 * (NROWS - 2) + strips
    }
}

impl Workload for IteStep {
    fn units(&self) -> u64 {
        1
    }

    fn cycle(&self) -> usize {
        CYCLE
    }

    fn prepare(&mut self, i: usize) {
        if i.is_multiple_of(CYCLE) {
            self.state = Some(self.saturated.clone());
        }
    }

    fn run(&mut self, _i: usize, _tracer: Option<&mut Tracer>) -> Result<(), String> {
        // `ite_step` and its renormalisation are private to koala-sim, so the
        // iteration stays one whole span; `layer_metrics` probes the layers.
        let state = self.state.take().ok_or("ite state lost by an earlier failure")?;
        let steps = state.step() + 1;
        let (result, next) = ite_peps_from(state, &self.hamiltonian, Self::options(steps))
            .map_err(|e| e.to_string())?;
        self.energy = result.final_energy();
        self.state = Some(next);
        Ok(())
    }

    fn check(&mut self, i: usize) -> Result<(), String> {
        if !self.energy.is_finite() {
            return Err(format!("energy {} is not finite", self.energy));
        }
        self.revisits.observe(i % CYCLE, self.energy.to_bits(), false)
    }

    fn finish(&mut self) -> Result<(), String> {
        let steps = self.state.as_ref().ok_or("no live ite state")?.step();
        let amps = (0..1usize << (NROWS * NCOLS))
            .map(|idx| {
                let amp: f64 = (0..NROWS * NCOLS)
                    .map(|q| {
                        let a = self.site_angles[q];
                        if (idx >> (NROWS * NCOLS - 1 - q)) & 1 == 0 {
                            a.cos()
                        } else {
                            a.sin()
                        }
                    })
                    .product();
                c64(amp, 0.0)
            })
            .collect();
        let sv = StateVector::from_amplitudes(NROWS, NCOLS, amps).map_err(|e| e.to_string())?;
        let reference =
            ite_statevector(&sv, &self.hamiltonian, TAU, steps).map_err(|e| e.to_string())?;
        let reference =
            reference.last().ok_or("empty reference trajectory")?.1 + self.reference_shift;
        self.energy_err = (self.energy - reference).abs();
        if self.energy_err <= ENERGY_TOL {
            Ok(())
        } else {
            Err(format!(
                "step {steps}: energy per site {} differs from the state-vector reference {reference} by {:.3e}",
                self.energy, self.energy_err
            ))
        }
    }

    fn input_checksum(&self) -> u64 {
        let mut sum = Fnv::new();
        self.site_angles.iter().for_each(|&a| sum.f64(a));
        self.saturated.peps().tensors().iter().for_each(|t| sum.tensor(t));
        sum.finish()
    }

    fn layer_metrics(&mut self, _spans: &[Span], iter_ms: f64) -> Metrics {
        let mut out = Metrics::new();
        let Some(state) = &self.state else { return out };
        let peps = state.peps().clone();
        let mut rng = SplitMix::for_workload(0, "ite_step.probes").rng();
        out.push(("sim.step_ms", iter_ms));
        out.push(("sim.energy_err", self.energy_err));
        out.push(("core.max_bond", peps.max_bond() as f64));

        // The three public calls a step is made of.
        let Ok(gates) = trotter_gates(&self.hamiltonian, c64(-TAU, 0.0)) else { return out };
        let update = UpdateMethod::qr_svd(EVOLUTION_BOND);
        let mut truncation_error = 0.0;
        let trotter_ms = time_ms(|| {
            let mut work = peps.clone();
            truncation_error = apply_trotter_layer(&mut work, &gates, update).unwrap_or(f64::NAN);
        });
        let norm_ms = time_ms(|| norm_sqr(&peps, Self::method(), &mut rng).ok());
        let options = ExpectationOptions::ibmps_cached(CONTRACTION_BOND);
        let expectation_ms = time_ms(|| {
            expectation_normalized(&peps, &self.hamiltonian, options, &mut rng).map(|e| e.re).ok()
        });
        out.push(("sim.trotter_gates_ms", trotter_ms));
        out.push(("core.update_ms", trotter_ms));
        out.push(("core.truncation_error", truncation_error));
        out.push(("core.norm_sqr_ms", norm_ms));
        out.push(("core.expectation_ms", expectation_ms));
        out.push((
            "trace.unattributed_frac",
            1.0 - (trotter_ms + norm_ms + expectation_ms) / iter_ms,
        ));

        // Inside the measurement: bra-ket merge, environment cache, zip-up.
        out.push((
            "core.merge_ms",
            time_ms(|| peps.merge_with_bra(&peps).map(|m| m.num_elements()).ok()),
        ));
        let Ok(merged) = peps.merge_with_bra(&peps) else { return out };
        out.push((
            "core.env_build_ms",
            time_ms(|| EnvCache::build(&merged, Self::method(), &mut rng).is_ok()),
        ));
        let (Ok(top), Ok(mpo)) = (row_as_mps(&merged, 0), row_as_mpo(&merged, 1)) else {
            return out;
        };
        let zip = ZipUpMethod::implicit_default();
        let zip_ms = time_ms(|| {
            zip_up(&top, &mpo, CONTRACTION_BOND, zip, &mut rng).map(|m| m.max_bond()).ok()
        });
        let zip_count = self.zip_ups_per_step();
        out.push(("mps.zip_up_ms", zip_ms * zip_count as f64));
        out.push(("mps.zip_up_count", zip_count as f64));
        if let Ok(second) = zip_up(&top, &mpo, CONTRACTION_BOND, zip, &mut rng) {
            out.push(("mps.max_bond", second.max_bond() as f64));
            let lower = probe::zip_up_lower_ms(&top, &mpo, &second, CONTRACTION_BOND, true);
            out.push(("mps.zip_up_self_frac", probe::self_frac(zip_ms, lower)));
            // The einsumsvd of one interior zip-up step, formed explicitly:
            // what the implicit operator never materialises.
            let (s, o) = (top.tensor(1), mpo.tensor(1));
            let v = Tensor::random_real(
                &[second.tensor(0).dim(0), second.tensor(0).dim(1), s.dim(0), o.dim(0)],
                &mut rng,
            );
            probe::einsum_and_plan(&mut out, ZIP_MERGE_SPEC, &[&v, s, o]);
            if let Ok(merged_step) = koala_tensor::einsum(ZIP_MERGE_SPEC, &[&v, s, o]) {
                probe::linalg(
                    &mut out,
                    None,
                    None,
                    Some((&merged_step.unfold(2), CONTRACTION_BOND)),
                    None,
                );
            }
        }

        // The update's own lower layers on an interior site; a random theta
        // of the update's shape stands in for the gate-applied one.
        if let Some((qr_side_ms, r_a)) = probe::update_qr_side(&mut out, peps.tensor((1, 1))) {
            let theta = Tensor::random_real(&[r_a.dim(0), 2, r_a.dim(0), 2], &mut rng);
            let lower = qr_side_ms + probe::update_svd_side(&mut out, &theta, EVOLUTION_BOND);
            let updates = gates.iter().filter(|g| g.sites.len() == 2).count().max(1) as f64;
            out.push(("core.update_self_frac", probe::self_frac(trotter_ms / updates, lower)));
        }
        out
    }
}

//! `evolve_tebd` — Fig. 7a: one TEBD layer with the QR-SVD update.
//!
//! 6x6 PEPS, d = 2, bond r = 8, drawn from a pool of 10 seeded random
//! states. One iteration is an untimed clone followed by
//! `apply_two_site_everywhere(exp(-0.05 (XX+ZZ)), qr_svd(8))`: 60 bond
//! updates on complex kernels at fixed shapes, so plans are warm.

use super::{tebd_gate, Control, Revisits, Workload};
use crate::gen::{Fnv, SplitMix};
use crate::probe::{self, Metrics};
use crate::trace::{per_iteration, Span, Tracer};
use koala_linalg::{c64, Matrix, C64};
use koala_peps::{apply_two_site, apply_two_site_everywhere, Peps, UpdateMethod};
use koala_sim::StateVector;
use koala_tensor::{qr_split, Tensor};

const SIDE: usize = 6;
const BOND: usize = 8;
const POOL: usize = 10;
/// Bond updates per layer of a `SIDE x SIDE` lattice.
const UNITS: u64 = (2 * SIDE * (SIDE - 1)) as u64;

pub struct EvolveTebd {
    pool: Vec<Peps>,
    gate: Matrix,
    twin_site: [C64; 2],
    work: Option<Peps>,
    error: f64,
    traced: bool,
    revisits: Revisits,
    wrong_reference: bool,
}

impl EvolveTebd {
    pub fn build(stream: &mut SplitMix, control: Control) -> Self {
        let mut rng = stream.rng();
        let pool = (0..POOL).map(|_| Peps::random(SIDE, SIDE, 2, BOND, &mut rng)).collect();
        let theta = stream.next_f64() * std::f64::consts::PI;
        let phase = stream.next_f64() * std::f64::consts::TAU;
        let twin_site =
            [c64(theta.cos(), 0.0), c64(theta.sin() * phase.cos(), theta.sin() * phase.sin())];
        EvolveTebd {
            pool,
            gate: tebd_gate(),
            twin_site,
            work: None,
            error: f64::NAN,
            traced: false,
            revisits: Revisits::new(POOL),
            wrong_reference: control.wrong_reference,
        }
    }

    fn method() -> UpdateMethod {
        UpdateMethod::qr_svd(BOND)
    }
}

impl Workload for EvolveTebd {
    fn units(&self) -> u64 {
        UNITS
    }

    fn cycle(&self) -> usize {
        POOL
    }

    fn prepare(&mut self, i: usize) {
        self.work = Some(self.pool[i % POOL].clone());
    }

    fn run(&mut self, _i: usize, tracer: Option<&mut Tracer>) -> Result<(), String> {
        let peps = self.work.as_mut().ok_or("run without prepare")?;
        self.traced = tracer.is_some();
        self.error = match tracer {
            None => apply_two_site_everywhere(peps, &self.gate, Self::method()),
            // The entry point is `apply_two_site` per pair, horizontal pairs
            // first, with the errors accumulated in quadrature.
            Some(t) => (|| {
                let mut err_sq = 0.0;
                for (a, b) in peps.horizontal_pairs().into_iter().chain(peps.vertical_pairs()) {
                    let span = t.enter("core.update");
                    let e = apply_two_site(peps, &self.gate, a, b, Self::method());
                    t.exit(span);
                    let e = e?;
                    err_sq += e * e;
                }
                Ok(err_sq.sqrt())
            })(),
        }
        .map_err(|e| e.to_string())?;
        Ok(())
    }

    fn check(&mut self, i: usize) -> Result<(), String> {
        let peps = self.work.as_ref().ok_or("check without run")?;
        if !self.error.is_finite() {
            return Err(format!("truncation error {} is not finite", self.error));
        }
        let mut sum = Fnv::new();
        sum.f64(self.error);
        peps.tensors().iter().for_each(|t| sum.tensor(t));
        self.revisits.observe(i % POOL, sum.finish(), self.traced)
    }

    /// A 3x3 lossless twin: one layer at r = 4 from a product state keeps
    /// every amplitude of the exact state vector.
    fn verify_setup(&mut self) -> Result<(), String> {
        let n = 3;
        let mut peps = Peps::product_state(n, n, &self.twin_site).map_err(|e| e.to_string())?;
        let mut amps: Vec<C64> = (0..1usize << (n * n))
            .map(|idx| {
                (0..n * n)
                    .fold(C64::ONE, |amp, q| amp * self.twin_site[(idx >> (n * n - 1 - q)) & 1])
            })
            .collect();
        if self.wrong_reference {
            amps[0].re += 1e-6;
        }
        let mut sv = StateVector::from_amplitudes(n, n, amps).map_err(|e| e.to_string())?;
        for (a, b) in peps.horizontal_pairs().into_iter().chain(peps.vertical_pairs()) {
            sv.apply_two_site(&self.gate, a, b);
        }
        apply_two_site_everywhere(&mut peps, &self.gate, UpdateMethod::qr_svd(4))
            .map_err(|e| e.to_string())?;
        let dense = peps.to_dense().map_err(|e| e.to_string())?;
        let worst = dense
            .data()
            .iter()
            .zip(sv.amplitudes())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        if worst > 1e-10 {
            return Err(format!("3x3 twin differs from the state vector by {worst:.3e}"));
        }
        Ok(())
    }

    fn input_checksum(&self) -> u64 {
        let mut sum = Fnv::new();
        self.pool.iter().flat_map(|p| p.tensors()).for_each(|t| sum.tensor(t));
        self.twin_site.iter().for_each(|&z| sum.c64(z));
        sum.finish()
    }

    fn decomposition_checked(&self) -> Option<bool> {
        Some(self.revisits.both_ways())
    }

    fn layer_metrics(&mut self, spans: &[Span], _iter_ms: f64) -> Metrics {
        let mut out = Metrics::new();
        let (update_ms, _) = per_iteration(spans, "core.update");
        out.push(("core.update_ms", update_ms));
        out.push(("core.truncation_error", self.error));
        if let Some(p) = &self.work {
            out.push(("core.max_bond", p.max_bond() as f64));
        }

        // Lower layers on an interior vertical pair of pool state 0; the
        // lower site is already in its canonical layout [p, bond, l, d, r].
        let peps = &self.pool[0];
        let Some((qr_side_ms, r_a)) = probe::update_qr_side(&mut out, peps.tensor((2, 2))) else {
            return out;
        };
        let Ok((_, r_b)) = qr_split(peps.tensor((3, 2)), &[2, 3, 4]) else { return out };
        let gate_t =
            Tensor::from_matrix_2d(&self.gate).into_reshape(&[2, 2, 2, 2]).expect("4x4 gate");
        let spec = "apx,bqx,PQpq->aPbQ";
        probe::einsum_and_plan(&mut out, spec, &[&r_a, &r_b, &gate_t]);
        let Ok(theta) = koala_tensor::einsum(spec, &[&r_a, &r_b, &gate_t]) else { return out };
        let lower = qr_side_ms
            + probe::value(&out, "tensor.einsum_theta_ms")
            + probe::update_svd_side(&mut out, &theta, BOND);
        out.push(("core.update_self_frac", probe::self_frac(update_ms / UNITS as f64, lower)));
        out
    }
}

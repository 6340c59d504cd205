//! `contract_bmps` / `contract_ibmps` — Fig. 8: boundary-MPS contraction of
//! a 6x6, r = 7 network without physical indices at m = r, drawn from a pool
//! of 4 seeded random networks.
//!
//! The two workloads share inputs and differ only in the einsumsvd inside
//! `mps::zip_up`: explicit truncated SVD (Alg. 3) against implicit
//! randomized SVD (Alg. 4). `iter_p50_ms(contract_bmps) /
//! iter_p50_ms(contract_ibmps)` is the paper's headline ratio. Random
//! networks have O(1) truncation error at m = r, so accuracy at size is
//! carried by `ite_step` and `rqc_amplitudes`; here a small twin is checked
//! against exact contraction and the sized runs must be reproducible.

use super::{within, Control, Revisits, Workload};
use crate::gen::{Fnv, SplitMix};
use crate::probe::{self, time_ms, Metrics, ZIP_MERGE_SPEC};
use crate::trace::{per_iteration, Span, Tracer};
use koala_linalg::{Matrix, C64};
use koala_mps::{zip_up, ZipUpMethod};
use koala_peps::contract::{row_as_mpo, row_as_mps};
use koala_peps::{contract_no_phys, ContractionMethod, Peps};
use koala_tensor::{svd_split, Tensor, Truncation};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIDE: usize = 6;
const BOND: usize = 7;
const POOL: usize = 4;

pub struct Contract {
    implicit: bool,
    pool: Vec<Peps>,
    rng_seeds: Vec<u64>,
    twin: Peps,
    value: C64,
    boundary_bond: usize,
    traced: bool,
    revisits: Revisits,
    wrong_reference: bool,
}

impl Contract {
    pub fn build(stream: &mut SplitMix, control: Control, implicit: bool) -> Self {
        let mut rng = stream.rng();
        let pool = (0..POOL).map(|_| Peps::random_no_phys(SIDE, SIDE, BOND, &mut rng)).collect();
        let rng_seeds = (0..POOL).map(|_| stream.next_u64()).collect();
        let twin = Peps::random_no_phys(4, 4, 3, &mut stream.rng());
        Contract {
            implicit,
            pool,
            rng_seeds,
            twin,
            value: C64::ZERO,
            boundary_bond: 0,
            traced: false,
            revisits: Revisits::new(POOL),
            wrong_reference: control.wrong_reference,
        }
    }

    fn method(&self, max_bond: usize) -> ContractionMethod {
        if self.implicit {
            ContractionMethod::ibmps(max_bond)
        } else {
            ContractionMethod::bmps(max_bond)
        }
    }

    fn zip_method(&self) -> ZipUpMethod {
        match self.method(BOND) {
            ContractionMethod::Ibmps { n_iter, oversample, .. } => {
                ZipUpMethod::ImplicitRandSvd { n_iter, oversample }
            }
            _ => ZipUpMethod::ExactSvd,
        }
    }
}

impl Workload for Contract {
    fn units(&self) -> u64 {
        1
    }

    fn cycle(&self) -> usize {
        POOL
    }

    fn run(&mut self, i: usize, tracer: Option<&mut Tracer>) -> Result<(), String> {
        let peps = &self.pool[i % POOL];
        let mut rng = StdRng::seed_from_u64(self.rng_seeds[i % POOL]);
        let zip_method = self.zip_method();
        let mut boundary_bond = self.boundary_bond;
        self.traced = tracer.is_some();
        let value = match tracer {
            None => contract_no_phys(peps, self.method(BOND), &mut rng),
            // The entry point is `row_as_mps`, then `row_as_mpo` + `zip_up`
            // per row, then `contract_to_scalar`.
            Some(t) => (|| {
                let span = t.enter("core.row_as_mps");
                let boundary = row_as_mps(peps, 0);
                t.exit(span);
                let mut boundary = boundary?;
                for row in 1..peps.nrows() {
                    let span = t.enter("core.row_as_mpo");
                    let mpo = row_as_mpo(peps, row);
                    t.exit(span);
                    let mpo = mpo?;
                    let span = t.enter("mps.zip_up");
                    let next = zip_up(&boundary, &mpo, BOND, zip_method, &mut rng);
                    t.exit(span);
                    boundary = next?;
                    boundary_bond = boundary_bond.max(boundary.max_bond());
                }
                let span = t.enter("mps.contract_to_scalar");
                let value = boundary.contract_to_scalar();
                t.exit(span);
                value
            })(),
        }
        .map_err(|e| e.to_string())?;
        self.value = value;
        self.boundary_bond = boundary_bond;
        Ok(())
    }

    fn check(&mut self, i: usize) -> Result<(), String> {
        if !(self.value.re.is_finite() && self.value.im.is_finite()) {
            return Err(format!("contraction value {} is not finite", self.value));
        }
        let mut sum = Fnv::new();
        sum.c64(self.value);
        self.revisits.observe(i % POOL, sum.finish(), self.traced)
    }

    /// A 4x4, r = 3 twin contracted without truncation (m = 81) matches
    /// exact contraction.
    fn verify_setup(&mut self) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(self.rng_seeds[0]);
        let mut exact = contract_no_phys(&self.twin, ContractionMethod::Exact, &mut rng)
            .map_err(|e| e.to_string())?;
        if self.wrong_reference {
            exact = exact.scale(1.0 + 1e-6);
        }
        let got =
            contract_no_phys(&self.twin, self.method(81), &mut rng).map_err(|e| e.to_string())?;
        let rel = (got - exact).abs() / exact.abs();
        if !within(rel, 1e-8) {
            return Err(format!(
                "4x4 twin: {got} differs from exact {exact} by {rel:.3e} relative"
            ));
        }
        Ok(())
    }

    fn input_checksum(&self) -> u64 {
        let mut sum = Fnv::new();
        self.pool.iter().chain([&self.twin]).flat_map(|p| p.tensors()).for_each(|t| sum.tensor(t));
        self.rng_seeds.iter().for_each(|&s| sum.u64(s));
        sum.finish()
    }

    fn decomposition_checked(&self) -> Option<bool> {
        Some(self.revisits.both_ways())
    }

    fn layer_metrics(&mut self, spans: &[Span], _iter_ms: f64) -> Metrics {
        let mut out = Metrics::new();
        let (zip_up_ms, zip_up_count) = per_iteration(spans, "mps.zip_up");
        out.push(("mps.zip_up_ms", zip_up_ms));
        out.push(("mps.zip_up_count", zip_up_count as f64));
        out.push(("mps.max_bond", self.boundary_bond as f64));
        out.push(("core.max_bond", self.pool[0].max_bond() as f64));

        // One mid-chain zip-up step at the workload's shapes: the boundary
        // after two rows supplies S, row 3 supplies O; the step's running
        // tensor V is private to `zip_up`, so a random one of its shape
        // stands in.
        let peps = &self.pool[0];
        let mut rng = StdRng::seed_from_u64(self.rng_seeds[0]);
        let Ok(boundary) = (|| {
            let top = row_as_mps(peps, 0)?;
            let second = zip_up(&top, &row_as_mpo(peps, 1)?, BOND, self.zip_method(), &mut rng)?;
            zip_up(&second, &row_as_mpo(peps, 2)?, BOND, self.zip_method(), &mut rng)
        })() else {
            return out;
        };
        let Ok(mpo) = row_as_mpo(peps, 3) else { return out };
        let (s, o) = (boundary.tensor(2), mpo.tensor(2));
        let v = Tensor::random(&[s.dim(0), BOND, s.dim(0), o.dim(0)], &mut rng);
        probe::einsum_and_plan(&mut out, ZIP_MERGE_SPEC, &[&v, s, o]);
        let Ok(merged) = koala_tensor::einsum(ZIP_MERGE_SPEC, &[&v, s, o]) else { return out };
        let theta = merged.unfold(2);
        if self.implicit {
            let sketch = Matrix::random(theta.ncols(), BOND + 10, &mut rng);
            probe::linalg(&mut out, None, Some(&sketch), Some((&theta, BOND)), None);
        } else {
            let trunc = Truncation::rank_and_tol(BOND, 1e-14);
            out.push((
                "tensor.svd_split_ms",
                time_ms(|| svd_split(&merged, &[0, 1], trunc).map(|f| f.s.len())),
            ));
            let rest = Tensor::random(&[BOND, s.dim(2), o.dim(2), o.dim(3)], &mut rng);
            out.push((
                "tensor.permute_ms",
                time_ms(|| rest.permute(&[0, 2, 1, 3]).map(|t| t.len())),
            ));
            probe::linalg(&mut out, Some(&theta), None, None, None);
        }
        let Ok(next) = zip_up(&boundary, &mpo, BOND, self.zip_method(), &mut rng) else {
            return out;
        };
        let zip_ms =
            time_ms(|| zip_up(&boundary, &mpo, BOND, self.zip_method(), &mut rng).map(|m| m.len()));
        let lower = probe::zip_up_lower_ms(&boundary, &mpo, &next, BOND, self.implicit);
        out.push(("mps.zip_up_self_frac", probe::self_frac(zip_ms, lower)));
        out
    }
}

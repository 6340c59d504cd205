//! Variational quantum eigensolver simulation (paper §II-D2 and §VI-D2,
//! Figure 14).
//!
//! The ansatz matches the paper's description: repeated layers consisting of
//! a parameterised `Ry(theta)` rotation on every qubit followed by CNOT gates
//! on every nearest-neighbour pair. The objective `<psi(theta)|H|psi(theta)>`
//! is evaluated by simulating the ansatz circuit either on a PEPS with a given
//! maximum bond dimension or on the exact state vector, and a derivative-free
//! classical optimizer tunes the parameters.

use crate::circuit::Circuit;
use crate::gates::{cnot, ry};
use crate::hamiltonian::nearest_neighbor_pairs;
use crate::opt::{nelder_mead, spsa, OptResult};
use crate::statevector::StateVector;
use koala_error::Result;
use koala_peps::operators::Observable;
use koala_peps::{expectation_normalized, ExpectationOptions};
use koala_peps::{Peps, UpdateMethod};
use rand::Rng;

/// How the ansatz state and the energy are evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VqeBackend {
    /// PEPS simulation with the given maximum bond dimension `r` and
    /// contraction bond dimension `m`.
    Peps {
        /// Maximum bond dimension of the evolved PEPS.
        bond: usize,
        /// Contraction bond dimension used for the energy evaluation.
        contraction_bond: usize,
    },
    /// Exact state-vector simulation (the reference curve of Figure 14).
    StateVector,
}

/// Which classical optimizer drives the parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Nelder–Mead simplex with the given initial step and iteration budget.
    NelderMead {
        /// Initial simplex scale.
        scale: f64,
        /// Maximum iterations.
        max_iterations: usize,
    },
    /// SPSA with the given gain parameters and iteration budget.
    Spsa {
        /// Step-size gain.
        a0: f64,
        /// Perturbation gain.
        c0: f64,
        /// Iterations.
        iterations: usize,
    },
}

/// Configuration of a VQE run.
#[derive(Debug, Clone, Copy)]
pub struct VqeOptions {
    /// Number of ansatz layers (each layer = Ry on every site + CNOT ladder).
    pub layers: usize,
    /// Simulation backend for the ansatz state.
    pub backend: VqeBackend,
    /// Classical optimizer.
    pub optimizer: Optimizer,
}

/// Result of a VQE run.
#[derive(Debug, Clone)]
pub struct VqeResult {
    /// Best-so-far energy per site after each optimizer iteration.
    pub energy_history: Vec<f64>,
    /// Best energy per site found.
    pub best_energy: f64,
    /// Optimal parameters.
    pub best_params: Vec<f64>,
    /// Number of objective evaluations.
    pub evaluations: usize,
}

/// Number of parameters of the ansatz.
pub(crate) fn num_parameters(nrows: usize, ncols: usize, layers: usize) -> usize {
    nrows * ncols * layers
}

/// Build the ansatz circuit for a parameter vector (length
/// `nrows * ncols * layers`).
pub(crate) fn ansatz_circuit(nrows: usize, ncols: usize, layers: usize, params: &[f64]) -> Circuit {
    assert_eq!(params.len(), num_parameters(nrows, ncols, layers), "wrong parameter count");
    let mut circuit = Circuit::new();
    let mut idx = 0;
    for _layer in 0..layers {
        for r in 0..nrows {
            for c in 0..ncols {
                circuit.push_one_site((r, c), ry(params[idx]));
                idx += 1;
            }
        }
        for (a, b) in nearest_neighbor_pairs(nrows, ncols) {
            circuit.push_two_site(a, b, cnot());
        }
    }
    circuit
}

/// Evaluate the VQE objective `<psi(theta)|H|psi(theta)> / <psi|psi>` per site.
pub(crate) fn energy_per_site<R: Rng + ?Sized>(
    nrows: usize,
    ncols: usize,
    hamiltonian: &Observable,
    layers: usize,
    params: &[f64],
    backend: VqeBackend,
    rng: &mut R,
) -> Result<f64> {
    let circuit = ansatz_circuit(nrows, ncols, layers, params);
    let n_sites = (nrows * ncols) as f64;
    match backend {
        VqeBackend::StateVector => {
            let mut sv = StateVector::computational_zeros(nrows, ncols);
            circuit.apply_to_statevector(&mut sv);
            Ok(sv.expectation(hamiltonian) / n_sites)
        }
        VqeBackend::Peps { bond, contraction_bond } => {
            let mut peps = Peps::computational_zeros(nrows, ncols);
            circuit.apply_to_peps(&mut peps, UpdateMethod::qr_svd(bond))?;
            let e = expectation_normalized(
                &peps,
                hamiltonian,
                ExpectationOptions::ibmps_cached(contraction_bond),
                rng,
            )?;
            Ok(e.re / n_sites)
        }
    }
}

/// Run VQE on an `nrows x ncols` lattice for the given Hamiltonian.
pub fn run_vqe<R: Rng + ?Sized>(
    nrows: usize,
    ncols: usize,
    hamiltonian: &Observable,
    options: VqeOptions,
    initial_params: Option<&[f64]>,
    rng: &mut R,
) -> Result<VqeResult> {
    run_vqe_cancellable(nrows, ncols, hamiltonian, options, initial_params, rng, None)
}

/// [`run_vqe`] with cooperative cancellation.
///
/// Once `cancel` fires, every subsequent objective evaluation short-circuits
/// to a large penalty value without touching the simulation backend, so the
/// optimizer unwinds in O(iterations) cheap steps instead of finishing its
/// full simulation budget. The best-so-far result found *before* the token
/// fired is still returned — cancellation is a scheduling event, not an
/// engine error, so callers that need to distinguish a cut-short run must
/// inspect `cancel.is_cancelled()` after the call. With `cancel = None` the
/// arithmetic (and hence the RNG stream and result) is bit-identical to
/// [`run_vqe`].
pub fn run_vqe_cancellable<R: Rng + ?Sized>(
    nrows: usize,
    ncols: usize,
    hamiltonian: &Observable,
    options: VqeOptions,
    initial_params: Option<&[f64]>,
    rng: &mut R,
    cancel: Option<&koala_exec::CancelToken>,
) -> Result<VqeResult> {
    let n_params = num_parameters(nrows, ncols, options.layers);
    let default_init: Vec<f64> = (0..n_params).map(|i| 0.1 + 0.05 * (i % 7) as f64).collect();
    let initial: Vec<f64> = match initial_params {
        Some(p) => {
            assert_eq!(p.len(), n_params, "wrong number of initial parameters");
            p.to_vec()
        }
        None => default_init,
    };

    // The objective closure needs its own RNG stream so the outer rng can be
    // reused for the optimizer (SPSA) without borrow conflicts.
    let mut eval_rng = rand::rngs::StdRng::seed_from_u64(rng.gen());
    let mut failures = 0usize;
    let mut objective = |params: &[f64]| -> f64 {
        if cancel.is_some_and(koala_exec::CancelToken::is_cancelled) {
            return f64::MAX / 1e6;
        }
        match energy_per_site(
            nrows,
            ncols,
            hamiltonian,
            options.layers,
            params,
            options.backend,
            &mut eval_rng,
        ) {
            Ok(e) if e.is_finite() => e,
            _ => {
                failures += 1;
                f64::MAX / 1e6
            }
        }
    };

    let opt_result: OptResult = match options.optimizer {
        Optimizer::NelderMead { scale, max_iterations } => {
            nelder_mead(&mut objective, &initial, scale, max_iterations, 1e-9)
        }
        Optimizer::Spsa { a0, c0, iterations } => {
            spsa(&mut objective, &initial, iterations, a0, c0, rng)
        }
    };

    Ok(VqeResult {
        energy_history: opt_result.history,
        best_energy: opt_result.best_value,
        best_params: opt_result.best_params,
        evaluations: opt_result.evaluations,
    })
}

use rand::SeedableRng;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::{tfi_hamiltonian, TfiParams};
    use rand::rngs::StdRng;

    #[test]
    fn ansatz_parameter_count_and_structure() {
        let c = ansatz_circuit(2, 2, 2, &[0.1; 8]);
        // Per layer: 4 Ry + 4 CNOT; two layers.
        assert_eq!(c.len(), 16);
        assert_eq!(c.two_qubit_count(), 8);
        assert_eq!(num_parameters(3, 3, 2), 18);
    }

    #[test]
    fn statevector_and_peps_objectives_agree_for_large_bond() {
        let mut rng = StdRng::seed_from_u64(1);
        let h = tfi_hamiltonian(2, 2, TfiParams::paper_figure14());
        let params: Vec<f64> = vec![0.3, -0.2, 0.5, 0.1];
        let sv_energy =
            energy_per_site(2, 2, &h, 1, &params, VqeBackend::StateVector, &mut rng).unwrap();
        let peps_energy = energy_per_site(
            2,
            2,
            &h,
            1,
            &params,
            VqeBackend::Peps { bond: 8, contraction_bond: 16 },
            &mut rng,
        )
        .unwrap();
        assert!(
            (sv_energy - peps_energy).abs() < 1e-5,
            "state vector {sv_energy} vs PEPS {peps_energy}"
        );
    }

    #[test]
    fn vqe_improves_over_the_initial_point_on_2x2_tfi() {
        let mut rng = StdRng::seed_from_u64(2);
        let h = tfi_hamiltonian(2, 2, TfiParams::paper_figure14());
        let options = VqeOptions {
            layers: 1,
            backend: VqeBackend::StateVector,
            optimizer: Optimizer::NelderMead { scale: 0.4, max_iterations: 120 },
        };
        let initial = vec![0.2; 4];
        let initial_energy =
            energy_per_site(2, 2, &h, 1, &initial, VqeBackend::StateVector, &mut rng).unwrap();
        let result = run_vqe(2, 2, &h, options, Some(&initial), &mut rng).unwrap();
        assert!(result.best_energy < initial_energy - 0.5, "VQE failed to improve: {result:?}");
        // The exact ground state per site is a lower bound.
        let exact = StateVector::ground_state_energy(2, 2, &h, &mut rng).unwrap() / 4.0;
        assert!(result.best_energy >= exact - 1e-6);
        // History is monotone non-increasing (best-so-far curve).
        for w in result.energy_history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn vqe_with_peps_backend_runs_and_is_bounded_below_by_exact() {
        let mut rng = StdRng::seed_from_u64(3);
        let h = tfi_hamiltonian(2, 2, TfiParams::paper_figure14());
        let options = VqeOptions {
            layers: 1,
            backend: VqeBackend::Peps { bond: 2, contraction_bond: 4 },
            optimizer: Optimizer::NelderMead { scale: 0.4, max_iterations: 40 },
        };
        let result = run_vqe(2, 2, &h, options, None, &mut rng).unwrap();
        let exact = StateVector::ground_state_energy(2, 2, &h, &mut rng).unwrap() / 4.0;
        assert!(result.best_energy >= exact - 1e-4);
        assert!(result.best_energy < 0.0);
        assert!(result.evaluations > 0);
    }

    #[test]
    fn spsa_optimizer_path_works() {
        let mut rng = StdRng::seed_from_u64(4);
        let h = tfi_hamiltonian(2, 2, TfiParams::paper_figure14());
        let options = VqeOptions {
            layers: 1,
            backend: VqeBackend::StateVector,
            optimizer: Optimizer::Spsa { a0: 0.3, c0: 0.2, iterations: 60 },
        };
        let initial = vec![0.2; 4];
        let initial_energy =
            energy_per_site(2, 2, &h, 1, &initial, VqeBackend::StateVector, &mut rng).unwrap();
        let result = run_vqe(2, 2, &h, options, Some(&initial), &mut rng).unwrap();
        assert!(result.best_energy <= initial_energy);
    }
}

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
use koala_error::{recovery, KoalaError, Result};
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
///
/// A failed objective evaluation (an engine error, or a non-finite energy)
/// ends the run the same way: later evaluations short-circuit to the
/// penalty, and once the optimizer has unwound the first failure is
/// returned. Initial parameters of the wrong length and Hamiltonian terms
/// outside the lattice are `InvalidArgument`, checked before any work.
pub fn run_vqe_cancellable<R: Rng + ?Sized>(
    nrows: usize,
    ncols: usize,
    hamiltonian: &Observable,
    options: VqeOptions,
    initial_params: Option<&[f64]>,
    rng: &mut R,
    cancel: Option<&koala_exec::CancelToken>,
) -> Result<VqeResult> {
    hamiltonian.validate(&Peps::computational_zeros(nrows, ncols))?;
    let n_params = num_parameters(nrows, ncols, options.layers);
    let initial: Vec<f64> = match initial_params {
        Some(p) if p.len() != n_params => {
            return Err(KoalaError::invalid(format!(
                "vqe: {} initial parameters, the ansatz has {n_params}",
                p.len()
            )));
        }
        Some(p) => p.to_vec(),
        None => (0..n_params).map(|i| 0.1 + 0.05 * (i % 7) as f64).collect(),
    };

    // The objective closure needs its own RNG stream so the outer rng can be
    // reused for the optimizer (SPSA) without borrow conflicts.
    let mut eval_rng = rand::rngs::StdRng::seed_from_u64(rng.gen());
    let mut failure: Option<KoalaError> = None;
    let mut objective = |params: &[f64]| -> f64 {
        if failure.is_some() || cancel.is_some_and(koala_exec::CancelToken::is_cancelled) {
            return f64::MAX / 1e6;
        }
        let error = match energy_per_site(
            nrows,
            ncols,
            hamiltonian,
            options.layers,
            params,
            options.backend,
            &mut eval_rng,
        ) {
            Ok(e) if e.is_finite() => return e,
            Ok(e) => {
                recovery::note_nonfinite_detection();
                KoalaError::non_finite(format!("vqe energy {e}"))
            }
            Err(e) => e,
        };
        failure = Some(error.context("run_vqe: objective evaluation"));
        f64::MAX / 1e6
    };

    let opt_result: OptResult = match options.optimizer {
        Optimizer::NelderMead { scale, max_iterations } => {
            nelder_mead(&mut objective, &initial, scale, max_iterations, 1e-9)
        }
        Optimizer::Spsa { a0, c0, iterations } => {
            spsa(&mut objective, &initial, iterations, a0, c0, rng)
        }
    };
    if let Some(e) = failure {
        return Err(e);
    }

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
    use koala_error::ErrorKind;
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

    fn peps_nelder_mead() -> VqeOptions {
        VqeOptions {
            layers: 1,
            backend: VqeBackend::Peps { bond: 2, contraction_bond: 4 },
            optimizer: Optimizer::NelderMead { scale: 0.4, max_iterations: 10 },
        }
    }

    #[test]
    fn a_failed_evaluation_fails_the_run_with_its_kind() {
        // Couplings this large overflow the energy measurement: the run must
        // report that, not return the penalty as its best energy.
        let h = tfi_hamiltonian(2, 2, TfiParams { jz: -1e200, hx: -1e200 });
        let mut rng = StdRng::seed_from_u64(5);
        let err = run_vqe(2, 2, &h, peps_nelder_mead(), None, &mut rng).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NonFinite, "{err}");
        assert_eq!(
            err.contexts().last().map(String::as_str),
            Some("run_vqe: objective evaluation")
        );
    }

    #[test]
    fn caller_mistakes_are_invalid_arguments_not_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let h = tfi_hamiltonian(2, 2, TfiParams::paper_figure14());
        let err = run_vqe(2, 2, &h, peps_nelder_mead(), Some(&[0.1; 3]), &mut rng).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidArgument, "{err}");

        // A 3x3 Hamiltonian has terms outside a 2x2 lattice, on either backend.
        let h = tfi_hamiltonian(3, 3, TfiParams::paper_figure14());
        let err = run_vqe(2, 2, &h, peps_nelder_mead(), None, &mut rng).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidArgument, "{err}");
        let options = VqeOptions { backend: VqeBackend::StateVector, ..peps_nelder_mead() };
        let err = run_vqe(2, 2, &h, options, None, &mut rng).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidArgument, "{err}");
    }
}

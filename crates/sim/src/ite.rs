//! Imaginary time evolution (ITE) via TEBD (paper §II-D1, Figure 13).
//!
//! Repeatedly applies the Trotterised operator `prod_j exp(-tau H_j)` to the
//! state and records the Rayleigh quotient after each step. Both a PEPS
//! implementation (truncated evolution + approximate contraction) and an
//! exact state-vector implementation (the reference curves of Figure 13) are
//! provided.
//!
//! ITE is an all-real workload for real Hamiltonians (TFI, Heisenberg): the
//! Trotter gates `exp(-tau H_j)` are real matrices and the initial product
//! states are real, so both carry the structural realness hint (see
//! [`crate::hamiltonian::trotter_gates`]) and the gate-application einsums
//! run on the real-valued GEMM fast path. The factorizations behind every
//! bond truncation (QR / Jacobi SVD / Gram QR / eigh / randomized SVD) run
//! realness-preserving inner loops on hinted inputs and mark their factors
//! real, so a full ITE sweep — evolution, renormalization, and IBMPS energy
//! measurement — executes *zero* complex MACs end to end (pinned by the
//! `real_path` integration test at the workspace root). Correctness never
//! depends on the hint, only the flop count does.

use crate::hamiltonian::{trotter_gates, TrotterGate};
use crate::statevector::StateVector;
use koala_error::{recovery, KoalaError, Result, ResultExt};
use koala_linalg::c64;
use koala_peps::operators::Observable;
use koala_peps::{apply_gates, route_two_site, routed_error, GateOp, Peps, UpdateMethod};
use koala_peps::{expectation_and_norm, ExpectationOptions};
use rand::Rng;

/// Configuration of a PEPS imaginary-time-evolution run.
#[derive(Debug, Clone, Copy)]
pub struct IteOptions {
    /// Trotter step size `tau`.
    pub tau: f64,
    /// Number of ITE steps.
    pub steps: usize,
    /// Evolution bond dimension `r` (truncation of the PEPS bonds).
    pub evolution_bond: usize,
    /// Contraction bond dimension `m` used when measuring the energy.
    pub contraction_bond: usize,
    /// Measure the energy every `measure_every` steps (1 = every step).
    pub measure_every: usize,
}

impl IteOptions {
    /// Reasonable defaults mirroring the Figure 13 study.
    pub fn new(tau: f64, steps: usize, evolution_bond: usize, contraction_bond: usize) -> Self {
        IteOptions { tau, steps, evolution_bond, contraction_bond, measure_every: 1 }
    }
}

/// Result of an ITE run.
#[derive(Debug, Clone)]
pub struct IteResult {
    /// Energy per site after each measured step (step index, energy).
    pub energies: Vec<(usize, f64)>,
    /// The final evolved PEPS.
    pub final_state: Peps,
}

impl IteResult {
    /// The last measured energy per site.
    pub fn final_energy(&self) -> f64 {
        self.energies.last().map(|&(_, e)| e).unwrap_or(f64::NAN)
    }
}

/// A resumable snapshot of an in-flight ITE run: the evolved PEPS, the
/// measurement history, and — crucially — the RNG state, so running the
/// steps after the snapshot consumes the same random numbers as an
/// uninterrupted run and reproduces it exactly.
#[derive(Debug, Clone)]
pub struct IteCheckpoint<R: Rng + Clone> {
    /// Number of completed ITE steps at snapshot time.
    step: usize,
    peps: Peps,
    rng: R,
    energies: Vec<(usize, f64)>,
}

impl<R: Rng + Clone> IteCheckpoint<R> {
    /// Number of completed ITE steps at snapshot time.
    pub fn step(&self) -> usize {
        self.step
    }

    /// The evolved PEPS at snapshot time.
    pub fn peps(&self) -> &Peps {
        &self.peps
    }
}

/// Capture a step-0 checkpoint of `initial`, from which [`ite_peps_from`]
/// starts (or later resumes) a run.
pub fn ite_checkpoint<R: Rng + Clone>(initial: &Peps, rng: &R) -> IteCheckpoint<R> {
    IteCheckpoint { step: 0, peps: initial.clone(), rng: rng.clone(), energies: Vec::new() }
}

/// Run imaginary time evolution of `hamiltonian` on a PEPS starting from
/// `initial`, measuring the energy per site with IBMPS contraction.
///
/// Each step is a Trotter layer, a finite guard on the evolved tensors, the
/// scheduled energy measurement and a renormalisation. A step is a
/// deterministic function of the PEPS and the RNG state, so a failed step is
/// returned at once, with the kind set where the failure was detected and one
/// `ite_peps: step N` context frame. Guard rejections are counted in
/// [`koala_error::recovery`].
pub fn ite_peps<R: Rng + Clone>(
    initial: &Peps,
    hamiltonian: &Observable,
    options: IteOptions,
    rng: &mut R,
) -> Result<IteResult> {
    let (result, end) = ite_peps_from(ite_checkpoint(initial, rng), hamiltonian, options)?;
    *rng = end.rng; // keep the caller's stream in sync with the evolution
    Ok(result)
}

/// Run (or resume) imaginary time evolution from a checkpoint, executing
/// steps `checkpoint.step() + 1 ..= options.steps`. Returns the result over
/// the *whole* history (including steps measured before the checkpoint) and
/// the final checkpoint, which a later call can resume from with a larger
/// `options.steps`. Failures are reported as by [`ite_peps`].
pub fn ite_peps_from<R: Rng + Clone>(
    checkpoint: IteCheckpoint<R>,
    hamiltonian: &Observable,
    options: IteOptions,
) -> Result<(IteResult, IteCheckpoint<R>)> {
    let gates = trotter_gates(hamiltonian, c64(-options.tau, 0.0))?;
    let n_sites = checkpoint.peps.num_sites() as f64;
    let expect_opts = ExpectationOptions::ibmps_cached(options.contraction_bond);

    let mut state = checkpoint;
    for step in state.step + 1..=options.steps {
        ite_step(&mut state, step, &gates, hamiltonian, expect_opts, n_sites, &options)
            .with_context(|| format!("ite_peps: step {step}"))?;
        state.step = step;
    }
    let result = IteResult { energies: state.energies.clone(), final_state: state.peps.clone() };
    Ok((result, state))
}

/// One guarded ITE step: Trotter layer, finite guard, the scheduled energy
/// measurement, and renormalization. A measured step reads `<psi|psi>` off
/// the network it measures on (the Rayleigh quotient does not care about the
/// scale, so it is taken first); only a step that does not measure contracts
/// the norm on its own.
fn ite_step<R: Rng + Clone>(
    state: &mut IteCheckpoint<R>,
    step: usize,
    gates: &[TrotterGate],
    hamiltonian: &Observable,
    expect_opts: ExpectationOptions,
    n_sites: f64,
    options: &IteOptions,
) -> Result<()> {
    apply_trotter_layer(&mut state.peps, gates, UpdateMethod::qr_svd(options.evolution_bond))?;
    validate_peps_finite(&state.peps, step)?;
    let norm_sqr = if step.is_multiple_of(options.measure_every) || step == options.steps {
        let (value, norm) =
            expectation_and_norm(&state.peps, hamiltonian, expect_opts, &mut state.rng)?;
        let e = value / norm;
        if !e.re.is_finite() {
            recovery::note_nonfinite_detection();
            return Err(KoalaError::non_finite(format!("ite step {step}: energy {e}")));
        }
        state.energies.push((step, e.re / n_sites));
        norm.re
    } else {
        koala_peps::norm_sqr(&state.peps, expect_opts.method, &mut state.rng)?
    };
    renormalize(&mut state.peps, norm_sqr);
    Ok(())
}

/// The per-step finite guard: reject any NaN/Inf in the evolved tensors.
fn validate_peps_finite(peps: &Peps, step: usize) -> Result<()> {
    for r in 0..peps.nrows() {
        for c in 0..peps.ncols() {
            let bad =
                peps.tensor((r, c)).data().iter().any(|z| !z.re.is_finite() || !z.im.is_finite());
            if bad {
                recovery::note_nonfinite_detection();
                return Err(KoalaError::non_finite(format!(
                    "ite step {step}: PEPS tensor at site ({r},{c})"
                )));
            }
        }
    }
    Ok(())
}

/// Apply one full Trotter layer (every local term once) to the PEPS: the
/// terms become one gate list (non-neighbouring pairs lowered to SWAP
/// routes), which `apply_gates` runs with the terms on disjoint sites in
/// parallel and every site updated in term order.
pub fn apply_trotter_layer(
    peps: &mut Peps,
    gates: &[TrotterGate],
    method: UpdateMethod,
) -> Result<f64> {
    let mut ops = Vec::with_capacity(gates.len());
    // The ops each two-site term was lowered to.
    let mut terms = Vec::new();
    for gate in gates {
        match gate.sites.as_slice() {
            [site] => ops.push(GateOp::one_site(&gate.matrix, *site)),
            [a, b] => {
                let start = ops.len();
                route_two_site(peps, &gate.matrix, *a, *b, &mut ops)?;
                terms.push(start..ops.len());
            }
            _ => unreachable!("trotter gates act on one or two sites"),
        }
    }
    let errs = apply_gates(peps, &ops, method)?;
    let err_sq =
        terms.into_iter().map(|term| routed_error(&errs[term])).fold(0.0, |s, e| s + e * e);
    Ok(err_sq.sqrt())
}

/// Rescale the PEPS of (approximate) norm squared `norm_sqr` so its norm
/// stays O(1); imaginary-time gates are not unitary and would otherwise
/// shrink or blow up the tensors.
fn renormalize(peps: &mut Peps, norm_sqr: f64) {
    if norm_sqr > 0.0 && norm_sqr.is_finite() {
        let scale = norm_sqr.powf(-0.25); // spread the rescaling gently over steps
        let per_site = scale.powf(1.0 / peps.num_sites() as f64);
        for r in 0..peps.nrows() {
            for c in 0..peps.ncols() {
                let t = peps.tensor((r, c)).scale(c64(per_site, 0.0));
                peps.set_tensor((r, c), t);
            }
        }
    }
}

/// Exact imaginary time evolution on the full state vector (the reference
/// curve of Figure 13). Returns the energy per site after each step, or
/// `InvalidArgument` before any work if a term of `hamiltonian` lies outside
/// the state's lattice.
pub fn ite_statevector(
    initial: &StateVector,
    hamiltonian: &Observable,
    tau: f64,
    steps: usize,
) -> Result<Vec<(usize, f64)>> {
    let (nrows, ncols) = initial.shape();
    hamiltonian.validate(&Peps::computational_zeros(nrows, ncols))?;
    let gates = trotter_gates(hamiltonian, c64(-tau, 0.0))?;
    let n_sites = initial.num_qubits() as f64;
    let mut sv = initial.clone();
    let mut energies = Vec::with_capacity(steps);
    for step in 1..=steps {
        for gate in &gates {
            match gate.sites.as_slice() {
                [site] => sv.apply_one_site(&gate.matrix, *site),
                [a, b] => sv.apply_two_site(&gate.matrix, *a, *b),
                _ => unreachable!(),
            }
        }
        sv.normalize();
        energies.push((step, sv.expectation(hamiltonian) / n_sites));
    }
    Ok(energies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::{tfi_hamiltonian, TfiParams};
    use koala_error::ErrorKind;
    use koala_exec::WorkMeter;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn statevector_ite_converges_to_ground_state() {
        let mut rng = StdRng::seed_from_u64(1);
        let h = tfi_hamiltonian(2, 2, TfiParams { jz: -1.0, hx: -2.0 });
        let exact = StateVector::ground_state_energy(2, 2, &h, &mut rng).unwrap() / 4.0;
        let sv = StateVector::random(2, 2, &mut rng);
        let energies = ite_statevector(&sv, &h, 0.05, 300).unwrap();
        let last = energies.last().unwrap().1;
        // First-order Trotterisation carries an O(tau) bias, so the converged
        // energy sits slightly above the exact ground state.
        assert!((last - exact).abs() < 1e-2, "ITE energy {last} vs exact {exact}");
        assert!(last >= exact - 1e-9, "Trotterised ITE should stay above the true ground energy");
        // Energy is non-increasing (up to Trotter noise).
        let first = energies.first().unwrap().1;
        assert!(last <= first + 1e-9);
    }

    #[test]
    fn peps_ite_lowers_the_energy_of_the_tfi_model() {
        let mut rng = StdRng::seed_from_u64(2);
        let h = tfi_hamiltonian(2, 2, TfiParams::paper_figure14());
        let peps = Peps::computational_zeros(2, 2);
        let options = IteOptions::new(0.05, 20, 2, 4);
        let result = ite_peps(&peps, &h, options, &mut rng).unwrap();
        assert_eq!(result.energies.len(), 20);
        let product_state_energy = -1.0; // <0000| H |0000> / 4 = Jz * 4 bonds / 4 sites = -1
        assert!(
            result.final_energy() < product_state_energy - 0.5,
            "ITE should improve on the product state, got {}",
            result.final_energy()
        );
        // Monotone decrease within tolerance.
        for w in result.energies.windows(2) {
            assert!(w[1].1 <= w[0].1 + 0.05, "energy increased too much: {:?}", w);
        }
    }

    #[test]
    fn large_tau_energy_survives_a_norm_beyond_the_square_range() {
        // By step 30 `<psi|psi>` reaches 1.8e183 (tau 6) and 6.3e245 (tau 8):
        // its squared modulus overflows, but `value / norm` does not.
        let h = tfi_hamiltonian(2, 2, TfiParams::paper_figure14());
        for tau in [6.0, 8.0] {
            let (peps, mut rng) = (Peps::computational_zeros(2, 2), StdRng::seed_from_u64(6));
            let e = ite_peps(&peps, &h, IteOptions::new(tau, 30, 2, 4), &mut rng).unwrap();
            assert!((e.final_energy() + 3.5).abs() < 1e-9, "tau {tau}: {}", e.final_energy());
        }
    }

    #[test]
    fn peps_ite_with_larger_bond_is_at_least_as_good() {
        let mut rng = StdRng::seed_from_u64(3);
        let h = tfi_hamiltonian(2, 2, TfiParams::paper_figure14());
        let peps = Peps::computational_zeros(2, 2);
        let e1 =
            ite_peps(&peps, &h, IteOptions::new(0.05, 25, 1, 2), &mut rng).unwrap().final_energy();
        let e2 =
            ite_peps(&peps, &h, IteOptions::new(0.05, 25, 2, 4), &mut rng).unwrap().final_energy();
        let exact = StateVector::ground_state_energy(2, 2, &h, &mut rng).unwrap() / 4.0;
        assert!(e2 <= e1 + 0.05, "bond 2 ({e2}) should not be much worse than bond 1 ({e1})");
        assert!(e2 >= exact - 0.05, "variational-ish energy should not dive far below exact");
    }

    #[test]
    fn resumed_run_matches_an_uninterrupted_one() {
        let h = tfi_hamiltonian(2, 2, TfiParams::paper_figure14());
        let peps = Peps::computational_zeros(2, 2);

        // One uninterrupted 12-step run...
        let mut rng = StdRng::seed_from_u64(7);
        let full = ite_peps(&peps, &h, IteOptions::new(0.05, 12, 2, 4), &mut rng).unwrap();

        // ...vs the same run split at step 5 through a checkpoint.
        let rng2 = StdRng::seed_from_u64(7);
        let start = ite_checkpoint(&peps, &rng2);
        let (_, mid) = ite_peps_from(start, &h, IteOptions::new(0.05, 5, 2, 4)).unwrap();
        assert_eq!(mid.step(), 5);
        let (resumed, end) = ite_peps_from(mid, &h, IteOptions::new(0.05, 12, 2, 4)).unwrap();
        assert_eq!(end.step(), 12);

        assert_eq!(full.energies.len(), resumed.energies.len());
        for (&(sa, ea), &(sb, eb)) in full.energies.iter().zip(resumed.energies.iter()) {
            assert_eq!(sa, sb);
            assert!((ea - eb).abs() < 1e-10, "step {sa}: {ea} vs {eb}");
        }
    }

    /// `measure_every = 3` over 12 steps: steps 3, 6, 9 and 12 read
    /// `<psi|psi>` off the network they measure on, the others contract it on
    /// their own, and the state stays O(1) either way. A measured step bills
    /// exactly its Trotter layer and its measurement: the norm contraction
    /// that used to precede the measurement is gone.
    #[test]
    fn measured_steps_rescale_from_the_measured_network() {
        let h = tfi_hamiltonian(3, 2, TfiParams::paper_figure14());
        let mut options = IteOptions::new(0.05, 12, 2, 4);
        options.measure_every = 3;
        let gates = trotter_gates(&h, c64(-options.tau, 0.0)).unwrap();
        // The replay measures with its own copy of the observable, so it
        // decomposes the two-site terms at the same step `ite_step` does:
        // the first one it measures at (an observable does that once).
        let h_replay = h.clone();
        let expect_opts = ExpectationOptions::ibmps_cached(options.contraction_bond);
        let mut state =
            ite_checkpoint(&Peps::computational_zeros(3, 2), &StdRng::seed_from_u64(11));
        for step in 1..=options.steps {
            let mut evolved = state.peps.clone();
            let whole = WorkMeter::new();
            whole
                .scope(|| ite_step(&mut state, step, &gates, &h, expect_opts, 6.0, &options))
                .unwrap();
            let n = state.peps.norm_sqr_dense().unwrap();
            assert!((1e-2..=1e2).contains(&n), "step {step}: <psi|psi> = {n}");
            if step % 3 == 0 {
                let mut rng = StdRng::seed_from_u64(0);
                let (parts, norm) = (WorkMeter::new(), WorkMeter::new());
                parts.scope(|| {
                    apply_trotter_layer(
                        &mut evolved,
                        &gates,
                        UpdateMethod::qr_svd(options.evolution_bond),
                    )
                    .unwrap();
                    expectation_and_norm(&evolved, &h_replay, expect_opts, &mut rng).unwrap();
                });
                norm.scope(|| koala_peps::norm_sqr(&evolved, expect_opts.method, &mut rng))
                    .unwrap();
                assert_eq!(whole.real_macs(), parts.real_macs(), "step {step}");
                assert!(norm.real_macs() > 0);
                assert_eq!(whole.complex_macs(), 0);
            }
        }
        let measured: Vec<usize> = state.energies.iter().map(|&(step, _)| step).collect();
        assert_eq!(measured, [3, 6, 9, 12]);
    }

    #[test]
    fn a_failing_step_is_returned_at_once() {
        let h = tfi_hamiltonian(2, 2, TfiParams::paper_figure14());
        let mut bad = Peps::computational_zeros(2, 2);
        let mut t = bad.tensor((1, 0)).clone();
        t.data_mut()[0] = c64(f64::NAN, 0.0);
        bad.set_tensor((1, 0), t);
        let mut rng = StdRng::seed_from_u64(5);
        let err = ite_peps(&bad, &h, IteOptions::new(0.05, 4, 2, 4), &mut rng).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NonFinite, "{err}");
        assert_eq!(err.contexts().last().map(String::as_str), Some("ite_peps: step 1"), "{err}");
        assert_eq!(err.contexts().iter().filter(|f| f.starts_with("ite_peps")).count(), 1);
    }

    /// At `tau` 12 the energy of a 2x2 TFI run overflows in the measurement
    /// of step 3, after every contraction task of that measurement has run,
    /// so the run's bill does not depend on the schedule: it is the bill of
    /// its Trotter gates and of steps 1 to 3, each run once.
    #[test]
    fn a_failing_run_bills_each_step_once() {
        let h = tfi_hamiltonian(2, 2, TfiParams::paper_figure14());
        // The replay measures with its own copy of the observable, so it
        // decomposes the two-site terms too, as the run does.
        let h_replay = h.clone();
        let options = IteOptions::new(12.0, 8, 2, 4);
        let peps = Peps::computational_zeros(2, 2);
        let run = WorkMeter::new();
        let err =
            run.scope(|| ite_peps(&peps, &h, options, &mut StdRng::seed_from_u64(6))).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NonFinite, "{err}");
        assert!(err.message().contains("energy"), "{err}");
        assert_eq!(err.contexts(), ["ite_peps: step 3"], "{err}");

        let replay = WorkMeter::new();
        replay.scope(|| {
            let gates = trotter_gates(&h_replay, c64(-options.tau, 0.0)).unwrap();
            let expect_opts = ExpectationOptions::ibmps_cached(options.contraction_bond);
            let mut state = ite_checkpoint(&peps, &StdRng::seed_from_u64(6));
            for step in 1..=3 {
                let done =
                    ite_step(&mut state, step, &gates, &h_replay, expect_opts, 4.0, &options);
                assert_eq!(done.is_err(), step == 3, "step {step}");
            }
        });
        assert!(run.real_macs() > 0);
        assert_eq!(run.real_macs(), replay.real_macs());
        assert_eq!(run.complex_macs(), replay.complex_macs());
    }

    #[test]
    fn a_caller_mistake_is_returned_at_once_not_replayed() {
        // A 3x3 Hamiltonian has terms outside a 2x2 lattice: no replay can
        // cure that.
        let h = tfi_hamiltonian(3, 3, TfiParams::paper_figure14());
        let peps = Peps::computational_zeros(2, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let err = ite_peps(&peps, &h, IteOptions::new(0.05, 4, 2, 4), &mut rng).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidArgument, "{err}");
        assert_eq!(err.contexts().last().map(String::as_str), Some("ite_peps: step 1"), "{err}");
    }

    #[test]
    fn statevector_ite_rejects_terms_outside_the_lattice() {
        let h = tfi_hamiltonian(3, 3, TfiParams::paper_figure14());
        let sv = StateVector::computational_zeros(2, 2);
        let err = ite_statevector(&sv, &h, 0.05, 4).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidArgument, "{err}");
    }

    #[test]
    fn trotter_layer_error_reporting() {
        let mut rng = StdRng::seed_from_u64(4);
        let h = tfi_hamiltonian(2, 2, TfiParams::paper_figure14());
        let gates = trotter_gates(&h, c64(-0.1, 0.0)).unwrap();
        let mut peps = Peps::random(2, 2, 2, 2, &mut rng);
        let err = apply_trotter_layer(&mut peps, &gates, UpdateMethod::qr_svd(1)).unwrap();
        assert!(err >= 0.0);
        assert!(peps.max_bond() <= 1);
    }
}

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
use koala_error::Result;
use koala_error::{recovery, ErrorKind, KoalaError};
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
    /// Save an in-memory recovery checkpoint (PEPS + RNG + step index) every
    /// this many completed steps. `0` disables checkpointing; a failed step
    /// then restarts from the initial state.
    pub checkpoint_every: usize,
    /// How many times a failed step may be retried from the last checkpoint
    /// before the run gives up and reports the error.
    pub max_restarts: usize,
    /// Deterministic fault injection: corrupt the evolving PEPS once, right
    /// after the Trotter layer of the given step (testing/chaos hook). The
    /// per-step finite guard detects the corruption and the driver restores
    /// from the last checkpoint; because the fault is transient (it fires
    /// exactly once), the deterministic RNG replay reproduces the fault-free
    /// trajectory bit for bit.
    pub fault: Option<IteFault>,
}

/// A seeded, once-firing corruption of the evolving PEPS (see
/// [`IteOptions::fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IteFault {
    /// Step (1-based) after whose Trotter layer the corruption lands.
    pub step: usize,
    /// Seed selecting which site/element is corrupted.
    pub seed: u64,
}

impl IteOptions {
    /// Reasonable defaults mirroring the Figure 13 study.
    pub fn new(tau: f64, steps: usize, evolution_bond: usize, contraction_bond: usize) -> Self {
        IteOptions {
            tau,
            steps,
            evolution_bond,
            contraction_bond,
            measure_every: 1,
            checkpoint_every: 0,
            max_restarts: 3,
            fault: None,
        }
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

/// A restartable snapshot of an in-flight ITE run: the evolved PEPS, the
/// measurement history, and — crucially — the RNG state, so replaying the
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
/// The run is fault tolerant: with `options.checkpoint_every > 0` the driver
/// snapshots (PEPS, RNG, history) periodically, guards every step with a
/// finiteness check, and on a failure a replay can cure (`NonFinite`,
/// `NoConvergence`) rolls back to the last checkpoint and
/// replays — up to `options.max_restarts` times — before returning the last
/// step's error. Any other kind (a caller mistake) is returned at once.
/// Recovery actions are counted in [`koala_error::recovery`].
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
/// `options.steps`.
pub fn ite_peps_from<R: Rng + Clone>(
    checkpoint: IteCheckpoint<R>,
    hamiltonian: &Observable,
    options: IteOptions,
) -> Result<(IteResult, IteCheckpoint<R>)> {
    let gates = trotter_gates(hamiltonian, c64(-options.tau, 0.0))?;
    let n_sites = checkpoint.peps.num_sites() as f64;
    let expect_opts = ExpectationOptions::ibmps_cached(options.contraction_bond);

    let mut state = checkpoint;
    let mut last_good = state.clone();
    let mut restarts = 0usize;
    // A fired fault stays fired across rollbacks: the injected corruption is
    // transient, so the replayed steps run clean and the recovered trajectory
    // matches the fault-free one exactly.
    let mut fault_fired = false;

    let mut step = state.step + 1;
    while step <= options.steps {
        match ite_step(
            &mut state,
            step,
            &gates,
            hamiltonian,
            expect_opts,
            n_sites,
            &options,
            &mut fault_fired,
        ) {
            Ok(()) => {
                state.step = step;
                if options.checkpoint_every > 0 && step.is_multiple_of(options.checkpoint_every) {
                    last_good = state.clone();
                    recovery::note_checkpoint_saved();
                }
                step += 1;
            }
            Err(e) => {
                // A caller mistake fails the same way on every replay: only
                // what a clean replay can cure is worth a restore.
                let curable = matches!(e.kind(), ErrorKind::NonFinite | ErrorKind::NoConvergence);
                if !curable {
                    return Err(e.context(format!("ite_peps: step {step}")));
                }
                restarts += 1;
                if restarts > options.max_restarts {
                    return Err(e.context(format!(
                        "ite_peps: step {step} still failing after {} restore attempts",
                        options.max_restarts
                    )));
                }
                recovery::note_checkpoint_restored();
                state = last_good.clone();
                step = state.step + 1;
            }
        }
    }
    let result = IteResult { energies: state.energies.clone(), final_state: state.peps.clone() };
    Ok((result, state))
}

/// One guarded ITE step: Trotter layer, (optional) fault injection, finite
/// guard, the scheduled energy measurement, and renormalization. A measured
/// step reads `<psi|psi>` off the network it measures on (the Rayleigh
/// quotient does not care about the scale, so it is taken first); only a step
/// that does not measure contracts the norm on its own.
#[allow(clippy::too_many_arguments)]
fn ite_step<R: Rng + Clone>(
    state: &mut IteCheckpoint<R>,
    step: usize,
    gates: &[TrotterGate],
    hamiltonian: &Observable,
    expect_opts: ExpectationOptions,
    n_sites: f64,
    options: &IteOptions,
    fault_fired: &mut bool,
) -> Result<()> {
    apply_trotter_layer(&mut state.peps, gates, UpdateMethod::qr_svd(options.evolution_bond))?;
    if let Some(fault) = options.fault {
        if fault.step == step && !*fault_fired {
            *fault_fired = true;
            corrupt_peps(&mut state.peps, fault.seed);
            recovery::note_fault_injected();
        }
    }
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

/// Deterministically poison one element of one site tensor (NaN), selected by
/// a splitmix64 hash of `seed` — the fault-injection payload.
fn corrupt_peps(peps: &mut Peps, seed: u64) {
    fn splitmix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let site = splitmix64(seed) as usize % peps.num_sites();
    let (r, c) = (site / peps.ncols(), site % peps.ncols());
    let mut t = peps.tensor((r, c)).clone();
    let len = t.data().len();
    t.data_mut()[splitmix64(seed ^ 0xDEAD_BEEF) as usize % len] = c64(f64::NAN, 0.0);
    peps.set_tensor((r, c), t);
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
/// curve of Figure 13). Returns the energy per site after each step.
pub fn ite_statevector(
    initial: &StateVector,
    hamiltonian: &Observable,
    tau: f64,
    steps: usize,
) -> Result<Vec<(usize, f64)>> {
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
                .scope(|| {
                    ite_step(&mut state, step, &gates, &h, expect_opts, 6.0, &options, &mut false)
                })
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
    fn injected_corruption_is_rolled_back_to_the_fault_free_trajectory() {
        let h = tfi_hamiltonian(2, 2, TfiParams::paper_figure14());
        let peps = Peps::computational_zeros(2, 2);

        let mut clean_rng = StdRng::seed_from_u64(9);
        let clean_opts = {
            let mut o = IteOptions::new(0.05, 10, 2, 4);
            o.checkpoint_every = 2;
            o
        };
        let clean = ite_peps(&peps, &h, clean_opts, &mut clean_rng).unwrap();

        let before = koala_error::recovery::snapshot();
        let mut faulty_rng = StdRng::seed_from_u64(9);
        let mut faulty_opts = clean_opts;
        faulty_opts.fault = Some(IteFault { step: 7, seed: 42 });
        let recovered = ite_peps(&peps, &h, faulty_opts, &mut faulty_rng).unwrap();
        let after = koala_error::recovery::snapshot();

        assert!(after.faults_injected > before.faults_injected);
        assert!(after.nonfinite_detections > before.nonfinite_detections);
        assert!(after.checkpoints_restored > before.checkpoints_restored);
        assert!(after.checkpoints_saved > before.checkpoints_saved);

        assert_eq!(clean.energies.len(), recovered.energies.len());
        for (&(sa, ea), &(sb, eb)) in clean.energies.iter().zip(recovered.energies.iter()) {
            assert_eq!(sa, sb);
            assert!((ea - eb).abs() < 1e-10, "step {sa}: clean {ea} vs recovered {eb}");
        }
    }

    #[test]
    fn persistent_corruption_exhausts_the_restart_budget() {
        let h = tfi_hamiltonian(2, 2, TfiParams::paper_figure14());
        let peps = Peps::computational_zeros(2, 2);
        // Poison the *initial* state: every replay re-detects it.
        let mut bad = peps.clone();
        corrupt_peps(&mut bad, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let mut opts = IteOptions::new(0.05, 4, 2, 4);
        opts.checkpoint_every = 1;
        let err = ite_peps(&bad, &h, opts, &mut rng).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("restore attempts"), "unexpected error: {msg}");
        assert_eq!(err.kind(), ErrorKind::NonFinite);
    }

    #[test]
    fn a_caller_mistake_is_returned_at_once_not_replayed() {
        // A 3x3 Hamiltonian has terms outside a 2x2 lattice: no replay can
        // cure that, so no checkpoint is restored.
        let h = tfi_hamiltonian(3, 3, TfiParams::paper_figure14());
        let peps = Peps::computational_zeros(2, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let mut opts = IteOptions::new(0.05, 4, 2, 4);
        opts.checkpoint_every = 1;
        let err = ite_peps(&peps, &h, opts, &mut rng).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidArgument, "{err}");
        assert!(!err.to_string().contains("restore attempts"), "{err}");
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

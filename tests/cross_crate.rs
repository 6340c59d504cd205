//! Workspace-level integration tests spanning several crates: the PEPS layer
//! against the state-vector simulator, the contraction methods against each
//! other, and the distributed kernels against the local reference.

use koala::cluster::{Cluster, CostModel};
use koala::linalg::{c64, expm_hermitian};
use koala::mps::ZipUpMethod;
use koala::peps::operators::{kron, pauli_z};
use koala::peps::two_layer::norm_sqr_two_layer;
use koala::peps::{
    amplitude, dist_tebd_layer, expectation_normalized, norm_sqr, ContractionMethod,
    DistEvolutionVariant, ExpectationOptions, Peps, UpdateMethod,
};
use koala::sim::gates::{cnot, hadamard, iswap};
use koala::sim::{ite_peps, random_circuit, tfi_hamiltonian, IteOptions, StateVector, TfiParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small circuit applied to both a PEPS and the exact state vector gives the
/// same amplitudes, norm, and expectation values across the whole stack.
#[test]
fn circuit_peps_statevector_consistency() {
    let mut rng = StdRng::seed_from_u64(1);
    let (n, m) = (2, 3);
    let mut peps = Peps::computational_zeros(n, m);
    let mut sv = StateVector::computational_zeros(n, m);

    let ops: Vec<(koala::linalg::Matrix, (usize, usize), Option<(usize, usize)>)> = vec![
        (hadamard(), (0, 0), None),
        (hadamard(), (1, 2), None),
        (cnot(), (0, 0), Some((0, 1))),
        (iswap(), (0, 1), Some((1, 1))),
        (cnot(), (1, 2), Some((1, 1))),
    ];
    for (g, a, b) in &ops {
        match b {
            None => {
                koala::peps::apply_one_site(&mut peps, g, *a).unwrap();
                sv.apply_one_site(g, *a);
            }
            Some(b) => {
                koala::peps::apply_two_site(&mut peps, g, *a, *b, UpdateMethod::qr_svd(8)).unwrap();
                sv.apply_two_site(g, *a, *b);
            }
        }
    }

    // Amplitudes agree for a handful of basis states.
    for bits in [[0, 0, 0, 0, 0, 0], [1, 0, 1, 0, 0, 1], [0, 1, 1, 1, 0, 0]] {
        let a_peps = amplitude(&peps, &bits, ContractionMethod::bmps(16), &mut rng).unwrap();
        let a_sv = sv.amplitude(&bits);
        assert!(a_peps.approx_eq(a_sv, 1e-7), "amplitude mismatch at {bits:?}");
    }

    // Norms agree (the circuit is unitary so both are 1).
    let n_merged = norm_sqr(&peps, ContractionMethod::ibmps(16), &mut rng).unwrap();
    let n_two_layer =
        norm_sqr_two_layer(&peps, 16, ZipUpMethod::implicit_default(), &mut rng).unwrap();
    assert!((n_merged - 1.0).abs() < 1e-6);
    assert!((n_two_layer - 1.0).abs() < 1e-6);

    // Expectation values of a Hamiltonian agree.
    let h = tfi_hamiltonian(n, m, TfiParams { jz: -1.0, hx: -0.7 });
    let e_peps =
        expectation_normalized(&peps, &h, ExpectationOptions::ibmps_cached(16), &mut rng).unwrap();
    let e_sv = sv.expectation(&h);
    assert!((e_peps.re - e_sv).abs() < 1e-6, "{} vs {}", e_peps.re, e_sv);
}

/// The RQC workload: exact PEPS evolution reproduces the state-vector
/// amplitude, and truncated contraction converges to it as the bond grows.
#[test]
fn rqc_amplitude_error_decreases_with_contraction_bond() {
    let mut rng = StdRng::seed_from_u64(2);
    let n = 3;
    let circuit = random_circuit(n, n, 4, 2, &mut rng);
    let mut peps = Peps::computational_zeros(n, n);
    circuit.apply_to_peps(&mut peps, UpdateMethod::qr_svd(1 << 12)).unwrap();
    let mut sv = StateVector::computational_zeros(n, n);
    circuit.apply_to_statevector(&mut sv);

    let bits = vec![0usize; n * n];
    let exact = sv.amplitude(&bits);
    let mut errors = Vec::new();
    for m in [2usize, 8, 32] {
        let approx = amplitude(&peps, &bits, ContractionMethod::ibmps(m), &mut rng).unwrap();
        errors.push((approx - exact).abs() / exact.abs());
    }
    assert!(errors[2] < 1e-6, "large bond should be essentially exact, got {:?}", errors);
    // On this small lattice every bond is near-exact, so compare up to the
    // float noise floor rather than demanding strict monotonicity there.
    assert!(
        errors[0] + 1e-12 >= errors[2],
        "error should not increase with bond dimension: {errors:?}"
    );
}

/// ITE on the PEPS reaches an energy close to the exact ground state of a
/// small transverse-field Ising model.
#[test]
fn ite_reaches_ground_state_on_small_lattice() {
    let mut rng = StdRng::seed_from_u64(3);
    let h = tfi_hamiltonian(2, 2, TfiParams { jz: -1.0, hx: -1.5 });
    let exact = StateVector::ground_state_energy(2, 2, &h, &mut rng).unwrap() / 4.0;
    let peps = Peps::computational_zeros(2, 2);
    let result = ite_peps(&peps, &h, IteOptions::new(0.05, 60, 2, 4), &mut rng).unwrap();
    assert!(
        (result.final_energy() - exact).abs() < 0.05,
        "ITE energy {} vs exact {exact}",
        result.final_energy()
    );
}

/// The distributed evolution kernel produces the same state as the local one
/// and the Gram variant moves less data, with a correspondingly lower
/// modelled execution time.
#[test]
fn distributed_evolution_consistency_and_cost_ordering() {
    let mut rng = StdRng::seed_from_u64(4);
    let gate = expm_hermitian(&kron(&pauli_z(), &pauli_z()), c64(0.0, -0.1)).unwrap();
    let base = Peps::random(3, 3, 2, 3, &mut rng);
    let model = CostModel::default();

    let cluster_gather = Cluster::new(8);
    let mut p1 = base.clone();
    dist_tebd_layer(&cluster_gather, &mut p1, &gate, 3, DistEvolutionVariant::CtfQrSvd).unwrap();

    let cluster_gram = Cluster::new(8);
    let mut p2 = base.clone();
    dist_tebd_layer(&cluster_gram, &mut p2, &gate, 3, DistEvolutionVariant::LocalGramQrSvd)
        .unwrap();

    // Same physics from both variants.
    let n1 = norm_sqr(&p1, ContractionMethod::bmps(12), &mut rng).unwrap();
    let n2 = norm_sqr(&p2, ContractionMethod::bmps(12), &mut rng).unwrap();
    assert!((n1 - n2).abs() / n1.abs().max(1e-12) < 1e-5);

    // The reshape-avoiding variant wins on communication and modelled time.
    let t_gather = model.modelled_time(&cluster_gather.stats());
    let t_gram = model.modelled_time(&cluster_gram.stats());
    assert!(cluster_gram.stats().bytes_communicated < cluster_gather.stats().bytes_communicated);
    assert!(t_gram < t_gather, "modelled time should favour the Gram variant");
}

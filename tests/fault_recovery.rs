//! Acceptance test of the fault-tolerance layer (ARCHITECTURE.md, "Failure
//! model"): a seeded rank failure mid-SUMMA must recover, the recovered
//! product must match the fault-free one to 1e-10, and the process-wide
//! [`koala::error::recovery`] counters must record the recovery path taken.
//! Corrupted and dropped site scatters of a distributed TEBD layer must be
//! repaired bit for bit. A failure that is *not* recovered must reach the
//! caller with the `ErrorKind` set where it was detected.

use koala::cluster::{Cluster, DistMatrix, FaultKind, FaultPlan, FaultSite};
use koala::error::{recovery, ErrorKind};
use koala::linalg::{c64, expm_hermitian, Matrix};
use koala::peps::operators::{kron, pauli_x, pauli_z};
use koala::peps::{
    apply_gates, contract_no_phys, dist_tebd_layer, expectation_normalized, ContractionMethod,
    DistEvolutionVariant, ExpectationOptions, GateOp, Observable, Peps, UpdateMethod,
};
use koala::sim::{tfi_hamiltonian, StateVector, TfiParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn rank_failure_mid_summa_recovers_and_matches_the_fault_free_product() {
    let mut rng = StdRng::seed_from_u64(31);
    let a = Matrix::random(29, 23, &mut rng);
    let b = Matrix::random(23, 17, &mut rng);

    let run = |plan: Option<FaultPlan>| {
        let cluster = Cluster::new(6);
        let grid = cluster.grid();
        let da = DistMatrix::scatter_block_cyclic(&cluster, &a, grid, 4, 5).unwrap();
        let db = DistMatrix::scatter_block_cyclic(&cluster, &b, grid, 3, 4).unwrap();
        if let Some(p) = plan {
            cluster.arm_faults(p);
        }
        let c = da.matmul_dist(&db).expect("a transient rank failure must be recovered");
        (c.gather_unaccounted(), cluster.disarm_faults())
    };

    let (fault_free, empty_log) = run(None);
    let before = recovery::snapshot();
    // Rank 3 drops out in SUMMA round 1: its deliveries that round are lost.
    let (recovered, log) = run(Some(FaultPlan::seeded(77).fail_rank(3, 1)));
    let after = recovery::snapshot();

    assert!(empty_log.is_empty());
    assert!(!log.is_empty(), "the rank failure must be logged");
    assert!(log.iter().all(|ev| ev.kind == FaultKind::RankFailure));
    assert!(
        recovered.approx_eq(&fault_free, 1e-10),
        "recovered SUMMA product diverged from the fault-free run"
    );
    assert!(
        after.summa_round_retries > before.summa_round_retries,
        "recovery must be recorded as SUMMA round retries"
    );
    assert!(after.faults_injected > before.faults_injected);
}

/// Every element of every site tensor, as raw bits.
fn site_bits(peps: &Peps) -> Vec<(Vec<usize>, Vec<(u64, u64)>)> {
    peps.tensors()
        .iter()
        .map(|t| {
            let data = t.data().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect();
            (t.shape().to_vec(), data)
        })
        .collect()
}

#[test]
fn faults_on_distributed_site_scatters_are_recovered_bit_for_bit() {
    // Every variant of the distributed bond update scatters its two site
    // matricizations through the checksummed `DistMatrix` scatter, so a
    // transient fault plan strikes site transfers too — and the ABFT retry
    // repairs them without changing a bit of the result or of the payload
    // accounting.
    let mut rng = StdRng::seed_from_u64(41);
    let base = Peps::random(3, 3, 2, 4, &mut rng);
    let h = &kron(&pauli_x(), &pauli_x()) + &kron(&pauli_z(), &pauli_z());
    let gate = expm_hermitian(&h, c64(0.0, -0.3)).unwrap();
    for variant in [
        DistEvolutionVariant::CtfQrSvd,
        DistEvolutionVariant::LocalGramQr,
        DistEvolutionVariant::LocalGramQrSvd,
    ] {
        let run = |plan: Option<FaultPlan>| {
            let cluster = Cluster::new(6);
            if let Some(p) = plan {
                cluster.arm_faults(p);
            }
            let mut peps = base.clone();
            let err = dist_tebd_layer(&cluster, &mut peps, &gate, 4, variant)
                .expect("transient faults must be recovered");
            (site_bits(&peps), err, cluster.stats(), cluster.disarm_faults())
        };
        let label = variant.label();
        let (clean, clean_err, clean_stats, empty_log) = run(None);
        let plan = FaultPlan::seeded(23).corrupt_prob(0.1).drop_prob(0.05);
        let (recovered, err, stats, log) = run(Some(plan));

        assert!(empty_log.is_empty());
        assert!(
            log.iter().any(|ev| matches!(ev.site, FaultSite::ScatterBlock { .. })),
            "{label}: no fault struck a site scatter"
        );
        assert!(
            recovered == clean,
            "{label}: recovered site tensors differ from the fault-free run"
        );
        assert_eq!(err.to_bits(), clean_err.to_bits(), "{label}: truncation error");
        assert!(stats.retries > 0, "{label}: detected faults were retried");
        assert_eq!(stats.bytes_communicated, clean_stats.bytes_communicated, "{label}");
        assert_eq!(stats.messages, clean_stats.messages, "{label}");
        assert_eq!(stats.rank_flops, clean_stats.rank_flops, "{label}");
        assert_eq!(stats.rank_real_macs, clean_stats.rank_real_macs, "{label}");
    }
}

/// Replace one element of the site tensor at `(1, 1)` by NaN.
fn poison(peps: &Peps) -> Peps {
    let mut poisoned = peps.clone();
    let mut t = poisoned.tensor((1, 1)).clone();
    t.data_mut()[0] = c64(f64::NAN, 0.0);
    poisoned.set_tensor((1, 1), t);
    poisoned
}

#[test]
fn the_kind_raised_at_the_bottom_is_the_kind_seen_at_the_top() {
    let mut rng = StdRng::seed_from_u64(17);
    let poisoned = poison(&Peps::random(3, 3, 2, 2, &mut rng));

    // linalg's finite guards -> tensor -> core::update, inline and on the pool.
    let gate = expm_hermitian(&kron(&pauli_z(), &pauli_z()), c64(-0.1, 0.0)).unwrap();
    let ops: Vec<GateOp<'_>> = poisoned
        .horizontal_pairs()
        .into_iter()
        .chain(poisoned.vertical_pairs())
        .map(|(a, b)| GateOp::two_site(&gate, a, b))
        .collect();
    for threads in [1, 4] {
        koala::exec::set_threads(threads);
        let err = apply_gates(&mut poisoned.clone(), &ops, UpdateMethod::qr_svd(2)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NonFinite, "{threads} threads: {err}");
    }

    // ... -> mps::zip_up -> core::contract.
    let no_phys = poison(&Peps::random_no_phys(3, 3, 2, &mut rng));
    let err = contract_no_phys(&no_phys, ContractionMethod::bmps(4), &mut rng).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::NonFinite, "{err}");

    // ... -> core::expectation.
    let h = tfi_hamiltonian(3, 3, TfiParams::paper_figure14());
    let err = expectation_normalized(&poisoned, &h, ExpectationOptions::bmps_cached(4), &mut rng)
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::NonFinite, "{err}");

    // An interconnect fault that outlasts the retry budget: cluster scatter
    // -> core::dist, a typed error where it used to be a panic.
    let cluster = Cluster::new(4);
    cluster.arm_faults(FaultPlan::seeded(3).corrupt_prob(1.0).persistent());
    let mut peps = Peps::random(2, 2, 2, 2, &mut rng);
    let err = dist_tebd_layer(&cluster, &mut peps, &gate, 2, DistEvolutionVariant::LocalGramQr)
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Fault, "{err}");
    assert_eq!(err.contexts()[0], "scatter: rank 1's block", "{err}");

    // linalg::eigh inside Lanczos -> sim::StateVector, with the frame the
    // layer above pushed. (Lanczos itself never reports `NoConvergence`: a
    // spent Krylov budget returns the best Ritz pair as an upper bound.)
    let nan_field = f64::NAN * Observable::x((0, 0));
    let err = StateVector::ground_state_energy(1, 2, &nan_field, &mut rng).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::NonFinite, "{err}");
    assert_eq!(err.contexts(), ["ground_state_energy: Lanczos"]);
}

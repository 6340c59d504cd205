//! End-to-end real-path integration test: a full TFI imaginary-time-evolution
//! sweep — Trotter gate application, every bond truncation (QR/SVD/Gram-QR),
//! renormalization, and the IBMPS energy measurement — must execute **zero**
//! complex multiply-adds. Every GEMM in the pipeline has to stay on the
//! real-only kernel, which requires the realness hint to survive every
//! factorization in between (the point of the realness-preserving QR / SVD /
//! eigh / rsvd paths in `koala-linalg`).
//!
//! The sweep runs under a scoped `WorkMeter`, so the ledger it asserts on
//! holds exactly the sweep's own work.

use koala::exec::WorkMeter;
use koala::linalg::c64;
use koala::peps::{expectation_normalized, ExpectationOptions, Peps, UpdateMethod};
use koala::sim::ite::apply_trotter_layer;
use koala::sim::{ite_peps, tfi_hamiltonian, trotter_gates, IteOptions, TfiParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Assert that `meter` billed only real work and that the evolution lowered
/// the energy per site below the product-state energy of -1.
fn assert_real_and_lowered(what: &str, meter: &WorkMeter, energy_per_site: f64) {
    let complex = meter.complex_macs();
    let real = meter.real_macs();
    assert_eq!(
        complex, 0,
        "{what}: a TFI evolution executed {complex} complex MACs — \
         some factorization or contraction dropped the realness hint"
    );
    assert!(real > 0, "{what}: expected the real kernel to have done the work");
    assert!(energy_per_site < -1.0, "{what}: ITE did not lower the energy, got {energy_per_site}");
}

#[test]
fn tfi_ite_sweep_performs_zero_complex_macs() {
    let mut rng = StdRng::seed_from_u64(0x17E);
    let h = tfi_hamiltonian(2, 2, TfiParams::paper_figure14());
    let peps = Peps::computational_zeros(2, 2);

    // The full ITE driver (QR-SVD bond updates).
    let options = IteOptions::new(0.05, 4, 2, 4);
    let meter = WorkMeter::new();
    let result = meter.scope(|| ite_peps(&peps, &h, options, &mut rng)).expect("ITE run failed");
    assert_real_and_lowered("ite_peps", &meter, result.final_energy());

    // The same four steps with every bond-update algorithm, then one
    // measurement of the evolved state.
    let gates = trotter_gates(&h, c64(-options.tau, 0.0)).expect("Trotter gates");
    for method in [UpdateMethod::qr_svd(2), UpdateMethod::direct(2)] {
        let meter = WorkMeter::new();
        let energy = meter
            .scope(|| {
                let mut state = peps.clone();
                for _ in 0..options.steps {
                    apply_trotter_layer(&mut state, &gates, method)?;
                }
                let opts = ExpectationOptions::ibmps_cached(options.contraction_bond);
                expectation_normalized(&state, &h, opts, &mut rng)
            })
            .expect("Trotter evolution failed");
        assert_real_and_lowered(
            &format!("{method:?}"),
            &meter,
            energy.re / peps.num_sites() as f64,
        );
    }
}

/// The measurement `ite_step` ends in — one `expectation_normalized` on the
/// 4x3 TFI state at saturated bonds (r = 3) with `ibmps_cached(6)` — stays on
/// the real kernel and does only the work the network asks for. At the parent
/// commit (9fc9ca2) this scope billed 280_888_653 real MACs: every ZZ term
/// kept all 54 singular directions of a rank-3 theta (merged bond 162, not
/// 9), re-merged its whole strip and closed it with a truncating zip-up. With
/// the touched sites swapped into the cached network and the strip closed
/// exactly it bills 40_102_744. The pin is a third of the parent count, so it
/// trips if any part of that work comes back (the bond bound itself is
/// pinned by `swapped_sites_never_exceed_the_schmidt_bond` in koala-peps).
#[test]
fn cached_tfi_measurement_bills_a_third_of_the_inflated_strip_work() {
    const PARENT_REAL_MACS: u64 = 280_888_653;
    let h = tfi_hamiltonian(4, 3, TfiParams { jz: -1.0, hx: -2.0 });
    let mut rng = StdRng::seed_from_u64(0x4B3);
    let options = IteOptions::new(0.05, 4, 3, 6);
    let peps = ite_peps(&Peps::computational_zeros(4, 3), &h, options, &mut rng)
        .expect("ITE set-up failed")
        .final_state;
    assert_eq!(peps.max_bond(), 3);

    let meter = WorkMeter::new();
    let energy = meter
        .scope(|| expectation_normalized(&peps, &h, ExpectationOptions::ibmps_cached(6), &mut rng))
        .expect("measurement failed");
    assert!(energy.re.is_finite() && energy.re < -12.0, "energy {energy}");
    assert_eq!(meter.complex_macs(), 0, "the TFI measurement left the real kernel");
    let real = meter.real_macs();
    assert!(
        real > 0 && real < PARENT_REAL_MACS / 3,
        "measurement billed {real} real MACs, parent {PARENT_REAL_MACS}"
    );
}

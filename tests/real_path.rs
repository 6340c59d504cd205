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
use koala::peps::Peps;
use koala::sim::hamiltonian::{tfi_hamiltonian, TfiParams};
use koala::sim::{ite_peps, IteOptions, UpdateKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn tfi_ite_sweep_performs_zero_complex_macs() {
    let mut rng = StdRng::seed_from_u64(0x17E);
    let h = tfi_hamiltonian(2, 2, TfiParams::paper_figure14());
    let peps = Peps::computational_zeros(2, 2);

    for update in [UpdateKind::QrSvd, UpdateKind::Direct, UpdateKind::GramQrSvd] {
        let mut options = IteOptions::new(0.05, 4, 2, 4);
        options.update = update;
        let meter = WorkMeter::new();
        let result =
            meter.scope(|| ite_peps(&peps, &h, options, &mut rng)).expect("ITE run failed");
        let complex = meter.complex_macs();
        let real = meter.real_macs();
        assert_eq!(
            complex, 0,
            "{update:?}: a full TFI ITE sweep executed {complex} complex MACs — \
             some factorization or contraction dropped the realness hint"
        );
        assert!(real > 0, "{update:?}: expected the real kernel to have done the work");
        // Sanity: the evolution still does its job (energy drops below the
        // product-state energy of -1 per site).
        assert!(
            result.final_energy() < -1.0,
            "{update:?}: ITE did not lower the energy, got {}",
            result.final_energy()
        );
    }
}

//! Figure 10: relative error of contracting an RQC-generated PEPS with BMPS
//! and IBMPS as the contraction bond dimension varies.
//!
//! Paper setup: 4x4 to 7x7 lattices, 8 layers of RQC evolved exactly (initial
//! bond dimension 16), amplitude of one basis state computed with BMPS/IBMPS
//! at several contraction bond dimensions and compared with the exact value.
//! Here the exact reference amplitude comes from the state-vector simulator
//! (identical up to round-off), which caps the default lattice sizes at
//! 3x3 / 4x4 so the run fits in one machine.
//!
//! The bitstrings of an amplitude batch are independent contractions run as
//! one task each (`koala_peps::amplitude_batch`), so one batch of 4
//! bitstrings on the exactly evolved 4x4 state is also timed on one executor
//! thread and on the pool's default. `--quick` exits 1 on a host with two or
//! more CPUs when the threaded batch is not the faster one.

use koala_bench::{threads_must_pay, Figure, Series};
use koala_peps::{amplitude, amplitude_batch, ContractionMethod, Peps, UpdateMethod};
use koala_sim::{random_circuit, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = koala_bench::quick();
    let sides: Vec<usize> = if quick { vec![3] } else { vec![3, 4] };
    let layers = 8;
    let entangle_every = 4; // initial bond dimension 4^2 = 16 after 8 layers
    let contraction_bonds: Vec<usize> =
        if quick { vec![2, 4, 8, 16, 32] } else { vec![2, 4, 8, 16, 32, 64, 128, 256] };

    let mut fig = Figure::new(
        "fig10",
        "Relative error of one RQC amplitude vs contraction bond dimension",
        "contraction bond dimension m",
        "relative error |amp - exact| / |exact|",
    );

    for &n in &sides {
        let mut rng = StdRng::seed_from_u64(10_000 + n as u64);
        let circuit = random_circuit(n, n, layers, entangle_every, &mut rng);

        // Exact evolution of the PEPS (no truncation) and of the state vector.
        let mut peps = Peps::computational_zeros(n, n);
        let err = circuit.apply_to_peps(&mut peps, UpdateMethod::qr_svd(1 << 20)).unwrap();
        assert!(err < 1e-8, "RQC evolution must be exact for this benchmark");
        let mut sv = StateVector::computational_zeros(n, n);
        circuit.apply_to_statevector(&mut sv);

        // Amplitude of the all-zeros basis state.
        let bits = vec![0usize; n * n];
        let exact = sv.amplitude(&bits);
        println!("n={n}: PEPS bond after RQC = {}, exact amplitude = {exact}", peps.max_bond());

        let mut s_bmps = Series::new(format!("BMPS n={n}"));
        let mut s_ibmps = Series::new(format!("IBMPS n={n}"));
        for &m in &contraction_bonds {
            let approx_b = amplitude(&peps, &bits, ContractionMethod::bmps(m), &mut rng).unwrap();
            let approx_i = amplitude(&peps, &bits, ContractionMethod::ibmps(m), &mut rng).unwrap();
            let err_b = (approx_b - exact).abs() / exact.abs();
            let err_i = (approx_i - exact).abs() / exact.abs();
            s_bmps.push(m as f64, err_b);
            s_ibmps.push(m as f64, err_i);
            println!("n={n} m={m:<4} bmps_err={err_b:.3e} ibmps_err={err_i:.3e}");
        }
        fig.add(s_bmps);
        fig.add(s_ibmps);
    }

    fig.print();

    // One batch of 4 bitstrings on the exactly evolved 4x4 state.
    let n = 4;
    let mut rng = StdRng::seed_from_u64(10_000 + n as u64);
    let circuit = random_circuit(n, n, layers, entangle_every, &mut rng);
    let mut peps = Peps::computational_zeros(n, n);
    circuit.apply_to_peps(&mut peps, UpdateMethod::qr_svd(1 << 20)).unwrap();
    let words = [0x1234u64, 0xbeef, 0x0f0f, 0x8001];
    let batch: Vec<Vec<usize>> =
        words.iter().map(|w| (0..n * n).map(|q| ((w >> q) & 1) as usize).collect()).collect();
    let timing = threads_must_pay("amplitude batch (4x4, 4 bitstrings, bmps(16))", quick, || {
        amplitude_batch(&peps, &batch, ContractionMethod::bmps(16), &mut rng).unwrap();
    });
    if !timing.pays {
        eprintln!("fig10: the threaded amplitude batch was not faster than one thread");
        std::process::exit(1);
    }
}

//! Workspace acceptance test for the task-graph execution runtime: the full
//! physics stack must be schedule-independent. A warm TFI imaginary-time-
//! evolution sweep, a measurement whose environment sweeps and terms are
//! independent tasks, two gate-list layers on a 6x6 PEPS, a bond-8 TEBD
//! layer on a 4x4 PEPS pinned to recorded bits, a distributed
//! SUMMA product and boundary contractions whose zip-up steps run as a
//! wavefront are run at 1/2/4/8 executor threads; energies, site tensors,
//! contraction values and gathered matrices must be bit-identical and the
//! MAC/communication billing exactly equal — the executor may only change
//! *when* work runs, never what it computes or what it bills.

use koala::cluster::{Cluster, DistMatrix, ProcGrid};
use koala::error::ErrorKind;
use koala::exec::WorkMeter;
use koala::linalg::{c64, expm_hermitian, matmul, Matrix};
use koala::mps::{zip_up, ZipUpMethod};
use koala::peps::contract::{row_as_mpo, row_as_mps};
use koala::peps::operators::{kron, pauli_x, pauli_z, Observable};
use koala::peps::{
    amplitude, amplitude_batch, apply_one_site, apply_two_site, apply_two_site_any,
    apply_two_site_everywhere, contract_no_phys, expectation, expectation_normalized,
    ContractionMethod, ExpectationOptions, Peps, UpdateMethod,
};
use koala::sim::ite::apply_trotter_layer;
use koala::sim::{ite_peps, tfi_hamiltonian, trotter_gates, IteOptions, TfiParams};
use koala::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, PoisonError};

/// The executor pool and billing counters are process-wide; serialize the
/// tests in this binary.
static SERIAL: Mutex<()> = Mutex::new(());

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The ITE sweep drives einsum planning, the packed GEMM, QR/SVD truncation
/// and expectation contraction — end to end, the final energy and the exact
/// counter deltas must not depend on the thread count. The 2x2 case is a long
/// sweep at small bonds; the 4x3 case (r = 3, m = 6) reaches the shapes of
/// the `ite_step` measurement: stacked swaps on interior sites, two-row
/// strips behind a cached environment, closings at both lattice edges.
#[test]
fn warm_tfi_ite_sweep_is_bit_identical_across_threads() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let cases = [
        (2, 2, TfiParams { jz: -1.0, hx: -1.2 }, IteOptions::new(0.05, 12, 2, 4)),
        (4, 3, TfiParams { jz: -1.0, hx: -2.0 }, IteOptions::new(0.05, 3, 3, 6)),
    ];
    for (nrows, ncols, params, opts) in cases {
        let h = tfi_hamiltonian(nrows, ncols, params);
        let peps = Peps::computational_zeros(nrows, ncols);

        // Warm the plan cache once so the sweep itself measures steady-state
        // execution, not first-touch planning.
        koala::exec::set_threads(1);
        let mut warm_rng = StdRng::seed_from_u64(321);
        ite_peps(&peps, &h, opts, &mut warm_rng).unwrap();

        let mut reference: Option<(u64, u64, u64)> = None;
        for &threads in &THREAD_SWEEP {
            koala::exec::set_threads(threads);
            let mut rng = StdRng::seed_from_u64(321);
            let meter = WorkMeter::new();
            let result = meter.scope(|| ite_peps(&peps, &h, opts, &mut rng)).unwrap();
            let (df, dr) = (meter.complex_macs(), meter.real_macs());
            let bits = result.final_energy().to_bits();
            match reference {
                None => reference = Some((bits, df, dr)),
                Some((ebits, ef, er)) => {
                    assert_eq!(
                        bits,
                        ebits,
                        "{nrows}x{ncols} ITE final energy differs at {threads} threads: {} vs {}",
                        f64::from_bits(bits),
                        f64::from_bits(ebits)
                    );
                    assert_eq!(df, ef, "complex-MAC billing differs at {threads} threads");
                    assert_eq!(dr, er, "real-MAC billing differs at {threads} threads");
                }
            }
        }
    }
    koala::exec::set_threads(1);
}

/// `[value, quotient]` bits of the measurements below at one thread, per
/// state, cached then uncached. Without environments every strip is the
/// whole lattice, so the second entry pins strips absorbed through the
/// boundary builder.
const MEASUREMENT_BITS: [[[u64; 4]; 2]; 2] = [
    [
        [13953947231370669054, 13715607191967069028, 13814707326238104343, 13583411743589371208],
        [13956200365402875907, 4507357660212279948, 13816834337777362224, 4337626402811047616],
    ],
    [
        [14011213043390776827, 4748732191717633010, 13815333461776948387, 4553315786802895157],
        [14001185779216702710, 13975008373738759294, 13805462088599595851, 13779330239587722092],
    ],
];

/// The environment sweeps and the terms of a measurement run as independent
/// tasks, each on a private stream seeded from the caller's before anything
/// runs: the value must not depend on the thread count, and two calls fed
/// clones of one rng must agree. Two r = 3 states under IBMPS at m = 6,
/// where every zip-up truncates. On the 4x3 one every step's theta is at
/// most 9 wide, so every step goes exact (its seed is still drawn); on the
/// 4x4 one the interior steps (54 rows and more) draw sketches.
#[test]
fn measurement_is_bit_identical_across_threads_and_rng_clones() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = StdRng::seed_from_u64(555);
    let mut obs = 0.7 * Observable::x((2, 1))
        + Observable::zz((1, 0), (1, 1))
        + Observable::zz((2, 2), (3, 2));
    // A distant pair of operator Schmidt rank 2: two strips in one task.
    let xx_zz = &kron(&pauli_x(), &pauli_x()) + &kron(&pauli_z(), &pauli_z());
    obs.add_two_site((0, 2), (2, 0), xx_zz);

    for (state, ncols) in [3, 4].into_iter().enumerate() {
        let peps = Peps::random(4, ncols, 2, 3, &mut rng);
        for use_cache in [true, false] {
            let options = ExpectationOptions { method: ContractionMethod::ibmps(6), use_cache };
            let measure = || {
                let (mut a, mut b) = (rng.clone(), rng.clone());
                let value = expectation(&peps, &obs, options, &mut a).unwrap();
                let quotient = expectation_normalized(&peps, &obs, options, &mut b).unwrap();
                [value.re, value.im, quotient.re, quotient.im].map(f64::to_bits)
            };
            let at = format!("4x{ncols} cache={use_cache}");
            koala::exec::set_threads(1);
            let reference = measure();
            assert_eq!(reference, MEASUREMENT_BITS[state][usize::from(!use_cache)], "{at}");
            for threads in [2, 4] {
                koala::exec::set_threads(threads);
                assert_eq!(measure(), reference, "{at}: differs at {threads} threads");
            }
        }
    }
    koala::exec::set_threads(1);
}

/// What a gate-list run leaves behind: an FNV-1a hash of every site tensor's
/// `to_bits`, the returned error's bits, and the scoped complex/real MACs.
type LayerRecord = (Vec<u64>, u64, u64, u64);

fn layer_record(run: impl FnOnce(&mut Peps) -> f64, start: &Peps) -> LayerRecord {
    let mut peps = start.clone();
    let meter = WorkMeter::new();
    let err = meter.scope(|| run(&mut peps));
    let hashes = peps
        .tensors()
        .iter()
        .map(|t| {
            t.data()
                .iter()
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                .fold(0xcbf2_9ce4_8422_2325u64, |h, bits| {
                    (h ^ bits).wrapping_mul(0x0000_0100_0000_01b3)
                })
        })
        .collect();
    (hashes, err.to_bits(), meter.complex_macs(), meter.real_macs())
}

/// A gate list is run as a site-dependency task graph; what it computes and
/// bills must be what folding the pairwise entry points over the list at one
/// thread computes and bills. Two lists on a 6x6 complex PEPS at r = 4: the
/// TEBD layer of `apply_two_site_everywhere`, and a Trotter layer whose
/// one-site field terms sit between the couplings and which has one
/// SWAP-routed non-neighbour coupling.
#[test]
fn gate_list_layers_match_the_pairwise_fold_at_any_thread_count() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = StdRng::seed_from_u64(987);
    let start = Peps::random(6, 6, 2, 4, &mut rng);
    let method = UpdateMethod::qr_svd(4);

    let xx_zz = &kron(&pauli_x(), &pauli_x()) + &kron(&pauli_z(), &pauli_z());
    let tebd_gate = expm_hermitian(&xx_zz, c64(-0.05, 0.0)).unwrap();

    let mut h = Observable::zero();
    let zz = kron(&pauli_z(), &pauli_z()).scale(c64(-1.0, 0.0));
    for r in 0..6 {
        for c in 0..6 {
            if c + 1 < 6 {
                h.add_two_site((r, c), (r, c + 1), zz.clone());
            }
            h.add_one_site((r, c), pauli_x().scale(c64(-2.0, 0.0)));
            if r + 1 < 6 {
                h.add_two_site((r + 1, c), (r, c), zz.clone());
            }
            if (r, c) == (2, 3) {
                h.add_two_site((4, 1), (2, 3), zz.clone());
            }
        }
    }
    let trotter = trotter_gates(&h, c64(0.0, -0.05)).unwrap();

    koala::exec::set_threads(1);
    let tebd_fold = layer_record(
        |peps| {
            let pairs = peps.horizontal_pairs().into_iter().chain(peps.vertical_pairs());
            pairs
                .fold(0.0, |err_sq, (a, b)| {
                    let e = apply_two_site(peps, &tebd_gate, a, b, method).unwrap();
                    err_sq + e * e
                })
                .sqrt()
        },
        &start,
    );
    let trotter_fold = layer_record(
        |peps| {
            let mut err_sq = 0.0;
            for gate in &trotter {
                match gate.sites.as_slice() {
                    [site] => apply_one_site(peps, &gate.matrix, *site).unwrap(),
                    [a, b] => {
                        let e = apply_two_site_any(peps, &gate.matrix, *a, *b, method).unwrap();
                        err_sq += e * e;
                    }
                    _ => unreachable!(),
                }
            }
            err_sq.sqrt()
        },
        &start,
    );
    assert_ne!(tebd_fold.0, trotter_fold.0);

    for &threads in &THREAD_SWEEP {
        koala::exec::set_threads(threads);
        let tebd = layer_record(
            |peps| apply_two_site_everywhere(peps, &tebd_gate, method).unwrap(),
            &start,
        );
        assert_eq!(tebd, tebd_fold, "TEBD layer differs from the fold at {threads} threads");
        let layer =
            layer_record(|peps| apply_trotter_layer(peps, &trotter, method).unwrap(), &start);
        assert_eq!(layer, trotter_fold, "Trotter layer differs from the fold at {threads} threads");
    }
    koala::exec::set_threads(1);
}

/// FNV-1a of a gate-list run's site-tensor hashes and truncation error.
fn record_digest((hashes, err, _, _): &LayerRecord) -> u64 {
    hashes
        .iter()
        .chain([err])
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &bits| (h ^ bits).wrapping_mul(0x0000_0100_0000_01b3))
}

/// [`record_digest`] of one `apply_two_site_everywhere` layer on a 4x4,
/// r = 8 complex PEPS: each interior bond update QRs a 512x16 site, the
/// power-of-two column length the factorization buffer pads. Re-recorded
/// when the `R`-factor theta splits kept to 8 (32x32 at interior bonds)
/// moved to the leading-triplets SVD, and when that route's preconditioner
/// became a Householder QR.
const TEBD_R8_BITS: u64 = 0x8596_4941_e6d6_a4ea;

/// The 4x4, r = 8 TEBD layer gives the recorded bits at every thread count.
#[test]
fn bond_dimension_8_tebd_layer_reproduces_the_recorded_bits() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = StdRng::seed_from_u64(988);
    let start = Peps::random(4, 4, 2, 8, &mut rng);
    let xx_zz = &kron(&pauli_x(), &pauli_x()) + &kron(&pauli_z(), &pauli_z());
    let gate = expm_hermitian(&xx_zz, c64(-0.05, 0.0)).unwrap();
    let method = UpdateMethod::qr_svd(8);
    for &threads in &THREAD_SWEEP {
        koala::exec::set_threads(threads);
        let layer =
            layer_record(|peps| apply_two_site_everywhere(peps, &gate, method).unwrap(), &start);
        assert_eq!(record_digest(&layer), TEBD_R8_BITS, "at {threads} threads");
    }
    koala::exec::set_threads(1);
}

/// Distributed SUMMA across the sweep: gathered product bit-identical, MAC
/// billing exactly `m * n * k`, and the communication ledger (bytes,
/// messages, per-round costs) equal at every thread count.
#[test]
fn summa_matmul_is_bit_identical_across_threads() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let grid = ProcGrid::new(2, 2);
    let mut rng = StdRng::seed_from_u64(654);
    let (m, k, n) = (23usize, 110, 19);
    let a = Matrix::random(m, k, &mut rng);
    let b = Matrix::random(k, n, &mut rng);
    let local = matmul(&a, &b);

    let mut reference: Option<(Matrix, koala::cluster::CommStats)> = None;
    for &threads in &THREAD_SWEEP {
        koala::exec::set_threads(threads);
        let cluster = Cluster::new(grid.nranks());
        let da = DistMatrix::scatter_block_cyclic(&cluster, &a, grid, 3, 4).unwrap();
        let db = DistMatrix::scatter_block_cyclic(&cluster, &b, grid, 5, 3).unwrap();
        cluster.reset_stats();
        let c = da.matmul_dist(&db).unwrap().gather_unaccounted();
        let stats = cluster.stats();
        assert_eq!(
            stats.total_flops() + stats.total_real_macs(),
            (m * n * k) as u64,
            "MAC billing at {threads} threads must be exactly m*n*k"
        );
        assert!(c.max_diff(&local) < 1e-12 * k as f64, "SUMMA diverges from local GEMM");
        match &reference {
            None => reference = Some((c, stats)),
            Some((expected, estats)) => {
                for (i, (x, y)) in c.data().iter().zip(expected.data().iter()).enumerate() {
                    assert!(
                        x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                        "element {i} differs at {threads} threads"
                    );
                }
                assert_eq!(&stats, estats, "CommStats ledger differs at {threads} threads");
            }
        }
    }
    koala::exec::set_threads(1);
}

/// `(re, im)` bits of the `bmps(16)` amplitudes of [`rqc_batch`], as the
/// serial per-bitstring loop computes them. Re-recorded when QR and SVD
/// moved to 8-lane vector kernels (a new summation order): every component
/// moved by fewer than 100 ulp; when the zip-up steps kept to 16 below
/// theta's rank moved to the leading-triplets SVD: by fewer than 350 ulp;
/// and when that route's preconditioner became a Householder QR: by fewer
/// than 450 ulp.
const RQC_BMPS_BITS: [(u64, u64); 4] = [
    (4559406258035377821, 4562686172623720513),
    (13777060212463882189, 4554734268465652013),
    (13799169485181276032, 13799209127732629606),
    (4562562635111070529, 4556833907258582131),
];

/// A frozen 4x4 random circuit (8 layers, iSWAP every 4) and 4 bitstrings.
fn rqc_batch() -> (koala::circuit::Circuit, Vec<Vec<usize>>) {
    let mut generator = StdRng::seed_from_u64(3);
    let lattice = koala::sim::random_circuit(4, 4, 8, 4, &mut generator);
    let circuit = koala::circuit::Circuit::from_lattice_circuit(&lattice, 4, 4).unwrap();
    let words = [0x1234u64, 0xbeef, 0x0f0f, 0x8001];
    let bits = words.iter().map(|w| (0..16).map(|q| ((w >> q) & 1) as usize).collect()).collect();
    (circuit, bits)
}

/// The bitstrings of an amplitude batch are contracted as independent tasks,
/// each on a private stream seeded from the caller's before anything runs:
/// the amplitudes must not depend on the thread count, and the `bmps` ones
/// (which draw no randomness) must equal the serial loop's bit for bit.
#[test]
fn rqc_amplitude_batch_is_bit_identical_across_threads() {
    use koala::circuit::{amplitudes, Backend, BackendChoice};
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (circuit, queries) = rqc_batch();
    for method in [ContractionMethod::bmps(16), ContractionMethod::ibmps(16)] {
        let choice = BackendChoice::Fixed(Backend::Peps { evolution_bond: 1 << 16, method });
        let run = || {
            let mut rng = StdRng::seed_from_u64(77);
            let batch = amplitudes(&circuit, &queries, choice, &mut rng).unwrap();
            batch.amplitudes.iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect::<Vec<_>>()
        };
        koala::exec::set_threads(1);
        let reference = run();
        if matches!(method, ContractionMethod::Bmps { .. }) {
            assert_eq!(reference, RQC_BMPS_BITS, "bmps amplitudes differ from the serial loop");
        }
        for threads in [2, 4] {
            koala::exec::set_threads(threads);
            assert_eq!(run(), reference, "{method:?}: amplitudes differ at {threads} threads");
        }
    }
    koala::exec::set_threads(1);
}

fn value_bits(z: koala::linalg::C64) -> (u64, u64) {
    (z.re.to_bits(), z.im.to_bits())
}

/// The serial reference of one boundary contraction: `row_as_mps`, one
/// `zip_up` per row on the caller's stream, `contract_to_scalar`.
fn row_by_row(peps: &Peps, method: ContractionMethod, seed: u64) -> (u64, u64) {
    let (max_bond, zip) = match method {
        ContractionMethod::Bmps { max_bond } => (max_bond, ZipUpMethod::ExactSvd),
        ContractionMethod::Ibmps { max_bond, n_iter, oversample } => {
            (max_bond, ZipUpMethod::ImplicitRandSvd { n_iter, oversample })
        }
        ContractionMethod::Exact => unreachable!("no zip-up steps"),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut boundary = row_as_mps(peps, 0).unwrap();
    for row in 1..peps.nrows() {
        let mpo = row_as_mpo(peps, row).unwrap();
        boundary = zip_up(&boundary, &mpo, max_bond, zip, &mut rng).unwrap();
    }
    value_bits(boundary.contract_to_scalar().unwrap())
}

/// `peps` with every site replaced by a random tensor of the same shape
/// carrying the realness hint.
fn real_hinted(peps: &Peps, rng: &mut StdRng) -> Peps {
    let sites = peps.tensors().iter().map(|t| Tensor::random_real(t.shape(), rng)).collect();
    Peps::new(peps.nrows(), peps.ncols(), sites).unwrap()
}

/// One boundary contraction runs its zip-up steps as a task graph (the
/// wavefront of `koala_peps::contract`). At 1, 2 and 4 threads,
/// `contract_no_phys`, `amplitude` and `amplitude_batch` (whose per-
/// bitstring tasks nest the graph) must equal the serial row-by-row
/// sequence bit for bit: BMPS and IBMPS, complex and real-hinted networks,
/// on the lattice edges 1xn, nx1 and 2x2 and on truncating 4x4 and 3x5
/// lattices.
#[test]
fn boundary_wavefront_is_the_row_by_row_sequence_at_any_thread_count() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = StdRng::seed_from_u64(4242);
    let methods = [ContractionMethod::bmps(4), ContractionMethod::ibmps(4)];
    let mut networks = Vec::new();
    for (nrows, ncols) in [(1, 4), (4, 1), (2, 2), (4, 4), (3, 5)] {
        let no_phys = Peps::random_no_phys(nrows, ncols, 3, &mut rng);
        let real = real_hinted(&no_phys, &mut rng);
        let phys = Peps::random(nrows, ncols, 2, 3, &mut rng);
        let real_phys = real_hinted(&phys, &mut rng);
        networks.push((no_phys, phys));
        networks.push((real, real_phys));
    }
    for (no_phys, phys) in &networks {
        let n = phys.num_sites();
        let batch: Vec<Vec<usize>> =
            (0..3usize).map(|k| (0..n).map(|q| (k * 5 + q * 3) % 7 % 2).collect()).collect();
        for method in methods {
            let want = row_by_row(no_phys, method, 11);
            let want_amp = row_by_row(&phys.project_onto_basis(&batch[0]).unwrap(), method, 12);
            let mut seeds = StdRng::seed_from_u64(13);
            let want_batch: Vec<(u64, u64)> = batch
                .iter()
                .map(|bits| {
                    let projected = phys.project_onto_basis(bits).unwrap();
                    row_by_row(&projected, method, seeds.next_u64())
                })
                .collect();
            for threads in [1, 2, 4] {
                koala::exec::set_threads(threads);
                let shape = (no_phys.nrows(), no_phys.ncols(), no_phys.tensor((0, 0)).is_real());
                let at = format!("{shape:?} {method:?} at {threads} threads");
                let got = contract_no_phys(no_phys, method, &mut StdRng::seed_from_u64(11));
                assert_eq!(value_bits(got.unwrap()), want, "contract_no_phys {at}");
                let got = amplitude(phys, &batch[0], method, &mut StdRng::seed_from_u64(12));
                assert_eq!(value_bits(got.unwrap()), want_amp, "amplitude {at}");
                let got = amplitude_batch(phys, &batch, method, &mut StdRng::seed_from_u64(13));
                let got: Vec<(u64, u64)> = got.unwrap().into_iter().map(value_bits).collect();
                assert_eq!(got, want_batch, "amplitude_batch {at}");
            }
        }
    }
    koala::exec::set_threads(1);
}

/// A contraction that fails inside its graph, on a NaN site in a middle
/// row, reports the same error kind at one and two threads. Afterwards the
/// global pool runs a fresh graph to completion, and no thread is left
/// billing the failed run's meter: its scope did not leak.
#[test]
fn a_failed_boundary_contraction_leaves_the_pool_and_meters_clean() {
    use koala::exec::{add_complex_macs, TaskGraph, TaskKind};
    use std::sync::atomic::{AtomicUsize, Ordering};
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = StdRng::seed_from_u64(909);
    let mut peps = Peps::random_no_phys(5, 4, 3, &mut rng);
    let mut poisoned = peps.tensor((2, 1)).clone();
    poisoned.data_mut()[0] = c64(f64::NAN, 0.0);
    peps.set_tensor((2, 1), poisoned);
    let a = Matrix::random(32, 32, &mut rng);

    for method in [ContractionMethod::bmps(4), ContractionMethod::ibmps(4)] {
        let mut kinds = Vec::new();
        for threads in [1, 2] {
            koala::exec::set_threads(threads);
            let failed = WorkMeter::new();
            let err = failed
                .scope(|| contract_no_phys(&peps, method, &mut StdRng::seed_from_u64(1)))
                .unwrap_err();
            kinds.push(err.kind());
            let billed = failed.ledger();
            assert!(billed.complex_macs > 0, "the failed run did work before failing");

            let ran = AtomicUsize::new(0);
            let mut graph = TaskGraph::new();
            for _ in 0..8 {
                graph.add(TaskKind::Contract, &[], || {
                    assert_eq!(matmul(&a, &a).nrows(), 32);
                    ran.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                });
            }
            graph.run().unwrap();
            add_complex_macs(1);
            assert_eq!(ran.load(Ordering::Relaxed), 8, "{method:?} at {threads} threads");
            assert_eq!(failed.ledger(), billed, "{method:?}: a scope leaked at {threads} threads");
        }
        assert_eq!(kinds, [ErrorKind::NonFinite; 2], "{method:?}");
    }
    koala::exec::set_threads(1);
}

//! Criterion micro-benchmarks of the kernels behind the paper's figures.
//!
//! These complement the `src/bin/fig*.rs` figure-reproduction binaries: the
//! binaries sweep the full parameter ranges and print the series the paper
//! plots, while these benches give statistically solid timings of the
//! individual kernels at one representative (small) size so `cargo bench`
//! completes quickly on a laptop.

use criterion::{criterion_group, criterion_main, Criterion};
use koala_cluster::Cluster;
use koala_linalg::gemm::{gemm, matmul, matmul_seed, Op};
use koala_linalg::{c64, expm_hermitian, Matrix};
use koala_mps::ZipUpMethod;
use koala_peps::expectation::{expectation, ExpectationOptions};
use koala_peps::operators::{kron, pauli_x, pauli_z, Observable};
use koala_peps::two_layer::norm_sqr_two_layer;
use koala_peps::{
    apply_two_site, contract_no_phys, dist_two_site_update, ContractionMethod,
    DistEvolutionVariant, Peps, UpdateMethod,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tebd_gate() -> koala_linalg::Matrix {
    let h = &kron(&pauli_x(), &pauli_x()) + &kron(&pauli_z(), &pauli_z());
    expm_hermitian(&h, c64(-0.05, 0.0)).unwrap()
}

/// The GEMM hot kernel: packed kernel vs the retained seed kernel, plain and
/// with fused transposition. The `bench_gemm` binary sweeps the full shape
/// grid and emits `BENCH_gemm.json`; this group just keeps the kernel under
/// `cargo bench` alongside the figure kernels.
fn bench_gemm_kernel(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let a = Matrix::random(256, 256, &mut rng);
    let b = Matrix::random(256, 256, &mut rng);
    let mut group = c.benchmark_group("gemm_256");
    group.sample_size(10);
    group.bench_function("packed", |bch| bch.iter(|| matmul(&a, &b)));
    group.bench_function("packed_adj_a", |bch| bch.iter(|| gemm(Op::Adjoint, Op::None, &a, &b)));
    group.bench_function("seed_baseline", |bch| bch.iter(|| matmul_seed(&a, &b)));
    group.finish();
}

/// Figure 7 kernels: two-site operator application variants.
fn bench_evolution(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let peps = Peps::random(4, 4, 2, 4, &mut rng);
    let gate = tebd_gate();
    let mut group = c.benchmark_group("fig7_evolution_update");
    group.sample_size(10);
    group.bench_function("simple_update_r4", |b| {
        b.iter(|| {
            let mut p = peps.clone();
            apply_two_site(&mut p, &gate, (1, 1), (1, 2), UpdateMethod::direct(4)).unwrap()
        })
    });
    group.bench_function("qr_svd_update_r4", |b| {
        b.iter(|| {
            let mut p = peps.clone();
            apply_two_site(&mut p, &gate, (1, 1), (1, 2), UpdateMethod::qr_svd(4)).unwrap()
        })
    });
    group.bench_function("gram_qr_svd_update_r4", |b| {
        b.iter(|| {
            let mut p = peps.clone();
            apply_two_site(&mut p, &gate, (1, 1), (1, 2), UpdateMethod::gram_qr_svd(4)).unwrap()
        })
    });
    group.bench_function("dist_local_gram_qr_svd_r4_8ranks", |b| {
        b.iter(|| {
            let cluster = Cluster::new(8);
            let mut p = peps.clone();
            dist_two_site_update(
                &cluster,
                &mut p,
                &gate,
                (1, 1),
                (1, 2),
                4,
                DistEvolutionVariant::LocalGramQrSvd,
            )
            .unwrap()
        })
    });
    group.bench_function("dist_ctf_qr_svd_r4_8ranks", |b| {
        b.iter(|| {
            let cluster = Cluster::new(8);
            let mut p = peps.clone();
            dist_two_site_update(
                &cluster,
                &mut p,
                &gate,
                (1, 1),
                (1, 2),
                4,
                DistEvolutionVariant::CtfQrSvd,
            )
            .unwrap()
        })
    });
    group.finish();
}

/// Figure 8 kernels: one-layer and two-layer contraction methods.
fn bench_contraction(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let no_phys = Peps::random_no_phys(5, 5, 3, &mut rng);
    let with_phys = Peps::random(4, 4, 2, 2, &mut rng);
    let mut group = c.benchmark_group("fig8_contraction");
    group.sample_size(10);
    group.bench_function("bmps_5x5_r3_m6", |b| {
        let mut rng = StdRng::seed_from_u64(20);
        b.iter(|| contract_no_phys(&no_phys, ContractionMethod::bmps(6), &mut rng).unwrap())
    });
    group.bench_function("ibmps_5x5_r3_m6", |b| {
        let mut rng = StdRng::seed_from_u64(21);
        b.iter(|| contract_no_phys(&no_phys, ContractionMethod::ibmps(6), &mut rng).unwrap())
    });
    group.bench_function("two_layer_ibmps_norm_4x4_r2_m4", |b| {
        let mut rng = StdRng::seed_from_u64(22);
        b.iter(|| {
            norm_sqr_two_layer(&with_phys, 4, ZipUpMethod::implicit_default(), &mut rng).unwrap()
        })
    });
    group.finish();
}

/// Figure 9 kernel: expectation value with and without caching.
fn bench_expectation_cache(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let peps = Peps::random(3, 3, 2, 2, &mut rng);
    let mut obs = Observable::zero();
    for r in 0..3 {
        for col in 0..3 {
            obs.add_one_site((r, col), pauli_x());
        }
    }
    let zz = kron(&pauli_z(), &pauli_z());
    for (a, b) in koala_sim::hamiltonian::nearest_neighbor_pairs(3, 3) {
        obs.add_two_site(a, b, zz.clone());
    }
    let mut group = c.benchmark_group("fig9_expectation");
    group.sample_size(10);
    group.bench_function("cached_3x3_r2", |b| {
        let mut rng = StdRng::seed_from_u64(30);
        b.iter(|| {
            expectation(
                &peps,
                &obs,
                ExpectationOptions { method: ContractionMethod::ibmps(4), use_cache: true },
                &mut rng,
            )
            .unwrap()
        })
    });
    group.bench_function("uncached_3x3_r2", |b| {
        let mut rng = StdRng::seed_from_u64(31);
        b.iter(|| {
            expectation(
                &peps,
                &obs,
                ExpectationOptions { method: ContractionMethod::ibmps(4), use_cache: false },
                &mut rng,
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm_kernel,
    bench_evolution,
    bench_contraction,
    bench_expectation_cache
);
criterion_main!(benches);

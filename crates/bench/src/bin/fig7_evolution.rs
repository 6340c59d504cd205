//! Figure 7: running time of one layer of TEBD operators versus bond
//! dimension, comparing the local (threaded) backend against the simulated
//! distributed backend and its three QR-SVD variants.
//!
//! Paper setup: (a) 8x8 PEPS on one node, NumPy vs CTF; (b) 15x15 PEPS on
//! 16 nodes, three CTF variants. Scaled-down defaults: (a) 4x4 (quick) / 6x6
//! lattice; (b) the same lattice on a 16-rank virtual cluster, reporting both
//! wall-clock and modelled parallel time.
//!
//! The local layer is a gate list whose bond updates on disjoint sites run
//! concurrently (`koala_peps::apply_gates`), so (a) is recorded twice: on one
//! executor thread and on the pool's default. `--quick` exits 1 on a host
//! with two or more CPUs when the threaded layer at the largest bond is not
//! the faster one.

use koala_bench::{calibrated_cost_model, time_it, BenchArgs, Figure, Series};
use koala_cluster::Cluster;
use koala_linalg::{c64, expm_hermitian};
use koala_peps::operators::{kron, pauli_x, pauli_z};
use koala_peps::{
    apply_two_site_everywhere, dist_tebd_layer, DistEvolutionVariant, Peps, UpdateMethod,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tebd_gate() -> koala_linalg::Matrix {
    let h = &kron(&pauli_x(), &pauli_x()) + &kron(&pauli_z(), &pauli_z());
    expm_hermitian(&h, c64(-0.05, 0.0)).unwrap()
}

fn main() {
    let args = BenchArgs::parse();
    let (side, bonds): (usize, Vec<usize>) =
        if args.quick { (4, vec![2, 3, 4]) } else { (6, vec![2, 3, 4, 6, 8]) };
    let nranks = 16;
    let model = calibrated_cost_model();
    let gate = tebd_gate();

    let mut fig = Figure::new(
        "fig7",
        &format!(
            "One TEBD layer on a {side}x{side} PEPS ({nranks}-rank virtual cluster for ctf-*)"
        ),
        "bond dimension r",
        "seconds (wall clock; ctf-* also reports modelled parallel time)",
    );

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pool_threads = koala_exec::default_threads();
    println!("host_cpus={host_cpus} pool_threads={pool_threads}");
    let mut local_serial = Series::new("local-qr-svd (1 executor thread, wall clock)");
    let mut local =
        Series::new(format!("local-qr-svd ({pool_threads} executor threads, wall clock)"));
    // Whether the pool won at the largest bond measured (the CI smoke gate).
    let mut threads_pay = false;
    let mut variants: Vec<(DistEvolutionVariant, Series, Series)> = vec![
        DistEvolutionVariant::CtfQrSvd,
        DistEvolutionVariant::LocalGramQr,
        DistEvolutionVariant::LocalGramQrSvd,
    ]
    .into_iter()
    .map(|v| {
        (
            v,
            Series::new(format!("{} (wall clock)", v.label())),
            Series::new(format!("{} (modelled parallel time)", v.label())),
        )
    })
    .collect();

    for &r in &bonds {
        let mut rng = StdRng::seed_from_u64(7_000 + r as u64);
        let base = Peps::random(side, side, 2, r, &mut rng);

        // Best of five warm layers per thread count: the first layer pays the
        // plan-cache misses of this bond dimension for both.
        let layer_secs = |threads: usize| {
            koala_exec::set_threads(threads);
            (0..6)
                .map(|_| {
                    let mut p = base.clone();
                    let method = UpdateMethod::qr_svd(r);
                    time_it(|| apply_two_site_everywhere(&mut p, &gate, method).unwrap()).1
                })
                .skip(1)
                .fold(f64::INFINITY, f64::min)
        };
        let secs_serial = layer_secs(1);
        let secs = layer_secs(pool_threads);
        local_serial.push(r as f64, secs_serial);
        local.push(r as f64, secs);
        threads_pay = secs < secs_serial;
        println!(
            "local  r={r:<3} wall={secs:.4}s at {pool_threads} threads, {secs_serial:.4}s at 1 \
             (speed-up {:.2}x)",
            secs_serial / secs.max(1e-12)
        );

        for (variant, wall_series, model_series) in variants.iter_mut() {
            let cluster = Cluster::new(nranks);
            let mut p = base.clone();
            let (_, secs) =
                time_it(|| dist_tebd_layer(&cluster, &mut p, &gate, r, *variant).unwrap());
            let stats = cluster.stats();
            let modelled = model.modelled_time(&stats);
            wall_series.push(r as f64, secs);
            model_series.push(r as f64, modelled);
            println!(
                "{:<24} r={r:<3} wall={secs:.3}s modelled={modelled:.4}s  [{stats}]",
                variant.label()
            );
        }
    }

    fig.add(local_serial);
    fig.add(local);
    for (_, wall, modelled) in variants {
        fig.add(wall);
        fig.add(modelled);
    }
    fig.print();
    fig.maybe_write_json(&args);
    if args.quick && host_cpus >= 2 && pool_threads >= 2 && !threads_pay {
        eprintln!("fig7: the threaded layer at the largest bond was not faster than one thread");
        std::process::exit(1);
    }
}

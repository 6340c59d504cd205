//! Figure 7: running time of one layer of TEBD operators versus bond
//! dimension, comparing the local (threaded) backend against the simulated
//! distributed backend and its QR-SVD variants.
//!
//! Paper setup: (a) 8x8 PEPS on one node, NumPy vs CTF; (b) 15x15 PEPS on
//! 16 nodes, three CTF variants. Scaled-down defaults: (a) 4x4 (quick) / 6x6
//! lattice; (b) the same lattice on a 16-rank virtual cluster, reporting both
//! wall-clock and modelled parallel time. Of (b), ctf-local-gram-qr is left
//! out: it ran a distributed einsumsvd, which this library does not have.
//!
//! The local layer is a gate list whose bond updates on disjoint sites run
//! concurrently (`koala_peps::apply_gates`), so (a) is recorded twice: on one
//! executor thread and on the pool's default. `--quick` exits 1 on a host
//! with two or more CPUs when the threaded layer at the largest bond is not
//! the faster one.

use koala_bench::{calibrated_cost_model, tebd_gate, threads_must_pay, time_it, Figure, Series};
use koala_cluster::Cluster;
use koala_peps::{
    apply_two_site_everywhere, dist_tebd_layer, DistEvolutionVariant, Peps, UpdateMethod,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = koala_bench::quick();
    let (side, bonds): (usize, Vec<usize>) =
        if quick { (4, vec![2, 3, 4]) } else { (6, vec![2, 3, 4, 6, 8]) };
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

    let pool_threads = koala_exec::default_threads();
    let mut local_serial = Series::new("local-qr-svd (1 executor thread, wall clock)");
    let mut local =
        Series::new(format!("local-qr-svd ({pool_threads} executor threads, wall clock)"));
    // The threads-must-pay verdict at the largest bond measured (the CI gate).
    let mut threads_pay = true;
    let mut variants =
        [DistEvolutionVariant::CtfQrSvd, DistEvolutionVariant::LocalGramQrSvd].map(|v| {
            (
                v,
                Series::new(format!("{} (wall clock)", v.label())),
                Series::new(format!("{} (modelled parallel time)", v.label())),
            )
        });

    for &r in &bonds {
        let mut rng = StdRng::seed_from_u64(7_000 + r as u64);
        let base = Peps::random(side, side, 2, r, &mut rng);

        let method = UpdateMethod::qr_svd(r);
        let timing = threads_must_pay(&format!("local layer r={r}"), quick, || {
            let mut p = base.clone();
            apply_two_site_everywhere(&mut p, &gate, method).unwrap();
        });
        local_serial.push(r as f64, timing.serial_s);
        local.push(r as f64, timing.threaded_s);
        threads_pay = timing.pays;

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
    if !threads_pay {
        eprintln!("fig7: the threaded layer at the largest bond was not faster than one thread");
        std::process::exit(1);
    }
}

//! Figure 8 (and the §VI-B "highest achievable bond dimension" study):
//! running time of fully contracting a PEPS as the bond dimension grows,
//! comparing the Exact algorithm, BMPS, IBMPS, and two-layer IBMPS.
//!
//! Paper setup: 8x8 PEPS without physical indices on one node (a) and a 15x15
//! PEPS on 16 nodes (b). Scaled-down defaults: 5x5 (quick) / 6x6 lattice for
//! the one-layer methods, and a 4x4 PEPS with physical indices for the
//! two-layer inner-product methods. The distributed comparison reports the
//! modelled parallel time of the cluster-backed contraction.
//!
//! One boundary contraction runs its zip-up steps as a task graph (the
//! wavefront of `koala_peps::contract`), so a BMPS contraction at the
//! `contract_bmps` shape (6x6, r = m = 7) is also timed on one executor
//! thread and on the pool's default. `--quick` exits 1 on a host with two or
//! more CPUs when the threaded contraction is not the faster one.

use koala_bench::{calibrated_cost_model, time_it, BenchArgs, Figure, Series};
use koala_cluster::Cluster;
use koala_mps::ZipUpMethod;
use koala_peps::two_layer::norm_sqr_two_layer;
use koala_peps::{contract_no_phys, dist_contract_no_phys, norm_sqr, ContractionMethod, Peps};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = BenchArgs::parse();
    let (side, bonds, exact_max): (usize, Vec<usize>, usize) =
        if args.quick { (5, vec![2, 3, 4], 3) } else { (6, vec![2, 3, 4, 6, 8, 12], 4) };

    let mut fig = Figure::new(
        "fig8",
        &format!("Full contraction of a {side}x{side} PEPS (no physical indices), m = r"),
        "bond dimension r",
        "seconds",
    );
    let mut s_exact = Series::new("Exact (local)");
    let mut s_bmps = Series::new("BMPS (local)");
    let mut s_ibmps = Series::new("IBMPS (local)");
    let mut s_bmps_ctf = Series::new("BMPS (ctf, modelled parallel time, 16 ranks)");
    let mut s_ibmps_ctf = Series::new("IBMPS (ctf, modelled parallel time, 16 ranks)");
    let model = calibrated_cost_model();

    for &r in &bonds {
        let mut rng = StdRng::seed_from_u64(8_000 + r as u64);
        let peps = Peps::random_no_phys(side, side, r, &mut rng);

        if r <= exact_max {
            let (_, secs) =
                time_it(|| contract_no_phys(&peps, ContractionMethod::Exact, &mut rng).unwrap());
            s_exact.push(r as f64, secs);
            println!("exact  r={r:<3} wall={secs:.3}s");
        }
        let (_, secs) =
            time_it(|| contract_no_phys(&peps, ContractionMethod::bmps(r), &mut rng).unwrap());
        s_bmps.push(r as f64, secs);
        println!("bmps   r={r:<3} wall={secs:.3}s");
        let (_, secs) =
            time_it(|| contract_no_phys(&peps, ContractionMethod::ibmps(r), &mut rng).unwrap());
        s_ibmps.push(r as f64, secs);
        println!("ibmps  r={r:<3} wall={secs:.3}s");

        for (method, series, label) in [
            (ContractionMethod::bmps(r), &mut s_bmps_ctf, "bmps-ctf"),
            (ContractionMethod::ibmps(r), &mut s_ibmps_ctf, "ibmps-ctf"),
        ] {
            let cluster = Cluster::new(16);
            let _ = dist_contract_no_phys(&cluster, &peps, method, &mut rng).unwrap();
            let t = model.modelled_time(&cluster.stats());
            series.push(r as f64, t);
            println!("{label} r={r:<3} modelled={t:.4}s");
        }
    }

    // Two-layer comparison: norm of a PEPS with physical indices.
    let mut s_merged = Series::new("norm via merged BMPS (4x4 PEPS with physical indices)");
    let mut s_two_layer = Series::new("norm via two-layer IBMPS (4x4 PEPS with physical indices)");
    let phys_bonds: Vec<usize> = if args.quick { vec![2, 3] } else { vec![2, 3, 4] };
    for &r in &phys_bonds {
        let mut rng = StdRng::seed_from_u64(8_100 + r as u64);
        let peps = Peps::random(4, 4, 2, r, &mut rng);
        let m = r * r;
        let (_, secs) = time_it(|| norm_sqr(&peps, ContractionMethod::bmps(m), &mut rng).unwrap());
        s_merged.push(r as f64, secs);
        println!("merged-bmps    r={r:<3} (m={m}) wall={secs:.3}s");
        let (_, secs) = time_it(|| {
            norm_sqr_two_layer(&peps, m, ZipUpMethod::implicit_default(), &mut rng).unwrap()
        });
        s_two_layer.push(r as f64, secs);
        println!("two-layer ibmps r={r:<3} (m={m}) wall={secs:.3}s");
    }

    fig.add(s_exact);
    fig.add(s_bmps);
    fig.add(s_ibmps);
    fig.add(s_bmps_ctf);
    fig.add(s_ibmps_ctf);
    fig.add(s_merged);
    fig.add(s_two_layer);
    fig.print();
    fig.maybe_write_json(&args);

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pool_threads = koala_exec::default_threads();
    let (secs_serial, secs) = time_wavefront(pool_threads);
    println!(
        "host_cpus={host_cpus} contraction (6x6, r=7, bmps(7)): {secs:.4}s at {pool_threads} \
         threads, {secs_serial:.4}s at 1 (speed-up {:.2}x)",
        secs_serial / secs.max(1e-12)
    );
    if args.quick && host_cpus >= 2 && pool_threads >= 2 && secs >= secs_serial {
        eprintln!("fig8: the threaded contraction was not faster than one thread");
        std::process::exit(1);
    }
}

/// Best of ten warm `contract_no_phys` BMPS contractions of a 6x6, r = 7
/// network at m = 7 (the `contract_bmps` shape), whose zip-up steps run as
/// one task graph, on one executor thread and on `pool_threads`.
fn time_wavefront(pool_threads: usize) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(8_200);
    let peps = Peps::random_no_phys(6, 6, 7, &mut rng);
    let method = ContractionMethod::bmps(7);
    // The two thread counts alternate contraction by contraction: on a
    // shared host the second core comes and goes, and alternating gives both
    // the same chances. Round 0 warms the plans and is not timed.
    let mut best = [f64::INFINITY; 2];
    for round in 0..11 {
        for (side, threads) in [1, pool_threads].into_iter().enumerate() {
            koala_exec::set_threads(threads);
            let secs = time_it(|| contract_no_phys(&peps, method, &mut rng).unwrap()).1;
            if round > 0 {
                best[side] = best[side].min(secs);
            }
        }
    }
    (best[0], best[1])
}

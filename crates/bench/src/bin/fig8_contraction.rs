//! Figure 8 (and the §VI-B "highest achievable bond dimension" study):
//! running time of fully contracting a PEPS as the bond dimension grows,
//! comparing the Exact algorithm, BMPS, IBMPS, and their two-layer forms.
//!
//! Paper setup: 8x8 PEPS without physical indices on one node (a) and a 15x15
//! PEPS on 16 nodes (b). Scaled-down defaults: 5x5 (quick) / 6x6 lattice for
//! the one-layer methods, and a 4x4 PEPS with physical indices for the norm,
//! where each two-layer method is timed against its merged form at the same
//! boundary bond `m = r^2`: two-layer IBMPS against merged IBMPS, two-layer
//! explicit against merged BMPS. Panel (b) is not reproduced: the library
//! has no distributed boundary contraction.
//!
//! One boundary contraction runs its zip-up steps as a task graph (the
//! wavefront of `koala_peps::contract`), so a BMPS contraction at the
//! `contract_bmps` shape (6x6, r = m = 7) is also timed on one executor
//! thread and on the pool's default. `--quick` exits 1 on a host with two or
//! more CPUs when the threaded contraction is not the faster one.
//!
//! Every series point is the best of [`POINT_RUNS`] timed calls after one
//! untimed warm-up ([`best_of`]), so one slow call cannot flip a comparison.
//! The Exact points are one timed call each: at r = 4 a call takes seconds,
//! far above any call's noise, and four calls of it were most of a full
//! run.

use koala_bench::{best_of, threads_must_pay, time_it, Figure, Series};
use koala_mps::ZipUpMethod;
use koala_peps::two_layer::norm_sqr_two_layer;
use koala_peps::{contract_no_phys, norm_sqr, ContractionMethod, Peps};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Timed calls per series point.
const POINT_RUNS: usize = 3;

fn main() {
    let quick = koala_bench::quick();
    let (side, bonds, exact_max): (usize, Vec<usize>, usize) =
        if quick { (5, vec![2, 3, 4], 3) } else { (6, vec![2, 3, 4, 6, 8, 12], 4) };

    let mut fig = Figure::new(
        "fig8",
        &format!("Full contraction of a {side}x{side} PEPS (no physical indices), m = r"),
        "bond dimension r",
        "seconds",
    );
    let mut s_exact = Series::new("Exact (local)");
    let mut s_bmps = Series::new("BMPS (local)");
    let mut s_ibmps = Series::new("IBMPS (local)");

    for &r in &bonds {
        let mut rng = StdRng::seed_from_u64(8_000 + r as u64);
        let peps = Peps::random_no_phys(side, side, r, &mut rng);

        for (method, series, name) in [
            (ContractionMethod::Exact, &mut s_exact, "exact"),
            (ContractionMethod::bmps(r), &mut s_bmps, "bmps"),
            (ContractionMethod::ibmps(r), &mut s_ibmps, "ibmps"),
        ] {
            if method == ContractionMethod::Exact && r > exact_max {
                continue;
            }
            let run = || contract_no_phys(&peps, method, &mut rng).unwrap();
            let secs = if method == ContractionMethod::Exact {
                time_it(run).1
            } else {
                best_of(POINT_RUNS, run)
            };
            series.push(r as f64, secs);
            println!("{name:<6} r={r:<3} wall={secs:.3}s");
        }
    }

    // Two-layer comparison: norm of a PEPS with physical indices, each
    // two-layer method against its merged form at the same `m`.
    let norm_series = |label: &str| {
        Series::new(format!("norm via {label} (4x4 PEPS with physical indices, m = r^2)"))
    };
    let mut s_merged_bmps = norm_series("merged BMPS");
    let mut s_two_layer_explicit = norm_series("two-layer explicit");
    let mut s_merged_ibmps = norm_series("merged IBMPS");
    let mut s_two_layer_ibmps = norm_series("two-layer IBMPS");
    let phys_bonds: Vec<usize> = if quick { vec![2, 3] } else { vec![2, 3, 4] };
    for &r in &phys_bonds {
        let mut rng = StdRng::seed_from_u64(8_100 + r as u64);
        let peps = Peps::random(4, 4, 2, r, &mut rng);
        let m = r * r;
        for (merged, zip, s_merged, s_two_layer, label) in [
            (
                ContractionMethod::bmps(m),
                ZipUpMethod::ExactSvd,
                &mut s_merged_bmps,
                &mut s_two_layer_explicit,
                "bmps/explicit",
            ),
            (
                ContractionMethod::ibmps(m),
                ZipUpMethod::implicit_default(),
                &mut s_merged_ibmps,
                &mut s_two_layer_ibmps,
                "ibmps/implicit",
            ),
        ] {
            let merged_s = best_of(POINT_RUNS, || norm_sqr(&peps, merged, &mut rng).unwrap());
            s_merged.push(r as f64, merged_s);
            let two_layer_s =
                best_of(POINT_RUNS, || norm_sqr_two_layer(&peps, m, zip, &mut rng).unwrap());
            s_two_layer.push(r as f64, two_layer_s);
            println!(
                "norm {label:<14} r={r:<3} (m={m:<2}) merged={merged_s:.4}s \
                 two-layer={two_layer_s:.4}s"
            );
        }
    }

    fig.add(s_exact);
    fig.add(s_bmps);
    fig.add(s_ibmps);
    fig.add(s_merged_bmps);
    fig.add(s_two_layer_explicit);
    fig.add(s_merged_ibmps);
    fig.add(s_two_layer_ibmps);
    fig.print();

    // One BMPS contraction at the `contract_bmps` shape, whose zip-up steps
    // run as one task graph.
    let mut rng = StdRng::seed_from_u64(8_200);
    let peps = Peps::random_no_phys(6, 6, 7, &mut rng);
    let timing = threads_must_pay("contraction (6x6, r=7, bmps(7))", quick, || {
        contract_no_phys(&peps, ContractionMethod::bmps(7), &mut rng).unwrap();
    });
    if !timing.pays {
        eprintln!("fig8: the threaded contraction was not faster than one thread");
        std::process::exit(1);
    }
}

//! Figure 9: running time of the expectation-value calculation with and
//! without intermediate (row-environment) caching, as the PEPS side length
//! grows. The observable is the paper's: a one-site operator on every site
//! plus a two-site operator on every pair of neighbouring sites.
//!
//! The environment sweeps and the terms of a measurement are independent
//! tasks (`koala_peps::expectation`), so the cached measurement at the largest
//! side is also timed on one executor thread and on the pool's default.
//! `--quick` exits 1 when the cache does not pay, and on a host with two or
//! more CPUs when the threaded measurement is not the faster one.

use koala_bench::{threads_must_pay, time_it, Figure, Series};
use koala_peps::expectation::{expectation, ExpectationOptions};
use koala_peps::operators::{kron, pauli_x, pauli_z, Observable};
use koala_peps::{ContractionMethod, Peps};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn full_lattice_observable(n: usize) -> Observable {
    let mut obs = Observable::zero();
    for r in 0..n {
        for c in 0..n {
            obs.add_one_site((r, c), pauli_x());
        }
    }
    let zz = kron(&pauli_z(), &pauli_z());
    for r in 0..n {
        for c in 0..n {
            if c + 1 < n {
                obs.add_two_site((r, c), (r, c + 1), zz.clone());
            }
            if r + 1 < n {
                obs.add_two_site((r, c), (r + 1, c), zz.clone());
            }
        }
    }
    obs
}

fn main() {
    let quick = koala_bench::quick();
    let sides: Vec<usize> = if quick { vec![2, 3, 4] } else { vec![2, 3, 4, 5, 6] };
    let bond = 4;
    let contraction_bond = 8;

    let mut fig = Figure::new(
        "fig9",
        "Expectation value of a full-lattice observable with and without caching (bond 4)",
        "PEPS side length n",
        "seconds",
    );
    let mut cached = Series::new("IBMPS with cache");
    let mut uncached = Series::new("IBMPS without cache");

    // Whether the cache won at the largest side measured (the CI smoke gate).
    let mut caching_pays = false;
    for &n in &sides {
        let mut rng = StdRng::seed_from_u64(9_000 + n as u64);
        let peps = Peps::random(n, n, 2, bond, &mut rng);
        let obs = full_lattice_observable(n);

        let (_, secs_cached) = time_it(|| {
            expectation(
                &peps,
                &obs,
                ExpectationOptions {
                    method: ContractionMethod::ibmps(contraction_bond),
                    use_cache: true,
                },
                &mut rng,
            )
            .unwrap()
        });
        let (_, secs_uncached) = time_it(|| {
            expectation(
                &peps,
                &obs,
                ExpectationOptions {
                    method: ContractionMethod::ibmps(contraction_bond),
                    use_cache: false,
                },
                &mut rng,
            )
            .unwrap()
        });
        cached.push(n as f64, secs_cached);
        uncached.push(n as f64, secs_uncached);
        caching_pays = secs_cached < secs_uncached;
        println!(
            "n={n:<2} terms={:<4} cached={secs_cached:.3}s uncached={secs_uncached:.3}s speed-up={:.2}x",
            obs.len(),
            secs_uncached / secs_cached.max(1e-12)
        );
    }

    fig.add(cached);
    fig.add(uncached);

    // The cached measurement at the largest side.
    let n = sides[sides.len() - 1];
    let mut rng = StdRng::seed_from_u64(9_000 + n as u64);
    let peps = Peps::random(n, n, 2, bond, &mut rng);
    let obs = full_lattice_observable(n);
    let options = ExpectationOptions::ibmps_cached(contraction_bond);
    let timing = threads_must_pay(&format!("n={n} cached measurement"), quick, || {
        expectation(&peps, &obs, options, &mut rng).unwrap();
    });

    fig.print();
    if !caching_pays {
        eprintln!("fig9: the cached run at the largest side was not faster than the uncached one");
        std::process::exit(1);
    }
    if !timing.pays {
        eprintln!("fig9: the threaded measurement was not faster than one thread");
        std::process::exit(1);
    }
}

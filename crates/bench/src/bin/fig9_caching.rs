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

use koala_bench::{time_it, BenchArgs, Figure, Series};
use koala_peps::expectation::{expectation, ExpectationOptions};
use koala_peps::operators::{kron, pauli_x, pauli_z, Observable};
use koala_peps::update::{apply_two_site_everywhere, UpdateMethod};
use koala_peps::{ContractionMethod, Peps};
use koala_tensor::{clear_plan_cache, plan_stats, reset_plan_stats};
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
    let args = BenchArgs::parse();
    let sides: Vec<usize> = if args.quick { vec![2, 3, 4] } else { vec![2, 3, 4, 5, 6] };
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

    // Planner overhead: the same TEBD-style evolution steps with the einsum
    // contraction-plan cache warm (plans built once, then replayed) vs
    // cleared before every step (every einsum re-runs parsing, validation,
    // and the greedy ordering search). The gap is the per-step planning cost
    // that the cache converts into a one-time cost.
    let mut planner_cached = Series::new("evolution steps, cached plans");
    let mut planner_uncached = Series::new("evolution steps, planner cache cleared");
    let steps = if args.quick { 4 } else { 16 };
    let zz = kron(&pauli_z(), &pauli_z());
    for &n in &sides {
        let mut rng = StdRng::seed_from_u64(9_100 + n as u64);
        let base = Peps::random(n, n, 2, bond, &mut rng);
        let method = UpdateMethod::qr_svd(bond);

        let mut warm = base.clone();
        clear_plan_cache();
        apply_two_site_everywhere(&mut warm, &zz, method).unwrap(); // plan once
        reset_plan_stats();
        let (_, secs_warm) = time_it(|| {
            for _ in 0..steps {
                apply_two_site_everywhere(&mut warm, &zz, method).unwrap();
            }
        });
        let warm_stats = plan_stats();

        let mut cold = base.clone();
        let (_, secs_cold) = time_it(|| {
            for _ in 0..steps {
                clear_plan_cache();
                apply_two_site_everywhere(&mut cold, &zz, method).unwrap();
            }
        });
        planner_cached.push(n as f64, secs_warm / steps as f64);
        planner_uncached.push(n as f64, secs_cold / steps as f64);
        println!(
            "n={n:<2} planner: warm={:.3e}s/step cold={:.3e}s/step overhead={:.1}% \
             (warm sweep: {} hits, {} misses)",
            secs_warm / steps as f64,
            secs_cold / steps as f64,
            100.0 * (secs_cold - secs_warm) / secs_warm.max(1e-12),
            warm_stats.hits,
            warm_stats.misses,
        );
    }
    fig.add(planner_cached);
    fig.add(planner_uncached);

    // The cached measurement at the largest side, best of three warm calls
    // per thread count.
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pool_threads = koala_exec::default_threads();
    let n = sides[sides.len() - 1];
    let mut rng = StdRng::seed_from_u64(9_000 + n as u64);
    let peps = Peps::random(n, n, 2, bond, &mut rng);
    let obs = full_lattice_observable(n);
    let options = ExpectationOptions::ibmps_cached(contraction_bond);
    let mut measure_secs = |threads: usize| {
        koala_exec::set_threads(threads);
        (0..4)
            .map(|_| time_it(|| expectation(&peps, &obs, options, &mut rng).unwrap()).1)
            .skip(1)
            .fold(f64::INFINITY, f64::min)
    };
    let secs_serial = measure_secs(1);
    let secs_threaded = measure_secs(pool_threads);
    println!(
        "host_cpus={host_cpus} n={n} cached measurement: {secs_threaded:.4}s at {pool_threads} \
         threads, {secs_serial:.4}s at 1 (speed-up {:.2}x)",
        secs_serial / secs_threaded.max(1e-12)
    );

    fig.print();
    fig.maybe_write_json(&args);
    if !caching_pays {
        eprintln!("fig9: the cached run at the largest side was not faster than the uncached one");
        std::process::exit(1);
    }
    if args.quick && host_cpus >= 2 && pool_threads >= 2 && secs_threaded >= secs_serial {
        eprintln!("fig9: the threaded measurement was not faster than one thread");
        std::process::exit(1);
    }
}

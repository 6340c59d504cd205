//! Pins the held-`Arc<Plan>` behaviour of the zip-up inner loop: after a
//! warm-up sweep, repeating the same zip-up must not touch the global plan
//! cache at all — the zip step's `EinsumSvd` call site serves every theta
//! einsum from its held plans, skipping even the LRU lookup.
//!
//! This lives in its own integration-test binary because the assertion reads
//! the process-wide `plan_stats()` counters; unit tests of the mps crate run
//! concurrently in one process and would race them.

use koala_mps::{zip_up, Mpo, Mps, ZipUpMethod};
use koala_tensor::plan_stats;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn warmed_zip_up_skips_the_global_plan_cache() {
    let mut rng = StdRng::seed_from_u64(7);
    let mps = Mps::random(6, 2, 3, &mut rng);
    let mpo = Mpo::random(6, 2, 2, &mut rng);

    // Warm-up: plans for every (shape-distinct) step are built and held by
    // the call-site cell.
    let warm = zip_up(&mps, &mpo, 16, ZipUpMethod::ExactSvd, &mut rng).unwrap();
    let before = plan_stats();

    // Re-running the identical sweep must be answered entirely from the held
    // plans: no hits (a hit would mean an LRU lookup happened) and no misses.
    let again = zip_up(&mps, &mpo, 16, ZipUpMethod::ExactSvd, &mut rng).unwrap();
    let after = plan_stats();
    assert_eq!(
        (after.hits, after.misses),
        (before.hits, before.misses),
        "the warmed zip-up inner loop touched the global plan cache"
    );

    // And the held plans still compute the right thing.
    let overlap = warm.inner(&again).unwrap().abs();
    assert!((overlap / (warm.norm() * again.norm()) - 1.0).abs() < 1e-9);
}

//! Pins how the zip-up inner loop uses the plan cache: every zip step looks
//! its theta plan up in the one process-wide cache, so a warmed explicit
//! zip-up over `n` sites makes exactly `n - 1` lookups, all hits. No call
//! site holds plans of its own, so the counters see every plan use.
//!
//! This lives in its own integration-test binary because the assertion reads
//! the process-wide `plan_stats()` counters; unit tests of the mps crate run
//! concurrently in one process and would race them.

use koala_mps::{zip_up, Mpo, Mps, ZipUpMethod};
use koala_tensor::plan_stats;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn warmed_zip_up_makes_one_plan_lookup_per_step() {
    const SITES: usize = 6;
    let mut rng = StdRng::seed_from_u64(7);
    let mps = Mps::random(SITES, 2, 3, &mut rng);
    let mpo = Mpo::random(SITES, 2, 2, &mut rng);

    // Warm-up: the plan of every (shape-distinct) step enters the cache.
    let warm = zip_up(&mps, &mpo, 16, ZipUpMethod::ExactSvd, &mut rng).unwrap();
    let before = plan_stats();

    // The identical sweep looks up one plan per zip step and finds each.
    let again = zip_up(&mps, &mpo, 16, ZipUpMethod::ExactSvd, &mut rng).unwrap();
    let after = plan_stats();
    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (SITES as u64 - 1, 0),
        "a warmed zip-up over {SITES} sites must make {} plan lookups, all hits",
        SITES - 1
    );

    // And the cached plans still compute the right thing.
    let overlap = warm.inner(&again).unwrap().abs();
    assert!((overlap / (warm.norm() * again.norm()) - 1.0).abs() < 1e-9);
}

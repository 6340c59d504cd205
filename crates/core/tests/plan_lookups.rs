//! Every zip step of a warmed boundary contraction makes one plan-cache
//! lookup, a hit, on whichever executor thread runs it: the count is the
//! same at any `KOALA_EXEC_THREADS`. Its own test binary, because
//! `plan_stats()` is process-wide and this crate's unit tests would race it.

use koala_peps::{contract_no_phys, ContractionMethod, Peps};
use koala_tensor::plan_stats;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn warmed_bmps_contraction_makes_one_plan_lookup_per_zip_step() {
    let (rows, cols) = (4, 5);
    let mut rng = StdRng::seed_from_u64(11);
    let peps = Peps::random_no_phys(rows, cols, 3, &mut rng);
    let method = ContractionMethod::bmps(6);

    let warm = contract_no_phys(&peps, method, &mut rng).unwrap();
    let before = plan_stats();
    let again = contract_no_phys(&peps, method, &mut rng).unwrap();
    let after = plan_stats();

    // (rows - 1) zip-ups of (cols - 1) steps each.
    let steps = ((rows - 1) * (cols - 1)) as u64;
    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (steps, 0),
        "a warmed {rows}x{cols} BMPS contraction must make {steps} plan lookups, all hits"
    );
    assert_eq!(warm, again, "the explicit contraction is deterministic");
}

//! Every zip step of a warmed boundary contraction makes one plan-cache
//! lookup, a hit, on whichever executor thread runs it: the count is the
//! same at any `KOALA_EXEC_THREADS`. Single pairwise contractions (one-site
//! gates, bra-ket site merges) call `tensordot` and make none. Its own test
//! binary, because `plan_stats()` is process-wide and this crate's unit
//! tests would race it; the tests below take `SERIAL` for the same reason.

use koala_peps::operators::pauli_x;
use koala_peps::{apply_one_site, contract_no_phys, ContractionMethod, Peps};
use koala_tensor::plan_stats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn warmed_bmps_contraction_makes_one_plan_lookup_per_zip_step() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
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

#[test]
fn warmed_site_gates_and_bra_merges_make_no_plan_lookup() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = StdRng::seed_from_u64(12);
    let mut peps = Peps::random(2, 3, 2, 2, &mut rng);
    let sites = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)];
    apply_one_site(&mut peps, &pauli_x(), (0, 0)).unwrap();
    peps.merge_with_bra(&peps).unwrap();

    let before = plan_stats();
    for site in sites {
        apply_one_site(&mut peps, &pauli_x(), site).unwrap();
    }
    peps.merge_with_bra(&peps).unwrap();
    let after = plan_stats();

    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (0, 0),
        "warmed one-site gates and a bra merge must make no plan lookup"
    );
}

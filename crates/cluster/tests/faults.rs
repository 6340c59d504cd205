//! Fault-injection property suite: a seeded [`FaultPlan`] must be a pure
//! function of its seed — the same seed produces the same fault sequence and
//! the same (exactly recovered) results — across grid shapes (1x1, p x 1,
//! p x q) and ragged block-cyclic layouts, because ABFT detection happens
//! *before* a corrupted panel is accumulated, so the recovered arithmetic is
//! bit-identical to the fault-free run.

use koala_cluster::{Cluster, CommStats, DistMatrix, FaultLog, FaultPlan, ProcGrid};
use koala_linalg::{matmul, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run one fault-injected SUMMA product; returns the gathered result, the
/// fault log, and the product's communication counters.
fn faulty_summa(
    grid: ProcGrid,
    (m, k, n): (usize, usize, usize),
    (mb, kb): (usize, usize),
    mat_seed: u64,
    plan: FaultPlan,
) -> (Matrix, FaultLog, CommStats) {
    let cluster = Cluster::new(grid.nranks());
    let mut rng = StdRng::seed_from_u64(mat_seed);
    let a = Matrix::random(m, k, &mut rng);
    let b = Matrix::random(k, n, &mut rng);
    let da = DistMatrix::scatter_block_cyclic(&cluster, &a, grid, mb, kb).unwrap();
    // Deliberately mismatched depth blocks: the SUMMA rounds run over the
    // common (ragged) refinement of the two layouts.
    let db = DistMatrix::scatter_block_cyclic(&cluster, &b, grid, kb + 1, mb).unwrap();
    cluster.reset_stats();
    cluster.arm_faults(plan);
    let c = da.matmul_dist(&db).expect("transient faults must be recovered");
    let log = cluster.disarm_faults();
    (c.gather_unaccounted(), log, cluster.stats())
}

/// The grid shapes the acceptance criteria call out: single rank, a column
/// of ranks, and two genuine 2-D grids (square and rectangular).
fn grid_for(index: usize) -> ProcGrid {
    match index {
        0 => ProcGrid::new(1, 1),
        1 => ProcGrid::new(3, 1),
        2 => ProcGrid::new(2, 2),
        _ => ProcGrid::new(2, 3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn same_fault_seed_gives_identical_sequence_and_identical_recovery(
        gi in 0usize..4,
        m in 1usize..14, k in 1usize..14, n in 1usize..14,
        mb in 1usize..4, kb in 1usize..4,
        mat_seed in 0u64..1_000, fault_seed in 0u64..1_000,
    ) {
        let grid = grid_for(gi);
        let plan = || FaultPlan::seeded(fault_seed).corrupt_prob(0.10).drop_prob(0.05);
        let (c1, log1, _) = faulty_summa(grid, (m, k, n), (mb, kb), mat_seed, plan());
        let (c2, log2, _) = faulty_summa(grid, (m, k, n), (mb, kb), mat_seed, plan());

        // Determinism: the fault sequence is a pure function of the seed and
        // the workload, so two identical runs inject identical faults...
        prop_assert_eq!(&log1, &log2);
        // ...and recover to bitwise-identical results.
        prop_assert!(c1.approx_eq(&c2, 0.0));
    }

    #[test]
    fn recovered_product_matches_the_fault_free_run_exactly(
        gi in 0usize..4,
        m in 1usize..14, k in 1usize..14, n in 1usize..14,
        mb in 1usize..4, kb in 1usize..4,
        mat_seed in 0u64..1_000, fault_seed in 0u64..1_000,
    ) {
        let grid = grid_for(gi);
        let plan = FaultPlan::seeded(fault_seed).corrupt_prob(0.12).drop_prob(0.06);
        let (recovered, log, faulted) = faulty_summa(grid, (m, k, n), (mb, kb), mat_seed, plan);

        // Reference 1: the same distributed product with no fault plan armed.
        // ABFT detection precedes accumulation, so recovery replays the
        // identical arithmetic: exact equality, not approximate.
        let (fault_free, empty_log, clean) =
            faulty_summa(grid, (m, k, n), (mb, kb), mat_seed, FaultPlan::seeded(fault_seed));
        prop_assert!(empty_log.is_empty());
        prop_assert!(recovered.approx_eq(&fault_free, 0.0));

        // Reference 2: the local kernel, up to accumulation-order roundoff.
        let mut rng = StdRng::seed_from_u64(mat_seed);
        let a = Matrix::random(m, k, &mut rng);
        let b = Matrix::random(k, n, &mut rng);
        prop_assert!(recovered.approx_eq(&matmul(&a, &b), 1e-12 * k as f64));

        // ABFT overhead never leaks into the payload counters: checksum and
        // retry bytes live in their own columns, so the faulted run reports
        // exactly the fault-free payload traffic and message count.
        prop_assert_eq!(faulted.bytes_communicated, clean.bytes_communicated);
        prop_assert_eq!(faulted.messages, clean.messages);
        prop_assert_eq!(faulted.checksum_bytes, clean.checksum_bytes);
        // Retry traffic appears only when faults were injected (an injected
        // fault on an empty panel can verify trivially, so the converse does
        // not hold), and a clean log means zero retry bytes.
        if log.is_empty() {
            prop_assert_eq!(faulted.retries, 0);
            prop_assert_eq!(faulted.retry_bytes, 0);
        }
        if faulted.retries == 0 {
            prop_assert_eq!(faulted.retry_bytes, 0);
        }
    }

    #[test]
    fn different_fault_seeds_eventually_diverge(
        gi in 1usize..4, mat_seed in 0u64..1_000, fault_seed in 0u64..1_000,
    ) {
        // High fault rates on a fixed workload: two different seeds should
        // not produce the same event sequence (overwhelmingly likely — the
        // logs differ in length or site order at these rates).
        let grid = grid_for(gi);
        let mk = (9usize, 8usize, 7usize);
        let plan_a = FaultPlan::seeded(fault_seed).corrupt_prob(0.3).drop_prob(0.2);
        let plan_b = FaultPlan::seeded(fault_seed ^ 0x5555_5555).corrupt_prob(0.3).drop_prob(0.2);
        let (ca, log_a, _) = faulty_summa(grid, mk, (2, 2), mat_seed, plan_a);
        let (cb, log_b, _) = faulty_summa(grid, mk, (2, 2), mat_seed, plan_b);
        // Both still recover to the same (correct) product...
        prop_assert!(ca.approx_eq(&cb, 0.0));
        // ...but the injected sequences differ unless both were empty.
        if !log_a.is_empty() || !log_b.is_empty() {
            prop_assert!(log_a != log_b || log_a.is_empty());
        }
    }
}

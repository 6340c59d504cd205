//! Overlapped SUMMA must be observationally identical to serialized SUMMA.
//!
//! Every stationary variant of `matmul_dist_variant` runs one task graph per
//! product: on a multi-thread executor pool round `t + 1`'s panel broadcasts
//! overlap round `t`'s local GEMMs, on a 1-thread pool the same graph is
//! walked in order. This suite pins that the overlap is *pure scheduling*:
//! for the same operands, the gathered product is bit-identical to a
//! 1-thread (fully serialized) run and the entire [`CommStats`] ledger —
//! bytes, messages, collectives, checksum bytes, per-rank MACs, and the
//! per-round [`RoundCost`] list the overlap cost model prices — is equal as
//! a value, round for round, fault-free and under a seeded fault plan. A
//! golden ledger captured from the pre-engine round loops pins that the
//! engine bills what they billed.

use koala_cluster::{
    Cluster, CommStats, DistMatrix, FaultLog, FaultPlan, ProcGrid, SummaVariant, ELEM_BYTES,
};
use koala_linalg::gemm::Op;
use koala_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// The executor pool is process-wide; serialize the tests in this binary.
static SERIAL: Mutex<()> = Mutex::new(());

const VARIANTS: [SummaVariant; 3] =
    [SummaVariant::StationaryC, SummaVariant::StationaryA, SummaVariant::StationaryB];

/// Run one distributed product at a given thread count, optionally under an
/// armed fault plan, and return the gathered result, the cluster's complete
/// stats ledger and the fault log. `None` when `variant` does not support
/// the op pair.
#[allow(clippy::too_many_arguments)]
fn run_case(
    threads: usize,
    grid: ProcGrid,
    (opa, opb): (Op, Op),
    variant: SummaVariant,
    plan: Option<FaultPlan>,
    a: &Matrix,
    b: &Matrix,
    blocks: (usize, usize, usize),
) -> Option<(Matrix, CommStats, FaultLog)> {
    koala_exec::set_threads(threads);
    let (mb, kb, nb) = blocks;
    let cluster = Cluster::new(grid.nranks());
    let da = DistMatrix::scatter_block_cyclic(&cluster, a, grid, mb, kb);
    let db = DistMatrix::scatter_block_cyclic(&cluster, b, grid, kb + 1, nb);
    da.summa_traffic_elems(opa, opb, &db, variant)?;
    cluster.reset_stats();
    if let Some(plan) = plan {
        cluster.arm_faults(plan);
    }
    let c = da.matmul_dist_variant(opa, opb, &db, variant).expect("transient faults recover");
    let log = cluster.disarm_faults();
    Some((c.gather_unaccounted(), cluster.stats(), log))
}

/// Stored operands for an effective `m x k x n` product under an op pair.
fn operands(
    (opa, opb): (Op, Op),
    (m, k, n): (usize, usize, usize),
    rng: &mut StdRng,
) -> (Matrix, Matrix) {
    let a = if opa == Op::None { Matrix::random(m, k, rng) } else { Matrix::random(k, m, rng) };
    let b = if opb == Op::None { Matrix::random(k, n, rng) } else { Matrix::random(n, k, rng) };
    (a, b)
}

fn assert_bit_identical(serial: &Matrix, overlapped: &Matrix, what: &str) {
    assert_eq!(serial.shape(), overlapped.shape(), "{what}: shapes differ");
    assert_eq!(serial.is_real(), overlapped.is_real(), "{what}: realness hints differ");
    for (i, (x, y)) in serial.data().iter().zip(overlapped.data().iter()).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: element {i} differs bitwise: {x:?} vs {y:?}"
        );
    }
}

/// Serialized (1 thread) vs overlapped (4 threads) SUMMA: bit-identical
/// gathered product, an equal `CommStats` ledger and an equal fault log,
/// across grid shapes, op pairs and all three stationary variants, on a
/// depth extent long enough for many rounds of overlap — fault-free and
/// under a seeded transient fault plan, whose recovered product must also be
/// bit-identical to the fault-free one with the overhead confined to the
/// checksum/retry counters.
#[test]
fn overlapped_summa_matches_serialized_ledger_and_bits() {
    let _guard = SERIAL.lock().unwrap();
    let grids = [(2usize, 2usize), (2, 3), (1, 4)];
    let ops = [(Op::None, Op::None), (Op::Transpose, Op::None), (Op::None, Op::Adjoint)];
    let mut seed = 9_000u64;
    for &(p, q) in &grids {
        for &ops in &ops {
            let grid = ProcGrid::new(p, q);
            let mut rng = StdRng::seed_from_u64(seed);
            seed += 1;
            // Effective product is (21 x 130) * (130 x 17): the depth extent
            // refines into many panels (block 3 vs 4), i.e. many rounds.
            let (a, b) = operands(ops, (21, 130, 17), &mut rng);
            for variant in VARIANTS {
                let what = format!("{p}x{q} grid, ops {ops:?}, {variant:?}");
                let run =
                    |threads, plan| run_case(threads, grid, ops, variant, plan, &a, &b, (2, 3, 2));
                let Some((c1, s1, log1)) = run(1, None) else {
                    continue; // variant does not support this op pair
                };
                let (c4, s4, log4) = run(4, None).expect("support is thread-independent");
                assert_bit_identical(&c1, &c4, &what);
                assert!(!s1.rounds.is_empty(), "{what}: no rounds recorded");
                assert_eq!(s1.rounds, s4.rounds, "{what}: per-round ledger differs");
                assert_eq!(s1, s4, "{what}: CommStats ledger differs");
                assert!(log1.is_empty() && log4.is_empty(), "{what}: faults without a plan");

                let plan = || Some(FaultPlan::seeded(seed).corrupt_prob(0.2).drop_prob(0.1));
                let (f1, fs1, flog1) = run(1, plan()).expect("supported above");
                let (f4, fs4, flog4) = run(4, plan()).expect("supported above");
                assert!(!flog1.is_empty(), "{what}: the plan must strike over this many panels");
                assert_eq!(flog1, flog4, "{what}: fault log depends on the thread count");
                assert_eq!(fs1, fs4, "{what}: faulted CommStats ledger differs");
                assert_bit_identical(&c1, &f1, &format!("{what}, recovered vs fault-free"));
                assert_bit_identical(&f1, &f4, &format!("{what}, recovered"));
                assert_eq!(fs1.bytes_communicated, s1.bytes_communicated, "{what}: payload");
                assert_eq!(fs1.messages, s1.messages, "{what}: messages");
                assert_eq!(fs1.checksum_bytes, s1.checksum_bytes, "{what}: checksum bytes");
                assert_eq!(fs1.rounds, s1.rounds, "{what}: faulted per-round ledger");
            }
        }
    }
    koala_exec::set_threads(1);
}

/// The real-workload variant: realness hints survive the overlapped
/// schedule, zero complex MACs are billed, and the ledgers agree.
#[test]
fn overlapped_real_summa_matches_serialized() {
    let _guard = SERIAL.lock().unwrap();
    let grid = ProcGrid::new(2, 2);
    let mut rng = StdRng::seed_from_u64(77);
    let (m, k, n) = (19usize, 90, 23);
    let a = Matrix::random_real(m, k, &mut rng);
    let b = Matrix::random_real(k, n, &mut rng);

    for variant in VARIANTS {
        let run = |threads| {
            run_case(threads, grid, (Op::None, Op::None), variant, None, &a, &b, (4, 5, 4))
                .expect("every variant supports untransposed operands")
        };
        let (c1, s1, _) = run(1);
        let (c4, s4, _) = run(4);
        assert!(c1.is_real() && c4.is_real());
        assert_bit_identical(&c1, &c4, "real SUMMA");
        assert_eq!(s1, s4, "real SUMMA: CommStats ledger differs");
        assert_eq!(s4.total_flops(), 0, "real workload billed complex MACs");
        assert_eq!(s4.total_real_macs(), (m * n * k) as u64);
    }
    koala_exec::set_threads(1);
}

/// The engine must bill exactly what the round loops it replaced billed. The
/// expected numbers were captured by running this test against the commit
/// before the one-engine refactor (separate serial/DAG stationary-C loops,
/// hand-mirrored stationary-A/B loops), so they are an external reference,
/// not the engine agreeing with itself. Each case is the fault-free ledger of
/// an effective `13 x 22 x 11` complex product with blocks `(2, 3, 2)`; the
/// last block also pins the stationary-C fault sequence of a fixed seed,
/// event index by event index.
#[test]
fn ledger_matches_the_pre_engine_round_loops() {
    use SummaVariant::{StationaryA, StationaryB, StationaryC};
    let _guard = SERIAL.lock().unwrap();
    // (grid, ops, variant, [payload elems, messages, collectives, checksum
    // elems, rounds], per-rank MACs)
    type Golden = ((usize, usize), (Op, Op), SummaVariant, [u64; 5], &'static [u64]);
    let golden: [Golden; 7] = [
        ((2, 2), (Op::None, Op::None), StationaryC, [528, 48, 48, 88, 12], &[924, 770, 792, 660]),
        (
            (2, 3),
            (Op::Transpose, Op::None),
            StationaryC,
            [956, 88, 55, 495, 11],
            &[616, 616, 462, 528, 528, 396],
        ),
        (
            (2, 2),
            (Op::Transpose, Op::Adjoint),
            StationaryC,
            [788, 66, 44, 528, 11],
            &[1078, 616, 924, 528],
        ),
        (
            (2, 3),
            (Op::None, Op::Adjoint),
            StationaryA,
            [671, 84, 51, 110, 3],
            &[693, 539, 462, 594, 462, 396],
        ),
        ((1, 4), (Op::None, Op::None), StationaryA, [609, 72, 60, 66, 6], &[858, 858, 858, 572]),
        ((2, 2), (Op::Adjoint, Op::None), StationaryB, [585, 95, 65, 78, 5], &[936, 780, 780, 650]),
        (
            (3, 2),
            (Op::None, Op::None),
            StationaryB,
            [762, 168, 98, 130, 7],
            &[624, 520, 624, 520, 468, 390],
        ),
    ];
    for threads in [1, 4] {
        for (i, &((p, q), ops, variant, totals, rank_macs)) in golden.iter().enumerate() {
            let what = format!("case {i} ({p}x{q}, {ops:?}, {variant:?}), {threads} threads");
            let mut rng = StdRng::seed_from_u64(12_000 + i as u64);
            let (a, b) = operands(ops, (13, 22, 11), &mut rng);
            let (_, s, _) =
                run_case(threads, ProcGrid::new(p, q), ops, variant, None, &a, &b, (2, 3, 2))
                    .expect("golden cases are supported op pairs");
            let got = [
                s.bytes_communicated / ELEM_BYTES,
                s.messages,
                s.collectives,
                s.checksum_bytes / ELEM_BYTES,
                s.rounds.len() as u64,
            ];
            assert_eq!(got, totals, "{what}: ledger totals");
            assert_eq!(s.rank_flops, rank_macs, "{what}: per-rank complex MACs");
            assert_eq!(s.total_real_macs(), 0, "{what}: complex operands");
        }
    }

    // Stationary-C under a fixed fault seed: the 1-thread walk of the graph
    // issues its fault queries in the old serial loop's order, so the same
    // event indices strike and the same bytes are retransmitted.
    let mut rng = StdRng::seed_from_u64(12_100);
    let ops = (Op::None, Op::None);
    let (a, b) = operands(ops, (13, 22, 11), &mut rng);
    let plan = FaultPlan::seeded(4242).corrupt_prob(0.2).drop_prob(0.1);
    let (_, s, log) =
        run_case(4, ProcGrid::new(2, 2), ops, StationaryC, Some(plan), &a, &b, (2, 3, 2))
            .expect("stationary-C supports every op pair");
    let struck: Vec<u64> = log.iter().map(|ev| ev.index).collect();
    assert_eq!(struck, [1, 12, 26, 36, 45, 53, 57, 64, 73, 84, 90, 93]);
    assert_eq!((s.retries, s.retry_bytes / ELEM_BYTES), (12, 161));
    koala_exec::set_threads(1);
}

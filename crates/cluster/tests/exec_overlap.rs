//! Overlapped SUMMA must be observationally identical to serialized SUMMA.
//!
//! `matmul_dist` runs one task graph per product: on a multi-thread executor
//! pool round `t + 1`'s panel broadcasts overlap round `t`'s local GEMMs, on
//! a 1-thread pool the same graph is walked in order. This suite pins that
//! the overlap is *pure scheduling*: for the same operands, the gathered
//! product is bit-identical to a 1-thread (fully serialized) run and the
//! entire [`CommStats`] ledger — bytes, messages, collectives, checksum
//! bytes, per-rank MACs, and the per-round [`RoundCost`] list the overlap
//! cost model prices — is equal as a value, round for round, fault-free and
//! under seeded fault plans: transient faults, a rank failure, and a
//! persistent plan whose failure must carry the same error at any thread
//! count. A golden ledger captured from the pre-engine round loops pins that
//! the engine bills what they billed.

use koala_cluster::{
    Cluster, CommStats, DistMatrix, FaultKind, FaultLog, FaultPlan, FaultSite, ProcGrid, ELEM_BYTES,
};
use koala_error::Result;
use koala_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, PoisonError};

/// The executor pool is process-wide; serialize the tests in this binary.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run one distributed product at a given thread count, optionally under an
/// armed fault plan, and return the gathered result (or the product's
/// error), the cluster's complete stats ledger and the fault log.
fn try_case(
    threads: usize,
    grid: ProcGrid,
    plan: Option<FaultPlan>,
    a: &Matrix,
    b: &Matrix,
    (mb, kb, nb): (usize, usize, usize),
) -> (Result<Matrix>, CommStats, FaultLog) {
    koala_exec::set_threads(threads);
    let cluster = Cluster::new(grid.nranks());
    let da = DistMatrix::scatter_block_cyclic(&cluster, a, grid, mb, kb).unwrap();
    let db = DistMatrix::scatter_block_cyclic(&cluster, b, grid, kb + 1, nb).unwrap();
    cluster.reset_stats();
    if let Some(plan) = plan {
        cluster.arm_faults(plan);
    }
    let c = da.matmul_dist(&db).map(|c| c.gather_unaccounted());
    let log = cluster.disarm_faults();
    (c, cluster.stats(), log)
}

/// [`try_case`] for a product that must succeed.
fn run_case(
    threads: usize,
    grid: ProcGrid,
    plan: Option<FaultPlan>,
    a: &Matrix,
    b: &Matrix,
    blocks: (usize, usize, usize),
) -> (Matrix, CommStats, FaultLog) {
    let (c, stats, log) = try_case(threads, grid, plan, a, b, blocks);
    (c.expect("transient faults recover"), stats, log)
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
/// across grid shapes, on a depth extent long enough for many rounds of
/// overlap — fault-free and under a seeded transient fault plan, whose
/// recovered product must also be bit-identical to the fault-free one with
/// the overhead confined to the checksum/retry counters.
#[test]
fn overlapped_summa_matches_serialized_ledger_and_bits() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let grids = [(2usize, 2usize), (2, 3), (1, 4)];
    for (i, &(p, q)) in grids.iter().enumerate() {
        let seed = 9_000 + 3 * i as u64;
        let what = format!("{p}x{q} grid");
        let grid = ProcGrid::new(p, q);
        let mut rng = StdRng::seed_from_u64(seed);
        // (21 x 130) * (130 x 17): the depth extent refines into many panels
        // (block 3 vs 4), i.e. many rounds.
        let a = Matrix::random(21, 130, &mut rng);
        let b = Matrix::random(130, 17, &mut rng);
        let run = |threads, plan| run_case(threads, grid, plan, &a, &b, (2, 3, 2));
        let (c1, s1, log1) = run(1, None);
        let (c4, s4, log4) = run(4, None);
        assert_bit_identical(&c1, &c4, &what);
        assert!(!s1.rounds.is_empty(), "{what}: no rounds recorded");
        assert_eq!(s1.rounds, s4.rounds, "{what}: per-round ledger differs");
        assert_eq!(s1, s4, "{what}: CommStats ledger differs");
        assert!(log1.is_empty() && log4.is_empty(), "{what}: faults without a plan");

        let plan = || Some(FaultPlan::seeded(seed + 1).corrupt_prob(0.2).drop_prob(0.1));
        let (f1, fs1, flog1) = run(1, plan());
        let (f4, fs4, flog4) = run(4, plan());
        assert!(!flog1.is_empty(), "{what}: the plan must strike over this many panels");
        assert_eq!(flog1, flog4, "{what}: fault log depends on the thread count");
        assert_eq!(fs1, fs4, "{what}: faulted CommStats ledger differs");
        assert_bit_identical(&c1, &f1, &format!("{what}, recovered vs fault-free"));
        assert_bit_identical(&f1, &f4, &format!("{what}, recovered"));
        assert_eq!(fs1.bytes_communicated, s1.bytes_communicated, "{what}: payload");
        assert_eq!(fs1.messages, s1.messages, "{what}: messages");
        assert_eq!(fs1.checksum_bytes, s1.checksum_bytes, "{what}: checksum bytes");
        assert_eq!(fs1.rounds, s1.rounds, "{what}: faulted per-round ledger");

        // Rank 1 dies in round 2: one logged failure, one re-fetch, the
        // same product.
        let plan = || Some(FaultPlan::seeded(seed + 2).fail_rank(1, 2));
        let (r1, rs1, rlog1) = run(1, plan());
        let (r4, rs4, rlog4) = run(4, plan());
        let site = FaultSite::SummaCompute { round: 2, rank: 1 };
        assert_eq!(rlog1.len(), 1, "{what}: the rank failure fires once");
        assert_eq!((rlog1[0].site, rlog1[0].kind), (site, FaultKind::RankFailure), "{what}");
        assert_eq!(rlog1, rlog4, "{what}: rank-failure log depends on the thread count");
        assert_eq!(rs1, rs4, "{what}: rank-failure CommStats ledger differs");
        assert_eq!(rs1.retries, 1, "{what}: the restarted rank re-fetched once");
        assert_bit_identical(&c1, &r1, &format!("{what}, after a rank failure"));
        assert_bit_identical(&r1, &r4, &format!("{what}, rank failure"));

        // A persistent plan outlasts the retry budget: the same error, log
        // and ledger at both thread counts. The product bills no MACs and
        // no rounds, only the traffic of its comm chain up to the failure.
        let plan = || Some(FaultPlan::seeded(seed + 3).corrupt_prob(0.3).persistent());
        let (e1, es1, elog1) = try_case(1, grid, plan(), &a, &b, (2, 3, 2));
        let (e4, es4, elog4) = try_case(4, grid, plan(), &a, &b, (2, 3, 2));
        let (e1, e4) = (e1.unwrap_err(), e4.unwrap_err());
        assert_eq!(e1.kind(), koala_error::ErrorKind::Fault, "{what}: {e1}");
        assert_eq!((e1.kind(), e1.to_string()), (e4.kind(), e4.to_string()), "{what}");
        assert!(!e1.to_string().contains("round 0,"), "{what}: fails after round 0: {e1}");
        assert_eq!(elog1, elog4, "{what}: exhausted log depends on the thread count");
        assert_eq!(es1, es4, "{what}: exhausted CommStats ledger differs");
        assert!(es1.rounds.is_empty() && es1.total_flops() == 0, "{what}: failed product billed");
    }
    koala_exec::set_threads(1);
}

/// The real-workload case: realness hints survive the overlapped schedule,
/// zero complex MACs are billed, and the ledgers agree.
#[test]
fn overlapped_real_summa_matches_serialized() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let grid = ProcGrid::new(2, 2);
    let mut rng = StdRng::seed_from_u64(77);
    let (m, k, n) = (19usize, 90, 23);
    let a = Matrix::random_real(m, k, &mut rng);
    let b = Matrix::random_real(k, n, &mut rng);

    let (c1, s1, _) = run_case(1, grid, None, &a, &b, (4, 5, 4));
    let (c4, s4, _) = run_case(4, grid, None, &a, &b, (4, 5, 4));
    assert!(c1.is_real() && c4.is_real());
    assert_bit_identical(&c1, &c4, "real SUMMA");
    assert_eq!(s1, s4, "real SUMMA: CommStats ledger differs");
    assert_eq!(s4.total_flops(), 0, "real workload billed complex MACs");
    assert_eq!(s4.total_real_macs(), (m * n * k) as u64);
    koala_exec::set_threads(1);
}

/// The engine must bill exactly what the round loops it replaced billed. The
/// fault-free ledger of a `13 x 22 x 11` complex product with blocks
/// `(2, 3, 2)` on a 2x2 grid was captured by running this test against the
/// commit before the one-engine refactor (separate serial and task-graph
/// round loops), so it is an external reference, not the engine agreeing
/// with itself. The fault half pins the site-keyed decisions of a fixed
/// seed, (operation, site, attempt) by (operation, site, attempt), at 1 and
/// 4 threads.
#[test]
fn ledger_matches_the_pre_engine_round_loops() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let operands = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(13, 22, &mut rng);
        (a, Matrix::random(22, 11, &mut rng))
    };
    let grid = ProcGrid::new(2, 2);
    for threads in [1, 4] {
        let (a, b) = operands(12_000);
        let (_, s, _) = run_case(threads, grid, None, &a, &b, (2, 3, 2));
        let got = [
            s.bytes_communicated / ELEM_BYTES,
            s.messages,
            s.collectives,
            s.checksum_bytes / ELEM_BYTES,
            s.rounds.len() as u64,
        ];
        // [payload elems, messages, collectives, checksum elems, rounds]
        assert_eq!(got, [528, 48, 48, 88, 12], "{threads} threads: ledger totals");
        assert_eq!(s.rank_flops, [924, 770, 792, 660], "{threads} threads: per-rank MACs");
        assert_eq!(s.total_real_macs(), 0, "{threads} threads: complex operands");
    }

    // Under a fixed fault seed the same sites strike and the same bytes are
    // retransmitted whatever order the pool checks them in. The product is
    // the first operation after arming.
    let (a, b) = operands(12_100);
    let a_panel = |round, rank| (1, FaultSite::SummaPanelA { round, rank }, 0);
    let b_panel = |round, rank| (1, FaultSite::SummaPanelB { round, rank }, 0);
    for threads in [1, 4] {
        let plan = FaultPlan::seeded(4242).corrupt_prob(0.2).drop_prob(0.1);
        let (_, s, log) = run_case(threads, grid, Some(plan), &a, &b, (2, 3, 2));
        let struck: Vec<_> = log.iter().map(|ev| (ev.op, ev.site, ev.attempt)).collect();
        #[rustfmt::skip]
        assert_eq!(struck, [
            a_panel(0, 3), a_panel(1, 2), a_panel(3, 3), a_panel(5, 2), a_panel(6, 1),
            a_panel(7, 0), a_panel(8, 0), a_panel(11, 0),
            b_panel(3, 0), b_panel(4, 2), b_panel(4, 3), b_panel(5, 2), b_panel(7, 1),
            b_panel(9, 2), b_panel(9, 3), b_panel(10, 1), b_panel(11, 1),
        ], "{threads} threads: struck sites");
        assert_eq!((s.retries, s.retry_bytes / ELEM_BYTES), (17, 211), "{threads} threads");
    }
    koala_exec::set_threads(1);
}

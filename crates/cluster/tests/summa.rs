//! SUMMA property suite: distributed `matmul_dist` must agree with the local
//! packed GEMM across grid shapes, block-cyclic layouts, ragged edges, empty
//! operands, and realness hints — and must communicate the SUMMA volume
//! (`O(n^2 / sqrt(P))` words per rank), not the gather-everything volume of
//! the block-row baseline.

use koala_cluster::{Cluster, DistMatrix, ProcGrid, ELEM_BYTES};
use koala_linalg::{matmul, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Distribute `a` and `b` block-cyclically on `grid` (with deliberately
/// different depth block sizes to exercise the panel refinement) and check
/// the SUMMA product against the local kernel, its payload against the
/// closed-form volume and every rank's MACs against its local share.
fn check_case(
    grid: ProcGrid,
    m: usize,
    k: usize,
    n: usize,
    blocks: (usize, usize, usize),
    seed: u64,
) {
    let (mb, kb, nb) = blocks;
    let cluster = Cluster::new(grid.nranks());
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::random(m, k, &mut rng);
    let b = Matrix::random(k, n, &mut rng);
    let da = DistMatrix::scatter_block_cyclic(&cluster, &a, grid, mb, kb).unwrap();
    // B uses kb + 1 for its row blocks: the depth panels of the SUMMA loop
    // are the common refinement of the two layouts.
    let db = DistMatrix::scatter_block_cyclic(&cluster, &b, grid, kb + 1, nb).unwrap();
    cluster.reset_stats(); // the scatter is setup, not the product
    let c = da.matmul_dist(&db).expect("fault-free SUMMA cannot fail");
    let reference = matmul(&a, &b);
    let diff = c.gather_unaccounted().max_diff(&reference);
    let (p, q) = (grid.rows(), grid.cols());
    let what = format!("{p}x{q} grid, {m}x{k}x{n} (blocks {mb}/{kb}/{nb})");
    assert!(diff < 1e-12 * (k.max(1) as f64), "SUMMA mismatch on {what}: {diff:e}");
    assert_eq!(c.shape(), (m, n));
    let stats = cluster.stats();
    assert_eq!(stats.full_gathers, 0, "{what}: no gather fallback");
    // Every A panel reaches the q - 1 other ranks of its grid row, every B
    // panel the p - 1 other ranks of its grid column, whatever the layouts.
    assert_eq!(
        stats.bytes_communicated,
        (m * k * (q - 1) + k * n * (p - 1)) as u64 * ELEM_BYTES,
        "{what}: payload must equal the SUMMA volume"
    );
    // C never moves: rank (r, c) does all k depth steps of its own block.
    for rank in 0..grid.nranks() {
        let (m_loc, n_loc) = c.block(rank).shape();
        let local = m_loc * n_loc * k;
        assert_eq!(
            stats.rank_flops[rank] + stats.rank_real_macs[rank],
            local as u64,
            "{what}: rank {rank} must bill m_loc * n_loc * k MACs"
        );
    }
    assert_eq!(
        stats.total_flops() + stats.total_real_macs(),
        (m * n * k) as u64,
        "per-rank MAC billing must reconstruct exactly m*n*k"
    );
}

#[test]
fn summa_matches_local_gemm_across_grids_and_layouts() {
    let shapes = [
        (7usize, 9usize, 5usize),
        (16, 16, 16),
        (1, 1, 1),
        (13, 4, 21),
        (3, 130, 2), // many depth panels
    ];
    let grids = [(1usize, 1usize), (1, 4), (4, 1), (2, 2), (2, 3)];
    let mut seed = 1000;
    for &(p, q) in &grids {
        for &(m, k, n) in &shapes {
            for &blocks in &[(2usize, 3usize, 2usize), (5, 4, 7)] {
                check_case(ProcGrid::new(p, q), m, k, n, blocks, seed);
                seed += 1;
            }
        }
    }
}

#[test]
fn summa_handles_empty_operands() {
    for &(m, k, n) in &[(0usize, 4usize, 3usize), (4, 0, 3), (4, 3, 0), (0, 0, 0)] {
        check_case(ProcGrid::new(2, 2), m, k, n, (2, 2, 2), 7000 + (m + 2 * k + 4 * n) as u64);
    }
}

#[test]
fn summa_on_real_operands_runs_zero_complex_macs_per_rank() {
    let grid = ProcGrid::new(2, 3);
    let cluster = Cluster::new(grid.nranks());
    let mut rng = StdRng::seed_from_u64(42);
    let (m, k, n) = (17, 23, 11);
    let a = Matrix::random_real(m, k, &mut rng);
    let b = Matrix::random_real(k, n, &mut rng);
    let da = DistMatrix::scatter_block_cyclic(&cluster, &a, grid, 4, 5).unwrap();
    let db = DistMatrix::scatter_block_cyclic(&cluster, &b, grid, 5, 4).unwrap();
    assert!(da.is_real() && db.is_real());
    cluster.reset_stats();
    let c = da.matmul_dist(&db).expect("fault-free SUMMA cannot fail");
    assert!(c.is_real(), "the SUMMA product of hinted-real operands is marked real");
    assert!(c.gather_unaccounted().is_real());
    assert!(c.gather_unaccounted().max_diff(&matmul(&a, &b)) < 1e-12 * k as f64);
    let stats = cluster.stats();
    for (rank, &flops) in stats.rank_flops.iter().enumerate() {
        assert_eq!(flops, 0, "rank {rank} executed complex MACs on a real workload");
    }
    assert_eq!(stats.total_real_macs(), (m * n * k) as u64);
}

#[test]
fn summa_communicates_o_n2_over_sqrt_p_words_per_rank() {
    // Square problem on a square grid: the SUMMA traffic is exactly
    // m*k*(q-1) + k*n*(p-1) words, i.e. 2 n^2 (sqrt(P) - 1) total and
    // O(n^2 / sqrt(P)) per rank. The block-row baseline (the old
    // gather-everything matmul_dist dataflow) moves k*n*(P-1) words.
    let n = 64usize;
    let (p, q) = (4usize, 4usize);
    let nranks = p * q;
    let cluster = Cluster::new(nranks);
    let mut rng = StdRng::seed_from_u64(99);
    let a = Matrix::random(n, n, &mut rng);
    let b = Matrix::random(n, n, &mut rng);

    let grid = ProcGrid::new(p, q);
    let da = DistMatrix::scatter_block_cyclic(&cluster, &a, grid, 8, 8).unwrap();
    let db = DistMatrix::scatter_block_cyclic(&cluster, &b, grid, 8, 8).unwrap();
    cluster.reset_stats();
    let _ = da.matmul_dist(&db).unwrap();
    let summa_bytes = cluster.reset_stats().bytes_communicated;
    let expected_words = (n * n * (q - 1) + n * n * (p - 1)) as u64;
    assert_eq!(summa_bytes, expected_words * ELEM_BYTES, "SUMMA volume formula");

    // Per-rank bound: at most 2 n^2 / sqrt(P) words.
    let per_rank_words = expected_words / nranks as u64;
    let bound = (2.0 * (n * n) as f64 / (nranks as f64).sqrt()) as u64;
    assert!(
        per_rank_words <= bound,
        "per-rank SUMMA traffic {per_rank_words} exceeds 2 n^2 / sqrt(P) = {bound}"
    );

    // The block-row layout degenerates to allgather-B: k*n*(P-1) words.
    let ra = DistMatrix::scatter(&cluster, &a).unwrap();
    let rb = DistMatrix::scatter(&cluster, &b).unwrap();
    cluster.reset_stats();
    let _ = ra.matmul_dist(&rb).unwrap();
    let gather_bytes = cluster.reset_stats().bytes_communicated;
    assert_eq!(gather_bytes, (n * n * (nranks - 1)) as u64 * ELEM_BYTES);
    assert!(
        summa_bytes * 2 < gather_bytes,
        "SUMMA ({summa_bytes} B) should communicate far less than the \
         gather-everything path ({gather_bytes} B) on a {p}x{q} grid"
    );
}

#[test]
fn summa_rejects_mismatched_grids_and_shapes() {
    let cluster = Cluster::new(4);
    let a = Matrix::zeros(4, 4);
    let da = DistMatrix::scatter_block_cyclic(&cluster, &a, ProcGrid::new(2, 2), 2, 2).unwrap();
    let db_wrong_grid = DistMatrix::scatter(&cluster, &a).unwrap();
    let r = std::panic::catch_unwind(|| da.matmul_dist(&db_wrong_grid));
    assert!(r.is_err(), "mismatched grids must be rejected");
    let b = Matrix::zeros(5, 4);
    let db_wrong_shape =
        DistMatrix::scatter_block_cyclic(&cluster, &b, ProcGrid::new(2, 2), 2, 2).unwrap();
    let r = std::panic::catch_unwind(|| da.matmul_dist(&db_wrong_shape));
    assert!(r.is_err(), "inner dimension mismatch must be rejected");
}

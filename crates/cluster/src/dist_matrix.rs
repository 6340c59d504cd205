//! Matrices distributed over a 2-D processor grid.
//!
//! A [`DistMatrix`] maps its rows onto the grid rows and its columns onto the
//! grid columns of a [`ProcGrid`] (see [`crate::grid`] for the layout rules);
//! rank `(r, c)` stores the intersection of its grid row's global rows and
//! its grid column's global columns as one dense local [`Matrix`]. Two
//! layouts are in use:
//!
//! * **`P x 1`** (columns whole on every rank) — contiguous row blocks from
//!   [`DistMatrix::scatter`], or cyclic row blocks from
//!   [`DistMatrix::scatter_block_cyclic`] on [`ProcGrid::column`], which is
//!   how a distributed bond update scatters a site matricization; the layout
//!   under which [`DistMatrix::gram`] and [`gram_qr_dist`] need only one
//!   small allreduce (and the only one they accept),
//! * **2-D block-cyclic** ([`DistMatrix::scatter_block_cyclic`]) — the
//!   ScaLAPACK-style layout under which [`DistMatrix::matmul_dist`] runs
//!   SUMMA with `O(n^2 / sqrt(P))` words of traffic per rank instead of the
//!   gather-everything `O(n^2)`.
//!
//! Every scatter is billed and checksummed the same way: each block sent to
//! ranks `1..P` is one point-to-point message carrying its column checksum,
//! verified on arrival ([`crate::FaultSite::ScatterBlock`]).
//!
//! All dense work happens on the per-rank blocks through the same packed
//! GEMM (`koala_linalg::gemm_into` / `gemm_into_real`) the shared-memory
//! path uses — including its MC x NC macro-tiling and the real-only
//! microkernel — and anything that crosses rank boundaries is routed through
//! the [`Cluster`] so its communication counters reflect what a real
//! distributed run would move.
//!
//! ## SUMMA round structure
//!
//! `C = A * B` iterates over the common refinement of `A`'s column layout
//! and `B`'s row layout (the *depth panels*, [`crate::grid::refine`]). For
//! each panel `t` of width `kb`:
//!
//! ```text
//! 1. the grid column owning A(:, t) broadcasts its local panel rows along
//!    each grid row          — volume m_loc x kb to q - 1 receivers per row,
//! 2. the grid row owning B(t, :) broadcasts its local panel columns along
//!    each grid column       — volume kb x n_loc to p - 1 receivers per col,
//! 3. every rank accumulates C_loc += A_panel * B_panel with gemm_into
//!    (gemm_into_real when both panels carry the realness hint).
//! ```
//!
//! Summed over all panels each rank receives `m_loc k (q-1)/q + k n_loc
//! (p-1)/p` words — `O(n^2 (p + q) / P) = O(n^2 / sqrt(P))` on a square
//! grid — while the block-row layout degenerates to the old
//! allgather-everything volume (`q = 1` makes step 1 free and step 2 an
//! allgather of `B`). Realness rides along: panels are submatrices of hinted
//! blocks, so a real workload runs the real microkernel on every rank and
//! bills [`crate::CommStats::rank_real_macs`] instead of complex flops.
//!
//! ## The round engine
//!
//! `C` never moves (the stationary-C dataflow): every product runs one task
//! graph (`Summa::run`) holding, per round,
//!
//! ```text
//! comm(t)     ships both panels — bill the broadcast, attach the
//!             Huang–Abraham checksum, deliver to every verifier — through
//!             one side-generic helper ("A-side along grid rows" and "B-side
//!             along grid columns" are two calls of it); chained t -> t + 1,
//! gemm(t, r)  one per rank with a nonempty C block: the only gemm_into /
//!             gemm_into_real call site, accumulating into the rank's own
//!             block. Depends on comm(t) and on gemm(t - 1, r),
//! ```
//!
//! so the accumulation order of every output block is fixed by edges and the
//! product is bit-identical at any thread count, while round `t + 1`'s
//! broadcasts overlap round `t`'s local GEMMs on a multi-thread pool — which
//! is what [`crate::CostModel::modelled_time_overlap`] assumes when it prices
//! the one [`crate::RoundCost`] each round appends to
//! [`crate::CommStats::rounds`]. An armed [`crate::FaultPlan`] changes
//! nothing about the schedule: the product takes one operation number
//! before the graph runs, and every fault decision is keyed by that number
//! and its site, not by the order of the queries, so the fault suites
//! exercise the graph production runs, on the same pool.

use crate::cluster::{lock_ignore_poison, Cluster};
use crate::fault::{corrupt_index, FaultKind, FaultSite, Strike};
use crate::grid::{refine, Dist1D, Panel, ProcGrid};
use crate::stats::RoundCost;
use koala_error::{ErrorKind, KoalaError};
use koala_exec::{TaskGraph, TaskId, TaskKind};
use koala_linalg::{c64, matmul, matmul_adj_a, Matrix, C64};
use koala_linalg::{gemm_into, gemm_into_real, Op};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Maximum retransmissions of one checksummed transfer before the fault is
/// declared unrecoverable. Transient faults (the default
/// [`crate::FaultPlan`] mode) never need more than one.
pub(crate) const MAX_TRANSFER_RETRIES: usize = 3;

/// Relative tolerance for ABFT checksum verification, scaled per element by
/// the magnitude of the sender's checksum. The simulated wire is exact, so
/// any slack works; the scaling mirrors what a real implementation needs to
/// tolerate non-associative reduction order.
const ABFT_REL_TOL: f64 = 1e-8;

/// Huang–Abraham column checksum `e^T M`: one complex sum per column. Carried
/// with every `A`-side SUMMA panel and every gather/scatter block; for a
/// product `C = A B` the linearity `e^T (A B) = (e^T A) B` is what lets a
/// per-round verification of the carried sums certify the accumulated local
/// product without forming it twice.
fn column_checksum(m: &Matrix) -> Vec<C64> {
    let mut out = vec![c64(0.0, 0.0); m.ncols()];
    for i in 0..m.nrows() {
        for (o, v) in out.iter_mut().zip(m.row(i)) {
            *o = c64(o.re + v.re, o.im + v.im);
        }
    }
    out
}

/// Huang–Abraham row checksum `M e`: one complex sum per row (the `B`-side
/// dual of [`column_checksum`], via `(A B) e = A (B e)`).
fn row_checksum(m: &Matrix) -> Vec<C64> {
    (0..m.nrows())
        .map(|i| {
            let (mut re, mut im) = (0.0, 0.0);
            for v in m.row(i) {
                re += v.re;
                im += v.im;
            }
            c64(re, im)
        })
        .collect()
}

/// Element-wise comparison of a recomputed checksum against the one the
/// sender transmitted.
fn checksums_match(got: &[C64], sent: &[C64]) -> bool {
    got.len() == sent.len()
        && got.iter().zip(sent).all(|(g, s)| {
            let scale = 1.0 + s.re.abs() + s.im.abs();
            (g.re - s.re).abs() + (g.im - s.im).abs() <= ABFT_REL_TOL * scale
        })
}

/// Materialise what the receiver actually sees when a fault strikes the
/// delivery of `pristine`: a dropped block arrives as zeros, a corrupted one
/// has the element its decision hash picks blown far past the checksum
/// tolerance.
fn apply_fault(pristine: &Matrix, (kind, hash): Strike) -> Matrix {
    match kind {
        FaultKind::Drop => Matrix::zeros(pristine.nrows(), pristine.ncols()),
        _ => {
            let mut m = pristine.clone();
            let len = m.nrows() * m.ncols();
            if len > 0 {
                let idx = corrupt_index(hash, len);
                let bump = 1e3 * (1.0 + pristine.norm_max());
                let data = m.data_mut();
                let v = data[idx];
                data[idx] = c64(v.re + bump, v.im);
            }
            m
        }
    }
}

/// Simulated checksummed delivery of one block to one receiver. The sender's
/// Huang–Abraham checksum (`checksum_of(pristine)`, already billed to
/// [`crate::CommStats::checksum_bytes`] by the caller) rides with the
/// payload; the receiver recomputes it over what arrived, and a mismatch
/// triggers a retransmission billed to [`crate::CommStats::retry_bytes`] —
/// bounded by [`MAX_TRANSFER_RETRIES`], after which the fault is reported as
/// unrecoverable. The verification sums are O(block) additions and are not
/// billed to the work counters (they are metadata upkeep, not useful MACs).
fn deliver_checksummed(
    cluster: &Cluster,
    op: u64,
    pristine: &Matrix,
    sent_sum: &[C64],
    checksum_of: fn(&Matrix) -> Vec<C64>,
    site: FaultSite,
) -> koala_error::Result<()> {
    let mut attempt = 0usize;
    loop {
        if attempt > 0 {
            cluster.record_retry(pristine.nrows() * pristine.ncols() + sent_sum.len());
            if matches!(site, FaultSite::SummaPanelA { .. } | FaultSite::SummaPanelB { .. }) {
                koala_error::recovery::note_summa_round_retry();
            } else {
                koala_error::recovery::note_collective_retry();
            }
        }
        let ok = match cluster.fault_at(op, site, attempt) {
            // The simulated wire delivered the sender's buffer verbatim.
            None => true,
            Some(strike) => checksums_match(&checksum_of(&apply_fault(pristine, strike)), sent_sum),
        };
        if ok {
            return Ok(());
        }
        attempt += 1;
        if attempt > MAX_TRANSFER_RETRIES {
            return Err(KoalaError::new(
                ErrorKind::Fault,
                format!(
                    "checksum mismatch persists after {MAX_TRANSFER_RETRIES} retries at {site:?}"
                ),
            ));
        }
    }
}

/// The grid axis a panel shipment travels along, named after the operand it
/// carries. `A`: a group is one grid row and its `q` ranks, transfers carry a
/// column checksum and are [`FaultSite::SummaPanelA`] sites. `B` is the
/// mirror image: one grid column, `p` ranks, row checksum,
/// [`FaultSite::SummaPanelB`].
#[derive(Debug, Clone, Copy)]
enum Side {
    A,
    B,
}

impl Side {
    fn checksum(self) -> fn(&Matrix) -> Vec<C64> {
        match self {
            Side::A => column_checksum,
            Side::B => row_checksum,
        }
    }

    fn site(self, round: usize, rank: usize) -> FaultSite {
        match self {
            Side::A => FaultSite::SummaPanelA { round, rank },
            Side::B => FaultSite::SummaPanelB { round, rank },
        }
    }

    /// `(number of groups, ranks per group)` on `grid`.
    fn extents(self, grid: ProcGrid) -> (usize, usize) {
        match self {
            Side::A => (grid.rows(), grid.cols()),
            Side::B => (grid.cols(), grid.rows()),
        }
    }

    /// Rank of the `member`-th rank of `group`.
    fn rank(self, grid: ProcGrid, group: usize, member: usize) -> usize {
        match self {
            Side::A => grid.rank_of(group, member),
            Side::B => grid.rank_of(member, group),
        }
    }
}

/// One panel as its group received it, plus the length of the checksum
/// vector that rode along (a restarted rank re-fetches both).
struct Shipped {
    panel: Matrix,
    sum_len: usize,
}

/// Both operands' panels of one round, indexed by group: `a[r]` is grid row
/// `r`'s `A` panel, `b[c]` grid column `c`'s `B` panel.
struct RoundPanels {
    a: Vec<Shipped>,
    b: Vec<Shipped>,
}

/// One planned SUMMA product `C = A * B`: the operands, the depth panels
/// (the common refinement of `A`'s column and `B`'s row layouts) that the
/// round engine ([`Summa::run`]) iterates over, and the operation number
/// keying its fault decisions. `C` takes `A`'s row and `B`'s column layout.
struct Summa<'a> {
    a: &'a DistMatrix,
    b: &'a DistMatrix,
    panels: Vec<Panel>,
    op: u64,
}

impl Summa<'_> {
    /// Bill one broadcast of `elems` elements to each of `receivers` ranks to
    /// the cluster counters and to the round's overlap ledger.
    fn bill(&self, cost: &mut RoundCost, elems: usize, receivers: usize) {
        if receivers == 0 {
            return; // a group of one broadcasts nothing
        }
        self.a.cluster.record_bcast(elems * receivers, receivers);
        cost.comm_elems += (elems * receivers) as u64;
        cost.messages += receivers as u64;
    }

    /// Ship round `t`'s panel of the `side` operand within group `g`: the
    /// owning member slices it out of its resident block and broadcasts it to
    /// the other members, each of which verifies the checksum that rode
    /// along.
    fn ship(
        &self,
        side: Side,
        t: usize,
        panel: Panel,
        g: usize,
        cost: &mut RoundCost,
    ) -> koala_error::Result<Shipped> {
        let grid = self.a.grid;
        let (_, members) = side.extents(grid);
        let (owner, data) = match side {
            Side::A => {
                let block = &self.a.blocks[grid.rank_of(g, panel.a_owner)];
                (panel.a_owner, block.submatrix(0, panel.a_local, block.nrows(), panel.len))
            }
            Side::B => {
                let block = &self.b.blocks[grid.rank_of(panel.b_owner, g)];
                (panel.b_owner, block.submatrix(panel.b_local, 0, panel.len, block.ncols()))
            }
        };
        self.bill(cost, data.nrows() * data.ncols(), members - 1);
        let verifiers: Vec<usize> =
            (0..members).filter(|&j| j != owner).map(|j| side.rank(grid, g, j)).collect();
        let checksum_of = side.checksum();
        let sum = checksum_of(&data);
        self.a.cluster.record_checksum(sum.len() * verifiers.len());
        for rank in verifiers {
            deliver_checksummed(
                &self.a.cluster,
                self.op,
                &data,
                &sum,
                checksum_of,
                side.site(t, rank),
            )
            .map_err(|e| {
                e.context(format!("matmul_dist: SUMMA round {t}, {side:?} panel to rank {rank}"))
            })?;
        }
        Ok(Shipped { panel: data, sum_len: sum.len() })
    }

    /// Whether `rank` holds a nonempty block of `C` (else it sits out).
    fn computes(&self, rank: usize) -> bool {
        let (r, c) = self.a.grid.coords_of(rank);
        self.a.rows.local_len(r) > 0 && self.b.cols.local_len(c) > 0
    }

    /// Communication phase of round `t`: ship the `A` panel to every grid
    /// row and the `B` panel to every grid column. A rank that a planned
    /// failure strikes this round has lost the panels and re-fetches them
    /// (plus their checksum vectors), so all fault traffic is in comm tasks.
    fn round_comm(
        &self,
        t: usize,
        panel: Panel,
        cost: &mut RoundCost,
    ) -> koala_error::Result<RoundPanels> {
        let grid = self.a.grid;
        let ship_all = |side: Side, cost: &mut RoundCost| {
            (0..side.extents(grid).0)
                .map(|g| self.ship(side, t, panel, g, cost))
                .collect::<koala_error::Result<Vec<_>>>()
        };
        let a = ship_all(Side::A, cost)?;
        let b = ship_all(Side::B, cost)?;
        for rank in (0..grid.nranks()).filter(|&rank| self.computes(rank)) {
            let site = FaultSite::SummaCompute { round: t, rank };
            if self.a.cluster.fault_at(self.op, site, 0).is_some() {
                let (r, c) = grid.coords_of(rank);
                let len = |s: &Shipped| s.panel.nrows() * s.panel.ncols() + s.sum_len;
                self.a.cluster.record_retry(len(&a[r]) + len(&b[c]));
                koala_error::recovery::note_summa_round_retry();
            }
        }
        Ok(RoundPanels { a, b })
    }

    /// Rank `rank`'s local product for a round through the packed GEMM,
    /// accumulated into its own block; its MACs go to the round's ledger.
    fn rank_update(
        &self,
        rank: usize,
        panels: &RoundPanels,
        cost: &Mutex<RoundCost>,
        out: &mut Matrix,
    ) {
        let (r, c) = self.a.grid.coords_of(rank);
        let (lhs, rhs) = (&panels.a[r].panel, &panels.b[c].panel);
        let (m, k, n) = (lhs.nrows(), lhs.ncols(), rhs.ncols());
        let real = lhs.is_real() && rhs.is_real();
        {
            let mut cost = lock_ignore_poison(cost);
            let per_rank = if real { &mut cost.rank_rmacs } else { &mut cost.rank_cmacs };
            per_rank[rank] += (m * n * k) as u64;
        }
        let acc = out.data_mut();
        if real {
            gemm_into_real(Op::None, Op::None, m, n, k, lhs.data(), rhs.data(), acc);
        } else {
            gemm_into(Op::None, Op::None, m, n, k, lhs.data(), rhs.data(), acc);
        }
    }

    /// The round engine. Per round, one [`TaskKind::Comm`] task
    /// ([`Summa::round_comm`]) chained `t -> t + 1`, and one
    /// [`TaskKind::Gemm`] task per rank with a nonempty output block
    /// ([`Summa::rank_update`]) depending on its round's comm task and on
    /// the rank's previous Gemm task. That chain fixes the floating-point
    /// accumulation order of every output block, so the result is
    /// bit-identical at any thread count; what a multi-thread pool buys is
    /// round `t + 1`'s broadcasts running while round `t`'s local GEMMs are
    /// still in flight — the overlap
    /// [`crate::CostModel::modelled_time_overlap`] prices.
    ///
    /// An armed fault plan runs the same graph: its decisions do not depend
    /// on query order. Per-round costs and MACs are billed in round order
    /// once the graph succeeds, so a failed product bills only its comm
    /// chain, the same at any thread count.
    fn run(&self) -> koala_error::Result<Vec<Matrix>> {
        let grid = self.a.grid;
        let nranks = grid.nranks();
        let out_blocks: Vec<Mutex<Matrix>> = (0..nranks)
            .map(|rank| {
                let (r, c) = grid.coords_of(rank);
                Mutex::new(Matrix::zeros(self.a.rows.local_len(r), self.b.cols.local_len(c)))
            })
            .collect();
        let costs: Vec<Mutex<RoundCost>> = (0..self.panels.len())
            .map(|_| {
                Mutex::new(RoundCost {
                    rank_cmacs: vec![0; nranks],
                    rank_rmacs: vec![0; nranks],
                    ..Default::default()
                })
            })
            .collect();
        let shipped: Vec<OnceLock<RoundPanels>> =
            (0..self.panels.len()).map(|_| OnceLock::new()).collect();

        let mut graph = TaskGraph::new();
        let mut prev_comm: Option<TaskId> = None;
        let mut prev_gemm: Vec<Option<TaskId>> = vec![None; nranks];
        for (t, panel) in self.panels.iter().copied().enumerate() {
            let (cost, cell) = (&costs[t], &shipped[t]);
            let comm = graph.add(TaskKind::Comm, prev_comm.as_slice(), move || {
                let panels = self.round_comm(t, panel, &mut lock_ignore_poison(cost))?;
                let _ = cell.set(panels);
                Ok(())
            });
            prev_comm = Some(comm);
            for (rank, out) in out_blocks.iter().enumerate() {
                if !self.computes(rank) {
                    continue;
                }
                let deps: Vec<TaskId> =
                    [Some(comm), prev_gemm[rank]].into_iter().flatten().collect();
                let id = graph.add(TaskKind::Gemm, &deps, move || {
                    let panels = cell.get().ok_or_else(|| {
                        KoalaError::new(
                            ErrorKind::InvalidArgument,
                            format!("SUMMA round {t}: panels missing for compute task"),
                        )
                    })?;
                    // Uncontended: a rank's Gemm tasks are chained.
                    self.rank_update(rank, panels, cost, &mut lock_ignore_poison(out));
                    Ok(())
                });
                prev_gemm[rank] = Some(id);
            }
        }
        graph.run()?;
        for cost in costs {
            self.a.cluster.record_round(cost.into_inner().unwrap_or_else(PoisonError::into_inner));
        }
        Ok(out_blocks
            .into_iter()
            .map(|b| b.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect())
    }
}

/// A matrix distributed over the ranks of a [`Cluster`] by a 2-D processor
/// grid (block-row by default; block-cyclic for SUMMA). See the module docs
/// for the layout rules.
#[derive(Debug, Clone)]
pub struct DistMatrix {
    cluster: Cluster,
    grid: ProcGrid,
    rows: Dist1D,
    cols: Dist1D,
    /// One local block per rank, indexed by `grid.rank_of(r, c)`; rank
    /// `(r, c)`'s block has shape `rows.local_len(r) x cols.local_len(c)`.
    blocks: Vec<Matrix>,
}

/// Extract rank `(r, c)`'s local block of a replicated matrix (realness hint
/// preserved).
fn local_block(matrix: &Matrix, rows: &Dist1D, r: usize, cols: &Dist1D, c: usize) -> Matrix {
    let mut out = Matrix::zeros(rows.local_len(r), cols.local_len(c));
    {
        let dst_cols = out.ncols();
        let data = out.data_mut();
        for rs in rows.segments().iter().filter(|s| s.owner == r) {
            for cs in cols.segments().iter().filter(|s| s.owner == c) {
                for i in 0..rs.len {
                    let src = &matrix.row(rs.start + i)[cs.start..cs.start + cs.len];
                    data[(rs.local_start + i) * dst_cols + cs.local_start..][..cs.len]
                        .copy_from_slice(src);
                }
            }
        }
    }
    if matrix.is_real() {
        out.assume_real();
    }
    out
}

impl DistMatrix {
    /// Distribute a replicated matrix across the cluster by contiguous row
    /// blocks (an MPI `scatter` from rank 0 on a `P x 1` grid: every block
    /// except rank 0's own travels over the wire). Columns stay replicated
    /// within each rank's block, which is what the Gram helpers require.
    ///
    /// Every block sent travels with its column checksum and is verified on
    /// arrival; a [`crate::FaultPlan::persistent`] fault that outlasts the
    /// retry budget is an [`ErrorKind::Fault`] error.
    pub fn scatter(cluster: &Cluster, matrix: &Matrix) -> koala_error::Result<Self> {
        let rows = Dist1D::balanced(matrix.nrows(), cluster.nranks());
        let cols = Dist1D::whole(matrix.ncols());
        Self::scatter_with(cluster, matrix, ProcGrid::column(cluster.nranks()), rows, cols)
    }

    /// Distribute a replicated matrix in the ScaLAPACK block-cyclic layout
    /// over an explicit grid with the given row/column block sizes (a
    /// scatter from rank 0, charged and checked like [`DistMatrix::scatter`]).
    pub fn scatter_block_cyclic(
        cluster: &Cluster,
        matrix: &Matrix,
        grid: ProcGrid,
        row_block: usize,
        col_block: usize,
    ) -> koala_error::Result<Self> {
        let rows = Dist1D::cyclic(matrix.nrows(), grid.rows(), row_block);
        let cols = Dist1D::cyclic(matrix.ncols(), grid.cols(), col_block);
        Self::scatter_with(cluster, matrix, grid, rows, cols)
    }

    fn scatter_with(
        cluster: &Cluster,
        matrix: &Matrix,
        grid: ProcGrid,
        rows: Dist1D,
        cols: Dist1D,
    ) -> koala_error::Result<Self> {
        assert_eq!(grid.nranks(), cluster.nranks(), "scatter: grid does not cover the cluster");
        assert_eq!(rows.parts(), grid.rows(), "scatter: row layout does not match the grid");
        assert_eq!(cols.parts(), grid.cols(), "scatter: column layout does not match the grid");
        let op = cluster.begin_op();
        let mut blocks = Vec::with_capacity(cluster.nranks());
        for rank in 0..cluster.nranks() {
            let (r, c) = grid.coords_of(rank);
            let block = local_block(matrix, &rows, r, &cols, c);
            if rank != 0 {
                cluster.record_p2p(block.nrows() * block.ncols());
                // Each scattered block travels with its column checksum and
                // is verified on arrival, exactly like a SUMMA panel.
                let sum = column_checksum(&block);
                cluster.record_checksum(sum.len());
                let site = FaultSite::ScatterBlock { rank };
                deliver_checksummed(cluster, op, &block, &sum, column_checksum, site)
                    .map_err(|e| e.context(format!("scatter: rank {rank}'s block")))?;
            }
            blocks.push(block);
        }
        Ok(DistMatrix { cluster: cluster.clone(), grid, rows, cols, blocks })
    }

    /// Assemble the full matrix on rank 0 only (an MPI `gather`). Every
    /// foreign block travels with its column checksum and is verified on
    /// arrival (one [`FaultSite::GatherBlock`] per source block); a
    /// [`crate::FaultPlan::persistent`] fault that outlasts the retry budget
    /// is an [`ErrorKind::Fault`] error.
    pub fn gather(&self) -> koala_error::Result<Matrix> {
        self.cluster.record_full_gather();
        let foreign = self.blocks.iter().enumerate().skip(1);
        let elems = foreign.clone().map(|(_, b)| b.nrows() * b.ncols()).sum();
        self.cluster.record_collective(elems, 1);
        let op = self.cluster.begin_op();
        for (rank, block) in foreign {
            let sum = column_checksum(block);
            self.cluster.record_checksum(sum.len());
            let site = FaultSite::GatherBlock { rank };
            deliver_checksummed(&self.cluster, op, block, &sum, column_checksum, site)
                .map_err(|e| e.context(format!("gather: rank {rank}'s block")))?;
        }
        Ok(self.gather_local())
    }

    /// Concatenate the blocks without touching the communication counters.
    ///
    /// This is a driver/testing utility: in a real distributed run the result
    /// would stay distributed, so callers that only need the data back on the
    /// host (e.g. to hand a kernel's output to the next, still-local, stage of
    /// a benchmark) use this to avoid charging communication that the modelled
    /// execution would not perform. The realness hint survives (the gathered
    /// matrix of all-real blocks is marked real), so a real workload stays on
    /// the real kernel after leaving the cluster.
    pub fn gather_unaccounted(&self) -> Matrix {
        self.gather_local()
    }

    /// Reassemble the full matrix from the local blocks without touching the
    /// communication counters (used internally after the communication has
    /// already been charged).
    pub(crate) fn gather_local(&self) -> Matrix {
        self.submatrix_global(0, self.nrows(), 0, self.ncols())
    }

    /// Shape of the full matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows.n(), self.cols.n())
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows.n()
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols.n()
    }

    /// The cluster this matrix lives on.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The processor grid this matrix is distributed over.
    pub fn grid(&self) -> ProcGrid {
        self.grid
    }

    /// Structural realness of the distributed data: `true` iff every rank's
    /// local block carries the [`Matrix::is_real`] hint, i.e. the whole
    /// distributed matrix is guaranteed purely real. Propagated by scatter,
    /// gather, SUMMA, and every mutator on this type, exactly like the local
    /// hint.
    pub fn is_real(&self) -> bool {
        self.blocks.iter().all(|b| b.is_real())
    }

    /// Immutable access to one rank's local block.
    pub fn block(&self, rank: usize) -> &Matrix {
        &self.blocks[rank]
    }

    /// `C = self * B` where `B` is replicated on every rank. Requires the
    /// column-replicated (grid `p x 1`) layout: each rank multiplies its row
    /// block by `B`, so the result keeps the row distribution of `self` and
    /// no communication is required.
    pub fn matmul_replicated(&self, b: &Matrix) -> DistMatrix {
        assert_eq!(self.ncols(), b.nrows(), "matmul_replicated: inner dimension mismatch");
        assert_eq!(
            self.grid.cols(),
            1,
            "matmul_replicated: requires a column-replicated (p x 1) layout"
        );
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (rank, block) in self.blocks.iter().enumerate() {
            let macs = (block.nrows() * block.ncols() * b.ncols()) as u64;
            self.cluster.record_macs(rank, macs, block.is_real() && b.is_real());
            blocks.push(matmul(block, b));
        }
        DistMatrix {
            cluster: self.cluster.clone(),
            grid: self.grid,
            rows: self.rows.clone(),
            cols: Dist1D::whole(b.ncols()),
            blocks,
        }
    }

    /// `C = self * other`: SUMMA over the shared processor grid (see the
    /// module docs for the round structure and traffic bound). Both operands
    /// must live on the same grid; the depth panels are the common refinement
    /// of `self`'s column layout and `other`'s row layout, so any mix of
    /// block and block-cyclic layouts works — a `P x 1` block-row pair
    /// degenerates to the old allgather-`B` dataflow, while a square-grid
    /// block-cyclic pair communicates `O(n^2 / sqrt(P))` words per rank.
    ///
    /// Every per-rank local product runs through the packed
    /// [`gemm_into`] (the real-only [`gemm_into_real`] when both panels carry
    /// the realness hint), and the result preserves both the distribution
    /// (`self`'s rows x `other`'s columns) and the realness of its operands.
    ///
    /// ## Fault tolerance (ABFT)
    ///
    /// Every panel broadcast carries a Huang–Abraham checksum vector
    /// (the column checksum of the `A` panel, the row checksum of the `B`
    /// panel — one complex element per depth index, billed to
    /// [`crate::CommStats::checksum_bytes`]). Each receiving rank re-derives
    /// the sums over what actually arrived, so a corrupted or dropped
    /// delivery is *detected in the round it happens* and *recovered* by
    /// retransmitting just that panel to just that rank (bounded by
    /// `MAX_TRANSFER_RETRIES`, billed to [`crate::CommStats::retry_bytes`]).
    /// A planned rank failure ([`crate::FaultPlan::fail_rank`]) costs the
    /// restarted rank a re-fetch of both of the round's panels. Errors are
    /// only possible under a [`crate::FaultPlan::persistent`] fault plan that
    /// outlasts the retry budget; the recovered result is bit-identical to
    /// the fault-free run because detection precedes accumulation.
    pub fn matmul_dist(&self, other: &DistMatrix) -> koala_error::Result<DistMatrix> {
        assert_eq!(
            self.cluster.nranks(),
            other.cluster.nranks(),
            "matmul_dist: operands live on different clusters"
        );
        assert_eq!(self.grid, other.grid, "matmul_dist: operands must share the processor grid");
        assert_eq!(self.ncols(), other.nrows(), "matmul_dist: inner dimension mismatch");
        let panels = refine(&self.cols, &other.rows);
        let summa = Summa { a: self, b: other, panels, op: self.cluster.begin_op() };
        let mut blocks = summa.run()?;
        if self.is_real() && other.is_real() {
            // The real kernel only ever wrote real parts into zeroed blocks.
            for b in &mut blocks {
                b.assume_real();
            }
        }
        Ok(DistMatrix {
            cluster: self.cluster.clone(),
            grid: self.grid,
            rows: self.rows.clone(),
            cols: other.cols.clone(),
            blocks,
        })
    }

    /// Assemble the global contiguous range `[row0, row0+nrows) x
    /// [col0, col0+ncols)` from whichever blocks hold it — a local data-
    /// marshalling step; the caller bills whatever movement its dataflow
    /// implies. The realness hint survives when every contributing block
    /// carries it.
    fn submatrix_global(&self, row0: usize, nrows: usize, col0: usize, ncols: usize) -> Matrix {
        let mut out = Matrix::zeros(nrows, ncols);
        let mut all_real = true;
        {
            let width = out.ncols();
            let data = out.data_mut();
            for rs in &self.rows.segments() {
                let rlo = rs.start.max(row0);
                let rhi = (rs.start + rs.len).min(row0 + nrows);
                if rlo >= rhi {
                    continue;
                }
                for cs in &self.cols.segments() {
                    let clo = cs.start.max(col0);
                    let chi = (cs.start + cs.len).min(col0 + ncols);
                    if clo >= chi {
                        continue;
                    }
                    let block = &self.blocks[self.grid.rank_of(rs.owner, cs.owner)];
                    all_real &= block.is_real();
                    for i in rlo..rhi {
                        let li = rs.local_start + (i - rs.start);
                        let src = &block.row(li)[cs.local_start + (clo - cs.start)..][..chi - clo];
                        data[(i - row0) * width + (clo - col0)..][..chi - clo].copy_from_slice(src);
                    }
                }
            }
        }
        if all_real {
            out.assume_real();
        }
        out
    }

    /// Replicated Gram matrix `G = self^H * self` — the communication
    /// pattern of the paper's Algorithm 5: a sum of per-rank local Gram
    /// matrices followed by an allreduce of the small `ncols x ncols`
    /// result, so the tall operand never moves. Realness flows through: a
    /// real operand bills real MACs and yields a hint-carrying real Gram
    /// matrix.
    ///
    /// Requires the column-replicated (grid `p x 1`) layout, where every
    /// rank holds whole rows; a 2-D grid is an
    /// [`ErrorKind::InvalidArgument`] error.
    ///
    /// ```
    /// use koala_cluster::{Cluster, DistMatrix};
    /// use koala_error::ErrorKind;
    /// use koala_linalg::matmul_adj_a;
    /// use koala_linalg::Matrix;
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    ///
    /// let cluster = Cluster::new(4);
    /// let mut rng = StdRng::seed_from_u64(7);
    /// let a = Matrix::random(12, 5, &mut rng);
    /// let d = DistMatrix::scatter(&cluster, &a).unwrap(); // 4 x 1 grid
    /// let g = d.gram().unwrap();
    /// assert!(g.max_diff(&matmul_adj_a(&a, &a)) < 1e-12);
    /// assert_eq!(cluster.stats().full_gathers, 0); // no gather fallback
    ///
    /// let d2 = DistMatrix::scatter_block_cyclic(&cluster, &a, cluster.grid(), 3, 2).unwrap(); // 2 x 2
    /// assert_eq!(d2.gram().unwrap_err().kind(), ErrorKind::InvalidArgument);
    /// ```
    pub fn gram(&self) -> koala_error::Result<Matrix> {
        if self.grid.cols() != 1 {
            return Err(KoalaError::new(
                ErrorKind::InvalidArgument,
                format!(
                    "gram: requires a column-replicated (p x 1) layout, got a {} x {} grid",
                    self.grid.rows(),
                    self.grid.cols()
                ),
            ));
        }
        let n = self.ncols();
        let mut g = Matrix::zeros(n, n);
        for (rank, block) in self.blocks.iter().enumerate() {
            let macs = (block.nrows() * n * n) as u64;
            self.cluster.record_macs(rank, macs, block.is_real());
            let local = matmul_adj_a(block, block);
            g += &local;
        }
        // Allreduce of an ncols x ncols matrix (tree: log P rounds, but the
        // flat volume model is what the paper's analysis uses).
        self.cluster.record_collective(n * n * (self.cluster.nranks() - 1), 2);
        Ok(g)
    }

    /// Scale every element in place. The realness hint follows the local
    /// [`Matrix::scale_inplace`] rule (it survives a finite real scalar),
    /// and the per-rank multiplies are billed to the work counters — real
    /// MACs when a real block is scaled by a real scalar, complex otherwise.
    pub fn scale_inplace(&mut self, s: C64) {
        for (rank, b) in self.blocks.iter_mut().enumerate() {
            let real = b.is_real() && s.im == 0.0;
            self.cluster.record_macs(rank, b.nrows() as u64 * b.ncols() as u64, real);
            b.scale_inplace(s);
        }
    }
}

/// Result of a distributed QR factorization: `Q` keeps the row distribution of
/// the input, `R` (and `R^{-1}` when available) are small replicated matrices.
#[derive(Debug, Clone)]
pub struct DistQr {
    /// Distributed isometric factor.
    pub q: DistMatrix,
    /// Replicated triangular / square factor with `A = Q R`.
    pub r: Matrix,
    /// Replicated inverse of `R` (only produced by the Gram path).
    pub r_inv: Option<Matrix>,
}

/// Distributed QR through the Gram matrix (paper Algorithm 5) on the
/// column-replicated (grid `p x 1`) layout: the only collective is the
/// allreduce of the tiny `ncols x ncols` Gram matrix ([`DistMatrix::gram`],
/// whose [`ErrorKind::InvalidArgument`] rejection of a 2-D grid this
/// returns), and the big operand is never gathered or redistributed. A
/// realness-hinted operand keeps the
/// whole factorization on the real path — the Gram matrix, the replicated
/// eigendecomposition, the `R` factors, and the distributed `Q` all carry the
/// hint, and every rank bills real MACs only.
///
/// Ill-conditioning is detected, not suffered: if the Gram matrix fails the
/// health rule of [`koala_linalg::gram_factors`] (the squared condition
/// number destroyed the spectrum — the paper's own stability caveat for
/// Algorithm 5), the routine degrades to [`qr_gather_dist`] — the stable
/// gather/factorize/scatter baseline, at its redistribution cost — and notes
/// the degradation on the [`koala_error::recovery`] counters. Non-finite *input* blocks are
/// rejected up front: no factorization can repair them.
pub fn gram_qr_dist(a: &DistMatrix) -> koala_error::Result<DistQr> {
    let n = a.ncols();
    let g = a.gram()?;
    // Every rank performs the identical small eigendecomposition and factor
    // assembly (replicated, as in the paper where the Gram matrix is sent to
    // local memory), through the same helper as `koala_linalg::gram_qr`.
    let Some((r, r_inv)) = koala_linalg::gram_factors(&g) else {
        for rank in 0..a.cluster().nranks() {
            a.block(rank)
                .validate_finite("gram_qr_dist input block")
                .map_err(|err| err.context(format!("rank {rank}")))?;
        }
        koala_error::recovery::note_qr_degradation();
        return qr_gather_dist(a);
    };
    a.cluster().record_macs_all((n * n * n) as u64, g.is_real());
    // Q = A R^{-1}: a purely local multiply on each row block.
    let q = a.matmul_replicated(&r_inv);
    Ok(DistQr { q, r, r_inv: Some(r_inv) })
}

/// Baseline distributed QR that mirrors what a generic distributed tensor
/// framework does when asked to matricize and factorize: gather the full
/// operand to one rank, factorize there, then scatter `Q` and broadcast `R`.
/// This is the expensive "reshape + ScaLAPACK" path that Algorithm 5 avoids.
/// Its gather and scatter are checksummed; a fault that outlasts the retry
/// budget is an [`ErrorKind::Fault`] error.
pub fn qr_gather_dist(a: &DistMatrix) -> koala_error::Result<DistQr> {
    let full = a.gather()?;
    let cluster = a.cluster();
    // Rank 0 performs the factorization.
    let f = koala_linalg::qr(&full);
    cluster.record_macs(0, (full.nrows() * full.ncols() * full.ncols() * 2) as u64, full.is_real());
    // Scatter Q back to the original distribution (Q keeps A's rows; its
    // `min(m, n)` columns take a layout of A's column family), broadcast R.
    let q_cols = a.cols.like_parts(f.q.ncols(), a.grid().cols());
    let q = DistMatrix::scatter_with(cluster, &f.q, a.grid(), a.rows.clone(), q_cols)?;
    cluster.record_collective(f.r.nrows() * f.r.ncols() * (cluster.nranks() - 1), 1);
    cluster.record_redistribution(full.nrows() * full.ncols());
    Ok(DistQr { q, r: f.r, r_inv: None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cluster_and_matrix(
        nranks: usize,
        m: usize,
        n: usize,
        seed: u64,
    ) -> (Cluster, Matrix, DistMatrix) {
        let cluster = Cluster::new(nranks);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(m, n, &mut rng);
        let d = DistMatrix::scatter(&cluster, &a).unwrap();
        (cluster, a, d)
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let (_c, a, d) = cluster_and_matrix(4, 10, 3, 1);
        assert!(d.gather().unwrap().approx_eq(&a, 0.0));
        assert!(d.gather_unaccounted().approx_eq(&a, 0.0));
        assert_eq!(d.shape(), (10, 3));
    }

    #[test]
    fn block_cyclic_scatter_gather_roundtrip() {
        let cluster = Cluster::new(6);
        let mut rng = StdRng::seed_from_u64(60);
        let a = Matrix::random(13, 11, &mut rng);
        let d = DistMatrix::scatter_block_cyclic(&cluster, &a, ProcGrid::new(2, 3), 2, 3).unwrap();
        assert_eq!(d.grid().rows(), 2);
        assert_eq!(d.grid().cols(), 3);
        assert!(d.gather().unwrap().approx_eq(&a, 0.0));
        // Local shapes follow the cyclic layout.
        for rank in 0..6 {
            let (r, c) = d.grid().coords_of(rank);
            assert_eq!(d.block(rank).shape(), (d.rows.local_len(r), d.cols.local_len(c)));
        }
    }

    #[test]
    fn more_ranks_than_rows_is_fine() {
        let (_c, a, d) = cluster_and_matrix(8, 3, 2, 2);
        assert!(d.gather().unwrap().approx_eq(&a, 0.0));
        assert_eq!(d.block(7).nrows(), 0);
    }

    #[test]
    fn replicated_matmul_matches_local() {
        let (_c, a, d) = cluster_and_matrix(3, 12, 5, 3);
        let mut rng = StdRng::seed_from_u64(30);
        let b = Matrix::random(5, 4, &mut rng);
        let c_dist = d.matmul_replicated(&b);
        assert!(c_dist.gather_local().max_diff(&matmul(&a, &b)) < 1e-11);
    }

    #[test]
    fn dist_matmul_matches_local() {
        let cluster = Cluster::new(4);
        let mut rng = StdRng::seed_from_u64(31);
        let a = Matrix::random(9, 6, &mut rng);
        let b = Matrix::random(6, 7, &mut rng);
        let da = DistMatrix::scatter(&cluster, &a).unwrap();
        let db = DistMatrix::scatter(&cluster, &b).unwrap();
        let c = da.matmul_dist(&db).unwrap();
        assert!(c.gather_local().max_diff(&matmul(&a, &b)) < 1e-11);
        // Communication was recorded for scatter + panel broadcasts.
        let stats = cluster.stats();
        assert!(stats.bytes_communicated > 0);
        assert!(stats.total_flops() > 0);
    }

    #[test]
    fn scatter_and_mutators_propagate_realness() {
        let cluster = Cluster::new(4);
        let mut rng = StdRng::seed_from_u64(32);
        let a = Matrix::random_real(10, 6, &mut rng);
        let mut d = DistMatrix::scatter(&cluster, &a).unwrap();
        assert!(d.is_real(), "scatter keeps the hint on every block");
        assert!(d.gather_unaccounted().is_real(), "gather keeps the hint");
        d.scale_inplace(C64::from_real(2.0));
        assert!(d.is_real(), "real scaling keeps the hint");
        d.scale_inplace(koala_linalg::c64(0.0, 1.0));
        assert!(!d.is_real(), "complex scaling drops the hint");
        // Scaling work was billed: once real, once complex.
        let s = cluster.stats();
        assert!(s.total_real_macs() > 0 && s.total_flops() > 0);
    }

    #[test]
    fn gram_matches_local_gram() {
        let (_c, a, d) = cluster_and_matrix(3, 20, 4, 4);
        let g = d.gram().unwrap();
        assert!(g.approx_eq(&matmul_adj_a(&a, &a), 1e-10));
    }

    #[test]
    fn gram_qr_dist_factorizes() {
        let (_c, a, d) = cluster_and_matrix(4, 30, 5, 7);
        let f = gram_qr_dist(&d).unwrap();
        let q_full = f.q.gather().unwrap();
        assert!(q_full.has_orthonormal_cols(1e-8));
        assert!(matmul(&q_full, &f.r).approx_eq(&a, 1e-8));
        assert!(matmul(&f.r, &f.r_inv.unwrap()).approx_eq(&Matrix::identity(5), 1e-8));
    }

    #[test]
    fn gram_qr_dist_of_real_operand_stays_real_per_rank() {
        let cluster = Cluster::new(4);
        let mut rng = StdRng::seed_from_u64(70);
        let a = Matrix::random_real(32, 5, &mut rng);
        let d = DistMatrix::scatter(&cluster, &a).unwrap();
        cluster.reset_stats();
        let f = gram_qr_dist(&d).unwrap();
        assert!(f.q.is_real(), "distributed Q keeps the hint");
        assert!(f.r.is_real(), "replicated R keeps the hint");
        let stats = cluster.stats();
        assert_eq!(stats.total_flops(), 0, "no complex MACs on any rank");
        assert!(stats.total_real_macs() > 0);
        let q_full = f.q.gather().unwrap();
        assert!(q_full.has_orthonormal_cols(1e-8));
        assert!(matmul(&q_full, &f.r).approx_eq(&a, 1e-8));
    }

    #[test]
    fn qr_gather_dist_factorizes_but_costs_a_redistribution() {
        let (cluster, a, d) = cluster_and_matrix(4, 30, 5, 8);
        cluster.reset_stats();
        let f = qr_gather_dist(&d).unwrap();
        let q_full = f.q.gather().unwrap();
        assert!(q_full.has_orthonormal_cols(1e-9));
        assert!(matmul(&q_full, &f.r).approx_eq(&a, 1e-9));
        let stats = cluster.stats();
        assert_eq!(stats.redistributions, 1);
    }

    #[test]
    fn summa_corruption_is_detected_and_recovered() {
        use crate::fault::FaultPlan;
        let cluster = Cluster::new(4);
        let mut rng = StdRng::seed_from_u64(90);
        let a = Matrix::random(33, 21, &mut rng);
        let b = Matrix::random(21, 17, &mut rng);
        let da = DistMatrix::scatter_block_cyclic(&cluster, &a, cluster.grid(), 4, 4).unwrap();
        let db = DistMatrix::scatter_block_cyclic(&cluster, &b, cluster.grid(), 4, 4).unwrap();
        let reference = da.matmul_dist(&db).unwrap().gather_unaccounted();
        cluster.reset_stats();
        cluster.arm_faults(FaultPlan::seeded(11).corrupt_prob(0.08).drop_prob(0.04));
        let recovered = da.matmul_dist(&db).unwrap().gather_unaccounted();
        let log = cluster.disarm_faults();
        assert!(!log.is_empty(), "probabilities this high must strike over so many panels");
        assert!(recovered.approx_eq(&reference, 0.0), "recovery is exact");
        let s = cluster.stats();
        assert!(s.retries > 0, "detected faults were retried");
        assert!(s.retry_bytes > 0 && s.checksum_bytes > 0);
        // Payload accounting is identical to the fault-free run: recovery
        // traffic lives in its own counters.
        let fault_free = {
            let c2 = Cluster::new(4);
            let da2 = DistMatrix::scatter_block_cyclic(&c2, &a, c2.grid(), 4, 4).unwrap();
            let db2 = DistMatrix::scatter_block_cyclic(&c2, &b, c2.grid(), 4, 4).unwrap();
            c2.reset_stats();
            let _ = da2.matmul_dist(&db2).unwrap();
            c2.stats()
        };
        assert_eq!(s.bytes_communicated, fault_free.bytes_communicated);
        assert_eq!(s.messages, fault_free.messages);
    }

    #[test]
    fn rank_failure_mid_summa_recovers_with_a_round_retry() {
        use crate::fault::{FaultKind, FaultPlan};
        let cluster = Cluster::new(4);
        let mut rng = StdRng::seed_from_u64(91);
        let a = Matrix::random(24, 24, &mut rng);
        let b = Matrix::random(24, 24, &mut rng);
        let da = DistMatrix::scatter_block_cyclic(&cluster, &a, cluster.grid(), 8, 8).unwrap();
        let db = DistMatrix::scatter_block_cyclic(&cluster, &b, cluster.grid(), 8, 8).unwrap();
        let reference = da.matmul_dist(&db).unwrap().gather_unaccounted();
        let before = koala_error::recovery::snapshot().summa_round_retries;
        cluster.arm_faults(FaultPlan::seeded(0).fail_rank(2, 1));
        let recovered = da.matmul_dist(&db).unwrap().gather_unaccounted();
        let log = cluster.disarm_faults();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, FaultKind::RankFailure);
        assert!(recovered.approx_eq(&reference, 0.0));
        assert!(cluster.stats().retries >= 1, "the restarted rank re-fetched its panels");
        assert!(koala_error::recovery::snapshot().summa_round_retries > before);
    }

    #[test]
    fn persistent_corruption_exhausts_the_retry_budget() {
        use crate::fault::FaultPlan;
        let cluster = Cluster::new(4);
        let mut rng = StdRng::seed_from_u64(92);
        let a = Matrix::random(16, 16, &mut rng);
        let b = Matrix::random(16, 16, &mut rng);
        let da = DistMatrix::scatter_block_cyclic(&cluster, &a, cluster.grid(), 4, 4).unwrap();
        let db = DistMatrix::scatter_block_cyclic(&cluster, &b, cluster.grid(), 4, 4).unwrap();
        cluster.arm_faults(FaultPlan::seeded(5).corrupt_prob(1.0).persistent());
        let err = da.matmul_dist(&db).unwrap_err();
        cluster.disarm_faults();
        assert_eq!(err.kind(), koala_error::ErrorKind::Fault);
        assert!(err.to_string().contains("retries"), "diagnostic names the retry budget: {err}");
        // The Gram path runs on the `p x 1` layout only: a 2-D operand is a
        // typed rejection (which `gram_qr_dist` hands to its caller) before
        // anything is billed, and `matmul_replicated` refuses it outright.
        cluster.reset_stats();
        let err = gram_qr_dist(&da).unwrap_err();
        assert_eq!(err.kind(), koala_error::ErrorKind::InvalidArgument);
        assert_eq!(cluster.stats(), crate::CommStats::new(4));
        let r = std::panic::catch_unwind(|| da.matmul_replicated(&Matrix::identity(16)));
        assert!(r.is_err(), "a 2-D operand must be rejected");
    }

    #[test]
    fn gather_corruption_is_verified_and_retried() {
        use crate::fault::FaultPlan;
        let (cluster, a, d) = cluster_and_matrix(4, 12, 5, 93);
        cluster.arm_faults(FaultPlan::seeded(1).corrupt_prob(1.0));
        cluster.reset_stats();
        let gathered = d.gather().unwrap();
        let log = cluster.disarm_faults();
        assert!(gathered.approx_eq(&a, 0.0));
        assert!(!log.is_empty());
        assert_eq!(cluster.stats().retries as usize, log.len());
    }

    #[test]
    fn persistent_faults_on_a_scatter_or_gather_are_an_error() {
        use crate::fault::FaultPlan;
        let (cluster, a, d) = cluster_and_matrix(4, 12, 5, 95);
        cluster.arm_faults(FaultPlan::seeded(2).corrupt_prob(1.0).persistent());
        let err = DistMatrix::scatter(&cluster, &a).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Fault);
        assert!(err.to_string().contains("ScatterBlock { rank: 1 }"), "{err}");
        assert_eq!(d.gather().unwrap_err().kind(), ErrorKind::Fault);
        assert_eq!(qr_gather_dist(&d).unwrap_err().kind(), ErrorKind::Fault);
        cluster.disarm_faults();
    }

    #[test]
    fn slow_rank_inflates_billed_work_only_while_armed() {
        use crate::fault::FaultPlan;
        let cluster = Cluster::new(2);
        cluster.record_flops(0, 1000);
        cluster.arm_faults(FaultPlan::seeded(0).slow_rank(0, 3.0));
        cluster.record_flops(0, 1000);
        cluster.record_flops(1, 1000);
        cluster.disarm_faults();
        cluster.record_flops(0, 1000);
        let s = cluster.stats();
        assert_eq!(s.rank_flops, vec![1000 + 3000 + 1000, 1000]);
    }

    #[test]
    fn gram_qr_dist_degrades_to_gather_on_unhealthy_gram() {
        // A catastrophically ill-conditioned tall operand: the Gram spectrum
        // spans ~1e24, far past what the eigensolver resolves, and round-off
        // drives the small eigenvalues negative below the PSD floor.
        let mut rng = StdRng::seed_from_u64(94);
        let cluster = Cluster::new(4);
        let mut a = Matrix::random(40, 6, &mut rng);
        for j in 0..6 {
            let scale = 10f64.powi(-2 * j as i32);
            for i in 0..40 {
                a[(i, j)] = a[(i, j)].scale(scale);
            }
        }
        // Make two columns nearly parallel at wildly different scales so the
        // Gram matrix loses PSD-ness in finite precision.
        for i in 0..40 {
            a[(i, 5)] = a[(i, 0)].scale(1e-12);
        }
        let d = DistMatrix::scatter(&cluster, &a).unwrap();
        let before = koala_error::recovery::snapshot().qr_degradations;
        let f = gram_qr_dist(&d).unwrap();
        let q_full = f.q.gather().unwrap();
        assert!(matmul(&q_full, &f.r).approx_eq(&a, 1e-8), "degraded path still factorizes");
        // Whether this input trips the floor depends on the eigensolver; the
        // structural guarantee is: no panic, valid factorization, and any
        // degradation is counted.
        let _ = koala_error::recovery::snapshot().qr_degradations - before;
    }

    #[test]
    fn gram_path_communicates_less_than_gather_path() {
        let cluster = Cluster::new(8);
        let mut rng = StdRng::seed_from_u64(9);
        let a = Matrix::random(512, 8, &mut rng);
        let d = DistMatrix::scatter(&cluster, &a).unwrap();
        cluster.reset_stats();
        let _ = gram_qr_dist(&d).unwrap();
        let gram_bytes = cluster.reset_stats().bytes_communicated;
        let _ = qr_gather_dist(&d).unwrap();
        let gather_bytes = cluster.reset_stats().bytes_communicated;
        assert!(
            gram_bytes * 4 < gather_bytes,
            "gram path ({gram_bytes} B) should communicate far less than gather path ({gather_bytes} B)"
        );
    }
}

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
//!   small allreduce,
//! * **2-D block-cyclic** ([`DistMatrix::scatter_block_cyclic`] /
//!   [`DistMatrix::scatter_summa`]) — the ScaLAPACK-style layout under which
//!   [`DistMatrix::matmul_dist`] runs SUMMA with `O(n^2 / sqrt(P))` words of
//!   traffic per rank instead of the gather-everything `O(n^2)`.
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
//! ## Transposed operands and stationary variants
//!
//! [`DistMatrix::matmul_dist_op`] computes `C = opA(A) * opB(B)` for any
//! [`Op`] pair, ScaLAPACK-`pdgemm` style, by dispatching between three
//! stationary dataflows ([`SummaVariant`]):
//!
//! | variant      | never moves | rounds iterate | valid for        |
//! |--------------|-------------|----------------|------------------|
//! | stationary-C | `C`         | depth panels   | every op pair    |
//! | stationary-A | `A`         | `C`-col panels | `opA = None`     |
//! | stationary-B | `B`         | `C`-row panels | `opB = None`     |
//!
//! In every variant the *raw, untransposed* slices of the stored operand
//! travel over the wire and the op is fused into the local packed GEMM's
//! packing step ([`gemm_into`]'s own transposition support) — so ABFT
//! checksums ride transposed panels exactly as they ride plain ones, and the
//! realness hints of the stored blocks propagate into the shipped slices.
//! When an op turns an operand's grid-column dimension into an output
//! dimension that must live on the grid rows (or vice versa), the round
//! additionally pays an *alignment* term: the panel piece that is not already
//! resident on its target grid row/column moves once more. The exact per-
//! round payload of each variant is available from
//! [`DistMatrix::summa_traffic_elems`], which the auto-dispatcher minimises
//! and the property tests assert against the recorded traffic, element for
//! element.
//!
//! ## One round engine
//!
//! All three variants run the same task graph (`Summa::run`), parametrised
//! only by which operand stays put. Per round it holds
//!
//! ```text
//! comm(t)     ships the moving panel(s) — bill the broadcast, attach the
//!             Huang–Abraham checksum, deliver to every verifier — through
//!             one side-generic helper ("A-side along grid rows" and "B-side
//!             along grid columns" are two calls of it); chained t -> t + 1,
//! gemm(t, r)  one per participating rank: the only gemm_into /
//!             gemm_into_real call site. Stationary-C accumulates into the
//!             rank's own C block; stationary-A/B form a partial tile that
//!             is checksum-delivered to the output panel's owner and added
//!             into its block. Depends on comm(t) and on the previous writer
//!             of its destination block,
//! ```
//!
//! so the accumulation order of every output block is fixed by edges and the
//! product is bit-identical at any thread count, while round `t + 1`'s
//! broadcasts overlap round `t`'s local GEMMs on a multi-thread pool — for
//! every variant, which is what
//! [`crate::CostModel::modelled_time_overlap`] assumes when it prices the
//! one [`crate::RoundCost`] each round appends to
//! [`crate::CommStats::rounds`]. "Serial" is not a second code path: an
//! armed [`crate::FaultPlan`], whose seeded decisions depend on global query
//! order, runs the same graph on a one-thread pool, whose FIFO topological
//! walk is deterministic — so the fault suites exercise the graph
//! production runs, not a loop kept beside it.

use crate::cluster::{lock_ignore_poison, Cluster};
use crate::fault::{corrupt_index, FaultEvent, FaultKind, FaultSite};
use crate::grid::{refine, Dist1D, Panel, ProcGrid};
use crate::stats::RoundCost;
use koala_error::{ErrorKind, KoalaError};
use koala_exec::{TaskGraph, TaskId, TaskKind};
use koala_linalg::gemm::{gemm_into, gemm_into_real, Op};
use koala_linalg::{c64, eigh, matmul, matmul_adj_a, Matrix, C64};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Maximum retransmissions of one checksummed transfer before the fault is
/// declared unrecoverable. Transient faults (the default
/// [`crate::FaultPlan`] mode) never need more than one.
pub const MAX_TRANSFER_RETRIES: usize = 3;

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

/// Materialise what the receiver actually sees when `ev` strikes the
/// delivery of `pristine`: a dropped block arrives as zeros, a corrupted one
/// has a deterministically-chosen element blown far past the checksum
/// tolerance.
fn apply_fault(pristine: &Matrix, ev: &FaultEvent) -> Matrix {
    match ev.kind {
        FaultKind::Drop => Matrix::zeros(pristine.nrows(), pristine.ncols()),
        _ => {
            let mut m = pristine.clone();
            let len = m.nrows() * m.ncols();
            if len > 0 {
                let idx = corrupt_index(ev.index, len);
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
    pristine: &Matrix,
    sent_sum: &[C64],
    checksum_of: fn(&Matrix) -> Vec<C64>,
    site: FaultSite,
    summa: bool,
) -> crate::Result<()> {
    let mut attempt = 0usize;
    loop {
        if attempt > 0 {
            cluster.record_retry(pristine.nrows() * pristine.ncols() + sent_sum.len());
            if summa {
                koala_error::recovery::note_summa_round_retry();
            } else {
                koala_error::recovery::note_collective_retry();
            }
        }
        let ok = match cluster.fault_decision(site, attempt) {
            // The simulated wire delivered the sender's buffer verbatim.
            None => true,
            Some(ev) => checksums_match(&checksum_of(&apply_fault(pristine, &ev)), sent_sum),
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

/// Which operand of `C = opA(A) * opB(B)` a SUMMA dataflow keeps stationary
/// (see the module docs for the dispatch table and traffic formulas).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaVariant {
    /// `A` never moves: panels of `opB(B)` are broadcast along grid columns
    /// and partial results are reduced onto the output's column owners.
    /// Wins when `A` dominates the traffic (`N` small relative to `K`).
    /// Requires `opA = `[`Op::None`].
    StationaryA,
    /// `B` never moves: panels of `opA(A)` are broadcast along grid rows and
    /// partial results are reduced onto the output's row owners. Wins when
    /// `B` dominates (`M` small relative to `K`). Requires
    /// `opB = `[`Op::None`].
    StationaryB,
    /// `C` never moves: depth panels of both operands are broadcast (the
    /// classic SUMMA dataflow of the module docs). Valid for every op pair.
    StationaryC,
}

/// Accumulate `src` into `dst` at offset `(row0, col0)` (the local reduction
/// step of the stationary-A/B variants). Realness is handled by the caller.
fn add_into(dst: &mut Matrix, row0: usize, col0: usize, src: &Matrix) {
    let width = dst.ncols();
    let data = dst.data_mut();
    for i in 0..src.nrows() {
        for (j, v) in src.row(i).iter().enumerate() {
            let idx = (row0 + i) * width + col0 + j;
            let d = data[idx];
            data[idx] = c64(d.re + v.re, d.im + v.im);
        }
    }
}

/// The grid axis a panel shipment or a partial-result reduction travels
/// along, named after the operand that uses it in the classic stationary-C
/// dataflow. `A`: a group is one grid row and its `q` ranks, transfers carry
/// a column checksum and are [`FaultSite::SummaPanelA`] sites. `B` is the
/// mirror image: one grid column, `p` ranks, row checksum,
/// [`FaultSite::SummaPanelB`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// One moving panel as its group received it, plus the length of the checksum
/// vector that rode along (a restarted rank re-fetches both).
struct Shipped {
    panel: Matrix,
    sum_len: usize,
}

/// Where one rank's product of a round lands: block `dst` at offset
/// `(row0, col0)`.
#[derive(Clone, Copy)]
struct Tile {
    dst: usize,
    row0: usize,
    col0: usize,
}

/// One planned SUMMA product `C = opA(A) * opB(B)`: the output layout and the
/// round list of the chosen [`SummaVariant`], read by both the closed-form
/// traffic count and the round engine ([`Summa::run`]).
struct Summa<'a> {
    a: &'a DistMatrix,
    b: &'a DistMatrix,
    opa: Op,
    opb: Op,
    variant: SummaVariant,
    out_rows: Dist1D,
    out_cols: Dist1D,
    /// One panel per round. Stationary-C: the depth panels (`a_*` locates
    /// the panel in `A`, `b_*` in `B`). Stationary-A/B: panels of `C`'s
    /// column/row dimension, with `a_*` locating the panel in the moving
    /// operand and `b_*` in the output (the reduction destination).
    panels: Vec<Panel>,
    /// Stationary-A/B only: common refinement of the stationary operand's
    /// depth layout (`a_owner`) and the moving operand's (`b_owner`) — the
    /// pieces each shipped slice is assembled from.
    pieces: Vec<Panel>,
}

impl<'a> Summa<'a> {
    /// Lay out the product, or `None` when `variant` does not support the op
    /// pair (stationary-A needs `opa = None`, stationary-B `opb = None`).
    fn plan(
        a: &'a DistMatrix,
        opa: Op,
        opb: Op,
        b: &'a DistMatrix,
        variant: SummaVariant,
    ) -> Option<Self> {
        let (p, q) = (a.grid.rows(), a.grid.cols());
        let (m_out, _) = opa.effective_shape(a.shape());
        let (_, n_out) = opb.effective_shape(b.shape());
        // Layouts of the stored operands' effective outer and depth dims.
        let (a_outer, a_depth) =
            if opa == Op::None { (&a.rows, &a.cols) } else { (&a.cols, &a.rows) };
        let (b_depth, b_outer) =
            if opb == Op::None { (&b.rows, &b.cols) } else { (&b.cols, &b.rows) };
        let out_rows = if opa == Op::None { a.rows.clone() } else { a.cols.like_parts(m_out, p) };
        let out_cols = if opb == Op::None { b.cols.clone() } else { b.rows.like_parts(n_out, q) };
        let (panels, pieces) = match variant {
            SummaVariant::StationaryC => (refine(a_depth, b_depth), Vec::new()),
            SummaVariant::StationaryA if opa == Op::None => {
                (refine(b_outer, &out_cols), refine(a_depth, b_depth))
            }
            SummaVariant::StationaryB if opb == Op::None => {
                (refine(a_outer, &out_rows), refine(b_depth, a_depth))
            }
            _ => return None,
        };
        Some(Summa { a, b, opa, opb, variant, out_rows, out_cols, panels, pieces })
    }

    /// The sides whose operand moves, and the side partial results are
    /// reduced along (none when `C` is stationary).
    fn dataflow(&self) -> (&'static [Side], Option<Side>) {
        match self.variant {
            SummaVariant::StationaryC => (&[Side::A, Side::B], None),
            SummaVariant::StationaryA => (&[Side::B], Some(Side::A)),
            SummaVariant::StationaryB => (&[Side::A], Some(Side::B)),
        }
    }

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

    /// Ship round `t`'s panel of the `side` operand to group `g`: build the
    /// raw (untransposed) panel, bill its broadcast, and run the checksummed
    /// delivery to every rank that receives it. Three sourcings:
    ///
    /// * stationary-C, op `None` — the panel is resident on the owning rank
    ///   of the group and is broadcast to the other members;
    /// * stationary-C, transposed/adjoint op — the raw depth slice lives on
    ///   the owning *group* and is assembled for every member of `g` (the
    ///   alignment term: one extra copy unless `g` is the owner);
    /// * stationary-A/B — the slice of the moving operand is aligned to the
    ///   stationary operand's depth layout, piece by piece, each piece
    ///   skipping the one copy that is already home.
    fn ship(
        &self,
        side: Side,
        t: usize,
        panel: Panel,
        g: usize,
        cost: &mut RoundCost,
    ) -> crate::Result<Shipped> {
        let grid = self.a.grid;
        let (x, op, owner, local, out_dist, depth) = match side {
            Side::A => {
                (self.a, self.opa, panel.a_owner, panel.a_local, &self.out_rows, &self.b.rows)
            }
            Side::B => {
                (self.b, self.opb, panel.b_owner, panel.b_local, &self.out_cols, &self.a.cols)
            }
        };
        let (_, members) = side.extents(grid);
        // Whether the stored operand's depth dimension is its row dimension.
        let depth_is_rows = (side == Side::A) != (op == Op::None);
        type Sourced = (Matrix, usize, Option<usize>, fn(&Matrix) -> Vec<C64>);
        let (data, receivers, skip, checksum_of): Sourced =
            if self.variant != SummaVariant::StationaryC {
                let mut receivers = 0;
                for pc in self.pieces.iter().filter(|pc| pc.a_owner == g) {
                    let home =
                        if op == Op::None { g == panel.a_owner } else { pc.a_owner == pc.b_owner };
                    let recv = members - usize::from(home);
                    self.bill(cost, panel.len * pc.len, recv);
                    receivers += recv;
                }
                let data = x.slice_for_part(!depth_is_rows, panel.start, panel.len, depth, g);
                // One checksum element per index of the output panel.
                let per_index = if depth_is_rows { column_checksum } else { row_checksum };
                (data, receivers, None, per_index)
            } else {
                let (data, receivers, skip) = if op == Op::None {
                    let block = &x.blocks[side.rank(grid, g, owner)];
                    let data = if depth_is_rows {
                        block.submatrix(local, 0, panel.len, block.ncols())
                    } else {
                        block.submatrix(0, local, block.nrows(), panel.len)
                    };
                    (data, members - 1, Some(owner))
                } else {
                    let data = x.slice_for_part(depth_is_rows, panel.start, panel.len, out_dist, g);
                    (data, members - usize::from(g == owner), None)
                };
                self.bill(cost, data.nrows() * data.ncols(), receivers);
                (data, receivers, skip, side.checksum())
            };
        let verifiers: Vec<usize> = (0..members)
            .filter(|&j| receivers > 0 && Some(j) != skip)
            .map(|j| side.rank(grid, g, j))
            .collect();
        let sum = checksum_of(&data);
        self.a.cluster.record_checksum(sum.len() * verifiers.len());
        for rank in verifiers {
            deliver_checksummed(
                &self.a.cluster,
                &data,
                &sum,
                checksum_of,
                side.site(t, rank),
                true,
            )
            .map_err(|e| {
                e.context(format!("matmul_dist: SUMMA round {t}, {side:?} panel to rank {rank}"))
            })?;
        }
        Ok(Shipped { panel: data, sum_len: sum.len() })
    }

    /// Communication phase of round `t`: ship every moving operand's panel
    /// to every group (`A`-side groups first, as the fault sequence is
    /// defined by call order) and bill the reduction of the round's partial
    /// results onto the output panel's owners. Returns the shipped panels
    /// indexed `[side][group]`; a stationary side's list stays empty.
    fn round_comm(
        &self,
        t: usize,
        panel: Panel,
        cost: &mut RoundCost,
    ) -> crate::Result<[Vec<Shipped>; 2]> {
        let grid = self.a.grid;
        let (moving, reduce) = self.dataflow();
        let mut shipped = [Vec::new(), Vec::new()];
        for &side in moving {
            for g in 0..side.extents(grid).0 {
                shipped[side as usize].push(self.ship(side, t, panel, g, cost)?);
            }
        }
        if let Some(side) = reduce {
            let (groups, members) = side.extents(grid);
            let owned = if side == Side::A { &self.out_rows } else { &self.out_cols };
            for g in (0..groups).filter(|&g| owned.local_len(g) > 0) {
                self.bill(cost, owned.local_len(g) * panel.len, members - 1);
            }
        }
        Ok(shipped)
    }

    /// Where rank `rank`'s product of the round lands, or `None` when its
    /// tile is empty and the rank sits the round out. Stationary-C ranks
    /// accumulate into their own block; stationary-A/B ranks produce a tile
    /// of the output panel's owner on their grid row/column.
    fn tile(&self, panel: Panel, rank: usize) -> Option<Tile> {
        let grid = self.a.grid;
        let (r, c) = grid.coords_of(rank);
        let (m_loc, n_loc) = (self.out_rows.local_len(r), self.out_cols.local_len(c));
        match self.variant {
            SummaVariant::StationaryC => {
                (m_loc > 0 && n_loc > 0).then_some(Tile { dst: rank, row0: 0, col0: 0 })
            }
            SummaVariant::StationaryA => (m_loc > 0).then_some(Tile {
                dst: grid.rank_of(r, panel.b_owner),
                row0: 0,
                col0: panel.b_local,
            }),
            SummaVariant::StationaryB => (n_loc > 0).then_some(Tile {
                dst: grid.rank_of(panel.b_owner, c),
                row0: panel.b_local,
                col0: 0,
            }),
        }
    }

    /// One rank's local product for round `t` through the packed GEMM, with
    /// the ops fused into the packing step: the shipped panel of each moving
    /// side against the resident block of a stationary one. Stationary-C
    /// accumulates straight into the rank's own block; the other variants
    /// form a partial tile, deliver it (checksummed) to the owner when that
    /// is another rank, and add it into the owner's block. Bills the rank's
    /// MACs and any planned compute-fault refetch.
    fn rank_update(
        &self,
        t: usize,
        rank: usize,
        tile: Tile,
        shipped: &[Vec<Shipped>; 2],
        cost: &Mutex<RoundCost>,
        out: &mut Matrix,
    ) -> crate::Result<()> {
        let cluster = &self.a.cluster;
        let (r, c) = self.a.grid.coords_of(rank);
        let received = [shipped[Side::A as usize].get(r), shipped[Side::B as usize].get(c)];
        let lhs = received[0].map_or(&self.a.blocks[rank], |s| &s.panel);
        let rhs = received[1].map_or(&self.b.blocks[rank], |s| &s.panel);
        // A planned rank failure strikes here: the restarted rank has lost
        // the round's panels and re-fetches them (plus their checksum
        // vectors) before redoing its product.
        if cluster.fault_decision(FaultSite::SummaCompute { round: t, rank }, 0).is_some() {
            let refetch: usize = received
                .iter()
                .flatten()
                .map(|s| s.panel.nrows() * s.panel.ncols() + s.sum_len)
                .sum();
            cluster.record_retry(refetch);
            koala_error::recovery::note_summa_round_retry();
        }
        let (m, k) = self.opa.effective_shape(lhs.shape());
        let (_, n) = self.opb.effective_shape(rhs.shape());
        let real = lhs.is_real() && rhs.is_real();
        let macs = (m * n * k) as u64;
        cluster.record_macs(rank, macs, real);
        {
            let mut cost = lock_ignore_poison(cost);
            let per_rank = if real { &mut cost.rank_rmacs } else { &mut cost.rank_cmacs };
            per_rank[rank] += macs;
        }
        let reduce = self.dataflow().1;
        let mut partial = reduce.map(|_| Matrix::zeros(m, n));
        let acc = partial.as_mut().unwrap_or(&mut *out).data_mut();
        if real {
            gemm_into_real(self.opa, self.opb, m, n, k, lhs.data(), rhs.data(), acc);
        } else {
            gemm_into(self.opa, self.opb, m, n, k, lhs.data(), rhs.data(), acc);
        }
        if let (Some(side), Some(partial)) = (reduce, partial) {
            if rank != tile.dst {
                let sum = side.checksum()(&partial);
                cluster.record_checksum(sum.len());
                let site = side.site(t, tile.dst);
                deliver_checksummed(cluster, &partial, &sum, side.checksum(), site, true).map_err(
                    |e| {
                        e.context(format!(
                            "matmul_dist: SUMMA round {t}, partial reduce to rank {}",
                            tile.dst
                        ))
                    },
                )?;
            }
            add_into(out, tile.row0, tile.col0, &partial);
        }
        Ok(())
    }

    /// The round engine: one task graph for every variant. Per round, one
    /// [`TaskKind::Comm`] task ([`Summa::round_comm`]) chained `t -> t + 1`,
    /// so every fault query of the communication phase runs in round order,
    /// and one [`TaskKind::Gemm`] task per participating rank
    /// ([`Summa::rank_update`]) depending on its round's comm task and on the
    /// previous writer of its destination block. That chain fixes the
    /// floating-point accumulation order of every output block, so the
    /// result is bit-identical at any thread count; what a multi-thread pool
    /// buys is round `t + 1`'s broadcasts running while round `t`'s local
    /// GEMMs are still in flight — the overlap
    /// [`crate::CostModel::modelled_time_overlap`] prices.
    ///
    /// Fault injection replays a seeded decision sequence that depends on
    /// global query order, so an armed fault plan runs the same graph on a
    /// one-thread pool, whose FIFO topological walk is deterministic (and,
    /// for stationary-C, is exactly comm, then ranks in order, round by
    /// round). Per-round costs are appended to the ledger in round order
    /// afterwards either way.
    fn run(&self) -> crate::Result<Vec<Matrix>> {
        let grid = self.a.grid;
        let cluster = &self.a.cluster;
        let nranks = grid.nranks();
        let out_blocks: Vec<Mutex<Matrix>> = (0..nranks)
            .map(|rank| {
                let (r, c) = grid.coords_of(rank);
                Mutex::new(Matrix::zeros(self.out_rows.local_len(r), self.out_cols.local_len(c)))
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
        let shipped: Vec<OnceLock<[Vec<Shipped>; 2]>> =
            (0..self.panels.len()).map(|_| OnceLock::new()).collect();

        let mut graph = TaskGraph::new();
        let mut prev_comm: Option<TaskId> = None;
        let mut last_writer: Vec<Option<TaskId>> = vec![None; nranks];
        for (t, panel) in self.panels.iter().copied().enumerate() {
            let (cost, cell) = (&costs[t], &shipped[t]);
            let comm = graph.add(TaskKind::Comm, prev_comm.as_slice(), move || {
                let panels = self.round_comm(t, panel, &mut lock_ignore_poison(cost))?;
                let _ = cell.set(panels);
                Ok(())
            });
            prev_comm = Some(comm);
            for rank in 0..nranks {
                let Some(tile) = self.tile(panel, rank) else { continue };
                let deps: Vec<TaskId> =
                    [Some(comm), last_writer[tile.dst]].into_iter().flatten().collect();
                let out = &out_blocks[tile.dst];
                let id = graph.add(TaskKind::Gemm, &deps, move || {
                    let shipped = cell.get().ok_or_else(|| {
                        KoalaError::new(
                            ErrorKind::InvalidArgument,
                            format!("SUMMA round {t}: panels missing for compute task"),
                        )
                    })?;
                    // Uncontended: writers of one block are chained.
                    self.rank_update(t, rank, tile, shipped, cost, &mut lock_ignore_poison(out))
                });
                last_writer[tile.dst] = Some(id);
            }
        }
        if cluster.faults_armed() {
            graph.run_on(&koala_exec::Pool::new(1))?;
        } else {
            graph.run()?;
        }
        for cost in costs {
            cluster.record_round(cost.into_inner().unwrap_or_else(PoisonError::into_inner));
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
    pub fn scatter(cluster: &Cluster, matrix: &Matrix) -> Self {
        let rows = Dist1D::balanced(matrix.nrows(), cluster.nranks());
        let cols = Dist1D::whole(matrix.ncols());
        Self::scatter_with(cluster, matrix, ProcGrid::column(cluster.nranks()), rows, cols)
    }

    /// Distribute a replicated matrix in the ScaLAPACK block-cyclic layout
    /// over an explicit grid with the given row/column block sizes (a
    /// scatter from rank 0, charged like [`DistMatrix::scatter`]).
    pub fn scatter_block_cyclic(
        cluster: &Cluster,
        matrix: &Matrix,
        grid: ProcGrid,
        row_block: usize,
        col_block: usize,
    ) -> Self {
        let rows = Dist1D::cyclic(matrix.nrows(), grid.rows(), row_block);
        let cols = Dist1D::cyclic(matrix.ncols(), grid.cols(), col_block);
        Self::scatter_with(cluster, matrix, grid, rows, cols)
    }

    /// [`DistMatrix::scatter_block_cyclic`] on the cluster's default
    /// near-square grid ([`Cluster::grid`]) with the default SUMMA panel
    /// width ([`DistMatrix::DEFAULT_BLOCK`]) in both dimensions.
    pub fn scatter_summa(cluster: &Cluster, matrix: &Matrix) -> Self {
        Self::scatter_block_cyclic(
            cluster,
            matrix,
            cluster.grid(),
            Self::DEFAULT_BLOCK,
            Self::DEFAULT_BLOCK,
        )
    }

    /// Default block-cyclic block size (and therefore SUMMA panel width).
    /// Small enough to balance ragged edges, large enough that per-panel
    /// local GEMMs stay inside the packed kernel's depth blocking.
    pub const DEFAULT_BLOCK: usize = 64;

    fn scatter_with(
        cluster: &Cluster,
        matrix: &Matrix,
        grid: ProcGrid,
        rows: Dist1D,
        cols: Dist1D,
    ) -> Self {
        assert_eq!(grid.nranks(), cluster.nranks(), "scatter: grid does not cover the cluster");
        assert_eq!(rows.parts(), grid.rows(), "scatter: row layout does not match the grid");
        assert_eq!(cols.parts(), grid.cols(), "scatter: column layout does not match the grid");
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
                if let Err(e) = deliver_checksummed(
                    cluster,
                    &block,
                    &sum,
                    column_checksum,
                    FaultSite::ScatterBlock { rank },
                    false,
                ) {
                    panic!("scatter: unrecoverable fault: {e}");
                }
            }
            blocks.push(block);
        }
        DistMatrix { cluster: cluster.clone(), grid, rows, cols, blocks }
    }

    /// Create a block-row distributed zero matrix.
    pub fn zeros(cluster: &Cluster, nrows: usize, ncols: usize) -> Self {
        let grid = ProcGrid::column(cluster.nranks());
        let rows = Dist1D::balanced(nrows, cluster.nranks());
        let cols = Dist1D::whole(ncols);
        let blocks =
            (0..cluster.nranks()).map(|r| Matrix::zeros(rows.local_len(r), ncols)).collect();
        DistMatrix { cluster: cluster.clone(), grid, rows, cols, blocks }
    }

    /// Build a block-row distributed matrix directly from per-rank row blocks
    /// without any communication (the blocks are taken to already live on
    /// their ranks). Row counts may follow any contiguous partition of
    /// `nrows`.
    pub fn from_blocks(cluster: &Cluster, nrows: usize, ncols: usize, blocks: Vec<Matrix>) -> Self {
        assert_eq!(blocks.len(), cluster.nranks(), "from_blocks: one block per rank required");
        let total: usize = blocks.iter().map(|b| b.nrows()).sum();
        assert_eq!(total, nrows, "from_blocks: block rows do not sum to nrows");
        for b in &blocks {
            assert_eq!(b.ncols(), ncols, "from_blocks: block column count mismatch");
        }
        let rows = Dist1D::blocks(blocks.iter().map(|b| b.nrows()).collect());
        DistMatrix {
            cluster: cluster.clone(),
            grid: ProcGrid::column(cluster.nranks()),
            rows,
            cols: Dist1D::whole(ncols),
            blocks,
        }
    }

    /// Verify the checksummed transfer of every block that crosses a wire in
    /// a gather (`to_all = false`: foreign blocks travel to rank 0) or an
    /// allgather (`to_all = true`: every block travels to every other rank).
    /// One fault site per *source* block; detected damage is repaired by a
    /// bounded retransmission like any other ABFT transfer.
    fn verify_block_transfers(&self, to_all: bool) -> crate::Result<()> {
        if self.cluster.nranks() == 1 {
            return Ok(()); // nothing crosses a wire
        }
        let receivers = if to_all { self.cluster.nranks() - 1 } else { 1 };
        for (rank, block) in self.blocks.iter().enumerate() {
            if !to_all && rank == 0 {
                continue;
            }
            let sum = column_checksum(block);
            self.cluster.record_checksum(sum.len() * receivers);
            deliver_checksummed(
                &self.cluster,
                block,
                &sum,
                column_checksum,
                FaultSite::GatherBlock { rank },
                false,
            )
            .map_err(|e| e.context(format!("gathering rank {rank}'s block")))?;
        }
        Ok(())
    }

    /// Assemble the full matrix on every rank (an MPI `allgather`), with
    /// per-block checksum verification. Panics only when a
    /// [`crate::FaultPlan::persistent`] injected fault outlasts the retry
    /// budget — an unrecoverable interconnect on an infallible collective.
    pub fn allgather(&self) -> Matrix {
        self.cluster.record_full_gather();
        let total: usize = self.blocks.iter().map(|b| b.nrows() * b.ncols()).sum();
        self.cluster.record_collective(total * (self.cluster.nranks() - 1), 1);
        if let Err(e) = self.verify_block_transfers(true) {
            panic!("allgather: unrecoverable fault: {e}");
        }
        self.gather_local()
    }

    /// Assemble the full matrix on rank 0 only (an MPI `gather`), with
    /// per-block checksum verification (panic semantics as
    /// [`DistMatrix::allgather`]).
    pub fn gather(&self) -> Matrix {
        self.cluster.record_full_gather();
        let foreign: usize = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(rank, _)| *rank != 0)
            .map(|(_, b)| b.nrows() * b.ncols())
            .sum();
        self.cluster.record_collective(foreign, 1);
        if let Err(e) = self.verify_block_transfers(false) {
            panic!("gather: unrecoverable fault: {e}");
        }
        self.gather_local()
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

    /// The row layout (rows onto grid rows).
    pub fn row_dist(&self) -> &Dist1D {
        &self.rows
    }

    /// The column layout (columns onto grid columns).
    pub fn col_dist(&self) -> &Dist1D {
        &self.cols
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

    /// `C = self * B` where `B` is replicated on every rank. On the
    /// column-replicated (grid `p x 1`) layout the result keeps the row
    /// distribution of `self` and no communication is required. On a 2-D
    /// layout each rank multiplies its local block against the matching
    /// replicated rows of `B` and the partial products are reduce-scattered
    /// along each grid row into a column distribution shaped like `self`'s
    /// (`m_loc * ncols(B) * (q - 1)` words per grid row) — still no gather
    /// of the big operand.
    pub fn matmul_replicated(&self, b: &Matrix) -> DistMatrix {
        assert_eq!(self.ncols(), b.nrows(), "matmul_replicated: inner dimension mismatch");
        let (p, q) = (self.grid.rows(), self.grid.cols());
        if q == 1 {
            let mut blocks = Vec::with_capacity(self.blocks.len());
            for (rank, block) in self.blocks.iter().enumerate() {
                let macs = (block.nrows() * block.ncols() * b.ncols()) as u64;
                self.cluster.record_macs(rank, macs, block.is_real() && b.is_real());
                blocks.push(matmul(block, b));
            }
            return DistMatrix {
                cluster: self.cluster.clone(),
                grid: self.grid,
                rows: self.rows.clone(),
                cols: Dist1D::whole(b.ncols()),
                blocks,
            };
        }
        let n_out = b.ncols();
        let out_cols = self.cols.like_parts(n_out, q);
        let all_real = self.is_real() && b.is_real();
        let mut out_blocks: Vec<Matrix> = (0..self.grid.nranks())
            .map(|rank| {
                let (r, c) = self.grid.coords_of(rank);
                Matrix::zeros(self.rows.local_len(r), out_cols.local_len(c))
            })
            .collect();
        for r in 0..p {
            let m_loc = self.rows.local_len(r);
            // Reduce-scatter of the grid row's partial products.
            self.cluster.record_bcast(m_loc * n_out * (q - 1), q - 1);
            if m_loc == 0 {
                continue;
            }
            for c in 0..q {
                let rank = self.grid.rank_of(r, c);
                let a_loc = &self.blocks[rank];
                let k_loc = self.cols.local_len(c);
                // The rows of B that line up with this rank's local columns.
                let mut b_sel = Matrix::zeros(k_loc, n_out);
                for seg in self.cols.segments().iter().filter(|s| s.owner == c) {
                    b_sel.set_submatrix(
                        seg.local_start,
                        0,
                        &b.submatrix(seg.start, 0, seg.len, n_out),
                    );
                }
                let macs = (m_loc * k_loc * n_out) as u64;
                self.cluster.record_macs(rank, macs, a_loc.is_real() && b.is_real());
                let partial = matmul(a_loc, &b_sel);
                for seg in out_cols.segments().iter().filter(|s| s.len > 0) {
                    let dst = self.grid.rank_of(r, seg.owner);
                    let piece = partial.submatrix(0, seg.start, m_loc, seg.len);
                    add_into(&mut out_blocks[dst], 0, seg.local_start, &piece);
                }
            }
        }
        if all_real {
            for blk in &mut out_blocks {
                blk.assume_real();
            }
        }
        DistMatrix {
            cluster: self.cluster.clone(),
            grid: self.grid,
            rows: self.rows.clone(),
            cols: out_cols,
            blocks: out_blocks,
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
    /// [`MAX_TRANSFER_RETRIES`], billed to [`crate::CommStats::retry_bytes`]).
    /// A planned rank failure ([`crate::FaultPlan::fail_rank`]) costs the
    /// restarted rank a re-fetch of both of the round's panels. Errors are
    /// only possible under a [`crate::FaultPlan::persistent`] fault plan that
    /// outlasts the retry budget; the recovered result is bit-identical to
    /// the fault-free run because detection precedes accumulation.
    pub fn matmul_dist(&self, other: &DistMatrix) -> crate::Result<DistMatrix> {
        self.matmul_dist_variant(Op::None, Op::None, other, SummaVariant::StationaryC)
    }

    /// `C = opA(self) * opB(other)`, ScaLAPACK-`pdgemm` style: SUMMA with
    /// per-operand [`Op`]s, auto-dispatched to the [`SummaVariant`] with the
    /// least predicted payload traffic ([`DistMatrix::summa_traffic_elems`];
    /// ties go to stationary-C). See the module docs for the dataflows.
    ///
    /// ```
    /// use koala_cluster::{Cluster, DistMatrix};
    /// use koala_linalg::gemm::{gemm, Op};
    /// use koala_linalg::Matrix;
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    ///
    /// let cluster = Cluster::new(4); // 2 x 2 grid
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let a = Matrix::random(7, 9, &mut rng);
    /// let b = Matrix::random(7, 5, &mut rng);
    /// let da = DistMatrix::scatter_block_cyclic(&cluster, &a, cluster.grid(), 2, 2);
    /// let db = DistMatrix::scatter_block_cyclic(&cluster, &b, cluster.grid(), 2, 2);
    /// // C = A^T B without ever materialising A^T:
    /// let c = da.matmul_dist_op(Op::Transpose, Op::None, &db).unwrap();
    /// assert!(c.max_diff_replicated(&gemm(Op::Transpose, Op::None, &a, &b)) < 1e-12);
    /// assert_eq!(cluster.stats().full_gathers, 0); // no gather fallback
    /// ```
    pub fn matmul_dist_op(
        &self,
        opa: Op,
        opb: Op,
        other: &DistMatrix,
    ) -> crate::Result<DistMatrix> {
        let mut variant = SummaVariant::StationaryC;
        let mut best = self
            .summa_traffic_elems(opa, opb, other, SummaVariant::StationaryC)
            .unwrap_or(u64::MAX);
        for v in [SummaVariant::StationaryA, SummaVariant::StationaryB] {
            if let Some(t) = self.summa_traffic_elems(opa, opb, other, v) {
                if t < best {
                    best = t;
                    variant = v;
                }
            }
        }
        self.matmul_dist_variant(opa, opb, other, variant)
    }

    /// [`DistMatrix::matmul_dist_op`] with an explicitly chosen
    /// [`SummaVariant`] (stationary-A requires `opa == Op::None`,
    /// stationary-B requires `opb == Op::None`; stationary-C accepts every
    /// op pair). Fault tolerance, MAC billing, realness propagation, and
    /// per-round [`crate::RoundCost`] recording are identical across the
    /// variants; only the dataflow (and hence the traffic formula) differs.
    pub fn matmul_dist_variant(
        &self,
        opa: Op,
        opb: Op,
        other: &DistMatrix,
        variant: SummaVariant,
    ) -> crate::Result<DistMatrix> {
        assert_eq!(
            self.cluster.nranks(),
            other.cluster.nranks(),
            "matmul_dist: operands live on different clusters"
        );
        assert_eq!(self.grid, other.grid, "matmul_dist: operands must share the processor grid");
        let (_, ka) = opa.effective_shape(self.shape());
        let (kb, _) = opb.effective_shape(other.shape());
        assert_eq!(ka, kb, "matmul_dist: inner dimension mismatch");
        let Some(summa) = Summa::plan(self, opa, opb, other, variant) else {
            panic!("matmul_dist: {variant:?} does not support ops ({opa:?}, {opb:?})");
        };
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
            rows: summa.out_rows,
            cols: summa.out_cols,
            blocks,
        })
    }

    /// Predicted fault-free payload traffic (in complex elements, i.e.
    /// [`crate::ELEM_BYTES`]-byte words) of `opA(self) * opB(other)` under
    /// `variant`, or `None` when the variant does not support the op pair.
    ///
    /// This is the closed form of exactly what the implementation bills to
    /// [`crate::CommStats::bytes_communicated`] — the property tests assert
    /// equality element-for-element — and what
    /// [`DistMatrix::matmul_dist_op`] minimises. Per round of width `kb`:
    ///
    /// * **stationary-C**, `A` side: `sum_r kb * m_loc(r) * (q - 1)` when
    ///   `opa` is `None` (the resident grid-row broadcast); with a
    ///   transposed/adjoint `A` the panel is assembled from the owning grid
    ///   row, so row `r` pays `kb * m_loc(r) * q` unless it *is* the owner
    ///   (then `q - 1`) — the alignment term. The `B` side is the mirror
    ///   image with `p` and `q` swapped.
    /// * **stationary-A**: ships the raw `B` depth slice to each grid column
    ///   (`p` copies per element, minus the one already home) and reduces
    ///   partial results along grid rows (`m_loc(r) * kb * (q - 1)`).
    /// * **stationary-B**: the transpose-mirror of stationary-A.
    pub fn summa_traffic_elems(
        &self,
        opa: Op,
        opb: Op,
        other: &DistMatrix,
        variant: SummaVariant,
    ) -> Option<u64> {
        let summa = Summa::plan(self, opa, opb, other, variant)?;
        let (p, q) = (self.grid.rows(), self.grid.cols());
        // Stationary-A/B: the moving operand's op, the size of the groups its
        // slices ship to, and the extent and group size of the reduction.
        let reduction = match variant {
            SummaVariant::StationaryC => None,
            SummaVariant::StationaryA => Some((opb, p, self.nrows(), q)),
            SummaVariant::StationaryB => Some((opa, q, other.ncols(), p)),
        };
        let mut total = 0;
        for panel in &summa.panels {
            let Some((op, ship_to, reduced, reduce_over)) = reduction else {
                for r in 0..p {
                    let recv = if opa == Op::None || r == panel.a_owner { q - 1 } else { q };
                    total += panel.len * summa.out_rows.local_len(r) * recv;
                }
                for c in 0..q {
                    let recv = if opb == Op::None || c == panel.b_owner { p - 1 } else { p };
                    total += panel.len * summa.out_cols.local_len(c) * recv;
                }
                continue;
            };
            for pc in &summa.pieces {
                let home = if op == Op::None {
                    pc.a_owner == panel.a_owner
                } else {
                    pc.a_owner == pc.b_owner
                };
                total += panel.len * pc.len * (ship_to - usize::from(home));
            }
            total += reduced * panel.len * (reduce_over - 1);
        }
        Some(total as u64)
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

    /// Raw slice of `self` for the SUMMA panels that are assembled rather
    /// than broadcast in place: the global range `[d0, d0 + kb)` of the rows
    /// (`range_is_rows`, giving `kb x owned`) or of the columns (`owned x kb`)
    /// at the columns (resp. rows) `dist` assigns to `part`, packed in
    /// `part`'s local order.
    fn slice_for_part(
        &self,
        range_is_rows: bool,
        d0: usize,
        kb: usize,
        dist: &Dist1D,
        part: usize,
    ) -> Matrix {
        let owned = dist.local_len(part);
        let mut out =
            if range_is_rows { Matrix::zeros(kb, owned) } else { Matrix::zeros(owned, kb) };
        for seg in dist.segments().iter().filter(|s| s.owner == part) {
            if range_is_rows {
                let sub = self.submatrix_global(d0, kb, seg.start, seg.len);
                out.set_submatrix(0, seg.local_start, &sub);
            } else {
                let sub = self.submatrix_global(seg.start, seg.len, d0, kb);
                out.set_submatrix(seg.local_start, 0, &sub);
            }
        }
        out
    }

    /// Replicated Gram matrix `G = self^H * self` — the communication
    /// pattern of the paper's Algorithm 5. On the column-replicated (grid
    /// `p x 1`) layout this is a sum of local Gram matrices followed by an
    /// allreduce of the small `ncols x ncols` result; on a genuine 2-D
    /// layout it runs adjoint-operand SUMMA
    /// ([`DistMatrix::matmul_dist_op`] with `opA = Adjoint`) and
    /// allreduces the small distributed result — never a full-operand
    /// gather. Realness flows through either way: a real operand bills real
    /// MACs and yields a hint-carrying real Gram matrix.
    ///
    /// Only the 2-D path can fail, and only as its SUMMA can: under a
    /// [`crate::FaultPlan::persistent`] fault plan that outlasts the retry
    /// budget.
    ///
    /// ```
    /// use koala_cluster::{Cluster, DistMatrix};
    /// use koala_linalg::matmul_adj_a;
    /// use koala_linalg::Matrix;
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    ///
    /// let cluster = Cluster::new(4); // 2 x 2 grid
    /// let mut rng = StdRng::seed_from_u64(7);
    /// let a = Matrix::random(12, 5, &mut rng);
    /// let d = DistMatrix::scatter_block_cyclic(&cluster, &a, cluster.grid(), 3, 2);
    /// let g = d.gram().unwrap();
    /// assert!(g.max_diff(&matmul_adj_a(&a, &a)) < 1e-12);
    /// assert_eq!(cluster.stats().full_gathers, 0); // no gather fallback
    /// ```
    pub fn gram(&self) -> crate::Result<Matrix> {
        let n = self.ncols();
        let g = if self.grid.cols() == 1 {
            let mut g = Matrix::zeros(n, n);
            for (rank, block) in self.blocks.iter().enumerate() {
                let macs = (block.nrows() * n * n) as u64;
                self.cluster.record_macs(rank, macs, block.is_real());
                let local = matmul_adj_a(block, block);
                g += &local;
            }
            g
        } else {
            // 2-D layout: adjoint-operand SUMMA keeps the O(n^2 / sqrt(P))
            // traffic bound. A Gram product has a tiny output and a huge
            // depth, so the dispatcher usually picks the reduction dataflow
            // (stationary-B keeps `self` in place and reduces the small
            // result panels) over stationary-C.
            self.matmul_dist_op(Op::Adjoint, Op::None, self)?.gather_local()
        };
        // Allreduce of an ncols x ncols matrix (tree: log P rounds, but the
        // flat volume model is what the paper's analysis uses).
        self.cluster.record_collective(n * n * (self.cluster.nranks() - 1), 2);
        Ok(g)
    }

    /// `y = self^H * x` with `x` replicated; the partial products are
    /// allreduced into a replicated result. Requires the column-replicated
    /// (grid `p x 1`) layout.
    pub fn matmul_adj_replicated(&self, x: &Matrix) -> Matrix {
        assert_eq!(self.nrows(), x.nrows(), "matmul_adj_replicated: row mismatch");
        assert_eq!(
            self.grid.cols(),
            1,
            "matmul_adj_replicated: requires a column-replicated (p x 1) layout"
        );
        let mut acc = Matrix::zeros(self.ncols(), x.ncols());
        for rs in &self.rows.segments() {
            let rank = self.grid.rank_of(rs.owner, 0);
            let block = &self.blocks[rank];
            let block_rows = block.submatrix(rs.local_start, 0, rs.len, self.ncols());
            let x_block = x.submatrix(rs.start, 0, rs.len, x.ncols());
            let macs = (self.ncols() * rs.len * x.ncols()) as u64;
            self.cluster.record_macs(rank, macs, block.is_real() && x.is_real());
            acc += &matmul_adj_a(&block_rows, &x_block);
        }
        self.cluster.record_collective(self.ncols() * x.ncols() * (self.cluster.nranks() - 1), 2);
        acc
    }

    /// Frobenius norm (local partial norms + allreduce of a scalar).
    pub fn norm_fro(&self) -> f64 {
        let sum: f64 = self
            .blocks
            .iter()
            .map(|b| {
                let n = b.norm_fro();
                n * n
            })
            .sum();
        self.cluster.record_collective(self.cluster.nranks() - 1, 2);
        sum.sqrt()
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

    /// Maximum element-wise difference against a replicated reference
    /// (testing utility; does not touch the counters).
    pub fn max_diff_replicated(&self, reference: &Matrix) -> f64 {
        self.gather_local().max_diff(reference)
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

/// Relative eigenvalue floor below which the distributed Gram matrix is
/// considered to have lost positive semi-definiteness — same threshold and
/// rationale as the shared-memory `koala_linalg::gram` ladder.
const GRAM_PSD_FLOOR: f64 = 1e-10;

/// Distributed QR through the Gram matrix (paper Algorithm 5): the only
/// collective on the `p x 1` layout is the allreduce of the tiny
/// `ncols x ncols` Gram matrix, and on a 2-D layout the Gram matrix comes
/// from adjoint-operand SUMMA ([`DistMatrix::gram`]) at the
/// `O(n^2 / sqrt(P))` traffic bound; the big operand is never gathered or
/// redistributed on either layout. A realness-hinted operand keeps the
/// whole factorization on the real path — the Gram matrix, the replicated
/// eigendecomposition, the `R` factors, and the distributed `Q` all carry the
/// hint, and every rank bills real MACs only.
///
/// Ill-conditioning is detected, not suffered: if the Gram matrix is
/// non-finite, its eigendecomposition fails, or an eigenvalue falls below
/// `-GRAM_PSD_FLOOR * lambda_max` (the squared condition number destroyed
/// the spectrum — the paper's own stability caveat for Algorithm 5), the
/// routine degrades to [`qr_gather_dist`] — the stable gather/factorize/
/// scatter baseline, at its redistribution cost — and notes the degradation
/// on the [`koala_error::recovery`] counters. Non-finite *input* blocks are
/// rejected up front: no factorization can repair them.
pub fn gram_qr_dist(a: &DistMatrix) -> crate::Result<DistQr> {
    let n = a.ncols();
    let g = a.gram()?;
    // Every rank performs the identical small eigendecomposition (replicated,
    // as in the paper where the Gram matrix is sent to local memory).
    let healthy = if g.validate_finite("distributed Gram matrix").is_err() {
        None
    } else {
        match eigh(&g) {
            Ok(e) => {
                let lam_max = e.values.iter().cloned().fold(0.0, f64::max).max(0.0);
                let lam_min = e.values.first().copied().unwrap_or(0.0); // ascending order
                let finite = e.values.iter().all(|lam| lam.is_finite());
                if finite && lam_min >= -GRAM_PSD_FLOOR * lam_max.max(f64::MIN_POSITIVE) {
                    Some((e, lam_max))
                } else {
                    None
                }
            }
            Err(_) => None,
        }
    };
    let Some((e, lam_max)) = healthy else {
        for rank in 0..a.cluster().nranks() {
            a.block(rank)
                .validate_finite("gram_qr_dist input block")
                .map_err(|err| err.context(format!("rank {rank}")))?;
        }
        koala_error::recovery::note_qr_degradation();
        return Ok(qr_gather_dist(a));
    };
    a.cluster().record_macs_all((n * n * n) as u64, g.is_real());
    // R = sqrt(Lambda) X^H and R^{-1} = X sqrt(Lambda)^{-1}, assembled by the
    // same element-wise helper as the shared-memory `koala_linalg::gram_qr`
    // (no X / X^H intermediates).
    let (r, r_inv) = koala_linalg::gram::gram_r_factors(&e, lam_max * 1e-24);
    // Q = A R^{-1}: a purely local multiply on each row block.
    let q = a.matmul_replicated(&r_inv);
    Ok(DistQr { q, r, r_inv: Some(r_inv) })
}

/// Baseline distributed QR that mirrors what a generic distributed tensor
/// framework does when asked to matricize and factorize: gather the full
/// operand to one rank, factorize there, then scatter `Q` and broadcast `R`.
/// This is the expensive "reshape + ScaLAPACK" path that Algorithm 5 avoids.
pub fn qr_gather_dist(a: &DistMatrix) -> DistQr {
    let full = a.gather();
    let cluster = a.cluster();
    // Rank 0 performs the factorization.
    let f = koala_linalg::qr(&full);
    cluster.record_macs(0, (full.nrows() * full.ncols() * full.ncols() * 2) as u64, full.is_real());
    // Scatter Q back to the original distribution (Q keeps A's rows; its
    // `min(m, n)` columns take a layout of A's column family), broadcast R.
    let q_cols = a.cols.like_parts(f.q.ncols(), a.grid().cols());
    let q = DistMatrix::scatter_with(cluster, &f.q, a.grid(), a.rows.clone(), q_cols);
    cluster.record_collective(f.r.nrows() * f.r.ncols() * (cluster.nranks() - 1), 1);
    cluster.record_redistribution(full.nrows() * full.ncols());
    DistQr { q, r: f.r, r_inv: None }
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
        let d = DistMatrix::scatter(&cluster, &a);
        (cluster, a, d)
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let (_c, a, d) = cluster_and_matrix(4, 10, 3, 1);
        assert!(d.allgather().approx_eq(&a, 0.0));
        assert!(d.gather().approx_eq(&a, 0.0));
        assert_eq!(d.shape(), (10, 3));
    }

    #[test]
    fn block_cyclic_scatter_gather_roundtrip() {
        let cluster = Cluster::new(6);
        let mut rng = StdRng::seed_from_u64(60);
        let a = Matrix::random(13, 11, &mut rng);
        let d = DistMatrix::scatter_block_cyclic(&cluster, &a, ProcGrid::new(2, 3), 2, 3);
        assert_eq!(d.grid().rows(), 2);
        assert_eq!(d.grid().cols(), 3);
        assert!(d.allgather().approx_eq(&a, 0.0));
        // Local shapes follow the cyclic layout.
        for rank in 0..6 {
            let (r, c) = d.grid().coords_of(rank);
            assert_eq!(
                d.block(rank).shape(),
                (d.row_dist().local_len(r), d.col_dist().local_len(c))
            );
        }
    }

    #[test]
    fn more_ranks_than_rows_is_fine() {
        let (_c, a, d) = cluster_and_matrix(8, 3, 2, 2);
        assert!(d.allgather().approx_eq(&a, 0.0));
        assert_eq!(d.block(7).nrows(), 0);
    }

    #[test]
    fn replicated_matmul_matches_local() {
        let (_c, a, d) = cluster_and_matrix(3, 12, 5, 3);
        let mut rng = StdRng::seed_from_u64(30);
        let b = Matrix::random(5, 4, &mut rng);
        let c_dist = d.matmul_replicated(&b);
        assert!(c_dist.max_diff_replicated(&matmul(&a, &b)) < 1e-11);
    }

    #[test]
    fn dist_matmul_matches_local() {
        let cluster = Cluster::new(4);
        let mut rng = StdRng::seed_from_u64(31);
        let a = Matrix::random(9, 6, &mut rng);
        let b = Matrix::random(6, 7, &mut rng);
        let da = DistMatrix::scatter(&cluster, &a);
        let db = DistMatrix::scatter(&cluster, &b);
        let c = da.matmul_dist(&db).unwrap();
        assert!(c.max_diff_replicated(&matmul(&a, &b)) < 1e-11);
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
        let mut d = DistMatrix::scatter(&cluster, &a);
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
    fn adjoint_apply_matches_local() {
        let (_c, a, d) = cluster_and_matrix(3, 15, 4, 5);
        let mut rng = StdRng::seed_from_u64(50);
        let x = Matrix::random(15, 2, &mut rng);
        let y = d.matmul_adj_replicated(&x);
        assert!(y.approx_eq(&matmul_adj_a(&a, &x), 1e-10));
    }

    #[test]
    fn norm_matches_local() {
        let (_c, a, d) = cluster_and_matrix(5, 17, 3, 6);
        assert!((d.norm_fro() - a.norm_fro()).abs() < 1e-10);
    }

    #[test]
    fn gram_qr_dist_factorizes() {
        let (_c, a, d) = cluster_and_matrix(4, 30, 5, 7);
        let f = gram_qr_dist(&d).unwrap();
        let q_full = f.q.allgather();
        assert!(q_full.has_orthonormal_cols(1e-8));
        assert!(matmul(&q_full, &f.r).approx_eq(&a, 1e-8));
        assert!(matmul(&f.r, &f.r_inv.unwrap()).approx_eq(&Matrix::identity(5), 1e-8));
    }

    #[test]
    fn gram_qr_dist_of_real_operand_stays_real_per_rank() {
        let cluster = Cluster::new(4);
        let mut rng = StdRng::seed_from_u64(70);
        let a = Matrix::random_real(32, 5, &mut rng);
        let d = DistMatrix::scatter(&cluster, &a);
        cluster.reset_stats();
        let f = gram_qr_dist(&d).unwrap();
        assert!(f.q.is_real(), "distributed Q keeps the hint");
        assert!(f.r.is_real(), "replicated R keeps the hint");
        let stats = cluster.stats();
        assert_eq!(stats.total_flops(), 0, "no complex MACs on any rank");
        assert!(stats.total_real_macs() > 0);
        let q_full = f.q.allgather();
        assert!(q_full.has_orthonormal_cols(1e-8));
        assert!(matmul(&q_full, &f.r).approx_eq(&a, 1e-8));
    }

    #[test]
    fn qr_gather_dist_factorizes_but_costs_a_redistribution() {
        let (cluster, a, d) = cluster_and_matrix(4, 30, 5, 8);
        cluster.reset_stats();
        let f = qr_gather_dist(&d);
        let q_full = f.q.allgather();
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
        let da = DistMatrix::scatter_block_cyclic(&cluster, &a, cluster.grid(), 4, 4);
        let db = DistMatrix::scatter_block_cyclic(&cluster, &b, cluster.grid(), 4, 4);
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
            let da2 = DistMatrix::scatter_block_cyclic(&c2, &a, c2.grid(), 4, 4);
            let db2 = DistMatrix::scatter_block_cyclic(&c2, &b, c2.grid(), 4, 4);
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
        let da = DistMatrix::scatter_block_cyclic(&cluster, &a, cluster.grid(), 8, 8);
        let db = DistMatrix::scatter_block_cyclic(&cluster, &b, cluster.grid(), 8, 8);
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
        let da = DistMatrix::scatter_block_cyclic(&cluster, &a, cluster.grid(), 4, 4);
        let db = DistMatrix::scatter_block_cyclic(&cluster, &b, cluster.grid(), 4, 4);
        cluster.arm_faults(FaultPlan::seeded(5).corrupt_prob(1.0).persistent());
        let err = da.matmul_dist(&db).unwrap_err();
        cluster.disarm_faults();
        assert_eq!(err.kind(), koala_error::ErrorKind::Fault);
        assert!(err.to_string().contains("retries"), "diagnostic names the retry budget: {err}");
        // The adjoint SUMMA behind a 2-D Gram matrix fails the same typed
        // way, and `gram_qr_dist` hands the error to its caller.
        cluster.arm_faults(FaultPlan::seeded(5).corrupt_prob(1.0).persistent());
        let err = gram_qr_dist(&da).unwrap_err();
        cluster.disarm_faults();
        assert_eq!(err.kind(), koala_error::ErrorKind::Fault);
    }

    #[test]
    fn gather_corruption_is_verified_and_retried() {
        use crate::fault::FaultPlan;
        let (cluster, a, d) = cluster_and_matrix(4, 12, 5, 93);
        cluster.arm_faults(FaultPlan::seeded(1).corrupt_prob(1.0));
        cluster.reset_stats();
        let gathered = d.gather();
        let log = cluster.disarm_faults();
        assert!(gathered.approx_eq(&a, 0.0));
        assert!(!log.is_empty());
        assert_eq!(cluster.stats().retries as usize, log.len());
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
        let d = DistMatrix::scatter(&cluster, &a);
        let before = koala_error::recovery::snapshot().qr_degradations;
        let f = gram_qr_dist(&d).unwrap();
        let q_full = f.q.allgather();
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
        let d = DistMatrix::scatter(&cluster, &a);
        cluster.reset_stats();
        let _ = gram_qr_dist(&d).unwrap();
        let gram_bytes = cluster.reset_stats().bytes_communicated;
        let _ = qr_gather_dist(&d);
        let gather_bytes = cluster.reset_stats().bytes_communicated;
        assert!(
            gram_bytes * 4 < gather_bytes,
            "gram path ({gram_bytes} B) should communicate far less than gather path ({gather_bytes} B)"
        );
    }
}

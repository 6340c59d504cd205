//! 2-D processor grids and 1-D index distributions.
//!
//! The paper's distributed backend (Cyclops + ScaLAPACK) maps every tensor
//! onto a logical `p x q` **processor grid**: matrix rows are dealt to the
//! `p` grid rows, matrix columns to the `q` grid columns, and every
//! collective moves data along one grid dimension only. This module provides
//! the two pieces of bookkeeping that layout needs:
//!
//! * [`ProcGrid`] — the `p x q` factorization of the rank count and the
//!   `rank <-> (grid row, grid col)` numbering,
//! * [`Dist1D`] — how one global index range is split across the parts of a
//!   grid dimension, either as contiguous blocks ([`Dist1D::blocks`], the
//!   classic block-row split) or as ScaLAPACK-style block-cyclic rounds
//!   ([`Dist1D::cyclic`]: SUMMA operands, and the rows of the site
//!   matricizations a distributed bond update scatters on a `P x 1` grid).
//!
//! ## Layout rules
//!
//! A distributed matrix owned by rank `(r, c)` stores the global rows
//! assigned to grid row `r` and the global columns assigned to grid column
//! `c`, both **in increasing global order**. For a cyclic layout with block
//! size `b`, global index `i` belongs to part `(i / b) % parts` at local
//! offset `(i / (b * parts)) * b + i % b` — consecutive global blocks are
//! dealt round-robin, so growing or shrinking the matrix redistributes O(1)
//! blocks per rank and every rank's share of any contiguous index range is
//! balanced to within one block. [`Dist1D::segments`] flattens either layout
//! into ordered `(owner, global range, local offset)` runs, which is the
//! only view the SUMMA loop needs: a communication round broadcasts one
//! segment (or a refinement of one), and within a segment local storage is
//! contiguous.

use crate::cluster::block_ranges;

/// A logical `p x q` grid over the ranks of a cluster.
///
/// Rank numbering is row-major: grid coordinate `(r, c)` is rank
/// `r * q + c`, matching the default MPI Cartesian communicator order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcGrid {
    p: usize,
    q: usize,
}

impl ProcGrid {
    /// A `p x q` grid. Both dimensions must be nonzero.
    pub fn new(p: usize, q: usize) -> Self {
        assert!(p > 0 && q > 0, "ProcGrid: both grid dimensions must be nonzero");
        ProcGrid { p, q }
    }

    /// The most nearly square grid for `nranks` ranks: `p` is the largest
    /// divisor of `nranks` not exceeding `sqrt(nranks)` and `q = nranks / p`,
    /// so `p <= q` and `p * q == nranks` always. Squarer grids minimise the
    /// `O(n^2 (p + q) / P)` per-rank SUMMA traffic.
    pub fn square_for(nranks: usize) -> Self {
        assert!(nranks > 0, "ProcGrid: need at least one rank");
        let mut p = 1;
        let mut d = 1;
        while d * d <= nranks {
            if nranks.is_multiple_of(d) {
                p = d;
            }
            d += 1;
        }
        ProcGrid { p, q: nranks / p }
    }

    /// A `nranks x 1` grid: the pure block-row distribution every
    /// [`crate::DistMatrix::scatter`] uses by default.
    pub fn column(nranks: usize) -> Self {
        ProcGrid::new(nranks, 1)
    }

    /// Number of grid rows `p`.
    pub fn rows(&self) -> usize {
        self.p
    }

    /// Number of grid columns `q`.
    pub fn cols(&self) -> usize {
        self.q
    }

    /// Total ranks `p * q`.
    pub fn nranks(&self) -> usize {
        self.p * self.q
    }

    /// Rank of grid coordinate `(r, c)` (row-major).
    pub(crate) fn rank_of(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.p && c < self.q, "ProcGrid: coordinate out of range");
        r * self.q + c
    }

    /// Grid coordinate `(r, c)` of `rank`.
    pub(crate) fn coords_of(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.nranks(), "ProcGrid: rank out of range");
        (rank / self.q, rank % self.q)
    }
}

/// How one global index dimension is laid out across the parts of a grid
/// dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Layout1D {
    /// Contiguous blocks: part `i` owns the `i`-th range; the vector holds
    /// the per-part lengths (which must sum to the global extent). This is
    /// the layout of [`crate::DistMatrix::scatter`].
    Blocks(Vec<usize>),
    /// ScaLAPACK block-cyclic rounds of the given block size: global block
    /// `t` (indices `t*block .. (t+1)*block`) belongs to part `t % parts`.
    Cyclic {
        /// Elements per cyclic block (the last global block may be ragged).
        block: usize,
    },
}

/// One contiguous ownership run of a [`Dist1D`]: global indices
/// `start..start + len` live on `owner` at local offsets
/// `local_start..local_start + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Seg {
    /// Owning part (a grid row or grid column index).
    pub owner: usize,
    /// First global index of the run.
    pub start: usize,
    /// Run length.
    pub len: usize,
    /// Offset of the run within the owner's local storage.
    pub local_start: usize,
}

/// A 1-D distribution: a global extent split over `parts` grid slots, in
/// contiguous blocks or in block-cyclic rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Dist1D {
    n: usize,
    parts: usize,
    layout: Layout1D,
}

impl Dist1D {
    /// Contiguous layout from explicit per-part lengths.
    pub(crate) fn blocks(lens: Vec<usize>) -> Self {
        let n = lens.iter().sum();
        let parts = lens.len();
        assert!(parts > 0, "Dist1D: need at least one part");
        Dist1D { n, parts, layout: Layout1D::Blocks(lens) }
    }

    /// Contiguous layout with nearly equal block lengths (the split
    /// [`crate::cluster::block_ranges`] produces).
    pub(crate) fn balanced(n: usize, parts: usize) -> Self {
        Dist1D::blocks(block_ranges(n, parts).into_iter().map(|(_, len)| len).collect())
    }

    /// A single part owning the whole extent (a replicated / undistributed
    /// dimension).
    pub(crate) fn whole(n: usize) -> Self {
        Dist1D::blocks(vec![n])
    }

    /// Block-cyclic layout with the given block size.
    pub(crate) fn cyclic(n: usize, parts: usize, block: usize) -> Self {
        assert!(parts > 0, "Dist1D: need at least one part");
        assert!(block > 0, "Dist1D: cyclic block size must be nonzero");
        Dist1D { n, parts, layout: Layout1D::Cyclic { block } }
    }

    /// Global extent.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Number of parts (the size of the grid dimension this layout maps to).
    pub(crate) fn parts(&self) -> usize {
        self.parts
    }

    /// Number of global indices owned by `part`.
    pub(crate) fn local_len(&self, part: usize) -> usize {
        assert!(part < self.parts, "Dist1D: part out of range");
        match &self.layout {
            Layout1D::Blocks(lens) => lens[part],
            Layout1D::Cyclic { block } => {
                // Sum the owned blocks directly; only the globally-last block
                // can be ragged, so every term but (possibly) the final one
                // is `block`.
                let nblocks = self.n.div_ceil(*block);
                let mut len = 0;
                let mut t = part;
                while t < nblocks {
                    len += (self.n - t * block).min(*block);
                    t += self.parts;
                }
                len
            }
        }
    }

    /// Owning part of global index `i`.
    #[cfg(test)]
    pub(crate) fn owner(&self, i: usize) -> usize {
        assert!(i < self.n, "Dist1D: index out of range");
        match &self.layout {
            Layout1D::Blocks(lens) => {
                let mut pos = 0;
                for (part, &len) in lens.iter().enumerate() {
                    pos += len;
                    if i < pos {
                        return part;
                    }
                }
                self.parts - 1
            }
            Layout1D::Cyclic { block } => (i / block) % self.parts,
        }
    }

    /// A distribution of `n` indices over `parts` slots in the same layout
    /// *family* as `self`: cyclic layouts keep their block size, contiguous
    /// layouts become the balanced split. This is how
    /// [`crate::qr_gather_dist`] lays out the columns of the `Q` it scatters
    /// back, whose extent is `min(m, n)` rather than the operand's `n`.
    pub(crate) fn like_parts(&self, n: usize, parts: usize) -> Dist1D {
        match &self.layout {
            Layout1D::Cyclic { block } => Dist1D::cyclic(n, parts, *block),
            Layout1D::Blocks(_) => Dist1D::balanced(n, parts),
        }
    }

    /// Ordered ownership runs covering `0..n` exactly once. Within each run
    /// local storage is contiguous, which is what lets the SUMMA loop slice
    /// broadcast panels straight out of the owner's block.
    pub(crate) fn segments(&self) -> Vec<Seg> {
        match &self.layout {
            Layout1D::Blocks(lens) => {
                let mut segs = Vec::with_capacity(self.parts);
                let mut start = 0;
                for (owner, &len) in lens.iter().enumerate() {
                    if len > 0 {
                        segs.push(Seg { owner, start, len, local_start: 0 });
                    }
                    start += len;
                }
                segs
            }
            Layout1D::Cyclic { block } => {
                let nblocks = self.n.div_ceil(*block);
                let mut segs = Vec::with_capacity(nblocks);
                for t in 0..nblocks {
                    let start = t * block;
                    let len = (self.n - start).min(*block);
                    segs.push(Seg {
                        owner: t % self.parts,
                        start,
                        len,
                        local_start: (t / self.parts) * block,
                    });
                }
                segs
            }
        }
    }
}

/// One SUMMA depth panel: a maximal global range owned by a single part in
/// *both* of two distributions of the same extent (the common refinement of
/// their segment lists).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Panel {
    /// Panel width.
    pub len: usize,
    /// Owner part and local offset in the first distribution.
    pub a_owner: usize,
    /// Local offset of the panel within `a_owner`'s storage.
    pub a_local: usize,
    /// Owner part in the second distribution.
    pub b_owner: usize,
    /// Local offset of the panel within `b_owner`'s storage.
    pub b_local: usize,
}

/// Common refinement of two segmentations of the same global extent: the
/// panels a SUMMA execution iterates over. Both inputs must cover the same
/// range (checked).
pub(crate) fn refine(a: &Dist1D, b: &Dist1D) -> Vec<Panel> {
    assert_eq!(a.n(), b.n(), "refine: extents differ");
    let sa = a.segments();
    let sb = b.segments();
    let mut panels = Vec::new();
    let (mut ia, mut ib) = (0, 0);
    let mut pos = 0;
    while pos < a.n() {
        let seg_a = &sa[ia];
        let seg_b = &sb[ib];
        debug_assert!(seg_a.start <= pos && pos < seg_a.start + seg_a.len);
        debug_assert!(seg_b.start <= pos && pos < seg_b.start + seg_b.len);
        let end = (seg_a.start + seg_a.len).min(seg_b.start + seg_b.len);
        panels.push(Panel {
            len: end - pos,
            a_owner: seg_a.owner,
            a_local: seg_a.local_start + (pos - seg_a.start),
            b_owner: seg_b.owner,
            b_local: seg_b.local_start + (pos - seg_b.start),
        });
        if end == seg_a.start + seg_a.len {
            ia += 1;
        }
        if end == seg_b.start + seg_b.len {
            ib += 1;
        }
        pos = end;
    }
    panels
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Offset of global index `i` within its owner's local storage, read off
    /// the ownership runs.
    fn local_of(d: &Dist1D, i: usize) -> usize {
        let seg = d.segments().into_iter().find(|s| s.start <= i && i < s.start + s.len).unwrap();
        seg.local_start + (i - seg.start)
    }

    #[test]
    fn square_grids_factor_the_rank_count() {
        for (n, p, q) in [(1, 1, 1), (4, 2, 2), (6, 2, 3), (7, 1, 7), (12, 3, 4), (16, 4, 4)] {
            let g = ProcGrid::square_for(n);
            assert_eq!((g.rows(), g.cols()), (p, q), "nranks = {n}");
            assert_eq!(g.nranks(), n);
        }
    }

    #[test]
    fn rank_numbering_roundtrips() {
        let g = ProcGrid::new(3, 4);
        for rank in 0..12 {
            let (r, c) = g.coords_of(rank);
            assert_eq!(g.rank_of(r, c), rank);
        }
    }

    #[test]
    fn cyclic_layout_covers_everything_exactly_once() {
        for (n, parts, block) in [(10, 3, 2), (7, 2, 3), (5, 4, 1), (0, 3, 2), (9, 3, 4)] {
            let d = Dist1D::cyclic(n, parts, block);
            let segs = d.segments();
            let total: usize = segs.iter().map(|s| s.len).sum();
            assert_eq!(total, n);
            // Per-part local offsets are contiguous and start at zero.
            let mut local_pos = vec![0usize; parts];
            let mut covered = vec![false; n];
            for s in &segs {
                assert_eq!(s.local_start, local_pos[s.owner], "segments in local order");
                local_pos[s.owner] += s.len;
                for i in s.start..s.start + s.len {
                    assert_eq!(d.owner(i), s.owner);
                    assert_eq!(
                        (i / (block * parts)) * block + i % block,
                        s.local_start + (i - s.start)
                    );
                    covered[i] = true;
                }
            }
            assert!(covered.iter().all(|&c| c));
            for part in 0..parts {
                assert_eq!(d.local_len(part), local_pos[part], "local_len consistent");
            }
        }
    }

    #[test]
    fn blocks_layout_matches_balanced_ranges() {
        let d = Dist1D::balanced(10, 3);
        assert_eq!(d.local_len(0), 4);
        assert_eq!(d.local_len(1), 3);
        assert_eq!(d.local_len(2), 3);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(4), 1);
        assert_eq!(local_of(&d, 4), 0);
        assert_eq!(d.owner(9), 2);
        assert_eq!(local_of(&d, 9), 2);
    }

    #[test]
    fn like_parts_keeps_the_layout_family() {
        let cyc = Dist1D::cyclic(10, 2, 3).like_parts(14, 4);
        assert_eq!((cyc.n(), cyc.parts()), (14, 4));
        // Block size 3 survives: the first run of 3 goes to part 0, the next
        // to part 1, and so on.
        assert_eq!(cyc.owner(0), 0);
        assert_eq!(cyc.owner(3), 1);
        assert_eq!(cyc.owner(9), 3);
        assert_eq!(cyc.owner(12), 0);
        let blk = Dist1D::blocks(vec![1, 9]).like_parts(10, 3);
        assert_eq!((blk.n(), blk.parts()), (10, 3));
        // Contiguous layouts come back balanced, whatever the input lens.
        assert_eq!(blk.local_len(0), 4);
        assert_eq!(blk.local_len(1), 3);
        assert_eq!(blk.local_len(2), 3);
    }

    #[test]
    fn refinement_respects_both_segmentations() {
        let a = Dist1D::cyclic(11, 2, 3); // blocks of 3, owners 0,1,0,1
        let b = Dist1D::balanced(11, 3); // lens 4,4,3
        let panels = refine(&a, &b);
        let total: usize = panels.iter().map(|p| p.len).sum();
        assert_eq!(total, 11);
        let mut pos = 0;
        for p in &panels {
            // Each panel lies inside one segment of each layout.
            for i in pos..pos + p.len {
                assert_eq!(a.owner(i), p.a_owner);
                assert_eq!(b.owner(i), p.b_owner);
            }
            assert_eq!(local_of(&a, pos), p.a_local);
            assert_eq!(local_of(&b, pos), p.b_local);
            pos += p.len;
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_grid_dimension_rejected() {
        let _ = ProcGrid::new(0, 2);
    }
}

//! `einsumsvd`: contract a tensor sub-network and refactorize it across one
//! new bond — the primitive every MPS/PEPS algorithm of the paper is written
//! against (Alg. 1 QR-SVD update, Alg. 3 zip-up, IBMPS, two-layer IBMPS).
//! The spec convention is on [`EinsumSvd`].
//!
//! # The two methods
//!
//! * [`EinsumSvdMethod::ExactSvd`] — contract the network to `theta` through
//!   a planned [`einsum`](fn@crate::einsum), unfold it in place and hand it
//!   to the truncated SVD of [`svd_split`](crate::svd_split): when
//!   `max_rank` is below theta's narrow side and that side is at least 10,
//!   [`svd_leading`](koala_linalg::svd_leading) computes the kept triplets
//!   only, otherwise [`svd()`](koala_linalg::svd) runs in full. The plan comes
//!   from the process-wide plan cache on every call (see [`EinsumSvd`]).
//! * [`EinsumSvdMethod::ImplicitRandSvd`] — the randomized SVD of paper
//!   Alg. 4 over an operator that never forms `theta`: each application
//!   absorbs the sketch block into the operands **one at a time, in list
//!   order** — last operand to first for `theta * X`, first to last over the
//!   conjugated operands for `theta^H * Y` — contracting at every step all
//!   labels the operand shares with the running block. The cost of a step is
//!   (operand size) x (block's other legs), so listing the operands along the
//!   chain of the network (boundary, then the tensors hanging off it) keeps
//!   every intermediate at sketch width: the merged bra-ket tensor of the
//!   two-layer network is never built, which is where the IBMPS and
//!   two-layer IBMPS columns of the paper's Table II come from. On this
//!   route only `truncation.max_rank` applies (it is the sketch's target
//!   rank); a sketch resolves no trailing spectrum for `rel_tol` to cut.
//!
//!   The sketch saves work only while it is narrower than `theta`. When
//!   `rank + oversample >= min(rows, cols)` — where `rsvd` would clamp the
//!   sketch to theta's narrow side and return the exact truncated SVD after
//!   `2 n_iter + 2` operator applications — [`EinsumSvd::split`] takes the
//!   explicit route instead, as [`EinsumSvd::exact`] with the caller's whole
//!   [`Truncation`] (`max_rank` and `rel_tol`, as BMPS). The choice is made
//!   from the shapes before any draw, and an exact step draws nothing from
//!   `rng`. The first and last step of a zip-up have a theta whose narrow
//!   side is one site's vertical bond (`r^2` in a merged bra-ket row), so at
//!   the default 10 oversamples they take this route whenever `r^2 <= m +
//!   10`; on a three-column lattice those are all the steps.

use crate::contract::tensordot;
use crate::decomp::{build_split_svd, fold_split, SplitSvd, Truncation};
use crate::einsum::{einsum_spec, parse_spec, EinsumSpec};
use crate::shape::is_identity_perm;
use crate::tensor::Tensor;
use koala_error::{KoalaError, Result};
use koala_linalg::{rsvd, LinearOp, Matrix, RsvdOptions};
use rand::Rng;
use std::sync::OnceLock;

/// How an [`EinsumSvd`] evaluates its refactorization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EinsumSvdMethod {
    /// Contract the network and truncate an exact SVD (BMPS building block).
    ExactSvd,
    /// Randomized SVD with the network applied implicitly (IBMPS building
    /// block); `n_iter` subspace iterations, `oversample` extra sketch columns.
    /// A call whose `rank + oversample` columns would span theta's narrow
    /// side runs [`ExactSvd`](Self::ExactSvd) instead and draws nothing (see
    /// the module doc).
    ImplicitRandSvd {
        /// Number of subspace (power) iterations.
        n_iter: usize,
        /// Extra sketch columns beyond the target rank.
        oversample: usize,
    },
}

impl EinsumSvdMethod {
    /// The implicit method with the defaults used throughout the benchmarks.
    pub fn implicit_default() -> Self {
        EinsumSvdMethod::ImplicitRandSvd { n_iter: 2, oversample: 10 }
    }
}

/// Stand-in label for the sketch axis while planning a sweep (spec labels are
/// ASCII letters, so it cannot collide).
const SKETCH: char = '#';

/// One step of a sweep: `block <- tensordot(operand, block, ..)` over every
/// label the two share.
#[derive(Debug)]
struct Absorb {
    operand: usize,
    axes_operand: Vec<usize>,
    axes_block: Vec<usize>,
}

/// A pass of the sketch block through the whole operand list, and the
/// permutation (`None` = identity) of the result into `[labels.., sketch]`.
#[derive(Debug)]
struct Sweep {
    steps: Vec<Absorb>,
    perm: Option<Vec<usize>>,
}

impl Sweep {
    /// Plan the absorption of a block labelled `[start.., sketch]` into the
    /// operands in `order`, ending as `[end.., sketch]`.
    fn plan(
        inputs: &[Vec<char>],
        order: impl Iterator<Item = usize>,
        start: &[char],
        end: &[char],
    ) -> Result<Sweep> {
        let mut block: Vec<char> = start.iter().copied().chain([SKETCH]).collect();
        let mut steps = Vec::with_capacity(inputs.len());
        for operand in order {
            let labels = &inputs[operand];
            let (axes_operand, axes_block) = labels
                .iter()
                .enumerate()
                .filter_map(|(axis, c)| block.iter().position(|b| b == c).map(|pos| (axis, pos)))
                .unzip();
            let mut next: Vec<char> =
                labels.iter().filter(|c| !block.contains(c)).copied().collect();
            next.extend(block.iter().filter(|c| !labels.contains(c)));
            steps.push(Absorb { operand, axes_operand, axes_block });
            block = next;
        }
        let perm = end
            .iter()
            .chain([&SKETCH])
            .map(|c| {
                block.iter().position(|b| b == c).ok_or_else(|| {
                    KoalaError::invalid(format!(
                        "einsumsvd: label '{c}' lost while planning the operator"
                    ))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Sweep { steps, perm: (!is_identity_perm(&perm)).then_some(perm) })
    }
}

/// Everything derived from the spec string alone (shapes never enter).
#[derive(Debug)]
struct Network {
    /// `inputs -> rows ++ cols`: the einsum of the explicit method.
    theta: EinsumSpec,
    n_rows: usize,
    /// `(operand, axis)` of every theta output label, rows first.
    open: Vec<(usize, usize)>,
    /// The two `(operand, axis)` occurrences of every contracted label.
    bonds: Vec<[(usize, usize); 2]>,
    /// `theta * X`: columns in, rows out, operands last to first.
    forward: Sweep,
    /// `theta^H * Y`: rows in, columns out, (conjugated) operands first to last.
    adjoint: Sweep,
}

impl Network {
    fn parse(spec: &str) -> Result<Network> {
        let bad = |why: &str| KoalaError::invalid(format!("einsumsvd: spec '{spec}' {why}"));
        let compact: String = spec.chars().filter(|c| !c.is_whitespace()).collect();
        let (inputs, factors) = compact.split_once("->").ok_or_else(|| bad("is missing '->'"))?;
        let (left, right) = factors.split_once(',').ok_or_else(|| bad("needs two factors"))?;
        let (left, right): (Vec<char>, Vec<char>) =
            (left.chars().collect(), right.chars().collect());
        let (Some((bond, rows)), Some((first, cols))) = (left.split_last(), right.split_first())
        else {
            return Err(bad("has an empty factor"));
        };
        if bond != first || inputs.contains(*bond) {
            return Err(bad("must end the left factor and start the right one with a new label"));
        }
        let theta: String = rows.iter().chain(cols).collect();
        let theta = parse_spec(&format!("{inputs}->{theta}"))?;

        let occurrences = |c: char| {
            theta.inputs.iter().enumerate().flat_map(move |(i, labels)| {
                labels.iter().enumerate().filter(move |(_, l)| **l == c).map(move |(a, _)| (i, a))
            })
        };
        // parse_spec guarantees one occurrence per output label and two per
        // contracted one, so the `next()`s below always yield.
        let open = theta.output.iter().filter_map(|&c| occurrences(c).next()).collect();
        let mut bonds = Vec::new();
        for (i, labels) in theta.inputs.iter().enumerate() {
            for (a, &c) in labels.iter().enumerate() {
                if let Some(other) = occurrences(c).find(|&o| o > (i, a)) {
                    bonds.push([(i, a), other]);
                }
            }
        }
        let n = theta.inputs.len();
        let forward = Sweep::plan(&theta.inputs, (0..n).rev(), cols, rows)?;
        let adjoint = Sweep::plan(&theta.inputs, 0..n, rows, cols)?;
        Ok(Network { theta, n_rows: rows.len(), open, bonds, forward, adjoint })
    }
}

/// The network of one `einsumsvd` as an implicitly applied `rows x cols`
/// operator: `apply`/`apply_adj` run the planned sweeps, so no application
/// ever holds more than one operand contracted with the sketch block.
struct NetworkOp<'a> {
    network: &'a Network,
    operands: &'a [&'a Tensor],
    /// Conjugated copies for the adjoint sweep, made once per operator; a
    /// real operand is its own conjugate and is borrowed instead.
    conjugated: Vec<Option<Tensor>>,
    row_dims: Vec<usize>,
    col_dims: Vec<usize>,
}

impl Network {
    /// The row and column dimensions of `theta` over `operands`, after
    /// validating the operand shapes against the spec.
    fn dims(&self, operands: &[&Tensor]) -> Result<(Vec<usize>, Vec<usize>)> {
        let inputs = &self.theta.inputs;
        if operands.len() != inputs.len()
            || operands.iter().zip(inputs).any(|(t, labels)| t.ndim() != labels.len())
        {
            return Err(KoalaError::shape(format!(
                "einsumsvd: operand ranks {:?} do not match the spec's {:?}",
                operands.iter().map(|t| t.ndim()).collect::<Vec<_>>(),
                inputs.iter().map(Vec::len).collect::<Vec<_>>()
            )));
        }
        let dim = |(operand, axis): (usize, usize)| operands[operand].dim(axis);
        if let Some(&[a, b]) = self.bonds.iter().find(|&&[a, b]| dim(a) != dim(b)) {
            return Err(KoalaError::shape(format!(
                "einsumsvd: contracted label '{}' has dimensions {} and {}",
                inputs[a.0][a.1],
                dim(a),
                dim(b)
            )));
        }
        let (rows, cols) = self.open.split_at(self.n_rows);
        Ok((rows.iter().map(|&o| dim(o)).collect(), cols.iter().map(|&o| dim(o)).collect()))
    }
}

impl<'a> NetworkOp<'a> {
    /// The dimensions come from [`Network::dims`], which validated the
    /// operand shapes against the spec: that is what lets the infallible
    /// [`LinearOp`] methods contract without re-checking.
    fn new(
        network: &'a Network,
        operands: &'a [&'a Tensor],
        row_dims: Vec<usize>,
        col_dims: Vec<usize>,
    ) -> Self {
        NetworkOp {
            network,
            operands,
            conjugated: operands.iter().map(|t| (!t.is_real()).then(|| t.conj())).collect(),
            row_dims,
            col_dims,
        }
    }
}

/// Reshape `x` to `[in_dims.., sketch]`, run `sweep` over `operand(i)`, and
/// return the result matricized with the sketch axis as its columns.
fn run_sweep<'t>(
    sweep: &Sweep,
    operand: impl Fn(usize) -> &'t Tensor,
    x: &Matrix,
    in_dims: &[usize],
    n_out: usize,
) -> Matrix {
    let run = || -> Result<Matrix> {
        let shape: Vec<usize> = in_dims.iter().copied().chain([x.ncols()]).collect();
        let mut block = Tensor::from_matrix_2d(x).into_reshape(&shape)?;
        for step in &sweep.steps {
            block = tensordot(operand(step.operand), &block, &step.axes_operand, &step.axes_block)?;
        }
        if let Some(perm) = &sweep.perm {
            block = block.permute(perm)?;
        }
        Ok(block.into_unfold(n_out))
    };
    run().unwrap_or_else(|e| unreachable!("einsumsvd operator was validated on construction: {e}"))
}

impl LinearOp for NetworkOp<'_> {
    fn nrows(&self) -> usize {
        self.row_dims.iter().product()
    }
    fn ncols(&self) -> usize {
        self.col_dims.iter().product()
    }
    fn apply(&self, x: &Matrix) -> Matrix {
        let sweep = &self.network.forward;
        run_sweep(sweep, |i| self.operands[i], x, &self.col_dims, self.row_dims.len())
    }
    fn apply_adj(&self, y: &Matrix) -> Matrix {
        let sweep = &self.network.adjoint;
        let conjugated = |i: usize| self.conjugated[i].as_ref().unwrap_or(self.operands[i]);
        run_sweep(sweep, conjugated, y, &self.row_dims, self.col_dims.len())
    }
    fn is_real(&self) -> bool {
        // All-real operands map real sketch blocks to real blocks, so `rsvd`
        // draws a real sketch and every contraction stays on the real kernel.
        self.operands.iter().all(|t| t.is_real())
    }
}

/// One `einsumsvd` call site: a fixed spec and its parsed network.
///
/// The spec convention is Koala's: `"ldxy,xpt,ypqr->ldk,ktqr"`. The inputs
/// are an ordinary einsum network; the two output terms are the factors. The
/// **new bond** is the one label absent from the inputs — last in the left
/// factor, first in the right one. The remaining labels of the left factor
/// are the *row* labels, those of the right factor the *column* labels, and
/// the network is factorized as the matrix `theta[(rows), (cols)]` in exactly
/// that axis order. [`EinsumSvdMethod`] picks how `theta` is factorized.
///
/// Declare one `static` per site. The spec is parsed once. The explicit
/// method looks its `theta` plan up in the process-wide plan cache
/// ([`contraction_plan`](crate::plan::contraction_plan)) on every call, so
/// each call counts one hit or miss in
/// [`plan_stats`](crate::plan::plan_stats).
///
/// ```
/// use koala_tensor::{EinsumSvd, Tensor, Truncation};
///
/// // Split a two-site tensor network "A - B" across a fresh bond `k`.
/// static TWO_SITE: EinsumSvd = EinsumSvd::new("lax,xbr->lak,kbr");
///
/// let a = Tensor::ones(&[2, 2, 3]);
/// let b = Tensor::ones(&[3, 2, 2]);
/// let f = TWO_SITE.exact(&[&a, &b], Truncation::max_rank(1)).unwrap();
/// assert_eq!(f.u.shape(), &[2, 2, 1]);
/// assert_eq!(f.vh.shape(), &[1, 2, 2]);
/// assert!(f.truncation_error < 1e-12); // an all-ones theta has rank one
/// ```
pub struct EinsumSvd {
    spec: &'static str,
    network: OnceLock<Network>,
}

impl EinsumSvd {
    /// A call site with a fixed spec string.
    pub const fn new(spec: &'static str) -> Self {
        EinsumSvd { spec, network: OnceLock::new() }
    }

    fn network(&self) -> Result<&Network> {
        if let Some(network) = self.network.get() {
            return Ok(network);
        }
        let parsed = Network::parse(self.spec)?;
        Ok(self.network.get_or_init(|| parsed))
    }

    /// The [`EinsumSvdMethod::ExactSvd`] evaluation, callable without a
    /// random source: contract to `theta`, truncate its SVD.
    ///
    /// `theta`'s axes are already rows then columns, so it is unfolded in
    /// place and handed to the truncated SVD (as
    /// [`svd_split`](crate::svd_split) routes it), which drops it once its
    /// columns are gathered: the SVD holds one copy of theta's entries where a
    /// [`svd_split`](crate::svd_split) of it would hold three (theta, its
    /// matricized copy, the gathered columns). `tests/alloc.rs` pins the
    /// peak.
    pub fn exact(&self, operands: &[&Tensor], truncation: Truncation) -> Result<SplitSvd> {
        let network = self.network()?;
        let theta = einsum_spec(&network.theta, operands)?;
        let (row_dims, col_dims) = theta.shape().split_at(network.n_rows);
        let (row_dims, col_dims) = (row_dims.to_vec(), col_dims.to_vec());
        build_split_svd(theta.into_unfold(network.n_rows), &row_dims, &col_dims, truncation)
    }

    /// Contract the network over `operands` and refactorize it with `method`.
    /// `u` is `[rows.., k]`, `vh` is `[k, cols..]`, as the spec's factors.
    ///
    /// The implicit method goes to [`exact`](Self::exact), drawing nothing
    /// from `rng`, when its sketch of `min(max_rank, rows, cols) + oversample`
    /// columns would be at least `min(rows, cols)` wide.
    pub fn split<R: Rng + ?Sized>(
        &self,
        operands: &[&Tensor],
        truncation: Truncation,
        method: EinsumSvdMethod,
        rng: &mut R,
    ) -> Result<SplitSvd> {
        let (n_iter, oversample) = match method {
            EinsumSvdMethod::ExactSvd => return self.exact(operands, truncation),
            EinsumSvdMethod::ImplicitRandSvd { n_iter, oversample } => (n_iter, oversample),
        };
        let network = self.network()?;
        let (row_dims, col_dims) = network.dims(operands)?;
        let narrow = row_dims.iter().product::<usize>().min(col_dims.iter().product());
        let rank = truncation.max_rank.unwrap_or(usize::MAX).min(narrow).max(1);
        // Such a sketch spans theta's range: `rsvd` would clamp it and reach
        // the exact truncated SVD through 2 n_iter + 2 operator applications.
        if rank.saturating_add(oversample) >= narrow {
            return self.exact(operands, truncation);
        }
        let op = NetworkOp::new(network, operands, row_dims, col_dims);
        let f = rsvd(&op, RsvdOptions { rank, oversample, n_iter }, rng)?;
        fold_split(f, &op.row_dims, &op.col_dims, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::svd_split;
    use crate::einsum::einsum;
    use koala_linalg::WorkMeter;
    use koala_linalg::{matmul, matmul_adj_a, C64};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The zip-up step (Alg. 3) and the two-layer zip-up step (§IV-A), with
    /// operand shapes in list order.
    const ZIP: &str = "ldxy,xpt,ypqr->ldk,ktqr";
    const ZIP_SHAPES: [&[usize]; 3] = [&[3, 2, 4, 3], &[4, 2, 5], &[3, 2, 2, 4]];
    const TWO_LAYER: &str = "ldxab,xuvt,puaeg,pvbfh->ldk,keftgh";
    const TWO_LAYER_SHAPES: [&[usize]; 4] =
        [&[3, 4, 5, 2, 3], &[5, 2, 3, 4], &[2, 2, 2, 3, 2], &[2, 3, 3, 2, 3]];

    /// The same two networks with theta of rank at most 4 (the bonds between
    /// the row and column operands multiply to 4) and 12 rows, so a rank-4
    /// sketch with 4 oversamples is narrower than theta and still exact.
    const ZIP_RANK_4: [&[usize]; 3] = [&[4, 3, 2, 2], &[2, 2, 5], &[2, 2, 2, 4]];
    const TWO_LAYER_RANK_4: [&[usize]; 4] =
        [&[3, 4, 2, 1, 2], &[2, 2, 3, 4], &[2, 2, 1, 3, 2], &[2, 3, 2, 2, 3]];

    /// Counts what a call takes from the caller's stream.
    struct Counting {
        inner: StdRng,
        draws: usize,
    }

    impl Rng for Counting {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    fn counting(seed: u64) -> Counting {
        Counting { inner: StdRng::seed_from_u64(seed), draws: 0 }
    }

    fn operands(shapes: &[&[usize]], real: bool, rng: &mut StdRng) -> Vec<Tensor> {
        let draw: fn(&[usize], &mut StdRng) -> Tensor =
            if real { Tensor::random_real } else { Tensor::random };
        shapes.iter().map(|s| draw(s, rng)).collect()
    }

    fn networks() -> Vec<(&'static str, Vec<&'static [usize]>)> {
        vec![(ZIP, ZIP_SHAPES.to_vec()), (TWO_LAYER, TWO_LAYER_SHAPES.to_vec())]
    }

    fn inner(a: &Matrix, b: &Matrix) -> C64 {
        a.data().iter().zip(b.data()).map(|(x, y)| x.conj() * *y).sum()
    }

    #[test]
    fn operator_is_the_theta_matricization_and_its_adjoint() {
        let mut rng = StdRng::seed_from_u64(1);
        for (spec, shapes) in networks() {
            let network = Network::parse(spec).unwrap();
            // All complex, all real, and a real boundary under complex sites
            // (the adjoint sweep borrows exactly the real operands).
            for (real, first_real) in [(false, false), (true, true), (false, true)] {
                let mut tensors = operands(&shapes, real, &mut rng);
                if first_real {
                    tensors[0] = Tensor::random_real(shapes[0], &mut rng);
                }
                let refs: Vec<&Tensor> = tensors.iter().collect();
                let (row_dims, col_dims) = network.dims(&refs).unwrap();
                let op = NetworkOp::new(&network, &refs, row_dims, col_dims);
                assert_eq!(op.is_real(), real);
                let borrowed: Vec<bool> = op.conjugated.iter().map(Option::is_none).collect();
                assert_eq!(borrowed, refs.iter().map(|t| t.is_real()).collect::<Vec<_>>());

                let theta = einsum_spec(&network.theta, &refs).unwrap();
                let theta = theta.unfold(network.n_rows);
                assert_eq!((op.nrows(), op.ncols()), theta.shape());

                let x = Matrix::random(op.ncols(), 3, &mut rng);
                let y = Matrix::random(op.nrows(), 3, &mut rng);
                let (ax, ahy) = (op.apply(&x), op.apply_adj(&y));
                assert!(ax.approx_eq(&matmul(&theta, &x), 1e-12), "{spec}: apply != theta X");
                assert!(
                    ahy.approx_eq(&matmul_adj_a(&theta, &y), 1e-12),
                    "{spec}: adj != theta^H Y"
                );
                let (lhs, rhs) = (inner(&y, &ax), inner(&ahy, &x));
                assert!((lhs - rhs).abs() < 1e-12 * lhs.abs().max(1.0), "{spec}: {lhs} vs {rhs}");
            }
        }
    }

    #[test]
    fn exact_method_is_einsum_then_svd_split_bit_for_bit() {
        static SITE: EinsumSvd = EinsumSvd::new(ZIP);
        let mut rng = StdRng::seed_from_u64(2);
        let tensors = operands(&ZIP_SHAPES, false, &mut rng);
        let refs: Vec<&Tensor> = tensors.iter().collect();
        let truncation = Truncation::rank_and_tol(4, 1e-14);
        let got = SITE.split(&refs, truncation, EinsumSvdMethod::ExactSvd, &mut rng).unwrap();
        let theta = einsum("ldxy,xpt,ypqr->ldtqr", &refs).unwrap();
        let want = svd_split(&theta, &[0, 1], truncation).unwrap();
        assert_eq!(got.u.data(), want.u.data());
        assert_eq!(got.vh.data(), want.vh.data());
        assert_eq!(got.s, want.s);
        assert_eq!(got.truncation_error, want.truncation_error);
        assert_eq!((got.u.shape(), got.vh.shape()), (&[3, 2, 4][..], &[4, 5, 2, 4][..]));
    }

    #[test]
    fn implicit_product_matches_exact_when_the_rank_suffices() {
        static ZIP_SITE: EinsumSvd = EinsumSvd::new(ZIP);
        static TWO_LAYER_SITE: EinsumSvd = EinsumSvd::new(TWO_LAYER);
        let mut rng = StdRng::seed_from_u64(3);
        let method = EinsumSvdMethod::ImplicitRandSvd { n_iter: 2, oversample: 4 };
        for (site, shapes) in
            [(&ZIP_SITE, ZIP_RANK_4.to_vec()), (&TWO_LAYER_SITE, TWO_LAYER_RANK_4.to_vec())]
        {
            let tensors = operands(&shapes, false, &mut rng);
            let refs: Vec<&Tensor> = tensors.iter().collect();
            let rank_4 = Truncation::max_rank(4);
            let product = |f: &SplitSvd| {
                let (l, r) = f.absorb_left();
                tensordot(&l, &r, &[l.ndim() - 1], &[0]).unwrap()
            };
            let exact = site.exact(&refs, Truncation::none()).unwrap();
            let mut sketch = counting(3);
            let implicit = site.split(&refs, rank_4, method, &mut sketch).unwrap();
            assert!(sketch.draws > 0, "the 8-column sketch of a 12-row theta was not drawn");
            let (want, got) = (product(&exact), product(&implicit));
            assert!(got.approx_eq(&want, 1e-8 * want.norm_max()), "{:e}", got.max_diff(&want));
        }
    }

    #[test]
    fn all_real_operands_stay_on_the_real_kernel() {
        static SITE: EinsumSvd = EinsumSvd::new(TWO_LAYER);
        let mut rng = StdRng::seed_from_u64(4);
        let tensors = operands(&TWO_LAYER_SHAPES, true, &mut rng);
        let refs: Vec<&Tensor> = tensors.iter().collect();
        let meter = WorkMeter::new();
        let mut sketch = counting(4);
        let f = meter
            .scope(|| {
                // A 6-column sketch of a 12 x 144 theta.
                let method = EinsumSvdMethod::ImplicitRandSvd { n_iter: 2, oversample: 2 };
                SITE.split(&refs, Truncation::max_rank(4), method, &mut sketch)
            })
            .unwrap();
        assert!(sketch.draws > 0);
        assert_eq!(meter.complex_macs(), 0);
        assert!(meter.real_macs() > 0);
        assert!(f.u.is_real() && f.vh.is_real());
        assert_eq!(f.s.len(), 4);
    }

    /// The implicit method takes the exact route exactly where `rsvd` would
    /// clamp its sketch to theta's narrow side: at `rank + oversample ==
    /// min(rows, cols)` it returns `exact()`'s factors bit for bit and draws
    /// nothing; one sketch column short of it, the sketch runs.
    #[test]
    fn a_sketch_as_wide_as_theta_takes_the_exact_route() {
        static SITE: EinsumSvd = EinsumSvd::new(ZIP);
        let mut rng = StdRng::seed_from_u64(6);
        for real in [false, true] {
            let tensors = operands(&ZIP_SHAPES, real, &mut rng);
            let refs: Vec<&Tensor> = tensors.iter().collect();
            // theta is 6 x 40; the exact route keeps the tolerance as well.
            let truncation = Truncation::rank_and_tol(4, 1e-14);
            let want = SITE.exact(&refs, truncation).unwrap();
            let spans = EinsumSvdMethod::ImplicitRandSvd { n_iter: 2, oversample: 2 };
            let mut none = counting(7);
            let got = SITE.split(&refs, truncation, spans, &mut none).unwrap();
            assert_eq!(none.draws, 0, "real={real}");
            assert_eq!(got.u.data(), want.u.data());
            assert_eq!(got.vh.data(), want.vh.data());
            assert_eq!(got.s, want.s);
            assert_eq!(got.truncation_error, want.truncation_error);
            assert_eq!(got.u.is_real(), real);

            let narrower = EinsumSvdMethod::ImplicitRandSvd { n_iter: 2, oversample: 1 };
            let mut some = counting(7);
            let sketched = SITE.split(&refs, truncation, narrower, &mut some).unwrap();
            assert!(some.draws > 0, "real={real}: the 5-column sketch was not drawn");
            assert_eq!(sketched.s.len(), 4);
        }
    }

    #[test]
    fn malformed_specs_and_operands_are_rejected() {
        for spec in ["ab,bc", "ab,bc->ac", "ab,bc->ak,jc", "ab,bc->ab,bc", "ab,bc->k,kac,c"] {
            assert!(Network::parse(spec).is_err(), "{spec} should not parse");
        }
        static SITE: EinsumSvd = EinsumSvd::new("ab,bc->ak,kc");
        let (a, b) = (Tensor::ones(&[2, 3]), Tensor::ones(&[4, 2]));
        let mut rng = StdRng::seed_from_u64(5);
        let t = Truncation::none();
        for method in [EinsumSvdMethod::ExactSvd, EinsumSvdMethod::implicit_default()] {
            assert!(SITE.split(&[&a, &b], t, method, &mut rng).is_err(), "bond dims differ");
            assert!(SITE.split(&[&a], t, method, &mut rng).is_err(), "operand missing");
        }
    }
}

//! `einsumsvd`: contract a tensor sub-network and refactorize it across one
//! new bond — the primitive every MPS/PEPS algorithm of the paper is written
//! against (Alg. 1 QR-SVD update, Alg. 3 zip-up, IBMPS, two-layer IBMPS).
//!
//! # Spec convention
//!
//! Koala's: `"ldxy,xpt,ypqr->ldk,ktqr"`. The inputs are an ordinary einsum
//! network; the two output terms are the factors. The **new bond** is the one
//! label absent from the inputs — last in the left factor, first in the right
//! one. The remaining labels of the left factor are the *row* labels, those
//! of the right factor the *column* labels, and the network is factorized as
//! the matrix `theta[(rows), (cols)]` in exactly that axis order.
//!
//! # The two methods
//!
//! * [`EinsumSvdMethod::ExactSvd`] — contract the network to `theta` through
//!   a planned [`einsum`](fn@crate::einsum), then [`svd_split`] it. The plan
//!   is held per call site (see [`EinsumSvd`]).
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
//!   two-layer IBMPS columns of the paper's Table II come from. Only
//!   `truncation.max_rank` applies (it is the sketch's target rank); a sketch
//!   resolves no trailing spectrum for `rel_tol` to cut.

use crate::contract::tensordot;
use crate::decomp::{build_split_svd, svd_split, SplitSvd, Truncation};
use crate::einsum::{parse_spec, EinsumSpec};
use crate::plan::{contraction_plan, Plan};
use crate::shape::is_identity_perm;
use crate::tensor::Tensor;
use koala_error::{KoalaError, Result};
use koala_linalg::{rsvd, LinearOp, Matrix, RsvdOptions};
use rand::Rng;
use std::sync::{Arc, Mutex, OnceLock};

/// How an [`EinsumSvd`] evaluates its refactorization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EinsumSvdMethod {
    /// Contract the network and truncate an exact SVD (BMPS building block).
    ExactSvd,
    /// Randomized SVD with the network applied implicitly (IBMPS building
    /// block); `n_iter` subspace iterations, `oversample` extra sketch columns.
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

impl<'a> NetworkOp<'a> {
    /// Validates the operand shapes against the spec, which is what lets the
    /// infallible [`LinearOp`] methods contract without re-checking.
    fn new(network: &'a Network, operands: &'a [&'a Tensor]) -> Result<Self> {
        let inputs = &network.theta.inputs;
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
        if let Some(&[a, b]) = network.bonds.iter().find(|&&[a, b]| dim(a) != dim(b)) {
            return Err(KoalaError::shape(format!(
                "einsumsvd: contracted label '{}' has dimensions {} and {}",
                inputs[a.0][a.1],
                dim(a),
                dim(b)
            )));
        }
        let (rows, cols) = network.open.split_at(network.n_rows);
        Ok(NetworkOp {
            network,
            operands,
            conjugated: operands.iter().map(|t| (!t.is_real()).then(|| t.conj())).collect(),
            row_dims: rows.iter().map(|&o| dim(o)).collect(),
            col_dims: cols.iter().map(|&o| dim(o)).collect(),
        })
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

/// One `einsumsvd` call site: a fixed spec (see the [module docs](self)), its
/// parsed network, and the `theta` plans of the shapes it has seen.
///
/// Declare one `static` per site. The spec is parsed once; the explicit
/// method's contraction plans are held here, most-recently-used first, so a
/// sweep that cycles through a handful of shapes (boundary bonds growing
/// along a zip-up) replays them without touching the global plan cache or
/// its [`plan_stats`](crate::plan::plan_stats) counters. A shape not held is
/// planned through [`contraction_plan`] and memoised.
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
    held: Mutex<Vec<Arc<Plan>>>,
}

impl EinsumSvd {
    /// Maximum number of `theta` shape variants held per call site.
    pub const PLAN_CAPACITY: usize = 8;

    /// A call site with a fixed spec string.
    pub const fn new(spec: &'static str) -> Self {
        EinsumSvd { spec, network: OnceLock::new(), held: Mutex::new(Vec::new()) }
    }

    fn network(&self) -> Result<&Network> {
        if let Some(network) = self.network.get() {
            return Ok(network);
        }
        let parsed = Network::parse(self.spec)?;
        Ok(self.network.get_or_init(|| parsed))
    }

    /// The `theta` plan for these operand shapes, from the held list when
    /// present (no global-cache traffic).
    fn theta_plan(&self, network: &Network, operands: &[&Tensor]) -> Result<Arc<Plan>> {
        let mut held = crate::lock_ignore_poison(&self.held);
        if let Some(pos) = held.iter().position(|plan| {
            plan.shapes().len() == operands.len()
                && plan.shapes().iter().zip(operands).all(|(s, t)| s.as_slice() == t.shape())
        }) {
            held[..=pos].rotate_right(1);
            return Ok(Arc::clone(&held[0]));
        }
        let shapes: Vec<&[usize]> = operands.iter().map(|t| t.shape()).collect();
        let plan = contraction_plan(&network.theta, &shapes)?;
        held.insert(0, Arc::clone(&plan));
        held.truncate(Self::PLAN_CAPACITY);
        Ok(plan)
    }

    /// The [`EinsumSvdMethod::ExactSvd`] evaluation, callable without a
    /// random source: contract to `theta`, truncate its SVD.
    pub fn exact(&self, operands: &[&Tensor], truncation: Truncation) -> Result<SplitSvd> {
        let network = self.network()?;
        let theta = self.theta_plan(network, operands)?.execute(operands)?;
        let row_axes: Vec<usize> = (0..network.n_rows).collect();
        svd_split(&theta, &row_axes, truncation)
    }

    /// Contract the network over `operands` and refactorize it with `method`.
    /// `u` is `[rows.., k]`, `vh` is `[k, cols..]`, as the spec's factors.
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
        let op = NetworkOp::new(self.network()?, operands)?;
        let rank = truncation.max_rank.unwrap_or(usize::MAX).min(op.nrows()).min(op.ncols());
        let f = rsvd(&op, RsvdOptions { rank: rank.max(1), oversample, n_iter }, rng)?;
        build_split_svd(f, &op.row_dims, &op.col_dims, Truncation::none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                let op = NetworkOp::new(&network, &refs).unwrap();
                assert_eq!(op.is_real(), real);
                let borrowed: Vec<bool> = op.conjugated.iter().map(Option::is_none).collect();
                assert_eq!(borrowed, refs.iter().map(|t| t.is_real()).collect::<Vec<_>>());

                let theta = crate::einsum::einsum_spec(&network.theta, &refs).unwrap();
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
        for (site, shapes) in
            [(&ZIP_SITE, ZIP_SHAPES.to_vec()), (&TWO_LAYER_SITE, TWO_LAYER_SHAPES.to_vec())]
        {
            let tensors = operands(&shapes, false, &mut rng);
            let refs: Vec<&Tensor> = tensors.iter().collect();
            let full = Truncation::max_rank(64);
            let product = |f: &SplitSvd| {
                let (l, r) = f.absorb_left();
                tensordot(&l, &r, &[l.ndim() - 1], &[0]).unwrap()
            };
            let exact = site.exact(&refs, full).unwrap();
            let implicit =
                site.split(&refs, full, EinsumSvdMethod::implicit_default(), &mut rng).unwrap();
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
        let f = meter
            .scope(|| {
                let method = EinsumSvdMethod::implicit_default();
                SITE.split(&refs, Truncation::max_rank(4), method, &mut rng)
            })
            .unwrap();
        assert_eq!(meter.complex_macs(), 0);
        assert!(meter.real_macs() > 0);
        assert!(f.u.is_real() && f.vh.is_real());
        assert_eq!(f.s.len(), 4);
    }

    #[test]
    fn repeat_shapes_replay_the_held_plan() {
        static SITE: EinsumSvd = EinsumSvd::new("lax,xbr->lak,kbr");
        let a = Tensor::ones(&[2, 2, 3]);
        let b = Tensor::ones(&[3, 2, 2]);
        let network = SITE.network().unwrap();
        let first = SITE.theta_plan(network, &[&a, &b]).unwrap();
        let again = SITE.theta_plan(network, &[&a, &b]).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        // A different shape is planned separately and moves to the front.
        let wide = Tensor::ones(&[3, 2, 5]);
        let other = SITE.theta_plan(network, &[&a, &wide]).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
        assert!(Arc::ptr_eq(&first, &SITE.theta_plan(network, &[&a, &b]).unwrap()));
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

//! Operator application (PEPS evolution).
//!
//! One-site operators contract directly with the site tensor (Equation 3).
//! Two-site operators on neighbouring sites need a contraction followed by a
//! refactorization — the `einsumsvd` of Equation 4. One update does it, the
//! QR-SVD update of paper Algorithm 1 ([`UpdateMethod::QrSvd`]): QR both
//! sites first so the SVD acts on a much smaller object.
//!
//! Everything that applies gates goes through one gate-list engine,
//! [`apply_gates`]: a list of one-site and neighbour-pair ops becomes a task
//! graph whose edges chain the ops that share a site, so the bond updates of
//! a TEBD layer that touch disjoint sites (the parallel axis of the paper's
//! Figure 7) run concurrently while every site is still updated in list
//! order — bit-identical to the sequential fold at any thread count.
//! [`apply_two_site`], [`apply_two_site_any`] (through the SWAP lowering
//! [`route_two_site`]) and [`apply_two_site_everywhere`] are list builders
//! over it.

use crate::peps::{check_one_site_gate, Direction, Peps, Site, AX_D, AX_L, AX_P, AX_R, AX_U};
use koala_error::{KoalaError, Result, ResultExt};
use koala_exec::{TaskGraph, TaskId, TaskKind};
use koala_linalg::{gemm_into, gemm_into_real, Matrix, Op, C64};
use koala_tensor::{qr_split, tensordot, EinsumSvd, Tensor, Truncation};
use std::borrow::Cow;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Algorithm 1, step (2)->(4): R_a `[ka, pa, bond]`, R_b `[kb, pb, bond]` and
/// gate `[pa', pb', pa, pb]` split into `[ka, pa', k]` and `[k, kb, pb']`.
static GATE_ON_R_FACTORS: EinsumSvd = EinsumSvd::new("apx,bqx,PQpq->aPk,kbQ");

/// Strategy for two-site operator application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateMethod {
    /// QR-SVD update (Algorithm 1) with modified Gram-Schmidt QR.
    QrSvd {
        /// Bond truncation applied to the new shared bond.
        truncation: Truncation,
    },
}

impl UpdateMethod {
    /// The truncation policy carried by this method.
    pub fn truncation(&self) -> Truncation {
        let UpdateMethod::QrSvd { truncation } = self;
        *truncation
    }

    /// Convenience: QR-SVD with a maximum bond dimension.
    pub fn qr_svd(max_bond: usize) -> Self {
        UpdateMethod::QrSvd { truncation: Truncation::rank_and_tol(max_bond, 1e-14) }
    }
}

/// Apply a one-site gate to a site of the PEPS (Equation 3).
pub fn apply_one_site(peps: &mut Peps, gate: &Matrix, site: Site) -> Result<()> {
    site_slot(peps, site)?;
    let new = update_site(peps.tensor(site), gate)?;
    peps.set_tensor(site, new);
    Ok(())
}

/// The arithmetic of a one-site update: `new[i, u, l, d, r] = sum_j gate[i, j]
/// old[j, u, l, d, r]`.
fn update_site(old: &Tensor, gate: &Matrix) -> Result<Tensor> {
    check_one_site_gate(gate, old.dim(AX_P))?;
    tensordot(&Tensor::from_matrix_2d(gate), old, &[1], &[0])
}

/// Swap the two subsystems of a two-site gate: returns `G'` with
/// `G'[(b',a'),(b,a)] = G[(a',b'),(a,b)]`.
fn reorder_gate(gate: &Matrix, d_a: usize, d_b: usize) -> Result<Matrix> {
    if gate.shape() != (d_a * d_b, d_a * d_b) {
        return Err(KoalaError::shape(format!(
            "reorder_gate: gate is {:?}, expected {}x{}",
            gate.shape(),
            d_a * d_b,
            d_a * d_b
        )));
    }
    let t = Tensor::from_matrix_2d(gate).into_reshape(&[d_a, d_b, d_a, d_b])?;
    let swapped = t.permute(&[1, 0, 3, 2])?;
    Ok(swapped.into_unfold(2))
}

/// Apply a two-site gate to a pair of *neighbouring* sites. The gate is a
/// `(d_a d_b) x (d_a d_b)` matrix with `site_a` as the most significant
/// subsystem. Returns the truncation error of the refactorized bond.
pub fn apply_two_site(
    peps: &mut Peps,
    gate: &Matrix,
    site_a: Site,
    site_b: Site,
    method: UpdateMethod,
) -> Result<f64> {
    let errs = apply_gates(peps, &[GateOp::two_site(gate, site_a, site_b)], method)?;
    Ok(errs[0])
}

/// Permutations that bring the two site tensors into the canonical layouts
/// `a: [p, o1, o2, o3, bond]` and `b: [p, bond, o1, o2, o3]`.
pub(crate) fn canonical_perms(dir: Direction) -> ([usize; 5], [usize; 5]) {
    match dir {
        // a --right--> b : shared bond is a.R / b.L
        Direction::Right => ([AX_P, AX_U, AX_L, AX_D, AX_R], [AX_P, AX_L, AX_U, AX_D, AX_R]),
        // a --down--> b : shared bond is a.D / b.U
        Direction::Down => ([AX_P, AX_U, AX_L, AX_R, AX_D], [AX_P, AX_U, AX_L, AX_D, AX_R]),
        _ => unreachable!("canonical_perms is only called with Right or Down"),
    }
}

/// The arithmetic of a two-site update on a canonically oriented pair
/// (`dir` is `Right` or `Down`, from `site_a` to `site_b`): the new site
/// tensors in PEPS layout and the truncation error of their shared bond. A
/// pure function of its arguments, so a gate list may run it for disjoint
/// pairs on any thread.
fn update_pair(
    site_a: &Tensor,
    site_b: &Tensor,
    gate: &Matrix,
    dir: Direction,
    method: UpdateMethod,
) -> Result<(Tensor, Tensor, f64)> {
    let d_a = site_a.dim(AX_P);
    let d_b = site_b.dim(AX_P);
    if gate.shape() != (d_a * d_b, d_a * d_b) {
        return Err(KoalaError::shape(format!(
            "apply_two_site: gate is {:?}, expected {}x{}",
            gate.shape(),
            d_a * d_b,
            d_a * d_b
        )));
    }
    let gate_t = Tensor::from_matrix_2d(gate).into_reshape(&[d_a, d_b, d_a, d_b])?;
    qr_svd_update(site_a, site_b, &gate_t, method.truncation(), dir)
}

pub(crate) fn invert5(perm: [usize; 5]) -> [usize; 5] {
    let mut inv = [0usize; 5];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

/// `permute(first)` followed by `permute(then)`, as one permutation.
pub(crate) fn compose5(first: [usize; 5], then: [usize; 5]) -> [usize; 5] {
    then.map(|axis| first[axis])
}

/// QR-SVD update (Algorithm 1): QR both sites, apply the gate to the small
/// `R` factors, SVD, and recombine with the `Q` factors. The sites and the
/// returned tensors are in PEPS layout; `dir` (`Right` or `Down`) points
/// from `site_a` to `site_b`.
fn qr_svd_update(
    site_a: &Tensor,
    site_b: &Tensor,
    gate: &Tensor, // [pa', pb', pa, pb]
    truncation: Truncation,
    dir: Direction,
) -> Result<(Tensor, Tensor, f64)> {
    let (perm_a, perm_b) = canonical_perms(dir);
    // Step (1)->(2): split off the outer bonds, reading the sites in PEPS
    // layout: the canonical row axes map back through the permutations, and
    // the column axes left over come out as [p, bond] (AX_P = 0 sorts
    // first), the canonical order of `R`, so the matrices are the same.
    // a: rows = outer bonds -> Q_a [o1,o2,o3,ka], R_a [ka, pa, bond]
    let (q_a, r_a) = qr_split(site_a, &perm_a[1..4])?;
    // b: rows = outer bonds -> Q_b [o1,o2,o3,kb], R_b [kb, pb, bond]
    let (q_b, r_b) = qr_split(site_b, &perm_b[2..5])?;

    // Step (2)->(4): einsumsvd on {gate, R_a, R_b}.
    let (rt_a, rt_b, err) = small_einsumsvd(gate, &r_a, &r_b, truncation)?;

    // Step (4)->(5): recombine with the Q factors, straight into PEPS
    // layout. `Q_a` is dropped before the b-side product is allocated.
    let new_a = recombine_a(&q_a, &rt_a, dir)?;
    drop(q_a);
    let new_b = recombine_b(&rt_b, &q_b, dir)?;
    Ok((new_a, new_b, err))
}

/// `Q_a [o1,o2,o3,ka] x rt_a [ka,pa',k]`, written straight into PEPS
/// layout. One product per physical index fills that index's slab as
/// `[o1,o2,o3,k]`: the PEPS layout for `Right` (`o = u,l,d`, `k = r`); for
/// `Down` (`o = u,l,r`, `k = d`) the last two axes are then swapped in
/// place. Every element is the sum `tensordot` forms for it (the same row
/// of `Q_a` against the same column of `rt_a`, in the same order), so the
/// bits match the contract-then-permute route.
fn recombine_a(q: &Tensor, rt: &Tensor, dir: Direction) -> Result<Tensor> {
    let (ka, d, k) = (rt.dim(0), rt.dim(1), rt.dim(2));
    let (o1, o2, o3) = (q.dim(0), q.dim(1), q.dim(2));
    let rows = o1 * o2 * o3;
    let rt = rt.permute(&[1, 0, 2])?; // [pa', ka, k]: one block per slab
    let real = q.is_real() && rt.is_real();
    let mut out = vec![C64::ZERO; d * rows * k];
    for (slab, b) in out.chunks_mut((rows * k).max(1)).zip(rt.data().chunks((ka * k).max(1))) {
        product(real, Op::None, rows, k, ka, q.data(), b, slab);
    }
    let shape = if dir == Direction::Down {
        transpose_blocks(&mut out, o3, k, 1);
        [d, o1, o2, k, o3]
    } else {
        [d, o1, o2, o3, k]
    };
    site_tensor(shape, out, real)
}

/// `rt_b [k,kb,pb'] x Q_b [o1,o2,o3,kb]`, written straight into PEPS
/// layout: one product of `rt_b`'s rows, taken in `(pb', k)` order, against
/// `Q_b` transposed fills `[pb', k, o1, o2, o3]` — the PEPS layout for
/// `Down` (`k = u`, `o = l,d,r`). For `Right` (`k = l`, `o = u,d,r`) each
/// physical slab is a `k x u` matrix of `[d, r]` blocks, transposed in
/// place. Reordering a product's rows changes no element, so the bits match
/// `tensordot` too.
fn recombine_b(rt: &Tensor, q: &Tensor, dir: Direction) -> Result<Tensor> {
    let (k, kb, d) = (rt.dim(0), rt.dim(1), rt.dim(2));
    let (o1, o2, o3) = (q.dim(0), q.dim(1), q.dim(2));
    let rt = rt.permute(&[2, 0, 1])?; // [pb', k, kb]
    let real = q.is_real() && rt.is_real();
    let mut out = vec![C64::ZERO; d * k * o1 * o2 * o3];
    product(real, Op::Transpose, d * k, o1 * o2 * o3, kb, rt.data(), q.data(), &mut out);
    let shape = if dir == Direction::Right {
        transpose_blocks(&mut out, k, o1, o2 * o3);
        [d, o1, k, o2, o3]
    } else {
        [d, k, o1, o2, o3]
    };
    site_tensor(shape, out, real)
}

/// `c = a op(b)` with `a` an `m x depth` matrix, on the real kernel when
/// both factors are real (the dispatch `tensordot` makes).
#[allow(clippy::too_many_arguments)]
fn product(
    real: bool,
    opb: Op,
    m: usize,
    n: usize,
    depth: usize,
    a: &[C64],
    b: &[C64],
    c: &mut [C64],
) {
    if real {
        gemm_into_real(Op::None, opb, m, n, depth, a, b, c);
    } else {
        gemm_into(Op::None, opb, m, n, depth, a, b, c);
    }
}

fn site_tensor(shape: [usize; 5], data: Vec<C64>, real: bool) -> Result<Tensor> {
    let mut t = Tensor::from_vec(&shape, data)?;
    if real {
        // The real kernel writes only real parts into the zeroed buffer.
        t.assume_real();
    }
    Ok(t)
}

/// Transpose, in place, every `rows x cols` row-major matrix of
/// `block`-element blocks that `data` holds back to back: block `(i, j)`
/// moves to `(j, i)` of the `cols x rows` result.
fn transpose_blocks(data: &mut [C64], rows: usize, cols: usize, block: usize) {
    let n = rows * cols * block;
    if rows < 2 || cols < 2 || n == 0 {
        return;
    }
    let mut held = vec![C64::ZERO; n];
    for matrix in data.chunks_exact_mut(n) {
        held.copy_from_slice(matrix);
        for (i, row) in held.chunks_exact(cols * block).enumerate() {
            for (j, b) in row.chunks_exact(block).enumerate() {
                matrix[(j * rows + i) * block..][..block].copy_from_slice(b);
            }
        }
    }
}

/// The einsumsvd of Algorithm 1, step (2)->(4): contract the small `R`
/// factors with the gate and refactorize across the new bond.
/// Returns `(rt_a [ka, pa', k], rt_b [k, kb, pb'], err)`.
pub(crate) fn small_einsumsvd(
    gate: &Tensor,
    r_a: &Tensor,
    r_b: &Tensor,
    truncation: Truncation,
) -> Result<(Tensor, Tensor, f64)> {
    let f = GATE_ON_R_FACTORS.exact(&[r_a, r_b, gate], truncation)?;
    let (rt_a, rt_b) = f.absorb_split();
    Ok((rt_a, rt_b, f.truncation_error))
}

/// The SWAP gate on two qubits of dimension `d` each.
pub(crate) fn swap_gate(d: usize) -> Matrix {
    let mut m = Matrix::zeros(d * d, d * d);
    for a in 0..d {
        for b in 0..d {
            m[(a * d + b, b * d + a)] = koala_linalg::C64::ONE;
        }
    }
    m
}

/// One entry of a gate list for [`apply_gates`]: a one-site gate, or a
/// two-site gate on nearest neighbours.
#[derive(Debug, Clone)]
pub struct GateOp<'a> {
    gate: Cow<'a, Matrix>,
    site: Site,
    partner: Option<Site>,
}

impl<'a> GateOp<'a> {
    /// A `d x d` gate on one site (Equation 3).
    pub fn one_site(gate: &'a Matrix, site: Site) -> Self {
        GateOp { gate: Cow::Borrowed(gate), site, partner: None }
    }

    /// A `(d_a d_b) x (d_a d_b)` gate on two *neighbouring* sites, `site_a`
    /// the most significant subsystem.
    pub fn two_site(gate: &'a Matrix, site_a: Site, site_b: Site) -> Self {
        GateOp { gate: Cow::Borrowed(gate), site: site_a, partner: Some(site_b) }
    }
}

/// Lower a two-site gate on an arbitrary (not necessarily adjacent) pair of
/// sites into neighbour ops appended to `ops`: SWAP gates along a Manhattan
/// path (first along the column, then along the row) bring the state of
/// `site_b` next to `site_a`, the gate is applied, and the SWAPs are undone
/// in reverse — the strategy described at the end of paper §II-C1. A
/// neighbouring pair lowers to the gate alone. Fold the errors
/// [`apply_gates`] returns for the appended ops with [`routed_error`].
pub fn route_two_site<'a>(
    peps: &Peps,
    gate: &'a Matrix,
    site_a: Site,
    site_b: Site,
    ops: &mut Vec<GateOp<'a>>,
) -> Result<()> {
    if site_a == site_b {
        return Err(KoalaError::invalid("apply_two_site_any: the two sites must differ"));
    }
    site_slot(peps, site_b)?;
    let d = peps.phys_dim(site_b);
    // The path that moves the state of `site_b` to a neighbour of `site_a`:
    // walk rows first, then columns. Its last entry is `site_a` itself.
    let mut hops = vec![site_b];
    let (ar, ac) = site_a;
    let (mut br, mut bc) = site_b;
    while br != ar {
        br = if br > ar { br - 1 } else { br + 1 };
        hops.push((br, bc));
    }
    while bc != ac {
        bc = if bc > ac { bc - 1 } else { bc + 1 };
        hops.push((br, bc));
    }
    hops.pop();

    let swap_op =
        |w: &[Site]| GateOp { gate: Cow::Owned(swap_gate(d)), site: w[0], partner: Some(w[1]) };
    ops.extend(hops.windows(2).map(swap_op));
    let partner = *hops
        .last()
        .unwrap_or_else(|| unreachable!("distinct sites leave at least one hop on the path"));
    ops.push(GateOp::two_site(gate, site_a, partner));
    ops.extend(hops.windows(2).rev().map(swap_op));
    Ok(())
}

/// The truncation error of one routed gate from the per-op errors of its
/// lowering: the error itself for a neighbouring pair, the root sum square
/// over the SWAPs and the gate otherwise.
pub fn routed_error(errs: &[f64]) -> f64 {
    match errs {
        [e] => *e,
        _ => root_sum_square(errs),
    }
}

fn root_sum_square(errs: &[f64]) -> f64 {
    errs.iter().fold(0.0, |sum, e| sum + e * e).sqrt()
}

/// Apply a two-site gate to an arbitrary (not necessarily adjacent) pair of
/// sites by SWAP routing (see [`route_two_site`]). Returns the accumulated
/// truncation error.
pub fn apply_two_site_any(
    peps: &mut Peps,
    gate: &Matrix,
    site_a: Site,
    site_b: Site,
    method: UpdateMethod,
) -> Result<f64> {
    let mut ops = Vec::new();
    route_two_site(peps, gate, site_a, site_b, &mut ops)?;
    Ok(routed_error(&apply_gates(peps, &ops, method)?))
}

/// Apply a layer of the same two-site gate to every nearest-neighbour pair
/// (all horizontal pairs first, then all vertical pairs), as one layer of
/// TEBD does. Returns the accumulated truncation error.
pub fn apply_two_site_everywhere(
    peps: &mut Peps,
    gate: &Matrix,
    method: UpdateMethod,
) -> Result<f64> {
    let ops: Vec<GateOp<'_>> = peps
        .horizontal_pairs()
        .into_iter()
        .chain(peps.vertical_pairs())
        .map(|(a, b)| GateOp::two_site(gate, a, b))
        .collect();
    Ok(root_sum_square(&apply_gates(peps, &ops, method)?))
}

/// Row-major slot of a site, rejecting sites outside the lattice.
fn site_slot(peps: &Peps, site: Site) -> Result<usize> {
    if site.0 >= peps.nrows() || site.1 >= peps.ncols() {
        return Err(KoalaError::invalid(format!(
            "site {site:?} is outside the {}x{} lattice",
            peps.nrows(),
            peps.ncols()
        )));
    }
    Ok(peps.site_index(site))
}

/// Where an op acts: the slot of its (first) site and, for a pair, the slot
/// of the partner with the direction from the first site to it.
type Target = (usize, Option<(usize, Direction)>);

fn target(peps: &Peps, op: &GateOp<'_>) -> Result<Target> {
    let slot = site_slot(peps, op.site)?;
    let Some(partner) = op.partner else { return Ok((slot, None)) };
    let partner_slot = site_slot(peps, partner)?;
    let dir = peps.direction_between(op.site, partner).ok_or_else(|| {
        KoalaError::invalid(format!(
            "apply_two_site: sites {:?} and {partner:?} are not neighbours",
            op.site
        ))
    })?;
    Ok((slot, Some((partner_slot, dir))))
}

/// The dependency rule of a gate list: each op waits for the previous op in
/// list order that touches either of its sites, so every site sees its
/// updates in exactly the list order while ops on disjoint sites are free to
/// run concurrently.
fn dependencies(num_sites: usize, targets: &[Target]) -> Vec<Vec<usize>> {
    let mut last_on_site: Vec<Option<usize>> = vec![None; num_sites];
    targets
        .iter()
        .enumerate()
        .map(|(i, &(slot, partner))| {
            let mut deps = Vec::with_capacity(2);
            for s in std::iter::once(slot).chain(partner.map(|(s, _)| s)) {
                if let Some(j) = last_on_site[s].replace(i) {
                    if !deps.contains(&j) {
                        deps.push(j);
                    }
                }
            }
            deps
        })
        .collect()
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Apply a list of one-site and neighbour-pair gates, in list order as far
/// as any site can tell. Returns one truncation error per op (0 for a
/// one-site op).
///
/// The list becomes a `koala_exec::TaskGraph` with one task per op and the
/// edges of the site-dependency rule (each op waits for the previous op in
/// list order that touches either of its sites), so the updates of a TEBD
/// layer that act on disjoint sites run on every core. Because the edges —
/// not the schedule — fix the order in which each site is updated, the
/// resulting tensors, the per-op errors and the `WorkMeter` billing are
/// bit-identical to applying the ops one after another, at any thread count.
///
/// # Errors
///
/// An op outside the lattice or on a non-neighbouring pair is rejected
/// before anything is applied. An op that fails while running (a gate of
/// the wrong shape, a factorization that meets non-finite data) cancels the
/// run and its error is returned (the earliest in list order if
/// several ops failed). The PEPS is then structurally valid — every op is
/// applied whole or not at all, and bonds only change in pairs — but *which*
/// of the ops that do not depend on the failed one were applied is
/// unspecified: discard the state, or keep a copy taken before the call.
pub fn apply_gates(peps: &mut Peps, ops: &[GateOp<'_>], method: UpdateMethod) -> Result<Vec<f64>> {
    let targets = ops.iter().map(|op| target(peps, op)).collect::<Result<Vec<Target>>>()?;
    let deps = dependencies(peps.num_sites(), &targets);
    // One lock per site over the tensors where they live: nothing is cloned
    // or moved, and a failed run leaves every site holding a whole tensor.
    // The dependency edges give each running op exclusive use of its sites;
    // the locks are how safe code says so, and are never contended.
    let cells: Vec<Mutex<&mut Tensor>> = peps.tensors_mut().iter_mut().map(Mutex::new).collect();
    let errs = Mutex::new(vec![0.0; ops.len()]);

    let run_op = |i: usize| -> Result<()> {
        let gate: &Matrix = &ops[i].gate;
        let (slot, partner) = targets[i];
        let mut site = lock(&cells[slot]);
        let Some((partner_slot, dir)) = partner else {
            **site = update_site(&site, gate)?;
            return Ok(());
        };
        let mut partner = lock(&cells[partner_slot]);
        // Normalise to the canonical orientations (Right / Down) so the
        // index gymnastics of `update_pair` only has two cases.
        let (new_site, new_partner, err) = match dir {
            Direction::Right | Direction::Down => update_pair(&site, &partner, gate, dir, method)?,
            Direction::Left | Direction::Up => {
                let swapped = reorder_gate(gate, site.dim(AX_P), partner.dim(AX_P))?;
                let (p, s, err) = update_pair(&partner, &site, &swapped, dir.opposite(), method)?;
                (s, p, err)
            }
        };
        **site = new_site;
        **partner = new_partner;
        lock(&errs)[i] = err;
        Ok(())
    };
    let run_op = |i: usize| {
        run_op(i).with_context(|| match ops[i].partner {
            Some(partner) => format!("apply_gates: op {i} on {:?}-{partner:?}", ops[i].site),
            None => format!("apply_gates: op {i} on {:?}", ops[i].site),
        })
    };

    // The error of the earliest failed op in list order; the executor
    // reports whichever task failed first in time.
    let failure: Mutex<Option<(usize, KoalaError)>> = Mutex::new(None);
    let mut graph = TaskGraph::new();
    let mut ids: Vec<TaskId> = Vec::with_capacity(ops.len());
    for (i, op_deps) in deps.iter().enumerate() {
        let (run_op, failure) = (&run_op, &failure);
        let op_deps: Vec<TaskId> = op_deps.iter().map(|&j| ids[j]).collect();
        ids.push(graph.add(TaskKind::Update, &op_deps, move || {
            run_op(i).inspect_err(|e| {
                let mut first = lock(failure);
                if first.as_ref().is_none_or(|(j, _)| i < *j) {
                    *first = Some((i, e.clone()));
                }
            })
        }));
    }
    if let Err(exec_err) = graph.run() {
        // No op recorded an error: a task panicked.
        return Err(lock(&failure).take().map_or(exec_err, |(_, e)| e));
    }
    Ok(errs.into_inner().unwrap_or_else(PoisonError::into_inner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{kron, pauli_x, pauli_z};
    use crate::peps::tests::{assert_same_bits, random_tensor};
    use koala_error::ErrorKind;
    use koala_linalg::{c64, expm_hermitian};
    use koala_tensor::{einsum, svd_split, tensordot, Tensor as T};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Dense application of a two-site gate for cross-checking (row-major
    /// site ordering, site_a most significant).
    fn dense_two_site(dense: &T, gate: &Matrix, idx_a: usize, idx_b: usize, d: usize) -> T {
        let n = dense.ndim();
        let g = T::from_matrix_2d(gate).into_reshape(&[d, d, d, d]).unwrap();
        // out[..a'..b'..] = sum_{a,b} g[a',b',a,b] dense[..a..b..]
        let out = tensordot(&g, dense, &[2, 3], &[idx_a, idx_b]).unwrap();
        // out axes: [a', b', rest...]; move them back.
        let mut perm = vec![0usize; n];
        let mut rest_axis = 2;
        for i in 0..n {
            if i == idx_a {
                perm[i] = 0;
            } else if i == idx_b {
                perm[i] = 1;
            } else {
                perm[i] = rest_axis;
                rest_axis += 1;
            }
        }
        out.permute(&perm).unwrap()
    }

    #[test]
    fn one_site_gate_matches_dense() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut peps = Peps::random(2, 2, 2, 2, &mut rng);
        let dense_before = peps.to_dense().unwrap();
        apply_one_site(&mut peps, &pauli_x(), (1, 0)).unwrap();
        let dense_after = peps.to_dense().unwrap();
        let g = T::from_matrix_2d(&pauli_x());
        let expected =
            tensordot(&g, &dense_before, &[1], &[2]).unwrap().permute(&[1, 2, 0, 3]).unwrap();
        assert!(dense_after.approx_eq(&expected, 1e-10));
        // Wrong dimension is rejected.
        assert!(apply_one_site(&mut peps, &Matrix::identity(3), (0, 0)).is_err());
    }

    #[test]
    fn reorder_gate_swaps_subsystems() {
        let g = kron(&pauli_z(), &pauli_x());
        let swapped = reorder_gate(&g, 2, 2).unwrap();
        assert!(swapped.approx_eq(&kron(&pauli_x(), &pauli_z()), 1e-13));
        assert!(reorder_gate(&g, 2, 3).is_err());
    }

    fn check_two_site_update(dir_pair: (Site, Site), method: UpdateMethod, seed: u64, tol: f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut peps = Peps::random(2, 2, 2, 2, &mut rng);
        // Normalise to keep numbers tame.
        let norm = peps.norm_sqr_dense().unwrap().sqrt();
        peps.scale(c64(1.0 / norm, 0.0));
        let dense_before = peps.to_dense().unwrap();
        // A genuinely entangling unitary: exp(-i * 0.3 * XX+ZZ).
        let h = &kron(&pauli_x(), &pauli_x()) + &kron(&pauli_z(), &pauli_z());
        let gate = expm_hermitian(&h, c64(0.0, -0.3)).unwrap();

        let (sa, sb) = dir_pair;
        let err = apply_two_site(&mut peps, &gate, sa, sb, method).unwrap();
        assert!(err < 1e-9, "no truncation expected, got error {err}");
        let dense_after = peps.to_dense().unwrap();
        let idx_a = sa.0 * 2 + sa.1;
        let idx_b = sb.0 * 2 + sb.1;
        let expected = dense_two_site(&dense_before, &gate, idx_a, idx_b, 2);
        assert!(
            dense_after.approx_eq(&expected, tol),
            "two-site update mismatch: {:.3e}",
            dense_after.max_diff(&expected)
        );
    }

    #[test]
    fn qr_svd_update_matches_dense_in_all_directions() {
        let m = UpdateMethod::qr_svd(16);
        check_two_site_update(((0, 0), (0, 1)), m, 20, 1e-8); // right
        check_two_site_update(((1, 0), (1, 1)), m, 21, 1e-8); // right
        check_two_site_update(((0, 1), (1, 1)), m, 22, 1e-8); // down
        check_two_site_update(((1, 0), (0, 0)), m, 23, 1e-8); // up
        check_two_site_update(((0, 1), (0, 0)), m, 11, 1e-8); // left
    }

    #[test]
    fn update_site_is_the_einsum_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(71);
        for real in [false, true] {
            let old = random_tensor(&[2, 3, 1, 4, 2], real, &mut rng);
            let gate = random_tensor(&[2, 2], real, &mut rng).to_matrix_2d();
            let want = einsum("ij,juldr->iuldr", &[&T::from_matrix_2d(&gate), &old]);
            assert_same_bits(&update_site(&old, &gate).unwrap(), &want.unwrap());
        }
    }

    #[test]
    fn recombination_is_contract_then_permute_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(70);
        let same_bits = |x: &T, y: &T| {
            x.shape() == y.shape()
                && x.data().iter().zip(y.data()).all(|(a, b)| {
                    (a.re.to_bits(), a.im.to_bits()) == (b.re.to_bits(), b.im.to_bits())
                })
        };
        for dir in [Direction::Right, Direction::Down] {
            let (perm_a, perm_b) = canonical_perms(dir);
            for real in [false, true] {
                let mut draw = |shape: &[usize]| {
                    if real {
                        T::random_real(shape, &mut rng)
                    } else {
                        T::random(shape, &mut rng)
                    }
                };
                // Q [o1,o2,o3,k], rt_a [ka,p,k], rt_b [k,kb,p]: odd sizes so
                // no product is a whole number of register tiles.
                let (q_a, rt_a) = (draw(&[3, 4, 5, 7]), draw(&[7, 2, 9]));
                let (q_b, rt_b) = (draw(&[5, 3, 4, 6]), draw(&[9, 6, 2]));
                let want_a = tensordot(&q_a, &rt_a, &[3], &[0])
                    .unwrap()
                    .permute(&compose5([3, 0, 1, 2, 4], invert5(perm_a)))
                    .unwrap();
                let want_b = tensordot(&rt_b, &q_b, &[1], &[3])
                    .unwrap()
                    .permute(&compose5([1, 0, 2, 3, 4], invert5(perm_b)))
                    .unwrap();
                let got_a = recombine_a(&q_a, &rt_a, dir).unwrap();
                let got_b = recombine_b(&rt_b, &q_b, dir).unwrap();
                for (got, want) in [(got_a, want_a), (got_b, want_b)] {
                    assert!(same_bits(&got, &want), "{dir:?}, real {real}");
                    assert_eq!(got.is_real(), want.is_real(), "{dir:?}, real {real}");
                }
            }
        }
    }

    #[test]
    fn transpose_blocks_swaps_the_middle_axes() {
        let mut rng = StdRng::seed_from_u64(71);
        for (batch, rows, cols, block) in
            [(3, 4, 5, 1), (2, 5, 3, 6), (1, 7, 7, 2), (2, 1, 4, 3), (2, 16, 8, 32), (1, 2, 9, 1)]
        {
            let t = T::random(&[batch, rows, cols, block], &mut rng);
            let mut data = t.data().to_vec();
            transpose_blocks(&mut data, rows, cols, block);
            assert_eq!(data, t.permute(&[0, 2, 1, 3]).unwrap().data(), "{rows}x{cols} of {block}");
        }
    }

    /// The update without its QR step, as a reference: the full two-site
    /// tensor of a `Right` pair (one einsum over both sites and the gate),
    /// split by one truncated SVD with `sqrt(S)` absorbed on both sides.
    fn full_theta_update(peps: &mut Peps, gate: &Matrix, a: Site, b: Site, trunc: Truncation) {
        assert_eq!(peps.direction_between(a, b), Some(Direction::Right));
        let (d_a, d_b) = (peps.phys_dim(a), peps.phys_dim(b));
        let g = T::from_matrix_2d(gate).into_reshape(&[d_a, d_b, d_a, d_b]).unwrap();
        let operands = [peps.tensor(a), peps.tensor(b), &g];
        // a [p,u,l,d,x], b [q,v,x,e,r], gate [P,Q,p,q] -> [P,u,l,d, Q,v,e,r]
        let theta = einsum("puldx,qvxer,PQpq->PuldQver", &operands).unwrap();
        let (new_a, new_b) = svd_split(&theta, &[0, 1, 2, 3], trunc).unwrap().absorb_split();
        peps.set_tensor(a, new_a);
        peps.set_tensor(b, new_b.permute(&[1, 2, 0, 3, 4]).unwrap());
    }

    #[test]
    fn methods_agree_with_each_other_under_truncation() {
        let mut rng = StdRng::seed_from_u64(40);
        let base = Peps::random(2, 3, 2, 3, &mut rng);
        let h = &kron(&pauli_x(), &pauli_x()) + &kron(&pauli_z(), &pauli_z());
        let gate = expm_hermitian(&h, c64(0.0, -0.7)).unwrap();
        let method = UpdateMethod::qr_svd(3);

        let mut reference = base.clone();
        full_theta_update(&mut reference, &gate, (0, 1), (0, 2), method.truncation());
        let mut p = base.clone();
        apply_two_site(&mut p, &gate, (0, 1), (0, 2), method).unwrap();
        // The QR-SVD update and the full-theta split implement the same
        // optimal truncation, so they agree up to round-off.
        assert!(p.to_dense().unwrap().approx_eq(&reference.to_dense().unwrap(), 1e-6));
    }

    #[test]
    fn truncation_error_is_reported() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut peps = Peps::random(1, 2, 2, 4, &mut rng);
        // A random (non-unitary) gate creates entanglement that cannot fit in
        // a bond of dimension 1.
        let gate = Matrix::random(4, 4, &mut rng);
        let err =
            apply_two_site(&mut peps, &gate, (0, 0), (0, 1), UpdateMethod::qr_svd(1)).unwrap();
        assert!(err > 1e-8, "expected a nonzero truncation error");
        assert_eq!(peps.tensor((0, 0)).dim(AX_R), 1);
    }

    #[test]
    fn non_neighbouring_sites_are_rejected() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut peps = Peps::random(2, 2, 2, 2, &mut rng);
        let gate = Matrix::identity(4);
        assert!(apply_two_site(&mut peps, &gate, (0, 0), (1, 1), UpdateMethod::qr_svd(4)).is_err());
        assert!(apply_two_site(
            &mut peps,
            &Matrix::identity(3),
            (0, 0),
            (0, 1),
            UpdateMethod::qr_svd(4)
        )
        .is_err());
    }

    #[test]
    fn tebd_layer_on_every_pair_keeps_norm_for_unitary_gates() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut peps = Peps::random(2, 2, 2, 2, &mut rng);
        let norm = peps.norm_sqr_dense().unwrap().sqrt();
        peps.scale(c64(1.0 / norm, 0.0));
        let h = kron(&pauli_z(), &pauli_z());
        let gate = expm_hermitian(&h, c64(0.0, -0.2)).unwrap();
        let err = apply_two_site_everywhere(&mut peps, &gate, UpdateMethod::qr_svd(16)).unwrap();
        assert!(err < 1e-8);
        let n = peps.norm_sqr_dense().unwrap();
        assert!((n - 1.0).abs() < 1e-7, "unitary evolution should preserve the norm, got {n}");
    }

    #[test]
    fn identity_gate_is_a_noop_up_to_gauge() {
        let mut rng = StdRng::seed_from_u64(44);
        let mut peps = Peps::random(2, 2, 2, 2, &mut rng);
        let before = peps.to_dense().unwrap();
        apply_two_site(&mut peps, &Matrix::identity(4), (0, 0), (0, 1), UpdateMethod::qr_svd(8))
            .unwrap();
        let after = peps.to_dense().unwrap();
        assert!(after.approx_eq(&before, 1e-8));
    }

    #[test]
    fn axis_constants_are_consistent() {
        assert_eq!(AX_P, 0);
        assert_eq!((AX_U, AX_L, AX_D, AX_R), (1, 2, 3, 4));
    }

    #[test]
    fn swap_gate_exchanges_basis_states() {
        let s = swap_gate(2);
        // |01> -> |10>
        assert!(s[(2, 1)].approx_eq(C64::ONE, 1e-14));
        assert!(s[(1, 2)].approx_eq(C64::ONE, 1e-14));
        assert!(s[(0, 0)].approx_eq(C64::ONE, 1e-14));
        assert!(s[(3, 3)].approx_eq(C64::ONE, 1e-14));
        assert!(s[(1, 1)].approx_eq(C64::ZERO, 1e-14));
    }

    #[test]
    fn swap_routed_gate_matches_dense_on_diagonal_pair() {
        let mut rng = StdRng::seed_from_u64(50);
        let mut peps = Peps::random(2, 2, 2, 2, &mut rng);
        let norm = peps.norm_sqr_dense().unwrap().sqrt();
        peps.scale(c64(1.0 / norm, 0.0));
        let dense_before = peps.to_dense().unwrap();
        let h = kron(&pauli_z(), &pauli_z());
        let gate = expm_hermitian(&h, c64(0.0, -0.4)).unwrap();
        // Diagonal pair (0,0)-(1,1): requires one SWAP hop.
        let err =
            apply_two_site_any(&mut peps, &gate, (0, 0), (1, 1), UpdateMethod::qr_svd(64)).unwrap();
        assert!(err < 1e-8);
        let expected = dense_two_site(&dense_before, &gate, 0, 3, 2);
        assert!(peps.to_dense().unwrap().approx_eq(&expected, 1e-7));
    }

    #[test]
    fn swap_routed_gate_on_adjacent_pair_falls_through() {
        let mut rng = StdRng::seed_from_u64(51);
        let mut peps = Peps::random(2, 2, 2, 2, &mut rng);
        let gate = Matrix::identity(4);
        assert!(
            apply_two_site_any(&mut peps, &gate, (0, 0), (0, 1), UpdateMethod::qr_svd(8)).is_ok()
        );
        assert!(
            apply_two_site_any(&mut peps, &gate, (0, 0), (0, 0), UpdateMethod::qr_svd(8)).is_err()
        );
    }

    fn list_deps(peps: &Peps, ops: &[GateOp<'_>]) -> Vec<Vec<usize>> {
        let targets: Vec<Target> = ops.iter().map(|op| target(peps, op).unwrap()).collect();
        dependencies(peps.num_sites(), &targets)
    }

    #[test]
    fn chain_has_width_one_and_row_pairs_have_one_op_per_row() {
        let gate = Matrix::identity(4);
        let ops = |pairs: Vec<(Site, Site)>| -> Vec<GateOp<'_>> {
            pairs.into_iter().map(|(a, b)| GateOp::two_site(&gate, a, b)).collect()
        };
        // A row's bonds form one chain: op `i` waits for op `i - 1` alone.
        let row = Peps::computational_zeros(1, 6);
        for (i, d) in list_deps(&row, &ops(row.horizontal_pairs())).iter().enumerate() {
            let expected: Vec<usize> = i.checked_sub(1).into_iter().collect();
            assert_eq!(*d, expected, "op {i}");
        }
        // The horizontal pairs of several rows: no edge crosses rows.
        for n in [2, 3, 5] {
            let peps = Peps::computational_zeros(n, 4);
            let pairs = peps.horizontal_pairs();
            for (i, d) in list_deps(&peps, &ops(pairs.clone())).iter().enumerate() {
                assert!(d.iter().all(|&j| pairs[j].0 .0 == pairs[i].0 .0), "op {i}: {d:?}");
            }
        }
        // One-site ops on distinct sites are all independent; a second op on
        // a site waits for the first.
        let peps = Peps::computational_zeros(2, 2);
        let x = pauli_x();
        let sites = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 0)];
        let one_site: Vec<GateOp<'_>> = sites.iter().map(|&s| GateOp::one_site(&x, s)).collect();
        assert_eq!(list_deps(&peps, &one_site), [vec![], vec![], vec![], vec![], vec![0]]);
        assert!(list_deps(&peps, &[]).is_empty());
    }

    #[test]
    fn overlapping_bonds_are_updated_in_list_order() {
        koala_exec::set_threads(4);
        let mut rng = StdRng::seed_from_u64(60);
        let mut base = Peps::random(2, 3, 2, 2, &mut rng);
        let norm = base.norm_sqr_dense().unwrap().sqrt();
        base.scale(c64(1.0 / norm, 0.0));
        let dense_before = base.to_dense().unwrap();
        // XX on sites (1, 2) and ZZ on sites (2, 3) of a row do not commute.
        let g_xx = expm_hermitian(&kron(&pauli_x(), &pauli_x()), c64(0.0, -0.3)).unwrap();
        let g_zz = expm_hermitian(&kron(&pauli_z(), &pauli_z()), c64(0.0, -0.4)).unwrap();
        let method = UpdateMethod::qr_svd(16);
        // Two rows make the list two chains wide, so it runs as a task graph.
        let in_order = [
            GateOp::two_site(&g_xx, (0, 0), (0, 1)),
            GateOp::two_site(&g_zz, (0, 1), (0, 2)),
            GateOp::two_site(&g_xx, (1, 0), (1, 1)),
            GateOp::two_site(&g_zz, (1, 1), (1, 2)),
        ];
        assert_eq!(list_deps(&base, &in_order), [vec![], vec![0], vec![], vec![2]]);
        let mut graph_run = base.clone();
        let errs = apply_gates(&mut graph_run, &in_order, method).unwrap();

        let mut folded = base.clone();
        let mut expected = dense_before.clone();
        for (i, (gate, a, b)) in
            [(&g_xx, 0, 1), (&g_zz, 1, 2), (&g_xx, 3, 4), (&g_zz, 4, 5)].into_iter().enumerate()
        {
            let e = apply_two_site(&mut folded, gate, (a / 3, a % 3), (b / 3, b % 3), method);
            assert_eq!(e.unwrap().to_bits(), errs[i].to_bits());
            expected = dense_two_site(&expected, gate, a, b, 2);
        }
        assert_eq!(
            graph_run.tensors(),
            folded.tensors(),
            "graph run must equal the fold bit for bit"
        );
        assert!(graph_run.to_dense().unwrap().approx_eq(&expected, 1e-8));

        let swapped =
            [in_order[1].clone(), in_order[0].clone(), in_order[3].clone(), in_order[2].clone()];
        let mut other = base.clone();
        apply_gates(&mut other, &swapped, method).unwrap();
        assert!(other.to_dense().unwrap().max_diff(&expected) > 1e-3);
    }

    #[test]
    fn failing_op_returns_its_typed_error_and_a_valid_peps() {
        let mut rng = StdRng::seed_from_u64(61);
        let base = Peps::random(3, 3, 2, 2, &mut rng);
        let gate = expm_hermitian(&kron(&pauli_z(), &pauli_z()), c64(0.0, -0.2)).unwrap();
        let wrong = Matrix::identity(9);
        let method = UpdateMethod::qr_svd(2);
        let pairs: Vec<(Site, Site)> =
            base.horizontal_pairs().into_iter().chain(base.vertical_pairs()).collect();
        for threads in [1, 4] {
            koala_exec::set_threads(threads);

            // A wrong-shaped gate in the middle of the layer.
            let ops: Vec<GateOp<'_>> = pairs
                .iter()
                .enumerate()
                .map(|(i, &(a, b))| GateOp::two_site(if i == 6 { &wrong } else { &gate }, a, b))
                .collect();
            let mut peps = base.clone();
            let err = apply_gates(&mut peps, &ops, method).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Shape, "{threads} threads: {err}");
            Peps::new(3, 3, peps.tensors().to_vec()).unwrap();

            // A NaN-poisoned site: the first factorization that meets it fails.
            let mut poisoned = base.clone();
            let mut t = poisoned.tensor((1, 1)).clone();
            t.data_mut().iter_mut().for_each(|z| *z = c64(f64::NAN, 0.0));
            poisoned.set_tensor((1, 1), t);
            let ops: Vec<GateOp<'_>> =
                pairs.iter().map(|&(a, b)| GateOp::two_site(&gate, a, b)).collect();
            let err = apply_gates(&mut poisoned, &ops, method).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::NonFinite, "{threads} threads: {err}");
            Peps::new(3, 3, poisoned.tensors().to_vec()).unwrap();
        }

        // One poisoned element is enough, wherever it sits in the
        // matricized site: it must not be mistaken for a null column.
        for index in [0, 13, 31] {
            let mut poisoned = base.clone();
            let mut t = poisoned.tensor((1, 1)).clone();
            t.data_mut()[index].re = f64::NAN;
            poisoned.set_tensor((1, 1), t);
            let before = koala_error::recovery::snapshot().nonfinite_detections;
            let err = apply_two_site(&mut poisoned, &gate, (1, 1), (1, 2), method).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::NonFinite, "element {index}");
            assert!(koala_error::recovery::snapshot().nonfinite_detections > before);
        }

        // Structural errors are rejected before anything is applied.
        let mut peps = base.clone();
        let ops =
            [GateOp::two_site(&gate, (0, 0), (0, 1)), GateOp::two_site(&gate, (0, 0), (1, 1))];
        let err = apply_gates(&mut peps, &ops, method).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidArgument);
        let outside = [GateOp::one_site(&gate, (3, 0))];
        let err = apply_gates(&mut peps, &outside, method).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidArgument);
        assert_eq!(peps.tensors(), base.tensors());
    }

    #[test]
    fn one_site_gate_outside_the_lattice_is_rejected_untouched() {
        let mut rng = StdRng::seed_from_u64(37);
        let base = Peps::random(2, 2, 2, 2, &mut rng);
        let mut peps = base.clone();
        let err = apply_one_site(&mut peps, &pauli_x(), (0, 2)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidArgument);
        assert_eq!(peps.tensors(), base.tensors());
    }
}

//! Operator application (PEPS evolution).
//!
//! One-site operators contract directly with the site tensor (Equation 3).
//! Two-site operators on neighbouring sites need a contraction followed by a
//! refactorization — the `einsumsvd` of Equation 4 — for which three methods
//! are provided:
//!
//! * [`UpdateMethod::Direct`] — the simple update: contract both site tensors
//!   with the gate and truncate the SVD of the full two-site tensor,
//! * [`UpdateMethod::QrSvd`] — paper Algorithm 1: QR both sites first so the
//!   SVD acts on a much smaller object,
//! * [`UpdateMethod::GramQrSvd`] — Algorithm 1 with the orthogonalization done
//!   through a Gram matrix (the local math of Algorithm 5), the variant that
//!   avoids matricizing the big site tensors on the distributed backend.

use crate::peps::{
    check_one_site_gate, Direction, Peps, Result, Site, AX_D, AX_L, AX_P, AX_R, AX_U,
};
use koala_linalg::Matrix;
use koala_tensor::{
    einsum, gram_qr_split, qr_split, tensordot, EinsumSvd, Tensor, TensorError, Truncation,
};

/// The simple update: sites a `[pa, o1, o2, o3, bond]`, b `[pb, bond, o1, o2,
/// o3]` and gate `[pa', pb', pa, pb]` split into `[pa', ao1..3, k]` and
/// `[k, pb', bo1..3]`.
static DIRECT_UPDATE: EinsumSvd = EinsumSvd::new("abcdx,exfgh,ABae->Abcdk,kBfgh");

/// Algorithm 1, step (2)->(4): R_a `[ka, pa, bond]`, R_b `[kb, pb, bond]` and
/// gate `[pa', pb', pa, pb]` split into `[ka, pa', k]` and `[k, kb, pb']`.
static GATE_ON_R_FACTORS: EinsumSvd = EinsumSvd::new("apx,bqx,PQpq->aPk,kbQ");

/// Strategy for two-site operator application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateMethod {
    /// Simple update: contract the full two-site tensor and truncate its SVD.
    Direct {
        /// Bond truncation applied to the new shared bond.
        truncation: Truncation,
    },
    /// QR-SVD update (Algorithm 1) with modified Gram-Schmidt QR.
    QrSvd {
        /// Bond truncation applied to the new shared bond.
        truncation: Truncation,
    },
    /// QR-SVD update with the reshape-avoiding Gram-matrix orthogonalization.
    GramQrSvd {
        /// Bond truncation applied to the new shared bond.
        truncation: Truncation,
    },
}

impl UpdateMethod {
    /// The truncation policy carried by this method.
    pub fn truncation(&self) -> Truncation {
        match self {
            UpdateMethod::Direct { truncation }
            | UpdateMethod::QrSvd { truncation }
            | UpdateMethod::GramQrSvd { truncation } => *truncation,
        }
    }

    /// Convenience: QR-SVD with a maximum bond dimension.
    pub fn qr_svd(max_bond: usize) -> Self {
        UpdateMethod::QrSvd { truncation: Truncation::rank_and_tol(max_bond, 1e-14) }
    }

    /// Convenience: simple update with a maximum bond dimension.
    pub fn direct(max_bond: usize) -> Self {
        UpdateMethod::Direct { truncation: Truncation::rank_and_tol(max_bond, 1e-14) }
    }

    /// Convenience: Gram QR-SVD with a maximum bond dimension.
    pub fn gram_qr_svd(max_bond: usize) -> Self {
        UpdateMethod::GramQrSvd { truncation: Truncation::rank_and_tol(max_bond, 1e-14) }
    }
}

/// Apply a one-site gate to a site of the PEPS (Equation 3).
///
/// Runs through the cached einsum planner: evolution sweeps apply the same
/// gate shape to every site, so the contraction is planned once per
/// `(gate, site-tensor)` shape pair.
pub fn apply_one_site(peps: &mut Peps, gate: &Matrix, site: Site) -> Result<()> {
    let d = peps.phys_dim(site);
    check_one_site_gate(gate, d)?;
    let gate_t = Tensor::from_matrix_2d(gate);
    let old = peps.tensor(site);
    // new[i, u, l, d, r] = sum_j gate[i, j] old[j, u, l, d, r]
    let new = einsum("ij,juldr->iuldr", &[&gate_t, old])?;
    peps.set_tensor(site, new);
    Ok(())
}

/// Swap the two subsystems of a two-site gate: returns `G'` with
/// `G'[(b',a'),(b,a)] = G[(a',b'),(a,b)]`.
pub fn reorder_gate(gate: &Matrix, d_a: usize, d_b: usize) -> Result<Matrix> {
    if gate.shape() != (d_a * d_b, d_a * d_b) {
        return Err(TensorError::ShapeMismatch {
            context: format!(
                "reorder_gate: gate is {:?}, expected {}x{}",
                gate.shape(),
                d_a * d_b,
                d_a * d_b
            ),
        });
    }
    let t = Tensor::from_matrix_2d(gate).into_reshape(&[d_a, d_b, d_a, d_b])?;
    let swapped = t.permute(&[1, 0, 3, 2])?;
    Ok(swapped.unfold(2))
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
    let dir = peps.direction_between(site_a, site_b).ok_or_else(|| TensorError::InvalidAxes {
        context: format!("apply_two_site: sites {site_a:?} and {site_b:?} are not neighbours"),
    })?;
    // Normalise to the canonical orientations (Right / Down) so the index
    // gymnastics below only has two cases.
    match dir {
        Direction::Right | Direction::Down => {
            apply_two_site_canonical(peps, gate, site_a, site_b, dir, method)
        }
        Direction::Left | Direction::Up => {
            let d_a = peps.phys_dim(site_a);
            let d_b = peps.phys_dim(site_b);
            let swapped = reorder_gate(gate, d_a, d_b)?;
            apply_two_site_canonical(peps, &swapped, site_b, site_a, dir.opposite(), method)
        }
    }
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

fn apply_two_site_canonical(
    peps: &mut Peps,
    gate: &Matrix,
    site_a: Site,
    site_b: Site,
    dir: Direction,
    method: UpdateMethod,
) -> Result<f64> {
    let d_a = peps.phys_dim(site_a);
    let d_b = peps.phys_dim(site_b);
    if gate.shape() != (d_a * d_b, d_a * d_b) {
        return Err(TensorError::ShapeMismatch {
            context: format!(
                "apply_two_site: gate is {:?}, expected {}x{}",
                gate.shape(),
                d_a * d_b,
                d_a * d_b
            ),
        });
    }
    let (perm_a, perm_b) = canonical_perms(dir);
    let a = peps.tensor(site_a).permute(&perm_a)?; // [p, o1, o2, o3, bond]
    let b = peps.tensor(site_b).permute(&perm_b)?; // [p, bond, o1, o2, o3]
    let gate_t = Tensor::from_matrix_2d(gate).into_reshape(&[d_a, d_b, d_a, d_b])?;

    let truncation = method.truncation();
    let (new_a, new_b, err) = match method {
        UpdateMethod::Direct { .. } => direct_update(&a, &b, &gate_t, truncation)?,
        UpdateMethod::QrSvd { .. } => qr_svd_update(&a, &b, &gate_t, truncation, false)?,
        UpdateMethod::GramQrSvd { .. } => qr_svd_update(&a, &b, &gate_t, truncation, true)?,
    };

    // Undo the canonical permutations.
    let inv_a = invert5(perm_a);
    let inv_b = invert5(perm_b);
    peps.set_tensor(site_a, new_a.permute(&inv_a)?);
    peps.set_tensor(site_b, new_b.permute(&inv_b)?);
    Ok(err)
}

pub(crate) fn invert5(perm: [usize; 5]) -> [usize; 5] {
    let mut inv = [0usize; 5];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

/// Simple update: contract everything, apply the gate, split with one SVD.
fn direct_update(
    a: &Tensor,    // [pa, o1, o2, o3, bond]
    b: &Tensor,    // [pb, bond, o1, o2, o3]
    gate: &Tensor, // [pa', pb', pa, pb]
    truncation: Truncation,
) -> Result<(Tensor, Tensor, f64)> {
    let f = DIRECT_UPDATE.exact(&[a, b, gate], truncation)?;
    // u: [pa', ao1, ao2, ao3, k] already the canonical a-layout.
    // v: [k, pb', bo1, bo2, bo3] -> [pb', k, bo1, bo2, bo3]
    let (u, v) = f.absorb_split();
    Ok((u, v.permute(&[1, 0, 2, 3, 4])?, f.truncation_error))
}

/// QR-SVD update (Algorithm 1): QR both sites, apply the gate to the small
/// `R` factors, SVD, and recombine with the `Q` factors.
fn qr_svd_update(
    a: &Tensor,    // [pa, o1, o2, o3, bond]
    b: &Tensor,    // [pb, bond, o1, o2, o3]
    gate: &Tensor, // [pa', pb', pa, pb]
    truncation: Truncation,
    use_gram: bool,
) -> Result<(Tensor, Tensor, f64)> {
    // Step (1)->(2): split off the outer bonds.
    // a: rows = outer bonds (1,2,3) -> Q_a [o1,o2,o3,ka], R_a [ka, pa, bond]
    let (q_a, r_a) =
        if use_gram { gram_qr_split(a, &[1, 2, 3])? } else { qr_split(a, &[1, 2, 3])? };
    // b: rows = outer bonds (2,3,4) -> Q_b [o1,o2,o3,kb], R_b [kb, pb, bond]
    let (q_b, r_b) =
        if use_gram { gram_qr_split(b, &[2, 3, 4])? } else { qr_split(b, &[2, 3, 4])? };

    // Step (2)->(4): einsumsvd on {gate, R_a, R_b}.
    let (rt_a, rt_b, err) = small_einsumsvd(gate, &r_a, &r_b, truncation)?;

    // Step (4)->(5): recombine with the Q factors.
    // new_a [o1,o2,o3, pa', k] <- Q_a [o1,o2,o3,ka] x rt_a [ka, pa', k]
    let new_a = tensordot(&q_a, &rt_a, &[3], &[0])?;
    let new_a = new_a.permute(&[3, 0, 1, 2, 4])?; // [pa', o1, o2, o3, k]
                                                  // new_b [k, pb', o1,o2,o3] <- rt_b [k, kb, pb'] x Q_b [o1,o2,o3,kb]
    let new_b = tensordot(&rt_b, &q_b, &[1], &[3])?; // [k, pb', o1, o2, o3]
    let new_b = new_b.permute(&[1, 0, 2, 3, 4])?; // [pb', k, o1, o2, o3]
    Ok((new_a, new_b, err))
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
pub fn swap_gate(d: usize) -> Matrix {
    let mut m = Matrix::zeros(d * d, d * d);
    for a in 0..d {
        for b in 0..d {
            m[(a * d + b, b * d + a)] = koala_linalg::C64::ONE;
        }
    }
    m
}

/// Apply a two-site gate to an arbitrary (not necessarily adjacent) pair of
/// sites by routing with SWAP gates along a Manhattan path (first along the
/// column, then along the row), applying the gate, and swapping back — the
/// strategy described at the end of paper §II-C1. Returns the accumulated
/// truncation error.
pub fn apply_two_site_any(
    peps: &mut Peps,
    gate: &Matrix,
    site_a: Site,
    site_b: Site,
    method: UpdateMethod,
) -> Result<f64> {
    if site_a == site_b {
        return Err(TensorError::InvalidAxes {
            context: "apply_two_site_any: the two sites must differ".into(),
        });
    }
    if peps.direction_between(site_a, site_b).is_some() {
        return apply_two_site(peps, gate, site_a, site_b, method);
    }
    let d = peps.phys_dim(site_b);
    let swap = swap_gate(d);

    // Build the path that moves the state of `site_b` to a neighbour of
    // `site_a`: walk rows first, then columns.
    let mut path = vec![site_b];
    let (ar, ac) = site_a;
    let (mut br, mut bc) = site_b;
    while br != ar {
        br = if br > ar { br - 1 } else { br + 1 };
        path.push((br, bc));
    }
    while bc != ac {
        bc = if bc > ac { bc - 1 } else { bc + 1 };
        path.push((br, bc));
    }
    // The last entry is site_a itself; the gate partner is the one before it.
    debug_assert_eq!(
        path.last().copied().unwrap_or_else(|| unreachable!("path starts at site_b")),
        site_a
    );
    let hops = &path[..path.len() - 1];

    let mut err_sq = 0.0;
    // Swap forward: move |site_b> along the path up to the neighbour of site_a.
    for w in hops.windows(2) {
        let e = apply_two_site(peps, &swap, w[0], w[1], method)?;
        err_sq += e * e;
    }
    let partner = *hops
        .last()
        .unwrap_or_else(|| unreachable!("distinct sites leave at least one hop on the path"));
    let e = apply_two_site(peps, gate, site_a, partner, method)?;
    err_sq += e * e;
    // Swap back in reverse order.
    for w in hops.windows(2).rev() {
        let e = apply_two_site(peps, &swap, w[0], w[1], method)?;
        err_sq += e * e;
    }
    Ok(err_sq.sqrt())
}

/// Apply a layer of the same two-site gate to every nearest-neighbour pair
/// (all horizontal pairs first, then all vertical pairs), as one layer of
/// TEBD does. Returns the accumulated truncation error.
pub fn apply_two_site_everywhere(
    peps: &mut Peps,
    gate: &Matrix,
    method: UpdateMethod,
) -> Result<f64> {
    let mut err_sq = 0.0;
    for (a, b) in peps.horizontal_pairs() {
        let e = apply_two_site(peps, gate, a, b, method)?;
        err_sq += e * e;
    }
    for (a, b) in peps.vertical_pairs() {
        let e = apply_two_site(peps, gate, a, b, method)?;
        err_sq += e * e;
    }
    Ok(err_sq.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{kron, pauli_x, pauli_z};
    use koala_linalg::{c64, expm_hermitian, C64};
    use koala_tensor::Tensor as T;
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
    fn direct_update_matches_dense_in_all_directions() {
        let m = UpdateMethod::direct(16);
        check_two_site_update(((0, 0), (0, 1)), m, 10, 1e-9); // right
        check_two_site_update(((0, 1), (0, 0)), m, 11, 1e-9); // left
        check_two_site_update(((0, 0), (1, 0)), m, 12, 1e-9); // down
        check_two_site_update(((1, 1), (0, 1)), m, 13, 1e-9); // up
    }

    #[test]
    fn qr_svd_update_matches_dense_in_all_directions() {
        let m = UpdateMethod::qr_svd(16);
        check_two_site_update(((0, 0), (0, 1)), m, 20, 1e-8);
        check_two_site_update(((1, 0), (1, 1)), m, 21, 1e-8);
        check_two_site_update(((0, 1), (1, 1)), m, 22, 1e-8);
        check_two_site_update(((1, 0), (0, 0)), m, 23, 1e-8);
    }

    #[test]
    fn gram_qr_svd_update_matches_dense() {
        let m = UpdateMethod::gram_qr_svd(16);
        check_two_site_update(((0, 0), (0, 1)), m, 30, 1e-7);
        check_two_site_update(((0, 0), (1, 0)), m, 31, 1e-7);
    }

    #[test]
    fn methods_agree_with_each_other_under_truncation() {
        let mut rng = StdRng::seed_from_u64(40);
        let base = Peps::random(2, 3, 2, 3, &mut rng);
        let h = &kron(&pauli_x(), &pauli_x()) + &kron(&pauli_z(), &pauli_z());
        let gate = expm_hermitian(&h, c64(0.0, -0.7)).unwrap();

        let mut results = Vec::new();
        for method in
            [UpdateMethod::direct(3), UpdateMethod::qr_svd(3), UpdateMethod::gram_qr_svd(3)]
        {
            let mut p = base.clone();
            apply_two_site(&mut p, &gate, (0, 1), (0, 2), method).unwrap();
            results.push(p.to_dense().unwrap());
        }
        // All three methods should produce (numerically) the same truncated state
        // up to round-off, because they implement the same optimal truncation.
        assert!(results[0].approx_eq(&results[1], 1e-6));
        assert!(results[0].approx_eq(&results[2], 1e-5));
    }

    #[test]
    fn truncation_error_is_reported() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut peps = Peps::random(1, 2, 2, 4, &mut rng);
        // A random (non-unitary) gate creates entanglement that cannot fit in
        // a bond of dimension 1.
        let gate = Matrix::random(4, 4, &mut rng);
        let err =
            apply_two_site(&mut peps, &gate, (0, 0), (0, 1), UpdateMethod::direct(1)).unwrap();
        assert!(err > 1e-8, "expected a nonzero truncation error");
        assert_eq!(peps.tensor((0, 0)).dim(AX_R), 1);
    }

    #[test]
    fn non_neighbouring_sites_are_rejected() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut peps = Peps::random(2, 2, 2, 2, &mut rng);
        let gate = Matrix::identity(4);
        assert!(apply_two_site(&mut peps, &gate, (0, 0), (1, 1), UpdateMethod::direct(4)).is_err());
        assert!(apply_two_site(
            &mut peps,
            &Matrix::identity(3),
            (0, 0),
            (0, 1),
            UpdateMethod::direct(4)
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
            apply_two_site_any(&mut peps, &gate, (0, 0), (0, 1), UpdateMethod::direct(8)).is_ok()
        );
        assert!(
            apply_two_site_any(&mut peps, &gate, (0, 0), (0, 0), UpdateMethod::direct(8)).is_err()
        );
    }
}

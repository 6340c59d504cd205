//! Two-layer IBMPS contraction (paper §III-B2 and §IV-A, Table II).
//!
//! The inner product `<bra|ket>` of two PEPS is a two-layer network. The
//! naive approach contracts each bra/ket site pair into a single tensor whose
//! bond dimension is the product of the two layers' bonds, which costs
//! O(r_bra^4 r_ket^4) memory per site before the boundary contraction even
//! starts. The two-layer approach keeps the layers separate: the boundary MPS
//! still has merged (pair) bonds of dimension at most `m`, but the row that is
//! currently being absorbed enters the einsumsvd as two operands — with the
//! implicit method the randomized-SVD sketch is contracted with the bra
//! tensor and the ket tensor one after the other, never with their merged
//! product. This is what gives the two-layer IBMPS column of Table II its
//! lower time and space complexity.

use crate::peps::{Peps, AX_L, AX_P, AX_U};
use koala_error::KoalaError;
use koala_error::Result;
use koala_linalg::C64;
use koala_mps::{zip_seeds, Mps, ZipUpMethod};
use koala_tensor::{tensordot, EinsumSvd, Tensor, Truncation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One two-layer zip-up step: boundary `[l, d_pair, r_s, rA, rB]` x boundary
/// MPS site `[r_s, uA, uB, r_s']` x conj(bra) `[p, uA, lA, dA, rA']` x ket
/// `[p, uB, lB, dB, rB']` -> finished site `[l, d_pair, k]` and the rest
/// `[k, dA, dB, r_s', rA', rB']`. Listing bra and ket as separate operands is
/// the whole algorithm: the implicit method absorbs the sketch into one, then
/// the other, and their merged product never exists.
static TWO_LAYER_STEP: EinsumSvd = EinsumSvd::new("ldxab,xuvt,puaeg,pvbfh->ldk,keftgh");

/// Inner product `<bra|ket>` using the two-layer contraction, truncating the
/// boundary MPS to `max_bond` (in the *merged* bra-ket bond space) with the
/// requested einsumsvd method. Each absorbed row takes its [`zip_seeds`]
/// from `rng` up front, as `zip_up` does (one draw per step when implicit,
/// none when explicit), and each step seeds its own sketch stream from its
/// seed. So what a step draws does not depend on whether earlier steps
/// sketched or went exact (a step whose sketch would span theta).
pub(crate) fn inner_two_layer<R: Rng + ?Sized>(
    bra: &Peps,
    ket: &Peps,
    max_bond: usize,
    method: ZipUpMethod,
    rng: &mut R,
) -> Result<C64> {
    if bra.nrows() != ket.nrows() || bra.ncols() != ket.ncols() {
        return Err(KoalaError::shape("inner_two_layer: lattice shapes differ"));
    }
    // The first row is absorbed exactly (merged): its bonds are at most
    // r_bra * r_ket wide, the same as the boundary MPS would be anyway.
    let mut boundary = merged_row_mps(bra, ket, 0)?;
    for row in 1..bra.nrows() {
        let seeds = zip_seeds(bra.ncols(), method, rng);
        boundary = apply_two_layer_row(&boundary, bra, ket, row, max_bond, method, &seeds)?;
    }
    boundary.contract_to_scalar()
}

/// Norm squared `<psi|psi>` via the two-layer contraction.
pub fn norm_sqr_two_layer<R: Rng + ?Sized>(
    peps: &Peps,
    max_bond: usize,
    method: ZipUpMethod,
    rng: &mut R,
) -> Result<f64> {
    Ok(inner_two_layer(peps, peps, max_bond, method, rng)?.re.max(0.0))
}

/// Build the boundary MPS of row `row` with the bra and ket layers merged:
/// site layout `[l_pair, d_pair, r_pair]`.
fn merged_row_mps(bra: &Peps, ket: &Peps, row: usize) -> Result<Mps> {
    let mut tensors = Vec::with_capacity(bra.ncols());
    for c in 0..bra.ncols() {
        let a = bra.tensor((row, c));
        let b = ket.tensor((row, c));
        if a.dim(AX_P) != b.dim(AX_P) {
            return Err(KoalaError::shape(format!(
                "inner_two_layer: physical dims differ at ({row},{c})"
            )));
        }
        if a.dim(AX_U) != 1 || b.dim(AX_U) != 1 {
            return Err(KoalaError::shape(
                "merged_row_mps: expected the top row (no upward bonds)",
            ));
        }
        // conj(a)[p, 1, la, da, ra] x b[p, 1, lb, db, rb] -> [la, da, ra, lb, db, rb]
        let pair = tensordot(&a.conj().select(AX_U, 0)?, &b.select(AX_U, 0)?, &[0], &[0])?;
        // -> [la, lb, da, db, ra, rb] -> [(la lb), (da db), (ra rb)]
        let pair = pair.permute(&[0, 3, 1, 4, 2, 5])?;
        let s = pair.shape().to_vec();
        tensors.push(pair.into_reshape(&[s[0] * s[1], s[2] * s[3], s[4] * s[5]])?);
    }
    Mps::new(tensors)
}

/// Apply row `row` of the two-layer network to the boundary MPS with one
/// zip-up sweep whose einsumsvd keeps the bra and ket tensors separate;
/// step `c` (columns `1..ncols`) seeds its sketches from `seeds[c - 1]`.
fn apply_two_layer_row(
    boundary_mps: &Mps,
    bra: &Peps,
    ket: &Peps,
    row: usize,
    max_bond: usize,
    method: ZipUpMethod,
    seeds: &[u64],
) -> Result<Mps> {
    let ncols = bra.ncols();
    let truncation = Truncation::rank_and_tol(max_bond, 1e-14);

    // Initial boundary tensor from column 0:
    // S(0) [1, u_pair, r_s] x conj(A_0)[p, uA, 1, dA, rA'] x B_0[p, uB, 1, dB, rB']
    let (a0, b0) = (bra.tensor((row, 0)), ket.tensor((row, 0)));
    let s0 = boundary_mps.tensor(0);
    let s0 = s0.reshape(&[a0.dim(AX_U), b0.dim(AX_U), s0.dim(2)])?; // [uA, uB, r_s]
    let a0 = a0.conj().select(AX_L, 0)?; // [p, uA, dA, rA']
    let b0 = b0.select(AX_L, 0)?; // [p, uB, dB, rB']
    let t = tensordot(&s0, &a0, &[0], &[1])?; // [uB, r_s, p, dA, rA']
    let t = tensordot(&t, &b0, &[0, 2], &[1, 0])?; // [r_s, dA, rA', dB, rB']
    let (rs, da, rap, db, rbp) = (t.dim(0), t.dim(1), t.dim(2), t.dim(3), t.dim(4));
    let t = t.permute(&[1, 3, 0, 2, 4])?; // [dA, dB, r_s, rA', rB']
    let mut boundary = t.into_reshape(&[1, da * db, rs, rap, rbp])?; // [l=1, d_pair, r_s, rA, rB]

    let mut out_tensors: Vec<Tensor> = Vec::with_capacity(ncols);

    for c in 1..ncols {
        let (a, b) = (bra.tensor((row, c)), ket.tensor((row, c)));
        // Boundary MPS site with its pair index split: [r_s, uA, uB, r_s'].
        let s = boundary_mps.tensor(c);
        let s = s.reshape(&[s.dim(0), a.dim(AX_U), b.dim(AX_U), s.dim(2)])?;
        let network = [&boundary, &s, &a.conj(), b];
        let mut rng = StdRng::seed_from_u64(seeds[c - 1]);
        let (finished, rest) =
            TWO_LAYER_STEP.split(&network, truncation, method, &mut rng)?.absorb_right();
        out_tensors.push(finished);
        // rest [k, dA, dB, r_s', rA', rB'] -> boundary layout with d_pair merged.
        let r = rest.shape().to_vec();
        boundary = rest.into_reshape(&[r[0], r[1] * r[2], r[3], r[4], r[5]])?;
    }

    // Final boundary [l, d_pair, 1, 1, 1] becomes the last MPS site.
    let (l, dpair) = (boundary.dim(0), boundary.dim(1));
    debug_assert_eq!(boundary.dim(2) * boundary.dim(3) * boundary.dim(4), 1);
    out_tensors.push(boundary.into_reshape(&[l, dpair, 1])?);
    Mps::new(out_tensors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{contract_no_phys, ContractionMethod};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_dense_inner_product_without_truncation() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Peps::random(2, 3, 2, 2, &mut rng);
        let b = Peps::random(2, 3, 2, 2, &mut rng);
        let dense = a.to_dense().unwrap().inner(&b.to_dense().unwrap()).unwrap();
        let got = inner_two_layer(&a, &b, 64, ZipUpMethod::implicit_default(), &mut rng).unwrap();
        assert!(got.approx_eq(dense, 1e-6 * dense.abs().max(1.0)), "{got} vs {dense}");
    }

    #[test]
    fn matches_merged_contraction_on_three_by_three() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Peps::random(3, 3, 2, 2, &mut rng);
        let b = Peps::random(3, 3, 2, 2, &mut rng);
        let merged =
            contract_no_phys(&b.merge_with_bra(&a).unwrap(), ContractionMethod::bmps(32), &mut rng)
                .unwrap();
        let two_layer =
            inner_two_layer(&a, &b, 32, ZipUpMethod::implicit_default(), &mut rng).unwrap();
        let scale = merged.abs().max(1e-12);
        assert!((merged - two_layer).abs() / scale < 1e-4, "{merged} vs {two_layer}");
    }

    #[test]
    fn norm_is_real_and_positive() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = Peps::random(2, 2, 2, 2, &mut rng);
        let n = norm_sqr_two_layer(&p, 32, ZipUpMethod::implicit_default(), &mut rng).unwrap();
        let dense = p.norm_sqr_dense().unwrap();
        assert!(n > 0.0);
        assert!((n - dense).abs() / dense < 1e-6);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Peps::random(2, 2, 2, 2, &mut rng);
        let b = Peps::random(2, 3, 2, 2, &mut rng);
        assert!(inner_two_layer(&a, &b, 8, ZipUpMethod::implicit_default(), &mut rng).is_err());
    }

    #[test]
    fn single_column_lattice() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Peps::random(3, 1, 2, 2, &mut rng);
        let b = Peps::random(3, 1, 2, 2, &mut rng);
        let dense = a.to_dense().unwrap().inner(&b.to_dense().unwrap()).unwrap();
        let got = inner_two_layer(&a, &b, 16, ZipUpMethod::implicit_default(), &mut rng).unwrap();
        assert!(got.approx_eq(dense, 1e-6 * dense.abs().max(1.0)));
    }
}

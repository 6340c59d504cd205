//! Approximate application of an MPO to an MPS by the zip-up algorithm
//! (paper Algorithm 3).
//!
//! The zip-up sweep walks the chain once from left to right. At every step the
//! partially contracted boundary tensor `V(i-1)`, the next MPS site `S(i)`,
//! and the next MPO site `O(i)` form a small tensor network that must be
//! contracted and refactorized into the finished site `i-1` and the new
//! boundary tensor — one [`EinsumSvd`], evaluated by whichever
//! [`ZipUpMethod`] the caller picks: the explicit SVD gives BMPS, the
//! implicit randomized SVD (Algorithm 4) gives IBMPS in the PEPS contraction
//! benchmarks (Figure 8).

use crate::mpo::Mpo;
use crate::mps::{Mps, Result};
use koala_error::KoalaError;
use koala_tensor::{tensordot, EinsumSvd, Tensor, Truncation};
use rand::Rng;

/// How the einsumsvd inside the zip-up sweep is evaluated: the method choice
/// of [`EinsumSvd`] itself, under the name this crate's callers use.
pub use koala_tensor::EinsumSvdMethod as ZipUpMethod;

/// One zip-up step: boundary `[l, d, r_s, r_o]` x S `[r_s, p, r_s']` x
/// O `[r_o, p, d', r_o']` -> finished site `[l, d, k]` and the rest
/// `[k, r_s', d', r_o']`. The sweep runs this once per site per zip-up,
/// thousands of times over a handful of recurring shapes, all served from
/// the plans this site holds (pinned by `tests/zip_plan_pin.rs`).
static ZIP_STEP: EinsumSvd = EinsumSvd::new("ldxy,xpt,ypqr->ldk,ktqr");

/// Apply `mpo` to `mps`, truncating every new bond to at most `max_bond`,
/// using the requested einsumsvd method. Returns the compressed MPS.
pub fn zip_up<R: Rng + ?Sized>(
    mps: &Mps,
    mpo: &Mpo,
    max_bond: usize,
    method: ZipUpMethod,
    rng: &mut R,
) -> Result<Mps> {
    if mps.len() != mpo.len() || mpo.up_dims() != mps.phys_dims() {
        return Err(KoalaError::shape("zip_up: MPO and MPS are incompatible"));
    }
    let n = mps.len();
    let truncation = Truncation::rank_and_tol(max_bond, 1e-14);

    // V(1): contract S(1) and O(1) over the physical index.
    // S(1) [1, p, r_s], O(1) [1, p, d, r_o]  ->  [1, d, r_s, r_o]
    let s0 = mps.tensor(0);
    let o0 = mpo.tensor(0);
    let v0 = tensordot(s0, o0, &[1], &[1])?; // [1, r_s, 1, d, r_o]
    let mut boundary = v0.permute(&[0, 2, 3, 1, 4])?; // [1, 1, d, r_s, r_o]
    let (b0, b1, d, rs, ro) =
        (boundary.dim(0), boundary.dim(1), boundary.dim(2), boundary.dim(3), boundary.dim(4));
    boundary = boundary.into_reshape(&[b0 * b1, d, rs, ro])?; // [l=1, d, r_s, r_o]

    let mut out_tensors: Vec<Tensor> = Vec::with_capacity(n);

    for i in 1..n {
        let network = [&boundary, mps.tensor(i), mpo.tensor(i)];
        let (finished, rest) = ZIP_STEP.split(&network, truncation, method, rng)?.absorb_right();
        out_tensors.push(finished);
        // rest [k, r_s', d', r_o'] -> boundary layout [k, d', r_s', r_o'].
        boundary = rest.permute(&[0, 2, 1, 3])?;
    }

    // The final boundary tensor [l, d, 1, 1] becomes the last site [l, d, 1].
    let (l, d) = (boundary.dim(0), boundary.dim(1));
    debug_assert_eq!(boundary.dim(2), 1);
    debug_assert_eq!(boundary.dim(3), 1);
    out_tensors.push(boundary.into_reshape(&[l, d, 1])?);
    Mps::new(out_tensors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn relative_error(approx: &Mps, exact: &Mps) -> f64 {
        let da = approx.to_dense().unwrap();
        let de = exact.to_dense().unwrap();
        da.sub(&de).unwrap().norm() / de.norm()
    }

    #[test]
    fn zip_up_exact_without_truncation_matches_exact_application() {
        let mut rng = StdRng::seed_from_u64(1);
        let mps = Mps::random(4, 2, 3, &mut rng);
        let mpo = Mpo::random(4, 2, 2, &mut rng);
        let exact = mpo.apply_exact(&mps).unwrap();
        let zipped = zip_up(&mps, &mpo, 64, ZipUpMethod::ExactSvd, &mut rng).unwrap();
        assert!(relative_error(&zipped, &exact) < 1e-9);
    }

    #[test]
    fn zip_up_implicit_without_truncation_matches_exact_application() {
        let mut rng = StdRng::seed_from_u64(2);
        let mps = Mps::random(4, 2, 3, &mut rng);
        let mpo = Mpo::random(4, 2, 2, &mut rng);
        let exact = mpo.apply_exact(&mps).unwrap();
        let zipped = zip_up(&mps, &mpo, 64, ZipUpMethod::implicit_default(), &mut rng).unwrap();
        assert!(relative_error(&zipped, &exact) < 1e-7);
    }

    #[test]
    fn zip_up_truncates_bond_dimension() {
        let mut rng = StdRng::seed_from_u64(3);
        let mps = Mps::random(5, 2, 4, &mut rng);
        let mpo = Mpo::random(5, 2, 3, &mut rng);
        let zipped = zip_up(&mps, &mpo, 5, ZipUpMethod::ExactSvd, &mut rng).unwrap();
        assert!(zipped.max_bond() <= 5);
        let zipped_i = zip_up(&mps, &mpo, 5, ZipUpMethod::implicit_default(), &mut rng).unwrap();
        assert!(zipped_i.max_bond() <= 5);
    }

    #[test]
    fn implicit_and_exact_agree_when_rank_is_sufficient() {
        let mut rng = StdRng::seed_from_u64(4);
        let mps = Mps::random(4, 2, 2, &mut rng);
        let mpo = Mpo::random(4, 2, 2, &mut rng);
        let a = zip_up(&mps, &mpo, 16, ZipUpMethod::ExactSvd, &mut rng).unwrap();
        let b = zip_up(&mps, &mpo, 16, ZipUpMethod::implicit_default(), &mut rng).unwrap();
        // The two states can differ by gauge; compare physical content.
        let overlap = a.inner(&b).unwrap().abs();
        let na = a.norm();
        let nb = b.norm();
        assert!((overlap / (na * nb) - 1.0).abs() < 1e-6, "fidelity loss between methods");
    }

    #[test]
    fn identity_mpo_through_zip_up_preserves_the_state() {
        let mut rng = StdRng::seed_from_u64(5);
        let mps = Mps::random(4, 2, 3, &mut rng);
        let id = Mpo::identity(&[2, 2, 2, 2]);
        let out = zip_up(&mps, &id, 16, ZipUpMethod::ExactSvd, &mut rng).unwrap();
        assert!(relative_error(&out, &mps) < 1e-9);
    }

    #[test]
    fn truncation_error_grows_as_bond_shrinks() {
        let mut rng = StdRng::seed_from_u64(6);
        let mps = Mps::random(5, 2, 4, &mut rng);
        let mpo = Mpo::random(5, 2, 3, &mut rng);
        let exact = mpo.apply_exact(&mps).unwrap();
        let mut prev = 0.0;
        for &m in &[12usize, 6, 3, 1] {
            let z = zip_up(&mps, &mpo, m, ZipUpMethod::ExactSvd, &mut rng).unwrap();
            let err = relative_error(&z, &exact);
            assert!(err >= prev - 1e-9, "error should not decrease as bond shrinks");
            prev = err;
        }
    }

    #[test]
    fn incompatible_operands_are_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        let mps = Mps::random(3, 2, 2, &mut rng);
        let mpo = Mpo::random(4, 2, 2, &mut rng);
        assert!(zip_up(&mps, &mpo, 4, ZipUpMethod::ExactSvd, &mut rng).is_err());
    }
}

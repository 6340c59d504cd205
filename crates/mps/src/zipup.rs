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
//!
//! # Steps
//!
//! A zip-up over `n` sites is three public step functions, and [`zip_up`]
//! is nothing but the loop over them:
//!
//! * [`zip_start`]: `S(0)·O(0)` -> the first boundary;
//! * [`zip_step`] `i` (`1 <= i < n`): boundary `i-1`, `S(i)` and `O(i)` ->
//!   finished site `i-1` and boundary `i`;
//! * [`zip_finish`]: the last boundary -> the last site.
//!
//! No canonicalization sweep runs, so step `i` reads exactly the previous
//! step's boundary and site `i` of the MPS. A caller applying several rows
//! in a chain (the boundary contraction of `koala-peps`) can therefore start
//! row `r`'s step `i` as soon as row `r-1` has finished its site `i` — at
//! its step `i+1` — and run the steps as a wavefront.
//!
//! # Randomness
//!
//! The implicit method draws one `u64` per step from the caller's stream,
//! all [`zip_seeds`] before the first step: `n - 1` draws per zip-up. Step
//! `i` seeds its own `StdRng` from draw `i-1`, so a step's result depends
//! only on its inputs and its seed, never on which steps ran before it on
//! the same thread. The seeds are drawn even for the steps whose sketch
//! would span theta and which therefore factorize exactly (see
//! [`EinsumSvd::split`]): such a step leaves its `StdRng` unused, and the
//! caller's stream advances by `n - 1` whatever the shapes. The explicit
//! method draws nothing.

use crate::mpo::Mpo;
use crate::mps::Mps;
use koala_error::KoalaError;
use koala_error::Result;
use koala_tensor::{tensordot, EinsumSvd, Tensor, Truncation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the einsumsvd inside the zip-up sweep is evaluated: the method choice
/// of [`EinsumSvd`] itself, under the name this crate's callers use.
pub use koala_tensor::EinsumSvdMethod as ZipUpMethod;

/// One zip-up step: boundary `[l, d, r_s, r_o]` x S `[r_s, p, r_s']` x
/// O `[r_o, p, d', r_o']` -> finished site `[l, d, k]` and the rest
/// `[k, r_s', d', r_o']`. The sweep runs this once per site per zip-up,
/// thousands of times over a handful of recurring shapes; each explicit step
/// makes one plan-cache lookup (pinned by `tests/zip_plan_pin.rs`).
static ZIP_STEP: EinsumSvd = EinsumSvd::new("ldxy,xpt,ypqr->ldk,ktqr");

/// Apply `mpo` to `mps`, truncating every new bond to at most `max_bond`,
/// using the requested einsumsvd method. Returns the compressed MPS.
///
/// Takes [`zip_seeds`] from `rng` (`n - 1` draws when implicit, none when
/// explicit), then runs [`zip_start`], every [`zip_step`] and
/// [`zip_finish`] in order.
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
    let seeds = zip_seeds(n, method, rng);
    let mut boundary = zip_start(mps.tensor(0), mpo.tensor(0))?;
    let mut out_tensors: Vec<Tensor> = Vec::with_capacity(n);
    for i in 1..n {
        let (finished, next) =
            zip_step(&boundary, mps.tensor(i), mpo.tensor(i), max_bond, method, seeds[i - 1])?;
        out_tensors.push(finished);
        boundary = next;
    }
    out_tensors.push(zip_finish(boundary)?);
    Mps::new(out_tensors)
}

/// The seeds of one zip-up over `n` sites, one per [`zip_step`]: `n - 1`
/// draws from `rng` for the implicit method; zeros, and no draw, for the
/// explicit one, which uses no randomness.
pub fn zip_seeds<R: Rng + ?Sized>(n: usize, method: ZipUpMethod, rng: &mut R) -> Vec<u64> {
    let steps = n.saturating_sub(1);
    match method {
        ZipUpMethod::ExactSvd => vec![0; steps],
        ZipUpMethod::ImplicitRandSvd { .. } => (0..steps).map(|_| rng.next_u64()).collect(),
    }
}

/// First step of a zip-up: contract `S(0) [1, p, r_s]` and
/// `O(0) [1, p, d, r_o]` over the physical index into the first boundary
/// `[1, d, r_s, r_o]`.
pub fn zip_start(s0: &Tensor, o0: &Tensor) -> Result<Tensor> {
    let v0 = tensordot(s0, o0, &[1], &[1])?; // [1, r_s, 1, d, r_o]
    let boundary = v0.permute(&[0, 2, 3, 1, 4])?; // [1, 1, d, r_s, r_o]
    let (b0, b1, d, rs, ro) =
        (boundary.dim(0), boundary.dim(1), boundary.dim(2), boundary.dim(3), boundary.dim(4));
    boundary.into_reshape(&[b0 * b1, d, rs, ro]) // [l=1, d, r_s, r_o]
}

/// Step `i` of a zip-up: refactorize boundary `i-1` `[l, d, r_s, r_o]`,
/// `S(i)` and `O(i)` into the finished site `i-1` `[l, d, k]` and boundary
/// `i` `[k, d', r_s', r_o']`, with `k <= max_bond`. `seed` seeds the
/// implicit method's sketches (see [`zip_seeds`]).
pub fn zip_step(
    boundary: &Tensor,
    s: &Tensor,
    o: &Tensor,
    max_bond: usize,
    method: ZipUpMethod,
    seed: u64,
) -> Result<(Tensor, Tensor)> {
    let truncation = Truncation::rank_and_tol(max_bond, 1e-14);
    let mut rng = StdRng::seed_from_u64(seed);
    let (finished, rest) =
        ZIP_STEP.split(&[boundary, s, o], truncation, method, &mut rng)?.absorb_right();
    // rest [k, r_s', d', r_o'] -> boundary layout [k, d', r_s', r_o'].
    Ok((finished, rest.permute(&[0, 2, 1, 3])?))
}

/// Last step of a zip-up: the final boundary `[l, d, 1, 1]` becomes the last
/// site `[l, d, 1]`.
pub fn zip_finish(boundary: Tensor) -> Result<Tensor> {
    let (l, d) = (boundary.dim(0), boundary.dim(1));
    debug_assert_eq!(boundary.dim(2), 1);
    debug_assert_eq!(boundary.dim(3), 1);
    boundary.into_reshape(&[l, d, 1])
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

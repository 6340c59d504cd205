//! PEPS contraction algorithms (paper §III-B and §IV-A).
//!
//! All approximate methods are variants of the boundary-MPS (BMPS) scheme of
//! Algorithm 2: the first row of the network is treated as an MPS and the
//! remaining rows as MPOs that are applied approximately, truncating the
//! boundary bond dimension to `m` after each row. The einsumsvd inside the
//! approximate application is evaluated either with an explicit truncated SVD
//! (BMPS) or with the implicit randomized SVD of Algorithm 4 (IBMPS). The
//! exact algorithm applies every row without truncation and is exponential.

use crate::peps::{Peps, Result, AX_P, AX_U};
use koala_error::KoalaError;
use koala_linalg::C64;
use koala_mps::{zip_up, Mpo, Mps, ZipUpMethod};
use koala_tensor::Tensor;
use rand::Rng;

/// Which contraction algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContractionMethod {
    /// Exact contraction: apply every row MPO without truncation
    /// (exponential memory; reference only).
    Exact,
    /// Boundary MPS with explicit truncated SVD (Algorithm 2 + Algorithm 3).
    Bmps {
        /// Truncation bond dimension `m` of the boundary MPS.
        max_bond: usize,
    },
    /// Boundary MPS with implicit randomized SVD (IBMPS, §IV-A).
    Ibmps {
        /// Truncation bond dimension `m` of the boundary MPS.
        max_bond: usize,
        /// Subspace iterations of the randomized SVD.
        n_iter: usize,
        /// Oversampling columns of the randomized SVD.
        oversample: usize,
    },
}

impl ContractionMethod {
    /// BMPS with truncation bond `m`.
    pub fn bmps(max_bond: usize) -> Self {
        ContractionMethod::Bmps { max_bond }
    }

    /// IBMPS with truncation bond `m` and default randomized-SVD parameters.
    pub fn ibmps(max_bond: usize) -> Self {
        ContractionMethod::Ibmps { max_bond, n_iter: 2, oversample: 10 }
    }

    /// Absorb one row MPO into the boundary MPS the way this method
    /// prescribes — the single place a method becomes a `zip_up` call.
    pub(crate) fn apply_row<R: Rng + ?Sized>(
        self,
        boundary: &Mps,
        mpo: &Mpo,
        rng: &mut R,
    ) -> Result<Mps> {
        match self {
            ContractionMethod::Exact => mpo.apply_exact(boundary),
            ContractionMethod::Bmps { max_bond } => {
                zip_up(boundary, mpo, max_bond, ZipUpMethod::ExactSvd, rng)
            }
            ContractionMethod::Ibmps { max_bond, n_iter, oversample } => zip_up(
                boundary,
                mpo,
                max_bond,
                ZipUpMethod::ImplicitRandSvd { n_iter, oversample },
                rng,
            ),
        }
    }
}

/// Physical-index-free sites `[p=1, u=1, l, d, r]` as a boundary MPS (site
/// layout `[l, d, r]`, the open "down" bond is the MPS physical index).
pub(crate) fn sites_as_mps<'a>(sites: impl IntoIterator<Item = &'a Tensor>) -> Result<Mps> {
    let site = |t: &Tensor| {
        if t.dim(AX_P) != 1 || t.dim(AX_U) != 1 {
            return Err(KoalaError::shape(format!(
                "boundary MPS site {:?} has a physical index or an upward bond",
                t.shape()
            )));
        }
        // [p=1, u=1, l, d, r] -> [l, d, r]
        t.select(AX_P, 0)?.select(0, 0)
    };
    Mps::new(sites.into_iter().map(site).collect::<Result<_>>()?)
}

/// Physical-index-free sites `[p=1, u, l, d, r]` as an MPO (site layout
/// `[l, u, d, r]`).
pub(crate) fn sites_as_mpo<'a>(sites: impl IntoIterator<Item = &'a Tensor>) -> Result<Mpo> {
    let site = |t: &Tensor| {
        if t.dim(AX_P) != 1 {
            return Err(KoalaError::shape(format!(
                "row MPO site {:?} still has a physical index",
                t.shape()
            )));
        }
        // [p=1, u, l, d, r] -> [u, l, d, r] -> [l, u, d, r]
        t.select(AX_P, 0)?.permute(&[1, 0, 2, 3])
    };
    Mpo::new(sites.into_iter().map(site).collect::<Result<_>>()?)
}

/// Convert row `row` of a PEPS without physical indices into a boundary MPS
/// (site layout `[l, d, r]`, the open "down" bond is the MPS physical index).
pub fn row_as_mps(peps: &Peps, row: usize) -> Result<Mps> {
    sites_as_mps((0..peps.ncols()).map(|c| peps.tensor((row, c))))
}

/// Convert row `row` of a PEPS without physical indices into an MPO
/// (site layout `[l, u, d, r]`).
pub fn row_as_mpo(peps: &Peps, row: usize) -> Result<Mpo> {
    sites_as_mpo((0..peps.ncols()).map(|c| peps.tensor((row, c))))
}

/// Contract a PEPS without physical indices to a scalar (Algorithm 2).
pub fn contract_no_phys<R: Rng + ?Sized>(
    peps: &Peps,
    method: ContractionMethod,
    rng: &mut R,
) -> Result<C64> {
    let mut boundary = row_as_mps(peps, 0)?;
    for row in 1..peps.nrows() {
        boundary = method.apply_row(&boundary, &row_as_mpo(peps, row)?, rng)?;
    }
    boundary.contract_to_scalar()
}

/// Amplitude `<bits|psi>`: project the physical indices onto a basis state and
/// contract the resulting one-layer network.
pub fn amplitude<R: Rng + ?Sized>(
    peps: &Peps,
    bits: &[usize],
    method: ContractionMethod,
    rng: &mut R,
) -> Result<C64> {
    let projected = peps.project_onto_basis(bits)?;
    contract_no_phys(&projected, method, rng)
}

/// Inner product `<bra|ket>` through the merged (single-layer) network: bond
/// dimensions multiply, then a one-layer contraction is performed. This is
/// the "naive" two-layer handling of §III-B2.
pub fn inner_merged<R: Rng + ?Sized>(
    bra: &Peps,
    ket: &Peps,
    method: ContractionMethod,
    rng: &mut R,
) -> Result<C64> {
    let merged = ket.merge_with_bra(bra)?;
    contract_no_phys(&merged, method, rng)
}

/// Norm squared `<psi|psi>` through the merged network.
pub fn norm_sqr<R: Rng + ?Sized>(
    peps: &Peps,
    method: ContractionMethod,
    rng: &mut R,
) -> Result<f64> {
    Ok(inner_merged(peps, peps, method, rng)?.re.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peps::Peps;
    use koala_linalg::c64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scaled_random_no_phys(n: usize, bond: usize, seed: u64) -> Peps {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Peps::random_no_phys(n, n, bond, &mut rng);
        // Keep the contraction value O(1) so relative comparisons are meaningful.
        let scale = 1.0 / (bond as f64);
        for r in 0..n {
            for c in 0..n {
                let t = p.tensor((r, c)).scale(c64(scale, 0.0));
                p.set_tensor((r, c), t);
            }
        }
        p
    }

    #[test]
    fn exact_contraction_matches_dense() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = scaled_random_no_phys(3, 2, 10);
        let exact = contract_no_phys(&p, ContractionMethod::Exact, &mut rng).unwrap();
        let dense = p.to_dense().unwrap().item();
        assert!(exact.approx_eq(dense, 1e-9), "{exact} vs {dense}");
    }

    #[test]
    fn bmps_with_large_bond_is_exact() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = scaled_random_no_phys(3, 2, 11);
        let dense = p.to_dense().unwrap().item();
        let bmps = contract_no_phys(&p, ContractionMethod::bmps(64), &mut rng).unwrap();
        assert!(bmps.approx_eq(dense, 1e-8), "{bmps} vs {dense}");
    }

    #[test]
    fn ibmps_with_large_bond_is_exact() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = scaled_random_no_phys(3, 2, 12);
        let dense = p.to_dense().unwrap().item();
        let ibmps = contract_no_phys(&p, ContractionMethod::ibmps(64), &mut rng).unwrap();
        assert!(ibmps.approx_eq(dense, 1e-6), "{ibmps} vs {dense}");
    }

    /// A PEPS with strictly positive entries: its contraction is a sum of
    /// positive terms, so truncation errors stay small and relative
    /// comparisons are well conditioned.
    fn positive_random_no_phys(n: usize, bond: usize, seed: u64) -> Peps {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Peps::random_no_phys(n, n, bond, &mut rng);
        for r in 0..n {
            for c in 0..n {
                let mut t = p.tensor((r, c)).clone();
                for v in t.data_mut() {
                    *v = c64((v.re.abs() + 0.2) / (bond as f64 + 1.0), 0.0);
                }
                p.set_tensor((r, c), t);
            }
        }
        p
    }

    #[test]
    fn bmps_and_ibmps_agree_under_truncation() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = positive_random_no_phys(4, 3, 13);
        let exact = contract_no_phys(&p, ContractionMethod::Exact, &mut rng).unwrap();
        let bmps = contract_no_phys(&p, ContractionMethod::bmps(6), &mut rng).unwrap();
        let ibmps = contract_no_phys(&p, ContractionMethod::ibmps(6), &mut rng).unwrap();
        // Both approximations should be close to the exact value and to each other.
        let scale = exact.abs().max(1e-12);
        assert!((bmps - exact).abs() / scale < 0.05, "bmps too far: {bmps} vs {exact}");
        assert!((ibmps - exact).abs() / scale < 0.05, "ibmps too far: {ibmps} vs {exact}");
    }

    #[test]
    fn single_row_peps_contracts_directly() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = Peps::random_no_phys(1, 4, 3, &mut rng);
        let v = contract_no_phys(&p, ContractionMethod::bmps(8), &mut rng).unwrap();
        let dense = p.to_dense().unwrap().item();
        assert!(v.approx_eq(dense, 1e-9));
    }

    #[test]
    fn amplitude_matches_dense_amplitude() {
        let mut rng = StdRng::seed_from_u64(6);
        let p = Peps::random(2, 3, 2, 2, &mut rng);
        let dense = p.to_dense().unwrap();
        let bits = [0usize, 1, 1, 0, 1, 0];
        let amp = amplitude(&p, &bits, ContractionMethod::Exact, &mut rng).unwrap();
        assert!(amp.approx_eq(dense.get(&bits), 1e-9));
        let amp_bmps = amplitude(&p, &bits, ContractionMethod::bmps(16), &mut rng).unwrap();
        assert!(amp_bmps.approx_eq(dense.get(&bits), 1e-8));
    }

    #[test]
    fn norm_and_inner_product_match_dense() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Peps::random(2, 2, 2, 2, &mut rng);
        let b = Peps::random(2, 2, 2, 2, &mut rng);
        let dense_inner = a.to_dense().unwrap().inner(&b.to_dense().unwrap()).unwrap();
        let got = inner_merged(&a, &b, ContractionMethod::bmps(32), &mut rng).unwrap();
        assert!(got.approx_eq(dense_inner, 1e-7), "{got} vs {dense_inner}");
        let n = norm_sqr(&a, ContractionMethod::Exact, &mut rng).unwrap();
        let dense_n = a.norm_sqr_dense().unwrap();
        assert!((n - dense_n).abs() < 1e-7 * dense_n.max(1.0));
    }

    #[test]
    fn row_conversion_rejects_physical_indices() {
        let mut rng = StdRng::seed_from_u64(8);
        let p = Peps::random(2, 2, 2, 2, &mut rng);
        assert!(row_as_mps(&p, 0).is_err());
        assert!(row_as_mpo(&p, 1).is_err());
    }
}

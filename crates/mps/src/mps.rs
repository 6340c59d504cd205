//! Matrix product states.
//!
//! Site tensors use the axis convention `[left bond, physical, right bond]`;
//! the first and last bonds have dimension 1. In the boundary-MPS contraction
//! of a PEPS (paper Algorithm 2) the "physical" index is the open index that
//! points at the next, not yet absorbed, row of the PEPS.

use crate::mpo::Mpo;
use koala_error::KoalaError;
use koala_linalg::{c64, C64};
use koala_tensor::{tensordot, Tensor};
use rand::Rng;

use koala_error::Result;

/// A matrix product state: a chain of rank-3 tensors `[l, p, r]`.
#[derive(Debug, Clone)]
pub struct Mps {
    tensors: Vec<Tensor>,
}

impl Mps {
    /// Build from site tensors, validating ranks and bond matching.
    pub fn new(tensors: Vec<Tensor>) -> Result<Self> {
        if tensors.is_empty() {
            return Err(KoalaError::shape("Mps::new: empty chain"));
        }
        for (i, t) in tensors.iter().enumerate() {
            if t.ndim() != 3 {
                return Err(KoalaError::shape(format!(
                    "Mps::new: site {i} has rank {} (expected 3)",
                    t.ndim()
                )));
            }
        }
        if tensors[0].dim(0) != 1 || tensors[tensors.len() - 1].dim(2) != 1 {
            return Err(KoalaError::shape("Mps::new: boundary bonds must have dimension 1"));
        }
        for i in 0..tensors.len() - 1 {
            if tensors[i].dim(2) != tensors[i + 1].dim(0) {
                return Err(KoalaError::shape(format!(
                    "Mps::new: bond between sites {i} and {} does not match ({} vs {})",
                    i + 1,
                    tensors[i].dim(2),
                    tensors[i + 1].dim(0)
                )));
            }
        }
        Ok(Mps { tensors })
    }

    /// A product (bond-dimension-1) state with the given per-site vectors.
    pub fn product_state(site_vectors: &[Vec<C64>]) -> Result<Self> {
        let tensors = site_vectors
            .iter()
            .map(|v| Tensor::from_vec(&[1, v.len(), 1], v.clone()))
            .collect::<Result<Vec<_>>>()?;
        Mps::new(tensors)
    }

    /// The all-zeros computational basis state |00...0> with physical dimension `d`.
    pub fn computational_zeros(n_sites: usize, d: usize) -> Self {
        let mut v = vec![C64::ZERO; d];
        v[0] = C64::ONE;
        Mps::product_state(&vec![v; n_sites])
            .unwrap_or_else(|e| unreachable!("computational_zeros: invalid state: {e}"))
    }

    /// Random MPS with the given physical and (uniform) bond dimension.
    pub fn random<R: Rng + ?Sized>(
        n_sites: usize,
        phys_dim: usize,
        bond_dim: usize,
        rng: &mut R,
    ) -> Self {
        let mut tensors = Vec::with_capacity(n_sites);
        for i in 0..n_sites {
            let l = if i == 0 { 1 } else { bond_dim };
            let r = if i == n_sites - 1 { 1 } else { bond_dim };
            tensors.push(Tensor::random(&[l, phys_dim, r], rng));
        }
        Mps::new(tensors).unwrap_or_else(|e| unreachable!("random: construction cannot fail: {e}"))
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// True if the chain is empty (never the case for a valid MPS).
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Site tensors.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// One site tensor.
    pub fn tensor(&self, i: usize) -> &Tensor {
        &self.tensors[i]
    }

    /// Consume the chain, returning its site tensors.
    pub fn into_tensors(self) -> Vec<Tensor> {
        self.tensors
    }

    /// Replace one site tensor (bond consistency is the caller's concern).
    pub fn set_tensor(&mut self, i: usize, t: Tensor) {
        self.tensors[i] = t;
    }

    /// Physical dimensions of every site.
    pub fn phys_dims(&self) -> Vec<usize> {
        self.tensors.iter().map(|t| t.dim(1)).collect()
    }

    /// Bond dimensions between consecutive sites (length `len() - 1`).
    pub(crate) fn bond_dims(&self) -> Vec<usize> {
        self.tensors.iter().take(self.len() - 1).map(|t| t.dim(2)).collect()
    }

    /// Largest bond dimension.
    pub fn max_bond(&self) -> usize {
        self.bond_dims().into_iter().max().unwrap_or(1)
    }

    /// Total number of stored complex numbers.
    pub fn num_elements(&self) -> usize {
        self.tensors.iter().map(|t| t.len()).sum()
    }

    /// `<self|other>` (conjugating `self`).
    pub fn inner(&self, other: &Mps) -> Result<C64> {
        if self.len() != other.len() || self.phys_dims() != other.phys_dims() {
            return Err(KoalaError::shape("inner: incompatible MPS chains"));
        }
        // Environment E[ra, rb] carried left to right.
        let mut env = Tensor::ones(&[1, 1]);
        for (a, b) in self.tensors.iter().zip(other.tensors.iter()) {
            // env [ra, rb] * conj(a)[ra, p, ra'] -> [rb, p, ra']
            let step = tensordot(&env, &a.conj(), &[0], &[0])?;
            // step [rb, p, ra'] * b[rb, p, rb'] -> [ra', rb']
            env = tensordot(&step, b, &[0, 1], &[0, 1])?;
        }
        Ok(env.item())
    }

    /// Bilinear contraction `sum_phys self * other` (no conjugation). Used to
    /// close a boundary-MPS sweep from the top against one from the bottom,
    /// where all conjugations have already been baked into the tensors.
    pub fn dot(&self, other: &Mps) -> Result<C64> {
        if self.len() != other.len() || self.phys_dims() != other.phys_dims() {
            return Err(KoalaError::shape("dot: incompatible MPS chains"));
        }
        let mut env = Tensor::ones(&[1, 1]);
        for (a, b) in self.tensors.iter().zip(other.tensors.iter()) {
            let step = tensordot(&env, a, &[0], &[0])?; // [rb, p, ra']
            env = tensordot(&step, b, &[0, 1], &[0, 1])?; // [ra', rb']
        }
        Ok(env.item())
    }

    /// Exact closing `<top| mpo |bottom>` of a boundary sweep from above
    /// against one from below through the row MPO between them (bilinear, as
    /// [`Mps::dot`]). `None` is the lattice edge: the MPO's indices on that
    /// side must all have dimension 1, so a single-row network passes both.
    pub fn sandwich(top: Option<&Mps>, mpo: &Mpo, bottom: Option<&Mps>) -> Result<C64> {
        let dims = |m: Option<&Mps>| m.map_or_else(|| vec![1; mpo.len()], Mps::phys_dims);
        if dims(top) != mpo.up_dims() || dims(bottom) != mpo.down_dims() {
            return Err(KoalaError::shape("sandwich: environments and row MPO are incompatible"));
        }
        let edge = Tensor::ones(&[1, 1, 1]);
        // Environment E[a, w, b] (top, MPO and bottom bonds) carried left to right.
        let mut env = Tensor::ones(&[1, 1, 1]);
        for (i, o) in mpo.tensors().iter().enumerate() {
            let a = top.map_or(&edge, |m| m.tensor(i));
            let b = bottom.map_or(&edge, |m| m.tensor(i));
            let step = tensordot(&env, a, &[0], &[0])?; // [w, b, u, a']
            let step = tensordot(&step, o, &[0, 2], &[0, 1])?; // [b, a', d, w']
            env = tensordot(&step, b, &[0, 2], &[0, 1])?; // [a', w', b']
        }
        Ok(env.item())
    }

    /// 2-norm of the state.
    pub fn norm(&self) -> f64 {
        self.inner(self).map(|z| z.re.max(0.0).sqrt()).unwrap_or(0.0)
    }

    /// Multiply the state by a scalar (applied to the first site).
    pub fn scale(&mut self, s: C64) {
        self.tensors[0] = self.tensors[0].scale(s);
    }

    /// Contract an MPS whose physical dimensions are all 1 down to a scalar
    /// (the final step of the boundary contraction, Algorithm 2 line 5).
    pub fn contract_to_scalar(&self) -> Result<C64> {
        for (i, t) in self.tensors.iter().enumerate() {
            if t.dim(1) != 1 {
                return Err(KoalaError::shape(format!(
                    "contract_to_scalar: site {i} has physical dimension {} (expected 1)",
                    t.dim(1)
                )));
            }
        }
        let mut env = Tensor::ones(&[1]);
        for t in &self.tensors {
            let site = t.select(1, 0)?; // [l, r]
            env = tensordot(&env, &site, &[0], &[0])?; // [r]
        }
        Ok(env.item())
    }

    /// Contract the full chain into a dense state tensor with one axis per
    /// site (exponential in the number of sites; testing utility).
    pub fn to_dense(&self) -> Result<Tensor> {
        let mut acc = Tensor::ones(&[1]);
        for t in &self.tensors {
            // acc [p1..pk, r] * t [r, p, r'] -> [p1..pk, p, r']
            acc = tensordot(&acc, t, &[acc.ndim() - 1], &[0])?;
        }
        // Drop the trailing bond of dimension 1.
        let shape: Vec<usize> = acc.shape()[..acc.ndim() - 1].to_vec();
        acc.reshape(&shape)
    }

    /// Sample amplitude of a computational basis state (physical dimensions
    /// must cover the provided index). Testing / amplitude utility.
    pub fn amplitude(&self, bits: &[usize]) -> Result<C64> {
        if bits.len() != self.len() {
            return Err(KoalaError::shape("amplitude: wrong number of sites"));
        }
        let mut env = Tensor::ones(&[1]);
        for (t, &b) in self.tensors.iter().zip(bits.iter()) {
            let site = t.select(1, b)?; // [l, r]
            env = tensordot(&env, &site, &[0], &[0])?;
        }
        Ok(env.item())
    }
}

/// Build the `n`-site GHZ state (|0...0> + |1...1>)/sqrt(2) as an MPS with
/// bond dimension 2 (used by tests as a state with known entanglement).
pub fn ghz_state(n: usize) -> Mps {
    assert!(n >= 2);
    let amp = 1.0 / 2.0f64.sqrt();
    let mut tensors = Vec::with_capacity(n);
    for i in 0..n {
        let (l, r) = (if i == 0 { 1 } else { 2 }, if i == n - 1 { 1 } else { 2 });
        let mut t = Tensor::zeros(&[l, 2, r]);
        if i == 0 {
            t.set(&[0, 0, 0], c64(amp, 0.0));
            t.set(&[0, 1, 1], c64(amp, 0.0));
        } else if i == n - 1 {
            t.set(&[0, 0, 0], C64::ONE);
            t.set(&[1, 1, 0], C64::ONE);
        } else {
            t.set(&[0, 0, 0], C64::ONE);
            t.set(&[1, 1, 1], C64::ONE);
        }
        tensors.push(t);
    }
    Mps::new(tensors).unwrap_or_else(|e| unreachable!("ghz_state: construction cannot fail: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validation() {
        let ok = Mps::new(vec![Tensor::zeros(&[1, 2, 3]), Tensor::zeros(&[3, 2, 1])]);
        assert!(ok.is_ok());
        assert!(Mps::new(vec![]).is_err());
        assert!(Mps::new(vec![Tensor::zeros(&[1, 2])]).is_err());
        assert!(Mps::new(vec![Tensor::zeros(&[2, 2, 1])]).is_err(), "left boundary must be 1");
        assert!(
            Mps::new(vec![Tensor::zeros(&[1, 2, 3]), Tensor::zeros(&[2, 2, 1])]).is_err(),
            "bond mismatch"
        );
    }

    #[test]
    fn computational_zeros_amplitudes() {
        let mps = Mps::computational_zeros(4, 2);
        assert!((mps.norm() - 1.0).abs() < 1e-12);
        assert!(mps.amplitude(&[0, 0, 0, 0]).unwrap().approx_eq(C64::ONE, 1e-12));
        assert!(mps.amplitude(&[1, 0, 0, 0]).unwrap().approx_eq(C64::ZERO, 1e-12));
    }

    #[test]
    fn ghz_state_has_expected_amplitudes() {
        let g = ghz_state(5);
        assert!((g.norm() - 1.0).abs() < 1e-12);
        let amp = 1.0 / 2.0f64.sqrt();
        assert!(g.amplitude(&[0; 5]).unwrap().approx_eq(c64(amp, 0.0), 1e-12));
        assert!(g.amplitude(&[1; 5]).unwrap().approx_eq(c64(amp, 0.0), 1e-12));
        assert!(g.amplitude(&[1, 0, 0, 0, 0]).unwrap().approx_eq(C64::ZERO, 1e-12));
        assert_eq!(g.max_bond(), 2);
    }

    #[test]
    fn inner_product_matches_dense() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Mps::random(4, 2, 3, &mut rng);
        let b = Mps::random(4, 2, 3, &mut rng);
        let mps_inner = a.inner(&b).unwrap();
        let dense_inner = a.to_dense().unwrap().inner(&b.to_dense().unwrap()).unwrap();
        assert!(mps_inner.approx_eq(dense_inner, 1e-9));
    }

    #[test]
    fn sandwich_matches_exact_application_at_every_edge() {
        let mut rng = StdRng::seed_from_u64(7);
        let top = Mps::random(4, 3, 2, &mut rng);
        let bottom = Mps::random(4, 2, 3, &mut rng);
        let site = |i: usize, u: usize, d: usize, rng: &mut StdRng| {
            let (l, r) = (if i == 0 { 1 } else { 3 }, if i == 3 { 1 } else { 3 });
            Tensor::random(&[l, u, d, r], rng)
        };
        let mut mpo = |u, d| Mpo::new((0..4).map(|i| site(i, u, d, &mut rng)).collect()).unwrap();
        // Interior row: both environments.
        let inner = mpo(3, 2);
        let want = inner.apply_exact(&top).unwrap().dot(&bottom).unwrap();
        let got = Mps::sandwich(Some(&top), &inner, Some(&bottom)).unwrap();
        assert!(got.approx_eq(want, 1e-10 * want.abs().max(1.0)), "{got} vs {want}");
        // Last row, first row and a one-row lattice.
        let last = mpo(3, 1);
        let want = last.apply_exact(&top).unwrap().contract_to_scalar().unwrap();
        let got = Mps::sandwich(Some(&top), &last, None).unwrap();
        assert!(got.approx_eq(want, 1e-10 * want.abs().max(1.0)), "{got} vs {want}");
        let first = mpo(1, 2);
        let as_mps: Vec<Tensor> = first.tensors().iter().map(|t| t.select(1, 0).unwrap()).collect();
        let want = Mps::new(as_mps).unwrap().dot(&bottom).unwrap();
        let got = Mps::sandwich(None, &first, Some(&bottom)).unwrap();
        assert!(got.approx_eq(want, 1e-10 * want.abs().max(1.0)), "{got} vs {want}");
        let single = mpo(1, 1);
        let as_mps: Vec<Tensor> =
            single.tensors().iter().map(|t| t.select(1, 0).unwrap()).collect();
        let want = Mps::new(as_mps).unwrap().contract_to_scalar().unwrap();
        let got = Mps::sandwich(None, &single, None).unwrap();
        assert!(got.approx_eq(want, 1e-10 * want.abs().max(1.0)), "{got} vs {want}");
        // A missing environment where the MPO still has an open index is an error.
        assert!(Mps::sandwich(None, &inner, Some(&bottom)).is_err());
        assert!(Mps::sandwich(Some(&top), &inner, None).is_err());
        assert!(Mps::sandwich(Some(&bottom), &inner, Some(&bottom)).is_err());
    }

    #[test]
    fn contract_to_scalar_requires_trivial_physical_dims() {
        let mut rng = StdRng::seed_from_u64(5);
        let bad = Mps::random(3, 2, 2, &mut rng);
        assert!(bad.contract_to_scalar().is_err());
        let good = Mps::random(4, 1, 3, &mut rng);
        let via_scalar = good.contract_to_scalar().unwrap();
        let via_dense = good.to_dense().unwrap().item();
        assert!(via_scalar.approx_eq(via_dense, 1e-10));
    }

    #[test]
    fn scale_multiplies_norm() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut a = Mps::random(3, 2, 2, &mut rng);
        let n0 = a.norm();
        a.scale(c64(2.0, 0.0));
        assert!((a.norm() - 2.0 * n0).abs() < 1e-9);
    }
}

//! Matrix product operators.
//!
//! Site tensors use the axis convention `[left bond, up, down, right bond]`:
//! the `up` index contracts with the physical index of the MPS the operator is
//! applied to, and `down` becomes the new physical index. A PEPS row acting on
//! a boundary MPS (Algorithm 2) is exactly an MPO in this convention.

use crate::mps::Mps;
use koala_error::KoalaError;
use koala_error::Result;
use koala_tensor::{tensordot, Tensor};
use rand::Rng;

/// A matrix product operator: a chain of rank-4 tensors `[l, u, d, r]`.
#[derive(Debug, Clone)]
pub struct Mpo {
    tensors: Vec<Tensor>,
}

impl Mpo {
    /// Build from site tensors, validating ranks and bond matching.
    pub fn new(tensors: Vec<Tensor>) -> Result<Self> {
        if tensors.is_empty() {
            return Err(KoalaError::shape("Mpo::new: empty chain"));
        }
        for (i, t) in tensors.iter().enumerate() {
            if t.ndim() != 4 {
                return Err(KoalaError::shape(format!(
                    "Mpo::new: site {i} has rank {} (expected 4)",
                    t.ndim()
                )));
            }
        }
        if tensors[0].dim(0) != 1 || tensors[tensors.len() - 1].dim(3) != 1 {
            return Err(KoalaError::shape("Mpo::new: boundary bonds must have dimension 1"));
        }
        for i in 0..tensors.len() - 1 {
            if tensors[i].dim(3) != tensors[i + 1].dim(0) {
                return Err(KoalaError::shape(format!(
                    "Mpo::new: bond mismatch between sites {i} and {}",
                    i + 1
                )));
            }
        }
        Ok(Mpo { tensors })
    }

    /// Identity operator with the given per-site physical dimensions.
    pub fn identity(phys_dims: &[usize]) -> Self {
        let tensors = phys_dims
            .iter()
            .map(|&d| {
                let eye = Tensor::eye(d);
                eye.reshape(&[1, d, d, 1]).unwrap_or_else(|e| unreachable!("identity reshape: {e}"))
            })
            .collect();
        Mpo::new(tensors)
            .unwrap_or_else(|e| unreachable!("identity: construction cannot fail: {e}"))
    }

    /// Random MPO with uniform physical and bond dimensions.
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
            tensors.push(Tensor::random(&[l, phys_dim, phys_dim, r], rng));
        }
        Mpo::new(tensors).unwrap_or_else(|e| unreachable!("random: construction cannot fail: {e}"))
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// True if the chain is empty (never for a valid MPO).
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

    /// Input (up) physical dimensions.
    pub(crate) fn up_dims(&self) -> Vec<usize> {
        self.tensors.iter().map(|t| t.dim(1)).collect()
    }

    /// Output (down) physical dimensions.
    pub(crate) fn down_dims(&self) -> Vec<usize> {
        self.tensors.iter().map(|t| t.dim(2)).collect()
    }

    /// Largest bond dimension.
    pub fn max_bond(&self) -> usize {
        self.tensors.iter().take(self.len() - 1).map(|t| t.dim(3)).max().unwrap_or(1)
    }

    /// Apply the operator to an MPS exactly: bond dimensions multiply.
    pub fn apply_exact(&self, mps: &Mps) -> Result<Mps> {
        if self.len() != mps.len() || self.up_dims() != mps.phys_dims() {
            return Err(KoalaError::shape("apply_exact: MPO and MPS are incompatible"));
        }
        let mut out = Vec::with_capacity(self.len());
        for (o, s) in self.tensors.iter().zip(mps.tensors().iter()) {
            // s [l, p, r] * o [lo, p, d, ro] -> [l, r, lo, d, ro]
            let t = tensordot(s, o, &[1], &[1])?;
            // -> [l, lo, d, r, ro] -> [(l*lo), d, (r*ro)]
            let t = t.permute(&[0, 2, 3, 1, 4])?;
            let (l, lo, d, r, ro) = (t.dim(0), t.dim(1), t.dim(2), t.dim(3), t.dim(4));
            out.push(t.into_reshape(&[l * lo, d, r * ro])?);
        }
        Mps::new(out)
    }

    /// Contract the full operator into a dense matrix acting on the tensor
    /// product of the `up` spaces (exponential; testing utility).
    pub fn to_dense(&self) -> Result<Tensor> {
        // Accumulate a tensor [u1..uk, d1..dk, r].
        let mut acc = Tensor::ones(&[1]);
        let mut n_sites = 0usize;
        #[allow(clippy::explicit_counter_loop)] // n_sites doubles as axis bookkeeping below
        for t in &self.tensors {
            // acc [u.., d.., r] * t [r, u, d, r'] -> [u.., d.., u, d, r']
            acc = tensordot(&acc, t, &[acc.ndim() - 1], &[0])?;
            n_sites += 1;
            // Reorder so all `u` axes come first, then all `d`, then the bond.
            // Current layout: [u1..u_{k-1}, d1..d_{k-1}, u_k, d_k, r'].
            let k = n_sites;
            let mut perm: Vec<usize> = (0..k - 1).collect(); // existing u's
            perm.push(2 * (k - 1)); // new u
            perm.extend(k - 1..2 * (k - 1)); // existing d's
            perm.push(2 * (k - 1) + 1); // new d
            perm.push(2 * (k - 1) + 2); // bond
            acc = acc.permute(&perm)?;
        }
        let shape: Vec<usize> = acc.shape()[..acc.ndim() - 1].to_vec();
        acc.reshape(&shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koala_linalg::C64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validation() {
        assert!(Mpo::new(vec![]).is_err());
        assert!(Mpo::new(vec![Tensor::zeros(&[1, 2, 2, 1])]).is_ok());
        assert!(Mpo::new(vec![Tensor::zeros(&[1, 2, 2])]).is_err());
        assert!(Mpo::new(vec![Tensor::zeros(&[2, 2, 2, 1])]).is_err());
        assert!(Mpo::new(vec![Tensor::zeros(&[1, 2, 2, 3]), Tensor::zeros(&[2, 2, 2, 1])]).is_err());
    }

    #[test]
    fn identity_mpo_preserves_states() {
        let mut rng = StdRng::seed_from_u64(1);
        let mps = Mps::random(4, 2, 3, &mut rng);
        let id = Mpo::identity(&[2, 2, 2, 2]);
        let applied = id.apply_exact(&mps).unwrap();
        assert!(applied.to_dense().unwrap().approx_eq(&mps.to_dense().unwrap(), 1e-10));
    }

    #[test]
    fn apply_exact_matches_dense_application() {
        let mut rng = StdRng::seed_from_u64(2);
        let mps = Mps::random(3, 2, 3, &mut rng);
        let mpo = Mpo::random(3, 2, 2, &mut rng);
        let applied = mpo.apply_exact(&mps).unwrap();

        // Dense check: O |psi> with O reshaped to a matrix.
        let dense_op = mpo.to_dense().unwrap(); // [u1,u2,u3, d1,d2,d3]
        let dense_in = mps.to_dense().unwrap(); // [p1,p2,p3]
        let expected = tensordot(&dense_op, &dense_in, &[0, 1, 2], &[0, 1, 2]).unwrap();
        assert!(applied.to_dense().unwrap().approx_eq(&expected, 1e-9));
        // Bond dimensions multiplied.
        assert_eq!(applied.max_bond(), mps.max_bond() * mpo.max_bond());
    }

    #[test]
    fn apply_exact_rejects_incompatible_chains() {
        let mut rng = StdRng::seed_from_u64(3);
        let mps = Mps::random(3, 2, 2, &mut rng);
        let mpo = Mpo::random(4, 2, 2, &mut rng);
        assert!(mpo.apply_exact(&mps).is_err());
        let mpo3 = Mpo::random(3, 3, 2, &mut rng);
        assert!(mpo3.apply_exact(&mps).is_err());
    }

    #[test]
    fn identity_to_dense_is_identity_matrix() {
        let id = Mpo::identity(&[2, 2]);
        let dense = id.to_dense().unwrap(); // [u1,u2,d1,d2]
        let m = dense.unfold(2);
        assert!(m.approx_eq(&koala_linalg::Matrix::identity(4), 1e-12));
        let _ = C64::ZERO;
    }
}

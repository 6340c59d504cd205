//! The PEPS (projected entangled pair state) data structure.
//!
//! A PEPS is an `nrows x ncols` grid of rank-5 site tensors with axis
//! convention `[p, u, l, d, r]`: physical index, then the bonds to the site
//! above, to the left, below, and to the right. Bonds that stick out of the
//! lattice have dimension 1. This matches the layout used by the original
//! Koala library (a dictionary of site tensors keyed by grid position).

use koala_error::KoalaError;
use koala_linalg::{Matrix, C64};
use koala_tensor::{tensordot, Tensor};
use rand::Rng;

/// Axis index of the physical leg.
pub(crate) const AX_P: usize = 0;
/// Axis index of the bond to the site above.
pub(crate) const AX_U: usize = 1;
/// Axis index of the bond to the site on the left.
pub(crate) const AX_L: usize = 2;
/// Axis index of the bond to the site below.
pub(crate) const AX_D: usize = 3;
/// Axis index of the bond to the site on the right.
pub(crate) const AX_R: usize = 4;

use koala_error::Result;

/// A grid position `(row, col)`.
pub type Site = (usize, usize);

/// Direction from one site to a neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Neighbour one row up.
    Up,
    /// Neighbour one column to the left.
    Left,
    /// Neighbour one row down.
    Down,
    /// Neighbour one column to the right.
    Right,
}

impl Direction {
    /// The axis of the site tensor associated with this direction.
    pub fn axis(self) -> usize {
        match self {
            Direction::Up => AX_U,
            Direction::Left => AX_L,
            Direction::Down => AX_D,
            Direction::Right => AX_R,
        }
    }

    /// The opposite direction (axis on the neighbouring tensor).
    pub(crate) fn opposite(self) -> Direction {
        match self {
            Direction::Up => Direction::Down,
            Direction::Left => Direction::Right,
            Direction::Down => Direction::Up,
            Direction::Right => Direction::Left,
        }
    }
}

/// A projected entangled pair state on a rectangular lattice.
#[derive(Debug, Clone)]
pub struct Peps {
    nrows: usize,
    ncols: usize,
    /// Row-major grid of site tensors `[p, u, l, d, r]`.
    tensors: Vec<Tensor>,
}

impl Peps {
    /// Build from a row-major vector of site tensors, validating shapes.
    pub fn new(nrows: usize, ncols: usize, tensors: Vec<Tensor>) -> Result<Self> {
        if nrows == 0 || ncols == 0 {
            return Err(KoalaError::shape("Peps::new: empty lattice"));
        }
        if tensors.len() != nrows * ncols {
            return Err(KoalaError::shape(format!(
                "Peps::new: {} tensors for a {}x{} lattice",
                tensors.len(),
                nrows,
                ncols
            )));
        }
        let peps = Peps { nrows, ncols, tensors };
        peps.validate()?;
        Ok(peps)
    }

    fn validate(&self) -> Result<()> {
        for r in 0..self.nrows {
            for c in 0..self.ncols {
                let t = self.tensor((r, c));
                if t.ndim() != 5 {
                    return Err(KoalaError::shape(format!(
                        "site ({r},{c}) has rank {} (expected 5)",
                        t.ndim()
                    )));
                }
                if r == 0 && t.dim(AX_U) != 1 {
                    return Err(KoalaError::shape(format!(
                        "site ({r},{c}): top boundary bond must be 1"
                    )));
                }
                if r == self.nrows - 1 && t.dim(AX_D) != 1 {
                    return Err(KoalaError::shape(format!(
                        "site ({r},{c}): bottom boundary bond must be 1"
                    )));
                }
                if c == 0 && t.dim(AX_L) != 1 {
                    return Err(KoalaError::shape(format!(
                        "site ({r},{c}): left boundary bond must be 1"
                    )));
                }
                if c == self.ncols - 1 && t.dim(AX_R) != 1 {
                    return Err(KoalaError::shape(format!(
                        "site ({r},{c}): right boundary bond must be 1"
                    )));
                }
                if c + 1 < self.ncols && t.dim(AX_R) != self.tensor((r, c + 1)).dim(AX_L) {
                    return Err(KoalaError::shape(format!(
                        "horizontal bond mismatch at ({r},{c})-({r},{})",
                        c + 1
                    )));
                }
                if r + 1 < self.nrows && t.dim(AX_D) != self.tensor((r + 1, c)).dim(AX_U) {
                    return Err(KoalaError::shape(format!(
                        "vertical bond mismatch at ({r},{c})-({},{c})",
                        r + 1
                    )));
                }
            }
        }
        Ok(())
    }

    /// Product state with each site in the given single-site state vector.
    pub fn product_state(nrows: usize, ncols: usize, site_vector: &[C64]) -> Result<Self> {
        let d = site_vector.len();
        let mut site = Tensor::from_vec(&[d, 1, 1, 1, 1], site_vector.to_vec())?;
        // One-time O(d) scan so real product states (|0...0>, TFI initial
        // states) enter the evolution with the realness hint set.
        site.mark_real_if_exact();
        Peps::new(nrows, ncols, vec![site; nrows * ncols])
    }

    /// The all-zeros computational basis state |0...0> with physical dimension 2
    /// (the `computational_zeros` constructor of the paper's example listing).
    pub fn computational_zeros(nrows: usize, ncols: usize) -> Self {
        Peps::product_state(nrows, ncols, &[C64::ONE, C64::ZERO])
            .unwrap_or_else(|_| unreachable!("computational_zeros: construction cannot fail"))
    }

    /// Random PEPS with uniform physical and bond dimension.
    pub fn random<R: Rng + ?Sized>(
        nrows: usize,
        ncols: usize,
        phys_dim: usize,
        bond_dim: usize,
        rng: &mut R,
    ) -> Self {
        let mut tensors = Vec::with_capacity(nrows * ncols);
        for r in 0..nrows {
            for c in 0..ncols {
                let u = if r == 0 { 1 } else { bond_dim };
                let d = if r == nrows - 1 { 1 } else { bond_dim };
                let l = if c == 0 { 1 } else { bond_dim };
                let rt = if c == ncols - 1 { 1 } else { bond_dim };
                tensors.push(Tensor::random(&[phys_dim, u, l, d, rt], rng));
            }
        }
        Peps::new(nrows, ncols, tensors)
            .unwrap_or_else(|_| unreachable!("random: construction cannot fail"))
    }

    /// Random PEPS without physical indices (physical dimension 1), as used by
    /// the contraction benchmarks of Figure 8 where a one-layer network is
    /// generated directly.
    pub fn random_no_phys<R: Rng + ?Sized>(
        nrows: usize,
        ncols: usize,
        bond_dim: usize,
        rng: &mut R,
    ) -> Self {
        Peps::random(nrows, ncols, 1, bond_dim, rng)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.nrows * self.ncols
    }

    /// Linear (row-major) index of a site.
    pub(crate) fn site_index(&self, (r, c): Site) -> usize {
        debug_assert!(r < self.nrows && c < self.ncols);
        r * self.ncols + c
    }

    /// Borrow one site tensor.
    pub fn tensor(&self, site: Site) -> &Tensor {
        &self.tensors[self.site_index(site)]
    }

    /// Replace one site tensor (the caller is responsible for bond consistency;
    /// `validate` can be re-run in debug builds).
    pub fn set_tensor(&mut self, site: Site, t: Tensor) {
        let idx = self.site_index(site);
        self.tensors[idx] = t;
    }

    /// All site tensors, row-major.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// All site tensors, row-major, for the gate-list engine to update in
    /// place (`update::apply_gates`).
    pub(crate) fn tensors_mut(&mut self) -> &mut [Tensor] {
        &mut self.tensors
    }

    /// Physical dimension of a site.
    pub fn phys_dim(&self, site: Site) -> usize {
        self.tensor(site).dim(AX_P)
    }

    /// Largest bond dimension anywhere in the network.
    pub fn max_bond(&self) -> usize {
        let mut m = 1;
        for r in 0..self.nrows {
            for c in 0..self.ncols {
                let t = self.tensor((r, c));
                m = m.max(t.dim(AX_D)).max(t.dim(AX_R));
            }
        }
        m
    }

    /// Total number of stored complex numbers.
    pub fn num_elements(&self) -> usize {
        self.tensors.iter().map(|t| t.len()).sum()
    }

    /// Neighbour of a site in a direction, if it exists.
    pub(crate) fn neighbor(&self, (r, c): Site, dir: Direction) -> Option<Site> {
        match dir {
            Direction::Up if r > 0 => Some((r - 1, c)),
            Direction::Down if r + 1 < self.nrows => Some((r + 1, c)),
            Direction::Left if c > 0 => Some((r, c - 1)),
            Direction::Right if c + 1 < self.ncols => Some((r, c + 1)),
            _ => None,
        }
    }

    /// Direction from `a` to `b` if they are nearest neighbours.
    pub(crate) fn direction_between(&self, a: Site, b: Site) -> Option<Direction> {
        [Direction::Up, Direction::Down, Direction::Left, Direction::Right]
            .into_iter()
            .find(|&dir| self.neighbor(a, dir) == Some(b))
    }

    /// All horizontal nearest-neighbour pairs (left site first).
    pub fn horizontal_pairs(&self) -> Vec<(Site, Site)> {
        let mut pairs = Vec::new();
        for r in 0..self.nrows {
            for c in 0..self.ncols - 1 {
                pairs.push(((r, c), (r, c + 1)));
            }
        }
        pairs
    }

    /// All vertical nearest-neighbour pairs (upper site first).
    pub fn vertical_pairs(&self) -> Vec<(Site, Site)> {
        let mut pairs = Vec::new();
        for r in 0..self.nrows - 1 {
            for c in 0..self.ncols {
                pairs.push(((r, c), (r + 1, c)));
            }
        }
        pairs
    }

    /// Multiply the state by a scalar (absorbed into the first site tensor).
    pub fn scale(&mut self, s: C64) {
        self.tensors[0] = self.tensors[0].scale(s);
    }

    /// Element-wise complex conjugate of every site tensor.
    pub fn conj(&self) -> Peps {
        Peps {
            nrows: self.nrows,
            ncols: self.ncols,
            tensors: self.tensors.iter().map(|t| t.conj()).collect(),
        }
    }

    /// Exact contraction into a dense state tensor with one physical axis per
    /// site, in row-major site order. Exponential cost — only for small
    /// lattices (used by tests and as the "state vector" reference).
    pub fn to_dense(&self) -> Result<Tensor> {
        // Contract row by row. `row_acc` for a single row has axes
        // [p_0..p_{c}, d_0..d_{c}, right_bond] after absorbing column c.
        let mut rows_dense: Vec<Tensor> = Vec::with_capacity(self.nrows);
        for r in 0..self.nrows {
            let mut acc: Option<Tensor> = None;
            for c in 0..self.ncols {
                // Site [p, u, l, d, r] with u contracted later; reorder to
                // [l, p, u, d, r] so the chain contraction is uniform.
                let site = self.tensor((r, c)).permute(&[AX_L, AX_P, AX_U, AX_D, AX_R])?;
                acc = Some(match acc {
                    None => {
                        // Drop the leading left bond of dimension 1.
                        let shape: Vec<usize> = site.shape()[1..].to_vec();
                        site.reshape(&shape)?
                    }
                    Some(prev) => {
                        // prev [.., r_prev], site [l, p, u, d, r]
                        tensordot(&prev, &site, &[prev.ndim() - 1], &[0])?
                    }
                });
            }
            // acc axes: [p0, u0, d0, p1, u1, d1, ..., r_last(=1)]
            let acc = acc.unwrap_or_else(|| unreachable!("a PEPS has at least one column"));
            let shape: Vec<usize> = acc.shape()[..acc.ndim() - 1].to_vec();
            rows_dense.push(acc.reshape(&shape)?);
        }

        // Now contract rows vertically. Each dense row has interleaved axes
        // (p, u, d) per column. Maintain an accumulated tensor with axes
        // [phys... (all absorbed rows), d_0..d_{ncols-1} (open bottom bonds)].
        let mut acc: Option<Tensor> = None;
        for (r, row) in rows_dense.into_iter().enumerate() {
            // Bring the row to axes [u_0..u_c, p_0..p_c, d_0..d_c].
            let ncols = self.ncols;
            let mut perm = Vec::with_capacity(3 * ncols);
            for block in [1usize, 0, 2] {
                for c in 0..ncols {
                    perm.push(3 * c + block);
                }
            }
            let row = row.permute(&perm)?;
            acc = Some(match acc {
                None => {
                    // Top row: upper bonds are all 1; drop them.
                    let shape: Vec<usize> = row.shape()[ncols..].to_vec();
                    row.reshape(&shape)?
                }
                Some(prev) => {
                    // prev [..phys.., d_0..d_c]; contract d's with row's u's.
                    let nd = prev.ndim();
                    let axes_prev: Vec<usize> = (nd - ncols..nd).collect();
                    let axes_row: Vec<usize> = (0..ncols).collect();
                    tensordot(&prev, &row, &axes_prev, &axes_row)?
                }
            });
            let _ = r;
        }
        // Bottom bonds are all of dimension 1; drop them.
        let acc = acc.unwrap_or_else(|| unreachable!("a PEPS has at least one row"));
        let shape: Vec<usize> = acc.shape()[..acc.ndim() - self.ncols].to_vec();
        acc.reshape(&shape)
    }

    /// Exact norm squared `<psi|psi>` via dense contraction (testing utility).
    pub fn norm_sqr_dense(&self) -> Result<f64> {
        let dense = self.to_dense()?;
        Ok(dense.inner(&dense)?.re)
    }

    /// Project the physical index of every site onto a basis state, producing
    /// a PEPS without physical indices (physical dimension 1). This is how an
    /// amplitude `<i|psi>` becomes a one-layer contraction.
    pub fn project_onto_basis(&self, bits: &[usize]) -> Result<Peps> {
        self.check_basis_state(bits)?;
        let mut tensors = Vec::with_capacity(self.num_sites());
        for (t, &b) in self.tensors.iter().zip(bits.iter()) {
            let projected = t.select(AX_P, b)?; // [u, l, d, r]
            let shape = projected.shape().to_vec();
            let mut new_shape = vec![1];
            new_shape.extend(shape);
            tensors.push(projected.reshape(&new_shape)?);
        }
        Peps::new(self.nrows, self.ncols, tensors)
    }

    /// `bits` names a basis state of this PEPS: one value per site, in
    /// row-major order, each below the site's physical dimension.
    pub(crate) fn check_basis_state(&self, bits: &[usize]) -> Result<()> {
        if bits.len() != self.num_sites() {
            return Err(KoalaError::shape("project_onto_basis: wrong number of bits"));
        }
        match self.tensors.iter().zip(bits).find(|(t, &b)| b >= t.dim(AX_P)) {
            Some((_, b)) => Err(KoalaError::invalid(format!(
                "project_onto_basis: bit value {b} exceeds physical dim"
            ))),
            None => Ok(()),
        }
    }

    /// Merge this PEPS (as the ket) with the conjugate of `bra` into a
    /// one-layer PEPS without physical indices whose exact contraction equals
    /// `<bra|self>`. Bond dimensions multiply — this is the "naive" two-layer
    /// handling the paper describes in §III-B2.
    pub fn merge_with_bra(&self, bra: &Peps) -> Result<Peps> {
        if self.nrows != bra.nrows || self.ncols != bra.ncols {
            return Err(KoalaError::shape("merge_with_bra: lattice shapes differ"));
        }
        let tensors = self
            .tensors
            .iter()
            .zip(bra.tensors.iter())
            .map(|(ket, bra_t)| merge_site_pair(bra_t, ket))
            .collect::<Result<Vec<_>>>()?;
        Peps::new(self.nrows, self.ncols, tensors)
    }
}

/// Merge a bra site (conjugated) with a ket site over the physical index into
/// one site `[1, u_pair, l_pair, d_pair, r_pair]` of the one-layer network.
pub(crate) fn merge_site_pair(bra_site: &Tensor, ket_site: &Tensor) -> Result<Tensor> {
    if bra_site.dim(AX_P) != ket_site.dim(AX_P) {
        return Err(KoalaError::shape("merge_site_pair: physical dimensions differ"));
    }
    // conj(bra)[p, ub, lb, db, rb] x ket[p, uk, lk, dk, rk] over p, then the
    // bond pairs interleaved: [ub, uk, lb, lk, db, dk, rb, rk].
    let pair =
        tensordot(&bra_site.conj(), ket_site, &[0], &[0])?.permute(&[0, 4, 1, 5, 2, 6, 3, 7])?;
    let s = pair.shape().to_vec();
    pair.into_reshape(&[1, s[0] * s[1], s[2] * s[3], s[4] * s[5], s[6] * s[7]])
}

/// Build a Matrix view of a one-site gate acting on physical dimension `d`
/// (helper shared by update and expectation code).
pub(crate) fn check_one_site_gate(gate: &Matrix, d: usize) -> Result<()> {
    if gate.shape() != (d, d) {
        return Err(KoalaError::shape(format!(
            "one-site gate must be {d}x{d}, got {:?}",
            gate.shape()
        )));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use koala_linalg::c64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A random tensor, real-hinted when `real`.
    pub(crate) fn random_tensor(shape: &[usize], real: bool, rng: &mut StdRng) -> Tensor {
        if real {
            Tensor::random_real(shape, rng)
        } else {
            Tensor::random(shape, rng)
        }
    }

    /// `got` equals `want` in shape, realness hint and every bit.
    pub(crate) fn assert_same_bits(got: &Tensor, want: &Tensor) {
        let bits = |t: &Tensor| {
            t.data().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!((got.shape(), got.is_real()), (want.shape(), want.is_real()));
        assert_eq!(bits(got), bits(want));
    }

    #[test]
    fn merge_site_pair_is_the_einsum_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(40);
        for (bra_real, ket_real) in [(false, false), (true, true), (true, false)] {
            let bra = random_tensor(&[2, 3, 1, 4, 2], bra_real, &mut rng);
            let ket = random_tensor(&[2, 2, 3, 1, 5], ket_real, &mut rng);
            let pair = koala_tensor::einsum("pabcd,pefgh->aebfcgdh", &[&bra.conj(), &ket]).unwrap();
            let s = pair.shape().to_vec();
            let want = pair
                .into_reshape(&[1, s[0] * s[1], s[2] * s[3], s[4] * s[5], s[6] * s[7]])
                .unwrap();
            assert_same_bits(&merge_site_pair(&bra, &ket).unwrap(), &want);
        }
    }

    #[test]
    fn construction_and_validation() {
        let p = Peps::computational_zeros(2, 3);
        assert_eq!(p.nrows(), 2);
        assert_eq!(p.ncols(), 3);
        assert_eq!(p.num_sites(), 6);
        assert_eq!(p.max_bond(), 1);
        assert!(Peps::new(0, 2, vec![]).is_err());
        assert!(Peps::new(1, 1, vec![Tensor::zeros(&[2, 1, 1, 1])]).is_err());
        // Bond mismatch.
        let bad = vec![Tensor::zeros(&[2, 1, 1, 1, 3]), Tensor::zeros(&[2, 1, 2, 1, 1])];
        assert!(Peps::new(1, 2, bad).is_err());
        // Boundary bond not 1.
        assert!(Peps::new(1, 1, vec![Tensor::zeros(&[2, 1, 1, 1, 2])]).is_err());
    }

    #[test]
    fn site_indexing_roundtrip() {
        let p = Peps::computational_zeros(3, 4);
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(p.site_index((r, c)), r * 4 + c);
            }
        }
    }

    #[test]
    fn neighbors_and_directions() {
        let p = Peps::computational_zeros(3, 3);
        assert_eq!(p.neighbor((1, 1), Direction::Up), Some((0, 1)));
        assert_eq!(p.neighbor((0, 1), Direction::Up), None);
        assert_eq!(p.neighbor((1, 1), Direction::Right), Some((1, 2)));
        assert_eq!(p.direction_between((1, 1), (1, 2)), Some(Direction::Right));
        assert_eq!(p.direction_between((1, 1), (2, 1)), Some(Direction::Down));
        assert_eq!(p.direction_between((1, 1), (2, 2)), None);
        assert_eq!(p.horizontal_pairs().len(), 6);
        assert_eq!(p.vertical_pairs().len(), 6);
        assert_eq!(Direction::Left.opposite(), Direction::Right);
        assert_eq!(Direction::Up.axis(), AX_U);
    }

    #[test]
    fn computational_zeros_dense_representation() {
        let p = Peps::computational_zeros(2, 2);
        let dense = p.to_dense().unwrap();
        assert_eq!(dense.shape(), &[2, 2, 2, 2]);
        assert!(dense.get(&[0, 0, 0, 0]).approx_eq(C64::ONE, 1e-12));
        assert!((dense.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_peps_dense_norm_matches() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = Peps::random(2, 3, 2, 2, &mut rng);
        assert_eq!(p.max_bond(), 2);
        let n = p.norm_sqr_dense().unwrap();
        assert!(n > 0.0);
    }

    #[test]
    fn projection_gives_amplitude_network() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = Peps::random(2, 2, 2, 2, &mut rng);
        let dense = p.to_dense().unwrap();
        let bits = [1usize, 0, 0, 1];
        let projected = p.project_onto_basis(&bits).unwrap();
        // The projected network contracts to the amplitude.
        let amp = projected.to_dense().unwrap().item();
        assert!(amp.approx_eq(dense.get(&bits), 1e-10));
        assert!(p.project_onto_basis(&[0, 0]).is_err());
        assert!(p.project_onto_basis(&[5, 0, 0, 0]).is_err());
    }

    #[test]
    fn merged_bra_ket_contracts_to_inner_product() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Peps::random(2, 2, 2, 2, &mut rng);
        let b = Peps::random(2, 2, 2, 2, &mut rng);
        let merged = b.merge_with_bra(&a).unwrap();
        assert_eq!(merged.phys_dim((0, 0)), 1);
        assert_eq!(merged.max_bond(), 4);
        let got = merged.to_dense().unwrap().item();
        let want = a.to_dense().unwrap().inner(&b.to_dense().unwrap()).unwrap();
        assert!(got.approx_eq(want, 1e-9), "{got} vs {want}");
    }

    #[test]
    fn scale_and_conj() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = Peps::random(2, 2, 2, 2, &mut rng);
        let before = p.to_dense().unwrap();
        p.scale(c64(0.0, 2.0));
        let after = p.to_dense().unwrap();
        assert!(after.approx_eq(&before.scale(c64(0.0, 2.0)), 1e-10));
        let conj = p.conj().to_dense().unwrap();
        assert!(conj.approx_eq(&after.conj(), 1e-10));
    }
}

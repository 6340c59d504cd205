//! Exact state-vector simulator.
//!
//! Stores the full `2^n` amplitude vector of an `nrows x ncols` qubit lattice
//! (row-major site ordering, site 0 most significant — the same convention as
//! `Peps::to_dense`). Used as the "state vector" reference of Figures 13 and
//! 14 and to validate the PEPS algorithms on small lattices.

use koala_error::{KoalaError, ResultExt};
use koala_linalg::{lanczos_ground_state, HermitianOp, Matrix, C64};
use koala_peps::operators::{LocalTerm, Observable};
use koala_peps::Site;
use rand::Rng;

use koala_error::Result;

/// Full state-vector representation of a lattice of qubits.
#[derive(Debug, Clone)]
pub struct StateVector {
    nrows: usize,
    ncols: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// |00...0> on an `nrows x ncols` lattice.
    pub fn computational_zeros(nrows: usize, ncols: usize) -> Self {
        let n = nrows * ncols;
        assert!(n <= 26, "state vector limited to 26 qubits");
        let mut amps = vec![C64::ZERO; 1 << n];
        amps[0] = C64::ONE;
        StateVector { nrows, ncols, amps }
    }

    /// Build from raw amplitudes (length must be `2^(nrows*ncols)`).
    pub fn from_amplitudes(nrows: usize, ncols: usize, amps: Vec<C64>) -> Result<Self> {
        if amps.len() != 1 << (nrows * ncols) {
            return Err(KoalaError::shape(format!(
                "from_amplitudes: got {} amplitudes for {} qubits",
                amps.len(),
                nrows * ncols
            )));
        }
        Ok(StateVector { nrows, ncols, amps })
    }

    /// Random normalised state.
    pub fn random<R: Rng + ?Sized>(nrows: usize, ncols: usize, rng: &mut R) -> Self {
        let n = nrows * ncols;
        let mut amps: Vec<C64> = (0..1usize << n)
            .map(|_| koala_linalg::c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let norm = amps.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        amps.iter_mut().for_each(|z| *z = z.scale(1.0 / norm));
        StateVector { nrows, ncols, amps }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.nrows * self.ncols
    }

    /// Lattice shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Raw amplitudes in row-major site ordering (site 0 most significant).
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Linear qubit index of a lattice site.
    pub(crate) fn qubit_index(&self, (r, c): Site) -> usize {
        r * self.ncols + c
    }

    /// Norm of the state.
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Normalise in place.
    pub(crate) fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            let inv = 1.0 / n;
            self.amps.iter_mut().for_each(|z| *z = z.scale(inv));
        }
    }

    /// Inner product `<self|other>`.
    pub fn inner(&self, other: &StateVector) -> C64 {
        assert_eq!(self.amps.len(), other.amps.len());
        self.amps.iter().zip(other.amps.iter()).map(|(a, b)| a.conj() * *b).sum()
    }

    /// Amplitude of a computational basis state given one bit per site
    /// (row-major order).
    pub fn amplitude(&self, bits: &[usize]) -> C64 {
        assert_eq!(bits.len(), self.num_qubits());
        let mut idx = 0usize;
        for &b in bits {
            idx = (idx << 1) | (b & 1);
        }
        self.amps[idx]
    }

    /// Apply a one-qubit gate to `site`.
    pub fn apply_one_site(&mut self, gate: &Matrix, site: Site) {
        let q = self.qubit_index(site);
        let n = self.num_qubits();
        let stride = 1usize << (n - 1 - q);
        let g = [gate[(0, 0)], gate[(0, 1)], gate[(1, 0)], gate[(1, 1)]];
        let len = self.amps.len();
        let mut base = 0;
        while base < len {
            for offset in 0..stride {
                let i0 = base + offset;
                let i1 = i0 + stride;
                let a0 = self.amps[i0];
                let a1 = self.amps[i1];
                self.amps[i0] = g[0] * a0 + g[1] * a1;
                self.amps[i1] = g[2] * a0 + g[3] * a1;
            }
            base += stride * 2;
        }
    }

    /// Apply a two-qubit gate to `(site_a, site_b)` with `site_a` as the most
    /// significant subsystem of the `4x4` gate.
    pub fn apply_two_site(&mut self, gate: &Matrix, site_a: Site, site_b: Site) {
        let qa = self.qubit_index(site_a);
        let qb = self.qubit_index(site_b);
        assert_ne!(qa, qb, "two-site gate requires distinct sites");
        let n = self.num_qubits();
        let sa = 1usize << (n - 1 - qa);
        let sb = 1usize << (n - 1 - qb);
        let len = self.amps.len();
        for idx in 0..len {
            // Process each basis group exactly once: when both target bits are 0.
            if idx & sa != 0 || idx & sb != 0 {
                continue;
            }
            let i00 = idx;
            let i01 = idx | sb;
            let i10 = idx | sa;
            let i11 = idx | sa | sb;
            let v = [self.amps[i00], self.amps[i01], self.amps[i10], self.amps[i11]];
            for (row, &target) in [i00, i01, i10, i11].iter().enumerate() {
                let mut acc = C64::ZERO;
                for col in 0..4 {
                    acc = acc.mul_add(gate[(row, col)], v[col]);
                }
                self.amps[target] = acc;
            }
        }
    }

    /// `H |psi>` for an observable given as a sum of local terms.
    pub(crate) fn apply_observable(&self, obs: &Observable) -> StateVector {
        let mut out = StateVector {
            nrows: self.nrows,
            ncols: self.ncols,
            amps: vec![C64::ZERO; self.amps.len()],
        };
        for term in obs.terms() {
            let mut tmp = self.clone();
            match term {
                LocalTerm::OneSite { site, matrix } => tmp.apply_one_site(matrix, *site),
                LocalTerm::TwoSite { site_a, site_b, matrix } => {
                    tmp.apply_two_site(matrix, *site_a, *site_b)
                }
            }
            for (o, t) in out.amps.iter_mut().zip(tmp.amps.iter()) {
                *o += *t;
            }
        }
        out
    }

    /// `<psi|H|psi> / <psi|psi>`.
    pub fn expectation(&self, obs: &Observable) -> f64 {
        let h_psi = self.apply_observable(obs);
        let num = self.inner(&h_psi);
        let den = self.inner(self);
        (num / den).re
    }

    /// Ground-state energy of an observable on this lattice, computed with
    /// Lanczos iteration on the implicitly applied Hamiltonian.
    pub fn ground_state_energy<R: Rng + ?Sized>(
        nrows: usize,
        ncols: usize,
        obs: &Observable,
        rng: &mut R,
    ) -> Result<f64> {
        let op = ObservableOp { nrows, ncols, obs };
        let max_krylov = 200.min(1 << (nrows * ncols));
        let gs = lanczos_ground_state(&op, max_krylov, 1e-10, rng)
            .context("ground_state_energy: Lanczos")?;
        Ok(gs.value)
    }
}

/// Hermitian-operator adapter that applies an [`Observable`] to raw state
/// vectors (used by Lanczos).
struct ObservableOp<'o> {
    nrows: usize,
    ncols: usize,
    obs: &'o Observable,
}

impl HermitianOp for ObservableOp<'_> {
    fn dim(&self) -> usize {
        1 << (self.nrows * self.ncols)
    }
    fn apply(&self, x: &[C64]) -> Vec<C64> {
        let sv = StateVector { nrows: self.nrows, ncols: self.ncols, amps: x.to_vec() };
        sv.apply_observable(self.obs).amps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::{cnot, hadamard, iswap};
    use koala_linalg::c64;
    use koala_peps::operators::{kron, pauli_x, pauli_z};
    use koala_peps::Peps;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bell_state_preparation() {
        let mut sv = StateVector::computational_zeros(1, 2);
        sv.apply_one_site(&hadamard(), (0, 0));
        sv.apply_two_site(&cnot(), (0, 0), (0, 1));
        let amp = 1.0 / 2.0f64.sqrt();
        assert!(sv.amplitude(&[0, 0]).approx_eq(c64(amp, 0.0), 1e-12));
        assert!(sv.amplitude(&[1, 1]).approx_eq(c64(amp, 0.0), 1e-12));
        assert!(sv.amplitude(&[0, 1]).approx_eq(C64::ZERO, 1e-12));
        assert!((sv.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gate_application_matches_peps_evolution() {
        // Apply the same small circuit to a PEPS (exactly) and the state vector.
        let mut rng = StdRng::seed_from_u64(1);
        let mut sv = StateVector::computational_zeros(2, 2);
        let mut peps = Peps::computational_zeros(2, 2);
        let gates: Vec<(Matrix, Site, Option<Site>)> = vec![
            (hadamard(), (0, 0), None),
            (hadamard(), (1, 1), None),
            (cnot(), (0, 0), Some((0, 1))),
            (iswap(), (0, 1), Some((1, 1))),
            (cnot(), (1, 1), Some((1, 0))),
        ];
        for (g, a, b) in &gates {
            match b {
                None => {
                    sv.apply_one_site(g, *a);
                    koala_peps::apply_one_site(&mut peps, g, *a).unwrap();
                }
                Some(b) => {
                    sv.apply_two_site(g, *a, *b);
                    koala_peps::apply_two_site(
                        &mut peps,
                        g,
                        *a,
                        *b,
                        koala_peps::UpdateMethod::qr_svd(16),
                    )
                    .unwrap();
                }
            }
        }
        let dense = peps.to_dense().unwrap();
        for (idx, amp) in sv.amplitudes().iter().enumerate() {
            let bits: Vec<usize> = (0..4).map(|q| (idx >> (3 - q)) & 1).collect();
            assert!(dense.get(&bits).approx_eq(*amp, 1e-8), "amplitude mismatch at {bits:?}");
        }
        let _ = &mut rng;
    }

    #[test]
    fn expectation_of_pauli_on_basis_states() {
        let sv = StateVector::computational_zeros(2, 2);
        assert!((sv.expectation(&Observable::z((0, 1))) - 1.0).abs() < 1e-12);
        assert!(sv.expectation(&Observable::x((1, 0))).abs() < 1e-12);
        let zz = Observable::zz((0, 0), (1, 1));
        assert!((sv.expectation(&zz) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectation_matches_dense_observable_matrix() {
        let mut rng = StdRng::seed_from_u64(2);
        let sv = StateVector::random(2, 2, &mut rng);
        let obs = Observable::zz((0, 0), (0, 1))
            + Observable::xx((0, 1), (1, 1))
            + 0.3 * Observable::y((1, 0));
        let got = sv.expectation(&obs);
        let h = obs.to_dense(2, 2, 2);
        let hv = h.matvec(sv.amplitudes());
        let want: C64 = sv.amplitudes().iter().zip(hv.iter()).map(|(a, b)| a.conj() * *b).sum();
        assert!((got - want.re).abs() < 1e-10);
    }

    #[test]
    fn ground_state_energy_of_single_site_field() {
        // H = -X on one site: ground energy -1.
        let mut rng = StdRng::seed_from_u64(3);
        let obs = -1.0 * Observable::x((0, 0));
        let e = StateVector::ground_state_energy(1, 1, &obs, &mut rng).unwrap();
        assert!((e + 1.0).abs() < 1e-8);
    }

    #[test]
    fn ground_state_energy_of_two_site_ising() {
        // H = -Z Z on two sites: ground energy -1 (doubly degenerate).
        let mut rng = StdRng::seed_from_u64(4);
        let obs = -1.0 * Observable::zz((0, 0), (0, 1));
        let e = StateVector::ground_state_energy(1, 2, &obs, &mut rng).unwrap();
        assert!((e + 1.0).abs() < 1e-8);
        // Cross-check against dense diagonalisation.
        let h = obs.to_dense(1, 2, 2);
        let evs = koala_linalg::eigvalsh(&h).unwrap();
        assert!((e - evs[0]).abs() < 1e-8);
    }

    #[test]
    fn invalid_amplitude_count_is_rejected() {
        assert!(StateVector::from_amplitudes(1, 2, vec![C64::ZERO; 3]).is_err());
        assert!(StateVector::from_amplitudes(1, 2, vec![C64::ZERO; 4]).is_ok());
    }

    #[test]
    fn pauli_algebra_through_gates() {
        // X then Z on the same qubit equals applying ZX (= -iY).
        let mut rng = StdRng::seed_from_u64(5);
        let mut a = StateVector::random(1, 2, &mut rng);
        let mut b = a.clone();
        a.apply_one_site(&pauli_x(), (0, 0));
        a.apply_one_site(&pauli_z(), (0, 0));
        let zx = koala_linalg::matmul(&pauli_z(), &pauli_x());
        b.apply_one_site(&zx, (0, 0));
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!(x.approx_eq(*y, 1e-12));
        }
        // Two-site gate built from a kron of singles acts like the singles.
        let mut c = a.clone();
        let mut d = a.clone();
        c.apply_two_site(&kron(&pauli_x(), &pauli_z()), (0, 0), (0, 1));
        d.apply_one_site(&pauli_x(), (0, 0));
        d.apply_one_site(&pauli_z(), (0, 1));
        for (x, y) in c.amplitudes().iter().zip(d.amplitudes()) {
            assert!(x.approx_eq(*y, 1e-12));
        }
    }
}

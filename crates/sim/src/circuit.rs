//! Quantum circuits on a 2D qubit lattice, and the random-quantum-circuit
//! (RQC) generator used by the accuracy benchmark of Figure 10.

use crate::gates::{iswap, sqrt_w, sqrt_x, sqrt_y};
use crate::statevector::StateVector;
use koala_error::Result;
use koala_linalg::Matrix;
use koala_peps::{apply_gates, GateOp, Peps, Site, UpdateMethod};
use rand::Rng;

/// One gate of a circuit.
#[derive(Debug, Clone)]
pub enum CircuitOp {
    /// A single-qubit gate.
    OneSite {
        /// Target site.
        site: Site,
        /// 2x2 unitary.
        matrix: Matrix,
    },
    /// A two-qubit gate on neighbouring sites.
    TwoSite {
        /// First (most significant) site.
        site_a: Site,
        /// Second site.
        site_b: Site,
        /// 4x4 unitary.
        matrix: Matrix,
    },
}

/// A quantum circuit on an `nrows x ncols` lattice.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    ops: Vec<CircuitOp>,
}

impl Circuit {
    /// Empty circuit.
    pub fn new() -> Self {
        Circuit { ops: Vec::new() }
    }

    /// Gates in application order.
    pub fn ops(&self) -> &[CircuitOp] {
        &self.ops
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of two-qubit gates (the entangling count that controls how fast
    /// the PEPS bond dimension grows).
    pub fn two_qubit_count(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, CircuitOp::TwoSite { .. })).count()
    }

    /// Append a single-qubit gate.
    pub(crate) fn push_one_site(&mut self, site: Site, matrix: Matrix) -> &mut Self {
        self.ops.push(CircuitOp::OneSite { site, matrix });
        self
    }

    /// Append a two-qubit gate on neighbouring sites.
    pub(crate) fn push_two_site(
        &mut self,
        site_a: Site,
        site_b: Site,
        matrix: Matrix,
    ) -> &mut Self {
        self.ops.push(CircuitOp::TwoSite { site_a, site_b, matrix });
        self
    }

    /// Apply the circuit to a PEPS with the given two-site update method
    /// (pass a large bond for exact evolution). Returns the accumulated
    /// truncation error: the root sum square of the per-gate errors.
    ///
    /// The circuit runs as one gate list ([`koala_peps::apply_gates`]), so
    /// the updates of a layer that touch disjoint sites run concurrently,
    /// bit-identical to applying the gates one after another at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// A gate outside the lattice or a two-site gate on sites that are not
    /// neighbours is rejected before any gate is applied. A gate that fails
    /// while running (a wrong-shaped matrix, a factorization that meets
    /// non-finite data) leaves the PEPS structurally valid but which of the
    /// other gates were applied unspecified, as [`koala_peps::apply_gates`]
    /// says: discard the state.
    pub fn apply_to_peps(&self, peps: &mut Peps, method: UpdateMethod) -> Result<f64> {
        let ops: Vec<GateOp<'_>> = self
            .ops
            .iter()
            .map(|op| match op {
                CircuitOp::OneSite { site, matrix } => GateOp::one_site(matrix, *site),
                CircuitOp::TwoSite { site_a, site_b, matrix } => {
                    GateOp::two_site(matrix, *site_a, *site_b)
                }
            })
            .collect();
        // One-site ops report 0, so this is the sum over the two-site gates.
        let errs = apply_gates(peps, &ops, method)?;
        Ok(errs.iter().fold(0.0, |sum, e| sum + e * e).sqrt())
    }

    /// Apply the circuit to a state vector (always exact).
    pub fn apply_to_statevector(&self, sv: &mut StateVector) {
        for op in &self.ops {
            match op {
                CircuitOp::OneSite { site, matrix } => sv.apply_one_site(matrix, *site),
                CircuitOp::TwoSite { site_a, site_b, matrix } => {
                    sv.apply_two_site(matrix, *site_a, *site_b)
                }
            }
        }
    }
}

/// Random quantum circuit following the construction of the paper's RQC
/// benchmark (§VI-B, after its reference \[54\], the Google quantum-supremacy
/// circuits): every layer applies a random single-qubit
/// gate from {sqrt(X), sqrt(Y), sqrt(W)} to every site, and every
/// `entangle_every`-th layer additionally applies iSWAP gates to all pairs of
/// neighbouring sites (which multiplies the PEPS bond dimension by 4).
pub fn random_circuit<R: Rng + ?Sized>(
    nrows: usize,
    ncols: usize,
    layers: usize,
    entangle_every: usize,
    rng: &mut R,
) -> Circuit {
    let singles = [sqrt_x(), sqrt_y(), sqrt_w()];
    let mut circuit = Circuit::new();
    for layer in 1..=layers {
        for r in 0..nrows {
            for c in 0..ncols {
                let g = singles[rng.gen_range(0..singles.len())].clone();
                circuit.push_one_site((r, c), g);
            }
        }
        if entangle_every > 0 && layer % entangle_every == 0 {
            for (a, b) in crate::hamiltonian::nearest_neighbor_pairs(nrows, ncols) {
                circuit.push_two_site(a, b, iswap());
            }
        }
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::{cnot, hadamard};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn circuit_construction_and_counts() {
        let mut c = Circuit::new();
        assert!(c.is_empty());
        c.push_one_site((0, 0), hadamard());
        c.push_two_site((0, 0), (0, 1), cnot());
        assert_eq!(c.len(), 2);
        assert_eq!(c.two_qubit_count(), 1);
    }

    #[test]
    fn rqc_generator_layer_structure() {
        let mut rng = StdRng::seed_from_u64(1);
        let circuit = random_circuit(3, 3, 8, 4, &mut rng);
        // 8 layers of 9 single-qubit gates + 2 entangling layers of 12 iSWAPs.
        assert_eq!(circuit.len(), 8 * 9 + 2 * 12);
        assert_eq!(circuit.two_qubit_count(), 24);
        // No entangling layers when entangle_every is 0.
        let c2 = random_circuit(2, 2, 4, 0, &mut rng);
        assert_eq!(c2.two_qubit_count(), 0);
    }

    #[test]
    fn peps_and_statevector_agree_on_rqc() {
        let mut rng = StdRng::seed_from_u64(2);
        let circuit = random_circuit(2, 2, 4, 2, &mut rng);

        let mut sv = StateVector::computational_zeros(2, 2);
        circuit.apply_to_statevector(&mut sv);

        let mut peps = Peps::computational_zeros(2, 2);
        let err = circuit.apply_to_peps(&mut peps, UpdateMethod::qr_svd(64)).unwrap();
        assert!(err < 1e-8, "exact evolution should not truncate");

        let dense = peps.to_dense().unwrap();
        for (idx, amp) in sv.amplitudes().iter().enumerate() {
            let bits: Vec<usize> = (0..4).map(|q| (idx >> (3 - q)) & 1).collect();
            assert!(dense.get(&bits).approx_eq(*amp, 1e-7));
        }
        assert!((sv.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn truncated_evolution_reports_error_on_entangling_circuits() {
        let mut rng = StdRng::seed_from_u64(3);
        let circuit = random_circuit(2, 3, 8, 2, &mut rng);
        let mut peps = Peps::computational_zeros(2, 3);
        let err = circuit.apply_to_peps(&mut peps, UpdateMethod::qr_svd(2)).unwrap();
        assert!(err > 1e-6, "bond dimension 2 cannot hold 4 entangling layers");
        assert!(peps.max_bond() <= 2);
    }
}

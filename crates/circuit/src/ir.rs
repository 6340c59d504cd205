//! The gate-list intermediate representation.
//!
//! A [`Circuit`] is an ordered list of one- and two-qubit [`Gate`]s over
//! `num_qubits` qubits addressed `0..n`. Qubits live on a chain by default;
//! an optional lattice shape ([`Circuit::with_lattice`]) declares a 2-D
//! row-major layout so the PEPS backend knows which qubit pairs are
//! physical neighbours (everything else is SWAP-routed).
//!
//! Gates are *typed* ([`Gate1`] / [`Gate2`]): the named variants carry their
//! defining parameters and materialise their matrices on demand, so
//! structural passes (fusion, diagonal absorption, light-cone pruning) can
//! reason about gate classes without string matching, and the serving layer
//! can put a compact tag — not sixteen floats — on the wire.

use koala_error::KoalaError;
use koala_linalg::{c64, Matrix, C64};

use koala_error::Result;

/// Tolerance for the unitarity check on user-supplied gate matrices.
pub(crate) const UNITARY_TOL: f64 = 1e-10;

/// A one-qubit gate.
#[derive(Debug, Clone)]
pub enum Gate1 {
    /// Hadamard.
    H,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Phase gate `diag(1, i)`.
    S,
    /// `diag(1, e^{i pi/4})`.
    T,
    /// Rotation about X: `exp(-i theta X / 2)`.
    Rx(f64),
    /// Rotation about Y: `exp(-i theta Y / 2)` (a real matrix).
    Ry(f64),
    /// Rotation about Z: `diag(e^{-i theta/2}, e^{i theta/2})`.
    Rz(f64),
    /// An arbitrary 2x2 unitary.
    Unitary(Matrix),
}

impl Gate1 {
    /// The 2x2 matrix of this gate. Named real gates (H/X/Z/Ry) carry the
    /// structural realness hint so real circuits stay on the real kernels.
    pub fn matrix(&self) -> Matrix {
        let two = |data: &[f64]| {
            Matrix::from_real(2, 2, data).unwrap_or_else(|_| unreachable!("literal 2x2 data"))
        };
        match self {
            Gate1::H => {
                let s = 1.0 / 2.0f64.sqrt();
                two(&[s, s, s, -s])
            }
            Gate1::X => two(&[0.0, 1.0, 1.0, 0.0]),
            Gate1::Y => {
                let mut m = Matrix::zeros(2, 2);
                m[(0, 1)] = c64(0.0, -1.0);
                m[(1, 0)] = C64::I;
                m
            }
            Gate1::Z => Matrix::from_diag_real(&[1.0, -1.0]),
            Gate1::S => Matrix::from_diag(&[C64::ONE, C64::I]),
            Gate1::T => Matrix::from_diag(&[C64::ONE, C64::cis(std::f64::consts::FRAC_PI_4)]),
            Gate1::Rx(theta) => {
                let (s, c) = (theta / 2.0).sin_cos();
                let mut m = Matrix::zeros(2, 2);
                m[(0, 0)] = c64(c, 0.0);
                m[(1, 1)] = c64(c, 0.0);
                m[(0, 1)] = c64(0.0, -s);
                m[(1, 0)] = c64(0.0, -s);
                m
            }
            Gate1::Ry(theta) => {
                let (s, c) = (theta / 2.0).sin_cos();
                two(&[c, -s, s, c])
            }
            Gate1::Rz(theta) => Matrix::from_diag(&[C64::cis(-theta / 2.0), C64::cis(theta / 2.0)]),
            Gate1::Unitary(m) => m.clone(),
        }
    }

    /// True if the gate matrix is exactly diagonal (both off-diagonal
    /// entries identically zero). Parametrised rotations are classified by
    /// construction, arbitrary unitaries by an exact-zero scan.
    pub(crate) fn is_diagonal(&self) -> bool {
        match self {
            Gate1::Z | Gate1::S | Gate1::T | Gate1::Rz(_) => true,
            Gate1::H | Gate1::X | Gate1::Y | Gate1::Rx(_) | Gate1::Ry(_) => false,
            Gate1::Unitary(m) => m[(0, 1)].norm_sqr() == 0.0 && m[(1, 0)].norm_sqr() == 0.0,
        }
    }

    /// Short wire/signature tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Gate1::H => "h",
            Gate1::X => "x",
            Gate1::Y => "y",
            Gate1::Z => "z",
            Gate1::S => "s",
            Gate1::T => "t",
            Gate1::Rx(_) => "rx",
            Gate1::Ry(_) => "ry",
            Gate1::Rz(_) => "rz",
            Gate1::Unitary(_) => "u1",
        }
    }
}

impl PartialEq for Gate1 {
    fn eq(&self, other: &Gate1) -> bool {
        match (self, other) {
            (Gate1::H, Gate1::H)
            | (Gate1::X, Gate1::X)
            | (Gate1::Y, Gate1::Y)
            | (Gate1::Z, Gate1::Z)
            | (Gate1::S, Gate1::S)
            | (Gate1::T, Gate1::T) => true,
            (Gate1::Rx(a), Gate1::Rx(b))
            | (Gate1::Ry(a), Gate1::Ry(b))
            | (Gate1::Rz(a), Gate1::Rz(b)) => a == b,
            (Gate1::Unitary(a), Gate1::Unitary(b)) => a.data() == b.data(),
            _ => false,
        }
    }
}

/// A two-qubit gate. The first qubit is the most significant subsystem of
/// the 4x4 matrix (rows/columns indexed `2*bit_a + bit_b`).
#[derive(Debug, Clone)]
pub enum Gate2 {
    /// Controlled-NOT (first qubit controls).
    Cnot,
    /// Controlled-Z (symmetric, diagonal).
    Cz,
    /// SWAP (used by the routing passes; operator Schmidt rank 4).
    Swap,
    /// An arbitrary 4x4 unitary.
    Unitary(Matrix),
}

impl Gate2 {
    /// The 4x4 matrix of this gate.
    pub fn matrix(&self) -> Matrix {
        match self {
            Gate2::Cnot => Matrix::from_real(
                4,
                4,
                &[
                    1.0, 0.0, 0.0, 0.0, //
                    0.0, 1.0, 0.0, 0.0, //
                    0.0, 0.0, 0.0, 1.0, //
                    0.0, 0.0, 1.0, 0.0,
                ],
            )
            .unwrap_or_else(|_| unreachable!("literal 4x4 data")),
            Gate2::Cz => Matrix::from_diag_real(&[1.0, 1.0, 1.0, -1.0]),
            Gate2::Swap => Matrix::from_real(
                4,
                4,
                &[
                    1.0, 0.0, 0.0, 0.0, //
                    0.0, 0.0, 1.0, 0.0, //
                    0.0, 1.0, 0.0, 0.0, //
                    0.0, 0.0, 0.0, 1.0,
                ],
            )
            .unwrap_or_else(|_| unreachable!("literal 4x4 data")),
            Gate2::Unitary(m) => m.clone(),
        }
    }

    /// Upper bound on the operator Schmidt rank across the qubit
    /// bipartition — the factor by which applying this gate can multiply a
    /// bond dimension cut between its qubits. `Cnot`/`Cz` are rank 2 by
    /// algebra; arbitrary unitaries are measured numerically (SVD of the
    /// subsystem-reshuffled matrix).
    pub(crate) fn schmidt_rank(&self) -> usize {
        match self {
            Gate2::Cnot | Gate2::Cz => 2,
            Gate2::Swap => 4,
            Gate2::Unitary(m) => operator_schmidt_rank(m),
        }
    }

    /// Short wire/signature tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Gate2::Cnot => "cnot",
            Gate2::Cz => "cz",
            Gate2::Swap => "swap",
            Gate2::Unitary(_) => "u2",
        }
    }
}

impl PartialEq for Gate2 {
    fn eq(&self, other: &Gate2) -> bool {
        match (self, other) {
            (Gate2::Cnot, Gate2::Cnot) | (Gate2::Cz, Gate2::Cz) | (Gate2::Swap, Gate2::Swap) => {
                true
            }
            (Gate2::Unitary(a), Gate2::Unitary(b)) => a.data() == b.data(),
            _ => false,
        }
    }
}

/// Operator Schmidt rank of a 4x4 two-qubit gate: the number of products in
/// its [`operator_schmidt`](koala_peps::operators::operator_schmidt)
/// decomposition, counting singular values above `1e-12` of the largest. A
/// matrix that cannot be decomposed gets the bound that always holds.
fn operator_schmidt_rank(g: &Matrix) -> usize {
    koala_peps::operators::operator_schmidt(g, 2, 2, 1e-12).map_or(4, |(a, _)| a.dim(0))
}

/// One gate of a circuit, bound to its qubits.
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// A one-qubit gate.
    One {
        /// Target qubit.
        qubit: usize,
        /// The gate.
        gate: Gate1,
    },
    /// A two-qubit gate on an arbitrary (distinct) qubit pair — backends
    /// SWAP-route pairs that are not physically adjacent.
    Two {
        /// Most significant qubit of the 4x4 matrix.
        a: usize,
        /// Least significant qubit.
        b: usize,
        /// The gate.
        gate: Gate2,
    },
}

impl Gate {
    /// Qubits the gate acts on (one or two entries).
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Gate::One { qubit, .. } => vec![*qubit],
            Gate::Two { a, b, .. } => vec![*a, *b],
        }
    }
}

/// A gate-list quantum circuit over `num_qubits` qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    num_qubits: usize,
    lattice: Option<(usize, usize)>,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Empty circuit on a chain of `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Circuit {
        Circuit { num_qubits, lattice: None, gates: Vec::new() }
    }

    /// Empty circuit on an `nrows x ncols` lattice (row-major qubit order).
    /// The lattice shape steers the PEPS backend's adjacency; chain backends
    /// ignore it.
    pub fn with_lattice(nrows: usize, ncols: usize) -> Circuit {
        Circuit { num_qubits: nrows * ncols, lattice: Some((nrows, ncols)), gates: Vec::new() }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Declared lattice shape, if any.
    pub fn lattice(&self) -> Option<(usize, usize)> {
        self.lattice
    }

    /// Gates in application order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True if the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of two-qubit gates.
    pub fn two_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| matches!(g, Gate::Two { .. })).count()
    }

    /// Rebuild this circuit's shell (qubit count and lattice) with a
    /// different gate list — used by the structural passes.
    pub(crate) fn with_gates(&self, gates: Vec<Gate>) -> Circuit {
        Circuit { num_qubits: self.num_qubits, lattice: self.lattice, gates }
    }

    fn check_qubit(&self, q: usize) -> Result<()> {
        if q >= self.num_qubits {
            return Err(KoalaError::invalid(format!(
                "circuit: qubit {q} out of range for {} qubits",
                self.num_qubits
            )));
        }
        Ok(())
    }

    fn check_pair(&self, a: usize, b: usize) -> Result<()> {
        self.check_qubit(a)?;
        self.check_qubit(b)?;
        if a == b {
            return Err(KoalaError::invalid(format!(
                "circuit: two-qubit gate on identical qubit {a}"
            )));
        }
        Ok(())
    }

    /// Append a one-qubit gate.
    pub fn push_one(&mut self, qubit: usize, gate: Gate1) -> Result<&mut Circuit> {
        self.check_qubit(qubit)?;
        if let Gate1::Rx(t) | Gate1::Ry(t) | Gate1::Rz(t) = gate {
            if !t.is_finite() {
                return Err(KoalaError::invalid("circuit: rotation angle must be finite"));
            }
        }
        if let Gate1::Unitary(m) = &gate {
            check_unitary(m, 2)?;
        }
        self.gates.push(Gate::One { qubit, gate });
        Ok(self)
    }

    /// Append a two-qubit gate (`a` is the most significant subsystem).
    pub fn push_two(&mut self, a: usize, b: usize, gate: Gate2) -> Result<&mut Circuit> {
        self.check_pair(a, b)?;
        if let Gate2::Unitary(m) = &gate {
            check_unitary(m, 4)?;
        }
        self.gates.push(Gate::Two { a, b, gate });
        Ok(self)
    }

    /// Re-validate every gate (bounds, unitarity). Construction through the
    /// push methods already guarantees this; the serving layer re-checks
    /// wire-parsed circuits defensively.
    pub fn validate(&self) -> Result<()> {
        for gate in &self.gates {
            match gate {
                Gate::One { qubit, gate } => {
                    self.check_qubit(*qubit)?;
                    if let Gate1::Unitary(m) = gate {
                        check_unitary(m, 2)?;
                    }
                }
                Gate::Two { a, b, gate } => {
                    self.check_pair(*a, *b)?;
                    if let Gate2::Unitary(m) = gate {
                        check_unitary(m, 4)?;
                    }
                }
            }
        }
        if let Some((r, c)) = self.lattice {
            if r * c != self.num_qubits {
                return Err(KoalaError::invalid(format!(
                    "circuit: lattice {r}x{c} does not hold {} qubits",
                    self.num_qubits
                )));
            }
        }
        Ok(())
    }

    /// Structural key over gate kinds and placements (parameters and matrix
    /// values excluded, except the exact-zero pattern of arbitrary
    /// unitaries, which steers the structural passes). Circuits sharing a
    /// key run the same contraction shapes, so the serving layer uses it as
    /// the workload-signature component.
    pub fn structure_key(&self) -> u64 {
        // FNV-1a over a byte stream of tags and indices.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&(self.num_qubits as u64).to_le_bytes());
        if let Some((r, c)) = self.lattice {
            eat(&(r as u64).to_le_bytes());
            eat(&(c as u64).to_le_bytes());
        }
        for gate in &self.gates {
            match gate {
                Gate::One { qubit, gate } => {
                    eat(gate.tag().as_bytes());
                    eat(&(*qubit as u64).to_le_bytes());
                    if let Gate1::Unitary(m) = gate {
                        eat(&[zero_pattern(m)]);
                    }
                }
                Gate::Two { a, b, gate } => {
                    eat(gate.tag().as_bytes());
                    eat(&(*a as u64).to_le_bytes());
                    eat(&(*b as u64).to_le_bytes());
                    if let Gate2::Unitary(m) = gate {
                        eat(&zero_pattern16(m).to_le_bytes());
                    }
                }
            }
        }
        h
    }

    /// Import a lattice circuit from the `koala-sim` RQC layer: sites map to
    /// qubits row-major, and every gate matrix arrives as an arbitrary
    /// unitary. The result carries the lattice shape, so the PEPS backend
    /// sees the same neighbour structure the original circuit used.
    pub fn from_lattice_circuit(
        circuit: &koala_sim::Circuit,
        nrows: usize,
        ncols: usize,
    ) -> Result<Circuit> {
        let mut out = Circuit::with_lattice(nrows, ncols);
        let q = |(r, c): koala_peps::Site| r * ncols + c;
        for op in circuit.ops() {
            match op {
                koala_sim::CircuitOp::OneSite { site, matrix } => {
                    out.push_one(q(*site), Gate1::Unitary(matrix.clone()))?;
                }
                koala_sim::CircuitOp::TwoSite { site_a, site_b, matrix } => {
                    out.push_two(q(*site_a), q(*site_b), Gate2::Unitary(matrix.clone()))?;
                }
            }
        }
        Ok(out)
    }
}

/// Bitmask of exactly-zero entries of a 2x2 matrix (4 bits).
fn zero_pattern(m: &Matrix) -> u8 {
    let mut bits = 0u8;
    for (i, z) in m.data().iter().enumerate() {
        if z.norm_sqr() == 0.0 {
            bits |= 1 << i;
        }
    }
    bits
}

/// Bitmask of exactly-zero entries of a 4x4 matrix (16 bits).
fn zero_pattern16(m: &Matrix) -> u16 {
    let mut bits = 0u16;
    for (i, z) in m.data().iter().enumerate() {
        if z.norm_sqr() == 0.0 {
            bits |= 1 << i;
        }
    }
    bits
}

fn check_unitary(m: &Matrix, dim: usize) -> Result<()> {
    if m.shape() != (dim, dim) {
        return Err(KoalaError::invalid(format!(
            "circuit: gate matrix is {:?}, expected {dim}x{dim}",
            m.shape()
        )));
    }
    m.validate_finite("circuit gate")?;
    if !koala_linalg::matmul_adj_a(m, m).approx_eq(&Matrix::identity(dim), UNITARY_TOL) {
        return Err(KoalaError::invalid(format!(
            "circuit: {dim}x{dim} gate matrix is not unitary"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_gates_are_unitary_and_hinted() {
        for g in [
            Gate1::H,
            Gate1::X,
            Gate1::Y,
            Gate1::Z,
            Gate1::S,
            Gate1::T,
            Gate1::Rx(0.7),
            Gate1::Ry(1.3),
            Gate1::Rz(-0.4),
        ] {
            let m = g.matrix();
            assert!(matmul_adj(&m).approx_eq(&Matrix::identity(2), 1e-12), "{g:?} is not unitary");
        }
        for g in [Gate2::Cnot, Gate2::Cz, Gate2::Swap] {
            assert!(matmul_adj(&g.matrix()).approx_eq(&Matrix::identity(4), 1e-12));
        }
        // The real gates carry the structural hint; complex phases drop it.
        for g in [Gate1::H, Gate1::X, Gate1::Z, Gate1::Ry(0.9)] {
            assert!(g.matrix().is_real(), "{g:?} should carry the realness hint");
        }
        for g in [Gate1::Y, Gate1::S, Gate1::T, Gate1::Rx(0.3), Gate1::Rz(0.3)] {
            assert!(!g.matrix().is_real(), "{g:?} must not carry the realness hint");
        }
        assert!(Gate2::Cnot.matrix().is_real() && Gate2::Cz.matrix().is_real());
        assert!(Gate2::Swap.matrix().is_real());
    }

    fn matmul_adj(m: &Matrix) -> Matrix {
        koala_linalg::matmul_adj_a(m, m)
    }

    #[test]
    fn diagonal_classification() {
        assert!(Gate1::Z.is_diagonal() && Gate1::S.is_diagonal() && Gate1::Rz(0.2).is_diagonal());
        assert!(
            !Gate1::H.is_diagonal() && !Gate1::X.is_diagonal() && !Gate1::Ry(0.2).is_diagonal()
        );
        assert!(Gate1::Unitary(Gate1::Rz(0.5).matrix()).is_diagonal());
        assert!(!Gate1::Unitary(Gate1::H.matrix()).is_diagonal());
    }

    #[test]
    fn schmidt_ranks() {
        assert_eq!(Gate2::Cnot.schmidt_rank(), 2);
        assert_eq!(Gate2::Cz.schmidt_rank(), 2);
        assert_eq!(Gate2::Swap.schmidt_rank(), 4);
        assert_eq!(Gate2::Unitary(Gate2::Cnot.matrix()).schmidt_rank(), 2);
        assert_eq!(Gate2::Unitary(Gate2::Swap.matrix()).schmidt_rank(), 4);
        // A product gate A (x) B has Schmidt rank 1.
        let prod = koala_peps::operators::kron(&Gate1::H.matrix(), &Gate1::Ry(0.3).matrix());
        assert_eq!(Gate2::Unitary(prod).schmidt_rank(), 1);
    }

    #[test]
    fn construction_validation() {
        let mut c = Circuit::new(3);
        c.push_one(0, Gate1::H).unwrap().push_two(0, 2, Gate2::Cnot).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.two_qubit_count(), 1);
        assert!(c.push_one(3, Gate1::X).is_err(), "qubit out of range");
        assert!(c.push_two(1, 1, Gate2::Cz).is_err(), "identical qubits");
        assert!(
            c.push_one(0, Gate1::Unitary(Matrix::from_real(2, 2, &[1.0, 1.0, 0.0, 1.0]).unwrap()))
                .is_err(),
            "non-unitary matrix"
        );
        assert!(c.push_one(0, Gate1::Rx(f64::NAN)).is_err(), "non-finite angle");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn structure_key_ignores_parameters_but_not_placement() {
        let mut a = Circuit::new(4);
        a.push_one(1, Gate1::Rz(0.3)).unwrap().push_two(0, 1, Gate2::Cz).unwrap();
        let mut b = Circuit::new(4);
        b.push_one(1, Gate1::Rz(-2.4)).unwrap().push_two(0, 1, Gate2::Cz).unwrap();
        assert_eq!(a.structure_key(), b.structure_key(), "angles are value-level");
        let mut c = Circuit::new(4);
        c.push_one(2, Gate1::Rz(0.3)).unwrap().push_two(0, 1, Gate2::Cz).unwrap();
        assert_ne!(a.structure_key(), c.structure_key(), "placement is structural");
        let mut d = Circuit::new(4);
        d.push_one(1, Gate1::Ry(0.3)).unwrap().push_two(0, 1, Gate2::Cz).unwrap();
        assert_ne!(a.structure_key(), d.structure_key(), "gate kind is structural");
    }

    #[test]
    fn lattice_import_matches_sim_circuit() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let rqc = koala_sim::random_circuit(2, 3, 2, 2, &mut rng);
        let fe = Circuit::from_lattice_circuit(&rqc, 2, 3).unwrap();
        assert_eq!(fe.num_qubits(), 6);
        assert_eq!(fe.lattice(), Some((2, 3)));
        assert_eq!(fe.len(), rqc.len());
        assert_eq!(fe.two_qubit_count(), rqc.two_qubit_count());
        // First op targets the same qubit the site maps to.
        if let (koala_sim::CircuitOp::OneSite { site, matrix }, Gate::One { qubit, gate }) =
            (&rqc.ops()[0], &fe.gates()[0])
        {
            assert_eq!(*qubit, site.0 * 3 + site.1);
            if let Gate1::Unitary(m) = gate {
                assert!(m.approx_eq(matrix, 0.0));
            } else {
                panic!("imported gate should be an arbitrary unitary");
            }
        } else {
            panic!("unexpected op shapes");
        }

        let mismatched = Circuit::from_lattice_circuit(&rqc, 2, 2);
        assert!(mismatched.is_err(), "site outside the declared lattice must fail");
    }
}

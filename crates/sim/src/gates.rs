//! Standard quantum gate matrices.

use koala_linalg::{c64, expm_hermitian, Matrix, C64};
use koala_peps::operators::{pauli_x, pauli_y, pauli_z};

/// Hadamard gate.
pub fn hadamard() -> Matrix {
    let s = 1.0 / 2.0f64.sqrt();
    Matrix::from_real(2, 2, &[s, s, s, -s]).unwrap_or_else(|_| unreachable!("literal 2x2 data"))
}

/// Rotation about X: `exp(-i theta X / 2)`.
pub fn rx(theta: f64) -> Matrix {
    expm_hermitian(&pauli_x(), c64(0.0, -theta / 2.0))
        .unwrap_or_else(|e| unreachable!("exponential of a literal Hermitian gate: {e}"))
}

/// Rotation about Y: `exp(-i theta Y / 2)`.
pub fn ry(theta: f64) -> Matrix {
    expm_hermitian(&pauli_y(), c64(0.0, -theta / 2.0))
        .unwrap_or_else(|e| unreachable!("exponential of a literal Hermitian gate: {e}"))
}

/// Rotation about Z: `exp(-i theta Z / 2)`.
pub fn rz(theta: f64) -> Matrix {
    expm_hermitian(&pauli_z(), c64(0.0, -theta / 2.0))
        .unwrap_or_else(|e| unreachable!("exponential of a literal Hermitian gate: {e}"))
}

/// Square root of X (up to global phase), one of the RQC single-qubit gates.
pub(crate) fn sqrt_x() -> Matrix {
    let h = pauli_x();
    expm_hermitian(&h, c64(0.0, -std::f64::consts::FRAC_PI_4))
        .unwrap_or_else(|e| unreachable!("exponential of a literal Hermitian gate: {e}"))
        .scale(C64::cis(std::f64::consts::FRAC_PI_4))
}

/// Square root of Y (up to global phase).
pub(crate) fn sqrt_y() -> Matrix {
    let h = pauli_y();
    expm_hermitian(&h, c64(0.0, -std::f64::consts::FRAC_PI_4))
        .unwrap_or_else(|e| unreachable!("exponential of a literal Hermitian gate: {e}"))
        .scale(C64::cis(std::f64::consts::FRAC_PI_4))
}

/// Square root of W where `W = (X + Y)/sqrt(2)` (the third RQC single-qubit gate).
pub(crate) fn sqrt_w() -> Matrix {
    let w = (&pauli_x() + &pauli_y()).scale(c64(1.0 / 2.0f64.sqrt(), 0.0));
    expm_hermitian(&w, c64(0.0, -std::f64::consts::FRAC_PI_4))
        .unwrap_or_else(|e| unreachable!("exponential of a literal Hermitian gate: {e}"))
        .scale(C64::cis(std::f64::consts::FRAC_PI_4))
}

/// Controlled-NOT with the first qubit as control.
pub fn cnot() -> Matrix {
    Matrix::from_real(
        4,
        4,
        &[
            1.0, 0.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            0.0, 0.0, 0.0, 1.0, //
            0.0, 0.0, 1.0, 0.0,
        ],
    )
    .unwrap_or_else(|_| unreachable!("literal 4x4 data"))
}

/// Controlled-Z.
pub fn cz() -> Matrix {
    Matrix::from_diag_real(&[1.0, 1.0, 1.0, -1.0])
}

/// iSWAP gate: swaps |01> and |10> with a phase of i.
pub fn iswap() -> Matrix {
    let mut m = Matrix::zeros(4, 4);
    m[(0, 0)] = C64::ONE;
    m[(3, 3)] = C64::ONE;
    m[(1, 2)] = C64::I;
    m[(2, 1)] = C64::I;
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use koala_linalg::matmul;
    use rand::SeedableRng;

    #[test]
    fn all_gates_are_unitary() {
        for g in [
            hadamard(),
            rx(0.7),
            ry(1.3),
            rz(-0.4),
            sqrt_x(),
            sqrt_y(),
            sqrt_w(),
            cnot(),
            cz(),
            iswap(),
        ] {
            assert!(g.has_orthonormal_cols(1e-10));
        }
    }

    #[test]
    fn sqrt_gates_square_to_their_pauli() {
        assert!(matmul(&sqrt_x(), &sqrt_x()).approx_eq(&pauli_x(), 1e-10));
        assert!(matmul(&sqrt_y(), &sqrt_y()).approx_eq(&pauli_y(), 1e-10));
        let w = (&pauli_x() + &pauli_y()).scale(c64(1.0 / 2.0f64.sqrt(), 0.0));
        assert!(matmul(&sqrt_w(), &sqrt_w()).approx_eq(&w, 1e-10));
    }

    #[test]
    fn hadamard_squares_to_identity() {
        assert!(matmul(&hadamard(), &hadamard()).approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn complex_phase_gates_never_carry_the_realness_hint() {
        // A VQE RZ layer is the canonical way a complex phase enters an
        // otherwise real network: diag(e^{i theta/2}, e^{-i theta/2}).
        let rz_gate = rz(0.4);
        assert!(!rz_gate.is_real());
        assert!(rz_gate.data().iter().any(|z| z.im != 0.0));
        for g in [rx(0.7), iswap(), sqrt_x()] {
            assert!(!g.is_real(), "complex gate falsely retained the realness hint");
        }
        // ...and applying one to a hinted-real state drops the hint on the
        // result, so no later contraction wrongly uses the real kernel.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let state = Matrix::random_real(2, 3, &mut rng);
        assert!(state.is_real());
        let rotated = matmul(&rz_gate, &state);
        assert!(!rotated.is_real());
        assert!(rotated.data().iter().any(|z| z.im != 0.0));
        // Purely real gates keep the hint through application.
        assert!(cnot().is_real() && cz().is_real() && hadamard().is_real());
        assert!(matmul(&hadamard(), &state).is_real());
    }

    #[test]
    fn cnot_flips_target_when_control_set() {
        let g = cnot();
        assert!(g[(3, 2)].approx_eq(C64::ONE, 1e-14));
        assert!(g[(2, 3)].approx_eq(C64::ONE, 1e-14));
        assert!(g[(1, 1)].approx_eq(C64::ONE, 1e-14));
    }

    #[test]
    fn iswap_phases() {
        let g = iswap();
        assert!(g[(1, 2)].approx_eq(C64::I, 1e-14));
        assert!(g[(2, 1)].approx_eq(C64::I, 1e-14));
        assert!(g[(1, 1)].approx_eq(C64::ZERO, 1e-14));
    }

    #[test]
    fn rotation_composition() {
        let a = ry(0.3);
        let b = ry(0.5);
        assert!(matmul(&a, &b).approx_eq(&ry(0.8), 1e-10));
        assert!(ry(0.0).approx_eq(&Matrix::identity(2), 1e-12));
    }
}

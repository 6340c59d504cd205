//! Per-output-bit light-cone pruning for amplitude queries.
//!
//! An amplitude `<bits| C |0...0>` only depends on the part of the circuit
//! inside the backward light cone of the measured bits — and the trailing
//! boundary of that cone can be peeled off *exactly* whenever the final gate
//! on a qubit maps the queried basis row to a single basis column. Scanning
//! the gate list backwards:
//!
//! * take the matrix row selected by the current output bits
//!   (`bits[q]` for one-qubit gates, `2*bits[a] + bits[b]` for two-qubit);
//! * if that row has exactly one nonzero entry (a *monomial* row — true for
//!   diagonal gates like Z/S/T/Rz/CZ, permutations like X/CNOT/SWAP, and any
//!   monomial row of an arbitrary unitary), drop the gate, multiply the
//!   accumulated `phase` by the entry, and relabel the queried bits to the
//!   column index;
//! * otherwise keep the gate and mark its qubits *blocked* — earlier gates
//!   on a blocked qubit are inside the cone and must stay.
//!
//! The invariant (pinned by the differential suite) is
//! `amplitude(circuit, bits) == phase * amplitude(pruned, pruned_bits)`.
//! Zero-entry tests are exact, so float-noise rows of fused unitaries are
//! conservatively kept — pruning never *approximates*.

use koala_error::KoalaError;
use koala_linalg::{Matrix, C64};

use crate::ir::{Circuit, Gate};

/// A pruned amplitude query: evaluate `pruned` at `bits` and scale by
/// `phase` to recover the original amplitude.
#[derive(Debug, Clone)]
pub struct PrunedQuery {
    /// The circuit with trailing monomial gates peeled off.
    pub circuit: Circuit,
    /// The relabelled output bitstring to query on the pruned circuit.
    pub bits: Vec<usize>,
    /// Product of the absorbed monomial entries.
    pub phase: C64,
}

/// The single nonzero column of a matrix row, if the row is monomial.
fn monomial_column(m: &Matrix, row: usize) -> Option<(usize, C64)> {
    let (_, ncols) = m.shape();
    let mut hit: Option<(usize, C64)> = None;
    for col in 0..ncols {
        let z = m[(row, col)];
        if z.norm_sqr() != 0.0 {
            if hit.is_some() {
                return None;
            }
            hit = Some((col, z));
        }
    }
    hit
}

/// Prune the trailing light-cone boundary of `circuit` for the amplitude
/// query `<bits| circuit |0...0>`.
///
/// # Errors
/// Returns an error if `bits` is not a 0/1 string of length `num_qubits`.
pub fn prune_for_bits(circuit: &Circuit, bits: &[usize]) -> koala_error::Result<PrunedQuery> {
    let n = circuit.num_qubits();
    if bits.len() != n || bits.iter().any(|&b| b > 1) {
        return Err(KoalaError::invalid(format!(
            "light-cone: expected {n} bits of 0/1, got {bits:?}"
        )));
    }
    let mut bits = bits.to_vec();
    let mut phase = C64::ONE;
    let mut blocked = vec![false; n];
    // Indices of kept gates, collected in reverse scan order.
    let mut kept_rev: Vec<usize> = Vec::new();

    for (idx, gate) in circuit.gates().iter().enumerate().rev() {
        match gate {
            Gate::One { qubit, gate } => {
                let q = *qubit;
                if !blocked[q] {
                    if let Some((col, z)) = monomial_column(&gate.matrix(), bits[q]) {
                        phase *= z;
                        bits[q] = col;
                        continue;
                    }
                    blocked[q] = true;
                }
                kept_rev.push(idx);
            }
            Gate::Two { a, b, gate } => {
                let (a, b) = (*a, *b);
                if !blocked[a] && !blocked[b] {
                    let row = 2 * bits[a] + bits[b];
                    if let Some((col, z)) = monomial_column(&gate.matrix(), row) {
                        phase *= z;
                        bits[a] = col >> 1;
                        bits[b] = col & 1;
                        continue;
                    }
                }
                blocked[a] = true;
                blocked[b] = true;
                kept_rev.push(idx);
            }
        }
    }

    let keep: std::collections::HashSet<usize> = kept_rev.into_iter().collect();
    let gates = circuit
        .gates()
        .iter()
        .enumerate()
        .filter(|(i, _)| keep.contains(i))
        .map(|(_, g)| g.clone())
        .collect();
    Ok(PrunedQuery { circuit: circuit.with_gates(gates), bits, phase })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Gate1, Gate2};
    use koala_linalg::c64;

    fn approx(a: C64, b: C64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn trailing_diagonals_are_absorbed_into_phase() {
        let mut c = Circuit::new(2);
        c.push_one(0, Gate1::H).unwrap();
        c.push_two(0, 1, Gate2::Cnot).unwrap();
        c.push_one(0, Gate1::T).unwrap();
        c.push_one(1, Gate1::S).unwrap();
        c.push_two(0, 1, Gate2::Cz).unwrap();
        let p = prune_for_bits(&c, &[1, 1]).unwrap();
        // CZ row |11> -> -1; S row 1 -> i; T row 1 -> e^{i pi/4}; and the
        // CNOT row |11> is monomial too, relabelling the query to |10>.
        assert_eq!(p.circuit.len(), 1, "only the H survives");
        assert_eq!(p.bits, vec![1, 0]);
        approx(p.phase, c64(-1.0, 0.0) * C64::I * C64::cis(std::f64::consts::FRAC_PI_4));
    }

    #[test]
    fn trailing_x_relabels_the_query_bit() {
        let mut c = Circuit::new(1);
        c.push_one(0, Gate1::H).unwrap();
        c.push_one(0, Gate1::X).unwrap();
        let p = prune_for_bits(&c, &[0]).unwrap();
        // <0| X H |0> = <1| H |0>: the X is peeled and the bit flips.
        assert_eq!(p.circuit.len(), 1);
        assert_eq!(p.bits, vec![1]);
        approx(p.phase, C64::ONE);
    }

    #[test]
    fn trailing_cnot_permutes_the_bit_pair() {
        let mut c = Circuit::new(2);
        c.push_one(0, Gate1::H).unwrap();
        c.push_two(0, 1, Gate2::Cnot).unwrap();
        // <10| CNOT (H x I) |00> = <11| H x I |00>.
        let p = prune_for_bits(&c, &[1, 0]).unwrap();
        assert_eq!(p.circuit.len(), 1);
        assert_eq!(p.bits, vec![1, 1]);
        approx(p.phase, C64::ONE);
    }

    #[test]
    fn blocked_qubits_stop_absorption() {
        let mut c = Circuit::new(2);
        c.push_one(0, Gate1::Z).unwrap(); // before the H: inside the cone
        c.push_one(0, Gate1::H).unwrap(); // blocks qubit 0
        c.push_two(0, 1, Gate2::Cz).unwrap(); // row |00> is monomial: peeled
        let p = prune_for_bits(&c, &[0, 0]).unwrap();
        assert_eq!(p.circuit.len(), 2, "H blocks, so the earlier Z is kept");
        approx(p.phase, C64::ONE);

        // Querying |1x> instead leaves the CZ unabsorbed only when a
        // non-monomial gate sits after it on one of its qubits.
        let mut d = Circuit::new(2);
        d.push_two(0, 1, Gate2::Cz).unwrap();
        d.push_one(0, Gate1::H).unwrap(); // blocks qubit 0 first in the scan
        let p = prune_for_bits(&d, &[0, 0]).unwrap();
        assert_eq!(p.circuit.len(), 2, "the CZ touches a blocked qubit");
    }

    #[test]
    fn bad_bitstrings_are_rejected() {
        let c = Circuit::new(2);
        assert!(prune_for_bits(&c, &[0]).is_err());
        assert!(prune_for_bits(&c, &[0, 2]).is_err());
    }
}

//! The PEPS lowering runs a whole circuit as one gate list, SWAP routing of
//! non-neighbour pairs included. Its amplitudes must be the bits of a
//! gate-by-gate evolution followed by the same amplitude batch, at any
//! executor thread count.

use koala_circuit::{amplitudes, simplify, Backend, BackendChoice, Circuit, Gate, Gate1, Gate2};
use koala_linalg::{qr, Matrix};
use koala_peps::{
    amplitude_batch, apply_one_site, apply_two_site_any, ContractionMethod, Peps, UpdateMethod,
};
use koala_tensor::Truncation;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EVOLUTION_BOND: usize = 4;
/// The lowering's relative SVD cut for gate applications.
const EVOLUTION_TOL: f64 = 1e-14;

/// A 3x3 lattice circuit whose two-qubit gates include pairs two and four
/// hops apart, so the lowering routes them with SWAPs.
fn circuit() -> Circuit {
    let mut rng = StdRng::seed_from_u64(17);
    let unitary = qr(&Matrix::random(4, 4, &mut rng)).q;
    let mut c = Circuit::with_lattice(3, 3);
    for q in 0..9 {
        c.push_one(q, Gate1::H).unwrap();
    }
    c.push_two(0, 8, Gate2::Cnot).unwrap(); // corner to corner
    for q in 0..9 {
        c.push_one(q, Gate1::Rz(0.1 + 0.2 * q as f64)).unwrap();
    }
    c.push_two(2, 6, Gate2::Unitary(unitary)).unwrap(); // the other diagonal
    c.push_two(4, 5, Gate2::Cz).unwrap(); // neighbours
    c.push_two(7, 1, Gate2::Cnot).unwrap(); // two rows apart
    for q in 0..9 {
        c.push_one(q, Gate1::Ry(0.3 + 0.1 * q as f64)).unwrap();
    }
    c.push_two(3, 5, Gate2::Cz).unwrap(); // two columns apart
    c
}

#[test]
fn one_routed_gate_list_gives_the_gate_by_gate_amplitudes_bit_for_bit() {
    let c = circuit();
    let queries = vec![vec![0; 9], vec![1, 0, 1, 0, 1, 0, 1, 0, 1], vec![1; 9]];
    let method = ContractionMethod::bmps(8);

    // The reference: the same simplified circuit, one engine call per gate.
    let (simplified, _) = simplify(&c);
    let update =
        UpdateMethod::QrSvd { truncation: Truncation::rank_and_tol(EVOLUTION_BOND, EVOLUTION_TOL) };
    let site = |q: usize| (q / 3, q % 3);
    let mut peps = Peps::computational_zeros(3, 3);
    let mut routed = 0;
    for gate in simplified.gates() {
        match gate {
            Gate::One { qubit, gate } => {
                apply_one_site(&mut peps, &gate.matrix(), site(*qubit)).unwrap()
            }
            Gate::Two { a, b, gate } => {
                let (sa, sb) = (site(*a), site(*b));
                routed += usize::from(sa.0.abs_diff(sb.0) + sa.1.abs_diff(sb.1) > 1);
                apply_two_site_any(&mut peps, &gate.matrix(), sa, sb, update).unwrap();
            }
        }
    }
    assert!(routed >= 3, "the simplified circuit must keep its routed pairs");
    let want = amplitude_batch(&peps, &queries, method, &mut StdRng::seed_from_u64(5)).unwrap();
    assert!(want.iter().any(|a| a.abs() > 1e-3), "a non-trivial state");

    let choice = BackendChoice::Fixed(Backend::Peps { evolution_bond: EVOLUTION_BOND, method });
    for threads in [1, 2, 4] {
        koala_exec::set_threads(threads);
        let got = amplitudes(&c, &queries, choice, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(got.max_bond, peps.max_bond(), "{threads} threads");
        for (i, (g, w)) in got.amplitudes.iter().zip(&want).enumerate() {
            assert_eq!(
                (g.re.to_bits(), g.im.to_bits()),
                (w.re.to_bits(), w.im.to_bits()),
                "{threads} threads, bitstring {i}: {g} vs {w}"
            );
        }
    }
}

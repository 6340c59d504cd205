//! `Circuit::apply_to_peps` runs the whole circuit as one gate list. Its
//! site tensors and its error must be the bits of applying the same gates
//! one at a time, at any executor thread count.

use koala_peps::{apply_one_site, apply_two_site, Peps, UpdateMethod};
use koala_sim::{random_circuit, CircuitOp};
use koala_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every real and imaginary part of every site, as bits.
fn bits(tensors: &[Tensor]) -> Vec<Vec<(u64, u64)>> {
    tensors
        .iter()
        .map(|t| t.data().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect())
        .collect()
}

#[test]
fn one_gate_list_is_the_gate_by_gate_evolution_bit_for_bit() {
    let circuit = random_circuit(4, 4, 8, 4, &mut StdRng::seed_from_u64(3));
    // Bond 8 truncates the second iSWAP layer, so the error is not zero.
    let method = UpdateMethod::qr_svd(8);

    let mut folded = Peps::computational_zeros(4, 4);
    let mut err_sq = 0.0;
    for op in circuit.ops() {
        match op {
            CircuitOp::OneSite { site, matrix } => {
                apply_one_site(&mut folded, matrix, *site).unwrap()
            }
            CircuitOp::TwoSite { site_a, site_b, matrix } => {
                let e = apply_two_site(&mut folded, matrix, *site_a, *site_b, method).unwrap();
                err_sq += e * e;
            }
        }
    }
    let folded_err: f64 = err_sq.sqrt();
    assert!(folded_err > 0.0, "bond 8 must truncate");

    for threads in [1, 2, 4] {
        koala_exec::set_threads(threads);
        let mut listed = Peps::computational_zeros(4, 4);
        let err = circuit.apply_to_peps(&mut listed, method).unwrap();
        assert_eq!(err.to_bits(), folded_err.to_bits(), "{threads} threads: error");
        assert_eq!(listed.tensors(), folded.tensors(), "{threads} threads: site tensors");
        assert!(bits(listed.tensors()) == bits(folded.tensors()), "{threads} threads: bits");
    }
}

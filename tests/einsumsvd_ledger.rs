//! MAC-ledger pin for the implicit `einsumsvd` method.
//!
//! The generic network operator absorbs the sketch block into the operands
//! in list order. That it contracts in the same sequence — same intermediate
//! shapes, hence the same multiply-add totals — as the two hand-written
//! operators it replaced (`ZipStepOp`, `TwoLayerStepOp`) is what keeps
//! Table II's complexity, and it is pinned here: the operator totals below
//! were recorded with those operators, on these shapes, before they were
//! deleted; the inner dense SVDs add their one GEMM each, written as a sum.
//! The all-real cases bill the same totals on the real kernel and not one
//! complex MAC.

use koala::exec::WorkMeter;
use koala::mps::{zip_up, Mpo, Mps, ZipUpMethod};
use koala::peps::two_layer::norm_sqr_two_layer;
use koala::peps::Peps;
use koala::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// MACs of the one GEMM a dense `m x n` SVD performs: the QR-preconditioned
/// Jacobi recovers its long factor as `Q J`, `max(m, n) x k` times `k x k`
/// with `k = min(m, n)`. The bare numbers below are the operator totals
/// recorded with the hand-written operators, when the SVD made no GEMM call.
const fn svd_gemm(m: u64, n: u64) -> u64 {
    let (k, long) = if m < n { (m, n) } else { (n, m) };
    k * k * long
}

/// 6-site chain, MPS bond 4, MPO bond 3, zipped to bond 5: the operator
/// total, plus the projected SVDs of the four implicit steps and the dense
/// SVD of the last site.
const ZIP_MACS: u64 = 50_660
    + svd_gemm(24, 2)
    + svd_gemm(24, 4)
    + svd_gemm(24, 8)
    + svd_gemm(24, 10)
    + svd_gemm(2, 2);
/// 3x3 PEPS of bond 3, boundary bond 4 (truncating) and 81 (not): the
/// operator totals plus the inner SVDs of the two zip-up sweeps.
const TWO_LAYER_MACS_M4: u64 =
    2_079_113 + svd_gemm(729, 9) + svd_gemm(9, 9) + svd_gemm(36, 1) + svd_gemm(1, 1);
const TWO_LAYER_MACS_M81: u64 =
    2_336_153 + svd_gemm(729, 9) + svd_gemm(9, 9) + svd_gemm(81, 1) + svd_gemm(1, 1);

/// `(complex, real)` MACs billed by `f`.
fn macs<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    let meter = WorkMeter::new();
    meter.scope(f);
    (meter.complex_macs(), meter.real_macs())
}

/// Open-boundary chain shapes `[l, mid.., r]` with bond `b`.
fn chain(n: usize, mid: &[usize], b: usize, rng: &mut StdRng) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            let mut shape = vec![if i == 0 { 1 } else { b }];
            shape.extend_from_slice(mid);
            shape.push(if i == n - 1 { 1 } else { b });
            Tensor::random_real(&shape, rng)
        })
        .collect()
}

fn real_peps(n: usize, b: usize, rng: &mut StdRng) -> Peps {
    let bond = |at_edge: bool| if at_edge { 1 } else { b };
    let tensors = (0..n * n)
        .map(|i| {
            let (r, c) = (i / n, i % n);
            let shape = [2, bond(r == 0), bond(c == 0), bond(r == n - 1), bond(c == n - 1)];
            Tensor::random_real(&shape, rng)
        })
        .collect();
    Peps::new(n, n, tensors).unwrap()
}

#[test]
fn implicit_zip_up_bills_the_hand_written_operators_macs() {
    let mut rng = StdRng::seed_from_u64(101);
    let mps = Mps::random(6, 2, 4, &mut rng);
    let mpo = Mpo::random(6, 2, 3, &mut rng);
    let method = ZipUpMethod::implicit_default();
    assert_eq!(macs(|| zip_up(&mps, &mpo, 5, method, &mut rng).unwrap()), (ZIP_MACS, 0));

    let mps = Mps::new(chain(6, &[2], 4, &mut rng)).unwrap();
    let mpo = Mpo::new(chain(6, &[2, 2], 3, &mut rng)).unwrap();
    assert_eq!(macs(|| zip_up(&mps, &mpo, 5, method, &mut rng).unwrap()), (0, ZIP_MACS));
}

#[test]
fn implicit_two_layer_norm_bills_the_hand_written_operators_macs() {
    let mut rng = StdRng::seed_from_u64(606);
    let peps = Peps::random(3, 3, 2, 3, &mut rng);
    let method = ZipUpMethod::implicit_default();
    for (max_bond, want) in [(4, TWO_LAYER_MACS_M4), (81, TWO_LAYER_MACS_M81)] {
        let got = macs(|| norm_sqr_two_layer(&peps, max_bond, method, &mut rng).unwrap());
        assert_eq!(got, (want, 0), "boundary bond {max_bond}");
    }
    let peps = real_peps(3, 3, &mut rng);
    let got = macs(|| norm_sqr_two_layer(&peps, 4, method, &mut rng).unwrap());
    assert_eq!(got, (0, TWO_LAYER_MACS_M4));
}

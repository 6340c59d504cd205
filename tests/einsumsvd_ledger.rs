//! MAC-ledger pin for the implicit `einsumsvd` method.
//!
//! The generic network operator absorbs the sketch block into the operands
//! in list order. That it contracts in the same sequence — same intermediate
//! shapes, hence the same multiply-add totals — as the two hand-written
//! operators it replaced (`ZipStepOp`, `TwoLayerStepOp`) is what keeps
//! Table II's complexity; their recorded totals anchor the numbers below.
//! The inner dense SVDs add their one GEMM each, written as a sum: `k x k`
//! wide for a full SVD. A split that keeps fewer triplets than theta has
//! bills none: its long factor is the Householder reflectors of its QR
//! applied to the kept vectors, lane-kernel work and not a GEMM.
//!
//! A step whose sketch would span theta's narrow side takes the exact route
//! and bills its `theta` einsum and the GEMM of theta's SVD instead. Every
//! step of the first zip-up and of the two-layer norms does; the sketched
//! zip-up keeps every sketch narrower than theta and pins the operator. The
//! all-real cases bill the same totals on the real kernel and not one
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
/// with `k = min(m, n)`. In a sketched step the SVD is of the `cols x l`
/// sketch `theta^H P`; on the exact route it is of theta itself.
const fn svd_gemm(m: u64, n: u64) -> u64 {
    let (k, long) = if m < n { (m, n) } else { (n, m) };
    k * k * long
}

/// 6-site chain, MPS bond 4, MPO bond 3, zipped to bond 5. Every step's
/// theta has at most 10 rows, which rank + 10 oversamples span, so all five
/// go exact: `zip_start`'s 48 MACs, then per step the theta einsum (the
/// boundary of bond `l` absorbs S, then O: 480 `l`; at the last site S and O
/// meet first: 288) and the SVD of the `2l x 24` theta (`10 x 2` at the
/// last site). Only the `10 x 24` theta has `k >= 10` and more than 5
/// triplets, so it alone is kept to 5 on the leading route, which bills no
/// GEMM.
const ZIP_MACS: u64 = 48
    + 480 * (1 + 2 + 4 + 5)
    + 288
    + svd_gemm(2, 24)
    + svd_gemm(4, 24)
    + svd_gemm(8, 24)
    + svd_gemm(10, 2);
/// 5-site chain of physical dimension 16, MPS bond 4, MPO bond 2, zipped to
/// bond 4: every theta is at least 16 wide, so every step draws a 14-column
/// sketch. `zip_start`, the operator of each step, and the inner SVDs of
/// the sketches (the last step's theta has 16 columns).
const SKETCHED_ZIP_MACS: u64 =
    2_048 + 398_720 + 2 * 433_664 + 100_352 + 3 * svd_gemm(128, 14) + svd_gemm(16, 14);
/// 3x3 PEPS of bond 3, boundary bond 4 (truncating) and 81 (not). Every
/// theta of the two zip-up sweeps is at most 9 wide, so all four steps go
/// exact and bill a theta einsum plus theta's SVD. The first term is what
/// the contraction bills outside the steps (row 0, the first column of
/// each row, the closing contraction), recorded as the sketched totals
/// less their steps' billing.
const TWO_LAYER_MACS_M4: u64 = 8_049
    + 603_612
    + 32_076
    + 3_888
    + 450
    + svd_gemm(9, 729)
    + svd_gemm(36, 9)
    + svd_gemm(1, 36)
    + svd_gemm(1, 1);
const TWO_LAYER_MACS_M81: u64 = 8_589
    + 603_612
    + 64_881
    + 16_038
    + 909
    + svd_gemm(9, 729)
    + svd_gemm(81, 9)
    + svd_gemm(1, 81)
    + svd_gemm(1, 1);

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
fn sketched_zip_up_bills_the_network_operators_macs() {
    let mut rng = StdRng::seed_from_u64(202);
    let method = ZipUpMethod::implicit_default();
    let mps = Mps::random(5, 16, 4, &mut rng);
    let mpo = Mpo::random(5, 16, 2, &mut rng);
    let got = macs(|| zip_up(&mps, &mpo, 4, method, &mut rng).unwrap());
    assert_eq!(got, (SKETCHED_ZIP_MACS, 0));

    let mps = Mps::new(chain(5, &[16], 4, &mut rng)).unwrap();
    let mpo = Mpo::new(chain(5, &[16, 16], 2, &mut rng)).unwrap();
    let got = macs(|| zip_up(&mps, &mpo, 4, method, &mut rng).unwrap());
    assert_eq!(got, (0, SKETCHED_ZIP_MACS));
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

//! Exact GEMM billing on products that span several macro-tiles: the
//! per-tile, per-depth-block MAC credits must add up to exactly `m * n * k`
//! on the kernel that ran, and the interface bytes are billed once per
//! product — to a scoped [`WorkMeter`], and only to work inside the scope.

use koala_linalg::matmul;
use koala_linalg::{Matrix, WorkMeter};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn multi_tile_products_bill_exactly_to_a_scoped_meter() {
    let mut rng = StdRng::seed_from_u64(45);
    // 2 x 2 macro-tiles and 2 depth blocks on either blocking
    // (MC = 192 / MC_REAL = 256, NC = 512, KC = 256).
    for (real, (m, n, k)) in [(false, (256usize, 640usize, 320usize)), (true, (320, 640, 320))] {
        let (a, b) = if real {
            (Matrix::random_real(m, k, &mut rng), Matrix::random_real(k, n, &mut rng))
        } else {
            (Matrix::random(m, k, &mut rng), Matrix::random(k, n, &mut rng))
        };
        let meter = WorkMeter::new();
        let _outside = matmul(&a, &b);
        assert!(meter.ledger().is_zero(), "unscoped work must not bill a private meter");
        let inside = meter.scope(|| matmul(&a, &b));
        assert_eq!(inside.is_real(), real, "the product carries the hint iff both operands do");
        let ledger = meter.ledger();
        let macs = (m * n * k) as u64;
        let expect = if real { (0, macs) } else { (macs, 0) };
        assert_eq!((ledger.complex_macs, ledger.real_macs), expect, "MACs of {m}x{k}x{n}");
        assert_eq!(
            ledger.bytes,
            ((m * k + k * n + m * n) * 16) as u64,
            "bytes of {m}x{k}x{n} must be the GEMM interface traffic"
        );
    }
}

//! Bit-identity pin for the three dense factorizations.
//!
//! `svd`, `qr` and `eigh` are each one generic algorithm instantiated at
//! `f64` (inputs carrying the realness hint) and at `C64` (everything else).
//! This test hashes every output bit of both instantiations over the shape
//! classes `properties.rs` uses and compares against a recorded table, so
//! any change to a tolerance, a rotation formula or a summation order shows
//! up here as a changed digest, for review.
//!
//! The `qr` and `eigh` rows were recorded at the last commit that still had
//! the hand-written real/complex twins (`1d56763`): the generic code
//! reproduces both twins exactly, and `qr` still does after its Gram-Schmidt
//! loop was split so the SVD could share it. The `svd` rows were re-recorded
//! deliberately when the Jacobi SVD became QR-preconditioned (a different
//! algorithm: the sweeps run on the triangular factor); the table they
//! replaced is the one at `7f0683a`.
//!
//! The inputs are built with plain loops (no GEMM), so the `f64` rows of
//! `qr` and `eigh` depend only on IEEE `+ - * / sqrt`, and their `C64` rows
//! also on libm's `hypot`/`atan2`/`sin`/`cos` (the rotation phase). The `svd`
//! rows end in one GEMM (`Q J`), whose microkernel fuses multiply-adds
//! exactly when the build's target has `fma` (`.cargo/config.toml` builds
//! for the host CPU); they were recorded on a host that has it.
//!
//! Regenerating: a mismatch prints the full computed table in source form.

use koala_linalg::{eigh, qr, svd, Matrix, C64};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the little-endian bytes of each `f64::to_bits`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn real(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn reals(&mut self, xs: &[f64]) {
        self.real(xs.len() as f64);
        xs.iter().for_each(|&x| self.real(x));
    }

    fn matrix(&mut self, m: &Matrix) {
        self.real(m.nrows() as f64);
        self.real(m.ncols() as f64);
        for z in m.data() {
            self.real(z.re);
            self.real(z.im);
        }
    }
}

/// `A B` by the textbook triple loop, in a fixed summation order.
fn naive_product(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            c[(i, j)] = (0..k).map(|l| a[(i, l)] * b[(l, j)]).sum::<C64>();
        }
    }
    c
}

/// `A^H A` by the same loop: Hermitian to the bit, rank `min(m, n)`.
fn naive_gram(a: &Matrix) -> Matrix {
    let (m, n) = a.shape();
    let mut g = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            g[(i, j)] = (0..m).map(|l| a[(l, i)].conj() * a[(l, j)]).sum::<C64>();
        }
    }
    g
}

/// The shape classes, drawn real (`hinted`) or complex from one seed.
fn cases(hinted: bool) -> Vec<(&'static str, Matrix)> {
    let mut rng = StdRng::seed_from_u64(if hinted { 0xD16E_57A1 } else { 0xD16E_57A2 });
    let mut draw = |m: usize, n: usize| {
        if hinted {
            Matrix::random_real(m, n, &mut rng)
        } else {
            Matrix::random(m, n, &mut rng)
        }
    };
    let tall = draw(24, 6);
    let wide = draw(5, 17);
    let square = draw(9, 9);
    let rank_deficient = naive_product(&draw(12, 3), &draw(3, 8));
    let one_by_one = draw(1, 1);
    let mut zero_column = draw(8, 5);
    for i in 0..8 {
        zero_column[(i, 2)] = C64::ZERO;
    }
    vec![
        ("tall", tall),
        ("wide", wide),
        ("square", square),
        ("rank_deficient", rank_deficient),
        ("one_by_one", one_by_one),
        ("zero_column", zero_column),
    ]
}

/// Digests recorded on x86-64 Linux/glibc, debug and release builds
/// agreeing: `qr`/`eigh` at `1d56763` (the parent of the generic rewrite),
/// `svd` with the QR-preconditioned Jacobi.
const RECORDED: &[(&str, u64)] = &[
    ("svd/f64/tall", 0x54236f50df046e11),
    ("qr/f64/tall", 0x865154447457d9f1),
    ("eigh/f64/tall", 0x325b933ef309ce24),
    ("svd/f64/wide", 0xde4ee77c4145cf94),
    ("qr/f64/wide", 0xf76b08ce4c7c38e8),
    ("eigh/f64/wide", 0x2013d9b2ccac0fcf),
    ("svd/f64/square", 0x1e169819cc718bc7),
    ("qr/f64/square", 0xb4e62a625e569780),
    ("eigh/f64/square", 0x52f3d749ae5f9554),
    ("svd/f64/rank_deficient", 0x7171a43d04381813),
    ("qr/f64/rank_deficient", 0xfa16f6ab2bb4bd37),
    ("eigh/f64/rank_deficient", 0x2e435f85b49ee359),
    ("svd/f64/one_by_one", 0x785727ee980c9fed),
    ("qr/f64/one_by_one", 0xe0b41f308e3cc145),
    ("eigh/f64/one_by_one", 0xef19d90c164d42f0),
    ("svd/f64/zero_column", 0xe4e8de31c5ca6b12),
    ("qr/f64/zero_column", 0x20d567464cb50f81),
    ("eigh/f64/zero_column", 0xf1c5287702fc5a6d),
    ("svd/c64/tall", 0xe3d750f9d392754b),
    ("qr/c64/tall", 0x32cb7b06d3533455),
    ("eigh/c64/tall", 0x352cb8fe287aab76),
    ("svd/c64/wide", 0x9b42f57163bf2efb),
    ("qr/c64/wide", 0x7f453b50bae4aa7c),
    ("eigh/c64/wide", 0x68a1af534da03865),
    ("svd/c64/square", 0xfd435720731b63f6),
    ("qr/c64/square", 0x1d2e7eeac0d315b9),
    ("eigh/c64/square", 0x90cbe08f392c0149),
    ("svd/c64/rank_deficient", 0x7898cd8f915f2dca),
    ("qr/c64/rank_deficient", 0x3631f2c5cf2b2f45),
    ("eigh/c64/rank_deficient", 0xe7c9f88f0d1e9d91),
    ("svd/c64/one_by_one", 0x5c5c25ecb41642f4),
    ("qr/c64/one_by_one", 0x552e35c8953736bc),
    ("eigh/c64/one_by_one", 0xeabe2281e43f9807),
    ("svd/c64/zero_column", 0xe65984e2dbced221),
    ("qr/c64/zero_column", 0x805c8df70ba368fc),
    ("eigh/c64/zero_column", 0xac47b6a0ef8d1953),
];

#[test]
fn factorizations_reproduce_the_recorded_bits_in_both_instantiations() {
    let mut computed: Vec<(String, u64)> = Vec::new();
    for hinted in [true, false] {
        let inst = if hinted { "f64" } else { "c64" };
        for (label, mut a) in cases(hinted) {
            // The element-wise builders drop the hint, which is what selects
            // the instantiation; real draws get it back by a scan.
            let mut g = naive_gram(&a);
            if hinted {
                assert!(a.mark_real_if_exact() && g.mark_real_if_exact(), "{label}: not real");
            }
            assert_eq!((a.is_real(), g.is_real()), (hinted, hinted), "{label}: wrong hint");

            let f = svd(&a).unwrap();
            let mut d = Fnv::new();
            d.matrix(&f.u);
            d.reals(&f.s);
            d.matrix(&f.vh);
            computed.push((format!("svd/{inst}/{label}"), d.0));

            let f = qr(&a);
            let mut d = Fnv::new();
            d.matrix(&f.q);
            d.matrix(&f.r);
            computed.push((format!("qr/{inst}/{label}"), d.0));

            let e = eigh(&g).unwrap();
            let mut d = Fnv::new();
            d.reals(&e.values);
            d.matrix(&e.vectors);
            computed.push((format!("eigh/{inst}/{label}"), d.0));
        }
    }
    let matches = computed.len() == RECORDED.len()
        && computed.iter().zip(RECORDED).all(|((k, v), (rk, rv))| k == rk && v == rv);
    if !matches {
        let table: String =
            computed.iter().map(|(k, v)| format!("    (\"{k}\", {v:#018x}),\n")).collect();
        panic!("factorization digests differ from the recorded table; computed:\n{table}");
    }
}

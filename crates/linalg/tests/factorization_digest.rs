//! Bit-identity pin for the three dense factorizations.
//!
//! `svd`, `qr` and `eigh` are each one generic algorithm instantiated at
//! `f64` (inputs carrying the realness hint) and at `C64` (everything else).
//! This test hashes every output bit of both instantiations over the shape
//! classes `properties.rs` uses and compares against a recorded table, so
//! any change to a tolerance, a rotation formula or a summation order shows
//! up here as a changed digest, for review. In the two power-of-two
//! classes (512 x 16 and 256 x 64) the factorization buffer pads every
//! column stride but the real 256-entry one off a multiple of 4 KiB; their
//! rows were recorded on the unpadded layout, so they also pin that the
//! padding moves no bit.
//!
//! The table was last re-recorded when Gram-Schmidt and the one-sided
//! Jacobi moved onto the 8-lane vector kernels of `lanes.rs` (split real and
//! imaginary planes, one accumulator per product term, a fixed reduction
//! tree), which changed the summation order of every `qr` and `svd` row, and
//! when the rotation phase of the `C64` instantiation became `conj(z) / |z|`
//! instead of `cis(-arg z)`, which changed the `C64` rows of `eigh`. The
//! `f64` rows of `eigh` (no kernel, sign phase) and the `one_by_one` rows
//! (no sum longer than one term) did not move.
//!
//! The inputs are built with plain loops (no GEMM), so every row depends
//! only on IEEE `+ - * / sqrt` and fused multiply-adds, and the `C64` rows
//! also on libm's `hypot` (the modulus of a rotation's off-diagonal entry),
//! no longer on its `atan2`/`sin`/`cos`. The factorization kernels
//! and the GEMM microkernel (the `svd` rows end in one GEMM, `Q J`) exist as
//! AVX-512F intrinsics and as portable loops that give the same bits, so one
//! table holds on both paths: CI checks it natively and at
//! `target-cpu=x86-64-v3`. Both paths fuse multiply-adds only when the
//! target has `fma` (`.cargo/config.toml` builds for the host CPU); the
//! table was recorded on a host that has it.
//!
//! A second table pins the leading-triplets route, `svd_leading`, at the
//! workload shapes it serves (the `contract_bmps` zip-up theta both ways
//! round, the `evolve_tebd` bond theta, and a rank-6 long side), in both
//! instantiations. It runs the Householder QR, the bidiagonalization and
//! the long factor on the row-offset lane kernels, so the CI run at
//! `x86-64-v3` checks those kernels' portable path against the AVX-512F
//! one that recorded it.
//!
//! Regenerating: a mismatch prints the full computed table in source form.

use koala_linalg::{eigh, qr, svd, svd_leading, Matrix, C64};
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
    let tall_pow2 = draw(512, 16);
    let block_pow2 = draw(256, 64);
    vec![
        ("tall", tall),
        ("wide", wide),
        ("square", square),
        ("rank_deficient", rank_deficient),
        ("one_by_one", one_by_one),
        ("zero_column", zero_column),
        ("tall_pow2", tall_pow2),
        ("block_pow2", block_pow2),
    ]
}

/// Digests recorded on x86-64 Linux/glibc, debug and release builds and the
/// AVX-512F and portable kernel paths agreeing.
const RECORDED: &[(&str, u64)] = &[
    ("svd/f64/tall", 0xb171ea5c4c20861e),
    ("qr/f64/tall", 0x8459351f71da33fb),
    ("eigh/f64/tall", 0x325b933ef309ce24),
    ("svd/f64/wide", 0xf29266acdff2491b),
    ("qr/f64/wide", 0x2930af87b202f94e),
    ("eigh/f64/wide", 0x2013d9b2ccac0fcf),
    ("svd/f64/square", 0x228c763edfea35da),
    ("qr/f64/square", 0x2554a0471f4745aa),
    ("eigh/f64/square", 0x52f3d749ae5f9554),
    ("svd/f64/rank_deficient", 0xee5abca01985b896),
    ("qr/f64/rank_deficient", 0x82417c17483137f6),
    ("eigh/f64/rank_deficient", 0x2e435f85b49ee359),
    ("svd/f64/one_by_one", 0x785727ee980c9fed),
    ("qr/f64/one_by_one", 0xe0b41f308e3cc145),
    ("eigh/f64/one_by_one", 0xef19d90c164d42f0),
    ("svd/f64/zero_column", 0xfc40daae06578c7d),
    ("qr/f64/zero_column", 0x99194c670d557fd1),
    ("eigh/f64/zero_column", 0xf1c5287702fc5a6d),
    ("svd/f64/tall_pow2", 0xf8300633b8cc8e68),
    ("qr/f64/tall_pow2", 0x246443638b0287fa),
    ("eigh/f64/tall_pow2", 0xd194ef93884baf0f),
    ("svd/f64/block_pow2", 0x38e89e6295483df9),
    ("qr/f64/block_pow2", 0xee991915c7131ac6),
    ("eigh/f64/block_pow2", 0xb363fd18d0d79b8b),
    ("svd/c64/tall", 0x94abef805de9bd13),
    ("qr/c64/tall", 0x81f210b903609c19),
    ("eigh/c64/tall", 0x1f542968ac1b23de),
    ("svd/c64/wide", 0x906bc7e91324bc90),
    ("qr/c64/wide", 0xfa47512709889d08),
    ("eigh/c64/wide", 0x8df2cd278921fdfa),
    ("svd/c64/square", 0x68b1ccdbcb62d3eb),
    ("qr/c64/square", 0x45fa325b7c66f419),
    ("eigh/c64/square", 0xc84a51e81628fcfa),
    ("svd/c64/rank_deficient", 0x41d689613debd724),
    ("qr/c64/rank_deficient", 0x2969b22fe2c2dd82),
    ("eigh/c64/rank_deficient", 0x83ae5598ef51f5bb),
    ("svd/c64/one_by_one", 0x5c5c25ecb41642f4),
    ("qr/c64/one_by_one", 0x552e35c8953736bc),
    ("eigh/c64/one_by_one", 0xeabe2281e43f9807),
    ("svd/c64/zero_column", 0x949f743632dfb297),
    ("qr/c64/zero_column", 0x93b8d0866d9d7994),
    ("eigh/c64/zero_column", 0xc55b565c6be3c2b3),
    ("svd/c64/tall_pow2", 0x5d717a544c066100),
    ("qr/c64/tall_pow2", 0x77f1191cc5e5129a),
    ("eigh/c64/tall_pow2", 0x1fea7a0ef1778f10),
    ("svd/c64/block_pow2", 0xfbc1a68b03206de2),
    ("qr/c64/block_pow2", 0x0b4e0cc0942b57ad),
    ("eigh/c64/block_pow2", 0x3b22f9782b2ab10e),
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

/// The leading-route shapes, `(label, input, keep)`, drawn real (`hinted`)
/// or complex from one seed.
fn leading_cases(hinted: bool) -> Vec<(&'static str, Matrix, usize)> {
    let mut rng = StdRng::seed_from_u64(if hinted { 0x1EAD_0001 } else { 0x1EAD_0002 });
    let mut draw = |m: usize, n: usize| {
        if hinted {
            Matrix::random_real(m, n, &mut rng)
        } else {
            Matrix::random(m, n, &mut rng)
        }
    };
    let wide = draw(49, 343);
    let tall = draw(343, 49);
    let square = draw(32, 32);
    let rank6 = naive_product(&draw(32, 6), &draw(6, 512));
    vec![("wide_bmps", wide, 7), ("tall_bmps", tall, 7), ("tebd", square, 8), ("rank6", rank6, 8)]
}

/// Leading-route digests recorded on x86-64 Linux/glibc, the AVX-512F and
/// portable kernel paths agreeing.
const RECORDED_LEADING: &[(&str, u64)] = &[
    ("svd_leading/f64/wide_bmps", 0x85d1c78d48821784),
    ("svd_leading/f64/tall_bmps", 0x84a2c070796cdaeb),
    ("svd_leading/f64/tebd", 0x6843602121393690),
    ("svd_leading/f64/rank6", 0x9c20f9edad7a7ceb),
    ("svd_leading/c64/wide_bmps", 0xb7f1d6eae5244b9a),
    ("svd_leading/c64/tall_bmps", 0x4953ff04a18afb48),
    ("svd_leading/c64/tebd", 0x6cc352412c7d0a8c),
    ("svd_leading/c64/rank6", 0x0d9a52530139e598),
];

#[test]
fn leading_route_reproduces_the_recorded_bits_in_both_instantiations() {
    let mut computed: Vec<(String, u64)> = Vec::new();
    for hinted in [true, false] {
        let inst = if hinted { "f64" } else { "c64" };
        for (label, mut a, keep) in leading_cases(hinted) {
            if hinted {
                assert!(a.mark_real_if_exact(), "{label}: not real");
            }
            assert_eq!(a.is_real(), hinted, "{label}: wrong hint");
            let (f, err) = svd_leading(a, |_: &[f64]| keep).unwrap();
            let mut d = Fnv::new();
            d.matrix(&f.u);
            d.reals(&f.s);
            d.matrix(&f.vh);
            d.real(err);
            computed.push((format!("svd_leading/{inst}/{label}"), d.0));
        }
    }
    let matches = computed.len() == RECORDED_LEADING.len()
        && computed.iter().zip(RECORDED_LEADING).all(|((k, v), (rk, rv))| k == rk && v == rv);
    if !matches {
        let table: String =
            computed.iter().map(|(k, v)| format!("    (\"{k}\", {v:#018x}),\n")).collect();
        panic!("leading-route digests differ from the recorded table; computed:\n{table}");
    }
}

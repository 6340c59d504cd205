//! Quickstart: mirrors the example listing of paper §V-A.
//!
//! Creates a 2x3 PEPS, applies one-site and two-site operators with the
//! QR-SVD update, and computes an expectation value with IBMPS contraction
//! and intermediate caching.
//!
//! Run with: `cargo run --release --example quickstart`

use koala::peps::operators::Observable;
use koala::peps::{apply_one_site, apply_two_site, Peps, UpdateMethod};
use koala::peps::{expectation_normalized, ExpectationOptions};
use koala::sim::gates::{cnot, hadamard};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // Create a 2-by-3 PEPS in the |000000> state (the paper's
    // `peps.computational_zeros(nrow=2, ncol=3)`).
    let mut qstate = Peps::computational_zeros(2, 3);
    println!(
        "created a {}x{} PEPS with {} sites",
        qstate.nrows(),
        qstate.ncols(),
        qstate.num_sites()
    );

    // Apply a one-site and a two-site operator with the QR-SVD update
    // (`qstate.apply_operator(Y, [1])` / `qstate.apply_operator(CX, [1,4], QRUpdate(rank=2))`).
    apply_one_site(&mut qstate, &hadamard(), (0, 1)).expect("one-site gate failed");
    apply_two_site(&mut qstate, &cnot(), (0, 1), (1, 1), UpdateMethod::qr_svd(2))
        .expect("two-site gate failed");
    println!("applied H on site (0,1) and CNOT on (0,1)-(1,1); max bond = {}", qstate.max_bond());

    // Calculate an expectation value with IBMPS contraction and caching
    // (`H = Observable.ZZ(3, 4) + 0.2 * Observable.X(1)`).
    let h = Observable::zz((1, 0), (1, 1)) + 0.2 * Observable::x((0, 1));
    let energy = expectation_normalized(&qstate, &h, ExpectationOptions::ibmps_cached(4), &mut rng)
        .expect("expectation failed");
    println!("<psi| ZZ(1,0)(1,1) + 0.2 X(0,1) |psi> / <psi|psi> = {:.6}", energy.re);

    // Cross-check against the exact state-vector value for this small lattice.
    let mut sv = koala::sim::StateVector::computational_zeros(2, 3);
    sv.apply_one_site(&hadamard(), (0, 1));
    sv.apply_two_site(&cnot(), (0, 1), (1, 1));
    let exact = sv.expectation(&h);
    println!("exact state-vector value                          = {exact:.6}");
    assert!((energy.re - exact).abs() < 1e-6, "PEPS and state vector disagree");
    println!("PEPS and state-vector values agree to 1e-6 — quickstart OK");
}

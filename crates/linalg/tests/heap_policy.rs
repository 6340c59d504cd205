//! The process heap policy of `koala-exec` (crate doc, "Heap policy"):
//! once a pool exists, a warm factorization must not fault its transients
//! in from the kernel again. Without the policy glibc trims the freed top of
//! the main arena after every call and the next call faults it back page by
//! page: about 100 minor faults per complex 49x343 SVD (the zip-up theta of
//! `contract_bmps`) and 170 per real 54x486 one.
//!
//! Minor faults are counted per process, so this binary runs alone and
//! without the libtest harness (`harness = false` in `Cargo.toml`): libtest
//! runs every `#[test]` on a thread of its own arena, and only the main
//! thread, the caller of every single-threaded program, sees the storm. A
//! second check runs on a thread that allocated before the pool existed,
//! whose arena was sized before the policy: pinning the top pad alone would
//! freeze glibc's `mmap` threshold at 128 KiB there and `mmap` every theta.

use koala_linalg::{svd, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;

const WARM_CALLS: usize = 3;
const MEASURED_CALLS: u64 = 50;
const MAX_FAULTS_PER_CALL: u64 = 2;

/// Minor page faults of this process so far: field 10 of `/proc/self/stat`.
/// The command name (field 2) may hold spaces, so count from its `)`.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    let after_comm = &stat[stat.rfind(')').unwrap() + 1..];
    after_comm.split_whitespace().nth(7).unwrap().parse().unwrap()
}

/// Assert that [`MEASURED_CALLS`] warm `svd(a)` calls fault at most
/// [`MAX_FAULTS_PER_CALL`] pages each.
fn check_warm_svd(a: &Matrix, thread: &str) {
    for _ in 0..WARM_CALLS {
        svd(a).unwrap();
    }
    let before = minor_faults();
    for _ in 0..MEASURED_CALLS {
        svd(a).unwrap();
    }
    let faults = minor_faults() - before;
    let kind = if a.is_real() { "real" } else { "complex" };
    let (m, n) = a.shape();
    println!(
        "{thread}: {:.2} minor faults per warm svd of a {m}x{n} {kind} matrix",
        faults as f64 / MEASURED_CALLS as f64
    );
    assert!(
        faults <= MAX_FAULTS_PER_CALL * MEASURED_CALLS,
        "{thread}: {faults} minor faults over {MEASURED_CALLS} warm svd calls of a {m}x{n} {kind} matrix"
    );
}

fn check_thetas(thread: &str) {
    let mut rng = StdRng::seed_from_u64(36);
    check_warm_svd(&Matrix::random(49, 343, &mut rng), thread);
    check_warm_svd(&Matrix::random_real(54, 486, &mut rng), thread);
}

fn main() {
    if !cfg!(all(target_os = "linux", target_env = "gnu")) {
        println!("heap_policy: the heap policy is a no-op off linux-gnu; nothing to check");
        return;
    }
    let (start, started) = mpsc::channel::<()>();
    let older = std::thread::spawn(move || {
        // Allocate first, so this thread's arena predates the policy.
        drop(std::hint::black_box(vec![0u8; 1 << 10]));
        started.recv().unwrap();
        check_thetas("thread older than the pool");
    });
    koala_exec::pool();
    check_thetas("main thread");
    start.send(()).unwrap();
    older.join().unwrap();
    println!("heap_policy: ok");
}

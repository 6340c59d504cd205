//! Executor determinism suite: einsum execution on the `koala-exec` task
//! graph must be a pure scheduling change. For random specs and shapes,
//! sweeping the global pool over 1/2/4/8 threads must produce
//!
//! * **bit-identical** output tensors (same bytes, not just approximately
//!   equal — accumulation order is fixed by dependency edges, never by the
//!   schedule),
//! * identical complex / real MAC ledgers on a scoped `WorkMeter` (billing is exact
//!   under concurrency; atomic adds commute),
//! * identical realness hints on the outputs (the real-path dispatch
//!   decision depends on data, not on the schedule).
//!
//! The sweep includes contractions far above the GEMM `PAR_THRESHOLD`
//! (`64^3` MACs) so the macro-tile task-graph path — shared packed panels,
//! chained depth-block accumulation — actually engages, and multi-step
//! specs so `Plan`'s step-DAG path engages too.

use koala_exec::WorkMeter;
use koala_tensor::{einsum, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// The executor pool and the billing counters are process-wide; serialize
/// the tests in this binary.
static SERIAL: Mutex<()> = Mutex::new(());

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Exact byte-level equality of tensor contents and metadata.
fn assert_bit_identical(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shapes differ");
    assert_eq!(a.is_real(), b.is_real(), "{what}: realness hints differ");
    for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: element {i} differs bitwise: {x:?} vs {y:?}"
        );
    }
}

/// Run `spec` on `operands` once per thread count and demand bit-identical
/// results and exactly equal counter deltas.
fn sweep(spec: &str, operands: &[Tensor]) {
    let refs: Vec<&Tensor> = operands.iter().collect();
    let mut reference: Option<(Tensor, u64, u64)> = None;
    for &threads in &THREAD_SWEEP {
        koala_exec::set_threads(threads);
        let meter = WorkMeter::new();
        let out = meter.scope(|| einsum(spec, &refs)).unwrap();
        let (df, dr) = (meter.complex_macs(), meter.real_macs());
        match &reference {
            None => reference = Some((out, df, dr)),
            Some((expected, ef, er)) => {
                assert_bit_identical(
                    &out,
                    expected,
                    &format!("spec '{spec}' at {threads} threads"),
                );
                assert_eq!(df, *ef, "spec '{spec}': complex-MAC billing varies with threads");
                assert_eq!(dr, *er, "spec '{spec}': real-MAC billing varies with threads");
            }
        }
    }
    koala_exec::set_threads(1);
}

/// Big single contraction: work far above `PAR_THRESHOLD` so the GEMM tile
/// graph engages, swept over thread counts.
#[test]
fn large_matmul_is_bit_identical_across_threads() {
    let _guard = SERIAL.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    let a = Tensor::random(&[96, 112], &mut rng);
    let b = Tensor::random(&[112, 88], &mut rng);
    sweep("ij,jk->ik", &[a, b]);
}

/// Same, on hinted-real operands: the real microkernel path must be just as
/// deterministic and bill real MACs identically at every thread count (and
/// complex MACs identically, namely not at all).
#[test]
fn large_real_matmul_is_bit_identical_across_threads() {
    let _guard = SERIAL.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(0xFEED);
    let a = Tensor::random_real(&[96, 96], &mut rng);
    let b = Tensor::random_real(&[96, 96], &mut rng);
    assert!(a.is_real() && b.is_real());
    sweep("ij,jk->ik", &[a, b]);
}

/// Multi-step network (several pairwise contractions): `Plan::execute`
/// lowers independent steps onto the executor; the step DAG must hand the
/// same intermediates to the same contractions in every schedule.
#[test]
fn multi_step_network_is_bit_identical_across_threads() {
    let _guard = SERIAL.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let w = Tensor::random(&[40, 48], &mut rng);
    let x = Tensor::random(&[48, 40], &mut rng);
    let y = Tensor::random(&[40, 56], &mut rng);
    let z = Tensor::random(&[56, 40], &mut rng);
    sweep("ij,jk,kl,lm->im", &[w, x, y, z]);
}

/// Randomized sweep over small networks (the same generator family as the
/// plan-cache property tests): every spec must be schedule-independent.
#[test]
fn random_specs_are_bit_identical_across_threads() {
    let _guard = SERIAL.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _case in 0..40 {
        let (spec, operands) = random_network(&mut rng);
        sweep(&spec, &operands);
    }
}

/// Generate a random valid tensor-network spec (every label free once or
/// contracted twice) together with matching random operands — operands are
/// randomly real-hinted to exercise both kernels.
fn random_network(rng: &mut StdRng) -> (String, Vec<Tensor>) {
    let n_ops = rng.gen_range(1..5);
    let mut op_labels: Vec<Vec<char>> = vec![Vec::new(); n_ops];
    let mut next = b'a';
    let mut dims: Vec<(char, usize)> = Vec::new();
    let mut fresh = |dims: &mut Vec<(char, usize)>, rng: &mut StdRng| {
        let c = next as char;
        next += 1;
        dims.push((c, rng.gen_range(1..5)));
        c
    };

    if n_ops >= 2 {
        for _ in 0..rng.gen_range(0..5) {
            let i = rng.gen_range(0..n_ops);
            let mut j = rng.gen_range(0..n_ops - 1);
            if j >= i {
                j += 1;
            }
            if op_labels[i].len() >= 3 || op_labels[j].len() >= 3 {
                continue;
            }
            let c = fresh(&mut dims, rng);
            op_labels[i].push(c);
            op_labels[j].push(c);
        }
    }
    let mut output: Vec<char> = Vec::new();
    for labels in op_labels.iter_mut() {
        for _ in 0..rng.gen_range(0..3) {
            if labels.len() >= 4 {
                break;
            }
            let c = fresh(&mut dims, rng);
            labels.push(c);
            if rng.gen_range(0..4) > 0 {
                output.push(c);
            }
        }
    }
    for i in (1..output.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        output.swap(i, j);
    }

    let dim_of = |c: char| dims.iter().find(|(l, _)| *l == c).unwrap().1;
    let spec = format!(
        "{}->{}",
        op_labels.iter().map(|l| l.iter().collect::<String>()).collect::<Vec<_>>().join(","),
        output.iter().collect::<String>()
    );
    let operands = op_labels
        .iter()
        .map(|l| {
            let shape: Vec<usize> = l.iter().map(|&c| dim_of(c)).collect();
            if rng.gen_range(0..3) == 0 {
                Tensor::random_real(&shape, rng)
            } else {
                Tensor::random(&shape, rng)
            }
        })
        .collect();
    (spec, operands)
}

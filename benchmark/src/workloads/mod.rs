//! The seven workloads. Each builds its inputs from the seeded stream, runs
//! one iteration at a time under the harness's clock, and checks its own
//! results against a reference computed outside every timed region.

use crate::gen::SplitMix;
use crate::probe::Metrics;
use crate::trace::{Span, Tracer};
use koala_linalg::{c64, expm_hermitian, Matrix};
use koala_peps::operators::{kron, pauli_x, pauli_z};

mod cluster_tebd;
mod contract;
mod evolve_tebd;
mod ite_step;
mod rqc_amplitudes;
mod serve_batch;

/// One workload, driven by `child::run`.
///
/// Iteration 0 is the cold one and belongs to set-up; the harness times
/// `run` only. A traced iteration (`tracer` is `Some`) records spans around
/// the public library calls it makes and, where the library entry point is a
/// plain sequence of public calls, performs that sequence itself — `check`
/// then requires the result to be bit-identical to the entry point's.
pub trait Workload {
    /// Workload units one iteration completes (what `throughput_ups` counts).
    fn units(&self) -> u64;
    /// Number of distinct inputs, visited round-robin (iteration `i` uses
    /// input `i % cycle`). A traced run flips which of them are traced every
    /// cycle, so every input meets the entry point and the traced sequence.
    fn cycle(&self) -> usize {
        1
    }
    /// Untimed preparation of iteration `i`, e.g. cloning a pool state.
    fn prepare(&mut self, _i: usize) {}
    /// Iteration `i`.
    fn run(&mut self, i: usize, tracer: Option<&mut Tracer>) -> Result<(), String>;
    /// Untimed check of the iteration just run.
    fn check(&mut self, i: usize) -> Result<(), String>;
    /// Untimed reference checks on small twins of the workload, run once.
    fn verify_setup(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Untimed end-of-run check of the live state against the oracle.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Checksum of the generated inputs.
    fn input_checksum(&self) -> u64;
    /// For stage-decomposed workloads: whether some input was run both
    /// through the library entry point and as the traced sequence of public
    /// calls (and, `check` having passed, matched it bit for bit).
    fn decomposition_checked(&self) -> Option<bool> {
        None
    }
    /// Per-layer metrics of this workload: span sums of the traced
    /// iterations plus probes of the lower layers on the live state.
    /// `iter_ms` is the median traced iteration.
    fn layer_metrics(&mut self, spans: &[Span], iter_ms: f64) -> Metrics;
}

/// Test-only wrong references, so that a passing check means something.
#[derive(Debug, Clone, Copy, Default)]
pub struct Control {
    /// Perturb the workload's reference: an oracle or twin amplitude by
    /// 1e-6, the ITE reference energy by 0.1, a reference output by a byte.
    pub wrong_reference: bool,
}

/// Build a workload's inputs from `seed`. This is the input-generation part
/// of `setup_s`.
pub fn build(name: &str, seed: u64, control: Control) -> Result<Box<dyn Workload>, String> {
    let mut stream = SplitMix::for_workload(seed, name);
    let s = &mut stream;
    Ok(match name {
        "evolve_tebd" => Box::new(evolve_tebd::EvolveTebd::build(s, control)),
        "ite_step" => Box::new(ite_step::IteStep::build(s, control)?),
        "contract_bmps" => Box::new(contract::Contract::build(s, control, false)),
        "contract_ibmps" => Box::new(contract::Contract::build(s, control, true)),
        "rqc_amplitudes" => Box::new(rqc_amplitudes::RqcAmplitudes::build(s, control)?),
        "serve_batch" => Box::new(serve_batch::ServeBatch::build(s, control)?),
        "cluster_tebd" => Box::new(cluster_tebd::ClusterTebd::build(s, control)),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// The TEBD gate of the evolution workloads: `exp(-0.05 (XX + ZZ))`.
pub(crate) fn tebd_gate() -> Matrix {
    let xx = kron(&pauli_x(), &pauli_x());
    let zz = kron(&pauli_z(), &pauli_z());
    let mut h = xx;
    for (a, b) in h.data_mut().iter_mut().zip(zz.data()) {
        *a += *b;
    }
    h.mark_real_if_exact();
    expm_hermitian(&h, c64(-0.05, 0.0)).expect("exp of a 4x4 Hermitian matrix")
}

/// `x <= tol`, and false for NaN: a result that is not a number is not
/// within any tolerance.
pub(crate) fn within(x: f64, tol: f64) -> bool {
    x <= tol
}

/// Results by input key: every revisit of a key must reproduce the first
/// result bit for bit, whether it ran through the library entry point or as
/// a traced sequence of public calls.
pub(crate) struct Revisits {
    seen: Vec<Option<(u64, bool, bool)>>,
}

impl Revisits {
    pub fn new(keys: usize) -> Self {
        Revisits { seen: vec![None; keys] }
    }

    pub fn observe(&mut self, key: usize, checksum: u64, traced: bool) -> Result<(), String> {
        match &mut self.seen[key] {
            slot @ None => {
                *slot = Some((checksum, !traced, traced));
                Ok(())
            }
            Some((first, plain, with_trace)) => {
                *plain |= !traced;
                *with_trace |= traced;
                if *first == checksum {
                    Ok(())
                } else {
                    Err(format!(
                        "input {key}: result checksum {checksum:016x} differs from its first visit {first:016x}"
                    ))
                }
            }
        }
    }

    /// Some key was run both ways.
    pub fn both_ways(&self) -> bool {
        self.seen.iter().flatten().any(|&(_, plain, traced)| plain && traced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn generators_repeat_for_a_seed_and_differ_across_seeds() {
        for w in WORKLOADS {
            let checksum =
                |seed| build(w.name, seed, Control::default()).expect(w.name).input_checksum();
            let first = checksum(1);
            assert_eq!(first, checksum(1), "{}: same seed, different inputs", w.name);
            assert_ne!(first, checksum(2), "{}: different seeds, same inputs", w.name);
        }
        assert!(build("no_such_workload", 1, Control::default()).is_err());
    }
}

//! Einstein-summation style contraction of tensor networks.
//!
//! `einsum("abc,cd->abd", &[&t1, &t2])` mirrors the NumPy/Cyclops `einsum`
//! interface that the original Koala library is written against. The
//! implementation restricts index labels to the tensor-network case — every
//! label appears either once (free, must appear in the output) or exactly
//! twice across the operands (contracted) — and contracts operands pairwise
//! with a greedy smallest-intermediate heuristic.
//!
//! # Contraction plans and the plan cache
//!
//! Evaluating an einsum expression has two phases with very different costs
//! in steady state:
//!
//! 1. **Planning** — parsing the spec, validating labels against operand
//!    shapes, running the greedy pairwise ordering search (quadratic in the
//!    number of pending operands per step), and analysing, for every pairwise
//!    step, how each operand matricizes onto the GEMM (zero-copy, fused
//!    transpose, or one permutation — see `contract::PairPlan`).
//! 2. **Execution** — the GEMM calls themselves.
//!
//! PEPS evolution and expectation loops repeat a handful of specs thousands
//! of times with identical shapes, so phase 1 is pure overhead after the
//! first call. [`einsum`] and [`einsum_spec`] therefore delegate to a
//! process-wide memoised planner ([`crate::plan`]):
//!
//! * **Cache key.** The *parsed* specification (input label lists plus output
//!   labels) together with the exact operand shapes. Textually different
//!   specs that parse to the same labels (e.g. differing whitespace) share an
//!   entry; the same spec applied to different shapes gets distinct entries.
//!   The string → [`EinsumSpec`] parse is not memoised: [`einsum`] parses on
//!   every call, and hot paths either hold a parsed spec (an
//!   [`EinsumSvd`](crate::EinsumSvd) static) or, for a single pair of
//!   operands, call [`crate::tensordot`], which builds its one GEMM step
//!   directly and never consults the cache.
//! * **Eviction policy.** An LRU behind one lock, whose capacity of 512
//!   plans is a hard bound. Each hit refreshes the entry's recency stamp;
//!   inserting into a full cache evicts the least-recently-used plan and
//!   bumps the eviction counter reported by [`crate::plan::plan_stats`].
//! * **One cache, every lookup counted.** No caller holds plans of its own:
//!   [`einsum_spec`] and the explicit method of
//!   [`EinsumSvd`](crate::EinsumSvd) look every contraction up here, so the
//!   hit and miss counters see every plan use, whatever the schedule.
//! * **Why plan reuse is safe across values but not shapes.** Every planning
//!   decision — the greedy pair selection (driven by intermediate *sizes*),
//!   the contracted-axis lists, the per-step matricization layouts, the
//!   trailing axis sums, and the final output permutation — is a pure
//!   function of the spec and the operand dimensions. Operand *values* never
//!   enter the planner, so a cached plan replayed on new tensors of the same
//!   shapes performs the identical arithmetic. Shapes, by contrast, change
//!   both the cost model (a different greedy order may win) and the layout
//!   decisions (which axis orders are zero-copy), so shapes are part of the
//!   key and [`crate::plan::Plan::execute`] rejects operands whose shapes
//!   differ from the ones the plan was built for.
//!
//! Cache accounting (hits / misses / evictions / residency) is exposed
//! through [`crate::plan::plan_stats`], which `benchmark/` reads for its
//! `tensor.plan_hits` / `tensor.plan_misses` counters.

use crate::plan::contraction_plan;
use crate::tensor::Tensor;
use koala_error::{KoalaError, Result};
use std::collections::HashMap;

/// Parsed einsum specification.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EinsumSpec {
    /// Index labels for every input operand.
    pub inputs: Vec<Vec<char>>,
    /// Index labels of the output.
    pub output: Vec<char>,
}

/// Parse a specification such as `"abc,cd->abd"`.
///
/// The output part is mandatory (implicit output ordering is a common source
/// of silent bugs in tensor-network code, so we do not support it).
pub fn parse_spec(spec: &str) -> Result<EinsumSpec> {
    let spec: String = spec.chars().filter(|c| !c.is_whitespace()).collect();
    let (lhs, rhs) = spec
        .split_once("->")
        .ok_or_else(|| KoalaError::invalid(format!("einsum: spec '{spec}' is missing '->'")))?;
    let inputs: Vec<Vec<char>> = lhs.split(',').map(|part| part.chars().collect()).collect();
    let output: Vec<char> = rhs.chars().collect();

    for part in inputs.iter().chain(std::iter::once(&output)) {
        for &c in part {
            if !c.is_ascii_alphabetic() {
                return Err(KoalaError::invalid(format!("einsum: invalid index label '{c}'")));
            }
        }
    }
    // Labels within a single operand must be distinct (no internal traces).
    for (i, part) in inputs.iter().enumerate() {
        let mut sorted = part.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != part.len() {
            return Err(KoalaError::invalid(format!(
                "einsum: repeated label within operand {i} is not supported"
            )));
        }
    }
    // Output labels must be distinct and appear in the inputs.
    let mut out_sorted = output.clone();
    out_sorted.sort_unstable();
    out_sorted.dedup();
    if out_sorted.len() != output.len() {
        return Err(KoalaError::invalid("einsum: repeated label in output"));
    }
    let mut counts: HashMap<char, usize> = HashMap::new();
    for part in &inputs {
        for &c in part {
            *counts.entry(c).or_insert(0) += 1;
        }
    }
    for &c in &output {
        if !counts.contains_key(&c) {
            return Err(KoalaError::invalid(format!(
                "einsum: output label '{c}' does not appear in any input"
            )));
        }
    }
    for (&c, &count) in &counts {
        let in_output = output.contains(&c);
        let valid = (count == 1) || (count == 2 && !in_output);
        if !valid {
            return Err(KoalaError::invalid(format!(
                    "einsum: label '{c}' appears {count} time(s) in inputs and {} output — only \
                     tensor-network contractions (each label free once or contracted twice) are supported",
                    if in_output { "once in" } else { "not in" }
                )));
        }
    }
    Ok(EinsumSpec { inputs, output })
}

/// Evaluate an einsum expression over the given operands.
///
/// Parses `spec` on every call and hands it to [`einsum_spec`], whose
/// contraction plan for the operand shapes is memoised process-wide (see the
/// module docs). A single pairwise contraction is cheaper as a
/// [`crate::tensordot`] call, which needs neither.
pub fn einsum(spec: &str, operands: &[&Tensor]) -> Result<Tensor> {
    einsum_spec(&parse_spec(spec)?, operands)
}

/// Evaluate a pre-parsed einsum specification.
///
/// A thin wrapper over the memoised contraction planner: the plan for
/// `(spec, operand shapes)` is fetched from (or inserted into) the LRU cache
/// and executed. Every call makes exactly one cache lookup.
pub fn einsum_spec(spec: &EinsumSpec, operands: &[&Tensor]) -> Result<Tensor> {
    let shapes: Vec<&[usize]> = operands.iter().map(|t| t.shape()).collect();
    let plan = contraction_plan(spec, &shapes)?;
    plan.execute(operands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{tensordot, tensordot_naive};
    use koala_linalg::c64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parse_accepts_valid_specs() {
        let s = parse_spec("abc,cd->abd").unwrap();
        assert_eq!(s.inputs.len(), 2);
        assert_eq!(s.output, vec!['a', 'b', 'd']);
        assert!(parse_spec(" ab , bc -> ac ").is_ok());
    }

    #[test]
    fn parse_rejects_invalid_specs() {
        assert!(parse_spec("ab,bc").is_err(), "missing arrow");
        assert!(parse_spec("aab->ab").is_err(), "repeated label within operand");
        assert!(parse_spec("ab,bc->ad").is_err(), "output label not present");
        assert!(parse_spec("ab,ab,ab->").is_err(), "label appears three times");
        assert!(parse_spec("ab->aa").is_err(), "repeated output label");
        assert!(parse_spec("a1->a").is_err(), "non-alphabetic label");
    }

    #[test]
    fn matrix_multiplication() {
        let mut rng = StdRng::seed_from_u64(20);
        let a = Tensor::random(&[3, 4], &mut rng);
        let b = Tensor::random(&[4, 5], &mut rng);
        let c = einsum("ij,jk->ik", &[&a, &b]).unwrap();
        let expected = tensordot(&a, &b, &[1], &[0]).unwrap();
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn output_permutation_is_honoured() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = Tensor::random(&[3, 4], &mut rng);
        let b = Tensor::random(&[4, 5], &mut rng);
        let c = einsum("ij,jk->ki", &[&a, &b]).unwrap();
        let expected = tensordot(&a, &b, &[1], &[0]).unwrap().permute(&[1, 0]).unwrap();
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn three_operand_chain() {
        let mut rng = StdRng::seed_from_u64(22);
        let a = Tensor::random(&[2, 3], &mut rng);
        let b = Tensor::random(&[3, 4], &mut rng);
        let c = Tensor::random(&[4, 2], &mut rng);
        let out = einsum("ij,jk,kl->il", &[&a, &b, &c]).unwrap();
        let ab = tensordot(&a, &b, &[1], &[0]).unwrap();
        let abc = tensordot(&ab, &c, &[1], &[0]).unwrap();
        assert!(out.approx_eq(&abc, 1e-11));
    }

    #[test]
    fn full_trace_network_to_scalar() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = Tensor::random(&[3, 4], &mut rng);
        let b = Tensor::random(&[4, 3], &mut rng);
        let out = einsum("ij,ji->", &[&a, &b]).unwrap();
        assert_eq!(out.ndim(), 0);
        let prod = tensordot(&a, &b, &[1], &[0]).unwrap();
        let mut tr = c64(0.0, 0.0);
        for i in 0..3 {
            tr += prod.get(&[i, i]);
        }
        assert!(out.item().approx_eq(tr, 1e-11));
    }

    #[test]
    fn summed_free_index() {
        let mut rng = StdRng::seed_from_u64(24);
        let a = Tensor::random(&[3, 5], &mut rng);
        let out = einsum("ij->i", &[&a]).unwrap();
        let expected = crate::contract::sum_axis(&a, 1).unwrap();
        assert!(out.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn outer_product_of_disconnected_operands() {
        let mut rng = StdRng::seed_from_u64(25);
        let a = Tensor::random(&[2], &mut rng);
        let b = Tensor::random(&[3], &mut rng);
        let out = einsum("i,j->ij", &[&a, &b]).unwrap();
        assert!(out.approx_eq(&a.outer(&b), 1e-12));
    }

    #[test]
    fn tensor_network_star_contraction() {
        // A small star-shaped network exercising the greedy ordering:
        // center tensor contracted with three leaf tensors.
        let mut rng = StdRng::seed_from_u64(26);
        let center = Tensor::random(&[2, 3, 4], &mut rng);
        let la = Tensor::random(&[2, 5], &mut rng);
        let lb = Tensor::random(&[3, 6], &mut rng);
        let lc = Tensor::random(&[4, 7], &mut rng);
        let out = einsum("abc,ax,by,cz->xyz", &[&center, &la, &lb, &lc]).unwrap();
        assert_eq!(out.shape(), &[5, 6, 7]);
        // Cross-check against a naive sequence of contractions.
        let step1 = tensordot_naive(&center, &la, &[0], &[0]).unwrap(); // b c x
        let step2 = tensordot_naive(&step1, &lb, &[0], &[0]).unwrap(); // c x y
        let step3 = tensordot_naive(&step2, &lc, &[0], &[0]).unwrap(); // x y z
        assert!(out.approx_eq(&step3, 1e-10));
    }

    #[test]
    fn operand_count_and_shape_validation() {
        let a = Tensor::zeros(&[2, 2]);
        assert!(einsum("ij,jk->ik", &[&a]).is_err());
        assert!(einsum("ijk->ijk", &[&a]).is_err());
        let b = Tensor::zeros(&[3, 2]);
        assert!(einsum("ij,jk->ik", &[&a, &b]).is_err(), "label j has dims 2 and 3");
    }
}

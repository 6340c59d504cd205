//! Tests for the einsum contraction-plan cache: hit/miss accounting,
//! shape-change invalidation, LRU eviction, cross-thread reuse, and a
//! property sweep checking `Plan::execute` against a plan-independent naive
//! einsum evaluator on random tensor-network specifications.

use koala_linalg::{c64, C64};
use koala_tensor::{
    clear_plan_cache, contraction_plan, einsum, einsum_spec, parse_spec, plan_stats, Plan, Tensor,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, PoisonError};

/// In-place increment of a multi-index in row-major (odometer) order.
/// Returns `false` when the index wraps past the end.
fn increment_index(index: &mut [usize], shape: &[usize]) -> bool {
    for i in (0..shape.len()).rev() {
        index[i] += 1;
        if index[i] < shape[i] {
            return true;
        }
        index[i] = 0;
    }
    false
}

/// The plan cache and its counters are process-wide; serialize the tests in
/// this binary so concurrent test threads cannot skew each other's counts.
static SERIAL: Mutex<()> = Mutex::new(());

fn tensors_for(shapes: &[Vec<usize>], seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    shapes.iter().map(|s| Tensor::random(s, &mut rng)).collect()
}

/// Acceptance criterion of the planner: repeated `einsum_spec` calls with an
/// identical spec and identical operand shapes run exactly one greedy
/// planning pass, observable through `plan_stats()`.
#[test]
fn identical_spec_and_shapes_plan_exactly_once() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let spec = parse_spec("qab,qcd,bd->ac").unwrap();
    let ops = tensors_for(&[vec![5, 2, 3], vec![5, 4, 2], vec![3, 2]], 11);
    let refs: Vec<&Tensor> = ops.iter().collect();

    clear_plan_cache();
    let before = plan_stats();
    let first = einsum_spec(&spec, &refs).unwrap();
    for _ in 0..24 {
        let again = einsum_spec(&spec, &refs).unwrap();
        assert!(again.approx_eq(&first, 0.0), "cached plan must be deterministic");
    }
    let after = plan_stats();
    assert_eq!(after.misses - before.misses, 1, "exactly one greedy search may run");
    assert_eq!(after.hits - before.hits, 24, "every repeat must be a cache hit");
}

/// The string entry point shares the same plan, and whitespace-only
/// differences in the spec map to the same plan entry.
#[test]
fn string_entry_point_hits_the_same_plan() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let ops = tensors_for(&[vec![3, 4], vec![4, 5]], 12);
    let refs: Vec<&Tensor> = ops.iter().collect();

    clear_plan_cache();
    let before = plan_stats();
    let a = einsum("ij,jk->ik", &[refs[0], refs[1]]).unwrap();
    let b = einsum(" ij , jk -> ik ", &[refs[0], refs[1]]).unwrap();
    let after = plan_stats();
    assert!(a.approx_eq(&b, 0.0));
    assert_eq!(after.misses - before.misses, 1, "whitespace variants share one plan");
    assert_eq!(after.hits - before.hits, 1);
}

/// Changing an operand shape must not reuse the old schedule: the new shapes
/// get their own plan (a miss), and both entries stay resident.
#[test]
fn shape_change_invalidates_the_plan() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let spec = parse_spec("ij,jk->ik").unwrap();
    let small = tensors_for(&[vec![2, 3], vec![3, 4]], 13);
    let large = tensors_for(&[vec![6, 3], vec![3, 2]], 14);

    clear_plan_cache();
    let before = plan_stats();
    let s = einsum_spec(&spec, &[&small[0], &small[1]]).unwrap();
    let l = einsum_spec(&spec, &[&large[0], &large[1]]).unwrap();
    assert_eq!(s.shape(), &[2, 4]);
    assert_eq!(l.shape(), &[6, 2]);
    let after = plan_stats();
    assert_eq!(after.misses - before.misses, 2, "each shape set plans separately");
    assert_eq!(after.entries, 2);

    // A plan executed on operands of the wrong shapes is rejected rather than
    // silently producing garbage.
    let plan = contraction_plan(&spec, &[&[2usize, 3][..], &[3, 4][..]]).unwrap();
    assert!(plan.execute(&[&large[0], &large[1]]).is_err());
    // ... and going back to the first shapes is a hit, not a re-plan.
    let mid = plan_stats();
    let s2 = einsum_spec(&spec, &[&small[0], &small[1]]).unwrap();
    assert!(s2.approx_eq(&s, 0.0));
    assert_eq!(plan_stats().misses, mid.misses);
}

/// Filling the cache beyond its capacity evicts least-recently-used plans and
/// counts the evictions.
#[test]
fn lru_eviction_is_counted() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    clear_plan_cache();
    let before = plan_stats();
    let capacity = before.capacity;
    let spec = parse_spec("ij,jk->ik").unwrap();
    let plan = |rows: usize| contraction_plan(&spec, &[&[rows, 2][..], &[2, 3][..]]).unwrap();
    for rows in 1..=capacity + 4 {
        plan(rows);
    }
    let after = plan_stats();
    assert_eq!(after.misses - before.misses, capacity as u64 + 4);
    assert_eq!(after.entries, capacity, "capacity bounds residency");
    assert_eq!(after.evictions - before.evictions, 4);
    // The four oldest plans went first: the fifth is still resident.
    plan(5);
    assert_eq!(plan_stats().hits - after.hits, 1);
    plan(4);
    assert_eq!(plan_stats().misses - after.misses, 1);
}

/// A plan warmed on one thread is reused (not re-planned) by every other
/// thread, and all threads compute the same result.
#[test]
fn plans_are_shared_across_threads() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let spec = parse_spec("abc,cd,be->ade").unwrap();
    let shapes = [vec![2, 3, 4], vec![4, 5], vec![3, 2]];
    let ops = tensors_for(&shapes, 16);
    let refs: Vec<&Tensor> = ops.iter().collect();

    clear_plan_cache();
    let expected = einsum_spec(&spec, &refs).unwrap();
    let warm = plan_stats();

    let results: Vec<Tensor> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let spec = &spec;
                let refs = &refs;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for _ in 0..16 {
                        out.push(einsum_spec(spec, refs).unwrap());
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    for r in &results {
        assert!(r.approx_eq(&expected, 0.0), "cross-thread executions must agree");
    }
    let after = plan_stats();
    assert_eq!(after.misses, warm.misses, "no thread may re-run the greedy search");
    assert_eq!(after.hits - warm.hits, 8 * 16);
}

/// The capacity is a hard bound even while threads insert concurrently: one
/// consistent snapshot afterwards shows at most `capacity` resident plans,
/// and every miss is either still resident or counted as evicted.
#[test]
fn capacity_is_a_hard_bound_under_concurrent_inserts() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    clear_plan_cache();
    koala_tensor::reset_plan_stats();
    let capacity = plan_stats().capacity;
    let per_thread = capacity / 2;
    let spec = parse_spec("ij,jk->ik").unwrap();
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let spec = &spec;
            scope.spawn(move || {
                for i in 0..per_thread {
                    // Twice the capacity in distinct keys: the row count
                    // differs per (t, i).
                    let rows = 1 + per_thread * t + i;
                    contraction_plan(spec, &[&[rows, 2][..], &[2, 3][..]]).unwrap();
                }
            });
        }
    });
    let stats = plan_stats();
    assert!(stats.entries <= capacity, "{} plans resident at capacity {capacity}", stats.entries);
    assert_eq!(stats.misses, stats.entries as u64 + stats.evictions);
    assert!(stats.evictions > 0, "{} distinct keys must overfill the cache", 4 * per_thread);
}

// ---------------------------------------------------------------------------
// Property sweep: planned execution vs a plan-independent naive evaluator.
// ---------------------------------------------------------------------------

/// Naive einsum by direct summation over every label assignment. Exponential
/// in the number of labels — only for the tiny specs generated below — but
/// completely independent of the contraction planner.
fn naive_einsum(spec_str: &str, operands: &[&Tensor]) -> Tensor {
    let spec = parse_spec(spec_str).unwrap();
    let mut labels: Vec<char> = Vec::new();
    let mut dims: Vec<usize> = Vec::new();
    for (op_labels, t) in spec.inputs.iter().zip(operands.iter()) {
        for (axis, &c) in op_labels.iter().enumerate() {
            if !labels.contains(&c) {
                labels.push(c);
                dims.push(t.dim(axis));
            }
        }
    }
    let pos = |c: char| labels.iter().position(|&l| l == c).unwrap();
    let out_shape: Vec<usize> = spec.output.iter().map(|&c| dims[pos(c)]).collect();
    let mut out = Tensor::zeros(&out_shape);
    let mut idx = vec![0usize; labels.len()];
    loop {
        let mut term = c64(1.0, 0.0);
        for (op_labels, t) in spec.inputs.iter().zip(operands.iter()) {
            let mi: Vec<usize> = op_labels.iter().map(|&c| idx[pos(c)]).collect();
            term *= t.get(&mi);
        }
        let oi: Vec<usize> = spec.output.iter().map(|&c| idx[pos(c)]).collect();
        let acc: C64 = out.get(&oi) + term;
        out.set(&oi, acc);
        if labels.is_empty() || !increment_index(&mut idx, &dims) {
            break;
        }
    }
    out
}

/// Generate a random valid tensor-network spec (every label free once or
/// contracted twice) together with matching random operands.
fn random_network(rng: &mut StdRng) -> (String, Vec<Tensor>) {
    let n_ops = rng.gen_range(1..5);
    let mut op_labels: Vec<Vec<char>> = vec![Vec::new(); n_ops];
    let mut next = b'a';
    let mut dims: Vec<(char, usize)> = Vec::new();
    let mut fresh = |dims: &mut Vec<(char, usize)>, rng: &mut StdRng| {
        let c = next as char;
        next += 1;
        dims.push((c, rng.gen_range(1..4)));
        c
    };

    // Contracted bonds between random operand pairs.
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
    // Free legs; each is kept in the output with probability 3/4 (dropped
    // legs exercise the trailing sum-axis path).
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
    // Shuffle the output order (Fisher-Yates) to exercise final permutations.
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
            Tensor::random(&shape, rng)
        })
        .collect();
    (spec, operands)
}

/// `Plan::execute` (both cached and freshly built) matches the naive
/// evaluator on random specs — the planner may pick any contraction order,
/// but the arithmetic must be identical.
#[test]
fn planned_einsum_matches_naive_on_random_specs() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let mut nontrivial = 0usize;
    for _case in 0..120 {
        let (spec_str, operands) = random_network(&mut rng);
        let refs: Vec<&Tensor> = operands.iter().collect();
        let expected = naive_einsum(&spec_str, &refs);
        let via_cache = einsum(&spec_str, &refs).unwrap();
        assert!(
            via_cache.approx_eq(&expected, 1e-9),
            "spec '{spec_str}' diverges from naive: {:e}",
            via_cache.max_diff(&expected)
        );
        // A fresh, uncached plan must agree exactly with the cached one.
        let parsed = parse_spec(&spec_str).unwrap();
        let shapes: Vec<&[usize]> = refs.iter().map(|t| t.shape()).collect();
        let fresh = Plan::build(&parsed, &shapes).unwrap().execute(&refs).unwrap();
        assert!(fresh.approx_eq(&via_cache, 0.0));
        if refs.len() > 1 {
            nontrivial += 1;
        }
    }
    assert!(nontrivial > 40, "generator should produce mostly multi-operand networks");
}

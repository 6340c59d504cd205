//! Memoised einsum contraction plans.
//!
//! PEPS evolution and expectation loops execute a small set of einsum
//! specifications thousands of times with identical operand shapes. The
//! greedy pairwise ordering search, the axis validation, and the
//! matricization-layout analysis of each pairwise step depend only on the
//! specification and the operand *shapes* — never on the operand values — so
//! all of it is computed once per `(spec, shapes)` key and replayed from a
//! process-wide cache. See [`crate::einsum`](mod@crate::einsum) for the full
//! design discussion
//! (cache key, eviction policy, and the safety argument for plan reuse).
//!
//! The public surface is:
//!
//! * [`Plan`] — an executable contraction schedule ([`Plan::build`] to plan
//!   without the cache, [`Plan::execute`] to run it on concrete operands),
//! * [`contraction_plan`] — the cached entry point used by
//!   [`crate::einsum::einsum_spec`],
//! * [`plan_stats`] / [`reset_plan_stats`] / [`clear_plan_cache`] — the
//!   accounting hooks used by `koala-bench` and the cache tests.

use crate::contract::PairPlan;
use crate::einsum::EinsumSpec;
use crate::shape::is_identity_perm;
use crate::tensor::Tensor;
use koala_error::{KoalaError, Result};
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard};

/// One pairwise contraction of the schedule: contract working-list slots
/// `lhs` and `rhs` (with `lhs < rhs`) using the pre-analysed `pair` lowering
/// and push the result at the back of the working list.
#[derive(Debug, Clone)]
struct Step {
    lhs: usize,
    rhs: usize,
    pair: PairPlan,
}

/// A fully planned einsum contraction for one `(spec, operand shapes)` key.
///
/// A plan owns everything the per-call path previously recomputed: the greedy
/// pairwise contraction order, the validated axis lists and matricization
/// layouts of every step, the trailing axis sums for labels dropped from the
/// output, and the final output permutation. [`Plan::execute`] replays that
/// schedule on operands whose shapes must match the plan exactly.
#[derive(Debug, Clone)]
pub struct Plan {
    spec: EinsumSpec,
    shapes: Vec<Vec<usize>>,
    steps: Vec<Step>,
    /// Axes to sum out after the last contraction, in execution order (each
    /// relative to the tensor shape at that point).
    sum_axes: Vec<usize>,
    /// Final permutation into the requested output order (`None` = identity).
    output_perm: Option<Vec<usize>>,
}

impl Plan {
    /// Run the full planning pipeline for `spec` applied to operands of the
    /// given shapes: validation, greedy ordering, and per-step matricization
    /// analysis. This is the uncached path — [`contraction_plan`] memoises it.
    pub fn build(spec: &EinsumSpec, shapes: &[&[usize]]) -> Result<Plan> {
        if spec.inputs.len() != shapes.len() {
            return Err(KoalaError::invalid(format!(
                "einsum: spec has {} operands but {} tensors were provided",
                spec.inputs.len(),
                shapes.len()
            )));
        }
        // Check label/dimension consistency.
        let mut label_dims: HashMap<char, usize> = HashMap::new();
        for (labels, shape) in spec.inputs.iter().zip(shapes.iter()) {
            if labels.len() != shape.len() {
                return Err(KoalaError::shape(format!(
                    "einsum: operand with labels {:?} has rank {}",
                    labels,
                    shape.len()
                )));
            }
            for (&label, &dim) in labels.iter().zip(shape.iter()) {
                if let Some(&prev) = label_dims.get(&label) {
                    if prev != dim {
                        return Err(KoalaError::shape(format!(
                            "einsum: label '{label}' has inconsistent dimensions {prev} and {dim}"
                        )));
                    }
                } else {
                    label_dims.insert(label, dim);
                }
            }
        }

        // Shape-level simulation of the contraction. Working list of
        // (labels, shape) mirrors the execute-time working list of tensors.
        let mut items: Vec<(Vec<char>, Vec<usize>)> = spec
            .inputs
            .iter()
            .zip(shapes.iter())
            .map(|(labels, shape)| (labels.clone(), shape.to_vec()))
            .collect();
        let mut steps: Vec<Step> = Vec::new();

        // Greedy pairwise ordering: always contract the pair of tensors that
        // share a contractible label and produce the smallest intermediate.
        while items.len() > 1 {
            let mut best: Option<(usize, usize, usize)> = None; // (i, j, result size)
            for i in 0..items.len() {
                for j in (i + 1)..items.len() {
                    let shared = shared_contractible(&items, i, j, &spec.output);
                    if shared.is_empty() {
                        continue;
                    }
                    let size = result_size(&items[i], &items[j], &shared);
                    if best.is_none_or(|(_, _, s)| size < s) {
                        best = Some((i, j, size));
                    }
                }
            }
            let (i, j) = match best {
                Some((i, j, _)) => (i, j),
                // No shared labels anywhere: take an outer product of the
                // first two operands.
                None => (0, 1),
            };
            let (right_l, right_s) = items.remove(j);
            let (left_l, left_s) = items.remove(i);
            // Contract every label shared by the two operands that is not
            // needed by the output or any remaining operand.
            let shared: Vec<char> = left_l
                .iter()
                .filter(|c| right_l.contains(c))
                .filter(|c| !spec.output.contains(c))
                .filter(|c| items.iter().all(|(lk, _)| !lk.contains(c)))
                .copied()
                .collect();
            let axes_a: Vec<usize> =
                shared.iter().filter_map(|c| left_l.iter().position(|l| l == c)).collect();
            let axes_b: Vec<usize> =
                shared.iter().filter_map(|c| right_l.iter().position(|l| l == c)).collect();
            let pair = PairPlan::new(&left_s, &axes_a, &right_s, &axes_b)?;
            let mut labels: Vec<char> =
                left_l.iter().filter(|c| !shared.contains(c)).copied().collect();
            labels.extend(right_l.iter().filter(|c| !shared.contains(c)).copied());
            let out_shape = pair.out_shape().to_vec();
            steps.push(Step { lhs: i, rhs: j, pair });
            items.push((labels, out_shape));
        }

        let Some((mut labels, _shape)) = items.pop() else {
            return Err(KoalaError::invalid("einsum: empty operand list"));
        };

        // Sum out any label that does not appear in the output (a label that
        // occurs only once in the inputs and is dropped from the output).
        let mut sum_axes = Vec::new();
        let mut axis = 0;
        while axis < labels.len() {
            if spec.output.contains(&labels[axis]) {
                axis += 1;
            } else {
                sum_axes.push(axis);
                labels.remove(axis);
            }
        }

        // Permute into the requested output order.
        let perm: Vec<usize> = spec
            .output
            .iter()
            .map(|c| {
                labels.iter().position(|l| l == c).ok_or_else(|| {
                    KoalaError::invalid(format!(
                        "einsum: output label '{c}' lost during contraction"
                    ))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let output_perm = if is_identity_perm(&perm) { None } else { Some(perm) };

        Ok(Plan {
            spec: spec.clone(),
            shapes: shapes.iter().map(|s| s.to_vec()).collect(),
            steps,
            sum_axes,
            output_perm,
        })
    }

    /// The specification this plan was built for.
    pub fn spec(&self) -> &EinsumSpec {
        &self.spec
    }

    /// The operand shapes this plan was built for.
    pub fn shapes(&self) -> &[Vec<usize>] {
        &self.shapes
    }

    /// Number of pairwise contraction (GEMM) steps in the schedule.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Execute the planned contraction on concrete operands.
    ///
    /// The operands must have exactly the shapes the plan was built for
    /// (checked); their values are unconstrained — the schedule depends only
    /// on spec and shapes. Realness is *not* part of the plan key: every
    /// pairwise step re-reads the operands' [`Tensor::is_real`] hints at
    /// execution time and dispatches to the real-only GEMM when both sides
    /// carry them, so one cached plan serves real and complex operand sets
    /// alike (and an all-real einsum yields a hint-carrying real result).
    ///
    /// The steps run on the calling thread in schedule order; callers that
    /// want concurrency run whole contractions side by side.
    pub fn execute(&self, operands: &[&Tensor]) -> Result<Tensor> {
        if operands.len() != self.shapes.len() {
            return Err(KoalaError::invalid(format!(
                "einsum plan: built for {} operands but {} were provided",
                self.shapes.len(),
                operands.len()
            )));
        }
        for (tensor, shape) in operands.iter().zip(self.shapes.iter()) {
            if tensor.shape() != shape.as_slice() {
                return Err(KoalaError::shape(format!(
                    "einsum plan: built for operand shape {:?}, got {:?}",
                    shape,
                    tensor.shape()
                )));
            }
        }

        // Working list of tensors: caller-borrowed inputs, owned intermediates.
        let mut items: Vec<Operand<'_>> = operands.iter().map(|t| Operand::Borrowed(t)).collect();
        for step in &self.steps {
            let right = items.remove(step.rhs);
            let left = items.remove(step.lhs);
            items.push(Operand::Owned(step.pair.execute(left.as_tensor(), right.as_tensor())?));
        }
        let mut operand =
            items.pop().ok_or_else(|| KoalaError::invalid("einsum plan: empty operand list"))?;

        for &axis in &self.sum_axes {
            operand = Operand::Owned(crate::contract::sum_axis(operand.as_tensor(), axis)?);
        }

        // An owned tensor in an already-correct order is returned as-is.
        match (&self.output_perm, operand) {
            (None, Operand::Owned(t)) => Ok(t),
            (None, Operand::Borrowed(t)) => Ok(t.clone()),
            (Some(perm), operand) => operand.as_tensor().permute(perm),
        }
    }
}

/// A pending einsum operand: caller-borrowed input or owned intermediate.
enum Operand<'a> {
    Borrowed(&'a Tensor),
    Owned(Tensor),
}

impl Operand<'_> {
    fn as_tensor(&self) -> &Tensor {
        match self {
            Operand::Borrowed(t) => t,
            Operand::Owned(t) => t,
        }
    }
}

/// Labels shared between items `i` and `j` that may be contracted now (they
/// appear in neither the output nor any other pending operand).
fn shared_contractible(
    items: &[(Vec<char>, Vec<usize>)],
    i: usize,
    j: usize,
    output: &[char],
) -> Vec<char> {
    let (li, _) = &items[i];
    let (lj, _) = &items[j];
    li.iter()
        .filter(|c| lj.contains(c))
        .filter(|c| !output.contains(c))
        .filter(|c| {
            items
                .iter()
                .enumerate()
                .filter(|(k, _)| *k != i && *k != j)
                .all(|(_, (lk, _))| !lk.contains(c))
        })
        .copied()
        .collect()
}

/// Size of the intermediate produced by contracting `a` and `b` over `shared`.
fn result_size(a: &(Vec<char>, Vec<usize>), b: &(Vec<char>, Vec<usize>), shared: &[char]) -> usize {
    let mut size = 1usize;
    for (label, &dim) in a.0.iter().zip(a.1.iter()) {
        if !shared.contains(label) {
            size = size.saturating_mul(dim);
        }
    }
    for (label, &dim) in b.0.iter().zip(b.1.iter()) {
        if !shared.contains(label) {
            size = size.saturating_mul(dim);
        }
    }
    size
}

// ---------------------------------------------------------------------------
// Process-wide plan cache.
// ---------------------------------------------------------------------------

/// One resident plan. The key material (spec labels + shapes) lives inside
/// the `Arc<Plan>` itself, so entries carry no duplicated owned key — lookups
/// compare the borrowed query against `plan.spec()` / `plan.shapes()`.
struct Entry {
    plan: Arc<Plan>,
    stamp: u64,
}

impl Entry {
    fn matches(&self, spec: &EinsumSpec, shapes: &[&[usize]]) -> bool {
        let plan = &*self.plan;
        plan.spec == *spec
            && plan.shapes.len() == shapes.len()
            && plan.shapes.iter().zip(shapes.iter()).all(|(a, b)| a.as_slice() == *b)
    }
}

/// Hash of a `(spec, shapes)` query computed over the *borrowed* data — no
/// owned key is ever built for a lookup (the hot path allocates nothing).
fn key_hash(spec: &EinsumSpec, shapes: &[&[usize]]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    spec.inputs.hash(&mut h);
    spec.output.hash(&mut h);
    for s in shapes {
        s.hash(&mut h);
    }
    h.finish()
}

/// Number of cached plans. A PEPS evolution + expectation workload uses a
/// few dozen distinct `(spec, shapes)` keys; 512 leaves generous room for
/// several concurrent workloads before eviction starts.
const PLAN_CACHE_CAPACITY: usize = 512;

/// The whole cache behind one lock: plans, LRU clock and the accounting
/// counters change together, so residency never exceeds
/// [`PLAN_CACHE_CAPACITY`] and [`plan_stats`] reads one consistent snapshot.
/// A lookup holds the lock for a hash probe and a key compare; planning runs
/// outside it.
struct Cache {
    /// Buckets by precomputed key hash; collisions resolved by comparing
    /// against the spec/shapes stored in each resident plan.
    map: HashMap<u64, Vec<Entry>>,
    /// LRU clock; every touch/insert takes the next tick.
    clock: u64,
    /// Plans resident across all buckets.
    resident: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Cache {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Look the key up, bumping the entry's stamp on a hit, and count the
    /// hit or miss.
    fn touch(&mut self, hash: u64, spec: &EinsumSpec, shapes: &[&[usize]]) -> Option<Arc<Plan>> {
        let stamp = self.tick();
        let found = self.map.get_mut(&hash).and_then(|bucket| {
            let entry = bucket.iter_mut().find(|e| e.matches(spec, shapes))?;
            entry.stamp = stamp;
            Some(Arc::clone(&entry.plan))
        });
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Insert a freshly built plan, evicting the least-recently-used plan
    /// first if the cache is full. Two threads racing to plan the same key both
    /// insert; the second replaces the first, so the key stays resident once.
    fn insert(&mut self, hash: u64, plan: Arc<Plan>) {
        let stamp = self.tick();
        let same_key = |e: &&mut Entry| e.plan.spec == plan.spec && e.plan.shapes == plan.shapes;
        if let Some(existing) = self.map.get_mut(&hash).and_then(|b| b.iter_mut().find(same_key)) {
            existing.plan = plan;
            existing.stamp = stamp;
            return;
        }
        if self.resident >= PLAN_CACHE_CAPACITY {
            self.evict_oldest();
        }
        self.map.entry(hash).or_default().push(Entry { plan, stamp });
        self.resident += 1;
    }

    /// Evict the least-recently-used plan. Linear scan: the capacity is
    /// small and eviction is rare in steady state.
    fn evict_oldest(&mut self) {
        let oldest = self
            .map
            .iter()
            .flat_map(|(&hash, bucket)| bucket.iter().map(move |e| (hash, e.stamp)))
            .min_by_key(|&(_, stamp)| stamp);
        let Some((hash, stamp)) = oldest else { return };
        if let Some(bucket) = self.map.get_mut(&hash) {
            bucket.retain(|e| e.stamp != stamp);
            if bucket.is_empty() {
                self.map.remove(&hash);
            }
        }
        self.resident -= 1;
        self.evictions += 1;
    }
}

static CACHE: LazyLock<Mutex<Cache>> = LazyLock::new(|| {
    Mutex::new(Cache {
        map: HashMap::new(),
        clock: 0,
        resident: 0,
        hits: 0,
        misses: 0,
        evictions: 0,
    })
});

fn cache() -> MutexGuard<'static, Cache> {
    crate::lock_ignore_poison(&CACHE)
}

/// Snapshot of the plan-cache accounting counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran a fresh greedy planning pass.
    pub misses: u64,
    /// Plans discarded to make room (least-recently-used first).
    pub evictions: u64,
    /// Plans currently resident.
    pub entries: usize,
    /// Maximum number of resident plans.
    pub capacity: usize,
}

/// Return the memoised contraction plan for `spec` applied to operands of the
/// given shapes, planning (and caching) it on first use.
///
/// This is the one plan cache: [`crate::einsum::einsum_spec`] and the
/// explicit [`crate::einsumsvd::EinsumSvd`] method look every contraction up
/// here, so each lookup counts exactly one hit or miss in [`plan_stats`].
pub fn contraction_plan(spec: &EinsumSpec, shapes: &[&[usize]]) -> Result<Arc<Plan>> {
    let hash = key_hash(spec, shapes);
    let cached = cache().touch(hash, spec, shapes);
    if let Some(plan) = cached {
        return Ok(plan);
    }
    // Plan outside the lock: planning is the expensive part, and two threads
    // racing to plan the same key merely insert the same value twice (insert
    // deduplicates, keeping the newer plan).
    let plan = Arc::new(Plan::build(spec, shapes)?);
    cache().insert(hash, Arc::clone(&plan));
    Ok(plan)
}

/// Read the plan-cache hit/miss/eviction counters and residency.
pub fn plan_stats() -> PlanStats {
    let cache = cache();
    PlanStats {
        hits: cache.hits,
        misses: cache.misses,
        evictions: cache.evictions,
        entries: cache.resident,
        capacity: PLAN_CACHE_CAPACITY,
    }
}

/// Zero the hit/miss/eviction counters (resident plans are kept).
pub fn reset_plan_stats() {
    let mut cache = cache();
    cache.hits = 0;
    cache.misses = 0;
    cache.evictions = 0;
}

/// Drop every cached plan (counters are kept). Used by benchmarks that
/// measure cold planning overhead — after this call the next `einsum` pays
/// validation and the greedy search again.
pub fn clear_plan_cache() {
    let mut cache = cache();
    cache.map.clear();
    cache.resident = 0;
}

//! Task-graph executor for the koala-rs hot paths.
//!
//! The shared-memory layer expresses its parallel work — SUMMA rounds, the
//! bond updates of a PEPS gate list, the environment sweeps and term strips
//! of a PEPS measurement, the bitstrings of an amplitude batch, the zip-up
//! steps of one boundary contraction, served jobs — as DAGs of typed tasks
//! with declared dependencies, and this crate runs them:
//!
//! - A [`Pool`] of persistent workers that share one FIFO job queue. A pool
//!   of `n` threads spawns `n - 1` workers; the thread that calls
//!   [`TaskGraph::run_on`] is the n-th compute thread. Where a graph runs
//!   is decided in one place, [`TaskGraph::run_on`]: a graph that cannot
//!   use a second thread runs inline on the caller as a plain topological
//!   FIFO walk, which is also the reference order every parallel schedule
//!   must reproduce bit-for-bit.
//! - [`TaskGraph`] collects tasks (`FnOnce() -> Result<(), KoalaError>`
//!   closures that may borrow caller data) plus dependency edges, then
//!   [`TaskGraph::run`]s them. `run` blocks until every closure has been
//!   executed or dropped, which is what makes the borrow sound.
//!
//! # Determinism contract
//!
//! The executor makes **no** ordering promises beyond the dependency
//! edges; schedules differ run to run and thread count to thread count.
//! Callers therefore get bit-identical results by construction, not by
//! scheduling: every task writes a disjoint output region, and every
//! floating-point *accumulation* chain is expressed as a dependency chain
//! (task `k+1` of a reduction depends on task `k`), so the arithmetic
//! order is fixed by the graph no matter which thread runs which task.
//! Order-independent billing (MAC/byte counters) uses atomic adds, whose
//! integer sums are exact under any interleaving.
//!
//! # Failure model
//!
//! A task that returns `Err` or panics cancels the run: in-flight tasks
//! finish, every not-yet-started closure is dropped without running, and
//! `run` returns the first error (panics are converted to
//! [`ErrorKind::TaskPanic`]). The pool itself never dies with a run:
//! workers catch unwinds, so a poisoned run leaves no orphaned threads
//! and the next `run` on the same pool starts clean.
//!
//! # Thread-count configuration
//!
//! The global pool is sized on first use by [`default_threads`]:
//! `KOALA_EXEC_THREADS` if set, else the host's available parallelism.
//! The result is clamped to `1..=64`. [`set_threads`] overrides the
//! environment at runtime and is safe to call from concurrent service
//! startup paths: it is idempotent (a call that matches the current pool
//! size keeps the existing workers instead of churning them) and in-flight
//! runs always finish on the pool they started on.
//!
//! # Work accounting
//!
//! [`WorkMeter`] provides scoped billing. Scope stacks
//! travel with tasks: [`TaskGraph::add`] captures the submitting thread's
//! stack and the executing worker installs it around the closure, so work a
//! scope causes is billed to it no matter which thread runs it.
//!
//! # Heap policy
//!
//! The first [`Pool::new`] of a process (the global pool, [`set_threads`],
//! any test or bench pool, one thread or many) sets glibc's heap policy
//! once. Every hot step frees ~0.4-1 MB of transients: thetas, factor
//! column buffers, GEMM pack panels, factors. By default glibc hands the
//! freed top of an arena back to the kernel once it passes the trim
//! threshold, and the next step faults the same pages in again one by one.
//! Those minor faults cost kernel time, and every thread's faults and trims
//! contend for the process's memory-map lock. So the policy sets two
//! `mallopt` tunables:
//!
//! - `M_TOP_PAD` = 4 MiB: trimming leaves up to 4 MiB free at the top of
//!   each arena, and the main heap grows 4 MiB beyond what a request needs.
//!   4 MiB is the smallest power of two that took every benchmark workload
//!   to its fault floor; 1-2 MiB still left many faults on
//!   `rqc_amplitudes`, whose shapes change with every gate.
//! - `M_MMAP_THRESHOLD` = glibc's 32 MiB ceiling (16 MiB on 32-bit).
//!   Setting `M_TOP_PAD` switches off glibc's dynamic `mmap` threshold and
//!   freezes it wherever it stands, 128 KiB in a fresh process. A thread
//!   whose arena predates the policy would then `mmap` and unmap every
//!   block of 128 KiB or more, a theta on every call. Pinning the threshold
//!   at the ceiling keeps such blocks on the heap.
//!
//! The cost is memory. The pad is the most free memory kept at each
//! arena's top; it does not cap what the process keeps, which still
//! follows peak use and fragmentation: a block of up to 32 MiB freed below
//! an arena's top stays resident.
//!
//! Each thread allocates from its own arena, and an arena keeps every page
//! it has grown into while that page lies within the pad above its highest
//! live block, so its resident size is the highest point its use has
//! reached. Which thread allocates what therefore shows in peak RSS.
//! Measured on the benchmark's `rqc_amplitudes` (2 pool threads, 2-vCPU
//! Xeon; heap sizes from `/proc/self/smaps` of a process running its
//! iteration 800 times): with the circuit applied one gate at a time on
//! the caller, the worker's arena held only amplitude-batch transients and
//! stayed at 2.2 MB, the main heap at 4.4-4.7 MB. Run as one gate list,
//! the worker also held update transients and new site tensors that live
//! through the amplitude batch, and both arenas crept to 4.2-4.5 MB within
//! a few hundred iterations: peak RSS 10.47 -> 12.48 MB (+19 %, 3 rounds
//! of 15 s). Two changes took it back to 10.46 -> 10.84 MB (+3.6 %, 10
//! pairs): the QR-SVD update writes its recombination straight into PEPS
//! layout instead of permuting a site-sized product into a second copy,
//! and the PEPS circuit lowering copies the evolved state into its own
//! thread's heap before the threaded amplitude batch. Neither alone was
//! enough (+14.5 % and +13.4 %).
//! Nothing allocated changes, so values and allocation counts do not. Off
//! glibc (`target_env = "gnu"` on Linux) the policy is a no-op. The
//! measured faults, timings and peak RSS per benchmark workload are in the
//! project's `CHANGES.md` and `ROADMAP.md`; `linalg/tests/heap_policy.rs`
//! checks that warm SVDs stop faulting.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod meter;

pub use meter::{add_bytes, add_complex_macs, add_real_macs, WorkLedger, WorkMeter};

use koala_error::{ErrorKind, KoalaError};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

/// Lock a mutex, recovering the guard from a poisoned lock. Task panics are
/// caught before they can poison executor state, so poisoning here can only
/// come from a panic in the executor itself; the counters and queues remain
/// structurally valid either way.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a task *is*, for diagnostics and error context. The executor does
/// not dispatch on this — it exists so a failed run can say "gemm task 17
/// panicked" instead of "task 17 panicked".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// One rank's local product of a SUMMA round (a fixed-order slice of an
    /// accumulation chain).
    Gemm,
    /// Communication (panel broadcast, checksum, delivery) in the cluster.
    Comm,
    /// One site or bond update of a PEPS gate list (a whole contract-and-
    /// refactorize, run serially inside the task).
    Update,
    /// Boundary-contraction work: one independent contraction of a PEPS
    /// measurement or an amplitude batch (an environment sweep, the strips
    /// of one term, one bitstring), or one zip-up step — or the start of a
    /// row — inside a single contraction's wavefront, which such a task may
    /// run as a nested graph.
    Contract,
    /// Anything else.
    Other,
}

impl TaskKind {
    fn name(self) -> &'static str {
        match self {
            TaskKind::Gemm => "gemm",
            TaskKind::Comm => "comm",
            TaskKind::Update => "update",
            TaskKind::Contract => "contract",
            TaskKind::Other => "task",
        }
    }
}

/// Result type tasks return.
pub type TaskResult = Result<(), KoalaError>;

/// Opaque handle to a task within one [`TaskGraph`]; used to declare
/// dependencies. Only valid for the graph that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskId(usize);

/// Cooperative cancellation flag. Cloneable; `cancel()` raises it and
/// [`CancelToken::is_cancelled`] reads it, so a long-running job can poll
/// it between steps and stop early with [`ErrorKind::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation of whatever polls this token.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

type BoxedTask<'env> = Box<dyn FnOnce() -> TaskResult + Send + 'env>;

struct TaskNode<'env> {
    run: BoxedTask<'env>,
    kind: TaskKind,
    deps: Vec<usize>,
}

/// A DAG of tasks under construction. Tasks may borrow from the caller's
/// stack (`'env`); `run`/`run_on` block until every closure has been
/// executed or dropped, so the borrows stay sound.
///
/// Cycles are unrepresentable: dependencies are [`TaskId`]s, which only
/// exist for tasks already added, so every edge points backwards.
#[derive(Default)]
pub struct TaskGraph<'env> {
    tasks: Vec<TaskNode<'env>>,
}

impl<'env> TaskGraph<'env> {
    /// An empty graph.
    pub fn new() -> Self {
        TaskGraph { tasks: Vec::new() }
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Add a task that runs after every task in `deps`. Duplicate entries
    /// in `deps` are permitted (each occurrence is one edge; the task still
    /// runs exactly once, after the dependency).
    ///
    /// The submitting thread's [`WorkMeter`] scope stack is captured here and
    /// installed around the closure wherever it executes, so scoped work
    /// accounting follows the task onto pool workers.
    pub fn add<F>(&mut self, kind: TaskKind, deps: &[TaskId], f: F) -> TaskId
    where
        F: FnOnce() -> TaskResult + Send + 'env,
    {
        debug_assert!(deps.iter().all(|d| d.0 < self.tasks.len()), "dependency on unknown task");
        let id = self.tasks.len();
        let scope = meter::capture_scope();
        let run: BoxedTask<'env> = if scope.is_empty() {
            Box::new(f)
        } else {
            Box::new(move || meter::with_scope(scope, f))
        };
        self.tasks.push(TaskNode { run, kind, deps: deps.iter().map(|d| d.0).collect() });
        TaskId(id)
    }

    /// Run the graph on the process-global pool (see [`pool`]).
    pub fn run(self) -> TaskResult {
        self.run_on(&pool())
    }

    /// How many tasks can be in flight together: the largest number of tasks
    /// that share a depth (longest dependency path below them). One task and
    /// a chain both have width 1; the empty graph has width 0.
    fn width(&self) -> usize {
        let mut depth = Vec::with_capacity(self.tasks.len());
        let mut per_depth: Vec<usize> = Vec::new();
        for node in &self.tasks {
            let d = node.deps.iter().map(|&j| depth[j] + 1).max().unwrap_or(0);
            if d == per_depth.len() {
                per_depth.push(0);
            }
            per_depth[d] += 1;
            depth.push(d);
        }
        per_depth.into_iter().max().unwrap_or(0)
    }

    /// Run the graph on a specific pool. Blocks until the run completes,
    /// or fails; the calling thread executes tasks too.
    ///
    /// This is the one place that decides where a graph runs. A one-thread
    /// pool, one task or one chain (a graph whose width — the most tasks
    /// that share a depth — is at most 1) runs inline on the caller, in the
    /// serial reference order; anything wider goes through the pool's
    /// queue, and the caller works on its own run alongside the workers.
    pub fn run_on(self, pool: &Pool) -> TaskResult {
        if self.tasks.is_empty() {
            return Ok(());
        }
        let inline = pool.shared.threads == 1 || self.width() <= 1;
        let n = self.tasks.len();
        let mut pending = Vec::with_capacity(n);
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut kinds = Vec::with_capacity(n);
        let mut slots = Vec::with_capacity(n);
        for (i, node) in self.tasks.into_iter().enumerate() {
            pending.push(AtomicUsize::new(node.deps.len()));
            for &d in &node.deps {
                dependents[d].push(i);
            }
            kinds.push(node.kind);
            // SAFETY: lifetime erasure. The closure may borrow `'env` data,
            // but `RunState` never outlives this call with a live closure in
            // it: the loops below only return once `done == total`, and
            // `done` is bumped for a task strictly after its closure has
            // been executed or dropped. Stale queue entries that survive
            // the run hold only `(Arc<RunState>, usize)` — the closure slot
            // they point at is already empty.
            let erased: BoxedTask<'static> = unsafe { std::mem::transmute(node.run) };
            slots.push(Mutex::new(Some(erased)));
        }
        let state = Arc::new(RunState {
            slots,
            claimed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            pending,
            dependents,
            kinds,
            done: AtomicUsize::new(0),
            total: n,
            failed: AtomicBool::new(false),
            error: Mutex::new(None),
            monitor: Mutex::new(()),
            done_cv: Condvar::new(),
        });

        if inline {
            run_serial(&state);
        } else {
            run_parallel(&state, &pool.shared);
        }
        debug_assert_eq!(state.done.load(Ordering::Acquire), n);

        let error = lock(&state.error).take();
        error.map_or(Ok(()), Err)
    }
}

/// Shared state of one `run`: closure slots, dependency counters, and the
/// completion monitor. Queue entries reference tasks as `(Arc<RunState>,
/// index)`; the `claimed` flags guarantee each task is executed (or, on a
/// failed run, dropped) exactly once no matter how many queue
/// entries or drain passes race for it.
struct RunState {
    slots: Vec<Mutex<Option<BoxedTask<'static>>>>,
    claimed: Vec<AtomicBool>,
    pending: Vec<AtomicUsize>,
    dependents: Vec<Vec<usize>>,
    kinds: Vec<TaskKind>,
    done: AtomicUsize,
    total: usize,
    failed: AtomicBool,
    error: Mutex<Option<KoalaError>>,
    monitor: Mutex<()>,
    done_cv: Condvar,
}

impl RunState {
    /// True once the run should stop starting new tasks.
    fn aborting(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Claim the exclusive right to execute (or drop) task `idx`.
    fn claim(&self, idx: usize) -> bool {
        !self.claimed[idx].swap(true, Ordering::AcqRel)
    }

    fn record_error(&self, e: KoalaError) {
        let mut slot = lock(&self.error);
        if slot.is_none() {
            *slot = Some(e);
        }
        drop(slot);
        self.failed.store(true, Ordering::Release);
    }
}

/// Execute (or, on an aborting run, drop) an already-claimed task, then
/// release its dependents. `enqueue` receives each newly-ready task index.
fn execute_claimed(state: &Arc<RunState>, idx: usize, mut enqueue: impl FnMut(usize)) {
    if let Some(f) = lock(&state.slots[idx]).take() {
        if state.aborting() {
            drop(f);
        } else {
            match catch_unwind(AssertUnwindSafe(f)) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    state.record_error(e.context(format!("{} task {idx}", state.kinds[idx].name())))
                }
                // `&*payload`, not `&payload`: coercing `&Box<dyn Any>` to
                // `&dyn Any` would wrap the *box* and defeat the downcast.
                Err(payload) => state.record_error(
                    KoalaError::new(ErrorKind::TaskPanic, panic_message(&*payload))
                        .context(format!("{} task {idx}", state.kinds[idx].name())),
                ),
            }
        }
    }
    for &dep in &state.dependents[idx] {
        if state.pending[dep].fetch_sub(1, Ordering::AcqRel) == 1 {
            enqueue(dep);
        }
    }
    state.done.fetch_add(1, Ordering::AcqRel);
    // Lock-then-notify pairs with the monitor-guarded `done` check in the
    // caller's wait loop, so a completion can never slip between its check
    // and its wait (no lost wakeup).
    let _g = lock(&state.monitor);
    state.done_cv.notify_all();
}

/// Drop every not-yet-claimed closure of an aborting run so `done` reaches
/// `total` even though their dependencies will never complete. Claiming
/// makes this idempotent and safe against racing workers.
fn drain_aborted(state: &Arc<RunState>) {
    for idx in 0..state.total {
        if state.claim(idx) {
            execute_claimed(state, idx, |_| {});
        }
    }
}

/// The inline path: a plain topological FIFO walk on the calling thread.
/// Seeds ready tasks in id order and releases dependents in id order, which
/// is the reference schedule parallel runs must match bit-for-bit (they do,
/// because accumulation order is fixed by edges, not by schedule).
fn run_serial(state: &Arc<RunState>) {
    let mut ready: VecDeque<usize> =
        (0..state.total).filter(|&i| state.pending[i].load(Ordering::Acquire) == 0).collect();
    while let Some(idx) = ready.pop_front() {
        if state.claim(idx) {
            execute_claimed(state, idx, |dep| ready.push_back(dep));
        }
    }
    if state.done.load(Ordering::Acquire) < state.total {
        // A failure left tasks whose dependencies never
        // completed; drop their closures.
        drain_aborted(state);
    }
}

/// The parallel path: seed ready tasks into the pool's queue, then work
/// alongside the pool's workers until the run completes. The caller only
/// executes tasks of *its own* run — that restriction is what makes nested
/// runs (a task that itself builds and runs a graph) deadlock-free: every
/// blocked `run_on` call makes progress on its own graph even if all pool
/// workers are busy elsewhere.
fn run_parallel(state: &Arc<RunState>, shared: &Shared) {
    let seeds: Vec<usize> =
        (0..state.total).filter(|&i| state.pending[i].load(Ordering::Acquire) == 0).collect();
    shared.push_many(state, &seeds);
    loop {
        if let Some(idx) = shared.pop_for(state) {
            if state.claim(idx) {
                let enqueue = |dep| shared.push_many(state, &[dep]);
                execute_claimed(state, idx, enqueue);
            }
            continue;
        }
        if state.aborting() && state.done.load(Ordering::Acquire) < state.total {
            drain_aborted(state);
            continue;
        }
        let g = lock(&state.monitor);
        if state.done.load(Ordering::Acquire) >= state.total {
            break;
        }
        // The timeout is a safety net only; completion always notifies.
        let (_g, _timeout) = state
            .done_cv
            .wait_timeout(g, Duration::from_millis(10))
            .unwrap_or_else(PoisonError::into_inner);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("task panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("task panicked: {s}")
    } else {
        "task panicked".to_string()
    }
}

type Job = (Arc<RunState>, usize);

/// A pool's one FIFO job queue and its shutdown flag, under one lock.
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// State shared between a pool's workers and every thread running a graph
/// on it.
struct Shared {
    /// Logical thread count (workers + the calling thread).
    threads: usize,
    /// Callers seed their runs at the back, released dependents go to the
    /// back, workers take from the front.
    queue: Mutex<Queue>,
    /// Signalled on every push and on shutdown. Workers wait on it while
    /// holding the queue lock, so no push can slip past a worker going idle.
    ready: Condvar,
}

impl Shared {
    fn push_many(&self, state: &Arc<RunState>, idxs: &[usize]) {
        if idxs.is_empty() {
            return;
        }
        lock(&self.queue).jobs.extend(idxs.iter().map(|&i| (Arc::clone(state), i)));
        if idxs.len() == 1 {
            self.ready.notify_one();
        } else {
            self.ready.notify_all();
        }
    }

    /// Pop the first job in the queue that belongs to `state` (caller side).
    /// Callers never execute other runs' tasks — see [`run_parallel`].
    fn pop_for(&self, state: &Arc<RunState>) -> Option<usize> {
        let mut q = lock(&self.queue);
        let pos = q.jobs.iter().position(|(s, _)| Arc::ptr_eq(s, state))?;
        q.jobs.remove(pos).map(|(_, idx)| idx)
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut q = lock(&shared.queue);
    loop {
        if q.shutdown {
            return;
        }
        let Some((state, idx)) = q.jobs.pop_front() else {
            q = shared.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        drop(q);
        if state.claim(idx) {
            execute_claimed(&state, idx, |dep| shared.push_many(&state, &[dep]));
        }
        q = lock(&shared.queue);
    }
}

/// A fixed-size executor: `threads - 1` persistent workers plus the thread
/// that calls [`TaskGraph::run_on`]. Dropping the pool shuts the workers
/// down and joins them.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Pool {
    /// Build a pool with `threads` compute threads (min 1). `threads == 1`
    /// spawns no workers at all; graphs run inline on the caller. The first
    /// pool of a process also sets its heap policy (crate doc, "Heap
    /// policy").
    pub fn new(threads: usize) -> Pool {
        apply_heap_policy();
        let threads = threads.max(1);
        let n_workers = threads - 1;
        let shared = Arc::new(Shared {
            threads,
            queue: Mutex::new(Queue { jobs: VecDeque::new(), shutdown: false }),
            ready: Condvar::new(),
        });
        let mut workers = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let sh = Arc::clone(&shared);
            let builder = thread::Builder::new().name(format!("koala-exec-{i}"));
            if let Ok(handle) = builder.spawn(move || worker_loop(sh)) {
                workers.push(handle);
            }
            // A failed spawn (resource exhaustion) degrades capacity but
            // not correctness: the caller thread still drives every run.
        }
        Pool { shared, workers }
    }

    /// The logical thread count (workers + caller).
    pub fn threads(&self) -> usize {
        self.shared.threads
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Apply the process heap policy ("Heap policy" in the crate doc), once per
/// process, from whichever pool is built first. A no-op off glibc.
fn apply_heap_policy() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            use std::ffi::{c_int, c_long};
            extern "C" {
                fn mallopt(param: c_int, value: c_int) -> c_int;
            }
            // glibc's `malloc.h` parameter numbers.
            const M_TOP_PAD: c_int = -2;
            const M_MMAP_THRESHOLD: c_int = -3;
            // Free heap each arena keeps at its top instead of handing it
            // back to the kernel: the smallest pad that stopped the
            // page-fault storm on every benchmark workload.
            const TOP_PAD: usize = 4 << 20;
            // Requests below this grow the heap instead of getting an
            // `mmap` of their own: glibc's ceiling for its dynamic
            // threshold (`DEFAULT_MMAP_THRESHOLD_MAX`), which setting
            // `M_TOP_PAD` would otherwise freeze wherever it stands.
            const MMAP_THRESHOLD: usize = (4 << 20) * std::mem::size_of::<c_long>();
            // SAFETY: the declaration matches glibc's `int mallopt(int, int)`,
            // and both values fit a `c_int`. `mallopt` sets allocator
            // tunables under the allocator's own lock, so other threads may
            // allocate meanwhile, and it touches no Rust memory. A refused
            // value (return 0) leaves that tunable as it was.
            unsafe {
                mallopt(M_TOP_PAD, TOP_PAD as c_int);
                mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD as c_int);
            }
        }
    });
}

static GLOBAL: Mutex<Option<Arc<Pool>>> = Mutex::new(None);

/// The process-global pool, built on first use with [`default_threads`]
/// threads. [`set_threads`] replaces it at runtime.
pub fn pool() -> Arc<Pool> {
    let mut g = lock(&GLOBAL);
    Arc::clone(g.get_or_insert_with(|| Arc::new(Pool::new(default_threads()))))
}

/// Replace the global pool with one of `n` compute threads (min 1). Runs
/// already in flight keep their pool alive until they finish; new runs use
/// the new pool. Tests use this to sweep thread counts within one process.
///
/// Safe to call from concurrent startup paths (e.g. several `koala-serve`
/// front doors spinning up in one process): the swap happens under one lock,
/// and a call whose `n` matches the current pool size is a no-op — repeated
/// or racing identical calls keep the existing workers instead of tearing
/// the pool down and respawning it.
pub fn set_threads(n: usize) {
    let n = n.max(1);
    let mut g = lock(&GLOBAL);
    if g.as_ref().is_some_and(|p| p.threads() == n) {
        return;
    }
    *g = Some(Arc::new(Pool::new(n)));
}

/// Thread count used for the global pool when nothing has called
/// [`set_threads`]: `KOALA_EXEC_THREADS` if set, else the host's available
/// parallelism, clamped to `1..=64`.
pub fn default_threads() -> usize {
    let env = std::env::var("KOALA_EXEC_THREADS").ok().and_then(|v| v.parse::<usize>().ok());
    let n = env.unwrap_or_else(|| {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    });
    n.clamp(1, 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn empty_graph_is_ok() {
        assert!(TaskGraph::new().run_on(&Pool::new(1)).is_ok());
        assert!(TaskGraph::new().run_on(&Pool::new(4)).is_ok());
    }

    #[test]
    fn dependency_chain_orders_side_effects() {
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let log = Mutex::new(Vec::new());
            let mut g = TaskGraph::new();
            let mut prev: Option<TaskId> = None;
            for i in 0..32usize {
                let deps: Vec<TaskId> = prev.into_iter().collect();
                let log = &log;
                prev = Some(g.add(TaskKind::Other, &deps, move || {
                    log.lock().unwrap().push(i);
                    Ok(())
                }));
            }
            g.run_on(&pool).unwrap();
            assert_eq!(*log.lock().unwrap(), (0..32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn width_counts_the_widest_depth() {
        let mut chain = TaskGraph::new();
        let mut prev: Vec<TaskId> = Vec::new();
        for _ in 0..5 {
            prev = vec![chain.add(TaskKind::Other, &prev, || Ok(()))];
        }
        assert_eq!(chain.width(), 1);
        for n in [1, 3, 7] {
            let mut flat = TaskGraph::new();
            for _ in 0..n {
                flat.add(TaskKind::Other, &[], || Ok(()));
            }
            assert_eq!(flat.width(), n);
        }
        assert_eq!(TaskGraph::new().width(), 0);
    }

    #[test]
    fn counters_sum_exactly() {
        let pool = Pool::new(4);
        let sum = AtomicU64::new(0);
        let mut g = TaskGraph::new();
        for i in 0..100u64 {
            let sum = &sum;
            g.add(TaskKind::Other, &[], move || {
                sum.fetch_add(i, Ordering::Relaxed);
                Ok(())
            });
        }
        g.run_on(&pool).unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }
}

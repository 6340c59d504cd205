//! Concurrency stress suite for the `koala-exec` task-graph executor.
//!
//! Four properties pin the runtime's contract:
//!
//! 1. **Exactly-once execution**: every task of a randomized DAG runs once —
//!    never zero times, never twice — at any thread count, and never before
//!    any of its dependencies has finished.
//! 2. **Typed failure, no deadlock**: a panicking task surfaces as
//!    [`ErrorKind::TaskPanic`], a failing task as its own error; in both
//!    cases `run_on` returns (no hang), unreached task closures are
//!    dropped rather than executed, and the pool stays usable for
//!    subsequent runs (no orphaned worker state).
//! 3. **Nested runs**: a task may itself build and run a graph on the same
//!    pool without deadlocking (the inner caller helps execute its own run).
//! 4. **Inline rule**: a graph of one task or one chain runs on the caller,
//!    whatever the pool size.

use koala_error::{ErrorKind, KoalaError};
use koala_exec::{Pool, TaskGraph, TaskId, TaskKind};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Random DAG description: for task `i`, `dep_picks[i]` selects up to two
/// dependencies among tasks `0..i` (self-edges impossible by construction,
/// so the graph is acyclic).
fn deps_of(i: usize, picks: &[usize]) -> Vec<usize> {
    if i == 0 {
        return Vec::new();
    }
    let mut out = vec![picks[2 * i] % i];
    let second = picks[2 * i + 1] % i;
    if second != out[0] {
        out.push(second);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every task of a random DAG runs exactly once on pools of 1, 2 and 4
    /// threads, and only after all of its dependencies completed.
    #[test]
    fn random_dag_runs_every_task_exactly_once(
        n in 1usize..40,
        seed in 0usize..1_000_000,
    ) {
        let picks: Vec<usize> = (0..2 * 40).map(|j| seed.wrapping_mul(2654435761).wrapping_add(j * 40503)).collect();
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
            let mut graph = TaskGraph::new();
            let mut ids: Vec<TaskId> = Vec::with_capacity(n);
            for i in 0..n {
                let dep_idx = deps_of(i, &picks);
                let dep_ids: Vec<TaskId> = dep_idx.iter().map(|&d| ids[d]).collect();
                let runs_ref = &runs;
                let done_ref = &done;
                let id = graph.add(TaskKind::Other, &dep_ids, move || {
                    for &d in &dep_idx {
                        assert!(
                            done_ref[d].load(Ordering::Acquire),
                            "task {i} ran before dependency {d} finished"
                        );
                    }
                    runs_ref[i].fetch_add(1, Ordering::Relaxed);
                    done_ref[i].store(true, Ordering::Release);
                    Ok(())
                });
                ids.push(id);
            }
            graph.run_on(&pool).unwrap();
            for (i, r) in runs.iter().enumerate() {
                prop_assert_eq!(r.load(Ordering::Relaxed), 1, "task {} on {} threads", i, threads);
            }
        }
    }
}

/// A panicking task turns into `ErrorKind::TaskPanic`, the run returns
/// promptly, downstream closures are dropped unexecuted, and the same pool
/// then completes a healthy graph (workers survive the panic).
#[test]
fn panic_is_typed_and_pool_survives() {
    for threads in [1usize, 4] {
        let pool = Pool::new(threads);
        let after_ran = Arc::new(AtomicUsize::new(0));
        let mut graph = TaskGraph::new();
        let bad = graph.add(TaskKind::Other, &[], || panic!("boom in task"));
        let after = Arc::clone(&after_ran);
        graph.add(TaskKind::Other, &[bad], move || {
            after.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        let err = graph.run_on(&pool).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TaskPanic, "got: {err}");
        assert!(err.to_string().contains("boom in task"), "payload lost: {err}");
        assert_eq!(after_ran.load(Ordering::Relaxed), 0, "dependent of panicked task ran");

        // The pool is still healthy: a fresh graph completes normally.
        let count = AtomicUsize::new(0);
        let mut graph = TaskGraph::new();
        for _ in 0..16 {
            graph.add(TaskKind::Other, &[], || {
                count.fetch_add(1, Ordering::Relaxed);
                Ok(())
            });
        }
        graph.run_on(&pool).unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }
}

/// A task returning a typed error aborts the run with that error and skips
/// everything downstream of it.
#[test]
fn task_error_propagates() {
    let pool = Pool::new(2);
    let mut graph = TaskGraph::new();
    let bad = graph.add(TaskKind::Other, &[], || {
        Err(KoalaError::new(ErrorKind::NoConvergence, "did not converge"))
    });
    let ran = AtomicUsize::new(0);
    let ran_ref = &ran;
    graph.add(TaskKind::Other, &[bad], move || {
        ran_ref.fetch_add(1, Ordering::Relaxed);
        Ok(())
    });
    let err = graph.run_on(&pool).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::NoConvergence);
    assert_eq!(ran.load(Ordering::Relaxed), 0);
}

/// A failing task drains the rest of the graph: `run_on` returns its error,
/// no task that waits on it executes, and every task closure is dropped
/// (tracked by a drop guard), so nothing leaks into the pool's queues to
/// haunt a later run.
#[test]
fn failure_drains_cleanly() {
    struct DropGuard(Arc<AtomicUsize>);
    impl Drop for DropGuard {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    let fail = || Err(KoalaError::new(ErrorKind::NoConvergence, "injected"));

    for threads in [1usize, 4] {
        let pool = Pool::new(threads);
        // A chain whose head fails: no later link runs.
        let dropped = Arc::new(AtomicUsize::new(0));
        let executed = Arc::new(AtomicUsize::new(0));
        let mut graph = TaskGraph::new();
        let mut prev = graph.add(TaskKind::Other, &[], fail);
        for _ in 0..32 {
            let guard = DropGuard(Arc::clone(&dropped));
            let executed = Arc::clone(&executed);
            prev = graph.add(TaskKind::Other, &[prev], move || {
                let _hold = &guard;
                executed.fetch_add(1, Ordering::Relaxed);
                Ok(())
            });
        }
        let err = graph.run_on(&pool).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NoConvergence);
        assert_eq!(executed.load(Ordering::Relaxed), 0, "a task after the failure still ran");
        assert_eq!(dropped.load(Ordering::Relaxed), 32, "task closures leaked");

        // Fan-out: every successor of the failed task drops.
        let dropped = Arc::new(AtomicUsize::new(0));
        let mut graph = TaskGraph::new();
        let first = graph.add(TaskKind::Other, &[], fail);
        for _ in 0..16 {
            let guard = DropGuard(Arc::clone(&dropped));
            graph.add(TaskKind::Other, &[first], move || {
                let _hold = &guard;
                Ok(())
            });
        }
        let err = graph.run_on(&pool).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NoConvergence);
        assert_eq!(dropped.load(Ordering::Relaxed), 16, "successor closures leaked");
    }
}

/// A task can build and run a nested graph on the same pool: the inner run
/// completes (the nested caller executes its own tasks when all workers are
/// busy) instead of deadlocking.
#[test]
fn nested_runs_do_not_deadlock() {
    for threads in [1usize, 2, 4] {
        let pool = Pool::new(threads);
        let pool_ref = &pool;
        let total = AtomicUsize::new(0);
        let total_ref = &total;
        let mut graph = TaskGraph::new();
        for _ in 0..8 {
            graph.add(TaskKind::Other, &[], move || {
                let mut inner = TaskGraph::new();
                for _ in 0..8 {
                    inner.add(TaskKind::Other, &[], move || {
                        total_ref.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    });
                }
                inner.run_on(pool_ref)
            });
        }
        graph.run_on(&pool).unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 64, "threads = {threads}");
    }
}

/// Wide diamond fan-out/fan-in: one source, many middles, one sink; the sink
/// observes every middle's side effect.
#[test]
fn diamond_fan_in_sees_all_predecessors() {
    let pool = Pool::new(4);
    let flags: Vec<AtomicBool> = (0..64).map(|_| AtomicBool::new(false)).collect();
    let flags_ref = &flags;
    let mut graph = TaskGraph::new();
    let src = graph.add(TaskKind::Other, &[], || Ok(()));
    let mids: Vec<TaskId> = (0..64)
        .map(|i| {
            graph.add(TaskKind::Other, &[src], move || {
                flags_ref[i].store(true, Ordering::Release);
                Ok(())
            })
        })
        .collect();
    let ok = AtomicBool::new(false);
    let ok_ref = &ok;
    graph.add(TaskKind::Other, &mids, move || {
        assert!(flags_ref.iter().all(|f| f.load(Ordering::Acquire)));
        ok_ref.store(true, Ordering::Release);
        Ok(())
    });
    graph.run_on(&pool).unwrap();
    assert!(ok.load(Ordering::Acquire));
}

/// A graph that cannot use a second thread runs inline: on a 4-thread pool,
/// every task of a 16-task chain and of a 1-task graph runs on the caller.
/// Each shape runs 20 times, so a schedule that hands even one task to a
/// worker in any run shows.
#[test]
fn chains_and_single_tasks_run_on_the_caller() {
    let pool = Pool::new(4);
    let caller = std::thread::current().id();
    for len in [16usize, 1] {
        for _ in 0..20 {
            let seen = Mutex::new(Vec::new());
            let seen_ref = &seen;
            let mut graph = TaskGraph::new();
            let mut prev: Vec<TaskId> = Vec::new();
            for _ in 0..len {
                prev = vec![graph.add(TaskKind::Other, &prev, move || {
                    seen_ref.lock().unwrap().push(std::thread::current().id());
                    Ok(())
                })];
            }
            graph.run_on(&pool).unwrap();
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen.len(), len);
            assert!(seen.iter().all(|&id| id == caller), "a {len}-task chain left the caller");
        }
    }
}

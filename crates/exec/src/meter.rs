//! Scoped work accounting: [`WorkMeter`] handles that bill the arithmetic
//! and data-movement work executed inside a dynamic scope.
//!
//! The GEMM layer used to tally its complex/real multiply-adds on two
//! process-global statics, which made per-caller attribution impossible —
//! two concurrent workloads saw one merged number. This module replaces the
//! statics with a *stack of meters*:
//!
//! * The [`WorkMeter::global`] meter is the **default scope**: every unit of
//!   work is always billed to it, so it holds the process-wide totals.
//! * [`WorkMeter::scope`] pushes a meter onto a thread-local stack for the
//!   duration of a closure. Work billed inside the closure is added to that
//!   meter *in addition to* the global one (and to any enclosing scopes), so
//!   nested scopes each see their own subtotal and the sum over sibling
//!   scopes equals the global delta exactly (atomic adds commute).
//! * The scope stack **travels with executor tasks**: [`crate::TaskGraph::add`]
//!   captures the submitting thread's stack and installs it around the
//!   closure on whichever worker executes it. Work a scope *causes* is billed
//!   to it no matter which thread runs it — this is what makes per-tenant
//!   job billing in `koala-serve` exact even though the jobs' bond updates
//!   and SUMMA rounds execute on shared pool workers.
//!
//! Three counters are carried per meter, mirroring the conventions of the
//! GEMM layer and the cluster's `CommStats`:
//!
//! * `complex_macs` — complex multiply-adds (8 hardware flops each),
//! * `real_macs` — real multiply-adds (2 hardware flops each),
//! * `bytes` — data movement: the GEMM layer bills its interface traffic
//!   (operand reads + output writes, 16 bytes per complex element) once per
//!   product, and the virtual cluster bills its payload wire traffic.
//!
//! Billing is wait-free on the hot path: one relaxed atomic add per counter
//! per billing site for the global meter, plus one per active scope (the
//! stack is almost always empty or one deep).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Counter cells shared by all clones of one meter.
#[derive(Debug, Default)]
struct Cells {
    complex_macs: AtomicU64,
    real_macs: AtomicU64,
    bytes: AtomicU64,
}

/// A cloneable handle to a set of work counters. Clones share the same
/// cells; [`WorkLedger`] snapshots are consistent per counter (relaxed
/// loads), which is exact whenever no billing is concurrently in flight —
/// e.g. after a scope or task-graph run has completed.
#[derive(Debug, Clone, Default)]
pub struct WorkMeter {
    cells: Arc<Cells>,
}

/// A point-in-time snapshot of a [`WorkMeter`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkLedger {
    /// Complex multiply-adds executed (8 hardware flops each).
    pub complex_macs: u64,
    /// Real multiply-adds executed (2 hardware flops each).
    pub real_macs: u64,
    /// Bytes of data movement billed (GEMM interface traffic + cluster
    /// payload wire traffic).
    pub bytes: u64,
}

impl WorkLedger {
    /// Total hardware flops under the workspace convention: 8 per complex
    /// MAC, 2 per real MAC.
    pub fn hw_flops(&self) -> f64 {
        self.complex_macs as f64 * 8.0 + self.real_macs as f64 * 2.0
    }

    /// Counter-wise difference `self - earlier` (saturating at zero), for
    /// delta accounting around a region of work.
    pub fn minus(&self, earlier: &WorkLedger) -> WorkLedger {
        WorkLedger {
            complex_macs: self.complex_macs.saturating_sub(earlier.complex_macs),
            real_macs: self.real_macs.saturating_sub(earlier.real_macs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }

    /// Counter-wise sum, for aggregating sibling ledgers.
    pub fn plus(&self, other: &WorkLedger) -> WorkLedger {
        WorkLedger {
            complex_macs: self.complex_macs + other.complex_macs,
            real_macs: self.real_macs + other.real_macs,
            bytes: self.bytes + other.bytes,
        }
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == WorkLedger::default()
    }
}

impl WorkMeter {
    /// A fresh meter with all counters at zero.
    pub fn new() -> WorkMeter {
        WorkMeter::default()
    }

    /// The process-global meter — the default scope that every unit of work
    /// is billed to unconditionally, so it holds the process-wide totals.
    pub fn global() -> &'static WorkMeter {
        static GLOBAL: OnceLock<WorkMeter> = OnceLock::new();
        GLOBAL.get_or_init(WorkMeter::new)
    }

    /// Complex multiply-adds billed to this meter so far.
    pub fn complex_macs(&self) -> u64 {
        self.cells.complex_macs.load(Ordering::Relaxed)
    }

    /// Real multiply-adds billed to this meter so far.
    pub fn real_macs(&self) -> u64 {
        self.cells.real_macs.load(Ordering::Relaxed)
    }

    /// Bytes of data movement billed to this meter so far.
    pub fn bytes(&self) -> u64 {
        self.cells.bytes.load(Ordering::Relaxed)
    }

    /// Snapshot all counters.
    pub fn ledger(&self) -> WorkLedger {
        WorkLedger {
            complex_macs: self.complex_macs(),
            real_macs: self.real_macs(),
            bytes: self.bytes(),
        }
    }

    /// Do two handles share the same counter cells?
    pub(crate) fn same_meter(&self, other: &WorkMeter) -> bool {
        Arc::ptr_eq(&self.cells, &other.cells)
    }

    /// Run `f` with this meter pushed onto the calling thread's scope stack:
    /// work billed inside `f` — including work that executor tasks created
    /// inside `f` perform on *other* threads — is added to this meter on top
    /// of the global one and any enclosing scopes.
    ///
    /// Re-entrant scoping of the *same* meter is idempotent (the meter is
    /// billed once, not twice). The stack is restored even if `f` panics.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        let pushed = SCOPE.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.iter().any(|m| m.same_meter(self)) {
                false
            } else {
                stack.push(self.clone());
                true
            }
        });
        let _guard = PopGuard { pushed };
        f()
    }
}

thread_local! {
    /// The calling thread's active scope stack (innermost last). The global
    /// meter is *not* on the stack — it is billed unconditionally.
    static SCOPE: RefCell<Vec<WorkMeter>> = const { RefCell::new(Vec::new()) };
}

/// Pops the scope pushed by [`WorkMeter::scope`] on drop (panic-safe).
struct PopGuard {
    pushed: bool,
}

impl Drop for PopGuard {
    fn drop(&mut self) {
        if self.pushed {
            SCOPE.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Snapshot the calling thread's scope stack (for task capture).
pub(crate) fn capture_scope() -> Vec<WorkMeter> {
    SCOPE.with(|s| s.borrow().clone())
}

/// Run `f` with the thread's scope stack *replaced* by `scope`, restoring
/// the previous stack afterwards (panic-safe). Replacement — not pushing —
/// is what gives tasks "the scope travels with the work" semantics: the
/// executing worker bills exactly the meters the submitting thread was
/// scoped to, no more (a worker's own transient state never leaks in) and
/// no double counting when the submitting thread itself executes the task.
pub(crate) fn with_scope<R>(scope: Vec<WorkMeter>, f: impl FnOnce() -> R) -> R {
    let prev = SCOPE.with(|s| std::mem::replace(&mut *s.borrow_mut(), scope));
    let _guard = RestoreGuard { prev: Some(prev) };
    f()
}

/// Restores a replaced scope stack on drop (panic-safe).
struct RestoreGuard {
    prev: Option<Vec<WorkMeter>>,
}

impl Drop for RestoreGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            SCOPE.with(|s| *s.borrow_mut() = prev);
        }
    }
}

/// Bill `n` complex multiply-adds to the global meter and every meter in the
/// calling thread's scope stack.
#[inline]
pub fn add_complex_macs(n: u64) {
    WorkMeter::global().cells.complex_macs.fetch_add(n, Ordering::Relaxed);
    SCOPE.with(|s| {
        for m in s.borrow().iter() {
            m.cells.complex_macs.fetch_add(n, Ordering::Relaxed);
        }
    });
}

/// Bill `n` real multiply-adds (see [`add_complex_macs`]).
#[inline]
pub fn add_real_macs(n: u64) {
    WorkMeter::global().cells.real_macs.fetch_add(n, Ordering::Relaxed);
    SCOPE.with(|s| {
        for m in s.borrow().iter() {
            m.cells.real_macs.fetch_add(n, Ordering::Relaxed);
        }
    });
}

/// Bill `n` bytes of data movement (see [`add_complex_macs`]).
#[inline]
pub fn add_bytes(n: u64) {
    WorkMeter::global().cells.bytes.fetch_add(n, Ordering::Relaxed);
    SCOPE.with(|s| {
        for m in s.borrow().iter() {
            m.cells.bytes.fetch_add(n, Ordering::Relaxed);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_billing_adds_to_scope_and_global() {
        let meter = WorkMeter::new();
        let g0 = WorkMeter::global().ledger();
        meter.scope(|| {
            add_complex_macs(5);
            add_real_macs(7);
            add_bytes(11);
        });
        add_complex_macs(3); // outside the scope: global only
        let g = WorkMeter::global().ledger().minus(&g0);
        assert_eq!(meter.ledger(), WorkLedger { complex_macs: 5, real_macs: 7, bytes: 11 });
        assert!(g.complex_macs >= 8 && g.real_macs >= 7 && g.bytes >= 11);
    }

    #[test]
    fn nested_scopes_each_see_their_subtotal() {
        let outer = WorkMeter::new();
        let inner = WorkMeter::new();
        outer.scope(|| {
            add_complex_macs(1);
            inner.scope(|| add_complex_macs(10));
        });
        assert_eq!(outer.complex_macs(), 11);
        assert_eq!(inner.complex_macs(), 10);
    }

    #[test]
    fn reentrant_same_meter_scope_bills_once() {
        let meter = WorkMeter::new();
        meter.scope(|| meter.scope(|| add_real_macs(4)));
        assert_eq!(meter.real_macs(), 4);
    }

    #[test]
    fn scope_stack_restored_after_panic() {
        let meter = WorkMeter::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            meter.scope(|| panic!("boom"));
        }));
        assert!(r.is_err());
        add_complex_macs(1); // must not land on `meter`
        assert_eq!(meter.complex_macs(), 0);
    }

    #[test]
    fn ledger_arithmetic() {
        let a = WorkLedger { complex_macs: 10, real_macs: 4, bytes: 100 };
        let b = WorkLedger { complex_macs: 3, real_macs: 9, bytes: 40 };
        assert_eq!(a.minus(&b), WorkLedger { complex_macs: 7, real_macs: 0, bytes: 60 });
        assert_eq!(a.plus(&b), WorkLedger { complex_macs: 13, real_macs: 13, bytes: 140 });
        assert!((a.hw_flops() - (80.0 + 8.0)).abs() < 1e-12);
        assert!(!a.is_zero() && WorkLedger::default().is_zero());
    }

    #[test]
    fn scope_travels_with_tasks() {
        let pool = crate::Pool::new(4);
        let meter = WorkMeter::new();
        meter.scope(|| {
            let mut g = crate::TaskGraph::new();
            for _ in 0..64 {
                g.add(crate::TaskKind::Other, &[], || {
                    add_complex_macs(3);
                    Ok(())
                });
            }
            g.run_on(&pool).unwrap();
        });
        assert_eq!(meter.complex_macs(), 3 * 64);
        // Tasks created outside any scope must not bill the meter, even when
        // they run while another thread is scoped.
        let mut g = crate::TaskGraph::new();
        g.add(crate::TaskKind::Other, &[], || {
            add_complex_macs(1);
            Ok(())
        });
        g.run_on(&pool).unwrap();
        assert_eq!(meter.complex_macs(), 3 * 64);
    }
}

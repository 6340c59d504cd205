//! Pins the documented thread-count configuration contract:
//! `KOALA_EXEC_THREADS` → host parallelism, clamped to `1..=64`, plus the race-safety of [`koala_exec::set_threads`]
//! (an identical request keeps the existing pool).
//!
//! Everything lives in ONE `#[test]` function: environment variables are
//! process-global and the test harness runs a binary's tests on concurrent
//! threads, so interleaved `set_var` calls would race.

use koala_exec::{default_threads, pool, set_threads};
use std::env;
use std::sync::Arc;

/// Restores an environment variable to its pre-test value on drop, so a
/// failing assertion cannot leak a fake thread count into later processes
/// spawned by the same harness.
struct RestoreVar {
    key: &'static str,
    original: Option<String>,
}

impl RestoreVar {
    fn capture(key: &'static str) -> Self {
        Self { key, original: env::var(key).ok() }
    }
}

impl Drop for RestoreVar {
    fn drop(&mut self) {
        match &self.original {
            Some(v) => env::set_var(self.key, v),
            None => env::remove_var(self.key),
        }
    }
}

#[test]
fn env_precedence_clamping_and_idempotent_set_threads() {
    let _koala = RestoreVar::capture("KOALA_EXEC_THREADS");
    let host = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, 64);

    // The executor's own knob sets the default pool size.
    env::set_var("KOALA_EXEC_THREADS", "3");
    assert_eq!(default_threads(), 3);

    // Values clamp into 1..=64 rather than erroring.
    env::set_var("KOALA_EXEC_THREADS", "200");
    assert_eq!(default_threads(), 64);
    env::set_var("KOALA_EXEC_THREADS", "0");
    assert_eq!(default_threads(), 1);

    // An unparsable value falls back to host parallelism.
    env::set_var("KOALA_EXEC_THREADS", "zebra");
    assert_eq!(default_threads(), host);

    // Unset: host parallelism, clamped.
    env::remove_var("KOALA_EXEC_THREADS");
    assert_eq!(default_threads(), host);

    // set_threads is idempotent: asking for the current size keeps the
    // existing pool (same Arc), so racing identical startup calls cannot
    // tear down workers mid-flight.
    set_threads(2);
    let p1 = pool();
    assert_eq!(p1.threads(), 2);
    set_threads(2);
    let p2 = pool();
    assert!(Arc::ptr_eq(&p1, &p2), "identical set_threads must keep the pool");

    // A different size really does replace it.
    set_threads(3);
    let p3 = pool();
    assert!(!Arc::ptr_eq(&p1, &p3), "a new size must build a new pool");
    assert_eq!(p3.threads(), 3);
    set_threads(1);
}

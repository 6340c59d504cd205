//! Workspace-level error type and recovery-statistics counters.
//!
//! [`KoalaError`] is the only error type of the workspace: a kind, a message,
//! and a chain of context frames (innermost first). The [`ErrorKind`] is set
//! once, by the code that detects the failure; every layer above only pushes
//! a `.context(..)` frame, so the kind a kernel raised is the kind the
//! service reports. Library code never panics on a fallible path — it
//! returns one of these, and the caller either recovers (the
//! numerical-recovery ladder, an ABFT round retry) or surfaces the full
//! chain to the user.
//!
//! Recoveries themselves are observable through the [`recovery`] module: a
//! process-wide set of monotonic counters that the fault-injection tests and
//! the bench harness read to verify *which* path handled a failure, not just
//! that the final numbers came out right.

use std::fmt;

/// Broad classification of a failure. Recovery policies dispatch on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// Operand shapes or dimensions are incompatible.
    Shape,
    /// An iterative method exhausted its budget without converging.
    NoConvergence,
    /// A NaN or infinity was detected where finite data is required.
    NonFinite,
    /// An injected or detected fault in the (simulated) cluster.
    Fault,
    /// A bounded resource has no room left (a full job queue).
    Exhausted,
    /// The caller supplied an invalid parameter.
    InvalidArgument,
    /// An I/O or serialization problem.
    Io,
    /// A task running on the executor panicked (caught and converted).
    TaskPanic,
    /// A task-graph run was cancelled before completion.
    Cancelled,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorKind::Shape => "shape",
            ErrorKind::NoConvergence => "no-convergence",
            ErrorKind::NonFinite => "non-finite",
            ErrorKind::Fault => "fault",
            ErrorKind::Exhausted => "exhausted",
            ErrorKind::InvalidArgument => "invalid-argument",
            ErrorKind::Io => "io",
            ErrorKind::TaskPanic => "task-panic",
            ErrorKind::Cancelled => "cancelled",
        };
        f.write_str(name)
    }
}

/// The workspace error: a kind, a root message, and a context chain.
///
/// Contexts are pushed innermost-first as the error propagates, so the
/// display reads like a call stack:
///
/// ```text
/// non-finite: NaN in singular values (while: svd of 8x4 gate block; while: two-site update (0,0)-(0,1); while: ITE step 17)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KoalaError {
    kind: ErrorKind,
    message: String,
    context: Vec<String>,
}

impl KoalaError {
    /// Build a new error with no context frames.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        KoalaError { kind, message: message.into(), context: Vec::new() }
    }

    /// Incompatible operand shapes or dimensions ([`ErrorKind::Shape`]).
    pub fn shape(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Shape, message)
    }

    /// A parameter the caller got wrong ([`ErrorKind::InvalidArgument`]).
    pub fn invalid(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::InvalidArgument, message)
    }

    /// A NaN or infinity found in `what` ([`ErrorKind::NonFinite`]).
    pub fn non_finite(what: impl Into<String>) -> Self {
        Self::new(ErrorKind::NonFinite, what)
    }

    /// `algorithm` spent its budget of `iterations` ([`ErrorKind::NoConvergence`]).
    pub fn no_convergence(algorithm: &str, iterations: usize) -> Self {
        Self::new(
            ErrorKind::NoConvergence,
            format!("{algorithm} did not converge after {iterations} iterations"),
        )
    }

    /// The broad classification of this error.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// The root message, without context frames.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The context frames, innermost first.
    pub fn contexts(&self) -> &[String] {
        &self.context
    }

    /// Push a context frame describing what the caller was doing.
    #[must_use]
    pub fn context(mut self, frame: impl Into<String>) -> Self {
        self.context.push(frame.into());
        self
    }
}

impl fmt::Display for KoalaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)?;
        if !self.context.is_empty() {
            write!(f, " (")?;
            for (i, frame) in self.context.iter().enumerate() {
                if i > 0 {
                    write!(f, "; ")?;
                }
                write!(f, "while: {frame}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl std::error::Error for KoalaError {}

/// Convenience alias for results carrying a [`KoalaError`].
pub type Result<T> = std::result::Result<T, KoalaError>;

/// Extension trait adding `.context(...)` to a [`Result`]: how a layer names
/// what it was doing without touching the kind set below it.
pub trait ResultExt<T> {
    /// Wrap the error (if any) with a context frame.
    fn context(self, frame: impl Into<String>) -> Result<T>;
    /// Wrap the error (if any) with a lazily-built context frame.
    fn with_context<F: FnOnce() -> String>(self, frame: F) -> Result<T>;
}

impl<T> ResultExt<T> for Result<T> {
    fn context(self, frame: impl Into<String>) -> Result<T> {
        self.map_err(|e| e.context(frame))
    }

    fn with_context<F: FnOnce() -> String>(self, frame: F) -> Result<T> {
        self.map_err(|e| e.context(frame()))
    }
}

pub mod recovery {
    //! Process-wide, monotonic counters recording every recovery action.
    //!
    //! Counters only ever increase, so concurrent tests can assert on deltas
    //! (`after.summa_round_retries >= before.summa_round_retries + 1`)
    //! without coordinating over the shared state. Deterministic *sequences*
    //! of fault events are recorded per-cluster in `koala-cluster`'s
    //! `FaultLog`, not here.

    use std::sync::atomic::{AtomicU64, Ordering};

    macro_rules! counters {
        ($($(#[$doc:meta])* $name:ident => $note:ident / $field:ident),+ $(,)?) => {
            $( static $name: AtomicU64 = AtomicU64::new(0); )+

            /// A point-in-time snapshot of all recovery counters.
            #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
            pub struct RecoveryStats {
                $( $(#[$doc])* pub $field: u64, )+
            }

            /// Read every counter at once.
            pub fn snapshot() -> RecoveryStats {
                RecoveryStats { $( $field: $name.load(Ordering::Relaxed), )+ }
            }

            $(
                /// Increment the corresponding recovery counter by one.
                pub fn $note() {
                    $name.fetch_add(1, Ordering::Relaxed);
                }
            )+
        };
    }

    counters! {
        /// Jacobi SVD re-ran with an enlarged sweep budget.
        SVD_SWEEP_ESCALATIONS => note_svd_sweep_escalation / svd_sweep_escalations,
        /// Jacobi SVD fell back to the Gram-matrix SVD.
        GRAM_SVD_FALLBACKS => note_gram_svd_fallback / gram_svd_fallbacks,
        /// A leading-triplets SVD failed its self-check and ran the Jacobi
        /// ladder instead.
        LEADING_SVD_FALLBACKS => note_leading_svd_fallback / leading_svd_fallbacks,
        /// Gram QR detected loss of positive-definiteness and degraded to QR+SVD.
        QR_DEGRADATIONS => note_qr_degradation / qr_degradations,
        /// Randomized SVD retried with a fresh random sketch.
        RSVD_RESKETCHES => note_rsvd_resketch / rsvd_resketches,
        /// A NaN/Inf guard rejected a factorization or tensor.
        NONFINITE_DETECTIONS => note_nonfinite_detection / nonfinite_detections,
        /// An ABFT checksum mismatch triggered a SUMMA round retry.
        SUMMA_ROUND_RETRIES => note_summa_round_retry / summa_round_retries,
        /// A checksum mismatch triggered a gather/scatter block retry.
        COLLECTIVE_RETRIES => note_collective_retry / collective_retries,
        /// A fault-injection hook fired.
        FAULTS_INJECTED => note_fault_injected / faults_injected,
    }

    impl std::fmt::Display for RecoveryStats {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            writeln!(f, "recovery stats:")?;
            writeln!(f, "  svd sweep escalations    {}", self.svd_sweep_escalations)?;
            writeln!(f, "  gram-svd fallbacks       {}", self.gram_svd_fallbacks)?;
            writeln!(f, "  leading-svd fallbacks    {}", self.leading_svd_fallbacks)?;
            writeln!(f, "  qr degradations          {}", self.qr_degradations)?;
            writeln!(f, "  rsvd re-sketches         {}", self.rsvd_resketches)?;
            writeln!(f, "  non-finite detections    {}", self.nonfinite_detections)?;
            writeln!(f, "  summa round retries      {}", self.summa_round_retries)?;
            writeln!(f, "  collective retries       {}", self.collective_retries)?;
            write!(f, "  faults injected          {}", self.faults_injected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_chain_renders_innermost_first() {
        let e = KoalaError::new(ErrorKind::NonFinite, "NaN in singular values")
            .context("svd of 8x4 block")
            .context("ITE step 17");
        let s = e.to_string();
        assert!(s.starts_with("non-finite: NaN in singular values"));
        let inner = s.find("svd of 8x4 block").unwrap();
        let outer = s.find("ITE step 17").unwrap();
        assert!(inner < outer, "inner context should come first: {s}");
        assert_eq!(e.contexts().len(), 2);
    }

    #[test]
    fn result_ext_adds_context_only_on_err() {
        fn fallible(fail: bool) -> Result<u32> {
            if fail {
                Err(KoalaError::new(ErrorKind::NoConvergence, "boom"))
            } else {
                Ok(7)
            }
        }
        assert_eq!(fallible(false).context("outer").unwrap(), 7);
        let e = fallible(true).context("outer").unwrap_err();
        assert_eq!(e.contexts(), ["outer".to_string()]);
        assert_eq!(e.kind(), ErrorKind::NoConvergence);
    }

    #[test]
    fn recovery_counters_are_monotonic() {
        let before = recovery::snapshot();
        recovery::note_summa_round_retry();
        recovery::note_fault_injected();
        let after = recovery::snapshot();
        assert!(after.summa_round_retries > before.summa_round_retries);
        assert!(after.faults_injected > before.faults_injected);
        // Display covers every field.
        let shown = format!("{after}");
        assert!(shown.contains("summa round retries"));
        assert!(shown.contains("faults injected"));
    }
}

//! The virtual cluster: a bulk-synchronous simulation of a distributed-memory
//! machine.
//!
//! The original Koala library runs on Cyclops/MPI across many nodes. Rust MPI
//! bindings are immature and this reproduction runs on a single machine, so
//! the cluster is *simulated*: every rank owns private buffers, every
//! operation moves data between those buffers exactly as the corresponding
//! MPI collective would, and the [`CommStats`] counters record the traffic.
//! Numerical results are bit-for-bit the result of the distributed data flow;
//! only wall-clock parallelism is replaced by the cost model in
//! [`crate::stats::CostModel`].

use crate::fault::{FaultLog, FaultPlan, FaultSite, FaultState, Strike};
use crate::grid::ProcGrid;
use crate::stats::{CommStats, RoundCost, ELEM_BYTES};
use std::sync::Arc;
use std::sync::Mutex;
use std::sync::MutexGuard;

/// Poison-tolerant lock: counters and fault state stay usable even if a
/// panicking thread was holding the mutex (the data is plain accounting, so
/// the worst case after a poisoned write is a partially-updated tally — far
/// better than cascading the panic through every later record call).
pub(crate) fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Handle to a virtual cluster of `nranks` ranks.
#[derive(Clone)]
pub struct Cluster {
    nranks: usize,
    stats: Arc<Mutex<CommStats>>,
    faults: Arc<Mutex<Option<FaultState>>>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Cluster(nranks={})", self.nranks)
    }
}

impl Cluster {
    /// Create a cluster with the given number of ranks.
    pub fn new(nranks: usize) -> Self {
        assert!(nranks > 0, "cluster needs at least one rank");
        Cluster {
            nranks,
            stats: Arc::new(Mutex::new(CommStats::new(nranks))),
            faults: Arc::new(Mutex::new(None)),
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Snapshot of the accumulated statistics.
    pub fn stats(&self) -> CommStats {
        lock_ignore_poison(&self.stats).clone()
    }

    /// Reset the statistics and return the previous values.
    pub fn reset_stats(&self) -> CommStats {
        let mut guard = lock_ignore_poison(&self.stats);
        std::mem::replace(&mut *guard, CommStats::new(self.nranks))
    }

    /// Arm a [`FaultPlan`] on this cluster: every subsequent communication
    /// event consults the plan, and whatever strikes is recorded in the
    /// [`FaultLog`]. Replaces any previously armed plan (and its log).
    pub fn arm_faults(&self, plan: FaultPlan) {
        *lock_ignore_poison(&self.faults) = Some(FaultState::new(plan));
    }

    /// Disarm fault injection, returning the log of everything that struck.
    pub fn disarm_faults(&self) -> FaultLog {
        lock_ignore_poison(&self.faults).take().map(FaultState::into_log).unwrap_or_default()
    }

    /// Number a collective (scatter, gather, SUMMA product) once, on its
    /// calling thread; its fault decisions are keyed by it (0 if unarmed).
    pub(crate) fn begin_op(&self) -> u64 {
        lock_ignore_poison(&self.faults).as_mut().map_or(0, FaultState::begin_op)
    }

    /// Consult the armed plan (if any) about `site` on delivery `attempt`
    /// of operation `op`. Injections are tallied on the global
    /// [`koala_error::recovery`] counters as well as the local log.
    pub(crate) fn fault_at(&self, op: u64, site: FaultSite, attempt: usize) -> Option<Strike> {
        let ev = lock_ignore_poison(&self.faults).as_mut()?.decide(op, site, attempt);
        if ev.is_some() {
            koala_error::recovery::note_fault_injected();
        }
        ev
    }

    /// Slowdown factor of `rank` under the armed plan (1.0 when no plan is
    /// armed or the rank is full speed).
    fn slow_factor(&self, rank: usize) -> f64 {
        lock_ignore_poison(&self.faults).as_ref().map_or(1.0, |s| s.plan().slow_factor(rank))
    }

    /// The most nearly square [`ProcGrid`] over this cluster's ranks — the
    /// default grid for SUMMA-distributed matrices.
    pub fn grid(&self) -> ProcGrid {
        ProcGrid::square_for(self.nranks)
    }

    /// Record a point-to-point transfer of `elems` complex numbers.
    ///
    /// Payload traffic is also billed to the scoped
    /// [`WorkMeter`](koala_exec::WorkMeter) byte counter, so per-job
    /// receipts capture wire volume alongside arithmetic work.
    pub(crate) fn record_p2p(&self, elems: usize) {
        koala_exec::add_bytes(elems as u64 * ELEM_BYTES);
        let mut s = lock_ignore_poison(&self.stats);
        s.bytes_communicated += elems as u64 * ELEM_BYTES;
        s.messages += 1;
    }

    /// Record `elems` complex elements of ABFT checksum metadata riding along
    /// with payload traffic. Billed to [`CommStats::checksum_bytes`] only, so
    /// the fault-free payload formulas stay exact.
    pub(crate) fn record_checksum(&self, elems: usize) {
        let mut s = lock_ignore_poison(&self.stats);
        s.checksum_bytes += elems as u64 * ELEM_BYTES;
    }

    /// Record one recovery retransmission of `elems` complex elements
    /// (payload plus checksum) after a detected fault.
    pub(crate) fn record_retry(&self, elems: usize) {
        let mut s = lock_ignore_poison(&self.stats);
        s.retries += 1;
        s.retry_bytes += elems as u64 * ELEM_BYTES;
    }

    /// Record a broadcast within a rank group (a SUMMA grid row or column):
    /// `elems` complex numbers cross the wires in total — i.e. the per-
    /// receiver panel volume summed over all `receivers` — in one message to
    /// each receiver. A group of one rank broadcasts nothing and records
    /// nothing.
    pub(crate) fn record_bcast(&self, elems: usize, receivers: usize) {
        if receivers == 0 {
            return;
        }
        koala_exec::add_bytes(elems as u64 * ELEM_BYTES);
        let mut s = lock_ignore_poison(&self.stats);
        s.bytes_communicated += elems as u64 * ELEM_BYTES;
        s.messages += receivers as u64;
        s.collectives += 1;
    }

    /// Record a collective that moves `elems` complex numbers in total across
    /// the interconnect in `rounds` communication rounds.
    pub(crate) fn record_collective(&self, elems: usize, rounds: usize) {
        koala_exec::add_bytes(elems as u64 * ELEM_BYTES);
        let mut s = lock_ignore_poison(&self.stats);
        s.bytes_communicated += elems as u64 * ELEM_BYTES;
        s.messages += (rounds * (self.nranks.saturating_sub(1))) as u64;
        s.collectives += 1;
    }

    /// Note one full redistribution (a Cyclops-style reshape of a whole
    /// distributed object). Traffic is billed by the caller, through the
    /// transfers that actually move the data; this only bumps the
    /// [`CommStats::redistributions`] counter.
    pub(crate) fn record_redistribution(&self) {
        let mut s = lock_ignore_poison(&self.stats);
        s.redistributions += 1;
    }

    /// Note one full gather: an operation that materialises an entire
    /// distributed object on a rank (or on all ranks). Traffic is billed by
    /// the caller; this only bumps the [`CommStats::full_gathers`] counter
    /// that the no-gather-fallback tests pin to zero.
    pub(crate) fn record_full_gather(&self) {
        let mut s = lock_ignore_poison(&self.stats);
        s.full_gathers += 1;
    }

    /// Record one pipelined round (a SUMMA depth step) for the overlap-aware
    /// cost model. The payload in `round` must *also* have been billed to
    /// the aggregate counters — a round refines the schedule. Its per-rank
    /// MACs are billed here, to both, scaled by any armed slow-rank factors.
    pub(crate) fn record_round(&self, mut round: RoundCost) {
        for rank in 0..self.nranks {
            self.record_flops(rank, round.rank_cmacs[rank]);
            self.record_real_macs(rank, round.rank_rmacs[rank]);
            round.rank_cmacs[rank] = self.scale_work(rank, round.rank_cmacs[rank]);
            round.rank_rmacs[rank] = self.scale_work(rank, round.rank_rmacs[rank]);
        }
        lock_ignore_poison(&self.stats).rounds.push(round);
    }

    /// Scale billed work by the rank's slowdown factor under an armed fault
    /// plan: a [`FaultKind::Slow`](crate::fault::FaultKind::Slow) rank's
    /// operations take proportionally longer, which the bulk-synchronous
    /// cost model sees as extra time on that rank's compute critical path.
    /// With no plan armed (the fault-free default) this is the identity.
    fn scale_work(&self, rank: usize, work: u64) -> u64 {
        let f = self.slow_factor(rank);
        if f == 1.0 {
            work
        } else {
            (work as f64 * f) as u64
        }
    }

    /// Record `flops` complex multiply-adds executed by `rank`.
    pub(crate) fn record_flops(&self, rank: usize, flops: u64) {
        let flops = self.scale_work(rank, flops);
        let mut s = lock_ignore_poison(&self.stats);
        s.rank_flops[rank] += flops;
    }

    /// Record `macs` real multiply-adds executed by `rank` (work the rank ran
    /// on the real-only kernel; 2 hardware flops each vs 8 for a complex MAC).
    pub(crate) fn record_real_macs(&self, rank: usize, macs: u64) {
        let macs = self.scale_work(rank, macs);
        let mut s = lock_ignore_poison(&self.stats);
        s.rank_real_macs[rank] += macs;
    }

    /// Record `macs` multiply-adds executed by `rank`, billed to the real or
    /// complex counter according to `real` — the kernel the operands'
    /// realness hints select.
    pub(crate) fn record_macs(&self, rank: usize, macs: u64, real: bool) {
        if real {
            self.record_real_macs(rank, macs);
        } else {
            self.record_flops(rank, macs);
        }
    }

    /// Record identical `macs` on every rank (a replicated computation),
    /// billed real or complex according to `real` — the kernel the operands'
    /// realness hints select — and scaled by any armed slow-rank factor.
    pub fn record_macs_all(&self, macs: u64, real: bool) {
        for rank in 0..self.nranks {
            self.record_macs(rank, macs, real);
        }
    }
}

/// Split `n` items into `parts` nearly equal contiguous blocks; returns the
/// (start, len) of each block. Matches the block distribution Cyclops uses
/// for the slowest-varying index.
pub(crate) fn block_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let base = n / parts;
    let extra = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        ranges.push((start, len));
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_cover_everything_exactly_once() {
        for &(n, p) in &[(10usize, 3usize), (7, 7), (5, 8), (0, 3), (16, 4)] {
            let ranges = block_ranges(n, p);
            assert_eq!(ranges.len(), p);
            let total: usize = ranges.iter().map(|r| r.1).sum();
            assert_eq!(total, n);
            // Contiguity.
            let mut pos = 0;
            for &(start, len) in &ranges {
                assert_eq!(start, pos);
                pos += len;
            }
            // Balance: sizes differ by at most 1.
            let max = ranges.iter().map(|r| r.1).max().unwrap_or(0);
            let min = ranges.iter().map(|r| r.1).min().unwrap_or(0);
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let c = Cluster::new(4);
        c.record_p2p(10);
        c.record_collective(100, 1);
        c.record_redistribution();
        c.record_flops(2, 1000);
        c.record_macs_all(10, false);
        let s = c.stats();
        assert_eq!(s.bytes_communicated, (10 + 100) as u64 * ELEM_BYTES);
        assert_eq!(s.collectives, 1);
        assert_eq!(s.redistributions, 1);
        assert_eq!(s.messages, 1 + 3);
        assert_eq!(s.rank_flops, vec![10, 10, 1010, 10]);
        let old = c.reset_stats();
        assert_eq!(old, s);
        assert_eq!(c.stats().bytes_communicated, 0);
    }

    #[test]
    fn bcast_and_split_mac_accounting() {
        let c = Cluster::new(6);
        assert_eq!((c.grid().rows(), c.grid().cols()), (2, 3));
        c.record_bcast(30, 2);
        c.record_bcast(10, 0); // group of one: nothing crosses a wire
        c.record_macs(1, 100, true);
        c.record_macs(1, 50, false);
        c.record_macs_all(5, true);
        let s = c.stats();
        assert_eq!(s.bytes_communicated, 30 * ELEM_BYTES);
        assert_eq!(s.messages, 2);
        assert_eq!(s.collectives, 1);
        assert_eq!(s.rank_real_macs, vec![5, 105, 5, 5, 5, 5]);
        assert_eq!(s.rank_flops[1], 50);
    }

    #[test]
    fn replicated_work_is_scaled_on_a_slow_rank() {
        let c = Cluster::new(2);
        c.arm_faults(FaultPlan::seeded(0).slow_rank(1, 3.0));
        c.record_macs_all(100, false);
        assert_eq!(c.stats().rank_flops, [100, 300]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Cluster::new(0);
    }
}

//! Communication and computation accounting for the virtual cluster.
//!
//! The paper evaluates its distributed algorithms on a real supercomputer; in
//! this reproduction the cluster is simulated (see ARCHITECTURE.md,
//! "Distributed layer"), so scaling behaviour is reported through a cost
//! model fed by these counters. Every byte that crosses a (virtual) rank
//! boundary and every local floating-point operation is tallied, which is
//! enough to reproduce the *shape* of the strong/weak scaling and
//! algorithm-comparison figures.
//!
//! ## Accounting semantics
//!
//! * **Bytes** count traffic over the interconnect only: a collective over a
//!   group of `g` ranks that delivers `v` elements to each of `g - 1`
//!   receivers bills `v * (g - 1)` elements, and the sender's own copy is
//!   free. All volumes are in complex-element units ([`ELEM_BYTES`] bytes
//!   each) regardless of realness: the simulated wires carry the stored
//!   representation, and the backend stores real data in complex buffers
//!   (the realness win is arithmetic, not storage).
//! * **Messages** use the flat model: one per point-to-point transfer, and
//!   `receivers` per broadcast / `rounds * (P - 1)` per cluster-wide
//!   collective. The cost model charges [`CostModel::latency`] per message.
//! * **Work** is split by kernel, mirroring the GEMM layer's own complex /
//!   real MAC counters on the scoped [`koala_exec::WorkMeter`]
//!   (payload traffic recorded by
//!   [`Cluster::record_p2p`](crate::Cluster::record_p2p) and the collective
//!   recorders also bills the scoped meter's byte counter, so per-job
//!   receipts include wire volume): [`CommStats::rank_flops`]
//!   counts *complex* multiply-adds (8 real flops each) and
//!   [`CommStats::rank_real_macs`] counts *real* multiply-adds (2 real flops
//!   each) per rank. Distributed operations bill the real counter exactly
//!   when their per-rank products run on the real-only kernel — i.e. when
//!   the operands' [`koala_linalg::Matrix::is_real`] hints held — so a real
//!   workload's modelled time reflects the cheap kernel it actually runs.

use koala_json::JsonValue;
use std::fmt;

/// Size in bytes of one complex double-precision element.
pub const ELEM_BYTES: u64 = 16;

/// Real hardware flops per complex multiply-add (4 mul + 4 add).
pub(crate) const FLOPS_PER_COMPLEX_MAC: f64 = 8.0;

/// Real hardware flops per real multiply-add (1 mul + 1 add).
pub(crate) const FLOPS_PER_REAL_MAC: f64 = 2.0;

/// Per-round cost record of a pipelined collective loop (one SUMMA depth
/// round): the payload this round's panel broadcasts moved and the local MACs
/// each rank ran on the *previous* round's panels while those broadcasts were
/// in flight. [`CostModel::modelled_time_overlap`] prices the loop as
/// `comm_0 + Σ max(comm_t, compute_{t-1}) + compute_{T-1}` — pipeline fill,
/// overlapped steady state, pipeline drain.
///
/// Only fault-free payload traffic enters a round: ABFT checksum and retry
/// bytes stay on the serial (non-overlapped) critical path, because recovery
/// is a synchronous round-trip the pipeline cannot hide.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundCost {
    /// Complex elements of panel payload broadcast this round.
    pub comm_elems: u64,
    /// Messages sent this round (flat model, one per receiver).
    pub messages: u64,
    /// Complex MACs each rank runs on this round's panels.
    pub rank_cmacs: Vec<u64>,
    /// Real MACs each rank runs on this round's panels.
    pub rank_rmacs: Vec<u64>,
}

/// Counters accumulated while running operations on a [`crate::Cluster`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommStats {
    /// Total bytes moved between ranks (point-to-point and collectives).
    pub bytes_communicated: u64,
    /// Number of messages (a collective over P ranks counts P-1 messages per
    /// communication round, matching the usual flat cost model).
    pub messages: u64,
    /// Number of collective operations executed (cluster-wide collectives
    /// and grid-row/-column broadcasts alike).
    pub collectives: u64,
    /// Number of full tensor/matrix redistributions (the expensive "reshape"
    /// operations the paper's Algorithm 5 is designed to avoid).
    pub redistributions: u64,
    /// Local *complex* multiply-add operations per rank (8 real flops each).
    pub rank_flops: Vec<u64>,
    /// Local *real* multiply-add operations per rank (2 real flops each) —
    /// work executed by the real-only kernel on realness-hinted operands.
    pub rank_real_macs: Vec<u64>,
    /// Bytes of ABFT checksum metadata carried alongside payload traffic
    /// (Huang–Abraham row/column sums travelling with SUMMA panels and
    /// gather/scatter blocks). Billed separately from
    /// [`CommStats::bytes_communicated`] so the fault-free traffic formulas
    /// stay exact while the cost model still sees the protection overhead.
    pub checksum_bytes: u64,
    /// Number of recovery retransmissions (SUMMA round retries, re-fetched
    /// gather/scatter blocks) triggered by detected faults.
    pub retries: u64,
    /// Bytes retransmitted during recovery — the traffic a fault-free run
    /// would not have moved. Kept out of
    /// [`CommStats::bytes_communicated`] for the same reason as
    /// [`CommStats::checksum_bytes`].
    pub retry_bytes: u64,
    /// Number of full gathers: operations that materialise an entire
    /// distributed matrix/tensor on every rank (or on a root). These are the
    /// fallbacks the 2-D SUMMA paths exist to avoid; tests pin this counter
    /// to zero on the distributed gate-update hot path.
    pub full_gathers: u64,
    /// Per-round cost records of pipelined loops (SUMMA depth rounds), in
    /// execution order. The payload and MACs recorded here are *also* in the
    /// aggregate counters above; rounds are a refinement, not extra work.
    /// [`CostModel::modelled_time`] ignores them (bulk-synchronous model);
    /// [`CostModel::modelled_time_overlap`] prices them as a pipeline.
    pub rounds: Vec<RoundCost>,
}

impl CommStats {
    /// Fresh counters for a cluster with `nranks` ranks.
    pub fn new(nranks: usize) -> Self {
        CommStats {
            rank_flops: vec![0; nranks],
            rank_real_macs: vec![0; nranks],
            ..Default::default()
        }
    }

    /// Largest per-rank complex-MAC count. For the compute critical path of
    /// a mixed real/complex execution use [`CostModel::modelled_time`], which
    /// weights the two kernels by their calibrated rates.
    pub fn max_rank_flops(&self) -> u64 {
        self.rank_flops.iter().copied().max().unwrap_or(0)
    }

    /// Total complex MACs across all ranks.
    pub fn total_flops(&self) -> u64 {
        self.rank_flops.iter().sum()
    }

    /// Total real MACs across all ranks.
    pub fn total_real_macs(&self) -> u64 {
        self.rank_real_macs.iter().sum()
    }

    /// Total *hardware* flops across all ranks: complex MACs at 8 real flops
    /// plus real MACs at 2. This is the "useful work" numerator of the
    /// weak-scaling figures, and matches `bench_gemm`'s convention.
    pub(crate) fn total_hw_flops(&self) -> f64 {
        self.total_flops() as f64 * FLOPS_PER_COMPLEX_MAC
            + self.total_real_macs() as f64 * FLOPS_PER_REAL_MAC
    }

    /// Hardware flops executed by one rank (same convention as
    /// [`CommStats::total_hw_flops`]).
    pub(crate) fn rank_hw_flops(&self, rank: usize) -> f64 {
        self.rank_flops[rank] as f64 * FLOPS_PER_COMPLEX_MAC
            + self.rank_real_macs[rank] as f64 * FLOPS_PER_REAL_MAC
    }

    /// Load imbalance: max/mean per-rank hardware flops (1.0 = perfectly
    /// balanced).
    pub fn load_imbalance(&self) -> f64 {
        let nranks = self.rank_flops.len().max(1);
        let total = self.total_hw_flops();
        if total == 0.0 {
            return 1.0;
        }
        let max = (0..self.rank_flops.len()).map(|r| self.rank_hw_flops(r)).fold(0.0f64, f64::max);
        max / (total / nranks as f64)
    }
}

impl fmt::Display for CommStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "comm: {:.3} MB in {} msgs ({} collectives, {} redistributions), \
             max rank cMACs {:.3e}, total rMACs {:.3e}, imbalance {:.2}, \
             abft {:.3} MB checksums + {} retries ({:.3} MB resent)",
            self.bytes_communicated as f64 / 1e6,
            self.messages,
            self.collectives,
            self.redistributions,
            self.max_rank_flops() as f64,
            self.total_real_macs() as f64,
            self.load_imbalance(),
            self.checksum_bytes as f64 / 1e6,
            self.retries,
            self.retry_bytes as f64 / 1e6
        )
    }
}

/// Machine parameters of the modelled cluster, used to convert [`CommStats`]
/// into a modelled parallel execution time.
///
/// The two arithmetic rates are *effective* sustained rates of the local
/// packed GEMM kernels — complex MACs/s for the split-complex kernel and
/// real MACs/s for the real-only kernel. [`CostModel::from_bench`] calibrates
/// both from the committed `BENCH_gemm.json` so the modelled scaling figures
/// price per-rank work at what this machine's kernels actually sustain;
/// [`CostModel::default`] is the uncalibrated fallback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Sustained complex multiply-add rate per rank (complex MACs / second).
    pub flops_per_second: f64,
    /// Sustained real multiply-add rate per rank (real MACs / second) — the
    /// rate the real-only kernel achieves on realness-hinted operands.
    pub real_macs_per_second: f64,
    /// Interconnect bandwidth per rank (bytes / second).
    pub bytes_per_second: f64,
    /// Per-message latency (seconds).
    pub latency: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Uncalibrated fallback, loosely modelled on a KNL-era node and
        // fat-tree interconnect: ~10 G complex MAC/s (80 GF/s effective) per
        // core, a real kernel sustaining the equivalent element throughput
        // (4x the MACs at a quarter of the flops each), ~1 GB/s per rank,
        // ~2 microseconds latency. Prefer `CostModel::from_bench` with the
        // committed BENCH_gemm.json, which replaces both arithmetic rates
        // with measured ones.
        CostModel {
            flops_per_second: 1.0e10,
            real_macs_per_second: 4.0e10,
            bytes_per_second: 1.0e9,
            latency: 2.0e-6,
        }
    }
}

impl CostModel {
    /// Calibrate the arithmetic rates from a `BENCH_gemm.json` document (the
    /// file `bench_gemm` commits at the repository root).
    ///
    /// * `flops_per_second` is the median effective rate of the
    ///   `packed_vs_seed` series (`packed_gflops`, which counts 8 real flops
    ///   per complex MAC) converted to complex MACs/s,
    /// * `real_macs_per_second` is the median effective rate of the
    ///   `real_vs_complex` series converted to real MACs/s. Note the field's
    ///   convention: `real_effective_gflops` credits each real MAC the **8**
    ///   nominal flops of the complex MAC it replaces (so its ratio to
    ///   `packed_gflops` reads as the wall-time speedup), hence the divisor
    ///   is 8 here, not the 2 hardware flops a real MAC executes.
    ///
    /// Only single-thread rows (`threads` == 1, or absent) enter the
    /// medians: the rates are documented as *per rank*, and a baseline
    /// refreshed on a multi-core host also records aggregate multi-thread
    /// rows that would otherwise inflate the calibration by up to the core
    /// count. The medians are then taken across all shapes of each series,
    /// so one cache-friendly outlier does not skew the model. `bench_gemm`
    /// measures a single machine, not an interconnect, so `bytes_per_second`
    /// and `latency` keep their [`CostModel::default`] values.
    ///
    /// Errors if the document does not parse or either series is absent —
    /// callers that want a silent fallback should match on the error and use
    /// `CostModel::default()`.
    pub fn from_bench(json_text: &str) -> Result<CostModel, String> {
        let doc = JsonValue::parse(json_text).map_err(|e| format!("from_bench: {e}"))?;
        let results = doc
            .get("results")
            .and_then(|r| r.as_array())
            .ok_or("from_bench: missing 'results' array")?;
        let series_rates = |series: &str, field: &str| -> Vec<f64> {
            results
                .iter()
                .filter(|item| item.get("series").and_then(|v| v.as_str()) == Some(series))
                .filter(|item| item.get("threads").and_then(|v| v.as_num()).unwrap_or(1.0) == 1.0)
                .filter_map(|item| item.get(field).and_then(|v| v.as_num()))
                .filter(|&r| r > 0.0)
                .collect()
        };
        let complex_gflops = median(series_rates("packed_vs_seed", "packed_gflops"))
            .ok_or("from_bench: no usable 'packed_vs_seed' entries")?;
        let real_gflops = median(series_rates("real_vs_complex", "real_effective_gflops"))
            .ok_or("from_bench: no usable 'real_vs_complex' entries")?;
        let fallback = CostModel::default();
        Ok(CostModel {
            flops_per_second: complex_gflops * 1e9 / FLOPS_PER_COMPLEX_MAC,
            // real_effective_gflops = 8 * real MACs / second (see above).
            real_macs_per_second: real_gflops * 1e9 / FLOPS_PER_COMPLEX_MAC,
            bytes_per_second: fallback.bytes_per_second,
            latency: fallback.latency,
        })
    }

    /// Modelled wall-clock time of a bulk-synchronous execution with the given
    /// counters: compute critical path (the slowest rank, pricing complex and
    /// real MACs at their respective rates) + serialised communication +
    /// latency. ABFT overhead ([`CommStats::checksum_bytes`] and
    /// [`CommStats::retry_bytes`]) rides on the interconnect like any other
    /// traffic, so recovery from injected faults shows up in the modelled
    /// time even though the payload formulas stay fault-free.
    pub fn modelled_time(&self, stats: &CommStats) -> f64 {
        let compute = (0..stats.rank_flops.len())
            .map(|r| {
                stats.rank_flops[r] as f64 / self.flops_per_second
                    + stats.rank_real_macs[r] as f64 / self.real_macs_per_second
            })
            .fold(0.0f64, f64::max);
        let wire_bytes = stats.bytes_communicated + stats.checksum_bytes + stats.retry_bytes;
        let comm =
            wire_bytes as f64 / (self.bytes_per_second * stats.rank_flops.len().max(1) as f64);
        let latency = stats.messages as f64 * self.latency;
        compute + comm + latency
    }

    /// Modelled useful *hardware-flop* rate per rank: total hardware flops
    /// achieved (8 per complex MAC, 2 per real MAC) / modelled time / ranks.
    /// Directly comparable to `bench_gemm`'s effective GFLOP/s numbers after
    /// dividing by 1e9.
    pub fn flop_rate_per_rank(&self, stats: &CommStats) -> f64 {
        let t = self.modelled_time(stats);
        if t == 0.0 {
            return 0.0;
        }
        stats.total_hw_flops() / t / stats.rank_flops.len().max(1) as f64
    }

    /// Wire time of one pipelined round: its payload over the aggregate
    /// interconnect bandwidth plus per-message latency.
    pub(crate) fn round_comm_time(&self, round: &RoundCost, nranks: usize) -> f64 {
        (round.comm_elems * ELEM_BYTES) as f64 / (self.bytes_per_second * nranks.max(1) as f64)
            + round.messages as f64 * self.latency
    }

    /// Compute time of one pipelined round: the slowest rank's MACs at the
    /// calibrated kernel rates.
    pub(crate) fn round_compute_time(&self, round: &RoundCost) -> f64 {
        (0..round.rank_cmacs.len().max(round.rank_rmacs.len()))
            .map(|r| {
                round.rank_cmacs.get(r).copied().unwrap_or(0) as f64 / self.flops_per_second
                    + round.rank_rmacs.get(r).copied().unwrap_or(0) as f64
                        / self.real_macs_per_second
            })
            .fold(0.0f64, f64::max)
    }

    /// Modelled wall-clock time with communication/computation *overlap*
    /// inside pipelined loops (SUMMA depth rounds).
    ///
    /// Work recorded in [`CommStats::rounds`] is priced as a software
    /// pipeline: round `t+1`'s panel broadcasts travel while round `t`'s
    /// local GEMM runs, so a sequence of `T` rounds costs
    ///
    /// ```text
    /// comm_0  +  Σ_{t=1..T-1} max(comm_t, compute_{t-1})  +  compute_{T-1}
    /// ```
    ///
    /// — the pipeline fill (first panel has nothing to hide behind), the
    /// overlapped steady state, and the drain (last GEMM has no broadcast to
    /// hide it). Everything *not* attributed to a round — scatters, gathers,
    /// reductions, replicated factorizations, and all ABFT checksum/retry
    /// traffic — is priced exactly as in the serial
    /// [`CostModel::modelled_time`] and added on top. With no recorded rounds
    /// the two models agree identically.
    pub fn modelled_time_overlap(&self, stats: &CommStats) -> f64 {
        let nranks = stats.rank_flops.len().max(1);
        // Serial remainder: aggregate counters minus what the rounds refine.
        let round_elems: u64 = stats.rounds.iter().map(|r| r.comm_elems).sum();
        let round_msgs: u64 = stats.rounds.iter().map(|r| r.messages).sum();
        let mut serial_cmacs = stats.rank_flops.clone();
        let mut serial_rmacs = stats.rank_real_macs.clone();
        for round in &stats.rounds {
            for (a, b) in serial_cmacs.iter_mut().zip(round.rank_cmacs.iter()) {
                *a = a.saturating_sub(*b);
            }
            for (a, b) in serial_rmacs.iter_mut().zip(round.rank_rmacs.iter()) {
                *a = a.saturating_sub(*b);
            }
        }
        let serial_compute = (0..nranks)
            .map(|r| {
                serial_cmacs.get(r).copied().unwrap_or(0) as f64 / self.flops_per_second
                    + serial_rmacs.get(r).copied().unwrap_or(0) as f64 / self.real_macs_per_second
            })
            .fold(0.0f64, f64::max);
        let serial_wire = (stats.bytes_communicated + stats.checksum_bytes + stats.retry_bytes)
            .saturating_sub(round_elems * ELEM_BYTES);
        let serial_comm = serial_wire as f64 / (self.bytes_per_second * nranks as f64)
            + stats.messages.saturating_sub(round_msgs) as f64 * self.latency;

        // Pipelined rounds: fill, overlapped steady state, drain.
        let mut pipeline = 0.0;
        for (t, round) in stats.rounds.iter().enumerate() {
            let comm = self.round_comm_time(round, nranks);
            if t == 0 {
                pipeline += comm;
            } else {
                pipeline += comm.max(self.round_compute_time(&stats.rounds[t - 1]));
            }
        }
        if let Some(last) = stats.rounds.last() {
            pipeline += self.round_compute_time(last);
        }
        serial_compute + serial_comm + pipeline
    }

    /// [`CostModel::flop_rate_per_rank`] under the overlap-aware model.
    pub fn flop_rate_per_rank_overlap(&self, stats: &CommStats) -> f64 {
        let t = self.modelled_time_overlap(stats);
        if t == 0.0 {
            return 0.0;
        }
        stats.total_hw_flops() / t / stats.rank_flops.len().max(1) as f64
    }

    /// The model's per-rank hardware-flop peak for an all-complex workload —
    /// the horizontal "ideal" line of the weak-scaling figure.
    pub fn complex_peak_flops(&self) -> f64 {
        self.flops_per_second * FLOPS_PER_COMPLEX_MAC
    }

    /// The model's per-rank hardware-flop peak for an all-real workload.
    pub fn real_peak_flops(&self) -> f64 {
        self.real_macs_per_second * FLOPS_PER_REAL_MAC
    }
}

/// Median of an unsorted sample (None when empty).
fn median(mut xs: Vec<f64>) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    // NaN rates (malformed bench entries) sort as equal rather than panicking;
    // they were already filtered out by the `r > 0.0` guard upstream.
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = xs.len() / 2;
    Some(if xs.len() % 2 == 1 { xs[mid] } else { 0.5 * (xs[mid - 1] + xs[mid]) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_imbalance_of_balanced_work_is_one() {
        let mut s = CommStats::new(4);
        s.rank_flops = vec![10, 10, 10, 10];
        assert!((s.load_imbalance() - 1.0).abs() < 1e-12);
        s.rank_flops = vec![40, 0, 0, 0];
        assert!((s.load_imbalance() - 4.0).abs() < 1e-12);
        // Real MACs weigh 2 hardware flops vs 8: 4 rMACs balance 1 cMAC.
        s.rank_flops = vec![10, 0, 10, 0];
        s.rank_real_macs = vec![0, 40, 0, 40];
        assert!((s.load_imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn modelled_time_components() {
        let model = CostModel {
            flops_per_second: 1e9,
            real_macs_per_second: 4e9,
            bytes_per_second: 1e9,
            latency: 1e-6,
        };
        let mut s = CommStats::new(2);
        s.rank_flops = vec![1_000_000_000, 500_000_000];
        s.bytes_communicated = 2_000_000_000;
        s.messages = 1000;
        let t = model.modelled_time(&s);
        // 1 s compute + 1 s comm (2 GB over 2 ranks * 1GB/s) + 1 ms latency
        assert!((t - 2.001).abs() < 1e-9, "modelled time {t}");
        assert!(model.flop_rate_per_rank(&s) > 0.0);
        // Real MACs are priced at the real rate: rank 1 becomes the critical
        // path only once its real work exceeds the rate ratio.
        s.rank_real_macs = vec![0, 6_000_000_000];
        let t2 = model.modelled_time(&s);
        // rank 0: 1 s; rank 1: 0.5 + 6/4 = 2 s compute.
        assert!((t2 - 3.001).abs() < 1e-9, "modelled time {t2}");
        // ABFT checksum and retry traffic ride the same wires.
        s.checksum_bytes = 1_000_000_000;
        s.retry_bytes = 1_000_000_000;
        let t3 = model.modelled_time(&s);
        assert!((t3 - (t2 + 1.0)).abs() < 1e-9, "modelled time with abft traffic {t3}");
    }

    #[test]
    fn overlap_model_equals_serial_model_without_rounds() {
        let model = CostModel::default();
        let mut s = CommStats::new(4);
        s.rank_flops = vec![7, 11, 13, 17];
        s.rank_real_macs = vec![1, 2, 3, 4];
        s.bytes_communicated = 123_456;
        s.checksum_bytes = 789;
        s.retry_bytes = 1000;
        s.messages = 42;
        let serial = model.modelled_time(&s);
        let overlap = model.modelled_time_overlap(&s);
        assert!((serial - overlap).abs() < 1e-15, "serial {serial} vs overlap {overlap}");
    }

    #[test]
    fn overlap_model_hides_comm_behind_compute() {
        let model = CostModel {
            flops_per_second: 1e9,
            real_macs_per_second: 4e9,
            bytes_per_second: 1e9,
            latency: 0.0,
        };
        // Three identical rounds on one rank: 1 s of broadcast each
        // (1e9 bytes over 1 rank) and 1 s of compute each (1e9 cMACs).
        let round = RoundCost {
            comm_elems: 1_000_000_000 / ELEM_BYTES,
            messages: 0,
            rank_cmacs: vec![1_000_000_000],
            rank_rmacs: vec![0],
        };
        let mut s = CommStats::new(1);
        s.rounds = vec![round.clone(), round.clone(), round.clone()];
        // Aggregates include what the rounds refine.
        s.bytes_communicated = 3 * round.comm_elems * ELEM_BYTES;
        s.rank_flops = vec![3_000_000_000];
        // Serial: 3 s comm + 3 s compute = 6 s. Overlapped: fill 1 s +
        // 2 steady rounds at max(1, 1) = 2 s + drain 1 s = 4 s.
        let serial = model.modelled_time(&s);
        let overlap = model.modelled_time_overlap(&s);
        assert!((serial - 6.0).abs() < 1e-9, "serial {serial}");
        assert!((overlap - 4.0).abs() < 1e-9, "overlap {overlap}");
        // Saturated regime: compute dwarfs comm, so all but the first
        // broadcast vanishes: 1 s fill + 3 x 3 s compute = 10 s.
        let mut sat = s.clone();
        for r in &mut sat.rounds {
            r.rank_cmacs = vec![3_000_000_000];
        }
        sat.rank_flops = vec![9_000_000_000];
        let t_sat = model.modelled_time_overlap(&sat);
        assert!((t_sat - 10.0).abs() < 1e-9, "saturated overlap {t_sat}");
        assert!(model.flop_rate_per_rank_overlap(&sat) > model.flop_rate_per_rank(&sat));
    }

    #[test]
    fn overlap_model_keeps_abft_traffic_serial() {
        let model = CostModel {
            flops_per_second: 1e9,
            real_macs_per_second: 4e9,
            bytes_per_second: 1e9,
            latency: 0.0,
        };
        let round = RoundCost {
            comm_elems: 1_000_000_000 / ELEM_BYTES,
            messages: 0,
            rank_cmacs: vec![1_000_000_000],
            rank_rmacs: vec![0],
        };
        let mut s = CommStats::new(1);
        s.rounds = vec![round.clone(), round.clone()];
        s.bytes_communicated = 2 * round.comm_elems * ELEM_BYTES;
        s.rank_flops = vec![2_000_000_000];
        let base = model.modelled_time_overlap(&s);
        // Checksum/retry bytes cannot hide behind compute: they add fully.
        s.checksum_bytes = 1_000_000_000;
        s.retry_bytes = 500_000_000;
        let with_abft = model.modelled_time_overlap(&s);
        assert!((with_abft - base - 1.5).abs() < 1e-9, "abft serial term {with_abft} vs {base}");
    }

    #[test]
    fn from_bench_calibrates_both_rates() {
        let doc = r#"{
          "results": [
            {"series": "packed_vs_seed", "label": "a", "packed_gflops": 32.0},
            {"series": "packed_vs_seed", "label": "b", "threads": 1.0, "packed_gflops": 40.0},
            {"series": "packed_vs_seed", "label": "c", "threads": 1.0, "packed_gflops": 24.0},
            {"series": "packed_vs_seed", "label": "b", "threads": 8.0, "packed_gflops": 250.0},
            {"series": "real_vs_complex", "label": "a", "threads": 1.0, "real_effective_gflops": 20.0},
            {"series": "real_vs_complex", "label": "a", "threads": 8.0, "real_effective_gflops": 700.0},
            {"series": "real_factorization", "label": "x", "effective_gflops": 9.0}
          ]
        }"#;
        let m = CostModel::from_bench(doc).expect("calibration failed");
        // Median single-thread packed rate 32 GF/s -> 4e9 complex MACs/s;
        // the aggregate 8-thread rows must not enter the per-rank medians.
        assert!((m.flops_per_second - 4.0e9).abs() < 1.0);
        // Median single-thread real_effective rate of 20 (which credits 8
        // nominal flops per real MAC) -> 2.5e9 real MACs/s, i.e. a hardware
        // peak of 5 GF/s.
        assert!((m.real_macs_per_second - 2.5e9).abs() < 1.0);
        assert!((m.real_peak_flops() - 5.0e9).abs() < 1.0);
        // Interconnect parameters stay at the fallback values.
        let d = CostModel::default();
        assert_eq!(m.bytes_per_second, d.bytes_per_second);
        assert_eq!(m.latency, d.latency);
        assert!(m.complex_peak_flops() > 0.0 && m.real_peak_flops() > 0.0);
    }

    #[test]
    fn from_bench_rejects_unusable_documents() {
        assert!(CostModel::from_bench("not json").is_err());
        assert!(CostModel::from_bench("{\"results\": []}").is_err());
        let only_complex = r#"{"results": [
            {"series": "packed_vs_seed", "packed_gflops": 32.0}
        ]}"#;
        assert!(CostModel::from_bench(only_complex).is_err());
    }

    #[test]
    fn display_is_informative() {
        let s = CommStats::new(2);
        let text = s.to_string();
        assert!(text.contains("comm"));
        assert!(text.contains("redistributions"));
    }
}

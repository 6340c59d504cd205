//! The benchmark's vocabulary: workload names, metric names, units, bounds.
//!
//! `BENCHMARK.json` at the repository root repeats these for the driver; a
//! test keeps the two in step. Every later performance or simplicity claim
//! refers to the names defined here.

/// Measured seconds per workload run when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 15.0;
/// Fresh child processes per workload in an untraced run.
pub const ROUNDS: usize = 3;
/// Fewest warm iterations per round, so the pooled count is at least 60 and
/// `iter_p80_ms` has at least 10 samples beyond it.
pub const MIN_ITERS_PER_ROUND: usize = 20;
/// Executor threads are `min(nproc, MAX_THREADS)`.
pub const MAX_THREADS: usize = 4;

#[derive(Debug)]
/// A workload: its name, the unit `throughput_ups` counts, and why it is here.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "evolve_tebd",
        unit: "bond update",
        why: "Fig. 7a: one TEBD layer (QR-SVD, r=8) on a 6x6 PEPS; core::update over complex tensor/linalg kernels at fixed shapes with warm plans",
    },
    WorkloadSpec {
        name: "ite_step",
        unit: "ITE step",
        why: "Figs. 13-14: one TFI ITE step (4x3, r=3, m=6) ending in an energy measurement; core::expectation and implicit zip-up on real kernels",
    },
    WorkloadSpec {
        name: "contract_bmps",
        unit: "contraction",
        why: "Fig. 8, Alg. 3: 6x6 r=7 boundary-MPS contraction with explicit einsumsvd; dense Jacobi SVD inside mps::zip_up dominates",
    },
    WorkloadSpec {
        name: "contract_ibmps",
        unit: "contraction",
        why: "Fig. 8, Alg. 4: the same networks with implicit randomized SVD; GEMM and small QR, no large dense SVD, so an SVD speed-up must leave it unmoved",
    },
    WorkloadSpec {
        name: "rqc_amplitudes",
        unit: "amplitude",
        why: "Fig. 10 through koala-circuit: 4x4 RQC, bonds grow 1 to 16 so shapes change every gate and plans miss, then complex BMPS for 8 bitstrings",
    },
    WorkloadSpec {
        name: "serve_batch",
        unit: "job",
        why: "16 mixed jobs from 4 tenants through the JSON-lines front door; serve, json, exec scheduling and small-tensor overhead dominate, big kernels do little",
    },
    WorkloadSpec {
        name: "cluster_tebd",
        unit: "bond update",
        why: "Fig. 7b: one distributed TEBD layer per variant on a 16-rank virtual cluster (4x4, r=6); cluster::{dist_tensor,dist_matrix} and core::dist only",
    },
];

#[derive(Debug)]
/// A metric: name, unit, which direction is better, and (end-to-end only)
/// the relative worsening that counts as a regression.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound }
}

/// End-to-end metrics, reported for every workload by an untraced run.
/// Failures are carried by the result's `attempted` / `failed` counts
/// (`failed_frac` in reports), which must be 0 — an absolute bound that a
/// relative one cannot express.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("iter_p50_ms", "ms", "lower", 0.25),
    e2e("iter_p80_ms", "ms", "lower", 0.25),
    e2e("throughput_ups", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better, bound: 0.0 }
}

/// Per-layer metrics, reported by a traced run. A layer that does not run on
/// a workload reports 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    // linalg: factorization probes at the workload's matrix shapes.
    layer("linalg.svd_ms", "ms", "lower"),
    layer("linalg.qr_ms", "ms", "lower"),
    layer("linalg.rsvd_ms", "ms", "lower"),
    layer("linalg.eigh_ms", "ms", "lower"),
    layer("linalg.svd_gflops", "GFLOP/s", "higher"),
    // linalg: exact work-ledger deltas of one iteration, and the GEMM roof.
    layer("linalg.gemm_complex_macs", "count", "lower"),
    layer("linalg.gemm_real_macs", "count", "lower"),
    layer("linalg.gemm_bytes", "count", "lower"),
    layer("linalg.gemm_peak_gflops", "GFLOP/s", "higher"),
    layer("linalg.gemm_real_peak_gflops", "GFLOP/s", "higher"),
    layer("linalg.gemm_share_est", "ratio", "lower"),
    layer("linalg.transposes", "count", "lower"),
    // tensor
    layer("tensor.plan_hits", "count", "higher"),
    layer("tensor.plan_misses", "count", "lower"),
    layer("tensor.plan_cold_ms", "ms", "lower"),
    layer("tensor.plan_warm_us", "us", "lower"),
    layer("tensor.einsum_theta_ms", "ms", "lower"),
    layer("tensor.qr_split_ms", "ms", "lower"),
    layer("tensor.svd_split_ms", "ms", "lower"),
    layer("tensor.permute_ms", "ms", "lower"),
    // mps
    layer("mps.zip_up_ms", "ms", "lower"),
    layer("mps.zip_up_count", "count", "lower"),
    layer("mps.zip_up_self_frac", "ratio", "lower"),
    layer("mps.max_bond", "count", "lower"),
    // core
    layer("core.update_ms", "ms", "lower"),
    layer("core.update_self_frac", "ratio", "lower"),
    layer("core.merge_ms", "ms", "lower"),
    layer("core.env_build_ms", "ms", "lower"),
    layer("core.norm_sqr_ms", "ms", "lower"),
    layer("core.expectation_ms", "ms", "lower"),
    layer("core.truncation_error", "norm", "lower"),
    layer("core.max_bond", "count", "lower"),
    // sim
    layer("sim.trotter_gates_ms", "ms", "lower"),
    layer("sim.step_ms", "ms", "lower"),
    layer("sim.energy_err", "ratio", "lower"),
    // circuit
    layer("circuit.simplify_ms", "ms", "lower"),
    layer("circuit.prune_ms", "ms", "lower"),
    layer("circuit.gates_submitted", "count", "lower"),
    layer("circuit.gates_executed", "count", "lower"),
    layer("circuit.max_bond", "count", "lower"),
    // exec
    layer("exec.threads", "count", "higher"),
    layer("exec.task_overhead_us", "us", "lower"),
    // serve
    layer("serve.from_json_ms", "ms", "lower"),
    layer("serve.submit_ms", "ms", "lower"),
    layer("serve.drain_ms", "ms", "lower"),
    layer("serve.emit_ms", "ms", "lower"),
    layer("serve.job_wall_p50_ms", "ms", "lower"),
    layer("serve.jobs_ok", "count", "higher"),
    // json
    layer("json.parse_ms", "ms", "lower"),
    layer("json.emit_ms", "ms", "lower"),
    layer("json.wire_bytes", "count", "lower"),
    // cluster: CommStats of one iteration, summed over the three variants.
    layer("cluster.bytes", "count", "lower"),
    layer("cluster.messages", "count", "lower"),
    layer("cluster.collectives", "count", "lower"),
    layer("cluster.redistributions", "count", "lower"),
    layer("cluster.full_gathers", "count", "lower"),
    layer("cluster.rounds", "count", "lower"),
    layer("cluster.checksum_bytes", "count", "lower"),
    layer("cluster.max_rank_macs", "count", "lower"),
    layer("cluster.load_imbalance", "ratio", "lower"),
    layer("cluster.modelled_s", "s", "lower"),
    layer("cluster.modelled_overlap_s", "s", "lower"),
    layer("cluster.variant_ms", "ms", "lower"),
    // error: recovery-ladder events per iteration.
    layer("error.svd_sweep_escalations", "1/iter", "lower"),
    layer("error.gram_svd_fallbacks", "1/iter", "lower"),
    layer("error.qr_degradations", "1/iter", "lower"),
    layer("error.rsvd_resketches", "1/iter", "lower"),
    layer("error.nonfinite_detections", "1/iter", "lower"),
    // trace: honesty of the split.
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("trace.unattributed_frac", "ratio", "lower"),
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

//! One round of one workload, in this process: set-up, the timed closed
//! loop (one client, no think time), checks, and — when tracing — spans,
//! counter snapshots and layer probes.

use crate::probe::{self, at_reference_clock, clock_probe_ms, Metrics};
use crate::spec::MAX_THREADS;
use crate::stats::median;
use crate::trace::{self_times_ns, Counters, Tracer};
use crate::workloads::{self, Control, Workload};
use koala_json::JsonValue;
use std::time::Instant;

/// What one child is asked to do.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    /// Wall-clock budget of the timed loop, in seconds.
    pub seconds: f64,
    /// Fewest warm iterations, whatever the budget.
    pub min_iters: usize,
    /// Stop after this many warm iterations (quick mode).
    pub max_iters: Option<usize>,
    pub trace: bool,
    pub control: Control,
    /// Where to write the Chrome trace of a traced run.
    pub trace_out: Option<String>,
}

/// What one child measured.
#[derive(Debug, Clone, Default)]
pub struct ChildResult {
    pub threads: usize,
    /// Workload units one iteration completes.
    pub units: u64,
    /// Set-up time at the reference clock, s.
    pub setup_s: f64,
    /// Time of each warm untraced iteration at the reference clock, ms.
    pub samples_ms: Vec<f64>,
    /// The same iterations as plain wall time, ms.
    pub wall_ms: Vec<f64>,
    /// Time of each warm traced iteration at the reference clock, ms.
    pub traced_ms: Vec<f64>,
    /// Iterations attempted, counting the set-up iteration.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    pub peak_rss_mb: f64,
    pub input_checksum: u64,
    pub decomposition_checked: Option<bool>,
    pub layer: Vec<(String, f64)>,
}

const MAX_ERRORS_KEPT: usize = 5;

fn threads_for_host() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(MAX_THREADS)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run the round described by `args`.
pub fn run(args: &ChildArgs) -> ChildResult {
    let mut out = ChildResult { threads: threads_for_host(), ..Default::default() };
    koala_exec::set_threads(out.threads);
    let note = |out: &mut ChildResult, verdict: Result<(), String>| {
        out.attempted += 1;
        if let Err(e) = verdict {
            out.failed += 1;
            if out.errors.len() < MAX_ERRORS_KEPT {
                out.errors.push(e);
            }
        }
    };

    // Set-up: input generation plus the first, cold iteration (plan-cache
    // misses, pool spin-up). Reference computation comes after the clock stops.
    let chain_before = clock_probe_ms();
    let clock = Instant::now();
    let mut workload = match workloads::build(&args.workload, args.seed, args.control) {
        Ok(w) => w,
        Err(e) => {
            note(&mut out, Err(e));
            return out;
        }
    };
    workload.prepare(0);
    let cold = workload.run(0, None);
    let setup_wall_s = clock.elapsed().as_secs_f64();
    out.setup_s = at_reference_clock(setup_wall_s, chain_before, clock_probe_ms());
    out.input_checksum = workload.input_checksum();
    out.units = workload.units();
    let verdict = cold.and_then(|()| workload.verify_setup()).and_then(|()| workload.check(0));
    note(&mut out, verdict);

    let mut tracer = Tracer::new();
    let mut first_traced_work: Option<Counters> = None;
    let counters_at_start = Counters::now();
    let cycle = workload.cycle();
    let loop_clock = Instant::now();
    let mut last_ok = true;
    let mut i = 0usize;
    loop {
        // A traced run needs every input run both ways: two whole cycles.
        let trace_floor = if args.trace { 2 * cycle } else { 0 };
        let done = match args.max_iters {
            Some(cap) => i >= cap.max(trace_floor),
            None => {
                i >= args.min_iters.max(trace_floor)
                    && loop_clock.elapsed().as_secs_f64() >= args.seconds
            }
        };
        if done {
            break;
        }
        i += 1;
        // A traced run alternates iteration by iteration between the library
        // entry point and the traced sequence of public calls, so host drift
        // hits both alike; the parity flips every input cycle, so each input
        // meets both within two cycles.
        let traced = args.trace && (i / cycle + i % cycle) % 2 == 1;
        workload.prepare(i);
        // Only the library call is timed; the clock probes on either side
        // rescale the sample to the reference clock.
        let chain_before = clock_probe_ms();
        let (result, wall_ms) = if traced {
            tracer.set_iteration(i);
            let root = tracer.enter("iteration");
            let t = Instant::now();
            let result = workload.run(i, Some(&mut tracer));
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            tracer.exit(root);
            (result, wall_ms)
        } else {
            let t = Instant::now();
            let result = workload.run(i, None);
            (result, t.elapsed().as_secs_f64() * 1e3)
        };
        let ms = at_reference_clock(wall_ms, chain_before, clock_probe_ms());
        if traced {
            tracer.scale_iteration(i, ms / wall_ms);
        }
        let verdict = result.and_then(|()| workload.check(i));
        last_ok = verdict.is_ok();
        if last_ok {
            if traced {
                out.traced_ms.push(ms);
                first_traced_work.get_or_insert_with(|| {
                    tracer
                        .spans()
                        .iter()
                        .rev()
                        .find(|s| s.parent.is_none())
                        .map(|s| s.counters)
                        .unwrap_or_default()
                });
            } else {
                out.samples_ms.push(ms);
                out.wall_ms.push(wall_ms);
            }
        }
        note(&mut out, verdict);
    }
    // The end-of-run oracle check is a verdict on the last iteration's state.
    if let Err(e) = workload.finish() {
        if last_ok {
            out.failed += 1;
        }
        if out.errors.len() < MAX_ERRORS_KEPT {
            out.errors.push(e);
        }
    }
    out.decomposition_checked = workload.decomposition_checked();
    out.peak_rss_mb = peak_rss_mb();

    if args.trace {
        let recovery = Counters::now().minus(&counters_at_start);
        let work = first_traced_work.unwrap_or_default();
        out.layer = layer_report(workload.as_mut(), &tracer, &out, &work, &recovery);
        if let Some(path) = &args.trace_out {
            let text = tracer.to_chrome_trace(&args.workload).pretty();
            let written = std::path::Path::new(path)
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(path, text));
            if let Err(e) = written {
                eprintln!("warning: could not write trace to {path}: {e}");
            }
        }
    }
    out
}

/// The per-layer metrics of a traced round: the workload's own span sums and
/// probes, plus what is measured the same way for every workload.
/// `work` is the counter change over the first traced warm iteration,
/// `recovery` the change over the whole timed loop.
fn layer_report(
    workload: &mut dyn Workload,
    tracer: &Tracer,
    out: &ChildResult,
    work: &Counters,
    recovery: &Counters,
) -> Vec<(String, f64)> {
    let warm = (out.samples_ms.len() + out.traced_ms.len()).max(1) as f64;
    let plain_ms = median(&out.samples_ms);
    let traced_ms = median(&out.traced_ms);
    let mut layer: Metrics = workload.layer_metrics(tracer.spans(), traced_ms);
    let peaks = probe::gemm_peaks();
    layer.extend([
        ("linalg.gemm_complex_macs", work.complex_macs as f64),
        ("linalg.gemm_real_macs", work.real_macs as f64),
        ("linalg.gemm_bytes", work.bytes as f64),
        ("linalg.transposes", work.transposes as f64),
        ("tensor.plan_hits", work.plan_hits as f64),
        ("tensor.plan_misses", work.plan_misses as f64),
        ("linalg.gemm_peak_gflops", peaks.0),
        ("linalg.gemm_real_peak_gflops", peaks.1),
        ("linalg.gemm_share_est", probe::gemm_share(work, plain_ms, peaks)),
        ("exec.threads", out.threads as f64),
        ("exec.task_overhead_us", probe::task_overhead_us()),
        ("error.svd_sweep_escalations", recovery.svd_sweep_escalations as f64 / warm),
        ("error.gram_svd_fallbacks", recovery.gram_svd_fallbacks as f64 / warm),
        ("error.qr_degradations", recovery.qr_degradations as f64 / warm),
        ("error.rsvd_resketches", recovery.rsvd_resketches as f64 / warm),
        ("error.nonfinite_detections", recovery.nonfinite_detections as f64 / warm),
        ("trace.overhead_frac", (traced_ms - plain_ms) / plain_ms),
    ]);
    // Where the iteration was decomposed into stage spans, the root's self
    // time is what no stage accounts for; otherwise the workload reported
    // what its probes leave unexplained.
    let spans = tracer.spans();
    if spans.iter().any(|s| s.parent.is_some()) {
        let own = self_times_ns(spans);
        let shares: Vec<f64> = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.parent.is_none() && s.duration_ns() > 0)
            .map(|(s, &own)| own as f64 / s.duration_ns() as f64)
            .collect();
        layer.push(("trace.unattributed_frac", median(&shares)));
    }
    layer.into_iter().map(|(name, value)| (name.to_string(), value)).collect()
}

impl ChildResult {
    /// The one-line wire form a child prints for its parent.
    pub fn to_json(&self) -> JsonValue {
        let nums = |v: &[f64]| JsonValue::Array(v.iter().map(|&x| JsonValue::Num(x)).collect());
        JsonValue::object([
            ("threads", JsonValue::num(self.threads as f64)),
            ("units", JsonValue::num(self.units as f64)),
            ("setup_s", JsonValue::Num(self.setup_s)),
            ("samples_ms", nums(&self.samples_ms)),
            ("wall_ms", nums(&self.wall_ms)),
            ("traced_ms", nums(&self.traced_ms)),
            ("attempted", JsonValue::num(self.attempted as f64)),
            ("failed", JsonValue::num(self.failed as f64)),
            ("errors", JsonValue::Array(self.errors.iter().map(JsonValue::str).collect())),
            ("peak_rss_mb", JsonValue::Num(self.peak_rss_mb)),
            ("input_checksum", JsonValue::str(format!("{:016x}", self.input_checksum))),
            (
                "decomposition_checked",
                self.decomposition_checked.map_or(JsonValue::Null, JsonValue::Bool),
            ),
            (
                "layer",
                JsonValue::Object(
                    self.layer.iter().map(|(k, v)| (k.clone(), JsonValue::Num(*v))).collect(),
                ),
            ),
        ])
    }

    /// Parse the wire form back.
    pub fn from_json(v: &JsonValue) -> Result<ChildResult, String> {
        let num = |key: &str| {
            v.get(key).and_then(JsonValue::as_num).ok_or(format!("child result lacks '{key}'"))
        };
        let nums = |key: &str| -> Result<Vec<f64>, String> {
            let items = v
                .get(key)
                .and_then(JsonValue::as_array)
                .ok_or(format!("child result lacks '{key}'"))?;
            Ok(items.iter().filter_map(JsonValue::as_num).collect())
        };
        let checksum = v.get("input_checksum").and_then(JsonValue::as_str).unwrap_or("0");
        Ok(ChildResult {
            threads: num("threads")? as usize,
            units: num("units")? as u64,
            setup_s: num("setup_s")?,
            samples_ms: nums("samples_ms")?,
            wall_ms: nums("wall_ms")?,
            traced_ms: nums("traced_ms")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            errors: v
                .get("errors")
                .and_then(JsonValue::as_array)
                .map(|a| a.iter().filter_map(|e| e.as_str().map(String::from)).collect())
                .unwrap_or_default(),
            peak_rss_mb: v.get("peak_rss_mb").and_then(JsonValue::as_num).unwrap_or(f64::NAN),
            input_checksum: u64::from_str_radix(checksum, 16).map_err(|e| e.to_string())?,
            decomposition_checked: match v.get("decomposition_checked") {
                Some(JsonValue::Bool(b)) => Some(*b),
                _ => None,
            },
            layer: match v.get("layer") {
                Some(JsonValue::Object(pairs)) => {
                    pairs.iter().filter_map(|(k, v)| Some((k.clone(), v.as_num()?))).collect()
                }
                _ => Vec::new(),
            },
        })
    }
}

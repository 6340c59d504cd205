//! CI perf-regression gate: compare a fresh `bench_gemm --quick` run against
//! the committed `BENCH_gemm.json` baselines and fail if effective GFLOP/s
//! dropped by more than the allowed fraction on any series.
//!
//! Entries are matched by `(series, label, opa, opb, threads)`; only keys
//! present in *both* files are compared, so a CI host with a different core
//! count (extra `threads` rows), a `--quick` run (a subset of the full
//! grid's labels), or a PR adding a brand-new series before the committed
//! baseline is regenerated still gates on the intersection — current-only
//! cases are listed and ignored, never a failure. An entry of a *known*
//! series that lacks its gated field is still a hard error, though: that is
//! an emitter regression, and skipping it would silently un-gate the series. Matrices are
//! bit-identical across runs because `bench_gemm` seeds each case from a
//! hash of its identity, so a drop is a kernel/dispatch regression (or host
//! noise — the threshold leaves 25% headroom for that), never a data change.
//!
//! A second check needs no baseline: every `packed_vs_seed` entry of the
//! *current* run must have `speedup_vs_seed >= 1.0`. It compares the packed
//! kernel with the unpacked seed loop in the same run on the same host, so it
//! catches a microkernel that compiled to scalar code even when the baseline
//! came from a different machine (an AVX-512 build once ran at 0.15x).
//! Both documents' `host_cpu` and `microkernel` fields are printed first.
//!
//! When both documents record `microkernel` and the values differ (an
//! `avx512f` baseline, a runner that compiled the `portable` kernels), the
//! absolute rates measure different code and a several-fold gap between
//! them is expected, so the baseline comparison is skipped with a note and
//! only the same-run seed check gates.
//!
//! The compared rates are the per-series effective GFLOP/s — the
//! counter-derived rate for the GEMM series, and for the factorization
//! series the nominal-flops rates of both paths, `effective_gflops` (real)
//! and `complex_effective_gflops` — so the gate covers the packed kernel,
//! the real dispatch, and both the real and the complex factorizations.
//! Each gated rate is its own case, keyed by its field.
//!
//! Usage:
//! `check_bench --baseline BENCH_gemm.json --current bench_gemm_ci.json
//! [--max-drop 0.25]`
//!
//! Exit code 0 = no regression; 1 = regression or unusable inputs.

use koala_json::JsonValue;

/// The JSON fields holding the gated rates of each known series.
fn rate_fields(series: &str) -> &'static [&'static str] {
    match series {
        "packed_vs_seed" => &["packed_gflops"],
        "real_vs_complex" => &["real_effective_gflops"],
        "real_factorization" => &["effective_gflops", "complex_effective_gflops"],
        _ => &[],
    }
}

/// Identity + rate of one benchmark entry.
struct Entry {
    key: String,
    rate: f64,
    /// `speedup_vs_seed` of a `packed_vs_seed` entry.
    seed_speedup: Option<f64>,
}

/// One `BENCH_gemm.json` document: where it was recorded and its entries.
/// `host_cpu` and `microkernel` are schema 5 fields; older baselines did not
/// record them.
struct Bench {
    host_cpu: Option<String>,
    microkernel: Option<String>,
    entries: Vec<Entry>,
}

fn load(path: &str) -> Result<Bench, String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read {path}: {e}\n  (regenerate it with `cargo run --release -p koala-bench \
             --bin bench_gemm -- --quick --json {path}`)"
        )
    })?;
    let doc = JsonValue::parse(&text).map_err(|e| {
        format!("cannot parse {path}: {e}\n  (truncated or corrupt JSON — regenerate the file)")
    })?;
    let results = doc.get("results").and_then(|r| r.as_array()).ok_or_else(|| {
        format!("{path}: missing 'results' array (truncated or schema-drifted file)")
    })?;
    let recorded = |field: &str| doc.get(field).and_then(|v| v.as_str()).map(str::to_string);
    let mut entries = Vec::new();
    for item in results {
        // Unknown series have no fields: ignored rather than failing on new
        // data.
        let series = item.get("series").and_then(|v| v.as_str()).unwrap_or("");
        let label = item.get("label").and_then(|v| v.as_str()).unwrap_or("");
        let opa = item.get("opa").and_then(|v| v.as_str()).unwrap_or("-");
        let opb = item.get("opb").and_then(|v| v.as_str()).unwrap_or("-");
        let threads = item.get("threads").and_then(|v| v.as_num()).unwrap_or(0.0);
        for &field in rate_fields(series) {
            let Some(rate) = item.get(field).and_then(|v| v.as_num()) else {
                // A known series losing a gated field is an emitter
                // regression (it would silently un-gate the rate if merely
                // skipped); only *whole series* absent from the baseline are
                // tolerated, via the key-intersection logic in main().
                return Err(format!("{path}: entry {series}/{label} lacks numeric '{field}'"));
            };
            let seed_speedup = if series == "packed_vs_seed" {
                let speedup = item.get("speedup_vs_seed").and_then(|v| v.as_num());
                Some(speedup.ok_or_else(|| {
                    format!("{path}: entry {series}/{label} lacks numeric 'speedup_vs_seed'")
                })?)
            } else {
                None
            };
            let key = format!("{series}/{label}/{opa}{opb}/t{threads}/{field}");
            entries.push(Entry { key, rate, seed_speedup });
        }
    }
    Ok(Bench { host_cpu: recorded("host_cpu"), microkernel: recorded("microkernel"), entries })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get_flag = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
    };
    let baseline_path = get_flag("--baseline").unwrap_or_else(|| "BENCH_gemm.json".to_string());
    let current_path = get_flag("--current").unwrap_or_else(|| "bench_gemm_ci.json".to_string());
    let max_drop: f64 = match get_flag("--max-drop").map(|s| s.parse::<f64>()) {
        None => 0.25,
        Some(Ok(v)) => v,
        Some(Err(e)) => {
            eprintln!("check_bench: --max-drop must be a number: {e}");
            std::process::exit(1);
        }
    };

    let (baseline_doc, current_doc) = match (load(&baseline_path), load(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("check_bench: {e}");
            std::process::exit(1);
        }
    };
    for (side, doc) in [("baseline", &baseline_doc), ("current", &current_doc)] {
        let shown = |field: &Option<String>| field.clone().unwrap_or("(not recorded)".into());
        println!(
            "check_bench: {side:<8} host_cpu = {}, microkernel = {}",
            shown(&doc.host_cpu),
            shown(&doc.microkernel)
        );
    }
    let (baseline, current) = (&baseline_doc.entries, &current_doc.entries);

    // Same run, same host: a packed kernel slower than the unpacked seed loop
    // is a kernel that lost its vectorization, wherever the baseline was
    // recorded.
    let slower_than_seed: Vec<(&str, f64)> = current
        .iter()
        .filter_map(|c| c.seed_speedup.filter(|&s| s < 1.0).map(|s| (c.key.as_str(), s)))
        .collect();
    for (key, speedup) in &slower_than_seed {
        eprintln!(
            "check_bench: {key}: packed kernel at {speedup:.2}x the seed loop in {current_path} \
             (< 1.0x: is the microkernel vectorized on this build?)"
        );
    }

    // Nothing comparable in the baseline: an empty one (e.g. a freshly
    // bootstrapped repo) or one built with the other register kernels. That
    // is not a regression; the same-run seed check above still applies.
    let incomparable = match (&baseline_doc.microkernel, &current_doc.microkernel) {
        _ if baseline.is_empty() => Some("it contains no entries of any gated series".to_string()),
        (Some(base), Some(cur)) if base != cur => Some(format!(
            "it was built with the {base} microkernels and this run with the {cur} ones, \
             so absolute GFLOP/s measure different code"
        )),
        _ => None,
    };
    if let Some(why) = incomparable {
        println!("check_bench: NOTE — not comparing against {baseline_path}: {why}");
        let packed = current.iter().filter(|c| c.seed_speedup.is_some()).count();
        if packed == 0 {
            eprintln!(
                "check_bench: FAIL — {current_path} has no packed_vs_seed case either; the \
                 gate compared nothing"
            );
        } else if slower_than_seed.is_empty() {
            println!("check_bench: OK — all {packed} packed case(s) at least as fast as the seed");
            std::process::exit(0);
        } else {
            eprintln!(
                "check_bench: FAIL — {} of {packed} packed case(s) slower than the seed loop",
                slower_than_seed.len()
            );
        }
        std::process::exit(1);
    }

    let mut matched = 0usize;
    let mut regressions = Vec::new();
    println!("{:<64} {:>10} {:>10} {:>8}  verdict", "case", "base GF/s", "now GF/s", "ratio");
    for base in baseline {
        let Some(cur) = current.iter().find(|c| c.key == base.key) else {
            continue; // not run in this configuration (e.g. thread count)
        };
        matched += 1;
        let ratio = if base.rate > 0.0 { cur.rate / base.rate } else { f64::INFINITY };
        let ok = ratio >= 1.0 - max_drop;
        println!(
            "{:<64} {:>10.2} {:>10.2} {:>7.2}x  {}",
            base.key,
            base.rate,
            cur.rate,
            ratio,
            if ok { "ok" } else { "REGRESSION" }
        );
        if !ok {
            regressions.push((base.key.clone(), ratio));
        }
    }

    // Series/cases present only in the fresh run are fine: a PR that adds a
    // new bench series can land before the committed baseline is regenerated
    // — the gate simply reports what it could not compare and gates on the
    // intersection.
    let current_only: Vec<&str> = current
        .iter()
        .filter(|c| baseline.iter().all(|b| b.key != c.key))
        .map(|c| c.key.as_str())
        .collect();
    if !current_only.is_empty() {
        println!(
            "check_bench: {} case(s) absent from the baseline, ignored (new series land \
             without regenerating {baseline_path} first): {}",
            current_only.len(),
            current_only.join(", ")
        );
    }

    if matched == 0 {
        eprintln!(
            "check_bench: no overlapping entries between {baseline_path} and {current_path} — \
             the gate compared nothing (key schema drift?)"
        );
        std::process::exit(1);
    }
    if regressions.is_empty() && slower_than_seed.is_empty() {
        println!(
            "check_bench: OK — {matched} case(s) within {:.0}% of the committed baseline",
            max_drop * 100.0
        );
    } else {
        eprintln!(
            "check_bench: FAIL — {} of {matched} case(s) dropped more than {:.0}%, {} packed \
             case(s) slower than the seed loop:",
            regressions.len(),
            max_drop * 100.0,
            slower_than_seed.len()
        );
        for (key, ratio) in &regressions {
            eprintln!("  {key}: {:.1}% of baseline", ratio * 100.0);
        }
        std::process::exit(1);
    }
}

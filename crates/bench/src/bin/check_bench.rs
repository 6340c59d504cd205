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
//! The compared rate is the per-series effective GFLOP/s — the
//! counter-derived rate for the GEMM series and the nominal-flops rate for
//! the factorization series — so the gate covers the packed kernel, the real
//! dispatch, *and* the realness-preserving factorization paths.
//!
//! Usage:
//! `check_bench --baseline BENCH_gemm.json --current bench_gemm_ci.json
//! [--max-drop 0.25]`
//!
//! Exit code 0 = no regression; 1 = regression or unusable inputs.

use koala_json::JsonValue;

/// The JSON field holding the gated rate for each known series.
fn rate_field(series: &str) -> Option<&'static str> {
    match series {
        "packed_vs_seed" => Some("packed_gflops"),
        "real_vs_complex" => Some("real_effective_gflops"),
        "real_factorization" => Some("effective_gflops"),
        _ => None,
    }
}

/// Identity + rate of one benchmark entry.
struct Entry {
    key: String,
    rate: f64,
}

fn load_entries(path: &str) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read {path}: {e}\n  (regenerate it with `cargo run --release -p koala-bench \
             --bin bench_gemm -- --quick --out {path}`)"
        )
    })?;
    let doc = JsonValue::parse(&text).map_err(|e| {
        format!("cannot parse {path}: {e}\n  (truncated or corrupt JSON — regenerate the file)")
    })?;
    let results = doc.get("results").and_then(|r| r.as_array()).ok_or_else(|| {
        format!("{path}: missing 'results' array (truncated or schema-drifted file)")
    })?;
    let mut entries = Vec::new();
    for item in results {
        let series = item.get("series").and_then(|v| v.as_str()).unwrap_or("");
        let Some(field) = rate_field(series) else {
            continue; // unknown series: ignore rather than fail on new data
        };
        let label = item.get("label").and_then(|v| v.as_str()).unwrap_or("");
        let opa = item.get("opa").and_then(|v| v.as_str()).unwrap_or("-");
        let opb = item.get("opb").and_then(|v| v.as_str()).unwrap_or("-");
        let threads = item.get("threads").and_then(|v| v.as_num()).unwrap_or(0.0);
        let Some(rate) = item.get(field).and_then(|v| v.as_num()) else {
            // A known series losing its gated field is an emitter regression
            // (it would silently un-gate the series if merely skipped); only
            // *whole series* absent from the baseline are tolerated, via the
            // key-intersection logic in main().
            return Err(format!("{path}: entry {series}/{label} lacks numeric '{field}'"));
        };
        entries.push(Entry { key: format!("{series}/{label}/{opa}{opb}/t{threads}"), rate });
    }
    Ok(entries)
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

    let baseline = match load_entries(&baseline_path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("check_bench: {e}");
            std::process::exit(1);
        }
    };
    let current = match load_entries(&current_path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("check_bench: {e}");
            std::process::exit(1);
        }
    };

    if baseline.is_empty() {
        // A parsable baseline with no gated series is not a regression — there
        // is simply nothing to compare yet (e.g. a freshly bootstrapped repo).
        println!(
            "check_bench: WARNING — {baseline_path} contains no entries of any gated series; \
             nothing to compare, passing vacuously"
        );
        return;
    }

    let mut matched = 0usize;
    let mut regressions = Vec::new();
    println!("{:<48} {:>10} {:>10} {:>8}  verdict", "case", "base GF/s", "now GF/s", "ratio");
    for base in &baseline {
        let Some(cur) = current.iter().find(|c| c.key == base.key) else {
            continue; // not run in this configuration (e.g. thread count)
        };
        matched += 1;
        let ratio = if base.rate > 0.0 { cur.rate / base.rate } else { f64::INFINITY };
        let ok = ratio >= 1.0 - max_drop;
        println!(
            "{:<48} {:>10.2} {:>10.2} {:>7.2}x  {}",
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
    if regressions.is_empty() {
        println!(
            "check_bench: OK — {matched} case(s) within {:.0}% of the committed baseline",
            max_drop * 100.0
        );
    } else {
        eprintln!(
            "check_bench: FAIL — {} of {matched} case(s) dropped more than {:.0}%:",
            regressions.len(),
            max_drop * 100.0
        );
        for (key, ratio) in &regressions {
            eprintln!("  {key}: {:.1}% of baseline", ratio * 100.0);
        }
        std::process::exit(1);
    }
}

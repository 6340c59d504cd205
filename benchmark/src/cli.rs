//! Command line: `run`, `compare`, and the internal `child`.

use crate::child::{self, ChildArgs};
use crate::compare;
use crate::driver::{self, RunConfig};
use crate::spec::{DEFAULT_SECONDS, WORKLOADS};
use crate::workloads::Control;
use koala_json::JsonValue;

const USAGE: &str = "\
usage:
  koala-benchmark run [--seed N] [--workload W]... [--seconds S] [--trace [0|1]] [--quick] [--out FILE]
  koala-benchmark compare A.json B.json

run      times the workloads (all seven unless --workload is given), checks every
         result, and prints every metric by name with its unit. --trace reports the
         per-layer metrics instead of the end-to-end ones. --quick is a smoke run
         (1 round, 3 iterations). --out writes the numbers as JSON. With a single
         --workload the last line of output is the result as one JSON object.
compare  checks two --out files against the benchmark's bounds; exits 1 if any
         (workload, end-to-end metric) pair differs by more than its bound.";

/// Flags of the form `--name value` and bare `--name`, in order.
struct Flags {
    args: std::vec::IntoIter<String>,
}

impl Flags {
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.args.next().ok_or(format!("{flag} needs a value"))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let text = self.value(flag)?;
        text.parse().map_err(|_| format!("{flag}: cannot read '{text}'"))
    }
}

fn parse_run(args: Vec<String>) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        seed: 1,
        workloads: Vec::new(),
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
        wrong_reference: false,
    };
    let mut flags = Flags { args: args.into_iter() };
    while let Some(flag) = flags.args.next() {
        match flag.as_str() {
            "--seed" => cfg.seed = flags.parsed(&flag)?,
            "--workload" => cfg.workloads.push(flags.value(&flag)?),
            "--seconds" => cfg.seconds = flags.parsed(&flag)?,
            "--trace" => {
                // `--trace`, `--trace 0` and `--trace 1` are all accepted.
                cfg.trace = match flags.args.as_slice().first().map(String::as_str) {
                    Some("0") | Some("1") => flags.value(&flag)? == "1",
                    _ => true,
                }
            }
            "--quick" => cfg.quick = true,
            "--out" => cfg.out = Some(flags.value(&flag)?),
            "--wrong-reference" => cfg.wrong_reference = true,
            other => return Err(format!("run: unknown argument '{other}'")),
        }
    }
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if cfg.workloads.is_empty() {
        cfg.workloads = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    }
    Ok(cfg)
}

fn run(args: Vec<String>) -> Result<i32, String> {
    let cfg = parse_run(args)?;
    let reports = driver::run(&cfg)?;
    driver::print_reports(&reports);
    if let Some(path) = &cfg.out {
        std::fs::write(path, driver::results_json(&cfg, &reports).pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let [only] = reports.as_slice() {
        println!("{}", driver::contract_line(only));
    }
    Ok(0)
}

fn parse_child(args: Vec<String>) -> Result<ChildArgs, String> {
    let mut child = ChildArgs {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        min_iters: 1,
        max_iters: None,
        trace: false,
        control: Control::default(),
        trace_out: None,
    };
    let mut flags = Flags { args: args.into_iter() };
    while let Some(flag) = flags.args.next() {
        match flag.as_str() {
            "--workload" => child.workload = flags.value(&flag)?,
            "--seed" => child.seed = flags.parsed(&flag)?,
            "--seconds" => child.seconds = flags.parsed(&flag)?,
            "--min-iters" => child.min_iters = flags.parsed(&flag)?,
            "--max-iters" => child.max_iters = Some(flags.parsed(&flag)?),
            "--trace" => child.trace = flags.value(&flag)? == "1",
            "--trace-out" => child.trace_out = Some(flags.value(&flag)?),
            "--wrong-reference" => child.control.wrong_reference = true,
            other => return Err(format!("child: unknown argument '{other}'")),
        }
    }
    Ok(child)
}

fn compare_files(args: Vec<String>) -> Result<i32, String> {
    let [a, b] = args.as_slice() else {
        return Err("compare needs exactly two result files".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| JsonValue::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    Ok(if compare::report(&rows) { 0 } else { 1 })
}

/// Entry point; returns the process exit code.
pub fn main(mut args: Vec<String>) -> i32 {
    if args.is_empty() {
        eprintln!("{USAGE}");
        return 2;
    }
    let rest = args.split_off(1);
    let outcome = match args[0].as_str() {
        "run" => run(rest),
        "compare" => compare_files(rest),
        "child" => parse_child(rest).map(|child_args| {
            let text: String =
                child::run(&child_args).to_json().pretty().lines().map(str::trim_start).collect();
            println!("{text}");
            0
        }),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(0)
        }
        other => Err(format!("unknown command '{other}'")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        2
    })
}

//! Seeded fuzz over the wire parser: the `job` objects of the serve_stdio
//! smoke batch, mutated 10 000 times the ways hostile or broken clients do
//! (flipped bits, truncated lines, `NaN` / `-1` / `0.5` / out-of-range numbers
//! where a count belongs, spliced fragments, absurd nesting), go through
//! `JsonValue::parse` + `JobSpec::from_json` exactly as `serve_stdio` feeds
//! them. Every line must come back `Ok` or as an error value — never a
//! panic, a stack overflow or an attempt to size something from the input.
//! Which lines are accepted, and what each accepted line means, is pinned
//! by a digest over the outcomes.

use koala_json::JsonValue;
use koala_serve::JobSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SEEDS: [&str; 4] = [
    r#"{"type":"ite","nrows":2,"ncols":2,"steps":4,"evolution_bond":1,"contraction_bond":2,"measure_every":2,"seed":3}"#,
    r#"{"type":"vqe","nrows":2,"ncols":2,"backend":{"type":"peps","bond":2,"contraction_bond":4},"optimizer":{"type":"nelder_mead","max_iterations":8},"seed":11}"#,
    r#"{"type":"amplitudes","nrows":2,"ncols":2,"layers":2,"entangle_every":2,"circuit_seed":21,"method":{"type":"bmps","max_bond":8},"bitstrings":[[0,0,0,0],[1,0,1,1]],"seed":21}"#,
    r#"{"type":"circuit","num_qubits":4,"nrows":2,"ncols":2,"gates":[{"g":"h","q":0},{"g":"rz","q":1,"theta":0.25},{"g":"cnot","a":0,"b":1},{"g":"cz","a":2,"b":3}],"bitstrings":[[0,0,0,0],[1,1,1,1]],"backend":{"type":"peps","evolution_bond":4,"method":{"type":"ibmps","max_bond":8}},"seed":7}"#,
];

/// What a count or index field must refuse.
const BAD_NUMBERS: [&str; 12] = [
    "NaN",
    "-1",
    "0.5",
    "-0.0",
    "1e999",
    "-1e999",
    "1e19",
    "9007199254740993",
    "18446744073709551616",
    "4294967296",
    "1e-320",
    "--1",
];

/// Byte ranges of the numeric tokens of an ASCII JSON line.
fn number_spans(line: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < line.len() {
        if line[i].is_ascii_digit() && (i == 0 || !line[i - 1].is_ascii_alphanumeric()) {
            let start = i;
            while i < line.len() && (line[i].is_ascii_digit() || line[i] == b'.') {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

fn mutate(rng: &mut StdRng) -> String {
    let seed = SEEDS[rng.gen_range(0..SEEDS.len())];
    let mut line = seed.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4usize) {
        match rng.gen_range(0..6u32) {
            // Flip one of the low seven bits: ASCII stays ASCII.
            0 => {
                for _ in 0..rng.gen_range(1..4usize) {
                    let at = rng.gen_range(0..line.len());
                    line[at] ^= 1 << rng.gen_range(0..7u32);
                }
            }
            1 => line.truncate(rng.gen_range(1..line.len())),
            2 | 3 => {
                let spans = number_spans(&line);
                if !spans.is_empty() {
                    let (start, end) = spans[rng.gen_range(0..spans.len())];
                    let bad = BAD_NUMBERS[rng.gen_range(0..BAD_NUMBERS.len())];
                    line.splice(start..end, bad.bytes());
                }
            }
            // A fragment of another job, dropped in anywhere.
            4 => {
                let other = SEEDS[rng.gen_range(0..SEEDS.len())].as_bytes();
                let from = rng.gen_range(0..other.len());
                let to = rng.gen_range(from..other.len());
                let at = rng.gen_range(0..line.len());
                line.splice(at..at, other[from..to].iter().copied());
            }
            // Nesting far beyond any call stack, around the job or inside it.
            _ => {
                let depth = rng.gen_range(1..200_000usize);
                let (open, close) = if rng.gen_bool(0.5) { ("[", "]") } else { ("{\"a\":", "}") };
                let at = if rng.gen_bool(0.5) { 0 } else { rng.gen_range(0..line.len()) };
                let closers = if rng.gen_bool(0.5) { close.repeat(depth) } else { String::new() };
                line.splice(at..at, open.repeat(depth).into_bytes());
                line.extend_from_slice(closers.as_bytes());
            }
        }
        if line.len() < 2 {
            break;
        }
    }
    String::from_utf8(line).expect("mutations keep the line ASCII")
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// One line per message, as `serve_stdio` writes them.
fn compact(v: &JsonValue) -> String {
    v.pretty().lines().map(str::trim_start).collect::<Vec<_>>().join("")
}

/// What one line did: bad JSON, a rejected spec (with its error kind), or
/// an accepted spec (with its re-emitted wire form and its signature).
enum Outcome {
    BadJson,
    Rejected(String),
    Accepted(String),
}

#[test]
fn ten_thousand_mutated_job_lines_parse_or_fail_cleanly() {
    for seed in SEEDS {
        let job = JsonValue::parse(seed).expect("seed line is JSON");
        JobSpec::from_json(&job).expect("seed line is a valid job");
    }
    let mut rng = StdRng::seed_from_u64(0xF022);
    let started = Instant::now();
    let (mut accepted, mut bad_json, mut bad_spec) = (0, 0, 0);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for case in 0..10_000 {
        let line = mutate(&mut rng);
        let outcome = std::panic::catch_unwind(|| match JsonValue::parse(&line) {
            Err(_) => Outcome::BadJson,
            Ok(job) => match JobSpec::from_json(&job) {
                Ok(spec) => {
                    Outcome::Accepted(format!("{}{}", compact(&spec.to_json()), spec.signature()))
                }
                Err(e) => Outcome::Rejected(format!("{:?}", e.kind())),
            },
        });
        match outcome {
            Ok(Outcome::Accepted(wire)) => {
                accepted += 1;
                digest = fnv1a(digest, wire.as_bytes());
            }
            Ok(Outcome::BadJson) => {
                bad_json += 1;
                digest = fnv1a(digest, b"json");
            }
            Ok(Outcome::Rejected(kind)) => {
                bad_spec += 1;
                digest = fnv1a(digest, kind.as_bytes());
            }
            Err(_) => {
                let shown: String = line.chars().take(400).collect();
                panic!("case {case} panicked on a {}-byte line: {shown}", line.len());
            }
        }
    }
    // The mix must reach all three outcomes, or the fuzz is not testing the
    // spec layer at all.
    assert!(
        accepted > 100 && bad_json > 1000 && bad_spec > 1000,
        "{accepted}/{bad_json}/{bad_spec}"
    );
    assert!(started.elapsed().as_secs() < 60, "the parser hung: {:?}", started.elapsed());
    assert_eq!(
        digest, 16_716_845_739_663_081_638,
        "the accepted set or an accepted line's meaning changed"
    );
}

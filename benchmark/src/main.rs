//! `koala-benchmark` — see `benchmark/README.md`.

fn main() {
    std::process::exit(koala_benchmark::cli::main(std::env::args().skip(1).collect()));
}

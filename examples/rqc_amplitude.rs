//! Random-quantum-circuit amplitude study (the Figure 10 workload at a
//! laptop-friendly size), submitted through the `koala-serve` front door
//! and the `koala-circuit` gate-list front end.
//!
//! The seed-21 lattice circuit is converted to the typed circuit IR and
//! dispatched with [`BackendChoice::Auto`]: at nine qubits the dispatcher
//! picks the exact statevector oracle, which doubles as the reference for
//! the bond sweep. The sweep itself computes the same amplitude with BMPS
//! and IBMPS at increasing contraction bond dimensions, showing the sharp
//! error drop once the bond dimension crosses the entanglement threshold.
//!
//! Run with: `cargo run --release --example rqc_amplitude`

use koala::circuit::Circuit;
use koala::peps::ContractionMethod;
use koala::serve::{AmplitudeJob, CircuitJob, JobResult, JobSpec, Server, ServerConfig};
use koala::sim::random_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 3;
    let mut rng = StdRng::seed_from_u64(21);
    let rqc = random_circuit(n, n, 8, 4, &mut rng);
    println!("generated an RQC with {} gates ({} entangling)", rqc.len(), rqc.two_qubit_count());

    // --- Front end: typed IR + auto dispatch for the exact reference. ---
    let circuit = Circuit::from_lattice_circuit(&rqc, n, n).expect("lattice circuit converts");
    let bits = vec![0usize; n * n];
    let mut server = Server::new(ServerConfig::default());
    server
        .submit("figure10", JobSpec::Circuit(CircuitJob::new(circuit, vec![bits])))
        .expect("submit");
    let outcome = server.drain().pop().expect("one outcome");
    let Some(JobResult::Circuit(front)) = outcome.result else {
        panic!("circuit job failed: {:?}", outcome.error)
    };
    let exact = front.amplitudes[0];
    println!(
        "dispatcher chose backend '{}': {} gates submitted, {} executed \
         (fusion + diagonal absorption + light-cone pruning)",
        front.backend, front.gates_submitted, front.gates_executed
    );
    println!(
        "receipt [{}]: {:.2e} hw flops ({} complex MACs, {} real MACs, {} bytes)",
        outcome.receipt.signature,
        outcome.receipt.work.hw_flops(),
        outcome.receipt.work.complex_macs,
        outcome.receipt.work.real_macs,
        outcome.receipt.work.bytes
    );
    println!("exact amplitude <0...0|C|0...0> = {exact}");

    // --- The Figure 10 bond sweep: each (method, bond) point is a typed
    // AmplitudeJob sharing the same circuit seed, so every job contracts
    // the same exactly-evolved state. Each job asks for two bitstrings: a
    // batch shares one evolution of the whole circuit, while a single query
    // would be light-cone pruned to a state too small to stress the bond. ---
    let bonds = [2usize, 8, 32];
    let mut server = Server::new(ServerConfig::default());
    for m in bonds {
        for method in [ContractionMethod::bmps(m), ContractionMethod::ibmps(m)] {
            let bitstrings = vec![vec![0; n * n], vec![1; n * n]];
            let job = AmplitudeJob { bitstrings, ..AmplitudeJob::new(n, n, method) };
            server.submit("figure10", JobSpec::Amplitudes(job)).expect("submit");
        }
    }
    let outcomes = server.drain();

    println!("\n{:>6} | {:>12} | {:>12}", "m", "BMPS error", "IBMPS error");
    for (i, m) in bonds.iter().enumerate() {
        let error = |outcome: &koala::serve::JobOutcome| {
            let Some(JobResult::Amplitudes(out)) = &outcome.result else {
                panic!("amplitude job failed: {:?}", outcome.error)
            };
            (out.amplitudes[0] - exact).abs() / exact.abs()
        };
        println!(
            "{:>6} | {:>12.3e} | {:>12.3e}",
            m,
            error(&outcomes[2 * i]),
            error(&outcomes[2 * i + 1])
        );
    }
    let flops: f64 = outcomes.iter().map(|o| o.receipt.work.hw_flops()).sum();
    println!("\ntotal billed across the batch: {flops:.2e} hardware flops");
    println!("Once the contraction bond dimension exceeds the state's entanglement,");
    println!("the error drops to the level of round-off — the behaviour of Figure 10.");
}

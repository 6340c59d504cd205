//! Byte pins of the serve wire format.
//!
//! The emitted bytes of a fixed corpus of job specs, their signatures (which
//! appear in every receipt) and the emitted bytes of one result of each kind
//! are pinned as FNV-1a digests or literal strings. A refactor of the wire
//! code must leave every pin passing unmodified; a deliberate protocol
//! change re-records them and says so.
//!
//! The defaults test pins what an absent key means on the wire. Those
//! defaults differ from the `new()` constructors' on purpose (an `ite` line
//! without `seed` gets 0, `IteJob::new` gives 7), so both sets are pinned.

use koala_circuit::{Backend, BackendChoice, Circuit, Gate1, Gate2};
use koala_json::JsonValue;
use koala_linalg::{c64, Matrix};
use koala_peps::ContractionMethod;
use koala_serve::{
    AmplitudeJob, AmplitudeOutput, CircuitJob, CircuitOutput, IteJob, IteOutput, JobResult,
    JobSpec, VqeJob, VqeOutput,
};
use koala_sim::{Optimizer, VqeBackend};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn parse(line: &str) -> JobSpec {
    JobSpec::from_json(&JsonValue::parse(line).expect("corpus line is JSON"))
        .unwrap_or_else(|e| panic!("corpus line is a valid job: {e}\n{line}"))
}

/// The seed lines of `wire_fuzz.rs` and the job objects of the CI serve smoke.
const LINES: [&str; 8] = [
    r#"{"type":"ite","nrows":2,"ncols":2,"steps":4,"evolution_bond":1,"contraction_bond":2,"measure_every":2,"seed":3}"#,
    r#"{"type":"vqe","nrows":2,"ncols":2,"backend":{"type":"peps","bond":2,"contraction_bond":4},"optimizer":{"type":"nelder_mead","max_iterations":8},"seed":11}"#,
    r#"{"type":"amplitudes","nrows":2,"ncols":2,"layers":2,"entangle_every":2,"circuit_seed":21,"method":{"type":"bmps","max_bond":8},"bitstrings":[[0,0,0,0],[1,0,1,1]],"seed":21}"#,
    r#"{"type":"circuit","num_qubits":4,"nrows":2,"ncols":2,"gates":[{"g":"h","q":0},{"g":"rz","q":1,"theta":0.25},{"g":"cnot","a":0,"b":1},{"g":"cz","a":2,"b":3}],"bitstrings":[[0,0,0,0],[1,1,1,1]],"backend":{"type":"peps","evolution_bond":4,"method":{"type":"ibmps","max_bond":8}},"seed":7}"#,
    r#"{"type":"ite","nrows":2,"ncols":2,"steps":4,"evolution_bond":1,"contraction_bond":2,"measure_every":2,"seed":3}"#,
    r#"{"type":"vqe","nrows":2,"ncols":2,"backend":{"type":"statevector"},"optimizer":{"type":"nelder_mead","max_iterations":8},"seed":11}"#,
    r#"{"type":"amplitudes","nrows":2,"ncols":2,"layers":2,"entangle_every":2,"circuit_seed":21,"method":{"type":"bmps","max_bond":8},"bitstrings":[[0,0,0,0]],"seed":21}"#,
    r#"{"type":"circuit","num_qubits":4,"gates":[{"g":"h","q":0},{"g":"cnot","a":0,"b":1},{"g":"cnot","a":1,"b":2},{"g":"cnot","a":2,"b":3}],"bitstrings":[[0,0,0,0],[1,1,1,1]],"backend":{"type":"mps","max_bond":8},"seed":7}"#,
];

/// Named gates, irrational angles, arbitrary 1q and 2q unitaries, a lattice.
fn lattice_circuit() -> Circuit {
    let mut c = Circuit::with_lattice(2, 2);
    c.push_one(0, Gate1::H).unwrap();
    c.push_one(1, Gate1::Rz(0.123_456_789_012_345_7)).unwrap();
    c.push_one(2, Gate1::Ry(-2.5)).unwrap();
    c.push_one(3, Gate1::Unitary(Gate1::S.matrix())).unwrap();
    c.push_two(0, 1, Gate2::Cnot).unwrap();
    c.push_two(3, 2, Gate2::Cz).unwrap();
    c.push_two(1, 3, Gate2::Unitary(Gate2::Swap.matrix())).unwrap();
    c
}

/// One circuit job per gate tag, on a three-qubit chain.
fn one_gate_jobs() -> Vec<JobSpec> {
    let ones = [
        Gate1::H,
        Gate1::X,
        Gate1::Y,
        Gate1::Z,
        Gate1::S,
        Gate1::T,
        Gate1::Rx(0.1 + 0.2),
        Gate1::Ry(-1e-300),
        Gate1::Rz(std::f64::consts::PI),
        Gate1::Unitary(Gate1::T.matrix()),
    ];
    let twos = [
        Gate2::Cnot,
        Gate2::Cz,
        Gate2::Swap,
        Gate2::Unitary(Matrix::from_diag(&[
            c64(1.0, 0.0),
            c64(0.0, 1.0),
            c64(-1.0, 0.0),
            c64(0.6, 0.8),
        ])),
    ];
    let mut jobs = Vec::new();
    for gate in ones {
        let mut c = Circuit::new(3);
        c.push_one(2, gate).unwrap();
        jobs.push(JobSpec::Circuit(CircuitJob::new(c, vec![vec![0, 0, 1]])));
    }
    for gate in twos {
        let mut c = Circuit::new(3);
        c.push_two(2, 0, gate).unwrap();
        jobs.push(JobSpec::Circuit(CircuitJob::new(c, vec![vec![1, 0, 1], vec![0, 0, 0]])));
    }
    jobs
}

fn corpus() -> Vec<JobSpec> {
    let mut specs: Vec<JobSpec> = LINES.iter().map(|line| parse(line)).collect();
    // The specs of the `spec.rs` unit tests.
    specs.push(JobSpec::Ite(IteJob { seed: 123, ..IteJob::new(3, 2, 2) }));
    specs.push(JobSpec::Ite(IteJob::new(3, 3, 2)));
    specs.push(JobSpec::Vqe(VqeJob {
        optimizer: Optimizer::Spsa { a0: 0.3, c0: 0.2, iterations: 50 },
        ..VqeJob::new(2, 3, VqeBackend::Peps { bond: 2, contraction_bond: 4 })
    }));
    specs.push(JobSpec::Amplitudes(AmplitudeJob {
        bitstrings: vec![vec![0, 1, 0, 1], vec![1, 1, 0, 0]],
        method: ContractionMethod::ibmps(16),
        ..AmplitudeJob::new(2, 2, ContractionMethod::Exact)
    }));
    specs.push(JobSpec::Amplitudes(AmplitudeJob::new(3, 3, ContractionMethod::bmps(8))));
    specs.push(JobSpec::Amplitudes(AmplitudeJob {
        circuit_seed: 20,
        ..AmplitudeJob::new(3, 3, ContractionMethod::bmps(8))
    }));
    for backend in [
        BackendChoice::Auto,
        BackendChoice::Fixed(Backend::Statevector),
        BackendChoice::Fixed(Backend::Mps { max_bond: 32 }),
        BackendChoice::Fixed(Backend::Peps {
            evolution_bond: 4,
            method: ContractionMethod::bmps(16),
        }),
    ] {
        specs.push(JobSpec::Circuit(CircuitJob {
            backend,
            seed: 99,
            ..CircuitJob::new(lattice_circuit(), vec![vec![0, 1, 0, 1], vec![1, 0, 0, 0]])
        }));
    }
    let mut real = Circuit::new(2);
    real.push_one(0, Gate1::Unitary(Gate1::H.matrix())).unwrap();
    real.push_two(0, 1, Gate2::Unitary(Gate2::Cnot.matrix())).unwrap();
    specs.push(JobSpec::Circuit(CircuitJob::new(real, vec![vec![0, 0]])));
    // One spec per variant of every enum the wire carries.
    specs.push(JobSpec::Vqe(VqeJob::new(2, 2, VqeBackend::StateVector)));
    specs.push(JobSpec::Vqe(VqeJob {
        jz: -0.0,
        hx: 0.1 + 0.2,
        layers: 3,
        optimizer: Optimizer::NelderMead { scale: 1e-7, max_iterations: 9 },
        seed: 1 << 53,
        ..VqeJob::new(4, 1, VqeBackend::Peps { bond: 3, contraction_bond: 9 })
    }));
    specs.push(JobSpec::Vqe(VqeJob {
        optimizer: Optimizer::Spsa { a0: 1.5, c0: -2.25e-9, iterations: 1 },
        ..VqeJob::new(1, 5, VqeBackend::StateVector)
    }));
    for method in [
        ContractionMethod::Exact,
        ContractionMethod::bmps(1),
        ContractionMethod::Ibmps { max_bond: 5, n_iter: 0, oversample: 0 },
    ] {
        specs.push(JobSpec::Amplitudes(AmplitudeJob {
            layers: 3,
            entangle_every: 1,
            circuit_seed: 0,
            evolution_bond: 7,
            seed: 9_007_199_254_740_991,
            ..AmplitudeJob::new(1, 3, method)
        }));
    }
    for method in [
        ContractionMethod::Exact,
        ContractionMethod::Ibmps { max_bond: 6, n_iter: 3, oversample: 1 },
    ] {
        specs.push(JobSpec::Circuit(CircuitJob {
            backend: BackendChoice::Fixed(Backend::Peps { evolution_bond: 2, method }),
            ..CircuitJob::new(lattice_circuit(), vec![vec![1, 1, 1, 1]])
        }));
    }
    specs.push(JobSpec::Ite(IteJob {
        jz: 0.5,
        hx: -1e-12,
        tau: 1e-3,
        steps: 1,
        evolution_bond: 5,
        contraction_bond: 1,
        measure_every: 1,
        seed: 0,
        ..IteJob::new(8, 8, 5)
    }));
    specs.extend(one_gate_jobs());
    specs
}

#[test]
fn spec_corpus_wire_bytes_and_signatures_are_pinned() {
    let mut text = String::new();
    for spec in corpus() {
        spec.validate().expect("corpus spec is valid");
        let pretty = spec.to_json().pretty();
        let parsed = JsonValue::parse(&pretty).expect("emitted JSON parses");
        assert_eq!(JobSpec::from_json(&parsed).expect("emitted JSON is a valid job"), spec);
        text.push_str(&pretty);
        text.push_str(&spec.signature());
        text.push('\n');
    }
    // `--nocapture` shows the corpus, to diff it against another build.
    println!("{text}");
    assert_eq!(
        fnv1a(text.as_bytes()),
        12_675_256_968_867_782_383,
        "the spec wire bytes or signatures changed"
    );
}

/// One line per message, as `serve_stdio` writes them.
fn compact(v: &JsonValue) -> String {
    v.pretty().lines().map(str::trim_start).collect::<Vec<_>>().join("")
}

#[test]
fn job_result_wire_bytes_are_pinned() {
    let results = [
        JobResult::Ite(IteOutput {
            energies: vec![(2, -1.25), (4, -1.234_567_890_123_456_7)],
            final_energy: -1.234_567_890_123_456_7,
            max_bond: 2,
        }),
        JobResult::Vqe(VqeOutput {
            best_energy: -3.5,
            energy_history: vec![-1.0, -2.5, -3.5],
            best_params: vec![0.1 + 0.2, -0.0, 2.5e-7],
            evaluations: 17,
        }),
        JobResult::Amplitudes(AmplitudeOutput {
            amplitudes: vec![c64(0.5, -0.25), c64(-0.0, 1e-17), c64(f64::NAN, 3.0)],
            max_bond: 4,
        }),
        JobResult::Circuit(CircuitOutput {
            amplitudes: vec![c64(std::f64::consts::FRAC_1_SQRT_2, 0.0)],
            backend: "mps".to_string(),
            max_bond: 8,
            gates_submitted: 12,
            gates_executed: 9,
        }),
    ];
    let want = [
        r#"{"type": "ite","energies": [[2.0,-1.25],[4.0,-1.2345678901234567]],"final_energy": -1.2345678901234567,"max_bond": 2.0}"#,
        r#"{"type": "vqe","best_energy": -3.5,"energy_history": [-1.0,-2.5,-3.5],"best_params": [0.30000000000000004,-0.0,0.00000025],"evaluations": 17.0}"#,
        r#"{"type": "amplitudes","amplitudes": [[0.5,-0.25],[-0.0,0.00000000000000001],[null,3.0]],"max_bond": 4.0}"#,
        r#"{"type": "circuit","amplitudes": [[0.7071067811865476,0.0]],"backend": "mps","max_bond": 8.0,"gates_submitted": 12.0,"gates_executed": 9.0}"#,
    ];
    let mut pretty = String::new();
    for (result, want) in results.iter().zip(want) {
        let v = result.to_json();
        pretty.push_str(&v.pretty());
        assert_eq!(compact(&v), want);
    }
    assert_eq!(
        fnv1a(pretty.as_bytes()),
        4_460_412_296_685_949_484,
        "the result wire bytes changed"
    );
}

#[test]
fn absent_keys_take_the_wire_defaults_not_the_constructor_defaults() {
    let ite = parse(
        r#"{"type":"ite","nrows":2,"ncols":3,"steps":4,"evolution_bond":2,"contraction_bond":5}"#,
    );
    let wire_ite = IteJob {
        nrows: 2,
        ncols: 3,
        jz: -1.0,
        hx: -2.0,
        tau: 0.05,
        steps: 4,
        evolution_bond: 2,
        contraction_bond: 5,
        measure_every: 1,
        seed: 0,
    };
    assert_eq!(ite, JobSpec::Ite(wire_ite));
    let vqe = parse(
        r#"{"type":"vqe","nrows":2,"ncols":2,"backend":{"type":"statevector"},"optimizer":{"type":"nelder_mead","max_iterations":8}}"#,
    );
    let wire_vqe = VqeJob {
        nrows: 2,
        ncols: 2,
        jz: -1.0,
        hx: -3.5,
        layers: 1,
        backend: VqeBackend::StateVector,
        optimizer: Optimizer::NelderMead { scale: 0.4, max_iterations: 8 },
        seed: 0,
    };
    assert_eq!(vqe, JobSpec::Vqe(wire_vqe.clone()));
    let spsa = parse(
        r#"{"type":"vqe","nrows":2,"ncols":2,"backend":{"type":"peps","bond":2,"contraction_bond":4},"optimizer":{"type":"spsa","iterations":5}}"#,
    );
    assert_eq!(
        spsa,
        JobSpec::Vqe(VqeJob {
            backend: VqeBackend::Peps { bond: 2, contraction_bond: 4 },
            optimizer: Optimizer::Spsa { a0: 0.3, c0: 0.2, iterations: 5 },
            ..wire_vqe
        })
    );
    let amp = parse(
        r#"{"type":"amplitudes","nrows":2,"ncols":2,"method":{"type":"ibmps","max_bond":8},"bitstrings":[[0,1,1,0]]}"#,
    );
    let wire_amp = AmplitudeJob {
        nrows: 2,
        ncols: 2,
        layers: 8,
        entangle_every: 4,
        circuit_seed: 0,
        evolution_bond: 1 << 16,
        method: ContractionMethod::Ibmps { max_bond: 8, n_iter: 2, oversample: 10 },
        bitstrings: vec![vec![0, 1, 1, 0]],
        seed: 0,
    };
    assert_eq!(amp, JobSpec::Amplitudes(wire_amp));
    let circuit = parse(r#"{"type":"circuit","num_qubits":2,"gates":[],"bitstrings":[[0,1]]}"#);
    let wire_circuit = CircuitJob {
        circuit: Circuit::new(2),
        bitstrings: vec![vec![0, 1]],
        backend: BackendChoice::Auto,
        seed: 17,
    };
    assert_eq!(circuit, JobSpec::Circuit(wire_circuit.clone()));
    let peps = parse(
        r#"{"type":"circuit","num_qubits":2,"gates":[],"bitstrings":[[0,1]],"backend":{"type":"peps","evolution_bond":4}}"#,
    );
    assert_eq!(
        peps,
        JobSpec::Circuit(CircuitJob {
            backend: BackendChoice::Fixed(Backend::Peps {
                evolution_bond: 4,
                method: ContractionMethod::bmps(64),
            }),
            ..wire_circuit
        })
    );

    // The constructors keep their own defaults; `serve_batch` relies on
    // `IteJob::new`'s `measure_every = 5`.
    let new_ite = IteJob::new(2, 3, 2);
    assert_eq!((new_ite.jz, new_ite.hx, new_ite.tau), (-1.0, -2.0, 0.05));
    assert_eq!((new_ite.steps, new_ite.contraction_bond), (40, 4));
    assert_eq!((new_ite.measure_every, new_ite.seed), (5, 7));
    let new_vqe = VqeJob::new(2, 2, VqeBackend::StateVector);
    assert_eq!((new_vqe.jz, new_vqe.hx, new_vqe.layers, new_vqe.seed), (-1.0, -3.5, 1, 11));
    assert_eq!(new_vqe.optimizer, Optimizer::NelderMead { scale: 0.4, max_iterations: 60 });
    let new_amp = AmplitudeJob::new(2, 2, ContractionMethod::Exact);
    assert_eq!((new_amp.layers, new_amp.entangle_every, new_amp.evolution_bond), (8, 4, 1 << 16));
    assert_eq!((new_amp.circuit_seed, new_amp.seed), (21, 21));
    assert_eq!(new_amp.bitstrings, vec![vec![0; 4]]);
    let new_circuit = CircuitJob::new(Circuit::new(2), vec![vec![0, 1]]);
    assert_eq!((new_circuit.backend, new_circuit.seed), (BackendChoice::Auto, 17));
}

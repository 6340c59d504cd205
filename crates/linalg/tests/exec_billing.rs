//! Concurrency billing for the task-graph GEMM: packed-panel sharing, exact
//! MAC accounting, and bit-identical results under every schedule.
//!
//! The shared-panel lowering packs each A panel once per `(row-block,
//! depth-block)` and each B panel once per `(col-block, depth-block)`; GEMM
//! tile tasks *share* those panels through dependency edges instead of
//! re-packing privately. This file pins that with the process-wide pack-call
//! counters: the counts equal the block-grid formula and do not change with
//! the thread count. It also pins that the global `WorkMeter` is billed
//! exactly `m * n * k` complex or real MACs per product under
//! concurrency, that outputs are bit-identical across 1/2/4/8 threads, and
//! — with a counting global allocator — that adding threads does not balloon
//! allocations (panels are shared, not duplicated per thread).

use koala_linalg::gemm::matmul;
use koala_linalg::pack::{pack_counters, reset_pack_counters};
use koala_linalg::{Matrix, WorkMeter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Pack counters, MAC counters, the allocator ledger, and the executor pool
/// are process-wide; serialize the tests in this binary.
static SERIAL: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

// Mirrors of the (private) cache-blocking constants in `gemm.rs`. If the
// blocking changes, the expected pack-call formula below changes with it —
// update both together.
const KC: usize = 256;
const NC: usize = 512;
const MC: usize = 192;
const KC_REAL: usize = 256;
const NC_REAL: usize = 512;
const MC_REAL: usize = 256;

fn blocks(total: usize, step: usize) -> u64 {
    total.div_ceil(step) as u64
}

/// Shared-panel packing on the task-graph path: each panel packed exactly
/// once per cache block, at 2, 4 and 8 threads alike. (One thread takes the
/// serial per-tile path, which packs privately; that path is covered by the
/// bit-identity test below instead.)
#[test]
fn shared_panels_pack_once_per_block_at_any_thread_count() {
    let _guard = SERIAL.lock().unwrap();
    let (m, n, k) = (256usize, 640, 320);
    let mut rng = StdRng::seed_from_u64(41);
    let a = Matrix::random(m, k, &mut rng);
    let b = Matrix::random(k, n, &mut rng);
    let expect_a = blocks(m, MC) * blocks(k, KC); // 2 * 2
    let expect_b = blocks(n, NC) * blocks(k, KC); // 2 * 2

    for threads in [2usize, 4, 8] {
        koala_exec::set_threads(threads);
        reset_pack_counters();
        let before = WorkMeter::global().ledger();
        let c = matmul(&a, &b);
        let work = WorkMeter::global().ledger().minus(&before);
        assert_eq!(c.shape(), (m, n));
        let (pa, pb) = pack_counters();
        assert_eq!(pa, expect_a, "pack-A calls at {threads} threads");
        assert_eq!(pb, expect_b, "pack-B calls at {threads} threads");
        assert_eq!(
            work.complex_macs,
            (m * n * k) as u64,
            "complex MACs at {threads} threads must be exactly m*n*k"
        );
        assert_eq!(work.real_macs, 0, "complex product must not bill real MACs");
    }
    koala_exec::set_threads(1);
}

/// The real-kernel variant of the same property: hinted-real operands take
/// the real blocking, pack once per block, and bill real MACs exactly.
#[test]
fn shared_real_panels_pack_once_per_block() {
    let _guard = SERIAL.lock().unwrap();
    let (m, n, k) = (320usize, 640, 320);
    let mut rng = StdRng::seed_from_u64(42);
    let a = Matrix::random_real(m, k, &mut rng);
    let b = Matrix::random_real(k, n, &mut rng);
    let expect_a = blocks(m, MC_REAL) * blocks(k, KC_REAL);
    let expect_b = blocks(n, NC_REAL) * blocks(k, KC_REAL);

    for threads in [2usize, 4, 8] {
        koala_exec::set_threads(threads);
        reset_pack_counters();
        let before = WorkMeter::global().ledger();
        let c = matmul(&a, &b);
        let work = WorkMeter::global().ledger().minus(&before);
        assert!(c.is_real(), "real product must keep the realness hint");
        let (pa, pb) = pack_counters();
        assert_eq!(pa, expect_a, "pack-A calls at {threads} threads");
        assert_eq!(pb, expect_b, "pack-B calls at {threads} threads");
        assert_eq!(work.real_macs, (m * n * k) as u64);
        assert_eq!(work.complex_macs, 0, "real product must not bill complex MACs");
    }
    koala_exec::set_threads(1);
}

/// Bit-identical output across 1/2/4/8 threads — the 1-thread serial path
/// (private per-tile packing) and the shared-panel task graph must produce
/// the same bytes, because both accumulate each tile's depth blocks in the
/// same order.
#[test]
fn gemm_output_is_bit_identical_across_thread_counts() {
    let _guard = SERIAL.lock().unwrap();
    let (m, n, k) = (256usize, 640, 320);
    let mut rng = StdRng::seed_from_u64(43);
    let a = Matrix::random(m, k, &mut rng);
    let b = Matrix::random(k, n, &mut rng);

    koala_exec::set_threads(1);
    let reference = matmul(&a, &b);
    for threads in [2usize, 4, 8] {
        koala_exec::set_threads(threads);
        let c = matmul(&a, &b);
        for (i, (x, y)) in c.data().iter().zip(reference.data().iter()).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "element {i} differs at {threads} threads: {x:?} vs {y:?}"
            );
        }
    }
    koala_exec::set_threads(1);
}

/// Scoped work attribution: a [`WorkMeter::scope`] sees exactly the MACs
/// and GEMM interface bytes of the products inside it — including depth
/// blocks executed by pool workers, because `TaskGraph::add` captures the
/// submitting thread's scope — and nothing from work outside the scope.
#[test]
fn scoped_meter_bills_exactly_and_travels_with_tasks() {
    let _guard = SERIAL.lock().unwrap();
    let (m, n, k) = (256usize, 640, 320);
    let mut rng = StdRng::seed_from_u64(45);
    let a = Matrix::random(m, k, &mut rng);
    let b = Matrix::random(k, n, &mut rng);

    for threads in [1usize, 4] {
        koala_exec::set_threads(threads);
        let meter = WorkMeter::new();
        let _outside = matmul(&a, &b);
        assert!(
            meter.ledger().is_zero(),
            "unscoped work must not bill a private meter ({threads} threads)"
        );
        let _inside = meter.scope(|| matmul(&a, &b));
        let ledger = meter.ledger();
        assert_eq!(
            ledger.complex_macs,
            (m * n * k) as u64,
            "scoped complex MACs at {threads} threads must be exactly m*n*k"
        );
        assert_eq!(ledger.real_macs, 0, "complex product must not bill real MACs");
        assert_eq!(
            ledger.bytes,
            ((m * k + k * n + m * n) * 16) as u64,
            "scoped bytes at {threads} threads must be the GEMM interface traffic"
        );
    }
    koala_exec::set_threads(1);
}

/// Panel sharing keeps the allocation footprint flat as threads grow: the
/// pack tasks (and their buffers) are a function of the block grid, not of
/// the schedule, so running the same product on 8 threads must allocate
/// less than twice the 2-thread bytes (the slack absorbs executor queue
/// noise, not per-thread panel copies).
#[test]
fn thread_count_does_not_balloon_allocations() {
    let _guard = SERIAL.lock().unwrap();
    let (m, n, k) = (256usize, 640, 320);
    let mut rng = StdRng::seed_from_u64(44);
    let a = Matrix::random(m, k, &mut rng);
    let b = Matrix::random(k, n, &mut rng);

    let bytes_at = |threads: usize| {
        koala_exec::set_threads(threads);
        // Warm the pool (worker stacks, queues) outside the measurement.
        let _ = matmul(&a, &b);
        let before = ALLOCATED.load(Ordering::Relaxed);
        let c = matmul(&a, &b);
        let after = ALLOCATED.load(Ordering::Relaxed);
        drop(c);
        after - before
    };

    let at2 = bytes_at(2);
    let at8 = bytes_at(8);
    assert!(
        at8 < 2 * at2,
        "8-thread GEMM allocated {at8} bytes vs {at2} at 2 threads — panels are not shared"
    );
    koala_exec::set_threads(1);
}

//! Peak-memory accounting for the explicit einsumsvd split.
//!
//! A boundary contraction runs several zip-up steps at once, so what one
//! step holds at its peak is paid once per step in flight. A counting
//! global allocator tracks the live heap bytes, and this test pins the
//! high-water mark of `EinsumSvd::exact` on the shape of a `contract_bmps`
//! step (6x6 network, r = m = 7: theta is 49 x 343) in units of one theta
//! buffer. Copying theta on its way into the SVD (a matricizing permute, or
//! an SVD that keeps its input alive next to its gathered columns) shows up
//! as at least one more theta.

use koala_tensor::{svd_split, EinsumSvd, Tensor, Truncation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

/// Heap bytes currently allocated, and the most ever allocated at once
/// since [`peak_bytes_of`] last reset it.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The peak heap bytes `f` holds beyond what was live when it started,
/// including its result.
fn peak_bytes_of<T>(f: impl FnOnce() -> T) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    drop(out);
    peak
}

/// The zip-up step of `koala-mps` (Alg. 3), and its theta alone.
static ZIP_STEP: EinsumSvd = EinsumSvd::new("ldxy,xpt,ypqr->ldk,ktqr");
const THETA: &str = "ldxy,xpt,ypqr->ldtqr";

/// Peak of the explicit split, in theta buffers, recorded on x86-64 (4.16)
/// when theta started being unfolded in place and the SVD started dropping
/// its input, plus slack for the packing buffers of other GEMM blockings.
/// The peak is the theta einsum itself (its intermediate, output and packed
/// operands), on both routes of the truncated SVD. With every triplet kept
/// (the full Jacobi SVD) the SVD phase holds 3.9: `Q`, the final GEMM's
/// packed operand and product, and the Jacobi work arrays; contracting
/// theta and then taking `svd_split` of it, as the split used to, holds
/// 4.9 there: theta stays alive under its matricized copy, and that copy
/// under the gathered columns. Kept to the bond (the leading route, what
/// `contract_bmps` runs) the copying variant too stays under the einsum's
/// own peak (4.16 both), so only the full SVD can show the copies.
const RECORDED_THETAS: f64 = 4.25;

#[test]
fn explicit_split_holds_at_most_the_recorded_theta_buffers() {
    let mut rng = StdRng::seed_from_u64(31);
    let bond = 7;
    let boundary = Tensor::random(&[bond, bond, bond, bond], &mut rng);
    let site = Tensor::random(&[bond, bond, bond], &mut rng);
    let row = Tensor::random(&[bond, bond, bond, bond], &mut rng);
    let operands = [&boundary, &site, &row];
    let theta_bytes = (bond.pow(5) * std::mem::size_of::<koala_linalg::C64>()) as f64;

    // Kept to the bond (leading route), then every triplet kept (Jacobi).
    for (kept, truncation) in
        [(7, Truncation::rank_and_tol(bond, 1e-14)), (49, Truncation::rank_and_tol(49, 1e-14))]
    {
        // Warm both plans so planning is not billed to either measurement.
        let warm = ZIP_STEP.exact(&operands, truncation).unwrap();
        assert_eq!((warm.u.shape(), warm.vh.shape()), (&[7, 7, kept][..], &[kept, 7, 7, 7][..]));
        let theta = koala_tensor::einsum(THETA, &operands).unwrap();
        assert_eq!(theta.shape(), &[7, 7, 7, 7, 7]);

        let split = peak_bytes_of(|| ZIP_STEP.exact(&operands, truncation).unwrap());
        let copied = peak_bytes_of(|| {
            let theta = koala_tensor::einsum(THETA, &operands).unwrap();
            svd_split(&theta, &[0, 1], truncation).unwrap()
        });
        let (split, copied) = (split as f64 / theta_bytes, copied as f64 / theta_bytes);
        println!("kept {kept}: exact split {split:.2} thetas, einsum + svd_split {copied:.2}");
        assert!(
            split <= RECORDED_THETAS,
            "kept {kept}: the explicit split peaked at {split:.2} theta buffers (recorded \
             {RECORDED_THETAS})"
        );
        if kept == 49 {
            // The bound catches the copies the split no longer makes.
            assert!(copied > RECORDED_THETAS, "einsum + svd_split peaked at only {copied:.2}");
        }
    }
}

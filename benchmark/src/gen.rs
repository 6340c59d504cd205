//! Seeded input generation and output checksums.
//!
//! `--seed` is the only source of randomness: every workload draws from its
//! own splitmix64 stream keyed by (seed, workload name), so adding or
//! reordering workloads never changes another workload's inputs. The
//! libraries only ever see the generated inputs.

use koala_linalg::C64;
use koala_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

/// Incremental FNV-1a checksum over the exact bit patterns of results, so
/// "bit-equal" is what is compared.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn c64(&mut self, z: C64) {
        self.f64(z.re);
        self.f64(z.im);
    }

    pub fn tensor(&mut self, t: &Tensor) {
        for &d in t.shape() {
            self.u64(d as u64);
        }
        for &z in t.data() {
            self.c64(z);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// splitmix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// The input stream of one workload under one `--seed`.
    pub fn for_workload(seed: u64, workload: &str) -> Self {
        let mut s = SplitMix(seed ^ fnv1a(workload.as_bytes()));
        s.next_u64(); // decorrelate nearby seeds before first use
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A library RNG seeded from the next word of this stream.
    pub fn rng(&mut self) -> StdRng {
        StdRng::seed_from_u64(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_depend_on_seed_and_workload() {
        let a: Vec<u64> = {
            let mut s = SplitMix::for_workload(1, "evolve_tebd");
            (0..4).map(|_| s.next_u64()).collect()
        };
        let a2: Vec<u64> = {
            let mut s = SplitMix::for_workload(1, "evolve_tebd");
            (0..4).map(|_| s.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut s = SplitMix::for_workload(2, "evolve_tebd");
            (0..4).map(|_| s.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut s = SplitMix::for_workload(1, "ite_step");
            (0..4).map(|_| s.next_u64()).collect()
        };
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fnv_distinguishes_bit_patterns() {
        let mut x = Fnv::new();
        x.f64(0.0);
        let mut y = Fnv::new();
        y.f64(-0.0);
        assert_ne!(x.finish(), y.finish());
    }
}

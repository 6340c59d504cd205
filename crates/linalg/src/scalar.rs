//! Complex double-precision scalar type used throughout the stack.
//!
//! The whole library works over `C64` (a complex number with `f64` components).
//! Real-valued physics (e.g. the transverse-field Ising Hamiltonian) simply has
//! vanishing imaginary parts; quantum gates and random-circuit states are
//! genuinely complex.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Convenience constructor: `c64(re, im)`.
#[inline(always)]
pub fn c64(re: f64, im: f64) -> C64 {
    C64 { re, im }
}

impl C64 {
    /// The additive identity.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Create a new complex number.
    #[inline(always)]
    pub fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// Create a purely real complex number.
    #[inline(always)]
    pub fn from_real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        C64 { re: self.re, im: -self.im }
    }

    /// Squared modulus `|z|^2`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline(always)]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase) of the complex number in radians.
    #[inline(always)]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`. A finite, non-zero `z` whose `|z|^2`
    /// is not a normal `f64` is inverted as `s / (s z)`, with a power of two
    /// `s` that brings `s z` near 1; any other `z` keeps `conj(z) / |z|^2`.
    #[inline(always)]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        if !d.is_normal() && self.re.is_finite() && self.im.is_finite() && self != C64::ZERO {
            return self.inv_rescaled();
        }
        C64 { re: self.re / d, im: -self.im / d }
    }

    #[cold]
    fn inv_rescaled(self) -> Self {
        let e = -(self.re.abs().max(self.im.abs()).log2().floor() as i32);
        // Two exact halves, so that neither factor leaves f64's range.
        let s = |z: C64| z.scale(2f64.powi(e / 2)).scale(2f64.powi(e - e / 2));
        s(s(self).inv())
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        if r == 0.0 {
            return C64::ZERO;
        }
        let re = ((r + self.re) * 0.5).max(0.0).sqrt();
        let im_mag = ((r - self.re) * 0.5).max(0.0).sqrt();
        C64 { re, im: if self.im >= 0.0 { im_mag } else { -im_mag } }
    }

    /// Complex exponential `e^z`.
    pub fn exp(self) -> Self {
        let m = self.re.exp();
        C64 { re: m * self.im.cos(), im: m * self.im.sin() }
    }

    /// `e^{i theta}` for a real angle.
    #[inline(always)]
    pub fn cis(theta: f64) -> Self {
        C64 { re: theta.cos(), im: theta.sin() }
    }

    /// Scale by a real factor.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        C64 { re: self.re * s, im: self.im * s }
    }

    /// Fused multiply-add: `self + a * b`, written out to let the optimiser
    /// keep everything in registers in the GEMM inner loop.
    #[inline(always)]
    pub fn mul_add(self, a: C64, b: C64) -> Self {
        C64 { re: self.re + a.re * b.re - a.im * b.im, im: self.im + a.re * b.im + a.im * b.re }
    }

    /// True if both components are finite.
    #[inline(always)]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Approximate equality within an absolute tolerance on both components.
    #[inline]
    pub fn approx_eq(self, other: C64, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }

    /// Raise to a real power through polar form.
    pub fn powf(self, p: f64) -> Self {
        let r = self.abs();
        if r == 0.0 {
            return C64::ZERO;
        }
        let theta = self.arg();
        C64::cis(theta * p).scale(r.powf(p))
    }
}

impl fmt::Debug for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

impl From<f64> for C64 {
    #[inline(always)]
    fn from(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }
}

impl From<(f64, f64)> for C64 {
    #[inline(always)]
    fn from((re, im): (f64, f64)) -> Self {
        C64 { re, im }
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline(always)]
    fn add(self, rhs: C64) -> C64 {
        C64 { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline(always)]
    fn sub(self, rhs: C64) -> C64 {
        C64 { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline(always)]
    fn mul(self, rhs: C64) -> C64 {
        C64 { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

impl Div for C64 {
    type Output = C64;
    #[inline(always)]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w == z * w^-1 by definition
    fn div(self, rhs: C64) -> C64 {
        self * rhs.inv()
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline(always)]
    fn neg(self) -> C64 {
        C64 { re: -self.re, im: -self.im }
    }
}

impl AddAssign for C64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: C64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for C64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: C64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for C64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: C64) {
        *self = *self * rhs;
    }
}

impl DivAssign for C64 {
    #[inline(always)]
    fn div_assign(&mut self, rhs: C64) {
        *self = *self / rhs;
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline(always)]
    fn mul(self, rhs: f64) -> C64 {
        self.scale(rhs)
    }
}

impl Mul<C64> for f64 {
    type Output = C64;
    #[inline(always)]
    fn mul(self, rhs: C64) -> C64 {
        rhs.scale(self)
    }
}

impl Div<f64> for C64 {
    type Output = C64;
    #[inline(always)]
    fn div(self, rhs: f64) -> C64 {
        self.scale(1.0 / rhs)
    }
}

impl Add<f64> for C64 {
    type Output = C64;
    #[inline(always)]
    fn add(self, rhs: f64) -> C64 {
        C64 { re: self.re + rhs, im: self.im }
    }
}

impl Sub<f64> for C64 {
    type Output = C64;
    #[inline(always)]
    fn sub(self, rhs: f64) -> C64 {
        C64 { re: self.re - rhs, im: self.im }
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a C64> for C64 {
    fn sum<I: Iterator<Item = &'a C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |a, b| a + *b)
    }
}

/// The element type of one instantiation of the dense factorizations.
///
/// `svd`, `qr` and `eigh` are each written once over `T: Scalar` and
/// instantiated twice: at `f64` for inputs carrying the structural realness
/// hint (no imaginary lane is ever touched) and at [`C64`] for everything
/// else. Every method is the operation the algorithms need in the one form
/// both scalars share, so the only place the instantiations differ in kind
/// is [`Scalar::unit_phase_conj`].
pub(crate) trait Scalar:
    Copy + Add<Output = Self> + Mul<Output = Self> + Neg<Output = Self> + AddAssign + SubAssign + Sum
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Whether a matrix of `Self` is real by construction, i.e. whether
    /// factors assembled from it carry the realness hint.
    const IS_REAL: bool;
    /// Embed a real number.
    fn from_real(x: f64) -> Self;
    /// Read an entry of a [`Matrix`](crate::matrix::Matrix). At `f64` this
    /// takes the real part, which loses nothing exactly when the matrix
    /// carries the realness hint.
    fn from_c64(z: C64) -> Self;
    /// Write an entry of a [`Matrix`](crate::matrix::Matrix).
    fn to_c64(self) -> C64;
    /// Real part.
    fn re(self) -> f64;
    /// Complex conjugate (the identity at `f64`).
    fn conj(self) -> Self;
    /// Squared modulus.
    fn norm_sqr(self) -> f64;
    /// Modulus.
    fn abs(self) -> f64;
    /// Scale by a real factor.
    fn scale(self, s: f64) -> Self;
    /// The unit phase `e^{-i arg z}` that rotates `z` onto the non-negative
    /// real axis, given the modulus `r = |z| > 0` the caller already has:
    /// `conj(z) / r` at `C64` (no `atan2`, `sin` or `cos`), the sign of `z`
    /// at `f64`.
    fn unit_phase_conj(self, r: f64) -> Self;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const IS_REAL: bool = true;
    #[inline(always)]
    fn from_real(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn from_c64(z: C64) -> Self {
        z.re
    }
    #[inline(always)]
    fn to_c64(self) -> C64 {
        C64::from_real(self)
    }
    #[inline(always)]
    fn re(self) -> f64 {
        self
    }
    #[inline(always)]
    fn conj(self) -> Self {
        self
    }
    #[inline(always)]
    fn norm_sqr(self) -> f64 {
        self * self
    }
    #[inline(always)]
    fn abs(self) -> f64 {
        f64::abs(self)
    }
    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        self * s
    }
    #[inline(always)]
    fn unit_phase_conj(self, _r: f64) -> Self {
        if self >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }
}

impl Scalar for C64 {
    const ZERO: Self = C64::ZERO;
    const ONE: Self = C64::ONE;
    const IS_REAL: bool = false;
    #[inline(always)]
    fn from_real(x: f64) -> Self {
        C64::from_real(x)
    }
    #[inline(always)]
    fn from_c64(z: C64) -> Self {
        z
    }
    #[inline(always)]
    fn to_c64(self) -> C64 {
        self
    }
    #[inline(always)]
    fn re(self) -> f64 {
        self.re
    }
    #[inline(always)]
    fn conj(self) -> Self {
        C64::conj(self)
    }
    #[inline(always)]
    fn norm_sqr(self) -> f64 {
        C64::norm_sqr(self)
    }
    #[inline(always)]
    fn abs(self) -> f64 {
        C64::abs(self)
    }
    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        C64::scale(self, s)
    }
    #[inline(always)]
    fn unit_phase_conj(self, r: f64) -> Self {
        C64 { re: self.re / r, im: -self.im / r }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn arithmetic_basics() {
        let a = c64(1.0, 2.0);
        let b = c64(-3.0, 0.5);
        assert!((a + b).approx_eq(c64(-2.0, 2.5), TOL));
        assert!((a - b).approx_eq(c64(4.0, 1.5), TOL));
        assert!((a * b).approx_eq(c64(-3.0 - 1.0, 0.5 - 6.0), TOL));
        assert!(((a / b) * b).approx_eq(a, TOL));
    }

    #[test]
    fn conjugate_and_modulus() {
        let a = c64(3.0, -4.0);
        assert_eq!(a.conj(), c64(3.0, 4.0));
        assert!((a.abs() - 5.0).abs() < TOL);
        assert!((a.norm_sqr() - 25.0).abs() < TOL);
        assert!((a * a.conj()).approx_eq(c64(25.0, 0.0), TOL));
    }

    #[test]
    fn inverse_and_division() {
        let a = c64(2.0, -1.0);
        assert!((a * a.inv()).approx_eq(C64::ONE, TOL));
        assert!((C64::ONE / a).approx_eq(a.inv(), TOL));
    }

    #[test]
    fn inverse_out_of_the_modulus_range() {
        // |w|^2 out of the normal range, 1/w inside it.
        for w in [c64(1.8e183, 0.0), c64(-6.3e245, 2e240), c64(0.0, -1e-170), c64(3e-300, 0.0)] {
            assert!((w * w.inv()).approx_eq(C64::ONE, TOL), "{w}");
        }
        // Inside the range the bits are those of `(re / d, -im / d)`.
        for i in -300..=300 {
            let w = c64(1.37 * 10f64.powi(i / 2), -0.61 * 10f64.powi(i - i / 2));
            let d = w.re * w.re + w.im * w.im;
            if d.is_normal() {
                let bits = |z: C64| (z.re.to_bits(), z.im.to_bits());
                assert_eq!(bits(w.inv()), bits(c64(w.re / d, -w.im / d)), "{w}");
            }
        }
    }

    #[test]
    fn sqrt_squares_back() {
        for &z in &[c64(4.0, 0.0), c64(0.0, 2.0), c64(-1.0, 0.0), c64(3.0, -7.0), C64::ZERO] {
            let s = z.sqrt();
            assert!((s * s).approx_eq(z, 1e-10), "sqrt({z}) = {s}");
        }
    }

    #[test]
    fn exp_and_cis() {
        let theta = 0.7;
        assert!(C64::cis(theta).approx_eq(c64(theta.cos(), theta.sin()), TOL));
        assert!((C64::I * std::f64::consts::PI).exp().approx_eq(c64(-1.0, 0.0), 1e-12));
        assert!(C64::ZERO.exp().approx_eq(C64::ONE, TOL));
    }

    #[test]
    fn mul_add_matches_expanded_form() {
        let acc = c64(0.5, -0.25);
        let a = c64(1.5, 2.0);
        let b = c64(-0.75, 0.3);
        assert!(acc.mul_add(a, b).approx_eq(acc + a * b, TOL));
    }

    #[test]
    fn real_scalar_mixing() {
        let a = c64(1.0, -2.0);
        assert!((a * 2.0).approx_eq(c64(2.0, -4.0), TOL));
        assert!((2.0 * a).approx_eq(c64(2.0, -4.0), TOL));
        assert!((a / 2.0).approx_eq(c64(0.5, -1.0), TOL));
        assert!((a + 1.0).approx_eq(c64(2.0, -2.0), TOL));
    }

    #[test]
    fn sum_over_iterator() {
        let v = [c64(1.0, 1.0), c64(2.0, -0.5), c64(-0.5, 0.25)];
        let s: C64 = v.iter().sum();
        assert!(s.approx_eq(c64(2.5, 0.75), TOL));
    }

    #[test]
    fn powf_matches_repeated_multiplication() {
        let z = c64(1.2, -0.7);
        assert!(z.powf(2.0).approx_eq(z * z, 1e-10));
        assert!(z.powf(0.5).approx_eq(z.sqrt(), 1e-10));
    }
}

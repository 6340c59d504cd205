//! Expectation values of local observables, with the intermediate caching
//! strategy of paper §IV-B (Figure 6).
//!
//! `<psi|H|psi>` with `H = sum_i H_i` is evaluated on one merged `<psi|psi>`
//! network, built once per measurement. A term **swaps in** only the one or
//! two merged sites it touches and the strip of rows it spans is closed
//! **exactly** between the environments on either side:
//!
//! * `H_i|psi>` is local and exact. A one-site operator acts on its site; a
//!   two-site matrix is operator-Schmidt decomposed into `sum_k A_k (x) B_k`
//!   ([`operator_schmidt`](crate::operators::operator_schmidt)), once per
//!   observable: later measurements reuse the factors. A neighbouring pair
//!   stacks the `chi` products on its shared bond (`r -> r * chi`; `chi = 1`
//!   for `ZZ`, `XX`, `YY`), a distant pair becomes `chi` product strips with
//!   two one-site-modified sites each. No state tensor is ever factorized or
//!   truncated.
//! * Every untouched site of a strip is borrowed from the merged network.
//! * The last row of a strip is contracted as `<top| row MPO |bottom>`
//!   ([`Mps::sandwich`]), so a one-row term makes no zip-up at all and a
//!   term spanning `k` rows makes `k - 1` (`k - 2` from the first row).
//!
//! Each environment sweep, and each strip from the environment above it,
//! is one call to the boundary builder of [`crate::contract`].
//!
//! With caching, the row environments (partial contractions from the top and
//! from the bottom) are computed once — two full contractions — and every term
//! only contracts the rows it touches. Without it, every term's strip is the
//! whole lattice. [`ContractionMethod`] therefore governs only the
//! environments and the inner rows of multi-row strips.
//!
//! # Independent contractions and their randomness
//!
//! The two environment sweeps, and after them the terms, are independent
//! contractions (paper Fig. 6): each runs as one task on the `koala_exec`
//! pool. The caller's random stream yields **one `u64` per independent
//! contraction** — top sweep, bottom sweep, then every term in term order
//! (and, without environments, the norm of [`expectation_and_norm`]) — all
//! drawn serially before anything runs, and each seeds the private
//! [`StdRng`] of its contraction (and, from it, the seeds of its zip-up
//! steps). Every task writes its own slot and the term values are summed in
//! term order, so the result is bit-identical at every thread count, and
//! what a call takes from the caller's stream depends only on `use_cache`
//! and the number of terms.

use crate::contract::{
    contract_each, contract_rows, row_as_mpo, row_as_mps, sites_as_mpo, sites_as_mps,
    ContractionMethod,
};
use crate::operators::{LocalTerm, Observable};
use crate::peps::{merge_site_pair, Peps, Site, AX_P, AX_R};
use koala_error::Result;
use koala_linalg::C64;
use koala_mps::{Mpo, Mps};
use koala_tensor::{tensordot, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// Options controlling the expectation-value computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpectationOptions {
    /// Contraction algorithm for the boundary sweeps.
    pub method: ContractionMethod,
    /// Reuse row environments across terms (paper §IV-B).
    pub use_cache: bool,
}

impl ExpectationOptions {
    /// IBMPS contraction with caching enabled — the recommended configuration.
    pub fn ibmps_cached(max_bond: usize) -> Self {
        ExpectationOptions { method: ContractionMethod::ibmps(max_bond), use_cache: true }
    }

    /// BMPS contraction with caching enabled.
    pub fn bmps_cached(max_bond: usize) -> Self {
        ExpectationOptions { method: ContractionMethod::bmps(max_bond), use_cache: true }
    }
}

/// Cached row environments of the two-layer `<psi|psi>` network.
#[derive(Debug, Clone)]
pub struct EnvCache {
    /// `top[r]` = boundary MPS after absorbing merged rows `0..r` (so `top[0]`
    /// is `None` and `top[r]` has physical dimensions equal to the down-pair
    /// bonds of row `r-1`).
    top: Vec<Option<Mps>>,
    /// `bottom[r]` = boundary MPS (built from below) after absorbing rows
    /// `r+1..nrows`; `bottom[nrows-1]` is `None`.
    bottom: Vec<Option<Mps>>,
}

impl EnvCache {
    /// Build the cache: one top-down and one bottom-up sweep over the merged
    /// network — the "two full two-layer PEPS contractions" of §IV-B, run as
    /// two tasks. Takes two `u64`s from `rng`, one seed per sweep (module
    /// docs, "Independent contractions and their randomness").
    pub fn build<R: Rng + ?Sized>(
        merged: &Peps,
        method: ContractionMethod,
        rng: &mut R,
    ) -> Result<Self> {
        let nrows = merged.nrows();
        let seeds = [rng.next_u64(), rng.next_u64()];
        // `envs[k]`: the boundary after absorbing the first `k` rows met from
        // this side. Seen from below a row is flipped upside down (up and
        // down axes swapped).
        let sweep = |from_below: bool| -> Result<Vec<Option<Mps>>> {
            if nrows == 1 {
                return Ok(vec![None]);
            }
            let row = |k: usize| if from_below { nrows - 1 - k } else { k };
            let as_mps = if from_below { flipped_row_as_mps } else { row_as_mps };
            let as_mpo = if from_below { flipped_row_as_mpo } else { row_as_mpo };
            let first = as_mps(merged, row(0))?;
            let row_mpo = |k: usize| as_mpo(merged, row(k + 1));
            let mut rng = StdRng::seed_from_u64(seeds[usize::from(from_below)]);
            let rest = contract_rows(&first, nrows - 2, row_mpo, method, &mut rng)?;
            Ok([None, Some(first)].into_iter().chain(rest.into_iter().map(Some)).collect())
        };
        let mut sweeps = contract_each(2, |i| sweep(i == 1))?;
        let (mut bottom, top) =
            (sweeps.pop().unwrap_or_default(), sweeps.pop().unwrap_or_default());
        bottom.reverse();
        Ok(EnvCache { top, bottom })
    }

    /// Environment above row `r` (None when `r == 0`).
    pub(crate) fn top(&self, r: usize) -> Option<&Mps> {
        self.top[r].as_ref()
    }

    /// Environment below row `r` (None when `r` is the last row).
    pub(crate) fn bottom(&self, r: usize) -> Option<&Mps> {
        self.bottom[r].as_ref()
    }
}

/// Row of a one-layer PEPS as an MPS seen from below (up index becomes the
/// open "physical" index).
fn flipped_row_as_mps(peps: &Peps, row: usize) -> Result<Mps> {
    let mut tensors = Vec::with_capacity(peps.ncols());
    for c in 0..peps.ncols() {
        let t = peps.tensor((row, c));
        // [1, u, l, 1, r] -> [l, u, r]
        let site = t.select(AX_P, 0)?.select(2, 0)?; // -> [u, l, r] after removing d
        let site = site.permute(&[1, 0, 2])?;
        tensors.push(site);
    }
    Mps::new(tensors)
}

/// Row of a one-layer PEPS as an MPO seen from below (up and down swapped).
fn flipped_row_as_mpo(peps: &Peps, row: usize) -> Result<Mpo> {
    let mut tensors = Vec::with_capacity(peps.ncols());
    for c in 0..peps.ncols() {
        let t = peps.tensor((row, c));
        // [1, u, l, d, r] -> [u, l, d, r] -> [l, d, u, r]
        let site = t.select(AX_P, 0)?.permute(&[1, 2, 0, 3])?;
        tensors.push(site);
    }
    Mpo::new(tensors)
}

/// Compute `<psi|H|psi>` (unnormalised). See [`expectation_normalized`] for the
/// Rayleigh quotient.
pub fn expectation<R: Rng + ?Sized>(
    peps: &Peps,
    observable: &Observable,
    options: ExpectationOptions,
    rng: &mut R,
) -> Result<C64> {
    observable.validate(peps)?;
    Network::build(peps, options, rng)?.value(observable, rng)
}

/// `(<psi|H|psi>, <psi|psi>)` from one merged network: the norm is the strip
/// that swaps nothing, closed between the same environments as the terms.
pub fn expectation_and_norm<R: Rng + ?Sized>(
    peps: &Peps,
    observable: &Observable,
    options: ExpectationOptions,
    rng: &mut R,
) -> Result<(C64, C64)> {
    observable.validate(peps)?;
    let network = Network::build(peps, options, rng)?;
    let value = network.value(observable, rng)?;
    Ok((value, network.norm(rng)?))
}

/// `<psi|H|psi> / <psi|psi>`, the Rayleigh quotient used by ITE and VQE.
pub fn expectation_normalized<R: Rng + ?Sized>(
    peps: &Peps,
    observable: &Observable,
    options: ExpectationOptions,
    rng: &mut R,
) -> Result<C64> {
    let (value, norm) = expectation_and_norm(peps, observable, options, rng)?;
    Ok(value / norm)
}

/// A merged site that replaces the one of `<psi|psi>` at the same position.
type Swap = (Site, Tensor);

/// The merged `<psi|psi>` network of one measurement, with its row
/// environments when caching is on.
struct Network<'a> {
    peps: &'a Peps,
    merged: Peps,
    cache: Option<EnvCache>,
    method: ContractionMethod,
}

impl<'a> Network<'a> {
    fn build<R: Rng + ?Sized>(
        peps: &'a Peps,
        options: ExpectationOptions,
        rng: &mut R,
    ) -> Result<Self> {
        let merged = peps.merge_with_bra(peps)?;
        let cache =
            options.use_cache.then(|| EnvCache::build(&merged, options.method, rng)).transpose()?;
        Ok(Network { peps, merged, cache, method: options.method })
    }

    /// `sum_i <psi|H_i|psi>`, one independent contraction per term.
    fn value<R: Rng + ?Sized>(&self, observable: &Observable, rng: &mut R) -> Result<C64> {
        let terms = observable.terms();
        let seeds: Vec<u64> = terms.iter().map(|_| rng.next_u64()).collect();
        let values = contract_each(terms.len(), |i| {
            let mut rng = StdRng::seed_from_u64(seeds[i]);
            let mut value = C64::ZERO;
            for swaps in self.term_strips(observable, i)? {
                value += self.strip(&swaps, terms[i].row_span(), &mut rng)?;
            }
            Ok(value)
        })?;
        Ok(values.into_iter().fold(C64::ZERO, |total, value| total + value))
    }

    /// `<psi|psi>`: the strip that swaps nothing. Between cached environments
    /// it is one exact closing and draws nothing; without them it is one more
    /// contraction of the whole lattice, with its own seed.
    fn norm<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<C64> {
        let seed = if self.cache.is_some() { 0 } else { rng.next_u64() };
        self.strip(&[], (0, 0), &mut StdRng::seed_from_u64(seed))
    }

    /// `H_i|psi>` for term `i` of `observable` as product strips: each entry
    /// lists the merged sites to swap in, and the term's value is the sum
    /// over entries.
    fn term_strips(&self, observable: &Observable, i: usize) -> Result<Vec<Vec<Swap>>> {
        let swap = |site: Site, ops: &Tensor, axis: usize| -> Result<Swap> {
            let bra = self.peps.tensor(site);
            Ok((site, merge_site_pair(bra, &apply_stacked(bra, ops, axis)?)?))
        };
        match &observable.terms()[i] {
            LocalTerm::OneSite { site, matrix } => {
                // One operator "stacked" on any bond leaves the bond as it is.
                let op = Tensor::from_matrix_2d(matrix).expand_dims(0);
                Ok(vec![vec![swap(*site, &op, AX_R)?]])
            }
            LocalTerm::TwoSite { site_a, site_b, .. } => {
                let (d_a, d_b) = (self.peps.phys_dim(*site_a), self.peps.phys_dim(*site_b));
                let factors = observable.two_site_factors(i, d_a, d_b)?;
                let (a, b) = (&factors.0, &factors.1);
                match self.peps.direction_between(*site_a, *site_b) {
                    Some(dir) => Ok(vec![vec![
                        swap(*site_a, a, dir.axis())?,
                        swap(*site_b, b, dir.opposite().axis())?,
                    ]]),
                    None => (0..a.dim(0))
                        .map(|k| {
                            let (a_k, b_k) = (a.select(0, k)?, b.select(0, k)?);
                            Ok(vec![
                                swap(*site_a, &a_k.expand_dims(0), AX_R)?,
                                swap(*site_b, &b_k.expand_dims(0), AX_R)?,
                            ])
                        })
                        .collect(),
                }
            }
        }
    }

    /// Contract the network with `swaps` (all inside rows `span`) in place of
    /// the merged sites at their positions: the environment above the span,
    /// its rows but the last absorbed from the top, then the exact closing.
    /// Without environments the strip is the whole lattice.
    fn strip<R: Rng + ?Sized>(
        &self,
        swaps: &[Swap],
        span: (usize, usize),
        rng: &mut R,
    ) -> Result<C64> {
        let (r0, r1, top, bottom) = match &self.cache {
            Some(cache) => (span.0, span.1, cache.top(span.0), cache.bottom(span.1)),
            None => (0, self.merged.nrows() - 1, None, None),
        };
        let row = |r: usize| {
            (0..self.merged.ncols()).map(move |c| {
                let swapped = swaps.iter().find(|(site, _)| *site == (r, c));
                swapped.map_or_else(|| self.merged.tensor((r, c)), |(_, t)| t)
            })
        };
        // With no environment above, the strip's first row opens the boundary.
        let (above, first) = match top {
            Some(env) => (Cow::Borrowed(env), r0),
            None if r0 == r1 => return Mps::sandwich(None, &sites_as_mpo(row(r1))?, bottom),
            None => (Cow::Owned(sites_as_mps(row(r0))?), r0 + 1),
        };
        let row_mpo = |k: usize| sites_as_mpo(row(first + k));
        let boundaries = contract_rows(&above, r1 - first, row_mpo, self.method, rng)?;
        Mps::sandwich(Some(boundaries.last().unwrap_or(&above)), &sites_as_mpo(row(r1))?, bottom)
    }
}

/// `site` with the `chi` one-site operators `ops[k]` applied to its physical
/// index and stacked on bond `axis` (`r -> r * chi`, the operator index minor).
fn apply_stacked(site: &Tensor, ops: &Tensor, axis: usize) -> Result<Tensor> {
    // new[i, u, l, d, r, k] = sum_j ops[k, i, j] site[j, u, l, d, r], with `k`
    // moved from the front to right behind the stacked bond.
    let mut perm = [1, 2, 3, 4, 5, 0];
    perm[axis + 1..].rotate_right(1);
    let stacked = tensordot(ops, site, &[2], &[0])?.permute(&perm)?;
    let mut shape = site.shape().to_vec();
    shape[AX_P] = ops.dim(1);
    shape[axis] *= ops.dim(0);
    stacked.into_reshape(&shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{kron, pauli_x, pauli_y, pauli_z, Observable};
    use crate::peps::tests::{assert_same_bits, random_tensor};
    use crate::peps::{AX_D, AX_L, AX_U};
    use koala_linalg::{c64, Matrix};
    use koala_tensor::einsum;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Dense reference: <psi|H|psi> via the full state vector.
    fn dense_expectation(peps: &Peps, obs: &Observable) -> C64 {
        let dense = peps.to_dense().unwrap();
        let n = peps.num_sites();
        let vec = dense.reshape(&[1 << n]).unwrap();
        let h = obs.to_dense(peps.nrows(), peps.ncols(), 2);
        let hv = h.matvec(vec.data());
        vec.data().iter().zip(hv.iter()).map(|(a, b)| a.conj() * *b).sum()
    }

    /// A normalised random bond-2 PEPS.
    fn random_state(nrows: usize, ncols: usize, rng: &mut StdRng) -> Peps {
        let mut peps = Peps::random(nrows, ncols, 2, 2, rng);
        let norm = peps.norm_sqr_dense().unwrap().sqrt();
        peps.scale(c64(1.0 / norm, 0.0));
        peps
    }

    /// With exact environments (`bmps(64)`, at most 3 rows of bond 2) nothing
    /// on the measurement path truncates: cached and uncached values must
    /// match the dense oracle to 1e-10.
    fn assert_exact(peps: &Peps, obs: &Observable, rng: &mut StdRng) {
        let want = dense_expectation(peps, obs);
        for use_cache in [true, false] {
            let opts = ExpectationOptions { method: ContractionMethod::bmps(64), use_cache };
            let got = expectation(peps, obs, opts, rng).unwrap();
            assert!(got.approx_eq(want, 1e-10), "cache={use_cache}: {got} vs {want}");
        }
    }

    /// XX + YY + 0.5 ZZ: operator Schmidt rank 3.
    fn xxz() -> Matrix {
        let xy = &kron(&pauli_x(), &pauli_x()) + &kron(&pauli_y(), &pauli_y());
        &xy + &kron(&pauli_z(), &pauli_z()).scale(c64(0.5, 0.0))
    }

    #[test]
    fn apply_stacked_is_the_einsum_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(30);
        let specs = [
            (AX_U, "kij,juldr->iukldr"),
            (AX_L, "kij,juldr->iulkdr"),
            (AX_D, "kij,juldr->iuldkr"),
            (AX_R, "kij,juldr->iuldrk"),
        ];
        for real in [false, true] {
            let site = random_tensor(&[2, 3, 1, 4, 2], real, &mut rng);
            let ops = random_tensor(&[3, 2, 2], real, &mut rng);
            for (axis, spec) in specs {
                let mut shape = site.shape().to_vec();
                shape[axis] *= 3;
                let want = einsum(spec, &[&ops, &site]).unwrap().into_reshape(&shape).unwrap();
                assert_same_bits(&apply_stacked(&site, &ops, axis).unwrap(), &want);
            }
        }
    }

    #[test]
    fn mixed_observable_matches_dense() {
        let mut rng = StdRng::seed_from_u64(1);
        let peps = random_state(2, 3, &mut rng);
        let mut obs = Observable::zz((0, 0), (0, 1))
            + Observable::zz((1, 1), (1, 2))
            + Observable::xx((0, 2), (1, 2))
            + 0.7 * Observable::z((1, 0))
            + 0.3 * Observable::x((0, 0));
        // Rank-3 couplings stack three products on the shared bond, in either
        // site order and direction.
        obs.add_two_site((0, 1), (0, 0), xxz());
        obs.add_two_site((1, 1), (0, 1), xxz());
        assert_exact(&peps, &obs, &mut rng);
        let opts = ExpectationOptions::bmps_cached(64);
        let got = expectation(&peps, &obs, opts, &mut rng).unwrap();
        assert!(got.im.abs() < 1e-10, "expectation of a Hermitian observable must be real");
    }

    #[test]
    fn non_adjacent_terms_match_dense() {
        let mut rng = StdRng::seed_from_u64(8);
        let peps = random_state(3, 3, &mut rng);
        // J1-J2 diagonal, and a pair two rows and one column apart.
        assert_exact(&peps, &Observable::yy((0, 0), (1, 1)), &mut rng);
        let mut far = Observable::zero();
        far.add_two_site((0, 0), (2, 1), xxz());
        far.add_two_site((2, 2), (0, 2), kron(&pauli_x(), &pauli_z()));
        assert_exact(&peps, &far, &mut rng);
    }

    #[test]
    fn every_closing_case_is_exact() {
        let mut rng = StdRng::seed_from_u64(5);
        let peps = random_state(3, 2, &mut rng);
        let first_row = Observable::z((0, 0)) + Observable::xx((0, 0), (0, 1));
        let last_row = Observable::z((2, 1)) + Observable::zz((2, 0), (2, 1));
        let last_two_rows = Observable::zz((1, 0), (2, 0)) + Observable::xx((2, 1), (1, 1));
        let middle = Observable::x((1, 1)) + Observable::zz((0, 1), (1, 1));
        for obs in [first_row, last_row, last_two_rows, middle] {
            assert_exact(&peps, &obs, &mut rng);
        }
        // A one-row lattice has no environment on either side.
        let chain = random_state(1, 4, &mut rng);
        let obs =
            Observable::zz((0, 1), (0, 2)) + Observable::x((0, 3)) + Observable::yy((0, 0), (0, 3));
        assert_exact(&chain, &obs, &mut rng);
    }

    #[test]
    fn cached_and_uncached_agree_with_ibmps() {
        let mut rng = StdRng::seed_from_u64(3);
        let peps = random_state(3, 3, &mut rng);
        let obs = Observable::zz((1, 0), (1, 1))
            + Observable::zz((1, 1), (2, 1))
            + 0.4 * Observable::x((2, 2));
        let want = dense_expectation(&peps, &obs);
        for use_cache in [true, false] {
            let opts = ExpectationOptions { method: ContractionMethod::ibmps(32), use_cache };
            let got = expectation(&peps, &obs, opts, &mut rng).unwrap();
            assert!(got.approx_eq(want, 1e-5), "cache={use_cache}: {got} vs {want}");
        }
    }

    #[test]
    fn normalized_expectation_is_rayleigh_quotient() {
        let mut rng = StdRng::seed_from_u64(4);
        let peps = Peps::random(2, 2, 2, 2, &mut rng); // not normalised on purpose
        let obs = Observable::zz((0, 0), (1, 0)) + 0.2 * Observable::x((1, 1));
        for use_cache in [false, true] {
            let opts = ExpectationOptions { method: ContractionMethod::bmps(64), use_cache };
            let got = expectation_normalized(&peps, &obs, opts, &mut rng).unwrap();
            let want = dense_expectation(&peps, &obs) / peps.norm_sqr_dense().unwrap();
            assert!(got.approx_eq(want, 1e-10), "cache={use_cache}: {got} vs {want}");
        }
    }

    /// Counts what a call takes from the caller's stream.
    struct Counting {
        inner: StdRng,
        draws: usize,
    }

    impl Rng for Counting {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn value_and_norm_match_dense_and_draw_one_seed_per_contraction() {
        let mut rng = StdRng::seed_from_u64(12);
        let peps = Peps::random(3, 2, 2, 2, &mut rng); // not normalised on purpose
        let mut obs = Observable::zz((0, 0), (1, 0)) + 0.2 * Observable::x((2, 1));
        obs.add_two_site((0, 1), (2, 0), xxz()); // three strips, one term
        let (want, want_norm) = (dense_expectation(&peps, &obs), peps.norm_sqr_dense().unwrap());
        let terms = obs.len();
        let mut bits = Vec::new();
        for threads in [1, 4] {
            koala_exec::set_threads(threads);
            for (use_cache, draws) in [(true, 2 + terms), (false, terms + 1)] {
                for method in [ContractionMethod::bmps(64), ContractionMethod::ibmps(64)] {
                    let mut counting = Counting { inner: StdRng::seed_from_u64(3), draws: 0 };
                    let options = ExpectationOptions { method, use_cache };
                    let (value, norm) =
                        expectation_and_norm(&peps, &obs, options, &mut counting).unwrap();
                    assert_eq!(counting.draws, draws, "cache={use_cache} {method:?} x{threads}");
                    if matches!(method, ContractionMethod::Bmps { .. }) {
                        let tol = 1e-10 * want_norm.max(1.0);
                        assert!(value.approx_eq(want, tol), "{value} vs {want}");
                        assert!(norm.approx_eq(c64(want_norm, 0.0), tol), "{norm} vs {want_norm}");
                    }
                    bits.push((value.re.to_bits(), value.im.to_bits(), norm.re.to_bits()));
                }
            }
        }
        let (one_thread, four_threads) = bits.split_at(bits.len() / 2);
        assert_eq!(one_thread, four_threads);
    }

    #[test]
    fn swapped_sites_never_exceed_the_schmidt_bond() {
        let mut rng = StdRng::seed_from_u64(9);
        let r = 3;
        let peps = Peps::random(4, 3, 2, r, &mut rng);
        let options = ExpectationOptions { method: ContractionMethod::bmps(4), use_cache: false };
        let network = Network::build(&peps, options, &mut rng).unwrap();
        let mut product = Observable::x((1, 1)) + Observable::yy((0, 0), (3, 2));
        for (a, b) in peps.horizontal_pairs().into_iter().chain(peps.vertical_pairs()) {
            product = product + Observable::zz(a, b);
        }
        let mut rank3 = Observable::zero();
        rank3.add_two_site((1, 0), (1, 1), xxz());
        rank3.add_two_site((2, 1), (1, 1), xxz());
        for (obs, chi) in [(product, 1), (rank3, 3)] {
            for i in 0..obs.len() {
                let strips = network.term_strips(&obs, i).unwrap();
                assert_eq!(strips.len(), 1, "neighbours and product operators are one strip");
                for (site, swapped) in strips.iter().flatten() {
                    let bond = swapped.shape().iter().copied().max().unwrap();
                    assert!(bond <= r * r * chi, "{site:?}: {:?}, chi = {chi}", swapped.shape());
                }
            }
        }
    }

    #[test]
    fn observable_validation_failure_propagates() {
        let mut rng = StdRng::seed_from_u64(6);
        let peps = Peps::random(2, 2, 2, 2, &mut rng);
        let obs = Observable::z((5, 5));
        let opts = ExpectationOptions::bmps_cached(8);
        assert!(expectation(&peps, &obs, opts, &mut rng).is_err());
    }

    /// The serial reference for one side of the cache: one stream seeded
    /// from that side's draw, one [`koala_mps::zip_up`] per absorbed row.
    /// `envs[r]` is indexed like `top(r)` for the top sweep and like
    /// `bottom(r)` for the bottom one.
    fn serial_sweep(
        merged: &Peps,
        from_below: bool,
        seed: u64,
        (max_bond, zip): (usize, koala_mps::ZipUpMethod),
    ) -> Vec<Option<Mps>> {
        let nrows = merged.nrows();
        let mut rng = StdRng::seed_from_u64(seed);
        let row = |k: usize| if from_below { nrows - 1 - k } else { k };
        let mut envs: Vec<Option<Mps>> = vec![None];
        for k in 0..nrows - 1 {
            let next = match &envs[k] {
                None if from_below => flipped_row_as_mps(merged, row(k)).unwrap(),
                None => row_as_mps(merged, row(k)).unwrap(),
                Some(env) => {
                    let mpo = if from_below {
                        flipped_row_as_mpo(merged, row(k)).unwrap()
                    } else {
                        row_as_mpo(merged, row(k)).unwrap()
                    };
                    koala_mps::zip_up(env, &mpo, max_bond, zip, &mut rng).unwrap()
                }
            };
            envs.push(Some(next));
        }
        if from_below {
            envs.reverse();
        }
        envs
    }

    fn env_bits(env: Option<&Mps>) -> Option<Vec<(Vec<usize>, Vec<u64>)>> {
        env.map(|mps| {
            mps.tensors()
                .iter()
                .map(|t| {
                    let bits = t.data().iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]);
                    (t.shape().to_vec(), bits.collect())
                })
                .collect()
        })
    }

    /// The cache is the two serial sweeps of [`serial_sweep`] at every thread
    /// count: merged 1x3, 2x3 and 4x3 states at r = 3 under m = 6, one
    /// real-hinted 4x3 state, and a 4x4 state at r = 3. Every IBMPS step of a
    /// 3-column sweep would sketch all of its theta, so it goes exact; the
    /// middle step of a 4-column sweep (a theta of up to 54 x 486) draws a
    /// sketch, so the 4x4 state's IBMPS environments differ from its BMPS ones.
    #[test]
    fn env_cache_is_the_serial_zip_up_sweep_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut states: Vec<Peps> =
            [1, 2, 4].into_iter().map(|n| Peps::random(n, 3, 2, 3, &mut rng)).collect();
        let mut real = Peps::random(4, 3, 2, 3, &mut rng);
        for site in 0..real.num_sites() {
            let (r, c) = (site / 3, site % 3);
            let mut t = real.tensor((r, c)).clone();
            t.data_mut().iter_mut().for_each(|z| *z = c64(z.re, 0.0));
            assert!(t.mark_real_if_exact());
            real.set_tensor((r, c), t);
        }
        states.push(real);
        states.push(Peps::random(4, 4, 2, 3, &mut rng));
        let zip_ups = [
            (ContractionMethod::bmps(6), koala_mps::ZipUpMethod::ExactSvd),
            (ContractionMethod::ibmps(6), koala_mps::ZipUpMethod::implicit_default()),
        ];
        for peps in &states {
            let merged = peps.merge_with_bra(peps).unwrap();
            let (nrows, ncols) = (merged.nrows(), merged.ncols());
            let mut tops = Vec::new();
            for (method, zip) in zip_ups {
                let mut seeds = StdRng::seed_from_u64(31);
                let (top_seed, bottom_seed) = (seeds.next_u64(), seeds.next_u64());
                let top = serial_sweep(&merged, false, top_seed, (6, zip));
                let bottom = serial_sweep(&merged, true, bottom_seed, (6, zip));
                for threads in [1, 2, 4] {
                    koala_exec::set_threads(threads);
                    let cache =
                        EnvCache::build(&merged, method, &mut StdRng::seed_from_u64(31)).unwrap();
                    for r in 0..nrows {
                        let at =
                            format!("{nrows}x{ncols} {method:?} at {threads} threads, row {r}");
                        assert_eq!(env_bits(cache.top(r)), env_bits(top[r].as_ref()), "top, {at}");
                        let want = env_bits(bottom[r].as_ref());
                        assert_eq!(env_bits(cache.bottom(r)), want, "bottom, {at}");
                    }
                }
                tops.push(top.iter().map(|env| env_bits(env.as_ref())).collect::<Vec<_>>());
            }
            if ncols == 4 {
                assert_ne!(tops[0], tops[1], "{nrows}x{ncols}: no IBMPS step drew a sketch");
            }
        }
        koala_exec::set_threads(1);
    }

    #[test]
    fn env_cache_shapes_are_consistent() {
        let mut rng = StdRng::seed_from_u64(7);
        let peps = Peps::random(3, 3, 2, 2, &mut rng);
        let merged = peps.merge_with_bra(&peps).unwrap();
        let cache = EnvCache::build(&merged, ContractionMethod::bmps(16), &mut rng).unwrap();
        assert!(cache.top(0).is_none());
        assert!(cache.top(1).is_some());
        assert!(cache.top(2).is_some());
        assert!(cache.bottom(2).is_none());
        assert!(cache.bottom(0).is_some());
        // Closing top and bottom environments around the middle row reproduces
        // the norm: top(1) . row1 . bottom(1).
        let top = cache.top(1).unwrap().clone();
        let mpo = row_as_mpo(&merged, 1).unwrap();
        let mid =
            koala_mps::zip_up(&top, &mpo, 16, koala_mps::ZipUpMethod::ExactSvd, &mut rng).unwrap();
        let closed = mid.dot(cache.bottom(1).unwrap()).unwrap();
        let direct =
            crate::contract::norm_sqr(&peps, ContractionMethod::bmps(16), &mut rng).unwrap();
        assert!((closed.re - direct).abs() / direct < 1e-6);
    }
}

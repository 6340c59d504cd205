//! Expectation values of local observables, with the intermediate caching
//! strategy of paper §IV-B (Figure 6).
//!
//! `<psi|H|psi>` with `H = sum_i H_i` is evaluated term by term: `H_i|psi>` is
//! formed by an exact local operator application and the overlap with `<psi|`
//! is a two-layer contraction. Without caching every term pays for a full
//! boundary contraction of the lattice. With caching, the row environments of
//! the `<psi|psi>` network (partial contractions from the top and from the
//! bottom) are computed once — two full contractions — and every term then
//! only needs a small strip contraction spanning the rows it touches.

use crate::contract::{row_as_mpo, row_as_mps, sites_as_mpo, sites_as_mps, ContractionMethod};
use crate::operators::{LocalTerm, Observable};
use crate::peps::{Peps, Result, AX_P};
use crate::update::{apply_one_site, apply_two_site_any, UpdateMethod};
use koala_linalg::C64;
use koala_mps::{Mpo, Mps};
use koala_tensor::{Tensor, TensorError, Truncation};
use rand::Rng;

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

/// Merge a bra site (conjugated) with a ket site over the physical index,
/// producing a rank-5 tensor `[1, u_pair, l_pair, d_pair, r_pair]`.
///
/// The contraction-and-interleave runs as one cached einsum plan: every term
/// of an observable merges sites of the same handful of shapes, so the
/// planning cost is paid once per shape for the whole expectation sweep.
fn merge_site_pair(bra_site: &Tensor, ket_site: &Tensor) -> Result<Tensor> {
    if bra_site.dim(AX_P) != ket_site.dim(AX_P) {
        return Err(TensorError::ShapeMismatch {
            context: "merge_site_pair: physical dimensions differ".into(),
        });
    }
    // [p, ub, lb, db, rb] x [p, uk, lk, dk, rk] -> [ub, uk, lb, lk, db, dk, rb, rk]
    let pair = koala_tensor::einsum("pabcd,pefgh->aebfcgdh", &[&bra_site.conj(), ket_site])?;
    let s = pair.shape().to_vec();
    pair.into_reshape(&[1, s[0] * s[1], s[2] * s[3], s[4] * s[5], s[6] * s[7]])
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
    /// network — the "two full two-layer PEPS contractions" of §IV-B.
    pub fn build<R: Rng + ?Sized>(
        merged: &Peps,
        method: ContractionMethod,
        rng: &mut R,
    ) -> Result<Self> {
        let nrows = merged.nrows();
        let mut top: Vec<Option<Mps>> = vec![None; nrows];
        let mut bottom: Vec<Option<Mps>> = vec![None; nrows];

        // Top-down sweep.
        let mut current = row_as_mps(merged, 0)?;
        if nrows > 1 {
            top[1] = Some(current.clone());
        }
        for r in 1..nrows.saturating_sub(1) {
            let mpo = row_as_mpo(merged, r)?;
            current = method.apply_row(&current, &mpo, rng)?;
            top[r + 1] = Some(current.clone());
        }

        // Bottom-up sweep: flip the rows upside down (swap up/down axes).
        let mut current = flipped_row_as_mps(merged, nrows - 1)?;
        if nrows > 1 {
            bottom[nrows - 2] = Some(current.clone());
        }
        for r in (1..nrows.saturating_sub(1)).rev() {
            let mpo = flipped_row_as_mpo(merged, r)?;
            current = method.apply_row(&current, &mpo, rng)?;
            bottom[r - 1] = Some(current.clone());
        }
        Ok(EnvCache { top, bottom })
    }

    /// Environment above row `r` (None when `r == 0`).
    pub fn top(&self, r: usize) -> Option<&Mps> {
        self.top[r].as_ref()
    }

    /// Environment below row `r` (None when `r` is the last row).
    pub fn bottom(&self, r: usize) -> Option<&Mps> {
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
    if options.use_cache {
        let merged = peps.merge_with_bra(peps)?;
        let cache = EnvCache::build(&merged, options.method, rng)?;
        expectation_cached_with(peps, observable, options.method, &cache, rng)
    } else {
        expectation_uncached(peps, observable, options.method, rng)
    }
}

/// `<psi|H|psi> / <psi|psi>`, the Rayleigh quotient used by ITE and VQE.
pub fn expectation_normalized<R: Rng + ?Sized>(
    peps: &Peps,
    observable: &Observable,
    options: ExpectationOptions,
    rng: &mut R,
) -> Result<C64> {
    observable.validate(peps)?;
    let (value, norm) = match options.use_cache {
        true => {
            let merged = peps.merge_with_bra(peps)?;
            let cache = EnvCache::build(&merged, options.method, rng)?;
            let value = expectation_cached_with(peps, observable, options.method, &cache, rng)?;
            (value, norm_from_cache(&merged, &cache)?)
        }
        false => {
            let value = expectation_uncached(peps, observable, options.method, rng)?;
            let norm = crate::contract::norm_sqr(peps, options.method, rng)?;
            (value, C64::from_real(norm))
        }
    };
    Ok(value / norm)
}

fn expectation_uncached<R: Rng + ?Sized>(
    peps: &Peps,
    observable: &Observable,
    method: ContractionMethod,
    rng: &mut R,
) -> Result<C64> {
    let mut total = C64::ZERO;
    for term in observable.terms() {
        let phi = apply_term(peps, term)?;
        total += crate::contract::inner_merged(peps, &phi, method, rng)?;
    }
    Ok(total)
}

fn expectation_cached_with<R: Rng + ?Sized>(
    peps: &Peps,
    observable: &Observable,
    method: ContractionMethod,
    cache: &EnvCache,
    rng: &mut R,
) -> Result<C64> {
    let mut total = C64::ZERO;
    for term in observable.terms() {
        total += term_value_cached(peps, term, method, cache, rng)?;
    }
    Ok(total)
}

/// `<psi|psi>` reusing the cached environments (a single strip contraction).
fn norm_from_cache(merged: &Peps, cache: &EnvCache) -> Result<C64> {
    let nrows = merged.nrows();
    let row = 0usize;
    let current = row_as_mps(merged, row)?;
    if nrows == 1 {
        return current.contract_to_scalar();
    }
    let bottom = cache.bottom(row).ok_or_else(|| TensorError::ShapeMismatch {
        context: format!("norm_from_cache: missing bottom environment below row {row}"),
    })?;
    current.dot(bottom)
}

/// `H_i |psi>` by an exact local operator application.
fn apply_term(peps: &Peps, term: &LocalTerm) -> Result<Peps> {
    let mut phi = peps.clone();
    match term {
        LocalTerm::OneSite { site, matrix } => {
            apply_one_site(&mut phi, matrix, *site)?;
        }
        LocalTerm::TwoSite { site_a, site_b, matrix } => {
            apply_two_site_any(
                &mut phi,
                matrix,
                *site_a,
                *site_b,
                UpdateMethod::Direct { truncation: Truncation::none() },
            )?;
        }
    }
    Ok(phi)
}

/// Evaluate one term using the cached environments: contract only the strip of
/// rows the term touches.
fn term_value_cached<R: Rng + ?Sized>(
    peps: &Peps,
    term: &LocalTerm,
    method: ContractionMethod,
    cache: &EnvCache,
    rng: &mut R,
) -> Result<C64> {
    let nrows = peps.nrows();
    let phi = apply_term(peps, term)?;
    let (r0, r1) = term.row_span();

    // Build the modified merged rows r0..=r1 from (conj(psi), phi).
    let mut modified_rows: Vec<Vec<Tensor>> = Vec::with_capacity(r1 - r0 + 1);
    for r in r0..=r1 {
        let mut row = Vec::with_capacity(peps.ncols());
        for c in 0..peps.ncols() {
            row.push(merge_site_pair(peps.tensor((r, c)), phi.tensor((r, c)))?);
        }
        modified_rows.push(row);
    }

    // Strip contraction: top environment, then the modified rows, then close
    // with the bottom environment.
    let mut current: Mps;
    let mut start_row = r0;
    if r0 == 0 {
        current = sites_as_mps(&modified_rows[0])?;
        start_row = 1;
    } else {
        current = cache
            .top(r0)
            .ok_or_else(|| TensorError::ShapeMismatch {
                context: format!("term_value_cached: missing top environment above row {r0}"),
            })?
            .clone();
    }
    for r in start_row..=r1 {
        let mpo = sites_as_mpo(&modified_rows[r - r0])?;
        current = method.apply_row(&current, &mpo, rng)?;
    }
    if r1 == nrows - 1 {
        current.contract_to_scalar()
    } else {
        let bottom = cache.bottom(r1).ok_or_else(|| TensorError::ShapeMismatch {
            context: format!("term_value_cached: missing bottom environment below row {r1}"),
        })?;
        current.dot(bottom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::Observable;
    use koala_linalg::c64;
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

    fn test_observable() -> Observable {
        Observable::zz((0, 0), (0, 1))
            + Observable::xx((0, 1), (1, 1))
            + 0.7 * Observable::z((1, 0))
            + 0.3 * Observable::x((0, 0))
            + Observable::yy((0, 0), (1, 1)) // diagonal term exercises SWAP routing
    }

    #[test]
    fn uncached_expectation_matches_dense() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut peps = Peps::random(2, 2, 2, 2, &mut rng);
        let norm = peps.norm_sqr_dense().unwrap().sqrt();
        peps.scale(c64(1.0 / norm, 0.0));
        let obs = test_observable();
        let opts = ExpectationOptions { method: ContractionMethod::bmps(64), use_cache: false };
        let got = expectation(&peps, &obs, opts, &mut rng).unwrap();
        let want = dense_expectation(&peps, &obs);
        assert!(got.approx_eq(want, 1e-6), "{got} vs {want}");
        assert!(got.im.abs() < 1e-6, "expectation of a Hermitian observable must be real");
    }

    #[test]
    fn cached_expectation_matches_dense() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut peps = Peps::random(2, 3, 2, 2, &mut rng);
        let norm = peps.norm_sqr_dense().unwrap().sqrt();
        peps.scale(c64(1.0 / norm, 0.0));
        let obs = Observable::zz((0, 0), (0, 1))
            + Observable::zz((1, 1), (1, 2))
            + Observable::xx((0, 2), (1, 2))
            + 0.5 * Observable::x((1, 0));
        let opts = ExpectationOptions { method: ContractionMethod::bmps(64), use_cache: true };
        let got = expectation(&peps, &obs, opts, &mut rng).unwrap();
        let want = dense_expectation(&peps, &obs);
        assert!(got.approx_eq(want, 1e-6), "{got} vs {want}");
    }

    #[test]
    fn cached_and_uncached_agree_with_ibmps() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut peps = Peps::random(3, 3, 2, 2, &mut rng);
        let norm = peps.norm_sqr_dense().unwrap().sqrt();
        peps.scale(c64(1.0 / norm, 0.0));
        let obs = Observable::zz((1, 0), (1, 1))
            + Observable::zz((1, 1), (2, 1))
            + 0.4 * Observable::x((2, 2));
        let cached = expectation(
            &peps,
            &obs,
            ExpectationOptions { method: ContractionMethod::ibmps(32), use_cache: true },
            &mut rng,
        )
        .unwrap();
        let uncached = expectation(
            &peps,
            &obs,
            ExpectationOptions { method: ContractionMethod::ibmps(32), use_cache: false },
            &mut rng,
        )
        .unwrap();
        assert!(cached.approx_eq(uncached, 1e-5), "{cached} vs {uncached}");
        let want = dense_expectation(&peps, &obs);
        assert!(cached.approx_eq(want, 1e-5), "{cached} vs {want}");
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
            assert!(got.approx_eq(want, 1e-6), "cache={use_cache}: {got} vs {want}");
        }
    }

    #[test]
    fn terms_on_first_and_last_rows_are_handled() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut peps = Peps::random(3, 2, 2, 2, &mut rng);
        let norm = peps.norm_sqr_dense().unwrap().sqrt();
        peps.scale(c64(1.0 / norm, 0.0));
        let obs = Observable::z((0, 0)) + Observable::z((2, 1)) + Observable::zz((2, 0), (2, 1));
        let opts = ExpectationOptions { method: ContractionMethod::bmps(32), use_cache: true };
        let got = expectation(&peps, &obs, opts, &mut rng).unwrap();
        let want = dense_expectation(&peps, &obs);
        assert!(got.approx_eq(want, 1e-6), "{got} vs {want}");
    }

    #[test]
    fn observable_validation_failure_propagates() {
        let mut rng = StdRng::seed_from_u64(6);
        let peps = Peps::random(2, 2, 2, 2, &mut rng);
        let obs = Observable::z((5, 5));
        let opts = ExpectationOptions::bmps_cached(8);
        assert!(expectation(&peps, &obs, opts, &mut rng).is_err());
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
        let mid = ContractionMethod::bmps(16).apply_row(&top, &mpo, &mut rng).unwrap();
        let closed = mid.dot(cache.bottom(1).unwrap()).unwrap();
        let direct =
            crate::contract::norm_sqr(&peps, ContractionMethod::bmps(16), &mut rng).unwrap();
        assert!((closed.re - direct).abs() / direct < 1e-6);
    }
}

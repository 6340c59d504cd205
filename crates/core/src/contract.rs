//! PEPS contraction algorithms (paper §III-B and §IV-A).
//!
//! All approximate methods are variants of the boundary-MPS (BMPS) scheme of
//! Algorithm 2: the first row of the network is treated as an MPS and the
//! remaining rows as MPOs that are applied approximately, truncating the
//! boundary bond dimension to `m` after each row. The einsumsvd inside the
//! approximate application is evaluated either with an explicit truncated SVD
//! (BMPS) or with the implicit randomized SVD of Algorithm 4 (IBMPS). The
//! exact algorithm applies every row without truncation and is exponential.
//!
//! # The zip-up wavefront
//!
//! Every boundary MPS of the one-layer (merged) network is built by one
//! function, `contract_rows`: the contractions to a scalar
//! ([`contract_no_phys`], [`amplitude`], [`norm_sqr`]), both sweeps of a
//! measurement's row environments
//! ([`EnvCache::build`](crate::EnvCache::build)) and the inner rows of its
//! strips. The two-layer contraction
//! ([`norm_sqr_two_layer`](crate::two_layer::norm_sqr_two_layer)) is the
//! exception: `two_layer::inner_two_layer` still absorbs its rows in its own
//! serial loop, one zip-up per row (ROADMAP, "Two-layer contraction: give it
//! a caller or delete it"). `contract_rows` runs as one `koala_exec` task
//! graph of zip-up steps rather than row after row, and returns the
//! boundary after every absorbed row.
//! Step `i` of row `r` (the [`koala_mps::zip_step`] that finishes site `i-1`
//! of the new boundary) needs two things: row `r`'s step `i-1`, and site `i` of row `r-1`'s
//! output, which row `r-1` finishes at its step `i+1` (its last step, for
//! the last site). Those are the graph's two edges per step, so row `r` runs
//! two steps behind row `r-1` and steps of several rows overlap. Per row
//! there is also a start task that builds the row's MPO and contracts its
//! first site, after row `r-1` has finished its site 0.
//!
//! Dependency edges fix every step's inputs, and every step of an implicit
//! zip-up brings its own seed, drawn from the caller's stream before the run
//! row by row exactly as one serial [`koala_mps::zip_up`] per row would draw
//! them ([`koala_mps::zip_seeds`]). So the value is bit-identical at every
//! thread count and to the serial row-by-row sequence. A one-thread pool
//! runs the same graph as its FIFO walk. `Exact` has no zip-up steps and
//! applies its rows one after another.

use crate::peps::{Peps, AX_P, AX_U};
use crate::update::lock;
use koala_error::KoalaError;
use koala_error::Result;
use koala_exec::{TaskGraph, TaskId, TaskKind};
use koala_linalg::C64;
use koala_mps::{zip_finish, zip_seeds, zip_start, zip_step, Mpo, Mps, ZipUpMethod};
use koala_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Which contraction algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContractionMethod {
    /// Exact contraction: apply every row MPO without truncation
    /// (exponential memory; reference only).
    Exact,
    /// Boundary MPS with explicit truncated SVD (Algorithm 2 + Algorithm 3).
    Bmps {
        /// Truncation bond dimension `m` of the boundary MPS.
        max_bond: usize,
    },
    /// Boundary MPS with implicit randomized SVD (IBMPS, §IV-A).
    Ibmps {
        /// Truncation bond dimension `m` of the boundary MPS.
        max_bond: usize,
        /// Subspace iterations of the randomized SVD.
        n_iter: usize,
        /// Oversampling columns of the randomized SVD.
        oversample: usize,
    },
}

impl ContractionMethod {
    /// BMPS with truncation bond `m`.
    pub fn bmps(max_bond: usize) -> Self {
        ContractionMethod::Bmps { max_bond }
    }

    /// IBMPS with truncation bond `m` and default randomized-SVD parameters.
    pub fn ibmps(max_bond: usize) -> Self {
        ContractionMethod::Ibmps { max_bond, n_iter: 2, oversample: 10 }
    }

    /// The zip-up this method runs per row, `(max_bond, method)` — the
    /// single place a method becomes zip-up parameters. `None` for `Exact`,
    /// which applies rows without truncation.
    fn zip(self) -> Option<(usize, ZipUpMethod)> {
        match self {
            ContractionMethod::Exact => None,
            ContractionMethod::Bmps { max_bond } => Some((max_bond, ZipUpMethod::ExactSvd)),
            ContractionMethod::Ibmps { max_bond, n_iter, oversample } => {
                Some((max_bond, ZipUpMethod::ImplicitRandSvd { n_iter, oversample }))
            }
        }
    }
}

/// Physical-index-free sites `[p=1, u=1, l, d, r]` as a boundary MPS (site
/// layout `[l, d, r]`, the open "down" bond is the MPS physical index).
pub(crate) fn sites_as_mps<'a>(sites: impl IntoIterator<Item = &'a Tensor>) -> Result<Mps> {
    let site = |t: &Tensor| {
        if t.dim(AX_P) != 1 || t.dim(AX_U) != 1 {
            return Err(KoalaError::shape(format!(
                "boundary MPS site {:?} has a physical index or an upward bond",
                t.shape()
            )));
        }
        // [p=1, u=1, l, d, r] -> [l, d, r]
        t.select(AX_P, 0)?.select(0, 0)
    };
    Mps::new(sites.into_iter().map(site).collect::<Result<_>>()?)
}

/// Physical-index-free sites `[p=1, u, l, d, r]` as an MPO (site layout
/// `[l, u, d, r]`).
pub(crate) fn sites_as_mpo<'a>(sites: impl IntoIterator<Item = &'a Tensor>) -> Result<Mpo> {
    let site = |t: &Tensor| {
        if t.dim(AX_P) != 1 {
            return Err(KoalaError::shape(format!(
                "row MPO site {:?} still has a physical index",
                t.shape()
            )));
        }
        // [p=1, u, l, d, r] -> [u, l, d, r] -> [l, u, d, r]
        t.select(AX_P, 0)?.permute(&[1, 0, 2, 3])
    };
    Mpo::new(sites.into_iter().map(site).collect::<Result<_>>()?)
}

/// Convert row `row` of a PEPS without physical indices into a boundary MPS
/// (site layout `[l, d, r]`, the open "down" bond is the MPS physical index).
pub fn row_as_mps(peps: &Peps, row: usize) -> Result<Mps> {
    sites_as_mps((0..peps.ncols()).map(|c| peps.tensor((row, c))))
}

/// Convert row `row` of a PEPS without physical indices into an MPO
/// (site layout `[l, u, d, r]`).
pub fn row_as_mpo(peps: &Peps, row: usize) -> Result<Mpo> {
    sites_as_mpo((0..peps.ncols()).map(|c| peps.tensor((row, c))))
}

/// Contract a PEPS without physical indices to a scalar (Algorithm 2).
pub fn contract_no_phys<R: Rng + ?Sized>(
    peps: &Peps,
    method: ContractionMethod,
    rng: &mut R,
) -> Result<C64> {
    let top = row_as_mps(peps, 0)?;
    let boundaries =
        contract_rows(&top, peps.nrows() - 1, |k| row_as_mpo(peps, k + 1), method, rng)?;
    boundaries.last().unwrap_or(&top).contract_to_scalar()
}

/// One tensor handed from the task that produces it to the task that
/// consumes it.
type Slot = Mutex<Option<Tensor>>;

fn put(slot: &Slot, t: Tensor) {
    *lock(slot) = Some(t);
}

/// The graph's edges order every slot's one write before its read; anything
/// else is a broken edge, reported rather than panicked.
fn broken_edge() -> KoalaError {
    KoalaError::invalid("boundary contraction: a zip-up slot was not written exactly once")
}

/// Move a tensor out of its slot.
fn take(slot: &Slot) -> Result<Tensor> {
    lock(slot).take().ok_or_else(broken_edge)
}

/// Write a finished boundary site, which the row below reads in place.
fn finish(site: &OnceLock<Tensor>, t: Tensor) -> Result<()> {
    site.set(t).map_err(|_| broken_edge())
}

/// The boundary-MPS row loop of Algorithm 2: starting from `top`, absorb
/// the MPOs `row_mpo(0..rows)` in turn and return the boundary after each.
///
/// The zip-up methods run it as the wavefront of the [module docs](self): a
/// finished boundary site is written once and read in place by the row
/// below, the zip-up tensor and the MPO sites move from step to step through
/// slots, and row `k`'s MPO is built by its start task.
pub(crate) fn contract_rows<R: Rng + ?Sized>(
    top: &Mps,
    rows: usize,
    row_mpo: impl Fn(usize) -> Result<Mpo> + Sync,
    method: ContractionMethod,
    rng: &mut R,
) -> Result<Vec<Mps>> {
    let Some((max_bond, zip)) = method.zip() else {
        let mut boundaries: Vec<Mps> = Vec::with_capacity(rows);
        for k in 0..rows {
            boundaries.push(row_mpo(k)?.apply_exact(boundaries.last().unwrap_or(top))?);
        }
        return Ok(boundaries);
    };
    let ncols = top.len();
    let seeds: Vec<Vec<u64>> = (0..rows).map(|_| zip_seeds(ncols, zip, rng)).collect();
    // sites[k][c]: site c of the boundary after row k; mpos[k][c]: site c of
    // row k's MPO; running[k]: row k's zip-up tensor.
    let sites: Vec<Vec<OnceLock<Tensor>>> =
        (0..rows).map(|_| (0..ncols).map(|_| OnceLock::new()).collect()).collect();
    let mpos: Vec<Vec<Slot>> =
        (0..rows).map(|_| (0..ncols).map(|_| Mutex::new(None)).collect()).collect();
    let running: Vec<Slot> = (0..rows).map(|_| Mutex::new(None)).collect();
    // Site c of the boundary that row k absorbs into.
    let above = |k: usize, c: usize| match k.checked_sub(1) {
        None => Ok(top.tensor(c)),
        Some(j) => sites[j][c].get().ok_or_else(broken_edge),
    };

    let mut graph = TaskGraph::new();
    // producer[c]: the task that finishes site c of the row above (none for
    // `top`, whose sites are all there from the start).
    let mut producer: Vec<Option<TaskId>> = vec![None; ncols];
    for k in 0..rows {
        let (above, here, mpo, boundary) = (&above, &sites[k], &mpos[k], &running[k]);
        let (row_mpo, seeds) = (&row_mpo, &seeds[k]);
        let deps: Vec<TaskId> = producer[0].into_iter().collect();
        let start = graph.add(TaskKind::Contract, &deps, move || {
            let mut o = row_mpo(k)?.into_tensors();
            if o.len() != ncols {
                return Err(KoalaError::shape(format!(
                    "boundary contraction: row {k} has {} sites, the boundary {ncols}",
                    o.len()
                )));
            }
            let first = zip_start(above(k, 0)?, &o[0])?;
            if ncols == 1 {
                finish(&here[0], zip_finish(first)?)?;
            } else {
                put(boundary, first);
                o.drain(1..).zip(&mpo[1..]).for_each(|(t, slot)| put(slot, t));
            }
            Ok(())
        });
        let mut finished_by = vec![start; ncols];
        let mut prev = start;
        for i in 1..ncols {
            let deps: Vec<TaskId> = [Some(prev), producer[i]].into_iter().flatten().collect();
            let seed = seeds[i - 1];
            prev = graph.add(TaskKind::Contract, &deps, move || {
                let (v, o) = (take(boundary)?, take(&mpo[i])?);
                let (site, next) = zip_step(&v, above(k, i)?, &o, max_bond, zip, seed)?;
                finish(&here[i - 1], site)?;
                if i + 1 == ncols {
                    finish(&here[i], zip_finish(next)?)?;
                } else {
                    put(boundary, next);
                }
                Ok(())
            });
            // Step i finishes site i-1, and the last step the last site too.
            finished_by[i - 1] = prev;
            finished_by[i] = prev;
        }
        producer = finished_by.into_iter().map(Some).collect();
    }
    graph.run()?;
    let into_mps = |row: Vec<OnceLock<Tensor>>| {
        let row: Option<Vec<Tensor>> = row.into_iter().map(OnceLock::into_inner).collect();
        Mps::new(row.ok_or_else(broken_edge)?)
    };
    sites.into_iter().map(into_mps).collect()
}

/// Amplitude `<bits|psi>`: project the physical indices onto a basis state and
/// contract the resulting one-layer network.
///
/// The projection is lazy, one row at a time: row 0 is projected straight
/// into boundary-MPS layout `[l, d, r]` and every later row into MPO layout
/// `[l, u, d, r]` just before its zip-up (one `select` and one `permute` per
/// site), so a contraction holds one projected row and one zip-up beyond the
/// boundary MPS. The result is bit-identical to
/// `contract_no_phys(&peps.project_onto_basis(bits)?, method, rng)`, and
/// `bits` is checked the same way.
pub fn amplitude<R: Rng + ?Sized>(
    peps: &Peps,
    bits: &[usize],
    method: ContractionMethod,
    rng: &mut R,
) -> Result<C64> {
    peps.check_basis_state(bits)?;
    let ncols = peps.ncols();
    // [p, u, l, d, r] -> [u, l, d, r]
    let project = |row: usize, c: usize| peps.tensor((row, c)).select(AX_P, bits[row * ncols + c]);
    let top = (0..ncols)
        .map(|c| {
            // [u=1, l, d, r] -> [l, d, r]
            let site = project(0, c)?;
            let shape = site.shape()[1..].to_vec();
            site.into_reshape(&shape)
        })
        .collect::<Result<_>>()?;
    let row_mpo = |row: usize| {
        // [u, l, d, r] -> [l, u, d, r]
        Mpo::new(
            (0..ncols).map(|c| project(row, c)?.permute(&[1, 0, 2, 3])).collect::<Result<_>>()?,
        )
    };
    let top = Mps::new(top)?;
    let boundaries = contract_rows(&top, peps.nrows() - 1, |k| row_mpo(k + 1), method, rng)?;
    boundaries.last().unwrap_or(&top).contract_to_scalar()
}

/// One [`amplitude`] per bitstring of `bitstrings`, in order, each contracted
/// as an independent task on the `koala_exec` pool.
///
/// The caller's stream yields one `u64` per bitstring, all drawn before
/// anything runs, and each seeds the private [`StdRng`] of its contraction:
/// the amplitudes are bit-identical at every thread count, and what the call
/// takes from `rng` depends only on the batch size.
pub fn amplitude_batch<R: Rng + ?Sized>(
    peps: &Peps,
    bitstrings: &[Vec<usize>],
    method: ContractionMethod,
    rng: &mut R,
) -> Result<Vec<C64>> {
    let seeds: Vec<u64> = bitstrings.iter().map(|_| rng.next_u64()).collect();
    contract_each(bitstrings.len(), |i| {
        amplitude(peps, &bitstrings[i], method, &mut StdRng::seed_from_u64(seeds[i]))
    })
}

/// Run `n` independent contractions, `job(i)` filling slot `i`: one task each
/// on the `koala_exec` pool. The jobs share read-only borrows and bring their
/// own random streams, so no slot depends on the schedule. A failed job
/// cancels the run and its error is returned.
pub(crate) fn contract_each<T: Send>(
    n: usize,
    job: impl Fn(usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let mut graph = TaskGraph::new();
    for (i, slot) in slots.iter().enumerate() {
        let job = &job;
        graph.add(TaskKind::Contract, &[], move || {
            *lock(slot) = Some(job(i)?);
            Ok(())
        });
    }
    graph.run()?;
    // Every task of a run that returned `Ok` has filled its slot.
    Ok(slots
        .into_iter()
        .filter_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect())
}

/// Norm squared `<psi|psi>` through the merged network: bond dimensions
/// multiply, then a one-layer contraction is performed. This is the "naive"
/// two-layer handling of §III-B2.
pub fn norm_sqr<R: Rng + ?Sized>(
    peps: &Peps,
    method: ContractionMethod,
    rng: &mut R,
) -> Result<f64> {
    Ok(contract_no_phys(&peps.merge_with_bra(peps)?, method, rng)?.re.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expectation::{expectation_normalized, ExpectationOptions};
    use crate::operators::Observable;
    use koala_error::ErrorKind;
    use koala_linalg::c64;
    use koala_mps::zip_up;

    fn scaled_random_no_phys(n: usize, bond: usize, seed: u64) -> Peps {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Peps::random_no_phys(n, n, bond, &mut rng);
        // Keep the contraction value O(1) so relative comparisons are meaningful.
        let scale = 1.0 / (bond as f64);
        for r in 0..n {
            for c in 0..n {
                let t = p.tensor((r, c)).scale(c64(scale, 0.0));
                p.set_tensor((r, c), t);
            }
        }
        p
    }

    #[test]
    fn exact_contraction_matches_dense() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = scaled_random_no_phys(3, 2, 10);
        let exact = contract_no_phys(&p, ContractionMethod::Exact, &mut rng).unwrap();
        let dense = p.to_dense().unwrap().item();
        assert!(exact.approx_eq(dense, 1e-9), "{exact} vs {dense}");
    }

    #[test]
    fn bmps_with_large_bond_is_exact() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = scaled_random_no_phys(3, 2, 11);
        let dense = p.to_dense().unwrap().item();
        let bmps = contract_no_phys(&p, ContractionMethod::bmps(64), &mut rng).unwrap();
        assert!(bmps.approx_eq(dense, 1e-8), "{bmps} vs {dense}");
    }

    #[test]
    fn ibmps_with_large_bond_is_exact() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = scaled_random_no_phys(3, 2, 12);
        let dense = p.to_dense().unwrap().item();
        let ibmps = contract_no_phys(&p, ContractionMethod::ibmps(64), &mut rng).unwrap();
        assert!(ibmps.approx_eq(dense, 1e-6), "{ibmps} vs {dense}");
    }

    /// A PEPS with strictly positive entries: its contraction is a sum of
    /// positive terms, so truncation errors stay small and relative
    /// comparisons are well conditioned.
    fn positive_random_no_phys(n: usize, bond: usize, seed: u64) -> Peps {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Peps::random_no_phys(n, n, bond, &mut rng);
        for r in 0..n {
            for c in 0..n {
                let mut t = p.tensor((r, c)).clone();
                for v in t.data_mut() {
                    *v = c64((v.re.abs() + 0.2) / (bond as f64 + 1.0), 0.0);
                }
                p.set_tensor((r, c), t);
            }
        }
        p
    }

    #[test]
    fn bmps_and_ibmps_agree_under_truncation() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = positive_random_no_phys(4, 3, 13);
        let exact = contract_no_phys(&p, ContractionMethod::Exact, &mut rng).unwrap();
        let bmps = contract_no_phys(&p, ContractionMethod::bmps(6), &mut rng).unwrap();
        let ibmps = contract_no_phys(&p, ContractionMethod::ibmps(6), &mut rng).unwrap();
        // Both approximations should be close to the exact value and to each other.
        let scale = exact.abs().max(1e-12);
        assert!((bmps - exact).abs() / scale < 0.05, "bmps too far: {bmps} vs {exact}");
        assert!((ibmps - exact).abs() / scale < 0.05, "ibmps too far: {ibmps} vs {exact}");
    }

    #[test]
    fn single_row_peps_contracts_directly() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = Peps::random_no_phys(1, 4, 3, &mut rng);
        let v = contract_no_phys(&p, ContractionMethod::bmps(8), &mut rng).unwrap();
        let dense = p.to_dense().unwrap().item();
        assert!(v.approx_eq(dense, 1e-9));
    }

    /// On an `n x 1` lattice every row is one site, so each row's zip-up
    /// starts and finishes on its first column. Contraction, norm, amplitude
    /// and both cached measurements must match the dense oracle there.
    #[test]
    fn single_column_lattices_match_dense() {
        let mut rng = StdRng::seed_from_u64(16);
        let methods =
            [ContractionMethod::Exact, ContractionMethod::bmps(16), ContractionMethod::ibmps(16)];
        let close = |got: C64, want: C64| (got - want).abs() <= 1e-9 * want.abs().max(1.0);
        for nrows in 1..=4 {
            let no_phys = Peps::random_no_phys(nrows, 1, 3, &mut rng);
            let want = no_phys.to_dense().unwrap().item();
            let peps = Peps::random(nrows, 1, 2, 2, &mut rng);
            let dense = peps.to_dense().unwrap();
            let norm = peps.norm_sqr_dense().unwrap();
            let bits: Vec<usize> = (0..nrows).map(|r| r % 2).collect();
            for method in methods {
                let got = contract_no_phys(&no_phys, method, &mut rng).unwrap();
                assert!(close(got, want), "{nrows}x1 {method:?}: {got} vs {want}");
                let n = norm_sqr(&peps, method, &mut rng).unwrap();
                assert!((n - norm).abs() <= 1e-9 * norm.max(1.0), "{nrows}x1 {method:?}: {n}");
                let amp = amplitude(&peps, &bits, method, &mut rng).unwrap();
                assert!(close(amp, dense.get(&bits)), "{nrows}x1 {method:?}: {amp}");
            }

            let mut obs = Observable::z((0, 0)) + 0.5 * Observable::x((nrows - 1, 0));
            for r in 1..nrows {
                obs = obs + Observable::zz((r - 1, 0), (r, 0)) + 0.3 * Observable::x((r, 0));
            }
            let vec = dense.reshape(&[1 << nrows]).unwrap();
            let hv = obs.to_dense(nrows, 1, 2).matvec(vec.data());
            let h: C64 = vec.data().iter().zip(&hv).map(|(a, b)| a.conj() * *b).sum();
            let want = h / norm;
            for opts in [ExpectationOptions::bmps_cached(16), ExpectationOptions::ibmps_cached(16)]
            {
                let got = expectation_normalized(&peps, &obs, opts, &mut rng).unwrap();
                assert!(close(got, want), "{nrows}x1 {opts:?}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn amplitude_matches_dense_amplitude() {
        let mut rng = StdRng::seed_from_u64(6);
        let p = Peps::random(2, 3, 2, 2, &mut rng);
        let dense = p.to_dense().unwrap();
        let bits = [0usize, 1, 1, 0, 1, 0];
        let amp = amplitude(&p, &bits, ContractionMethod::Exact, &mut rng).unwrap();
        assert!(amp.approx_eq(dense.get(&bits), 1e-9));
        let amp_bmps = amplitude(&p, &bits, ContractionMethod::bmps(16), &mut rng).unwrap();
        assert!(amp_bmps.approx_eq(dense.get(&bits), 1e-8));
    }

    /// The row-wise projection changes nothing but when the projected sites
    /// are built: it must reproduce the projected network's contraction bit
    /// for bit, with the same seed, under every method and on both the
    /// complex and the real kernels.
    #[test]
    fn row_wise_amplitude_is_the_projected_network_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(9);
        let complex = Peps::random(3, 3, 2, 2, &mut rng);
        let real = Peps::product_state(3, 3, &[c64(0.6, 0.0), c64(0.8, 0.0)]).unwrap();
        assert!(real.tensor((1, 1)).is_real());
        let bits = [1usize, 0, 1, 1, 0, 0, 1, 0, 1];
        let methods =
            [ContractionMethod::Exact, ContractionMethod::bmps(3), ContractionMethod::ibmps(3)];
        for peps in [&complex, &real] {
            let projected = peps.project_onto_basis(&bits).unwrap();
            for method in methods {
                let want =
                    contract_no_phys(&projected, method, &mut StdRng::seed_from_u64(4)).unwrap();
                let got = amplitude(peps, &bits, method, &mut StdRng::seed_from_u64(4)).unwrap();
                assert_eq!(
                    (got.re.to_bits(), got.im.to_bits()),
                    (want.re.to_bits(), want.im.to_bits()),
                    "{method:?}: {got} vs {want}"
                );
            }
        }
        let too_large = [5, 0, 0, 0, 0, 0, 0, 0, 0];
        for (bad, want) in
            [(&bits[..4], ErrorKind::Shape), (&too_large, ErrorKind::InvalidArgument)]
        {
            let got = amplitude(&complex, bad, ContractionMethod::Exact, &mut rng).unwrap_err();
            assert_eq!(got.kind(), want, "{bad:?}");
            assert_eq!(complex.project_onto_basis(bad).unwrap_err().kind(), want, "{bad:?}");
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

    /// A batch draws one seed per bitstring and contracts each bitstring on
    /// its own stream: what [`amplitude`] returns on that stream, at any
    /// thread count.
    #[test]
    fn amplitude_batch_is_one_seeded_amplitude_per_bitstring() {
        let mut rng = StdRng::seed_from_u64(10);
        let peps = Peps::random(3, 3, 2, 2, &mut rng);
        let batch: Vec<Vec<usize>> =
            (0..5usize).map(|k| (0..9).map(|q| (k * 7 + q * 3) % 5 % 2).collect()).collect();
        let method = ContractionMethod::ibmps(3);
        let mut seeds = StdRng::seed_from_u64(11);
        let want: Vec<C64> = batch
            .iter()
            .map(|bits| {
                let mut own = StdRng::seed_from_u64(seeds.next_u64());
                amplitude(&peps, bits, method, &mut own).unwrap()
            })
            .collect();
        for threads in [1, 2, 4] {
            koala_exec::set_threads(threads);
            let mut counting = Counting { inner: StdRng::seed_from_u64(11), draws: 0 };
            let got = amplitude_batch(&peps, &batch, method, &mut counting).unwrap();
            assert_eq!(counting.draws, batch.len());
            let bits =
                |v: &[C64]| v.iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{threads} threads");
        }
        koala_exec::set_threads(1);
        let mut bad = batch.clone();
        bad[3][2] = 2;
        assert!(amplitude_batch(&peps, &bad, method, &mut rng).is_err());
    }

    /// A zip-up takes one draw per step when implicit and none when
    /// explicit, so a contraction takes `(nrows-1)(ncols-1)` under IBMPS
    /// and none under BMPS or `Exact`, at any thread count.
    #[test]
    fn draws_are_one_per_implicit_zip_up_step() {
        let mut rng = StdRng::seed_from_u64(12);
        let mps = Mps::random(5, 2, 3, &mut rng);
        let mpo = Mpo::random(5, 2, 2, &mut rng);
        for (zip, want) in [(ZipUpMethod::implicit_default(), 4), (ZipUpMethod::ExactSvd, 0)] {
            let mut counting = Counting { inner: StdRng::seed_from_u64(13), draws: 0 };
            zip_up(&mps, &mpo, 4, zip, &mut counting).unwrap();
            assert_eq!(counting.draws, want, "{zip:?}");
        }
        let peps = scaled_random_no_phys(4, 2, 14);
        let wide = Peps::random_no_phys(3, 5, 2, &mut rng);
        for threads in [1, 2] {
            koala_exec::set_threads(threads);
            for (p, ibmps_draws) in [(&peps, 3 * 3), (&wide, 2 * 4)] {
                for (method, want) in [
                    (ContractionMethod::ibmps(3), ibmps_draws),
                    (ContractionMethod::bmps(3), 0),
                    (ContractionMethod::Exact, 0),
                ] {
                    let mut counting = Counting { inner: StdRng::seed_from_u64(15), draws: 0 };
                    contract_no_phys(p, method, &mut counting).unwrap();
                    assert_eq!(counting.draws, want, "{method:?} at {threads} threads");
                }
            }
        }
        koala_exec::set_threads(1);
    }

    #[test]
    fn norm_and_inner_product_match_dense() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Peps::random(2, 2, 2, 2, &mut rng);
        let b = Peps::random(2, 2, 2, 2, &mut rng);
        let dense_inner = a.to_dense().unwrap().inner(&b.to_dense().unwrap()).unwrap();
        let merged = b.merge_with_bra(&a).unwrap();
        let got = contract_no_phys(&merged, ContractionMethod::bmps(32), &mut rng).unwrap();
        assert!(got.approx_eq(dense_inner, 1e-7), "{got} vs {dense_inner}");
        let n = norm_sqr(&a, ContractionMethod::Exact, &mut rng).unwrap();
        let dense_n = a.norm_sqr_dense().unwrap();
        assert!((n - dense_n).abs() < 1e-7 * dense_n.max(1.0));
    }

    #[test]
    fn row_conversion_rejects_physical_indices() {
        let mut rng = StdRng::seed_from_u64(8);
        let p = Peps::random(2, 2, 2, 2, &mut rng);
        assert!(row_as_mps(&p, 0).is_err());
        assert!(row_as_mpo(&p, 1).is_err());
    }
}

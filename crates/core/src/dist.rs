//! PEPS kernels driven through the simulated distributed-memory backend.
//!
//! These are the code paths behind the "ctf" evolution curves of the paper's
//! evaluation. The site tensors live as block-distributed matrices on a
//! [`Cluster`]; their scatters, QR factorizations and recombination GEMMs
//! move real blocks through the cluster. The einsumsvd on the small `R`
//! factors runs in local (replicated) memory under every variant, and its
//! MACs are billed to every rank. There is no distributed boundary
//! contraction. The evolution variants mirror Figure 7 and differ only in
//! the QR of step 1:
//!
//! * [`DistEvolutionVariant::CtfQrSvd`] — the baseline: site tensors are
//!   matricized and factorized with a gather/ScaLAPACK-style QR
//!   ([`qr_gather_dist`]), which gathers the full tensors,
//! * [`DistEvolutionVariant::LocalGramQrSvd`] — orthogonalization through
//!   the Gram matrix (Algorithm 5, [`gram_qr_dist`]): only the tiny Gram
//!   matrix is allreduced,
//! * [`DistEvolutionVariant::LocalGramQr`] runs exactly as `LocalGramQrSvd`.
//!   The paper's ctf-local-gram-qr ran its einsumsvd on distributed
//!   objects; this crate has no distributed einsumsvd, so that series is not
//!   reproduced.
//!
//! Every variant puts the two site matricizations on the cluster with the
//! one checksummed [`DistMatrix::scatter_block_cyclic`], so site transfers
//! carry the same ABFT column checksums — and are covered by the same
//! [`koala_cluster::FaultPlan`]s — as every other scatter.

use crate::peps::{Direction, Peps, Site};
use crate::update::{canonical_perms, compose5, invert5, small_einsumsvd, UpdateMethod};
use koala_cluster::{gram_qr_dist, qr_gather_dist, Cluster, DistMatrix, ProcGrid};
use koala_error::Result;
use koala_error::{KoalaError, ResultExt};
use koala_tensor::Tensor;

/// Which distributed evolution variant to run (the legend entries of Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistEvolutionVariant {
    /// `ctf-qr-svd`: matricize + gather-based QR of the full site tensors.
    CtfQrSvd,
    /// `ctf-local-gram-qr`: runs exactly as [`Self::LocalGramQrSvd`] (there
    /// is no distributed einsumsvd); kept because benchmark workloads name it.
    LocalGramQr,
    /// `ctf-local-gram-qr-svd`: Gram-matrix orthogonalization and local einsumsvd.
    LocalGramQrSvd,
}

impl DistEvolutionVariant {
    /// Short label matching the paper's plot legends.
    pub fn label(&self) -> &'static str {
        match self {
            DistEvolutionVariant::CtfQrSvd => "ctf-qr-svd",
            DistEvolutionVariant::LocalGramQr => "ctf-local-gram-qr",
            DistEvolutionVariant::LocalGramQrSvd => "ctf-local-gram-qr-svd",
        }
    }
}

/// Apply a two-site gate on a canonically oriented pair (`site_b` right of or
/// below `site_a`, as [`dist_tebd_layer`] lists them) with the QR-SVD update,
/// running the heavy factorizations on the virtual cluster. Returns the
/// truncation error of the refactorized bond. A reversed or non-neighbouring
/// pair is rejected before the PEPS or the cluster is touched.
pub(crate) fn dist_two_site_update(
    cluster: &Cluster,
    peps: &mut Peps,
    gate: &koala_linalg::Matrix,
    site_a: Site,
    site_b: Site,
    max_bond: usize,
    variant: DistEvolutionVariant,
) -> Result<f64> {
    let dir = match peps.direction_between(site_a, site_b) {
        Some(dir @ (Direction::Right | Direction::Down)) => dir,
        _ => {
            return Err(KoalaError::invalid(format!(
                "dist_two_site_update: {site_b:?} is not the right or lower neighbour of {site_a:?}"
            )))
        }
    };
    let d_a = peps.phys_dim(site_a);
    let d_b = peps.phys_dim(site_b);
    let truncation = UpdateMethod::qr_svd(max_bond).truncation();
    let (perm_a, perm_b) = canonical_perms(dir);
    let gate_t = Tensor::from_matrix_2d(gate).into_reshape(&[d_a, d_b, d_a, d_b])?;

    // ---- Step 1: QR of both site tensors on the cluster. ----
    // Each site tensor is permuted once, through its canonical layout
    // (a [pa, o1, o2, o3, bond], b [pb, bond, o1, o2, o3]), to
    // [o1, o2, o3, p, bond] and scattered as its matricization with the
    // outer bonds as rows, block-cyclic over a P x 1 grid, so the Gram path
    // — Gram allreduce, recombination GEMMs — runs without any full-tensor
    // gather or redistribution round-trip.
    // a: rows = outer bonds (o1,o2,o3), cols = (pa, bond)
    let a_mat_t = peps.tensor(site_a).permute(&compose5(perm_a, [1, 2, 3, 0, 4]))?;
    let a_rows: Vec<usize> = a_mat_t.shape()[..3].to_vec();
    let a_dist = scatter_site(cluster, &a_mat_t).context("dist_two_site_update")?;
    // b: rows = outer bonds (o1,o2,o3), cols = (pb, bond)
    let b_mat_t = peps.tensor(site_b).permute(&compose5(perm_b, [2, 3, 4, 0, 1]))?;
    let b_rows: Vec<usize> = b_mat_t.shape()[..3].to_vec();
    let b_dist = scatter_site(cluster, &b_mat_t).context("dist_two_site_update")?;

    // The variant chooses the QR, and nothing else. The Gram path can
    // degrade (ill-conditioned spectrum) or reject non-finite inputs; every
    // path can meet an unrecoverable fault.
    let qr = match variant {
        DistEvolutionVariant::CtfQrSvd => qr_gather_dist,
        _ => gram_qr_dist,
    };
    let qa = qr(&a_dist).context("dist_two_site_update")?;
    let qb = qr(&b_dist).context("dist_two_site_update")?;
    let ka = qa.r.nrows();
    let kb = qb.r.nrows();
    // R factors are small and replicated: [ka, pa, bond], [kb, pb, bond].
    let r_a = Tensor::fold(qa.r, &[ka], &[d_a, a_mat_t.dim(4)])?;
    let r_b = Tensor::fold(qb.r, &[kb], &[d_b, b_mat_t.dim(4)])?;

    // ---- Step 2: einsumsvd on the small factors. ----
    // Every variant runs it in local (replicated) memory: every rank performs
    // the identical small computation, no communication. Its MACs go to the
    // kernel the operands' realness hints select.
    let einsumsvd_real = gate_t.is_real() && r_a.is_real() && r_b.is_real();
    let macs = (ka * d_a * kb * d_b * (d_a * d_b + max_bond)) as u64;
    cluster.record_macs_all(macs, einsumsvd_real);
    let (rt_a, rt_b, err) = small_einsumsvd(&gate_t, &r_a, &r_b, truncation)?;
    let k = rt_a.dim(2);

    // ---- Step 3: recombine Q with the updated R factors (distributed GEMM,
    // no communication: Q keeps its row distribution, R~ is replicated). ----
    let rt_a_mat = rt_a.unfold(1); // [ka, pa*k]
    let new_a_dist = qa.q.matmul_replicated(&rt_a_mat);
    let rt_b_mat = rt_b.permute(&[1, 2, 0])?.into_unfold(1); // [kb, pb*k]
    let new_b_dist = qb.q.matmul_replicated(&rt_b_mat);

    // Bring the results back to the host PEPS (unaccounted: a real run keeps
    // the site tensors distributed between gate applications), each with one
    // permute: canonically [pa, o1, o2, o3, k] and [pb, k, o1, o2, o3], then
    // the PEPS layout.
    let new_a = Tensor::fold(new_a_dist.gather_unaccounted(), &a_rows, &[d_a, k])?;
    let new_b = Tensor::fold(new_b_dist.gather_unaccounted(), &b_rows, &[d_b, k])?;
    peps.set_tensor(site_a, new_a.permute(&compose5([3, 0, 1, 2, 4], invert5(perm_a)))?);
    peps.set_tensor(site_b, new_b.permute(&compose5([3, 4, 0, 1, 2], invert5(perm_b)))?);
    Ok(err)
}

/// Scatter the matricization of a permuted site tensor
/// `[o1, o2, o3, phys, bond]` — outer bonds as rows, `phys * bond` as
/// columns — from rank 0, block-cyclic over a `P x 1` grid. This is the
/// checksummed [`DistMatrix::scatter_block_cyclic`]: every block sent to
/// ranks `1..P` is billed as one point-to-point message and carries its
/// column checksum (`phys * bond` elements on
/// [`koala_cluster::CommStats::checksum_bytes`]), and an armed
/// [`koala_cluster::FaultPlan`] strikes it at
/// [`koala_cluster::FaultSite::ScatterBlock`].
///
/// The matricization is tall and skinny, so the rows go cyclically over all
/// `P` ranks — the TSQR-style layout under which Algorithm 5's Gram product
/// needs only an `ncols x ncols` allreduce. Spreading the skinny column
/// dimension over a second grid factor would reintroduce `O(m n)` column
/// reductions and lose the algorithm's asymptotic advantage; genuinely 2-D
/// layouts are for the square SUMMA products at the `koala_cluster` layer.
fn scatter_site(cluster: &Cluster, t: &Tensor) -> Result<DistMatrix> {
    let p = cluster.nranks();
    let m = t.unfold(3);
    let (row_block, col_block) = (cyclic_block(m.nrows(), p), cyclic_block(m.ncols(), 1));
    DistMatrix::scatter_block_cyclic(cluster, &m, ProcGrid::column(p), row_block, col_block)
}

/// Block size giving roughly two cyclic blocks per grid slot, so small site
/// matricizations still exercise the block-cyclic wrap-around.
fn cyclic_block(n: usize, parts: usize) -> usize {
    n.div_ceil(parts * 2).max(1)
}

/// Apply one layer of TEBD operators (the same two-site gate on every
/// nearest-neighbour pair) through the distributed kernel.
pub fn dist_tebd_layer(
    cluster: &Cluster,
    peps: &mut Peps,
    gate: &koala_linalg::Matrix,
    max_bond: usize,
    variant: DistEvolutionVariant,
) -> Result<f64> {
    let mut err_sq = 0.0;
    for (a, b) in peps.horizontal_pairs() {
        let e = dist_two_site_update(cluster, peps, gate, a, b, max_bond, variant)?;
        err_sq += e * e;
    }
    for (a, b) in peps.vertical_pairs() {
        let e = dist_two_site_update(cluster, peps, gate, a, b, max_bond, variant)?;
        err_sq += e * e;
    }
    Ok(err_sq.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{kron, pauli_x, pauli_z};
    use crate::update::apply_two_site;
    use koala_error::ErrorKind;
    use koala_linalg::{c64, expm_hermitian};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn entangling_gate() -> koala_linalg::Matrix {
        let h = &kron(&pauli_x(), &pauli_x()) + &kron(&pauli_z(), &pauli_z());
        expm_hermitian(&h, c64(0.0, -0.4)).unwrap()
    }

    #[test]
    fn dist_update_matches_local_update() {
        for variant in [DistEvolutionVariant::CtfQrSvd, DistEvolutionVariant::LocalGramQrSvd] {
            let mut rng = StdRng::seed_from_u64(1);
            let base = Peps::random(2, 2, 2, 2, &mut rng);
            let gate = entangling_gate();

            let cluster = Cluster::new(4);
            let mut dist_peps = base.clone();
            dist_two_site_update(&cluster, &mut dist_peps, &gate, (0, 0), (0, 1), 8, variant)
                .unwrap();

            let mut local_peps = base.clone();
            apply_two_site(&mut local_peps, &gate, (0, 0), (0, 1), UpdateMethod::qr_svd(8))
                .unwrap();

            let d1 = dist_peps.to_dense().unwrap();
            let d2 = local_peps.to_dense().unwrap();
            assert!(
                d1.approx_eq(&d2, 1e-6 * d2.norm_max().max(1.0)),
                "{} differs from the local reference",
                variant.label()
            );
        }
    }

    #[test]
    fn dist_update_works_in_all_directions() {
        let mut rng = StdRng::seed_from_u64(2);
        let base = Peps::random(2, 2, 2, 2, &mut rng);
        let gate = entangling_gate();
        let cluster = Cluster::new(3);
        let update = |peps: &mut Peps, a: Site, b: Site| {
            let variant = DistEvolutionVariant::LocalGramQrSvd;
            dist_two_site_update(&cluster, peps, &gate, a, b, 8, variant)
        };
        // Down, as `dist_tebd_layer` lists the vertical pairs.
        let (a, b) = ((0, 0), (1, 0));
        let mut dist_peps = base.clone();
        update(&mut dist_peps, a, b).unwrap();
        let mut local_peps = base.clone();
        apply_two_site(&mut local_peps, &gate, a, b, UpdateMethod::qr_svd(8)).unwrap();
        assert!(dist_peps.to_dense().unwrap().approx_eq(&local_peps.to_dense().unwrap(), 1e-6));

        // Left, Up and a diagonal pair are rejected untouched.
        cluster.reset_stats();
        for (a, b) in [((1, 1), (1, 0)), ((1, 0), (0, 0)), ((0, 0), (1, 1))] {
            let mut peps = base.clone();
            let err = update(&mut peps, a, b).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidArgument, "{a:?}-{b:?}: {err}");
            assert_eq!(peps.tensors(), base.tensors(), "{a:?}-{b:?}");
        }
        assert_eq!(cluster.stats(), koala_cluster::CommStats::new(3), "the cluster was touched");
    }

    #[test]
    fn real_workload_stays_real_per_rank_and_in_the_wires() {
        // A real product state evolved by a real (imaginary-time) gate must
        // keep every distributed object hinted real and bill zero complex
        // MACs to any rank, for every evolution variant.
        let h = &kron(&pauli_x(), &pauli_x()) + &kron(&pauli_z(), &pauli_z());
        let gate = expm_hermitian(&h, c64(-0.4, 0.0)).unwrap();
        assert!(gate.is_real(), "an imaginary-time Trotter gate of a real H is real");
        for variant in [DistEvolutionVariant::CtfQrSvd, DistEvolutionVariant::LocalGramQrSvd] {
            let mut peps = Peps::computational_zeros(2, 2);
            assert!(peps.tensors().iter().all(|t| t.is_real()));
            let cluster = Cluster::new(4);
            dist_two_site_update(&cluster, &mut peps, &gate, (0, 0), (0, 1), 8, variant).unwrap();
            assert!(
                peps.tensors().iter().all(|t| t.is_real()),
                "{}: site tensors lost the realness hint",
                variant.label()
            );
            let stats = cluster.stats();
            assert_eq!(
                stats.total_flops(),
                0,
                "{}: a real workload billed complex MACs to the cluster",
                variant.label()
            );
            assert!(stats.total_real_macs() > 0, "{}: no real work recorded", variant.label());
        }
    }

    #[test]
    fn gram_gate_update_is_gather_free_on_a_column_grid() {
        // The Gram-path gate update must stay distributed end to end: site
        // matricizations scatter block-cyclically over a `P x 1` grid (not
        // the cluster's default 2-D grid), the Gram matrix needs one small
        // allreduce, and the recombination GEMMs keep Q in place — no
        // full-tensor gather, no redistribution. The gather-QR baseline, by
        // contrast, bills its gathers.
        let mut rng = StdRng::seed_from_u64(9);
        let base = Peps::random(2, 2, 2, 3, &mut rng);
        let gate = entangling_gate();

        let cluster = Cluster::new(4);
        let site = base.tensor((0, 0)).permute(&[1, 2, 3, 0, 4]).unwrap();
        let d = scatter_site(&cluster, &site).unwrap();
        assert_eq!(d.grid(), ProcGrid::column(4));
        assert_eq!(d.shape(), site.unfold(3).shape());
        let update = |variant| {
            let (cluster, mut p) = (Cluster::new(4), base.clone());
            dist_two_site_update(&cluster, &mut p, &gate, (0, 0), (0, 1), 6, variant).unwrap();
            cluster.stats()
        };
        let stats = update(DistEvolutionVariant::LocalGramQrSvd);
        assert_eq!(stats.full_gathers, 0, "Gram path must never gather a full tensor");
        assert_eq!(stats.redistributions, 0, "sites scatter straight into the QR layout");
        let stats = update(DistEvolutionVariant::CtfQrSvd);
        assert!(stats.full_gathers > 0, "gather-QR baseline bills its gathers");
    }

    #[test]
    fn local_gram_qr_runs_exactly_as_local_gram_qr_svd() {
        let base = Peps::random(3, 3, 2, 3, &mut StdRng::seed_from_u64(4));
        let run = |variant| {
            let (cluster, mut peps) = (Cluster::new(4), base.clone());
            let err = dist_tebd_layer(&cluster, &mut peps, &entangling_gate(), 4, variant).unwrap();
            let sites = peps.tensors().iter().flat_map(|t| t.data().to_vec());
            let bits: Vec<_> = sites.map(|z| (z.re.to_bits(), z.im.to_bits())).collect();
            (err.to_bits(), bits, cluster.stats())
        };
        let variants = [DistEvolutionVariant::LocalGramQr, DistEvolutionVariant::LocalGramQrSvd];
        assert!(run(variants[0]) == run(variants[1]), "site bits, error or CommStats differ");
    }

    /// `CommStats` of one `dist_tebd_layer` on the seeded case of
    /// `site_scatters_add_only_their_column_checksums`, as billed while site
    /// tensors were still scattered without checksums: `(bytes, messages,
    /// collectives, redistributions, full_gathers, checksum_bytes,
    /// rank_flops)`.
    type Pinned = (u64, u64, u64, u64, u64, u64, [u64; 4]);
    const UNCHECKED_SITE_SCATTERS: [(DistEvolutionVariant, Pinned); 3] = [
        (
            DistEvolutionVariant::CtfQrSvd,
            (107_808, 288, 48, 24, 24, 12_864, [39_800, 14_336, 13_904, 13_472]),
        ),
        (
            DistEvolutionVariant::LocalGramQr,
            (65_760, 216, 24, 0, 0, 0, [30_768, 30_288, 29_208, 27_888]),
        ),
        (
            DistEvolutionVariant::LocalGramQrSvd,
            (65_760, 216, 24, 0, 0, 0, [30_768, 30_288, 29_208, 27_888]),
        ),
    ];

    #[test]
    fn site_scatters_add_only_their_column_checksums() {
        // Scattering the site matricizations through the checksummed
        // `DistMatrix` scatter changes one counter: every block sent to
        // ranks 1..P carries one checksum element per local column, i.e.
        // `phys * bond` elements per rank and site, two sites per update.
        use crate::peps::{AX_D, AX_R};
        use koala_cluster::ELEM_BYTES;
        let gate = entangling_gate();
        let nranks = 4;
        for (variant, pinned) in UNCHECKED_SITE_SCATTERS {
            let mut rng = StdRng::seed_from_u64(11);
            let base = Peps::random(3, 3, 2, 3, &mut rng);

            let cluster = Cluster::new(nranks);
            let mut peps = base.clone();
            dist_tebd_layer(&cluster, &mut peps, &gate, 4, variant).unwrap();
            let s = cluster.stats();

            // Replay the layer pair by pair to read each update's bond.
            let (replay, mut replayed) = (Cluster::new(nranks), base.clone());
            let mut site_sums = 0;
            let horizontal = base.horizontal_pairs().into_iter().map(|p| (p, AX_R));
            let vertical = base.vertical_pairs().into_iter().map(|p| (p, AX_D));
            for ((a, b), axis) in horizontal.chain(vertical) {
                let bond = replayed.tensor(a).dim(axis);
                let cols = (replayed.phys_dim(a) + replayed.phys_dim(b)) * bond;
                site_sums += ((nranks - 1) * cols) as u64 * ELEM_BYTES;
                dist_two_site_update(&replay, &mut replayed, &gate, a, b, 4, variant).unwrap();
            }

            let (bytes, messages, collectives, redistributions, full_gathers, checksum, flops) =
                pinned;
            let label = variant.label();
            assert_eq!(s.bytes_communicated, bytes, "{label}");
            assert_eq!(s.messages, messages, "{label}");
            assert_eq!(s.collectives, collectives, "{label}");
            assert_eq!(s.redistributions, redistributions, "{label}");
            assert_eq!(s.full_gathers, full_gathers, "{label}");
            assert_eq!(s.rank_flops, flops, "{label}");
            assert_eq!(s.rank_real_macs, [0; 4], "{label}");
            assert_eq!((s.retries, s.retry_bytes), (0, 0), "{label}");
            assert!(s.rounds.is_empty(), "{label}: no SUMMA on the P x 1 path");
            assert_eq!(s.checksum_bytes, checksum + site_sums, "{label}");
        }
    }
}

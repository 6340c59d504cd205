//! `cluster_tebd` — Fig. 7b: one TEBD layer through the simulated
//! distributed backend, once per `DistEvolutionVariant`, each on a fresh
//! 16-rank `Cluster`, on a 4x4, r = 6 PEPS from a pool of 6 seeded random
//! states (72 bond updates per iteration). The Gram-QR variants' time depends
//! on the state by up to 20 % at identical counts, hence the pool.
//!
//! `cluster::{dist_tensor, dist_matrix, stats}` and `core::dist` are the
//! only heavy layers here; the communication counters repeat exactly and
//! are reported as counts.

use super::{tebd_gate, within, Control, Revisits, Workload};
use crate::gen::{Fnv, SplitMix};
use crate::probe::{self, Metrics};
use crate::trace::{per_iteration, spanned, Span, Tracer};
use koala_cluster::{Cluster, CommStats, CostModel};
use koala_linalg::{matmul_adj_a, Matrix};
use koala_peps::{
    apply_two_site_everywhere, dist_tebd_layer, DistEvolutionVariant, Peps, UpdateMethod,
};

const SIDE: usize = 4;
const BOND: usize = 6;
const RANKS: usize = 16;
const POOL: usize = 6;
const VARIANTS: [DistEvolutionVariant; 3] = [
    DistEvolutionVariant::CtfQrSvd,
    DistEvolutionVariant::LocalGramQr,
    DistEvolutionVariant::LocalGramQrSvd,
];
/// Bond updates per iteration: one layer per variant.
const UNITS: u64 = (VARIANTS.len() * 2 * SIDE * (SIDE - 1)) as u64;

/// The counts of a `CommStats` that must repeat exactly.
type CommCounts = (u64, u64, u64, u64, u64, u64, usize, Vec<u64>, Vec<u64>);

fn counts(s: &CommStats) -> CommCounts {
    (
        s.bytes_communicated,
        s.messages,
        s.collectives,
        s.redistributions,
        s.full_gathers,
        s.checksum_bytes,
        s.rounds.len(),
        s.rank_flops.clone(),
        s.rank_real_macs.clone(),
    )
}

pub struct ClusterTebd {
    pool: Vec<Peps>,
    gate: Matrix,
    work: Vec<Peps>,
    clusters: Vec<Cluster>,
    errors: Vec<f64>,
    first_counts: Option<Vec<CommCounts>>,
    local_errors: Vec<Option<f64>>,
    revisits: Revisits,
    wrong_reference: bool,
}

impl ClusterTebd {
    pub fn build(stream: &mut SplitMix, control: Control) -> Self {
        let mut rng = stream.rng();
        ClusterTebd {
            pool: (0..POOL).map(|_| Peps::random(SIDE, SIDE, 2, BOND, &mut rng)).collect(),
            gate: tebd_gate(),
            work: Vec::new(),
            clusters: Vec::new(),
            errors: Vec::new(),
            first_counts: None,
            local_errors: vec![None; POOL],
            revisits: Revisits::new(POOL),
            wrong_reference: control.wrong_reference,
        }
    }
}

impl Workload for ClusterTebd {
    fn units(&self) -> u64 {
        UNITS
    }

    fn cycle(&self) -> usize {
        POOL
    }

    fn prepare(&mut self, i: usize) {
        self.work = VARIANTS.iter().map(|_| self.pool[i % POOL].clone()).collect();
    }

    fn run(&mut self, _i: usize, mut tracer: Option<&mut Tracer>) -> Result<(), String> {
        self.clusters.clear();
        self.errors.clear();
        for (variant, peps) in VARIANTS.iter().zip(self.work.iter_mut()) {
            let cluster = Cluster::new(RANKS);
            let err = spanned(&mut tracer, "core.dist_tebd_layer", || {
                dist_tebd_layer(&cluster, peps, &self.gate, BOND, *variant)
            })
            .map_err(|e| e.to_string())?;
            self.clusters.push(cluster);
            self.errors.push(err);
        }
        Ok(())
    }

    fn check(&mut self, i: usize) -> Result<(), String> {
        let stats: Vec<CommStats> = self.clusters.iter().map(Cluster::stats).collect();
        for (variant, s) in VARIANTS.iter().zip(&stats).skip(1) {
            if s.full_gathers != 0 {
                return Err(format!(
                    "{}: {} full gathers, expected none",
                    variant.label(),
                    s.full_gathers
                ));
            }
        }
        let now: Vec<CommCounts> = stats.iter().map(counts).collect();
        let first = self.first_counts.get_or_insert_with(|| now.clone());
        if *first != now {
            return Err("communication counters differ from the first iteration".into());
        }
        let local = *self.local_errors[i % POOL].get_or_insert_with(|| {
            let mut peps = self.pool[i % POOL].clone();
            let shift = if self.wrong_reference { 1e-6 } else { 0.0 };
            apply_two_site_everywhere(&mut peps, &self.gate, UpdateMethod::qr_svd(BOND))
                .unwrap_or(f64::NAN)
                + shift
        });
        for (variant, err) in VARIANTS.iter().zip(&self.errors) {
            if !within((err - local).abs(), 1e-8) {
                return Err(format!(
                    "{}: truncation error {err} differs from local QR-SVD {local}",
                    variant.label()
                ));
            }
        }
        let mut sum = Fnv::new();
        self.work.iter().flat_map(|p| p.tensors()).for_each(|t| sum.tensor(t));
        self.revisits.observe(i % POOL, sum.finish(), false)
    }

    fn input_checksum(&self) -> u64 {
        let mut sum = Fnv::new();
        self.pool.iter().flat_map(|p| p.tensors()).for_each(|t| sum.tensor(t));
        sum.finish()
    }

    fn layer_metrics(&mut self, spans: &[Span], _iter_ms: f64) -> Metrics {
        let mut out = Metrics::new();
        let (update_ms, _) = per_iteration(spans, "core.dist_tebd_layer");
        out.push(("core.update_ms", update_ms));
        out.push(("cluster.variant_ms", update_ms / VARIANTS.len() as f64));
        out.push(("core.truncation_error", self.errors.first().copied().unwrap_or(f64::NAN)));
        out.push(("core.max_bond", self.work.first().map_or(0, Peps::max_bond) as f64));

        let stats: Vec<CommStats> = self.clusters.iter().map(Cluster::stats).collect();
        let model = CostModel::default();
        let total = |f: fn(&CommStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
        out.push(("cluster.bytes", total(|s| s.bytes_communicated)));
        out.push(("cluster.messages", total(|s| s.messages)));
        out.push(("cluster.collectives", total(|s| s.collectives)));
        out.push(("cluster.redistributions", total(|s| s.redistributions)));
        out.push(("cluster.full_gathers", total(|s| s.full_gathers)));
        out.push(("cluster.rounds", total(|s| s.rounds.len() as u64)));
        out.push(("cluster.checksum_bytes", total(|s| s.checksum_bytes)));
        let max_rank_macs = stats
            .iter()
            .flat_map(|s| s.rank_flops.iter().zip(&s.rank_real_macs).map(|(c, r)| c + r))
            .max()
            .unwrap_or(0);
        out.push(("cluster.max_rank_macs", max_rank_macs as f64));
        out.push((
            "cluster.load_imbalance",
            stats.iter().map(CommStats::load_imbalance).fold(0.0, f64::max),
        ));
        out.push(("cluster.modelled_s", stats.iter().map(|s| model.modelled_time(s)).sum()));
        out.push((
            "cluster.modelled_overlap_s",
            stats.iter().map(|s| model.modelled_time_overlap(s)).sum(),
        ));

        // The factorizations under one distributed update, at its shapes:
        // gather-QR of the matricized site, eigh of its Gram matrix, SVD of
        // the small theta.
        if let Ok(a) = self.pool[0].tensor((1, 1)).permute(&[1, 2, 3, 0, 4]).map(|t| t.unfold(3)) {
            let gram = matmul_adj_a(&a, &a);
            let mut rng = SplitMix::for_workload(0, "cluster_tebd.probes").rng();
            let theta = Matrix::random(2 * a.ncols(), 2 * a.ncols(), &mut rng);
            probe::linalg(&mut out, Some(&theta), Some(&a), None, Some(&gram));
        }
        let lower = 2.0 * probe::value(&out, "linalg.qr_ms") + probe::value(&out, "linalg.svd_ms");
        out.push(("core.update_self_frac", probe::self_frac(update_ms / UNITS as f64, lower)));
        out
    }
}

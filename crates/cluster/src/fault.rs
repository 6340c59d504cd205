//! Deterministic, seeded fault injection for the virtual cluster.
//!
//! A [`FaultPlan`] describes *what can go wrong* on the simulated machine —
//! corrupted or dropped broadcast blocks, a rank dying at a given SUMMA
//! round, chronically slow ranks — and a seed that makes every run of the
//! plan reproducible. The plan is armed on a [`crate::Cluster`]
//! ([`crate::Cluster::arm_faults`]); the communication layer then consults it
//! at every fault *site* (each panel delivery, each gathered block, each
//! per-rank round computation) and records what actually struck in a
//! [`FaultLog`].
//!
//! Determinism is the point: each collective takes an operation number once,
//! and the decision at a site is a pure function of `(seed, operation, site,
//! attempt)` (a splitmix64 hash), not of query order — so an armed plan runs
//! on the production pool and logs the same faults at any thread count.
//! Probabilistic faults are *transient* by default: a retry of the same
//! transfer succeeds, unless the plan is marked [`FaultPlan::persistent`]
//! (used to test bounded-retry exhaustion).
//!
//! The recovery side lives in `dist_matrix`: Huang–Abraham checksum vectors
//! carried with every SUMMA panel and gather/scatter block detect damaged
//! deliveries, and a bounded per-transfer retry repairs them (billed to
//! [`crate::CommStats::retries`] / [`crate::CommStats::retry_bytes`]).

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: a cheap, well-mixed hash used to derive every fault
/// decision from its key without any shared RNG state.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to a uniform sample in `[0, 1)`.
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The decision hash: the key's parts folded into `seed` one at a time.
fn decision_hash(seed: u64, op: u64, site: FaultSite, attempt: usize) -> u64 {
    let (variant, round, rank) = match site {
        FaultSite::SummaPanelA { round, rank } => (0, round, rank),
        FaultSite::SummaPanelB { round, rank } => (1, round, rank),
        FaultSite::SummaCompute { round, rank } => (2, round, rank),
        FaultSite::GatherBlock { rank } => (3, 0, rank),
        FaultSite::ScatterBlock { rank } => (4, 0, rank),
    };
    let key = [op, variant, round as u64, rank as u64, attempt as u64];
    key.into_iter().fold(seed, |h, x| splitmix64(h ^ x.wrapping_mul(GOLDEN)))
}

/// Element of a nonempty `len`-element buffer that a [`FaultKind::Corrupt`]
/// fault with decision hash `hash` damages.
pub(crate) fn corrupt_index(hash: u64, len: usize) -> usize {
    (splitmix64(hash) % len as u64) as usize
}

/// Where in the communication fabric a fault can strike. Each variant names
/// one *delivery* or one *per-rank computation* — the granularity at which
/// the ABFT layer detects and retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum FaultSite {
    /// Delivery of a SUMMA `A` panel to one receiving rank in a grid row.
    SummaPanelA {
        /// SUMMA round (depth-panel index).
        round: usize,
        /// Receiving rank.
        rank: usize,
    },
    /// Delivery of a SUMMA `B` panel to one receiving rank in a grid column.
    SummaPanelB {
        /// SUMMA round (depth-panel index).
        round: usize,
        /// Receiving rank.
        rank: usize,
    },
    /// One rank's local accumulation step of a SUMMA round (the site where a
    /// planned rank failure strikes).
    SummaCompute {
        /// SUMMA round (depth-panel index).
        round: usize,
        /// Computing rank.
        rank: usize,
    },
    /// Delivery of one rank's block during a gather/allgather.
    GatherBlock {
        /// Sending rank.
        rank: usize,
    },
    /// Delivery of one rank's block during a scatter.
    ScatterBlock {
        /// Receiving rank.
        rank: usize,
    },
}

/// What kind of fault struck a [`FaultSite`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// The block arrived with corrupted elements.
    Corrupt,
    /// The block never arrived (the receiver sees zeros).
    Drop,
    /// The rank died mid-round and restarts, losing the round's panels.
    RankFailure,
    /// The rank computes at a fraction of full speed (persistent while the
    /// plan is armed; logged once when armed).
    Slow,
}

/// One injected fault, as recorded in the [`FaultLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Collective the fault struck, numbered from 1 (0: logged at arming).
    pub op: u64,
    /// Where the fault struck.
    pub site: FaultSite,
    /// What struck.
    pub kind: FaultKind,
    /// Delivery attempt the fault struck on (0 = first transfer; transient
    /// faults only ever strike attempt 0).
    pub attempt: usize,
}

/// Every fault a plan injected, sorted by (operation, site, attempt) — the
/// observable, comparable "what happened" of a faulty run. Two runs of the
/// same workload under the same seed produce equal logs.
pub type FaultLog = Vec<FaultEvent>;

/// A deterministic, seeded description of the faults to inject into a
/// [`crate::Cluster`]. Built with the fluent setters, then armed with
/// [`crate::Cluster::arm_faults`]:
///
/// ```
/// use koala_cluster::FaultPlan;
/// let plan = FaultPlan::seeded(42)
///     .corrupt_prob(0.05)
///     .drop_prob(0.01)
///     .fail_rank(2, 1) // rank 2 dies in SUMMA round 1
///     .slow_rank(3, 2.5); // rank 3 runs 2.5x slower
/// assert_eq!(plan.seed(), 42);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    corrupt_prob: f64,
    drop_prob: f64,
    rank_failure: Option<(usize, usize)>,
    slow: Vec<(usize, f64)>,
    persistent: bool,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled yet.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            corrupt_prob: 0.0,
            drop_prob: 0.0,
            rank_failure: None,
            slow: Vec::new(),
            persistent: false,
        }
    }

    /// Probability that any single block delivery arrives corrupted.
    #[must_use]
    pub fn corrupt_prob(mut self, p: f64) -> Self {
        self.corrupt_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Probability that any single block delivery is dropped (received as
    /// zeros).
    #[must_use]
    pub fn drop_prob(mut self, p: f64) -> Self {
        self.drop_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Kill `rank` at SUMMA round `round` (fires once: the restarted rank
    /// re-fetches the round's panels and the run continues).
    #[must_use]
    pub fn fail_rank(mut self, rank: usize, round: usize) -> Self {
        self.rank_failure = Some((rank, round));
        self
    }

    /// Mark `rank` as computing `factor`x slower than its peers (factor >= 1;
    /// its billed work is scaled so the cost model sees the straggler on the
    /// compute critical path).
    #[must_use]
    pub fn slow_rank(mut self, rank: usize, factor: f64) -> Self {
        self.slow.push((rank, factor.max(1.0)));
        self
    }

    /// Make probabilistic faults strike *every* delivery attempt instead of
    /// only the first. Used to test that bounded retries exhaust cleanly.
    #[must_use]
    pub fn persistent(mut self) -> Self {
        self.persistent = true;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Slowdown factor of `rank` (1.0 when the rank is full speed).
    pub(crate) fn slow_factor(&self, rank: usize) -> f64 {
        self.slow.iter().filter(|(r, _)| *r == rank).map(|(_, f)| *f).fold(1.0, f64::max)
    }
}

/// A decision that struck: its kind and its decision hash.
pub(crate) type Strike = (FaultKind, u64);

/// Live injection state of an armed plan: the operations numbered so far,
/// the once-only rank-failure latch, and the log.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    ops: u64,
    rank_failure_armed: bool,
    log: FaultLog,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        // Slow ranks are a standing condition, not a discrete strike: log
        // them once, up front, so the log names every degradation in play.
        let log = (plan.slow.iter())
            .map(|&(rank, _)| FaultEvent {
                op: 0,
                site: FaultSite::SummaCompute { round: 0, rank },
                kind: FaultKind::Slow,
                attempt: 0,
            })
            .collect();
        FaultState { rank_failure_armed: plan.rank_failure.is_some(), plan, ops: 0, log }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub(crate) fn begin_op(&mut self) -> u64 {
        self.ops += 1;
        self.ops
    }

    pub(crate) fn into_log(mut self) -> FaultLog {
        self.log.sort_by_key(|ev| (ev.op, ev.site, ev.attempt));
        self.log
    }

    /// Decide whether a fault strikes `site` on delivery `attempt` of
    /// operation `op`: a pure function of `(seed, op, site, attempt)`, so
    /// the order of one operation's queries does not matter. The
    /// rank-failure latch is the only state, and only its site trips it.
    pub(crate) fn decide(&mut self, op: u64, site: FaultSite, attempt: usize) -> Option<Strike> {
        let hash = decision_hash(self.plan.seed, op, site, attempt);
        let kind = if let FaultSite::SummaCompute { round, rank } = site {
            if !(self.rank_failure_armed && self.plan.rank_failure == Some((rank, round))) {
                return None;
            }
            self.rank_failure_armed = false;
            FaultKind::RankFailure
        } else if attempt > 0 && !self.plan.persistent {
            // Transient faults strike a given transfer once; the retry is
            // clean by construction.
            return None;
        } else {
            let u = unit_f64(hash);
            if u < self.plan.drop_prob {
                FaultKind::Drop
            } else if u < self.plan.drop_prob + self.plan.corrupt_prob {
                FaultKind::Corrupt
            } else {
                return None;
            }
        };
        self.log.push(FaultEvent { op, site, kind, attempt });
        Some((kind, hash))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One operation querying `queries` sites, in the order given.
    fn drain(plan: FaultPlan, queries: impl Iterator<Item = usize>) -> FaultLog {
        let mut s = FaultState::new(plan);
        let op = s.begin_op();
        for i in queries {
            let _ = s.decide(op, FaultSite::SummaPanelA { round: i, rank: 0 }, 0);
        }
        s.into_log()
    }

    #[test]
    fn same_seed_same_sequence_in_any_query_order() {
        let plan = FaultPlan::seeded(7).corrupt_prob(0.2).drop_prob(0.1);
        let a = drain(plan.clone(), 0..200);
        let b = drain(plan, (0..200).rev());
        assert_eq!(a, b);
        assert!(!a.is_empty(), "prob 0.3 over 200 queries should strike");
        assert!(a.windows(2).all(|w| w[0].site < w[1].site), "sorted by site");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = drain(FaultPlan::seeded(1).corrupt_prob(0.3), 0..300);
        let b = drain(FaultPlan::seeded(2).corrupt_prob(0.3), 0..300);
        assert_ne!(
            a, b,
            "two seeds striking identically at every one of 300 sites is (astronomically) unlikely"
        );
    }

    #[test]
    fn operations_are_numbered_from_one_and_key_the_decision() {
        let mut s = FaultState::new(FaultPlan::seeded(5).corrupt_prob(0.5));
        let site = FaultSite::ScatterBlock { rank: 1 };
        let ops: Vec<u64> = (0..64).map(|_| s.begin_op()).collect();
        assert_eq!(ops[..3], [1, 2, 3]);
        let struck: Vec<bool> = ops.iter().map(|&op| s.decide(op, site, 0).is_some()).collect();
        assert!(struck.contains(&true) && struck.contains(&false), "the op number is a hash input");
        let log = s.into_log();
        assert!(log.iter().all(|ev| ev.site == site && ev.op >= 1));
    }

    #[test]
    fn transient_faults_spare_retries_persistent_ones_do_not() {
        let mut s = FaultState::new(FaultPlan::seeded(3).corrupt_prob(1.0));
        let site = FaultSite::GatherBlock { rank: 1 };
        assert!(s.decide(1, site, 0).is_some());
        assert!(s.decide(1, site, 1).is_none(), "transient: retry is clean");
        let mut p = FaultState::new(FaultPlan::seeded(3).corrupt_prob(1.0).persistent());
        assert!(p.decide(1, site, 0).is_some());
        assert!(p.decide(1, site, 1).is_some(), "persistent: retry struck too");
    }

    #[test]
    fn rank_failure_fires_exactly_once_at_its_round() {
        let mut s = FaultState::new(FaultPlan::seeded(0).fail_rank(2, 5));
        assert!(s.decide(1, FaultSite::SummaCompute { round: 4, rank: 2 }, 0).is_none());
        assert!(s.decide(1, FaultSite::SummaCompute { round: 5, rank: 1 }, 0).is_none());
        let ev = s.decide(1, FaultSite::SummaCompute { round: 5, rank: 2 }, 0);
        assert_eq!(ev.map(|(kind, _)| kind), Some(FaultKind::RankFailure));
        assert!(
            s.decide(2, FaultSite::SummaCompute { round: 5, rank: 2 }, 0).is_none(),
            "fires once"
        );
    }

    #[test]
    fn slow_ranks_are_logged_on_arming_and_scale_work() {
        let plan = FaultPlan::seeded(9).slow_rank(3, 2.5);
        assert_eq!(plan.slow_factor(3), 2.5);
        assert_eq!(plan.slow_factor(0), 1.0);
        let log = FaultState::new(plan).into_log();
        assert_eq!(log.len(), 1);
        assert_eq!((log[0].op, log[0].kind), (0, FaultKind::Slow));
    }
}

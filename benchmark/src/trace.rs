//! In-memory spans and counter snapshots, recorded by benchmark code around
//! calls into library public functions.
//!
//! A span carries its name, start, end, the span that caused it, the
//! iteration it belongs to, and the change of every public library counter
//! between its two boundaries. Spans are kept in memory and written once,
//! when the traced run ends, as Chrome-trace JSON.

use koala_json::JsonValue;
use std::time::Instant;

/// Snapshot of every public library counter the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub complex_macs: u64,
    pub real_macs: u64,
    pub bytes: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub transposes: u64,
    pub svd_sweep_escalations: u64,
    pub gram_svd_fallbacks: u64,
    pub qr_degradations: u64,
    pub rsvd_resketches: u64,
    pub nonfinite_detections: u64,
}

impl Counters {
    /// Read all counters now.
    pub fn now() -> Counters {
        let work = koala_linalg::WorkMeter::global().ledger();
        let plans = koala_tensor::plan_stats();
        let rec = koala_error::recovery::snapshot();
        Counters {
            complex_macs: work.complex_macs,
            real_macs: work.real_macs,
            bytes: work.bytes,
            plan_hits: plans.hits,
            plan_misses: plans.misses,
            transposes: koala_linalg::transpose_counter(),
            svd_sweep_escalations: rec.svd_sweep_escalations,
            gram_svd_fallbacks: rec.gram_svd_fallbacks,
            qr_degradations: rec.qr_degradations,
            rsvd_resketches: rec.rsvd_resketches,
            nonfinite_detections: rec.nonfinite_detections,
        }
    }

    /// `self - earlier`, field by field (all counters are monotonic).
    pub fn minus(&self, earlier: &Counters) -> Counters {
        Counters {
            complex_macs: self.complex_macs - earlier.complex_macs,
            real_macs: self.real_macs - earlier.real_macs,
            bytes: self.bytes - earlier.bytes,
            plan_hits: self.plan_hits - earlier.plan_hits,
            plan_misses: self.plan_misses - earlier.plan_misses,
            transposes: self.transposes - earlier.transposes,
            svd_sweep_escalations: self.svd_sweep_escalations - earlier.svd_sweep_escalations,
            gram_svd_fallbacks: self.gram_svd_fallbacks - earlier.gram_svd_fallbacks,
            qr_degradations: self.qr_degradations - earlier.qr_degradations,
            rsvd_resketches: self.rsvd_resketches - earlier.rsvd_resketches,
            nonfinite_detections: self.nonfinite_detections - earlier.nonfinite_detections,
        }
    }

    /// Hardware flops of the GEMM work (complex MAC = 8, real MAC = 2).
    pub fn hw_flops(&self) -> f64 {
        8.0 * self.complex_macs as f64 + 2.0 * self.real_macs as f64
    }
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iter: usize,
    /// Counter change between the span's boundaries.
    pub counters: Counters,
    /// Factor that rescales this span's wall time to the reference clock
    /// (that of its iteration; 1 until the iteration has been scaled).
    pub clock_scale: f64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration at the reference clock, in ms.
    pub fn ms(&self) -> f64 {
        self.duration_ns() as f64 / 1e6 * self.clock_scale
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Span recorder. Spans nest by enter/exit order on the calling thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Counters)>,
    iter: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), iter: 0 }
    }

    /// Iteration id stamped on spans entered from now on.
    pub fn set_iteration(&mut self, iter: usize) {
        self.iter = iter;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let parent = self.open.last().map(|&(idx, _)| idx);
        let idx = self.spans.len();
        let counters = Counters::now();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            iter: self.iter,
            counters: Counters::default(),
            clock_scale: 1.0,
        });
        self.open.push((idx, counters));
        // Read the clock last so the span excludes its own bookkeeping.
        self.spans[idx].start_ns = self.epoch.elapsed().as_nanos() as u64;
        SpanId(idx)
    }

    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let (idx, before) = self.open.pop().expect("exit without a matching enter");
        assert_eq!(idx, id.0, "spans must exit in reverse order of entry");
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.counters = Counters::now().minus(&before);
    }

    /// Set the clock scale of every span of the iteration just recorded.
    pub fn scale_iteration(&mut self, iter: usize, clock_scale: f64) {
        for span in self.spans.iter_mut().rev().take_while(|s| s.iter == iter) {
            span.clock_scale = clock_scale;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome-trace ("Trace Event Format") document of every span.
    pub fn to_chrome_trace(&self, process: &str) -> JsonValue {
        let mut events = vec![JsonValue::object([
            ("name", JsonValue::str("process_name")),
            ("ph", JsonValue::str("M")),
            ("pid", JsonValue::num(1.0)),
            ("args", JsonValue::object([("name", JsonValue::str(process))])),
        ])];
        for (idx, s) in self.spans.iter().enumerate() {
            let c = &s.counters;
            events.push(JsonValue::object([
                ("name", JsonValue::str(s.name)),
                ("ph", JsonValue::str("X")),
                ("pid", JsonValue::num(1.0)),
                ("tid", JsonValue::num(1.0)),
                ("ts", JsonValue::num(s.start_ns as f64 / 1e3)),
                ("dur", JsonValue::num(s.duration_ns() as f64 / 1e3)),
                (
                    "args",
                    JsonValue::object([
                        ("span", JsonValue::num(idx as f64)),
                        ("parent", s.parent.map_or(JsonValue::Null, |p| JsonValue::num(p as f64))),
                        ("iteration", JsonValue::num(s.iter as f64)),
                        ("complex_macs", JsonValue::num(c.complex_macs as f64)),
                        ("real_macs", JsonValue::num(c.real_macs as f64)),
                        ("bytes", JsonValue::num(c.bytes as f64)),
                        ("plan_hits", JsonValue::num(c.plan_hits as f64)),
                        ("plan_misses", JsonValue::num(c.plan_misses as f64)),
                    ]),
                ),
            ]));
        }
        JsonValue::object([("traceEvents", JsonValue::Array(events))])
    }
}

/// Run `f` inside a span called `name` when tracing, plainly otherwise.
pub fn spanned<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => {
            let id = t.enter(name);
            let value = f();
            t.exit(id);
            value
        }
        None => f(),
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// For the spans called `name`: the median over iterations of their summed
/// duration within one iteration (ms at the reference clock), and how many
/// there are per iteration.
pub fn per_iteration(spans: &[Span], name: &str) -> (f64, usize) {
    let mut by_iter: std::collections::BTreeMap<usize, (f64, usize)> = Default::default();
    for s in spans.iter().filter(|s| s.name == name) {
        let e = by_iter.entry(s.iter).or_insert((0.0, 0));
        e.0 += s.ms();
        e.1 += 1;
    }
    let sums: Vec<f64> = by_iter.values().map(|e| e.0).collect();
    (crate::stats::median(&sums), by_iter.values().next().map_or(0, |e| e.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iter: 0,
            counters: Counters::default(),
            clock_scale: 1.0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 50, Some(0)), // overlaps `a` by 5
            span("c", 60, 70, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - (40 + 10)); // [10,50) and [60,70)
        assert_eq!(own[1], 20 - 8);
        assert_eq!(own[2], 25);
        assert_eq!(own[3], 10);
        assert_eq!(own[4], 8);
        // Self times of a tree of sequential children add up to the root.
        let seq =
            vec![span("root", 0, 50, None), span("x", 0, 20, Some(0)), span("y", 20, 45, Some(0))];
        let own = self_times_ns(&seq);
        assert_eq!(own.iter().sum::<u64>(), 50);
        assert_eq!(own[0], 5);
    }

    #[test]
    fn tracer_nests_and_stamps_iterations() {
        let mut t = Tracer::new();
        t.set_iteration(3);
        let root = t.enter("iter");
        let kid = t.enter("stage");
        t.exit(kid);
        t.exit(root);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(per_iteration(s, "stage").1, 1);
        assert!(JsonValue::parse(&t.to_chrome_trace("test").pretty()).is_ok());
    }
}

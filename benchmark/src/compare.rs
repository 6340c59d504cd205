//! `compare A.json B.json`: check two result files of `run --out` against
//! the benchmark's own bounds, one row per (workload, end-to-end metric).

use crate::spec::{END_TO_END, WORKLOADS};
use koala_json::JsonValue;

/// One compared pair.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// `b / a`.
    pub ratio: f64,
    pub bound: f64,
    pub within: bool,
}

fn value(doc: &JsonValue, workload: &str, path: &[&str]) -> Option<f64> {
    let mut v = doc.get("workloads")?.get(workload)?;
    for key in path {
        v = v.get(key)?;
    }
    v.as_num()
}

/// Compare every (workload, end-to-end metric) pair present in both
/// documents. A pair is within bounds when the two values differ, in either
/// direction, by no more than the metric's bound as a share of `a`;
/// `failed_frac` must be 0 on both sides.
pub fn compare(a: &JsonValue, b: &JsonValue) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let present =
            |doc: &JsonValue| doc.get("workloads").and_then(|ws| ws.get(w.name)).is_some();
        match (present(a), present(b)) {
            (false, false) => continue,
            (true, true) => {}
            _ => return Err(format!("workload '{}' is in only one of the two files", w.name)),
        }
        for m in END_TO_END {
            let path = ["end_to_end", m.name, "value"];
            let (Some(x), Some(y)) = (value(a, w.name, &path), value(b, w.name, &path)) else {
                return Err(format!("{}/{} is missing from a result file", w.name, m.name));
            };
            let ratio = y / x;
            rows.push(Row {
                workload: w.name.into(),
                metric: m.name.into(),
                a: x,
                b: y,
                ratio,
                bound: m.bound,
                within: (ratio - 1.0).abs() <= m.bound,
            });
        }
        let (Some(x), Some(y)) =
            (value(a, w.name, &["failed_frac"]), value(b, w.name, &["failed_frac"]))
        else {
            return Err(format!("{}/failed_frac is missing from a result file", w.name));
        };
        rows.push(Row {
            workload: w.name.into(),
            metric: "failed_frac".into(),
            a: x,
            b: y,
            ratio: if x == y { 1.0 } else { f64::INFINITY },
            bound: 0.0,
            within: x == 0.0 && y == 0.0,
        });
    }
    if rows.is_empty() {
        return Err("the two files share no workload".into());
    }
    Ok(rows)
}

/// Print the rows; returns whether every pair is within its bound.
pub fn report(rows: &[Row]) -> bool {
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for r in rows {
        println!(
            "{:<16} {:<16} {:>14.6} {:>14.6} {:>8.4} {:>7.2}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.ratio,
            r.bound,
            if r.within { "ok" } else { "OUT OF BOUND" }
        );
    }
    let out = rows.iter().filter(|r| !r.within).count();
    println!("{} of {} pairs out of bound", out, rows.len());
    out == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(p50: f64, failed_frac: f64) -> JsonValue {
        let metric = |v: f64| JsonValue::object([("value", JsonValue::Num(v))]);
        let e2e = JsonValue::Object(
            END_TO_END
                .iter()
                .map(|m| {
                    (m.name.to_string(), metric(if m.name == "iter_p50_ms" { p50 } else { 1.0 }))
                })
                .collect(),
        );
        let w =
            JsonValue::object([("end_to_end", e2e), ("failed_frac", JsonValue::Num(failed_frac))]);
        JsonValue::object([("workloads", JsonValue::object([("evolve_tebd", w)]))])
    }

    #[test]
    fn flags_only_pairs_beyond_their_bound() {
        let rows = compare(&doc(100.0, 0.0), &doc(104.0, 0.0)).unwrap();
        assert_eq!(rows.len(), END_TO_END.len() + 1);
        assert!(rows.iter().all(|r| r.within));
        let rows = compare(&doc(100.0, 0.0), &doc(130.0, 0.0)).unwrap();
        let bad: Vec<_> = rows.iter().filter(|r| !r.within).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].metric, "iter_p50_ms");
        assert!((bad[0].ratio - 1.3).abs() < 1e-12);
    }

    #[test]
    fn any_failure_is_out_of_bound() {
        let rows = compare(&doc(100.0, 0.0), &doc(100.0, 0.01)).unwrap();
        assert!(rows.iter().any(|r| r.metric == "failed_frac" && !r.within));
    }
}

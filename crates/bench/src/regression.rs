//! Bench regression gate: diff two `BENCH_hetero.json`-shaped documents
//! (see [`crate::hetero::rows_to_json`]) and fail when the
//! *deterministic* measurements regress. Rows are keyed by (kernel,
//! scenario, schedule). Virtual time (`vt_ns`) and message counts
//! (`msgs`) are pure functions of the cost model, so growth beyond
//! tolerance is a real runtime regression; host milliseconds
//! (`host_ms`) are machine-dependent and **ignored**.
//!
//! CI runs the gate in an allowed-to-fail lane, so a legitimate
//! cost-model change shows up as a visible red diff instead of blocking
//! the merge. Used by the `bench_gate` binary:
//!
//! ```text
//! cargo run -p now-bench --release --bin bench_gate -- \
//!     BENCH_hetero.json BENCH_current.json --threshold 10
//! ```
//!
//! The service's end-to-end numbers are measured and bounded by the
//! `benchmark/` package (`BENCHMARK.json`), not here.

use now_metrics::json::{parse, Json};
use std::fmt::Write as _;

/// One measured cell of a bench document, keyed by
/// (`kernel`, `scenario`, `schedule`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Kernel name (`pi`, `dotprod`, `jacobi`).
    pub kernel: String,
    /// Load scenario name (`uniform`, `slow-2x`, `bursty`).
    pub scenario: String,
    /// Loop schedule display string (`static`, `dynamic,4`, ...).
    pub schedule: String,
    /// Modeled virtual run time — deterministic.
    pub vt_ns: u64,
    /// Total DSM messages — deterministic.
    pub msgs: u64,
}

impl BenchRow {
    /// The row's identity within a document.
    pub fn key(&self) -> (&str, &str, &str) {
        (&self.kernel, &self.scenario, &self.schedule)
    }
}

/// Parse a `BENCH_hetero.json`-shaped document into its rows.
pub fn parse_rows(doc: &str) -> Result<Vec<BenchRow>, String> {
    let v = parse(doc)?;
    let rows = v
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("document has no \"rows\" array")?;
    let mut out = Vec::with_capacity(rows.len());
    for (i, r) in rows.iter().enumerate() {
        let field = |name: &str| -> Result<&Json, String> {
            r.get(name)
                .ok_or_else(|| format!("row {i} is missing \"{name}\""))
        };
        let s = |name: &str| -> Result<String, String> {
            field(name)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("row {i}: \"{name}\" is not a string"))
        };
        let n = |name: &str| -> Result<u64, String> {
            field(name)?
                .as_u64()
                .ok_or_else(|| format!("row {i}: \"{name}\" is not an unsigned integer"))
        };
        out.push(BenchRow {
            kernel: s("kernel")?,
            scenario: s("scenario")?,
            schedule: s("schedule")?,
            vt_ns: n("vt_ns")?,
            msgs: n("msgs")?,
        });
    }
    Ok(out)
}

/// One detected regression: a deterministic measurement moved past the
/// gate's tolerance in its bad direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The offending row's key, rendered `kernel/scenario/schedule`.
    pub cell: String,
    /// Which measurement regressed (`vt_ns`, `msgs`).
    pub metric: &'static str,
    /// Baseline value.
    pub base: u64,
    /// Current value.
    pub now: u64,
    /// Signed change in percent over the baseline.
    pub pct: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} {} -> {} ({:+.1}%)",
            self.cell, self.metric, self.base, self.now, self.pct
        )
    }
}

/// Compare `current` against `baseline`: every baseline cell must exist
/// in the current document, and its `vt_ns`/`msgs` must not exceed the
/// baseline by more than `threshold_pct` percent. Cells only present in
/// the current document (new kernels/schedules) pass — they have no
/// baseline to regress against. Improvements always pass.
pub fn compare(baseline: &[BenchRow], current: &[BenchRow], threshold_pct: f64) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for b in baseline {
        let cell = format!("{}/{}/{}", b.kernel, b.scenario, b.schedule);
        let Some(c) = current.iter().find(|c| c.key() == b.key()) else {
            regressions.push(Regression {
                cell,
                metric: "missing",
                base: 0,
                now: 0,
                pct: 0.0,
            });
            continue;
        };
        for (metric, base, now) in [("vt_ns", b.vt_ns, c.vt_ns), ("msgs", b.msgs, c.msgs)] {
            let limit = base as f64 * (1.0 + threshold_pct / 100.0);
            if now as f64 > limit {
                regressions.push(Regression {
                    cell: cell.clone(),
                    metric,
                    base,
                    now,
                    pct: (now as f64 / base as f64 - 1.0) * 100.0,
                });
            }
        }
    }
    regressions
}

/// Run the whole gate on two documents: parse, compare, and render a
/// human-readable report. `Ok` carries the all-clear summary, `Err` the
/// list of regressions (or a parse failure).
pub fn gate(baseline_doc: &str, current_doc: &str, threshold_pct: f64) -> Result<String, String> {
    let base = parse_rows(baseline_doc).map_err(|e| format!("baseline: {e}"))?;
    let cur = parse_rows(current_doc).map_err(|e| format!("current: {e}"))?;
    let regressions = compare(&base, &cur, threshold_pct);
    if regressions.is_empty() {
        return Ok(format!(
            "bench gate: {} cells within {threshold_pct}% of baseline (host_ms ignored)",
            base.len()
        ));
    }
    let mut msg = format!(
        "bench gate: {} regression(s) past {threshold_pct}% (host_ms ignored):\n",
        regressions.len()
    );
    for r in &regressions {
        if r.metric == "missing" {
            let _ = writeln!(msg, "  {}: baseline cell missing from current run", r.cell);
        } else {
            let _ = writeln!(msg, "  {r}");
        }
    }
    Err(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cells: &[(&str, u64, u64)]) -> String {
        let rows: Vec<String> = cells
            .iter()
            .map(|(sched, vt, msgs)| {
                format!(
                    "{{\"kernel\": \"pi\", \"scenario\": \"uniform\", \"schedule\": \"{sched}\", \
                     \"vt_ns\": {vt}, \"msgs\": {msgs}, \"slowdown_vs_uniform\": 1.0, \
                     \"result\": 3.14, \"host_ms\": 50.0}}"
                )
            })
            .collect();
        format!(
            "{{\"nodes\": 4, \"min_chunk\": 4, \"rows\": [{}]}}",
            rows.join(", ")
        )
    }

    #[test]
    fn parses_the_committed_document_shape() {
        let rows = parse_rows(&doc(&[("static", 100, 10), ("dynamic,4", 200, 50)])).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].schedule, "static");
        assert_eq!(rows[1].vt_ns, 200);
        assert_eq!(rows[1].msgs, 50);
    }

    #[test]
    fn identical_documents_pass() {
        let d = doc(&[("static", 100, 10)]);
        let report = gate(&d, &d, 10.0).unwrap();
        assert!(report.contains("1 cells within"));
    }

    #[test]
    fn improvement_and_small_growth_pass() {
        let base = doc(&[("static", 1000, 100)]);
        let cur = doc(&[("static", 1050, 90)]); // +5% vt, fewer msgs
        assert!(gate(&base, &cur, 10.0).is_ok());
    }

    #[test]
    fn large_vt_regression_fails() {
        let base = doc(&[("static", 1000, 100)]);
        let cur = doc(&[("static", 1200, 100)]); // +20% vt
        let err = gate(&base, &cur, 10.0).unwrap_err();
        assert!(err.contains("vt_ns 1000 -> 1200"), "{err}");
        assert!(err.contains("+20.0%"), "{err}");
    }

    #[test]
    fn message_count_regression_fails() {
        let base = doc(&[("static", 1000, 100)]);
        let cur = doc(&[("static", 1000, 250)]);
        let err = gate(&base, &cur, 10.0).unwrap_err();
        assert!(err.contains("msgs 100 -> 250"), "{err}");
    }

    #[test]
    fn host_ms_differences_are_ignored() {
        // Same deterministic numbers, wildly different host_ms: the doc
        // helper pins host_ms, so rewrite it by hand here.
        let base = doc(&[("static", 1000, 100)]);
        let cur = base.replace("\"host_ms\": 50.0", "\"host_ms\": 5000.0");
        assert!(gate(&base, &cur, 10.0).is_ok());
    }

    #[test]
    fn missing_baseline_cell_fails_new_cells_pass() {
        let base = doc(&[("static", 1000, 100), ("guided,4", 900, 80)]);
        let cur = doc(&[("static", 1000, 100), ("affinity", 800, 70)]);
        let err = gate(&base, &cur, 10.0).unwrap_err();
        assert!(err.contains("pi/uniform/guided,4"), "{err}");
        assert!(
            !err.contains("affinity"),
            "new cells need no baseline: {err}"
        );
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(gate("{", &doc(&[("static", 1, 1)]), 10.0).is_err());
        assert!(gate(&doc(&[("static", 1, 1)]), "[]", 10.0).is_err());
        let no_vt = doc(&[("static", 1, 1)]).replace("\"vt_ns\"", "\"vtns\"");
        let err = gate(&no_vt, &no_vt, 10.0).unwrap_err();
        assert!(err.contains("missing \"vt_ns\""), "{err}");
    }

    #[test]
    fn gate_accepts_the_committed_baseline() {
        // The repo-root BENCH_hetero.json must stay parseable: the gate
        // compares it against itself (trivially passing).
        let doc = include_str!("../../../BENCH_hetero.json");
        let report = gate(doc, doc, 10.0).unwrap();
        assert!(report.contains("within 10% of baseline"), "{report}");
        let rows = parse_rows(doc).unwrap();
        assert!(rows.len() >= 45, "expected the full 3x3x5 sweep");
    }
}

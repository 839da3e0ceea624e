//! `compare <a.json> <b.json>`: per (workload, end-to-end metric)
//! verdicts between two result files, from the bounds in
//! `BENCHMARK.json`.

use crate::report::field;
use now_metrics::json::{parse, Json};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// One side's own run-to-run spread exceeds the bound, so a change
    /// of that size cannot be told from noise.
    Unresolved,
}

/// One side of a comparison: the median over its runs and their spread.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
}

pub fn verdict(base: Side, new: Side, higher_is_better: bool, bound: f64) -> Verdict {
    if base.spread > bound || new.spread > bound {
        return Verdict::Unresolved;
    }
    let change = (new.value - base.value) / base.value;
    let worse = if higher_is_better { -change } else { change };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `(name, higher_is_better, bound)` for every end-to-end metric of a
/// `BENCHMARK.json` document.
pub fn bounds(doc: &Json) -> Result<Vec<(String, bool, f64)>, String> {
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without `better`")?;
            let bound = field(m, "bound").ok_or("metric without a bound")?;
            Ok((name.to_string(), better == "higher", bound))
        })
        .collect()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workloads(doc: &Json) -> &[Json] {
    doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[])
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Side {
        value: field(m, "value")?,
        spread: field(m, "spread").unwrap_or(0.0),
    })
}

/// Compare result file `b` against baseline `a`; prints one row per
/// workload and returns whether anything regressed.
pub fn run(a: &str, b: &str, bounds_path: &str) -> Result<bool, String> {
    let metrics = bounds(&load(bounds_path)?)?;
    let (a_doc, b_doc) = (load(a)?, load(b)?);
    let mut regressed = false;
    println!("baseline {a}, candidate {b}; each cell: verdict candidate/baseline (baseline value)");
    for wa in workloads(&a_doc) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads(&b_doc).iter().find(|w| w.get("name") == wa.get("name")) else {
            println!("{name:<16} missing from {b}");
            regressed = true;
            continue;
        };
        let mut cells = Vec::new();
        for (metric, higher, bound) in &metrics {
            let cell = match (side(wa, metric), side(wb, metric)) {
                (Some(x), Some(y)) => {
                    let v = verdict(x, y, *higher, *bound);
                    regressed |= v == Verdict::Regressed;
                    format!("{metric} {v:?} {:.4} ({:.4})", y.value / x.value, x.value)
                }
                _ => format!("{metric} not in both files"),
            };
            cells.push(cell);
        }
        let share = |w: &Json| field(w, "failed_share").unwrap_or(0.0);
        let failed = if share(wb) > share(wa) {
            regressed = true;
            "Regressed"
        } else {
            "Unchanged"
        };
        cells.push(format!("failed_share {failed} {} ({})", share(wb), share(wa)));
        println!("{name:<16} {}", cells.join(" | "));
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, spread: f64) -> Side {
        Side { value, spread }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let base = side(100.0, 0.01);
        // Lower is better: +15 % is a regression, −15 % an improvement.
        assert_eq!(verdict(base, side(115.0, 0.01), false, 0.10), Verdict::Regressed);
        assert_eq!(verdict(base, side(85.0, 0.01), false, 0.10), Verdict::Improved);
        assert_eq!(verdict(base, side(105.0, 0.01), false, 0.10), Verdict::Unchanged);
        // Higher is better: the same numbers read the other way round.
        assert_eq!(verdict(base, side(115.0, 0.01), true, 0.10), Verdict::Improved);
        assert_eq!(verdict(base, side(85.0, 0.01), true, 0.10), Verdict::Regressed);
    }

    #[test]
    fn noisy_sides_are_unresolved_not_unchanged() {
        let quiet = side(100.0, 0.02);
        let noisy = side(130.0, 0.20);
        assert_eq!(verdict(quiet, noisy, false, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(noisy, quiet, false, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn bounds_come_from_the_benchmark_document() {
        let doc = parse(
            r#"{"end_to_end":[{"name":"x","unit":"ms","better":"lower","bound":0.1},
                              {"name":"y","unit":"1/s","better":"higher","bound":0.2}]}"#,
        )
        .unwrap();
        assert_eq!(
            bounds(&doc).unwrap(),
            vec![("x".to_string(), false, 0.1), ("y".to_string(), true, 0.2)]
        );
        assert!(bounds(&parse("{}").unwrap()).is_err());
    }
}

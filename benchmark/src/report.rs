//! Metric definitions and the benchmark's outputs: the driver's JSON
//! line, the human tables and `out/result.json`.

use crate::layers::Row;
use crate::stats::{median, spread};
use now_metrics::json::Json;

/// One measured metric: `n` is the sample count behind a timing (0 for
/// a micro-operation, whose count is time-bounded).
#[derive(Debug, Clone)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

/// `(name, unit)` of the metrics a user of the service sees, in
/// `BENCHMARK.json` order; their directions and bounds live in that
/// file. `failed_share` is reported beside them (result files,
/// `compare`) but cannot be listed there: it is 0 on every healthy run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("msgs_per_job", "msgs"),
    ("setup_s", "s"),
];

/// Per-layer metric names in `BENCHMARK.json` order (unit and direction
/// live in that file; every name here is emitted for every workload).
pub const PER_LAYER: &[&str] = &[
    "service.latency_p90_ms",
    "service.queue_wait_ms",
    "service.run_host_ms",
    "service.door_self_ms",
    "service.dispatch_self_us",
    "service.rejected",
    "service.status_roundtrip_us",
    "service.submit_wait_us",
    "ompc.compile_us",
    "ompc.analyze_us",
    "ompc.interp_self_ms",
    "ompc.interp_ratio",
    "nomp.run_ms",
    "nomp.native_ms",
    "nomp.vt_ms_per_job",
    "nomp.vt_speedup_4n",
    "nomp.vt_compute_share",
    "nomp.vt_idle_share",
    "nomp.chunks_claimed_per_job",
    "nomp.steal_hit_ratio",
    "nomp.cluster_build_ms",
    "nomp.empty_job_us",
    "nomp.fork_join_us",
    "nomp.dynamic_claim_us",
    "nomp.task_us",
    "smp.run_ratio_2x2",
    "smp.local_barriers_per_job",
    "smp.team_forks_per_job",
    "tmk.barriers_per_job",
    "tmk.read_faults_per_job",
    "tmk.twins_per_job",
    "tmk.diffs_created_per_job",
    "tmk.diffs_applied_per_job",
    "tmk.diff_kbytes_per_job",
    "tmk.lock_acquires_per_job",
    "tmk.lock_local_ratio",
    "tmk.barrier_host_ms_per_job",
    "tmk.fault_host_ms_per_job",
    "tmk.lock_host_ms_per_job",
    "tmk.vt_barrier_share",
    "tmk.vt_protocol_share",
    "tmk.reset_host_us",
    "tmk.diff_share",
    "tmk.barrier_us",
    "tmk.lock_handoff_us",
    "tmk.fault_fetch_us",
    "tmk.empty_job_us",
    "tmk.diff_create_sparse_ns",
    "tmk.diff_create_dense_ns",
    "tmk.diff_apply_dense_ns",
    "net.kbytes_per_job",
    "net.host_us_per_msg",
    "net.enqueue_ns",
    "net.handoff_us",
    "trace.armed_ratio",
    "metrics.snapshot_us",
    "metrics.prometheus_us",
    "bench.tracing_overhead_ratio",
    "host.cpu_ms_per_job",
    "host.peak_rss_mb",
    "host.reference_us",
    "host.calib_ns",
];

/// Put `values` in declaration order, failing if one is missing or not
/// a finite number.
pub fn ordered(values: &[Value], names: &[&str]) -> Result<Vec<Value>, String> {
    names
        .iter()
        .map(|name| {
            let v = values
                .iter()
                .find(|v| v.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if v.value.is_finite() {
                Ok(v.clone())
            } else {
                Err(format!("metric {name} is {}", v.value))
            }
        })
        .collect()
}

fn metrics_json(values: &[Value], with_n: bool) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|v| {
            let n = if with_n {
                format!(",\"n\":{}", v.n)
            } else {
                String::new()
            };
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"{n}}}", v.name, v.value, v.unit)
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The driver's result line.
pub fn driver_line(attempted: u64, failed: u64, values: &[Value]) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics_json(values, false)
    )
}

/// Print metrics by name with value, unit and sample count; host-time
/// micro results also as a multiple of the calibration loop.
pub fn print_values(title: &str, values: &[Value]) {
    let calib = values.iter().find(|v| v.name == "host.calib_ns").map(|v| v.value);
    println!("  {title}");
    for v in values {
        let n = if v.n > 0 { format!("n={}", v.n) } else { String::new() };
        let ns_per_unit = match v.unit {
            "ns" => Some(1.0),
            "us" => Some(1e3),
            "ms" => Some(1e6),
            _ => None,
        };
        let in_calib = match (calib, ns_per_unit) {
            (Some(c), Some(ns)) if v.n == 0 => format!("{:.3} calib", v.value * ns / c),
            _ => String::new(),
        };
        println!(
            "    {:<32} {:>14.4} {:<7} {:<8} {}",
            v.name, v.value, v.unit, n, in_calib
        );
    }
}

/// Print the ranked self-time table; returns its sum as a share of
/// `latency_p50_ms`.
pub fn print_table(table: &[Row], latency_p50_ms: f64) -> f64 {
    let sum: f64 = table.iter().map(|r| r.ms).sum();
    println!("  where the host time goes (per door operation, traced latency_p50_ms = {latency_p50_ms:.3})");
    for r in table {
        println!(
            "    {:<42} {:<12} {:>10.3} ms {:>6.1} %",
            r.what,
            r.layer,
            r.ms,
            100.0 * r.ms / latency_p50_ms
        );
    }
    println!(
        "    {:<42} {:<12} {:>10.3} ms {:>6.1} %",
        "sum",
        "",
        sum,
        100.0 * sum / latency_p50_ms
    );
    sum / latency_p50_ms
}

/// The layer with the largest summed self time among `rows`.
pub fn dominant_layer<'a>(rows: impl Iterator<Item = &'a Row>) -> &'static str {
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    for r in rows {
        match layers.iter_mut().find(|l| l.0 == r.layer) {
            Some(l) => l.1 += r.ms,
            None => layers.push((r.layer, r.ms)),
        }
    }
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    layers.first().map_or("none", |l| l.0)
}

/// One workload's results over `runs` repetitions, as written to
/// `result.json`: every end-to-end value per run, per-layer values of
/// the last run.
pub struct WorkloadResult {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// `[run][metric]`, metrics in `END_TO_END` order.
    pub end_to_end: Vec<Vec<Value>>,
    pub per_layer: Vec<Value>,
}

/// Render `result.json`.
pub fn result_json(seed: u64, window_s: f64, nproc: usize, workloads: &[WorkloadResult]) -> String {
    let body: Vec<String> = workloads
        .iter()
        .map(|w| {
            let e2e: Vec<String> = (0..w.end_to_end[0].len())
                .map(|m| {
                    let first = &w.end_to_end[0][m];
                    let runs: Vec<f64> = w.end_to_end.iter().map(|r| r[m].value).collect();
                    let list: Vec<String> = runs.iter().map(|x| x.to_string()).collect();
                    format!(
                        "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"n\":{},\"spread\":{},\"runs\":[{}]}}",
                        first.name,
                        median(&runs),
                        first.unit,
                        first.n,
                        spread(&runs),
                        list.join(",")
                    )
                })
                .collect();
            format!(
                "{{\"name\":\"{}\",\"attempted\":{},\"failed\":{},\"failed_share\":{},\n  \"end_to_end\":{{{}}},\n  \"per_layer\":{}}}",
                w.name,
                w.attempted,
                w.failed,
                w.failed as f64 / w.attempted.max(1) as f64,
                e2e.join(","),
                metrics_json(&w.per_layer, true)
            )
        })
        .collect();
    format!(
        "{{\"schema\":1,\"seed\":{seed},\"window_s\":{window_s},\"nproc\":{nproc},\"workloads\":[\n {}\n]}}\n",
        body.join(",\n ")
    )
}

/// Numeric field `key` of a JSON object.
pub fn field(j: &Json, key: &str) -> Option<f64> {
    match j.get(key) {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_metrics::json::parse;

    fn value(name: &'static str, value: f64) -> Value {
        Value {
            name,
            value,
            unit: "ms",
            n: 3,
        }
    }

    #[test]
    fn result_json_round_trips() {
        let w = WorkloadResult {
            name: "door_tiny",
            attempted: 10,
            failed: 1,
            end_to_end: vec![
                vec![value("latency_p50_ms", 40.0)],
                vec![value("latency_p50_ms", 44.0)],
                vec![value("latency_p50_ms", 42.0)],
            ],
            per_layer: vec![value("nomp.run_ms", 0.25)],
        };
        let doc = parse(&result_json(7, 12.0, 2, &[w])).expect("valid JSON");
        assert_eq!(field(&doc, "seed"), Some(7.0));
        let w = &doc.get("workloads").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(w.get("name").and_then(Json::as_str), Some("door_tiny"));
        assert_eq!(field(w, "failed_share"), Some(0.1));
        let lat = w.get("end_to_end").and_then(|e| e.get("latency_p50_ms")).unwrap();
        assert_eq!(field(lat, "value"), Some(42.0));
        assert_eq!(lat.get("runs").and_then(Json::as_arr).unwrap().len(), 3);
        let run = w.get("per_layer").and_then(|e| e.get("nomp.run_ms")).unwrap();
        assert_eq!(field(run, "value"), Some(0.25));
    }

    #[test]
    fn driver_line_is_one_json_object() {
        let line = driver_line(5, 0, &[value("latency_p50_ms", 1.5)]);
        assert!(!line.contains('\n'));
        let doc = parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(field(&doc, "attempted"), Some(5.0));
        let m = doc.get("metrics").and_then(|m| m.get("latency_p50_ms")).unwrap();
        assert_eq!(field(m, "value"), Some(1.5));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn ordered_rejects_missing_and_non_finite_metrics() {
        let vals = [value("a", 1.0), value("b", f64::NAN)];
        assert_eq!(ordered(&vals, &["a"]).unwrap()[0].name, "a");
        assert!(ordered(&vals, &["c"]).unwrap_err().contains("not measured"));
        assert!(ordered(&vals, &["b"]).unwrap_err().contains("NaN"));
    }
}

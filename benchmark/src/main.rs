//! End-to-end and per-layer benchmark of the openmp-now stack.
//!
//! ```text
//! now-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one pass, one JSON line
//! now-benchmark run [--seed <n>] [--window-s <s>] [--runs <n>]             all workloads, both passes
//! now-benchmark compare <a.json> <b.json> [--bounds <BENCHMARK.json>]      verdicts per workload
//! ```
//!
//! See `benchmark/README.md` for the metric glossary and the workloads.

mod compare;
mod door;
mod host;
mod layers;
mod micro;
mod programs;
mod report;
mod spans;
mod stats;
mod workloads;

use door::{Ctx, Requests};
use report::{Value, WorkloadResult, END_TO_END, PER_LAYER};
use stats::{median, median_by};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Workload, WORKLOADS};

/// Set-ups (and window segments) per pass-1 run at most; `setup_s` is
/// their median.
const SETUPS: usize = 5;
/// A window is not cut into segments shorter than this, so that a
/// segment still holds tens of the slowest workload's operations.
const MIN_SEGMENT_S: f64 = 2.0;
/// Untimed warm-up before the window, as a share of the window (2 s
/// before 15 s).
const WARM_SHARE: f64 = 2.0 / 15.0;
/// The window `run` uses unless told otherwise (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_WINDOW_S: f64 = 12.0;

/// What pass 1 produced for one workload.
struct EndToEndRun {
    values: Vec<Value>,
    attempted: u64,
    failed: u64,
}

/// Pass 1, untraced: the end-to-end metrics of one workload.
///
/// The window is split over up to `SETUPS` freshly set-up services, and each
/// timing is the median over those segments: where the host happens to
/// place one pool's threads moves a whole segment, so one long window
/// on one service would carry that luck into the result.
fn end_to_end(ctx: &Ctx<'_>, seconds: f64) -> Result<EndToEndRun, String> {
    let w = ctx.workload;
    let segments = ((seconds / MIN_SEGMENT_S) as usize).clamp(1, SETUPS);
    let segment = seconds / segments as f64;
    let (mut setups, mut throughput, mut latency, mut msgs) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut ops) = (0, 0, 0);
    for _ in 0..segments {
        let t = Instant::now();
        let mut rig = ctx.setup()?;
        setups.push(t.elapsed().as_secs_f64());
        let m = ctx.measure(
            &mut rig,
            Duration::from_secs_f64(segment * WARM_SHARE),
            Duration::from_secs_f64(segment),
            None,
        );
        attempted += m.attempted;
        failed += m.failed;
        if m.hung {
            // Dropping the service would wait for the hung job.
            std::mem::forget(rig);
            break;
        }
        rig.close();
        if m.samples.is_empty() {
            continue;
        }
        ops += m.samples.len();
        throughput.push((m.samples.len() * w.jobs_per_op()) as f64 / segment);
        latency.push(median_by(&m.samples, |s| s.latency.as_secs_f64() * 1e3));
        msgs.push(median_by(&m.samples, |s| s.msgs as f64));
    }
    if ops == 0 {
        return Err(format!("{}: no operation completed within {seconds} s", w.name));
    }
    let jobs = ops * w.jobs_per_op();
    let measured = [
        (median(&throughput), jobs),
        (median(&latency), ops),
        (median(&msgs), ops),
        (median(&setups), setups.len()),
    ];
    let values = END_TO_END.iter().zip(measured);
    Ok(EndToEndRun {
        values: values
            .map(|(&(name, unit), (value, n))| Value { name, value, unit, n })
            .collect(),
        attempted,
        failed,
    })
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
    }
}

/// The driver's entry: one workload, one pass, one JSON line.
fn driver(args: &[String]) -> Result<(), String> {
    let name = flag(args, "--workload").ok_or("--workload needs a name")?;
    let w = workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: f64 = parsed(args, "--seconds", DEFAULT_WINDOW_S)?;
    let trace: u8 = parsed(args, "--trace", 0)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let requests = Requests::new(w.variants(seed));
    let ctx = Ctx {
        workload: w,
        seed,
        requests: &requests,
    };
    let line = if trace == 0 {
        let run = end_to_end(&ctx, seconds)?;
        let names: Vec<&str> = END_TO_END.iter().map(|e| e.0).collect();
        report::driver_line(run.attempted, run.failed, &report::ordered(&run.values, &names)?)
    } else {
        let layers = ctx.per_layer(seconds)?;
        nomp::validate_chrome_json(&spans::chrome_json(layers.tracers))
            .map_err(|e| format!("span export is not a valid Chrome trace: {e}"))?;
        report::driver_line(
            layers.attempted,
            layers.failed,
            &report::ordered(&layers.values, PER_LAYER)?,
        )
    };
    println!("{line}");
    Ok(())
}

/// One workload through both passes, `runs` times; prints as it goes.
fn run_workload(
    w: &'static Workload,
    seed: u64,
    window_s: f64,
    runs: usize,
    tracers: &mut Vec<spans::Tracer>,
) -> Result<WorkloadResult, String> {
    println!("== {} — {}", w.name, w.why);
    let requests = Requests::new(w.variants(seed));
    let ctx = Ctx {
        workload: w,
        seed,
        requests: &requests,
    };
    let mut result = WorkloadResult {
        name: w.name,
        attempted: 0,
        failed: 0,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    let names: Vec<&str> = END_TO_END.iter().map(|e| e.0).collect();
    for r in 0..runs {
        let run = end_to_end(&ctx, window_s)?;
        result.attempted += run.attempted;
        result.failed += run.failed;
        let values = report::ordered(&run.values, &names)?;
        report::print_values(
            &format!("end to end, run {} of {runs} (pass 1, untraced)", r + 1),
            &values,
        );
        result.end_to_end.push(values);
    }
    // One process measures every workload here, so the peak-RSS mark
    // has to start over (the driver's one-workload runs never need to).
    host::reset_peak_rss();
    let layers = ctx.per_layer(window_s)?;
    result.attempted += layers.attempted;
    result.failed += layers.failed;
    result.per_layer = report::ordered(&layers.values, PER_LAYER)?;
    println!(
        "  failed_share {} ({} of {} jobs, both passes)",
        result.failed as f64 / result.attempted.max(1) as f64,
        result.failed,
        result.attempted
    );
    report::print_values("per layer (pass 2, traced)", &result.per_layer);
    let covered = report::print_table(&layers.table, layers.latency_p50_ms);
    println!(
        "  largest layer: {} overall, {} below the door (expected {}); table covers {:.1} % of latency_p50_ms",
        report::dominant_layer(layers.table.iter()),
        report::dominant_layer(layers.table.iter().filter(|r| r.layer != "now-service")),
        w.dominant,
        100.0 * covered
    );
    tracers.extend(layers.tracers);
    Ok(result)
}

/// `run`: every workload, both passes, files under `benchmark/out/`.
fn run(args: &[String]) -> Result<bool, String> {
    let seed: u64 = parsed(args, "--seed", 1)?;
    let window_s: f64 = parsed(args, "--window-s", DEFAULT_WINDOW_S)?;
    let runs: usize = parsed(args, "--runs", 1)?;
    if window_s.is_nan() || window_s <= 0.0 || runs == 0 {
        return Err("--window-s must be positive and --runs at least 1".into());
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "seed {seed}, window {window_s} s after {:.2} s warm-up, {runs} run(s), nproc {nproc}, {} closed-loop clients",
        window_s * WARM_SHARE,
        workloads::CLIENTS
    );
    let mut tracers = Vec::new();
    let mut results = Vec::new();
    for w in &WORKLOADS {
        results.push(run_workload(w, seed, window_s, runs, &mut tracers)?);
    }
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let write = |name: &str, text: String| {
        std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(out.join(name), text))
            .map_err(|e| format!("{}: {e}", out.join(name).display()))
    };
    let spans_doc = spans::chrome_json(tracers);
    nomp::validate_chrome_json(&spans_doc).map_err(|e| format!("span export is not a valid Chrome trace: {e}"))?;
    write("spans.json", spans_doc)?;
    write("result.json", report::result_json(seed, window_s, nproc, &results))?;
    println!("wrote {}/result.json and spans.json", out.display());
    Ok(results.iter().all(|r| r.failed == 0))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => {
                let default = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
                let bounds = flag(&args, "--bounds").unwrap_or(default);
                compare::run(a, b, bounds).map(|regressed| !regressed)
            }
            _ => Err("compare needs two result files".into()),
        },
        _ if args.iter().any(|a| a == "--workload") => driver(&args).map(|()| true),
        _ => Err("usage: now-benchmark run | compare <a.json> <b.json> | --workload <name> --seed <n> --seconds <s> --trace <0|1>".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("now-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_metrics::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).expect("valid JSON")
    }

    fn names(doc: &Json, list: &str) -> Vec<(String, String)> {
        let text = |m: &Json, k| m.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        doc.get(list)
            .and_then(Json::as_arr)
            .expect(list)
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, if list == "workloads" { "why" } else { "unit" }),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_binary_emits() {
        let doc = benchmark_json();
        let declared = |list| names(&doc, list);
        let own = |pairs: Vec<(&str, &str)>| -> Vec<(String, String)> {
            pairs.into_iter().map(|(a, b)| (a.to_string(), b.to_string())).collect()
        };
        assert_eq!(
            declared("workloads"),
            own(WORKLOADS.iter().map(|w| (w.name, w.why)).collect())
        );
        assert_eq!(declared("end_to_end"), own(END_TO_END.to_vec()));
        let layer: Vec<String> = declared("per_layer").into_iter().map(|p| p.0).collect();
        assert_eq!(layer, PER_LAYER);
        assert_eq!(report::field(&doc, "run_seconds"), Some(DEFAULT_WINDOW_S));
        assert!(compare::bounds(&doc).unwrap().iter().all(|b| b.2 > 0.0 && b.2 <= 0.25));
    }

    /// Both passes over all six workloads with a 0.5 s window: every
    /// reply verified, every declared metric present with its declared
    /// unit, the span export valid.
    #[test]
    fn smoke_all_workloads_without_a_failed_operation() {
        let units = names(&benchmark_json(), "per_layer");
        let mut tracers = Vec::new();
        for w in &WORKLOADS {
            let r = run_workload(w, 7, 0.5, 1, &mut tracers).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(r.attempted > 0, "{}", w.name);
            assert_eq!(r.failed, 0, "{}: failed_share must be 0", w.name);
            assert!(
                r.end_to_end[0].iter().all(|v| v.value > 0.0),
                "{}: {:?}",
                w.name,
                r.end_to_end[0]
            );
            for (v, (name, unit)) in r.per_layer.iter().zip(&units) {
                assert_eq!((v.name, v.unit), (name.as_str(), unit.as_str()));
            }
        }
        nomp::validate_chrome_json(&spans::chrome_json(tracers)).expect("valid span export");
    }
}

//! Always-on cluster metrics: recording must be invisible to the
//! simulation (results, per-job statistics, traffic and virtual times
//! identical whether or not anyone ever looks at the metrics), lifetime
//! per-op counters must reconcile *exactly* with the sum of per-job
//! [`TmkStats`] deltas, snapshots must be monotone across a warm job
//! stream and safe to take while a job runs, and both export formats
//! must validate.

use now_metrics::json::Json;
use now_service::{JobRequest, JobValue, ServiceConfig};
use openmp_now::cli::RunnerArgs;
use openmp_now::nomp::{
    validate_metrics_json, validate_prometheus_text, Cluster, Env, MetricsSnapshot, RunReport,
    Schedule, TmkOp, TmkStats,
};
use openmp_now::ompc;
use std::collections::BTreeMap;

/// A host-timing-independent workload (same shape as the trace suite's):
/// a static-schedule fill, a barrier-only region, and a bulk read-back.
fn det_workload(omp: &mut Env<'_>) -> f64 {
    let n = 4096;
    let a = omp.malloc_vec::<f64>(n);
    omp.parallel_for_chunks(Schedule::Static, 0..n, move |t, r| {
        t.view_mut(&a, r.clone(), |chunk| {
            for (k, x) in chunk.iter_mut().enumerate() {
                *x = (r.start + k) as f64;
            }
        });
    });
    omp.parallel(|t| t.barrier());
    omp.read_slice(&a, 0..n).iter().sum()
}

fn cluster(nodes: usize, tpn: usize) -> Cluster {
    Cluster::builder()
        .nodes(nodes)
        .threads_per_node(tpn)
        .build()
        .expect("valid cluster")
}

/// Observing the metrics must have zero behavioral impact: a run whose
/// metrics are snapshotted before, between and (from another thread)
/// *during* jobs reports bit-identical results, DSM statistics and
/// traffic to a run nobody observes.
fn assert_observation_invisible(nodes: usize, tpn: usize) {
    let quiet: Vec<RunReport<f64>> = {
        let mut c = cluster(nodes, tpn);
        (0..2)
            .map(|_| c.run(det_workload).expect("job runs"))
            .collect()
    };
    let observed: Vec<RunReport<f64>> = {
        let mut c = cluster(nodes, tpn);
        let handle = c.metrics_handle();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hammer = {
            let (handle, stop) = (handle.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut snaps = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let s = handle.snapshot();
                    assert!(s.jobs_failed == 0);
                    snaps += 1;
                }
                snaps
            })
        };
        let _ = c.metrics(); // before any job
        let out = (0..2)
            .map(|_| {
                let r = c.run(det_workload).expect("job runs");
                let _ = c.metrics(); // between jobs
                r
            })
            .collect();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let snaps = hammer.join().expect("snapshot thread lives");
        assert!(snaps > 0, "the observer thread actually snapshotted");
        out
    };
    for (q, o) in quiet.iter().zip(&observed) {
        assert_eq!(q.result, o.result, "{nodes}x{tpn}: results diverged");
        assert_eq!(q.dsm, o.dsm, "{nodes}x{tpn}: TmkStats diverged");
        assert_eq!(q.net, o.net, "{nodes}x{tpn}: traffic diverged");
    }
}

#[test]
fn observing_metrics_is_bit_invisible_on_4x1() {
    assert_observation_invisible(4, 1);
}

#[test]
fn observing_metrics_is_bit_invisible_on_2x2() {
    assert_observation_invisible(2, 2);
}

/// The acceptance bar: lifetime per-op counters reconcile *exactly* with
/// the sum of per-job `TmkStats` deltas — each delta is the difference of
/// two boundary readings of them, so no event may fall between jobs.
#[test]
fn lifetime_op_counters_reconcile_with_per_job_deltas() {
    let mut c = cluster(4, 1);
    let mut summed = TmkStats::default();
    for _ in 0..3 {
        let out = c.run(det_workload).expect("job runs");
        summed.merge(&out.dsm);
    }
    let snap = c.metrics();
    assert_eq!(
        snap.ops_as_stats(),
        summed,
        "lifetime counters must equal the sum of per-job deltas"
    );
    for op in TmkOp::ALL {
        assert_eq!(
            snap.op_total(*op),
            op.read(&summed),
            "op {} diverged",
            op.name()
        );
    }
    // The workload exercises the protocol: the reconciliation above must
    // not be comparing zeros.
    assert!(snap.op_total(TmkOp::Barriers) > 0);
    assert!(snap.op_total(TmkOp::ReadFaults) > 0);
    assert!(snap.op_total(TmkOp::DiffsCreated) > 0);
}

/// Warm-cluster snapshots are monotone: counters never decrease across a
/// job stream, the job counter tracks jobs run, and per-job virtual
/// times land in the job-duration histogram.
#[test]
fn snapshots_are_monotone_across_a_warm_job_stream() {
    let mut c = cluster(2, 1);
    let mut snaps: Vec<MetricsSnapshot> = vec![c.metrics()];
    for _ in 0..3 {
        c.run(det_workload).expect("job runs");
        snaps.push(c.metrics());
    }
    for (k, pair) in snaps.windows(2).enumerate() {
        let (prev, cur) = (&pair[0], &pair[1]);
        assert_eq!(cur.jobs_completed, prev.jobs_completed + 1);
        for op in TmkOp::ALL {
            assert!(
                cur.op_total(*op) >= prev.op_total(*op),
                "op {} decreased after job {k}",
                op.name()
            );
        }
        assert!(cur.net.total_msgs() >= prev.net.total_msgs());
        assert!(cur.net.total_bytes() >= prev.net.total_bytes());
        assert!(cur.uptime_host_ns >= prev.uptime_host_ns);
    }
    let last = snaps.last().unwrap();
    assert_eq!(last.jobs_completed, c.jobs_run() as u64);
    assert_eq!(last.jobs_failed, 0);
    assert_eq!(last.jobs_in_flight, 0, "no job is running between jobs");
    assert_eq!(last.job_vt_ns.count(), 3, "one histogram entry per job");
    assert_eq!(last.reset_host_ns.count(), 3, "one warm reset per job");
}

/// Dynamic-schedule chunks whose body takes a critical section: lock
/// and claim traffic on top of the static workload's page traffic.
fn dynamic_critical_workload(omp: &mut Env<'_>) -> u64 {
    let sum = omp.malloc_scalar::<u64>(0);
    omp.parallel_for(Schedule::Dynamic(8), 0..64, move |t, i| {
        t.critical_named("sum", |t| {
            let s = sum.get(t);
            sum.set(t, s + i as u64);
        });
    });
    sum.get(omp)
}

/// Per-job traffic is a boundary delta of the lifetime counter, so the
/// two differ by exactly the job-boundary reset rounds: `n - 1`
/// `reset_req` fan-out messages and `n - 1` `reset_done` replies per job,
/// in messages and in bytes.
#[test]
fn lifetime_traffic_covers_per_job_deltas_plus_reset_rounds() {
    fn check<R: Send + 'static>(nodes: usize, tpn: usize, job: fn(&mut Env<'_>) -> R) {
        let name = format!("{nodes}x{tpn}");
        let jobs = 4u64;
        let mut c = cluster(nodes, tpn);
        let (mut per_job_msgs, mut per_job_bytes) = (0u64, 0u64);
        for _ in 0..jobs {
            let out = c.run(job).expect("job runs");
            per_job_msgs += out.msgs();
            per_job_bytes += out.bytes();
        }
        let net = c.metrics().net;
        let reset = net.kind("reset_req").expect("reset_req is a wire kind");
        let done = net.kind("reset_done").expect("reset_done is a wire kind");
        assert_eq!(
            reset.send_msgs,
            (nodes as u64 - 1) * jobs,
            "{name}: one reset_req per slave per job"
        );
        assert_eq!(done.send_msgs, (nodes as u64 - 1) * jobs, "{name}");
        assert_eq!(
            net.total_msgs(),
            per_job_msgs + reset.send_msgs + done.send_msgs,
            "{name}: lifetime sends are the per-job deltas plus the reset rounds"
        );
        assert_eq!(
            net.total_bytes(),
            per_job_bytes + reset.send_bytes + done.send_bytes,
            "{name}: lifetime bytes are the per-job deltas plus the reset rounds"
        );
        assert_eq!(
            net.total_msgs() - per_job_msgs,
            2 * (nodes as u64 - 1) * jobs,
            "{name}"
        );
        // Application traffic dominates: the reconciliation above must not
        // be comparing the reset rounds alone.
        assert!(per_job_msgs > net.total_msgs() / 2, "{name}");
    }
    check(4, 1, det_workload);
    check(4, 2, det_workload);
    check(4, 1, dynamic_critical_workload);
}

/// The issue's export acceptance bar: `jacobi.omp` on a 4×2 SMP cluster
/// produces a snapshot whose Prometheus rendering passes the validator
/// and whose JSON parses, with the expected metric families present.
#[test]
fn jacobi_4x2_exports_validate() {
    let prog = ompc::compile(include_str!("../examples/omp/jacobi.omp")).expect("jacobi compiles");
    let mut c = cluster(4, 2);
    c.run(&prog).expect("jacobi runs");
    let snap = c.metrics();

    let prom = snap.to_prometheus();
    validate_prometheus_text(&prom).unwrap_or_else(|e| panic!("invalid Prometheus text: {e}"));
    for family in [
        "now_jobs_total",
        "now_dsm_ops_total",
        "now_op_vt_ns",
        "now_op_host_ns",
        "now_net_send_msgs_total",
        "now_net_kind_msgs_total",
        "now_smp_team_forks_total",
        "now_loop_chunk_len",
        "now_job_vt_ns",
    ] {
        assert!(prom.contains(family), "family {family} missing");
    }
    // 4 nodes × 2 threads fork one team per node per region.
    assert!(snap.nodes.iter().all(|n| n.team_forks > 0));
    assert!(snap.nodes.iter().any(|n| n.local_barriers > 0));
    assert!(snap.nodes.iter().any(|n| n.chunks_claimed > 0));

    let json = snap.to_json();
    validate_metrics_json(&json).unwrap_or_else(|e| panic!("invalid metrics JSON: {e}"));
    for family in [
        "now_jobs_total",
        "now_dsm_ops_total",
        "now_net_kind_msgs_total",
    ] {
        assert!(
            json.contains(&format!("{{\"name\":\"{family}\",")),
            "family {family} missing"
        );
    }
}

/// Prometheus sample lines by series (name plus sorted labels).
fn prom_series(doc: &str) -> BTreeMap<String, f64> {
    let series = |name: &str, labels: &str| {
        let mut labels: Vec<&str> = labels.split(',').filter(|l| !l.is_empty()).collect();
        labels.sort_unstable();
        format!("{name}{{{}}}", labels.join(","))
    };
    doc.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (id, value) = l.rsplit_once(' ').expect("sample has a value");
            let (name, labels) = id.split_once('{').unwrap_or((id, "}"));
            let value = value.parse().expect("numeric value");
            (series(name, labels.strip_suffix('}').unwrap()), value)
        })
        .collect()
}

/// Both renderings of one family list say the same thing: the JSON
/// families are the `# TYPE`d families in the same order, every JSON
/// counter and gauge sample equals its Prometheus line, every histogram's
/// `count` and `sum` equal `_count` and `_sum`, its buckets accumulate to
/// the `_bucket` lines, and no Prometheus line is left unmatched.
fn assert_exports_agree(prom: &str, json: &str) {
    validate_prometheus_text(prom).unwrap_or_else(|e| panic!("invalid Prometheus text: {e}"));
    let lines = prom_series(prom);
    let doc = now_metrics::json::parse(json).expect("JSON parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("now-metrics-v2")
    );
    let families = doc.get("families").and_then(Json::as_arr).unwrap();
    let typed: Vec<&str> = (prom.lines())
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
        .collect();
    let names: Vec<&str> = (families.iter())
        .map(|f| f.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, typed);

    let mut matched = 0;
    let mut expect = |series: String, value: f64| {
        assert_eq!(lines.get(&series), Some(&value), "{series}");
        matched += 1;
    };
    for f in families {
        let name = f.get("name").and_then(Json::as_str).unwrap();
        for s in f.get("samples").and_then(Json::as_arr).unwrap() {
            let Some(Json::Obj(labels)) = s.get("labels") else {
                panic!("{name}: sample without labels")
            };
            let labels: Vec<String> = (labels.iter())
                .map(|(k, v)| format!("{k}=\"{}\"", v.as_str().unwrap()))
                .collect();
            let at = |suffix: &str, extra: Option<String>| {
                let mut l = labels.clone();
                l.extend(extra);
                l.sort_unstable();
                format!("{name}{suffix}{{{}}}", l.join(","))
            };
            let num = |key: &str| s.get(key).and_then(Json::as_f64).unwrap();
            if f.get("type").and_then(Json::as_str) != Some("histogram") {
                expect(at("", None), num("value"));
                continue;
            }
            expect(at("_count", None), num("count"));
            expect(at("_sum", None), num("sum"));
            expect(at("_bucket", Some("le=\"+Inf\"".into())), num("count"));
            let mut cum = 0.0;
            for b in s.get("buckets").and_then(Json::as_arr).unwrap() {
                let b = b.as_arr().unwrap();
                cum += b[1].as_f64().unwrap();
                if let Some(le) = b[0].as_u64() {
                    expect(at("_bucket", Some(format!("le=\"{le}\""))), cum);
                }
            }
        }
    }
    assert_eq!(
        matched,
        lines.len(),
        "every Prometheus line has a JSON sample"
    );
}

/// The cluster's and the service's exports are two renderings of one
/// family list, so they agree sample for sample.
#[test]
fn json_and_prometheus_exports_agree() {
    let prog = ompc::compile(include_str!("../examples/omp/jacobi.omp")).expect("jacobi compiles");
    let mut c = cluster(4, 2);
    c.run(&prog).expect("jacobi runs");
    let snap = c.metrics();
    assert_exports_agree(&snap.to_prometheus(), &snap.to_json());

    let service = ServiceConfig::new()
        .pool(1)
        .cluster(Cluster::builder().nodes(2).fast_test())
        .tenant("a", 2)
        .tenant("b", 1)
        .build()
        .expect("service");
    let tickets: Vec<_> = ["a", "a", "b"]
        .into_iter()
        .map(|t| {
            let job = JobRequest::closure(|_: &mut Env<'_>| JobValue::Unit).tenant(t);
            service.submit(job).expect("admit")
        })
        .collect();
    for t in tickets {
        t.wait();
    }
    let m = service.metrics();
    assert_eq!(m.completed(), 3);
    assert_exports_agree(&m.to_prometheus(), &m.to_json());
    service.drain();
}

#[test]
fn runner_cli_metrics_flags_round_trip() {
    let argv: Vec<String> = [
        "--nodes",
        "2",
        "--metrics",
        "out.prom",
        "--metrics-json",
        "out.json",
        "x.omp",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let a = RunnerArgs::parse(&argv).expect("valid args");
    assert_eq!(a.metrics.as_deref(), Some("out.prom"));
    assert_eq!(a.metrics_json.as_deref(), Some("out.json"));
    assert_eq!(a.files, vec!["x.omp"]);
    // Metrics are always on: the flags never arm tracing.
    assert!(!a.tracing());
    assert!(a.cluster().expect("buildable").config().tmk.trace.is_none());

    // Defaults: no export paths.
    let d = RunnerArgs::parse(&[]).unwrap();
    assert_eq!(d.metrics, None);
    assert_eq!(d.metrics_json, None);

    // Malformed paths are rejected with a one-line diagnostic.
    let cases: &[&[&str]] = &[
        &["--metrics"],
        &["--metrics", "--nodes"],
        &["--metrics", ""],
        &["--metrics", "out/"],
        &["--metrics-json"],
        &["--metrics-json", "--profile"],
        &["--metrics-json", "dir/"],
    ];
    for case in cases {
        let argv: Vec<String> = case.iter().map(|s| s.to_string()).collect();
        let err = RunnerArgs::parse(&argv).expect_err(&format!("{case:?} must be rejected"));
        assert!(
            err.contains("--metrics"),
            "{case:?}: diagnostic names the flag, got `{err}`"
        );
    }
    // The unknown-flag message advertises the new flags.
    let err = RunnerArgs::parse(&["--bogus".to_string()]).unwrap_err();
    assert!(err.contains("--metrics"), "{err}");
    assert!(err.contains("--metrics-json"), "{err}");
}

/// The runner's out-path contract, `--metrics` vs `--trace`: a trace is
/// a *per-job* artifact — multi-job invocations splice `.job<N>` before
/// the extension so repetitions don't overwrite each other — while
/// metrics are *one cumulative lifetime snapshot* covering every job,
/// written once to the path given verbatim. There is deliberately no
/// per-job metrics path.
#[test]
fn metrics_path_is_one_lifetime_snapshot_unlike_per_job_trace_paths() {
    let argv: Vec<String> = [
        "--repeat",
        "3",
        "--trace",
        "t.json",
        "--metrics",
        "m.prom",
        "--metrics-json",
        "m.json",
        "x.omp",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let a = RunnerArgs::parse(&argv).expect("valid args");

    // Three jobs -> three distinct trace files.
    assert_eq!(a.trace_path(0, true).as_deref(), Some("t.job0.json"));
    assert_eq!(a.trace_path(1, true).as_deref(), Some("t.job1.json"));
    assert_eq!(a.trace_path(2, true).as_deref(), Some("t.job2.json"));
    // A single-job invocation writes the trace path verbatim.
    assert_eq!(a.trace_path(0, false).as_deref(), Some("t.json"));

    // Three jobs -> still exactly one metrics path per flag, verbatim:
    // the snapshot is cumulative over the warm cluster's lifetime, so a
    // job suffix would be meaningless.
    assert_eq!(a.metrics.as_deref(), Some("m.prom"));
    assert_eq!(a.metrics_json.as_deref(), Some("m.json"));

    // And the snapshot really is cumulative: three warm jobs triple the
    // parallel-region count relative to one job.
    let mut c = cluster(2, 1);
    c.run(det_workload).expect("job 1");
    let after_one = c.metrics().op_total(TmkOp::Barriers);
    c.run(det_workload).expect("job 2");
    c.run(det_workload).expect("job 3");
    let after_three = c.metrics().op_total(TmkOp::Barriers);
    assert_eq!(after_three, 3 * after_one, "snapshot covers all jobs");
    c.shutdown();
}

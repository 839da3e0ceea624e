//! Observability: event recording must be invisible to the simulation,
//! per-job profiles must account for every virtual nanosecond, emitted
//! traces must respect causality, and the Chrome trace-event export must
//! validate with one track per node and thread lane.
//!
//! What "invisible" means here: recording only *reads* clocks — it never
//! advances virtual time, takes no modeled CPU, and sends no messages.
//! Results, protocol statistics, and traffic are therefore bit-identical
//! with tracing on or off wherever the simulation itself is
//! deterministic. (The compute meter charges measured *host* time as
//! virtual compute, so timing-sensitive constructs — lock-grant order
//! under contention, dynamic chunk claims — vary run to run with or
//! without tracing; the identity tests below use workloads whose
//! protocol behavior does not depend on host timing, and the
//! timing-sensitive constructs are covered by the intra-run profile and
//! causality tests.)

use openmp_now::cli::RunnerArgs;
use openmp_now::nomp::{
    validate_chrome_json, Cluster, Env, EventKind, RedOp, RunReport, Schedule, TraceConfig,
};
use openmp_now::ompc;

/// A host-timing-independent workload: a static-schedule fill (fork,
/// chunk claims, region barriers), a barrier-only region, and a bulk
/// master read-back (page faults + diff fetches with a fixed pattern).
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

/// A richer workload for the intra-run tests: dynamic chunk claims, a
/// named critical section, and a reduction.
fn rich_workload(omp: &mut Env<'_>) -> (f64, u64) {
    let n = 4096;
    let a = omp.malloc_vec::<f64>(n);
    omp.parallel_for_chunks(Schedule::Dynamic(64), 0..n, move |t, r| {
        t.view_mut(&a, r.clone(), |chunk| {
            for (k, x) in chunk.iter_mut().enumerate() {
                *x = (r.start + k) as f64;
            }
        });
    });
    let c = omp.malloc_scalar::<u64>(0);
    omp.parallel(move |t| {
        t.critical_named("ctr", |t| {
            let v = c.get(t);
            c.set(t, v + 1);
        });
    });
    let sum = omp.parallel_reduce(
        Schedule::Static,
        0..n,
        RedOp::Sum,
        move |t, i, acc: &mut f64| {
            *acc += t.read(&a, i);
        },
    );
    (sum, c.get(omp))
}

fn cluster(nodes: usize, tpn: usize, trace: bool) -> Cluster {
    let mut b = Cluster::builder().nodes(nodes).threads_per_node(tpn);
    if trace {
        b = b.trace(TraceConfig::default());
    }
    b.build().expect("valid cluster")
}

fn run_det(nodes: usize, tpn: usize, trace: bool) -> RunReport<f64> {
    cluster(nodes, tpn, trace)
        .run(det_workload)
        .expect("job runs")
}

/// Recording must have zero behavioral impact: results, DSM protocol
/// statistics, and message traffic bit-identical with tracing on or off.
fn assert_bit_identical(nodes: usize, tpn: usize) {
    let off = run_det(nodes, tpn, false);
    let on = run_det(nodes, tpn, true);
    assert_eq!(off.result, on.result, "{nodes}x{tpn}: results diverged");
    assert_eq!(off.dsm, on.dsm, "{nodes}x{tpn}: TmkStats diverged");
    assert_eq!(off.net, on.net, "{nodes}x{tpn}: traffic diverged");
    assert!(off.trace.is_none() && off.profile.is_none());
    let tr = on.trace.as_ref().expect("tracing armed");
    assert_eq!(tr.nodes, nodes);
    assert_eq!(tr.threads_per_node, tpn);
    assert!(tr.event_count() > 0, "an armed trace records events");
    assert!(on.profile.is_some());
}

#[test]
fn tracing_is_bit_invisible_on_4x1() {
    assert_bit_identical(4, 1);
}

#[test]
fn tracing_is_bit_invisible_on_2x2() {
    assert_bit_identical(2, 2);
}

#[test]
fn profile_components_sum_to_total_virtual_time() {
    for (nodes, tpn) in [(4, 1), (2, 2)] {
        let on = cluster(nodes, tpn, true)
            .run(rich_workload)
            .expect("job runs");
        let p = on.profile.as_ref().expect("profile present");
        assert_eq!(p.total_ns, on.vt_ns, "{nodes}x{tpn}: profile total");
        assert_eq!(p.nodes.len(), nodes);
        for np in &p.nodes {
            assert_eq!(
                np.compute_ns + np.barrier_ns + np.protocol_ns + np.idle_ns,
                p.total_ns,
                "{nodes}x{tpn} node {}: breakdown must sum exactly to the \
                 job's virtual time",
                np.node
            );
            assert_eq!(np.dropped, 0, "default capacity must not overflow here");
            assert!(np.events > 0, "every node records events");
        }
        // The workload's dynamic loop shows up in the claim histogram
        // and its lock/barrier traffic in the message timelines.
        assert!(!p.chunk_claims.is_empty(), "{nodes}x{tpn}: chunk claims");
        let total_iters: u64 = p.chunk_claims.iter().map(|c| c.iters).sum();
        assert!(total_iters >= 4096, "{nodes}x{tpn}: claims cover the loop");
        assert!(!p.messages.is_empty(), "{nodes}x{tpn}: message timelines");
    }
}

#[test]
fn per_node_event_order_is_consistent_with_causality() {
    // 4×1 on purpose: each node has exactly one application thread and
    // one service thread, so every per-lane event stream is recorded by
    // a single thread and must be causally ordered.
    let on = cluster(4, 1, true).run(rich_workload).expect("job runs");
    let tr = on.trace.as_ref().unwrap();

    // Every span runs forward, and on an application lane instantaneous
    // markers must appear in non-decreasing virtual time: a thread's
    // clock never runs backwards. (The service lane is exempt: its
    // timeline is deliberately backlog-capped, so the cursor may snap
    // back between independently-timestamped requests.)
    for (node, evs) in tr.events.iter().enumerate() {
        let mut last_instant = 0u64;
        for e in evs {
            assert!(
                e.t1 >= e.t0,
                "node {node}: span {:?} runs backwards",
                e.kind
            );
            // `total_ns` is the master's final clock reading, so it
            // bounds exactly the master lane — service-side handling and
            // other nodes' barrier departures may trail it slightly. The
            // job-boundary reset round (reset_req/sync fan-out, each
            // worker's Reset step and reset_done reply) is deliberately
            // recorded *after* the job-end snapshot so the drained trace
            // shows the full protocol.
            let boundary = e.kind == EventKind::Reset
                || matches!(e.tag, "reset_req" | "reset_done" | "sync_req" | "sync_ack");
            if node == 0 && e.lane == 0 && !boundary {
                assert!(
                    e.t1 <= tr.total_ns,
                    "master lane: {:?} past the job end",
                    e.kind
                );
            }
            if e.t0 == e.t1 && e.lane == 0 {
                assert!(
                    e.t0 >= last_instant,
                    "node {node} lane 0: marker {:?} at {} after one at {last_instant}",
                    e.kind,
                    e.t0,
                );
                last_instant = e.t0;
            }
        }
    }

    // DSM barriers synchronize all nodes: within one interior epoch, no
    // node can depart (t1) before every node has arrived (t0). A region's
    // join (`b` = 1) is one-way: only the master departs, after the last
    // arrival, and each slave departs at its next fork, whose marker
    // comes after the master's departure.
    let mut epochs: std::collections::BTreeMap<u64, Vec<(usize, u64, u64, u64)>> =
        Default::default();
    for (node, evs) in tr.events.iter().enumerate() {
        let mut seen = 0u64;
        for e in evs {
            if e.kind == EventKind::BarrierWait {
                assert!(e.a >= seen, "barrier epochs are ordered per node");
                seen = e.a;
                epochs.entry(e.a).or_default().push((node, e.t0, e.t1, e.b));
            }
        }
    }
    assert!(!epochs.is_empty(), "the workload crosses DSM barriers");
    let mut master_departs = std::collections::BTreeMap::new();
    for (epoch, spans) in &epochs {
        assert_eq!(spans.len(), 4, "epoch {epoch}: one entry per node");
        let join = spans[0].3 == 1;
        assert!(
            spans.iter().all(|s| (s.3 == 1) == join),
            "epoch {epoch}: a join on every node or none"
        );
        let max_arrive = spans.iter().map(|s| s.1).max().unwrap();
        let departs = spans.iter().filter(|s| !join || s.0 == 0);
        let min_depart = departs.map(|s| s.2).min().unwrap();
        assert!(
            min_depart >= max_arrive,
            "epoch {epoch}: a node departed ({min_depart}) before the last \
             arrival ({max_arrive})"
        );
        if join {
            master_departs.insert(*epoch, min_depart);
        }
    }
    assert!(
        master_departs.len() >= 3,
        "the workload forks three regions"
    );
    // Every join but the job's last is followed on each slave by a fork.
    let last_join = *master_departs.keys().next_back().unwrap();
    for (node, evs) in tr.events.iter().enumerate().skip(1) {
        let mut joined = None;
        let mut forks = 0;
        for e in evs.iter().filter(|e| e.lane == 0) {
            if e.kind == EventKind::BarrierWait && e.b == 1 {
                joined = Some(master_departs[&e.a]);
            }
            if e.kind == EventKind::Fork {
                if let Some(depart) = joined.take() {
                    assert!(
                        e.t0 >= depart,
                        "node {node}: fork at {} before the master departed the join at {depart}",
                        e.t0
                    );
                    forks += 1;
                }
            }
        }
        assert_eq!(
            forks,
            master_departs.len() - 1,
            "node {node}: a fork after each join"
        );
        assert_eq!(
            joined,
            Some(master_departs[&last_join]),
            "node {node}: the last join"
        );
    }
}

/// The issue's acceptance bar: `jacobi.omp` on a 4×2 SMP cluster with
/// tracing enabled emits valid Chrome-trace JSON with one track per
/// node and thread lane, and computes bit-identical results to the
/// tracing-off run.
#[test]
fn jacobi_4x2_chrome_export_validates_with_all_tracks() {
    let prog = ompc::compile(include_str!("../examples/omp/jacobi.omp")).expect("jacobi compiles");
    let run = |trace: bool| cluster(4, 2, trace).run(&prog).expect("jacobi runs");
    let off = run(false);
    let on = run(true);
    // Jacobi's residual max-reduction takes DSM locks, whose grant order
    // is host-timing dependent (run-to-run, tracing or not) — the
    // *numerical outputs* are the workload's deterministic surface.
    assert_eq!(off.result.ret, on.result.ret);
    assert_eq!(off.result.printed, on.result.printed);
    assert_eq!(off.result.scalars, on.result.scalars);

    let tr = on.trace.as_ref().expect("tracing armed");
    assert_eq!((tr.nodes, tr.threads_per_node), (4, 2));
    let json = tr.to_chrome_json();
    validate_chrome_json(&json).expect("emitted JSON is schema-valid");
    for node in 0..4 {
        assert!(
            json.contains(&format!("\"args\":{{\"name\":\"node {node}\"}}")),
            "missing process track for node {node}"
        );
        for lane in 0..2 {
            assert!(
                json.contains(&format!(
                    "\"pid\":{node},\"tid\":{lane},\"args\":{{\"name\":\"lane {lane}\"}}"
                )),
                "missing thread track for node {node} lane {lane}"
            );
        }
    }
}

#[test]
fn runner_cli_trace_flags_round_trip() {
    let argv: Vec<String> = ["--nodes", "2", "--trace", "out.json", "--profile", "x.omp"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let a = RunnerArgs::parse(&argv).expect("valid args");
    assert_eq!(a.trace.as_deref(), Some("out.json"));
    assert!(a.profile);
    assert!(a.tracing());
    // Single job: the path verbatim; multi job: a .job<N> suffix before
    // the extension so repetitions don't overwrite each other.
    assert_eq!(a.trace_path(0, false).as_deref(), Some("out.json"));
    assert_eq!(a.trace_path(3, true).as_deref(), Some("out.job3.json"));
    // The builder arms recording on the cluster config.
    let cluster = a.cluster().expect("buildable");
    assert!(cluster.config().tmk.trace.is_some());

    // Defaults: recording off, no paths.
    let d = RunnerArgs::parse(&[]).unwrap();
    assert!(!d.tracing());
    assert_eq!(d.trace_path(0, false), None);
    assert!(d.cluster().expect("buildable").config().tmk.trace.is_none());
}

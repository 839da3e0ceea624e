//! Acceptance tests for the `ompc` front-end: every bundled `.omp`
//! example program parses, lowers, and executes on 1/2/4/8 simulated
//! workstations — and on mixed SMP-cluster topologies — with results
//! matching a native-Rust reference implementation.
//!
//! The scalar references for pi/dotprod/jacobi are the single source in
//! [`now_bench::smp::native_reference`] (shared with the bench ablation
//! and the `smp_topologies` example); the grid/array references that
//! must match bit-for-bit are computed by the helpers below.

use nomp::{Cluster, OmpConfig, RunReport, Schedule};
use now_bench::smp::native_reference;
use ompc::ProgramOutput;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Compile once and run as a job through the `Cluster` session API (the
/// path every one-shot shim funnels into).
fn run_omp(src: &str, cfg: OmpConfig) -> RunReport<ProgramOutput> {
    let prog = ompc::compile(src).expect("bundled program must compile");
    Cluster::from_config(cfg).run(prog).expect("cluster job")
}

const NODES: [usize; 4] = [1, 2, 4, 8];

const PI: &str = include_str!("../examples/omp/pi.omp");
const DOTPROD: &str = include_str!("../examples/omp/dotprod.omp");
const JACOBI: &str = include_str!("../examples/omp/jacobi.omp");
const FIB: &str = include_str!("../examples/omp/fib.omp");
const QSORT: &str = include_str!("../examples/omp/qsort.omp");

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// jacobi.omp's final grid (element-wise deterministic, so translated
/// runs must match bit-for-bit on any topology).
fn jacobi_reference_grid() -> Vec<f64> {
    let n = 258usize;
    let mut u = vec![0.0f64; n];
    let mut unew = vec![0.0f64; n];
    u[0] = 1.0;
    unew[0] = 1.0;
    for _ in 0..40 {
        for i in 1..n - 1 {
            unew[i] = 0.5 * (u[i - 1] + u[i + 1]);
        }
        u[1..n - 1].copy_from_slice(&unew[1..n - 1]);
    }
    u
}

fn fib(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

/// qsort.omp's array after sorting (replicates the program's LCG fill).
fn qsort_reference_sorted() -> Vec<f64> {
    let n = 400usize;
    let mut seed = 7i64;
    let mut expect = Vec::with_capacity(n);
    for _ in 0..n {
        seed = (seed * 1069 + 1) % 65536;
        expect.push((seed % 1000) as f64);
    }
    expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
    expect
}

#[test]
fn pi_matches_native_reference() {
    let expect = native_reference("pi");
    for nodes in NODES {
        let out = run_omp(PI, OmpConfig::fast_test(nodes));
        let pi = out.result.scalars["pi"];
        assert!(
            close(pi, expect, 1e-9),
            "{nodes} nodes: {pi} vs reference {expect}"
        );
        assert!((pi - std::f64::consts::PI).abs() < 1e-7);
        // The translated program paid real fork/barrier/page traffic.
        if nodes > 1 {
            assert!(out.msgs() > 0, "{nodes} nodes: no DSM traffic?");
        }
        assert!(out.vt_ns > 0);
    }
}

#[test]
fn dotprod_matches_native_reference() {
    let expect = native_reference("dotprod");
    for nodes in NODES {
        // Also exercise schedule(runtime): the second loop defers to the
        // configuration, which we point at dynamic chunking.
        let mut cfg = OmpConfig::fast_test(nodes);
        cfg.runtime_schedule = Schedule::Dynamic(256);
        let out = run_omp(DOTPROD, cfg);
        assert!(
            close(out.result.scalars["dot"], expect, 1e-9),
            "{nodes} nodes: {} vs {expect}",
            out.result.scalars["dot"]
        );
    }
}

#[test]
fn jacobi_matches_native_reference_exactly() {
    let u = jacobi_reference_grid();
    let resid = native_reference("jacobi");
    for nodes in NODES {
        let out = run_omp(JACOBI, OmpConfig::fast_test(nodes));
        assert_eq!(out.result.arrays["u"], u, "{nodes} nodes: grid diverged");
        assert!(
            close(out.result.scalars["resid"], resid, 1e-12),
            "{nodes} nodes: residual {} vs {resid}",
            out.result.scalars["resid"]
        );
    }
}

#[test]
fn fib_matches_native_reference() {
    let expect = fib(16) as f64;
    for nodes in NODES {
        let out = run_omp(FIB, OmpConfig::fast_test(nodes));
        assert_eq!(out.result.scalars["count"], expect, "{nodes} nodes");
        assert!(out.dsm.tasks_executed > 0, "{nodes} nodes: no tasks ran");
    }
}

#[test]
fn qsort_matches_native_reference() {
    let expect = qsort_reference_sorted();
    for nodes in NODES {
        let out = run_omp(QSORT, OmpConfig::fast_test(nodes));
        assert_eq!(out.result.ret, 0.0, "{nodes} nodes: sort left inversions");
        assert_eq!(
            out.result.arrays["a"], expect,
            "{nodes} nodes: wrong contents"
        );
    }
}

/// `qsort.omp`, the corpus's one `taskwait`, for 10 warm jobs on 4×1: a
/// `taskwait` joins only the thieves of its own task's children, by one
/// `task_join` and one `task_done` each (DESIGN.md §2i), and the sweeps
/// ask at most `K` victims per task stolen, summed over the jobs.
///
/// Over 70 runs of this test (2 vCPUs, debug build, alone and beside
/// the rest of this file) the ratio read 4.7–10.3, with 195–288
/// requests for 22–59 tasks stolen. A `taskwait` that polled every
/// deque, as the scope-wide quiescence test did, read about 28.
#[test]
fn qsort_joins_only_the_thieves_of_its_children() {
    const K: u64 = 16;
    let prog = ompc::compile(QSORT).expect("bundled program must compile");
    let mut cluster = Cluster::from_config(OmpConfig::fast_test(4));
    let (mut req, mut stolen) = (0, 0);
    for job in 0..10 {
        let out = cluster.run(&prog).expect("cluster job");
        assert_eq!(out.result.ret, 0.0, "job {job}: inversions");
        let (join, done) = (sent(&out, "task_join"), sent(&out, "task_done"));
        let thefts = out.dsm.tasks_stolen;
        let joined = join == done && done <= thefts;
        assert!(
            joined,
            "job {job}: {join} joins, {done} answers, {thefts} stolen"
        );
        (req, stolen) = (req + sent(&out, "steal_req"), stolen + thefts);
    }
    assert!(
        req <= K * stolen,
        "{req} steal requests for {stolen} stolen"
    );
}

/// SMP-cluster acceptance: every bundled program produces results
/// matching its native reference on mixed `nodes × threads_per_node`
/// topologies — translated programs run unchanged on any topology
/// because `omp_get_num_threads()` resolves to the total thread count.
#[test]
fn all_programs_match_references_on_mixed_topologies() {
    const MIXED: [(usize, usize); 3] = [(2, 2), (4, 2), (2, 4)];
    let pi_ref = native_reference("pi");
    let dot_ref = native_reference("dotprod");
    let u = jacobi_reference_grid();
    let sorted = qsort_reference_sorted();

    for (nodes, tpn) in MIXED {
        let cfg = || OmpConfig::fast_test_smp(nodes, tpn);

        let out = run_omp(PI, cfg());
        assert!(
            close(out.result.scalars["pi"], pi_ref, 1e-9),
            "pi {nodes}x{tpn}: {} vs {pi_ref}",
            out.result.scalars["pi"]
        );

        let mut dcfg = cfg();
        dcfg.runtime_schedule = Schedule::Dynamic(256);
        let out = run_omp(DOTPROD, dcfg);
        assert!(
            close(out.result.scalars["dot"], dot_ref, 1e-9),
            "dotprod {nodes}x{tpn}: {} vs {dot_ref}",
            out.result.scalars["dot"]
        );

        let out = run_omp(JACOBI, cfg());
        assert_eq!(
            out.result.arrays["u"], u,
            "jacobi {nodes}x{tpn}: grid diverged"
        );

        let out = run_omp(FIB, cfg());
        assert_eq!(
            out.result.scalars["count"],
            fib(16) as f64,
            "fib {nodes}x{tpn}"
        );
        assert!(
            out.dsm.tasks_executed > 0,
            "fib {nodes}x{tpn}: no tasks ran"
        );

        let out = run_omp(QSORT, cfg());
        assert_eq!(out.result.ret, 0.0, "qsort {nodes}x{tpn}: inversions");
        assert_eq!(
            out.result.arrays["a"], sorted,
            "qsort {nodes}x{tpn}: contents"
        );
    }
}

/// Moving the 8 threads of the pi kernel on-node sheds DSM messages
/// monotonically; one SMP node needs none at all.
#[test]
fn pi_traffic_falls_as_threads_move_on_node() {
    let msgs: Vec<u64> = [(8, 1), (4, 2), (2, 4), (1, 8)]
        .into_iter()
        .map(|(nodes, tpn)| {
            let out = run_omp(PI, OmpConfig::fast_test_smp(nodes, tpn));
            assert!(
                (out.result.scalars["pi"] - std::f64::consts::PI).abs() < 1e-7,
                "{nodes}x{tpn}"
            );
            out.msgs()
        })
        .collect();
    assert!(
        msgs.windows(2).all(|w| w[0] > w[1]),
        "pi DSM messages must fall as threads move on-node: {msgs:?}"
    );
    assert_eq!(msgs[3], 0, "1x8 runs the whole program without the wire");
}

#[test]
fn printed_output_is_captured_from_sequential_context() {
    let out = run_omp(PI, OmpConfig::fast_test(2));
    assert_eq!(out.result.printed.len(), 2);
    assert!(
        out.result.printed[0].starts_with("pi = 3.14"),
        "{:?}",
        out.result.printed
    );
    assert!(
        out.result.printed[1].starts_with("elapsed virtual seconds = "),
        "{:?}",
        out.result.printed
    );
}

#[test]
fn runner_cli_analyzer_flags_parse() {
    use openmp_now::cli::RunnerArgs;
    let argv: Vec<String> = ["--analyze=json", "--deny-races", "x.omp"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let a = RunnerArgs::parse(&argv).expect("valid args");
    assert!(a.analyze && a.analyze_json && a.deny_races);
    assert!(!a.race_check);

    let b = RunnerArgs::parse(&["--analyze".into(), "--race-check".into()]).unwrap();
    assert!(b.analyze && !b.analyze_json && b.race_check);

    // Defaults: everything off.
    let d = RunnerArgs::parse(&[]).unwrap();
    assert!(!d.analyze && !d.analyze_json && !d.deny_races && !d.race_check);

    // Junk --analyze values and unknown flags get one-line messages
    // that name the analyzer flags.
    let e = RunnerArgs::parse(&["--analyze=yaml".into()]).expect_err("bad value");
    assert!(e.contains("json"), "{e}");
    let e = RunnerArgs::parse(&["--races".into()]).expect_err("unknown flag");
    assert!(e.contains("--deny-races"), "{e}");
}

/// Remote messages sent of one kind.
fn sent(r: &RunReport<ProgramOutput>, kind: &str) -> u64 {
    r.net.kind(kind).map_or(0, |k| k.send_msgs)
}

/// Every kind that sent a remote message, with its count.
fn traffic(r: &RunReport<ProgramOutput>) -> Vec<(&'static str, u64)> {
    (r.net.per_kind.iter())
        .filter(|k| k.send_msgs > 0)
        .map(|k| (k.kind, k.send_msgs))
        .collect()
}

/// Run `f` on a thread of its own, failing if it takes over `limit`: a
/// barrier that some thread of a team skips hangs the others.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let run = std::thread::spawn(move || tx.send(f()).expect("watchdog listening"));
    match rx.recv_timeout(limit) {
        Ok(v) => v,
        Err(RecvTimeoutError::Timeout) => panic!("still running after {limit:?}: a team hung"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(run.join().expect_err("the run sent nothing"))
        }
    }
}

/// A plain region's barrier runs at the first region-level statement
/// that needs it, and the join absorbs one that none needs (DESIGN.md
/// §2j). `barrier_phases.omp`'s second loop ends its region, so its
/// barrier round goes: 24 msgs before, 18 now.
#[test]
fn the_join_absorbs_the_barrier_of_a_regions_last_loop() {
    let src = include_str!("../examples/omp/clean/barrier_phases.omp");
    let out = run_omp(src, OmpConfig::fast_test(4));
    let b: Vec<f64> = (0..32).map(|j| j as f64 * 3.0).collect();
    assert_eq!(out.result.arrays["b"], b);
    assert_eq!(out.msgs(), 18, "{:?}", traffic(&out));
    assert_eq!(sent(&out, "barrier_depart"), 3, "the first loop's round");
}

/// `dead_barrier.omp`: the loop's barrier and the explicit one after it
/// are one pending barrier, and the join absorbs it; 6 departures before.
#[test]
fn a_dead_barrier_sends_no_departure() {
    let src = include_str!("../examples/omp/racy/dead_barrier.omp");
    let out = run_omp(src, OmpConfig::fast_test(4));
    let a: Vec<f64> = (0..32).map(|i| i as f64 * 2.0).collect();
    assert_eq!(out.result.arrays["a"], a);
    assert_eq!(sent(&out, "barrier_depart"), 0, "{:?}", traffic(&out));
    assert_eq!(sent(&out, "barrier_arrive"), 3, "the join's arrivals");
}

/// A task region's barriers stay where they are: its body is only the
/// task scope's init phase, and the tasks no walk of that body sees run
/// on any thread. `fib.omp`'s `single` keeps its implied barrier round
/// before the join.
#[test]
fn a_task_regions_barrier_is_not_deferred() {
    let out = run_omp(FIB, OmpConfig::fast_test(4));
    assert_eq!(out.result.scalars["count"], fib(16) as f64);
    assert_eq!(sent(&out, "barrier_arrive"), 6, "{:?}", traffic(&out));
    assert_eq!(sent(&out, "barrier_depart"), 3, "{:?}", traffic(&out));
}

/// Every kind of settle point in one region: a `while` whose condition
/// reads `phase`, which the `single` in its body writes; two barriers
/// back to back before a read of what other threads wrote; and a write
/// by thread 0 alone after the region's last loop, which reads that
/// loop's writes by the other threads.
const SETTLE: &str = "double a[64];\n\
    double b[64];\n\
    double seen[8];\n\
    double total;\n\
    int phase;\n\
    int main() {\n\
      #pragma omp parallel\n\
      {\n\
        int t = omp_get_thread_num();\n\
        while (phase < 3) {\n\
          #pragma omp for schedule(static)\n\
          for (int i = 0; i < 64; i = i + 1) { a[i] = a[i] + (phase + 1) * i; }\n\
          #pragma omp single\n\
          { phase = phase + 1; }\n\
        }\n\
        #pragma omp barrier\n\
        #pragma omp barrier\n\
        double v = a[63 - t];\n\
        seen[t] = v + phase;\n\
        #pragma omp for schedule(static)\n\
        for (int i = 0; i < 64; i = i + 1) { b[i] = a[i] * 2.0; }\n\
        if (t == 0) { total = b[63] + b[0]; }\n\
      }\n\
      return 0;\n\
    }";

#[test]
fn deferred_barriers_settle_where_a_statement_needs_them() {
    for (nodes, tpn) in [(2, 1), (4, 1), (2, 2)] {
        let out = within(Duration::from_secs(60), move || {
            run_omp(SETTLE, OmpConfig::fast_test_smp(nodes, tpn))
        });
        let threads = nodes * tpn;
        let a: Vec<f64> = (0..64).map(|i| 6.0 * i as f64).collect();
        let b: Vec<f64> = a.iter().map(|v| v * 2.0).collect();
        let seen: Vec<f64> = (0..8)
            .map(|t| {
                if t < threads {
                    6.0 * (63 - t) as f64 + 3.0
                } else {
                    0.0
                }
            })
            .collect();
        let at = format!("{nodes}x{tpn}");
        assert_eq!(out.result.arrays["a"], a, "{at}");
        assert_eq!(out.result.arrays["b"], b, "{at}");
        assert_eq!(out.result.arrays["seen"], seen, "{at}");
        assert_eq!(out.result.scalars["total"], 756.0, "{at}");
        assert_eq!(out.result.scalars["phase"], 3.0, "{at}");
        // Per slave: 8 barrier rounds and the join. Each pass of the
        // `while` runs two, the loop's (settled by the `single`) and the
        // `single`'s (settled by the next test of `phase`); the
        // back-to-back pair runs one, and so does the last loop. Run
        // where they stand, the barriers sent one round more, the pair's
        // second, and the same diff traffic.
        let s = nodes as u64 - 1;
        let diffs = if nodes == 4 { 18 } else { 4 };
        let want = vec![
            ("barrier_arrive", 9 * s),
            ("barrier_depart", 8 * s),
            ("diff_rep", diffs),
            ("diff_req", diffs),
            ("fork", s),
        ];
        let mut got = traffic(&out);
        got.sort();
        assert_eq!(got, want, "{at}");
    }
}

//! Reductions ride the join: each node's partial travels in its join
//! barrier arrival, and the master folds the partials in node order.
//! These tests pin that fold order bit for bit (floating point can tell
//! orders apart), the traffic it costs, the interior `for reduction`
//! that keeps its lock, and the `critical` sections that only
//! accumulate and so ride the join like a reduction.

use nomp::{Cluster, Job, OmpConfig, RedOp, Reduce, RunReport, Schedule};
use ompc::ProgramOutput;

const OPS: [RedOp; 4] = [RedOp::Sum, RedOp::Prod, RedOp::Min, RedOp::Max];

/// `(nodes, threads per node)`: four OpenMP threads each. At 2×2 no
/// order of four sum partials rounds differently (two-operand sums
/// commute, and the identity adds exactly); 4×1 tells node orders apart,
/// 1×4 the team's.
const TOPOS: [(usize, usize); 3] = [(4, 1), (2, 2), (1, 4)];

/// One value per OpenMP thread. The sums and products round
/// differently in different orders.
fn f64_values(op: RedOp) -> [f64; 4] {
    match op {
        RedOp::Sum => [1e16, 1.0, -1e16, 1.0],
        RedOp::Prod => [3.0, 0.1, 7.0, 0.3],
        RedOp::Min | RedOp::Max => [2.5, -1.5, 7.0, 0.25],
    }
}

fn i64_values(op: RedOp) -> [i64; 4] {
    match op {
        RedOp::Prod => [3, -2, 5, 7],
        _ => [5, -3, 11, 2],
    }
}

/// The value the runtime must produce: `init`, then each node's partial
/// in node order, where a node's partial is its threads' values folded
/// in `local_tid` order. Each thread's own accumulator starts at the
/// identity.
fn node_order<T: Reduce>(op: RedOp, init: T, vals: &[T], tpn: usize) -> T {
    vals.chunks(tpn).fold(init, |acc, node| {
        let local = |v: &T| T::combine(op, T::identity(op), *v);
        let total = node.iter().map(local).reduce(|a, b| T::combine(op, a, b));
        T::combine(op, acc, total.expect("a node has a thread"))
    })
}

/// `parallel_reduce` with thread `t` reducing `vals[t]` alone.
fn closure_reduce<T: Reduce + Sync>(op: RedOp, vals: [T; 4], cfg: OmpConfig) -> RunReport<T> {
    nomp::run(cfg, move |omp| {
        omp.parallel_reduce(
            Schedule::StaticChunk(1),
            0..4,
            op,
            move |t, i, acc: &mut T| {
                assert_eq!(i, t.thread_num(), "one iteration per thread");
                *acc = T::combine(op, *acc, vals[i]);
            },
        )
    })
}

/// `parallel_reduce_vec` over two elements: thread `t` reduces `vals[t]`
/// into the first and `vals[3 - t]` into the second.
fn closure_reduce_vec<T: Reduce + Sync>(op: RedOp, vals: [T; 4], cfg: OmpConfig) -> Vec<T> {
    let out = nomp::run(cfg, move |omp| {
        omp.parallel_reduce_vec(2, op, move |t, acc: &mut [T]| {
            let me = t.thread_num();
            acc[0] = T::combine(op, acc[0], vals[me]);
            acc[1] = T::combine(op, acc[1], vals[3 - me]);
        })
    });
    out.result
}

fn bits(v: f64) -> u64 {
    v.to_bits()
}

#[test]
fn closure_reductions_return_the_node_order_fold() {
    for (nodes, tpn) in TOPOS {
        let cfg = || OmpConfig::fast_test_smp(nodes, tpn);
        for op in OPS {
            let vals = f64_values(op);
            let want = node_order(op, f64::identity(op), &vals, tpn);
            let got = closure_reduce(op, vals, cfg()).result;
            assert_eq!(
                bits(got),
                bits(want),
                "{nodes}x{tpn} f64 {op:?}: {got} vs {want}"
            );
            let mut rev = vals;
            rev.reverse();
            let want_rev = node_order(op, f64::identity(op), &rev, tpn);
            let got = closure_reduce_vec(op, vals, cfg());
            assert_eq!(
                got.iter().map(|&v| bits(v)).collect::<Vec<_>>(),
                [bits(want), bits(want_rev)],
                "{nodes}x{tpn} f64 vec {op:?}"
            );

            let vals = i64_values(op);
            let want = node_order(op, i64::identity(op), &vals, tpn);
            assert_eq!(
                closure_reduce(op, vals, cfg()).result,
                want,
                "{nodes}x{tpn} i64 {op:?}"
            );
            let mut rev = vals;
            rev.reverse();
            let want_rev = node_order(op, i64::identity(op), &rev, tpn);
            let got = closure_reduce_vec(op, vals, cfg());
            assert_eq!(got, [want, want_rev], "{nodes}x{tpn} i64 vec {op:?}");
        }
    }
}

/// A program reducing `vals[t]` on thread `t` into the global `x` of
/// type `ty` (initially `init`): through a combined `parallel for` or a
/// `parallel` region's own clause.
fn omp_source(op: RedOp, ty: &str, init: f64, vals: [f64; 4], combined: bool) -> String {
    let (clause, update) = match op {
        RedOp::Sum => ("+", "x = x + v;"),
        RedOp::Prod => ("*", "x = x * v;"),
        RedOp::Min => ("min", "if (v < x) { x = v; }"),
        RedOp::Max => ("max", "if (v > x) { x = v; }"),
    };
    let fill: String = (0..4)
        .map(|i| format!("vals[{i}] = {:?};\n", vals[i]))
        .collect();
    let region = if combined {
        format!(
            "#pragma omp parallel for reduction({clause}:x) schedule(static, 1)\n\
             for (int i = 0; i < 4; i = i + 1) {{ double v = vals[i]; {update} }}\n"
        )
    } else {
        format!(
            "#pragma omp parallel reduction({clause}:x)\n\
             {{ double v = vals[omp_get_thread_num()]; {update} }}\n"
        )
    };
    format!("{ty} x = {init:?};\ndouble vals[4];\nint main() {{\n{fill}{region}return 0;\n}}\n")
}

fn run_omp(src: &str, cfg: OmpConfig) -> RunReport<ProgramOutput> {
    let prog = ompc::compile(src).unwrap_or_else(|d| panic!("compile failed: {d}\n{src}"));
    Cluster::from_config(cfg)
        .run(&prog)
        .expect("a fresh cluster accepts a job")
}

#[test]
fn omp_reductions_return_the_node_order_fold() {
    for (nodes, tpn) in TOPOS {
        for op in OPS {
            let init = match op {
                RedOp::Sum => 0.0,
                RedOp::Prod => 1.0,
                RedOp::Min => 1e9,
                RedOp::Max => -1e9,
            };
            let ints = i64_values(op).map(|v| v as f64);
            for (ty, vals) in [("double", f64_values(op)), ("int", ints)] {
                let want = node_order(op, init, &vals, tpn);
                for combined in [true, false] {
                    let src = omp_source(op, ty, init, vals, combined);
                    let got = run_omp(&src, OmpConfig::fast_test_smp(nodes, tpn)).result;
                    let got = got.scalars["x"];
                    assert_eq!(
                        bits(got),
                        bits(want),
                        "{nodes}x{tpn} {ty} {op:?} combined={combined}: {got} vs {want}"
                    );
                }
            }
        }
    }
}

#[test]
fn an_order_sensitive_sum_is_bit_identical_across_runs() {
    let vals = f64_values(RedOp::Sum);
    for (nodes, tpn) in TOPOS {
        let want = node_order(RedOp::Sum, 0.0, &vals, tpn);
        let mut cluster = Cluster::from_config(OmpConfig::fast_test_smp(nodes, tpn));
        let prog = ompc::compile(&omp_source(RedOp::Sum, "double", 0.0, vals, true)).unwrap();
        for run in 0..20 {
            let job = Job::new(move |omp: &mut nomp::Env<'_>| {
                omp.parallel_reduce(
                    Schedule::StaticChunk(1),
                    0..4,
                    RedOp::Sum,
                    move |_, i, acc: &mut f64| {
                        *acc += vals[i];
                    },
                )
            });
            let got = cluster.run(job).expect("warm cluster").result;
            assert_eq!(
                bits(got),
                bits(want),
                "{nodes}x{tpn} closure run {run}: {got}"
            );
            let got = cluster.run(&prog).expect("warm cluster").result.scalars["x"];
            assert_eq!(
                bits(got),
                bits(want),
                "{nodes}x{tpn} program run {run}: {got}"
            );
        }
    }
}

fn sent<R>(r: &RunReport<R>, kind: &str) -> u64 {
    r.net.kind(kind).map_or(0, |k| k.send_msgs)
}

const LOCK_AND_DIFF_KINDS: [&str; 5] =
    ["lock_acq", "lock_rel", "lock_grant", "diff_req", "diff_rep"];

#[test]
fn a_region_end_reduction_takes_no_lock_and_fetches_no_diff() {
    let pi = include_str!("../examples/omp/pi.omp");
    let program = run_omp(pi, OmpConfig::fast_test(4));
    let closure = closure_reduce(RedOp::Sum, f64_values(RedOp::Sum), OmpConfig::fast_test(4));
    for kind in LOCK_AND_DIFF_KINDS {
        assert_eq!(sent(&program, kind), 0, "pi.omp sent {kind}");
        assert_eq!(sent(&closure, kind), 0, "parallel_reduce sent {kind}");
    }
    assert_eq!(program.dsm.lock_acquires + closure.dsm.lock_acquires, 0);
    assert_eq!(program.dsm.read_faults + closure.dsm.read_faults, 0);
}

#[test]
fn pi_on_two_nodes_sends_one_fork_and_one_arrival() {
    let pi = include_str!("../examples/omp/pi.omp");
    let out = run_omp(pi, OmpConfig::fast_test(2));
    assert!((out.result.scalars["pi"] - std::f64::consts::PI).abs() < 1e-6);
    // The slave's partial rides its join arrival, and the one-way join
    // departs the master alone, a free self-send: 1 + 1 messages.
    for kind in ["fork", "barrier_arrive"] {
        assert_eq!(sent(&out, kind), 1, "{kind}");
    }
    assert_eq!(sent(&out, "barrier_depart"), 0);
    assert_eq!(out.net.total_msgs(), 2);
}

#[test]
fn a_one_way_join_counts_one_barrier_a_node_as_before() {
    // Recorded with the two-way join: `pi.omp` crosses its one join, and
    // `jacobi.omp` 81 barriers a node, its two joins and 79 interior
    // ones. The 80th, the last sweep's copy-back barrier, orders nothing
    // the first join does not, and rides it (DESIGN.md §2j). A slave
    // counts its join when it arrives.
    let pi = include_str!("../examples/omp/pi.omp");
    let jacobi = include_str!("../examples/omp/jacobi.omp");
    for (nodes, tpn) in [(1, 1), (2, 1), (4, 1), (2, 2)] {
        for (name, src, per_node) in [("pi", pi, 1), ("jacobi", jacobi, 81)] {
            let out = run_omp(src, OmpConfig::fast_test_smp(nodes, tpn));
            let want = per_node * nodes as u64;
            assert_eq!(out.dsm.barriers, want, "{name} on {nodes}x{tpn}");
        }
    }
}

#[test]
fn every_thread_reads_an_interior_for_reduction_right_after_its_loop() {
    let src = "double s;\n\
               double seen[4];\n\
               int main() {\n\
                 #pragma omp parallel\n\
                 {\n\
                   #pragma omp for reduction(+:s) schedule(static)\n\
                   for (int i = 0; i < 100; i = i + 1) { s = s + i; }\n\
                   seen[omp_get_thread_num()] = s;\n\
                 }\n\
                 return 0;\n\
               }";
    for (nodes, tpn) in TOPOS {
        let out = run_omp(src, OmpConfig::fast_test_smp(nodes, tpn));
        assert_eq!(out.result.scalars["s"], 4950.0, "{nodes}x{tpn}");
        assert_eq!(out.result.arrays["seen"], [4950.0; 4], "{nodes}x{tpn}");
        // The interior loop's combine is the one reduction path that
        // keeps its lock: one tenure per node.
        assert_eq!(out.dsm.lock_acquires, nodes as u64, "{nodes}x{tpn}");
    }
}

#[test]
fn a_task_region_reduction_rides_its_join() {
    // A region that runs as a task scope: the reduction is contributed
    // after the region body, before the scope's termination, and folded
    // after its join like any other.
    let src = "double total;\n\
               double hits;\n\
               void leaf(int k) {\n\
                 #pragma omp critical\n\
                 { hits = hits + k; }\n\
               }\n\
               int main() {\n\
                 #pragma omp parallel reduction(+:total)\n\
                 {\n\
                   #pragma omp single\n\
                   {\n\
                     for (int k = 1; k <= 4; k = k + 1) {\n\
                       #pragma omp task\n\
                       leaf(k);\n\
                     }\n\
                   }\n\
                   total = total + omp_get_thread_num() + 1;\n\
                 }\n\
                 return 0;\n\
               }";
    for (nodes, tpn) in [(3, 1), (2, 2)] {
        let out = run_omp(src, OmpConfig::fast_test_smp(nodes, tpn)).result;
        let p = (nodes * tpn) as f64;
        assert_eq!(out.scalars["total"], p * (p + 1.0) / 2.0, "{nodes}x{tpn}");
        assert_eq!(out.scalars["hits"], 10.0, "{nodes}x{tpn}");
    }
}

/// `(name, source, [(global, value on p threads)])`: programs whose
/// `critical` sections only accumulate, and one that keeps its lock.
type Accumulating = (&'static str, String, fn(f64) -> Vec<(&'static str, f64)>);

fn accumulating_programs() -> Vec<Accumulating> {
    let region = |body: &str| {
        format!(
            "double g;\ndouble s = 2;\ndouble m = 1;\nint c;\ndouble seen;\n\
             void f(int k) {{\n#pragma omp critical\n{{ g = g + k; }}\n}}\n\
             int main() {{\n{body}\nreturn 0;\n}}\n"
        )
    };
    vec![
        (
            "critical_incr",
            include_str!("../examples/omp/clean/critical_incr.omp").into(),
            |p| vec![("count", p)],
        ),
        (
            "task_critical",
            include_str!("../examples/omp/clean/task_critical.omp").into(),
            |_| vec![("count", 8.0)],
        ),
        (
            "fib",
            include_str!("../examples/omp/fib.omp").into(),
            |_| vec![("count", 987.0)],
        ),
        (
            "critical_calls_spawner",
            include_str!("../examples/omp/clean/critical_calls_spawner.omp").into(),
            |p| vec![("count", p)],
        ),
        (
            "lock_nested_consistent",
            include_str!("../examples/omp/clean/lock_nested_consistent.omp").into(),
            |p| vec![("g", p), ("h", 0.0)],
        ),
        (
            // `-` chains are sums and `*` chains products.
            "chains",
            region(
                "#pragma omp parallel\n{\nint i = 0;\nwhile (i < 3) {\n\
                 #pragma omp critical\n{ s = s - omp_get_thread_num() + 10; m = 2 * m; }\n\
                 i = i + 1;\n}\n}",
            ),
            |p| {
                let t = p * (p - 1.0) / 2.0;
                vec![("s", 2.0 + 3.0 * (10.0 * p - t)), ("m", 2f64.powf(3.0 * p))]
            },
        ),
        (
            // The same orphaned section runs in sequential context too,
            // where it writes `g` directly, before and after a region.
            "sequential and parallel calls",
            region("f(1);\n#pragma omp parallel\n{ f(2); }\nf(g);"),
            |p| vec![("g", 2.0 * (1.0 + 2.0 * p))],
        ),
        (
            // `int` stores truncate: -3 + 0.7 is -2 under the lock, but a
            // private accumulator would add trunc(0.7) = 0.
            "kept locked: an int accumulator",
            region("c = -3;\n#pragma omp parallel\n{\n#pragma omp critical\n{ c = c + 0.7; }\n}"),
            |p| vec![("c", (p - 3.0).min(0.0))],
        ),
        (
            // `-g` is no leaf of a sum: the updates alternate 1, 0, 1, ...
            "kept locked: g negated inside the sum",
            region("#pragma omp parallel\n{\n#pragma omp critical\n{ g = -g + 1; }\n}"),
            |p| vec![("g", p % 2.0)],
        ),
        (
            "kept locked: g read in the section",
            region("#pragma omp parallel\n{\n#pragma omp critical\n{ g = g + 1; seen = g; }\n}"),
            |p| vec![("g", p), ("seen", p)],
        ),
    ]
}

#[test]
fn accumulate_only_criticals_give_the_locked_result_bit_for_bit() {
    for (name, src, want) in accumulating_programs() {
        for (nodes, tpn) in [(1, 1), (2, 1), (4, 1), (2, 2)] {
            let out = run_omp(&src, OmpConfig::fast_test_smp(nodes, tpn));
            for (global, value) in want((nodes * tpn) as f64) {
                let got = out.result.scalars[global];
                assert_eq!(
                    bits(got),
                    bits(value),
                    "{name} {global} on {nodes}x{tpn}: {got}"
                );
            }
            if name.starts_with("kept locked") && nodes > 1 {
                assert!(sent(&out, "lock_acq") > 0, "{name} on {nodes}x{tpn}");
            }
        }
    }
}

#[test]
fn a_race_checked_run_still_sees_the_sections_lock() {
    // The monitor orders the sections as the locked program would, so
    // the checked run of a clean example reports nothing.
    let src = include_str!("../examples/omp/clean/critical_incr.omp");
    let prog = ompc::compile(src).unwrap().check_races(true);
    let out = Cluster::from_config(OmpConfig::fast_test_smp(2, 2))
        .run(&prog)
        .expect("a fresh cluster accepts a job")
        .result;
    assert_eq!(out.scalars["count"], 4.0);
    assert!(out.races.is_empty(), "{:?}", out.races);
}

#[test]
fn critical_incr_takes_no_lock_on_four_nodes() {
    // Each slave's partial rides its join arrival: a fork and an arrival
    // per slave, and not one lock message.
    let src = include_str!("../examples/omp/clean/critical_incr.omp");
    let out = run_omp(src, OmpConfig::fast_test(4));
    assert_eq!(out.result.scalars["count"], 4.0);
    for kind in ["fork", "barrier_arrive"] {
        assert_eq!(sent(&out, kind), 3, "{kind}");
    }
    for kind in ["lock_acq", "lock_rel", "lock_grant"] {
        assert_eq!(sent(&out, kind), 0, "{kind}");
    }
    assert_eq!(out.net.total_msgs(), 6);
}

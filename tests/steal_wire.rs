//! A steal sweep is one chain of requests and one reply: under work
//! stealing each node's task deque lives in its DSM node state, not in
//! DSM pages, and a victim with nothing to give forwards the thief's
//! request to the next victim (DESIGN.md §2i). These tests pin what the
//! task-tree program sends by kind (no join without a `taskwait`), and
//! check that a stolen task sees what its spawner wrote before the push.

use nomp::{Cluster, OmpConfig, RunReport, TaskArgs, TaskScopeConfig, TraceConfig};
use ompc::ProgramOutput;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tmk::EventKind;

/// `(nodes, threads per node)`.
const TOPOS: [(usize, usize); 2] = [(4, 1), (2, 2)];

/// `examples/omp/fib.omp` at n = 12, the benchmark's task tree.
fn fib12() -> String {
    let src = include_str!("../examples/omp/fib.omp");
    assert!(src.contains("int n = 16;"));
    src.replace("int n = 16;", "int n = 12;")
}

fn run_traced(src: &str, nodes: usize, tpn: usize) -> RunReport<ProgramOutput> {
    let prog = ompc::compile(src).unwrap_or_else(|d| panic!("compile failed: {d}"));
    let mut cfg = OmpConfig::fast_test_smp(nodes, tpn);
    cfg.tmk.trace = Some(TraceConfig::default());
    Cluster::from_config(cfg)
        .run(&prog)
        .expect("a fresh cluster accepts a job")
}

fn sent<R>(r: &RunReport<R>, kind: &str) -> u64 {
    r.net.kind(kind).map_or(0, |k| k.send_msgs)
}

/// The ids the per-node deque locks had when the deques were DSM
/// regions: lock `k` was managed by node `k`.
fn old_deque_locks(nodes: usize) -> Vec<u64> {
    const BASE: u32 = 0xF800_0000;
    let base = BASE - (BASE % nodes as u32);
    (0..nodes).map(|k| (base + k as u32) as u64).collect()
}

#[test]
fn fib12_steals_by_message_and_takes_no_deque_lock() {
    let src = fib12();
    for (nodes, tpn) in TOPOS {
        let out = run_traced(&src, nodes, tpn);
        let count = out.result.scalars["count"];
        assert_eq!(count.to_bits(), 144f64.to_bits(), "{nodes}x{tpn}");
        // Tasks move: a thief's request reaches a victim while the
        // victim still holds tasks.
        assert!(out.dsm.tasks_stolen > 0, "{nodes}x{tpn}: {:?}", out.dsm);
        // Every victim asked is one request, sent by the thief or
        // forwarded by the victim before it, and a chain of them is
        // answered once.
        let (req, rep) = (sent(&out, "steal_req"), sent(&out, "steal_rep"));
        assert_eq!(req, out.dsm.steal_attempts, "{nodes}x{tpn}");
        assert!(rep <= req, "{nodes}x{tpn}: {rep} replies to {req} requests");
        // fib has no `taskwait`, so a stolen child's completion sends
        // nothing: only a waiting parent joins its thieves.
        for kind in ["task_join", "task_done"] {
            assert_eq!(sent(&out, kind), 0, "{nodes}x{tpn}: {kind}");
        }
        // No lock message on a deque lock: no lock wait or release on
        // one of their ids.
        let trace = out.trace.as_ref().expect("tracing armed");
        let deque_locks = old_deque_locks(nodes);
        let lock_ops = trace
            .events
            .iter()
            .flatten()
            .filter(|e| matches!(e.kind, EventKind::LockWait | EventKind::LockRelease));
        for e in lock_ops {
            assert!(
                !deque_locks.contains(&e.a),
                "{nodes}x{tpn}: lock {:#x}",
                e.a
            );
        }
        // Termination takes no lock either: an idle node parks at node 0
        // by message, and every park gets exactly one answer.
        assert_eq!(out.dsm.lock_acquires, 0, "{nodes}x{tpn}");
        assert_eq!(
            sent(&out, "term_idle"),
            sent(&out, "term_go"),
            "{nodes}x{tpn}"
        );
        // No deque or termination page is left to fetch, and a stolen
        // root task's read of the global `n` finds its diff held: the
        // job's first fork carried the master's sequential writes.
        let fetched = sent(&out, "diff_req");
        assert_eq!(fetched, 0, "{nodes}x{tpn}: {fetched} diff_req");
    }
}

/// Hold a host thread until `done`, giving up after 5 s (a broken
/// runtime then fails the test's assertions instead of hanging it).
fn yield_until(done: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !done() && t0.elapsed() < Duration::from_secs(5) {
        std::thread::yield_now();
    }
}

#[test]
fn a_stolen_task_reads_what_its_spawner_wrote_before_the_push() {
    const TASKS: usize = 64;
    for (nodes, tpn) in TOPOS {
        // Thread 0 writes each task's input and pushes the task; a task
        // copies its input to its output slot. Node 0 holds each task it
        // runs until another node ran one, so a thief's steal lands while
        // node 0's writes are still only on node 0: the steal reply's
        // notices are the thief's only way to them.
        let thief_ran = Arc::new(AtomicBool::new(false));
        let out = nomp::run(OmpConfig::fast_test_smp(nodes, tpn), move |omp| {
            let input = omp.malloc_vec::<u64>(TASKS);
            let output = omp.malloc_vec::<u64>(TASKS);
            omp.task_scope(
                TaskScopeConfig::default(),
                move |s| {
                    if s.thread_num() == 0 {
                        for i in 0..TASKS {
                            s.write(&input, i, 1000 + i as u64);
                            s.task(TaskArgs::ab(i as u64, 0));
                        }
                    }
                },
                move |s, t| {
                    let i = t.a as usize;
                    let v = s.read(&input, i);
                    s.write(&output, i, v);
                    if s.node_id() == 0 {
                        yield_until(|| thief_ran.load(Ordering::SeqCst));
                    } else {
                        thief_ran.store(true, Ordering::SeqCst);
                    }
                },
            );
            omp.read_slice(&output, 0..TASKS)
        });
        let want: Vec<u64> = (0..TASKS as u64).map(|i| 1000 + i).collect();
        assert_eq!(out.result, want, "{nodes}x{tpn}");
        assert!(
            out.dsm.tasks_stolen > 0,
            "{nodes}x{tpn}: a thief ran a task"
        );
    }
}

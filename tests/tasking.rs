//! Cross-crate tests of the distributed tasking runtime: the task-based
//! application variants must reproduce the sequential results on every
//! cluster size, with the tasking counters telling a coherent story.

use nomp::{OmpConfig, TaskArgs, TaskScopeConfig};
use now_apps::{qsort, tsp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn qsort_task_checksums_match_seq_on_2_4_8_nodes() {
    let cfg = qsort::QsortConfig::test();
    let seq = qsort::run_seq(&cfg, 1.0);
    for nodes in [2usize, 4, 8] {
        let r = qsort::run_task(&cfg, OmpConfig::fast_test(nodes));
        assert_eq!(r.checksum, seq.checksum, "qsort @ {nodes} nodes");
    }
}

#[test]
fn tsp_task_checksums_match_seq_on_2_4_8_nodes() {
    let cfg = tsp::TspConfig::test();
    let seq = tsp::run_seq(&cfg, 1.0);
    for nodes in [2usize, 4, 8] {
        let r = tsp::run_task(&cfg, OmpConfig::fast_test(nodes));
        assert_eq!(r.checksum, seq.checksum, "tsp @ {nodes} nodes");
    }
}

#[test]
fn task_counters_are_coherent() {
    let cfg = qsort::QsortConfig::test();
    let (_, stats) = qsort::run_task_stats(&cfg, OmpConfig::fast_test(4));
    assert!(stats.tasks_spawned > 0, "tasks were spawned");
    assert_eq!(
        stats.tasks_executed, stats.tasks_spawned,
        "every spawned task executes exactly once"
    );
    assert!(stats.tasks_stolen <= stats.tasks_executed);
    assert!(
        stats.steal_attempts >= stats.tasks_stolen,
        "every steal is preceded by an attempt"
    );
}

#[test]
fn tiny_pages_stress_the_deque_protocol() {
    // The deques live in node state, not on pages, so 64-byte pages
    // stress the steal traffic instead: every steal reply carries write
    // notices for many tiny pages, and a stolen task faults on data pages
    // it shares falsely with neighbouring subarrays, with maximal
    // cross-node invalidation churn — the regime that exposed the
    // promise-clock consistency bug this runtime's development fixed.
    let cfg = qsort::QsortConfig {
        n: 2048,
        bubble_threshold: 64,
        seed: 11,
    };
    let seq = qsort::run_seq(&cfg, 1.0);
    let mut sys = OmpConfig::fast_test(4);
    sys.tmk = tmk::TmkConfig::stress_tiny_pages(4);
    let r = qsort::run_task(&cfg, sys);
    assert_eq!(r.checksum, seq.checksum);
}

#[test]
fn gc_stress_with_tasking() {
    let cfg = tsp::TspConfig::test();
    let seq = tsp::run_seq(&cfg, 1.0);
    let mut sys = OmpConfig::fast_test(3);
    sys.tmk.gc_every_barrier = true;
    let r = tsp::run_task(&cfg, sys);
    assert_eq!(r.checksum, seq.checksum);
}

/// Run `f` on a thread of its own and wait at most `limit` for it: a
/// hung cluster fails the test instead of hanging it.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let run = std::thread::spawn(move || tx.send(f()).expect("watchdog listening"));
    match rx.recv_timeout(limit) {
        Ok(v) => v,
        Err(RecvTimeoutError::Timeout) => panic!("still running after {limit:?}: a wait hung"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(run.join().expect_err("the run sent nothing"))
        }
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

/// On 2×2, a stolen child waits on a grandchild that a sibling of the
/// waiting parent runs. Thread 0's implicit task spawns a child and,
/// once it runs, waits for it. Each other thread holds in the init
/// phase until its turn: thread 2 until the child is pushed, so node 1
/// steals it; thread 1, the waiter's sibling, until the child has
/// pushed the grandchild, so node 0 steals that; thread 3 until the
/// grandchild ran, so node 1 has no idle thread to run it first. The
/// grandchild's write faults and its completion answers the child's
/// join while thread 0 still waits: neither may need the node gate
/// thread 0 holds, nor thread 0's wait its own node's application
/// threads (DESIGN.md §2i).
#[test]
fn a_grandchild_run_by_the_waiters_sibling_finishes_a_stolen_childs_wait() {
    // The child is pushed, runs, and pushed the grandchild; which thread
    // ran the grandchild.
    const PUSHED: usize = 0;
    const STARTED: usize = 1;
    const SPAWNED: usize = 2;
    const RAN: usize = 3;
    let out = within(Duration::from_secs(60), || {
        let flags: Arc<[AtomicU64; 4]> = Arc::new(Default::default());
        let ran = flags.clone();
        nomp::run(OmpConfig::fast_test_smp(2, 2), move |omp| {
            let data = omp.malloc_vec::<u64>(3);
            let (init, body) = (flags.clone(), flags.clone());
            let set =
                |flags: &[AtomicU64; 4], f: usize, v: u64| flags[f].store(v, Ordering::SeqCst);
            let wait = |flags: &[AtomicU64; 4], f: usize| {
                yield_until(|| flags[f].load(Ordering::SeqCst) > 0)
            };
            omp.task_scope(
                TaskScopeConfig::default(),
                move |s| match s.thread_num() {
                    0 => {
                        s.task(TaskArgs::ab(1, 0));
                        set(&init, PUSHED, 1);
                        wait(&init, STARTED);
                        s.taskwait();
                        let v = s.read(&data, 1);
                        s.write(&data, 2, v);
                    }
                    1 => wait(&init, SPAWNED),
                    2 => wait(&init, PUSHED),
                    _ => wait(&init, RAN),
                },
                move |s, t| {
                    if t.a == 2 {
                        set(&body, RAN, 1 + s.thread_num() as u64);
                        s.write(&data, 0, 42);
                        return;
                    }
                    set(&body, STARTED, 1);
                    s.task(TaskArgs::ab(2, 0));
                    set(&body, SPAWNED, 1);
                    wait(&body, RAN);
                    s.taskwait();
                    let v = s.read(&data, 0);
                    s.write(&data, 1, v + 1);
                },
            );
            (omp.read(&data, 2), ran[RAN].load(Ordering::SeqCst))
        })
    });
    let (seen, ran) = out.result;
    assert_eq!(
        ran,
        1 + 1,
        "thread 1, the waiter's sibling, ran the grandchild"
    );
    assert_eq!(seen, 43, "each wait saw its child's write");
    assert_eq!(
        out.dsm.tasks_stolen, 2,
        "node 1 stole the child, node 0 the grandchild"
    );
    assert_eq!(out.net.kind("task_join").map_or(0, |k| k.send_msgs), 2);
    assert_eq!(out.net.kind("task_done").map_or(0, |k| k.send_msgs), 2);
}

/// On 1×2 the waiter's sibling runs its one child, which holds until
/// the wait has begun: with nothing queued and no thief to join, the
/// wait still lasts until the child completes, and then sees its write.
#[test]
fn a_taskwait_waits_for_a_child_its_sibling_runs() {
    // The child started (which thread ran it), and the wait began.
    const STARTED: usize = 0;
    const WAITING: usize = 1;
    let out = within(Duration::from_secs(60), || {
        let flags: Arc<[AtomicU64; 2]> = Arc::new(Default::default());
        nomp::run(OmpConfig::fast_test_smp(1, 2), move |omp| {
            let data = omp.malloc_vec::<u64>(2);
            let (init, body) = (flags.clone(), flags.clone());
            omp.task_scope(
                TaskScopeConfig::default(),
                move |s| {
                    if s.thread_num() == 0 {
                        s.task(TaskArgs::ab(1, 0));
                        yield_until(|| init[STARTED].load(Ordering::SeqCst) > 0);
                        init[WAITING].store(1, Ordering::SeqCst);
                        s.taskwait();
                        let v = s.read(&data, 0);
                        s.write(&data, 1, v);
                    }
                },
                move |s, _| {
                    body[STARTED].store(1 + s.thread_num() as u64, Ordering::SeqCst);
                    yield_until(|| body[WAITING].load(Ordering::SeqCst) > 0);
                    // The flags order the run; the pause only gives a
                    // wait that ends early the time to read too soon.
                    std::thread::sleep(Duration::from_millis(20));
                    s.write(&data, 0, 7);
                },
            );
            (omp.read(&data, 1), flags[STARTED].load(Ordering::SeqCst))
        })
    });
    let (seen, ran) = out.result;
    assert_eq!(ran, 1 + 1, "thread 1, the waiter's sibling, ran the child");
    assert_eq!(seen, 7, "the wait saw its child's write");
}

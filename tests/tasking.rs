//! Cross-crate tests of the distributed tasking runtime: the task-based
//! application variants must reproduce the sequential results on every
//! cluster size, with the tasking counters telling a coherent story.

use nomp::OmpConfig;
use now_apps::{qsort, tsp};

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

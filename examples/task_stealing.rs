//! The distributed tasking runtime in action: task-based QSORT with
//! cross-node work stealing vs. the centralized Figure-4 queue.
//!
//! Run with: `cargo run --release --example task_stealing`

use openmp_now::nomp::TaskSched;
use openmp_now::prelude::*;

fn main() {
    let cfg = now_apps::qsort::QsortConfig {
        n: 32 * 1024,
        bubble_threshold: 256,
        seed: 7,
    };
    let seq = now_apps::qsort::run_seq(&cfg, 240.0);
    println!(
        "Task-based QSORT, {} integers, bubble threshold {}:",
        cfg.n, cfg.bubble_threshold
    );
    println!("  sequential: {:.3} model-seconds\n", seq.vt_seconds());
    println!(
        "{:>5}  {:>10}  {:>9}  {:>8}  {:>8}  {:>7}",
        "nodes", "sched", "time s", "speedup", "messages", "stolen"
    );
    for nodes in [2usize, 4, 8] {
        for sched in [TaskSched::Centralized, TaskSched::WorkSteal] {
            let (r, stats) = now_apps::qsort::run_task_stats(&cfg, OmpConfig::paper(nodes), sched);
            assert_eq!(r.checksum, seq.checksum, "parallel sort must match");
            println!(
                "{:>5}  {:>10}  {:>9.3}  {:>8.2}  {:>8}  {:>7}",
                nodes,
                format!("{sched:?}"),
                r.vt_seconds(),
                r.speedup_vs(&seq),
                r.msgs,
                stats.tasks_stolen,
            );
        }
    }
    println!("\nPer-node deques in each node's state make spawn/pop message-free;");
    println!("an idle node steals with one request and one reply, which carries");
    println!("the task; an idle node parks at node 0 until a push wakes it.");
}

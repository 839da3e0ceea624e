//! The distributed tasking runtime in action: QSORT on the paper's
//! Figure-4 task queue vs. task-based QSORT with cross-node work stealing.
//!
//! Run with: `cargo run --release --example task_stealing`

use openmp_now::prelude::*;

fn main() {
    let cfg = now_apps::qsort::QsortConfig {
        n: 32 * 1024,
        bubble_threshold: 256,
        seed: 7,
    };
    let seq = now_apps::qsort::run_seq(&cfg, 240.0);
    println!(
        "QSORT, {} integers, bubble threshold {}:",
        cfg.n, cfg.bubble_threshold
    );
    println!("  sequential: {:.3} model-seconds\n", seq.vt_seconds());
    println!(
        "{:>5}  {:>10}  {:>9}  {:>8}  {:>8}  {:>7}",
        "nodes", "version", "time s", "speedup", "messages", "stolen"
    );
    for nodes in [2usize, 4, 8] {
        let fig4 = now_apps::qsort::run_omp(&cfg, OmpConfig::paper(nodes));
        let (steal, stats) = now_apps::qsort::run_task_stats(&cfg, OmpConfig::paper(nodes));
        for (version, r, stolen) in [
            ("Figure-4", &fig4, "-".to_string()),
            ("WorkSteal", &steal, stats.tasks_stolen.to_string()),
        ] {
            assert_eq!(r.checksum, seq.checksum, "parallel sort must match");
            println!(
                "{:>5}  {:>10}  {:>9.3}  {:>8.2}  {:>8}  {:>7}",
                nodes,
                version,
                r.vt_seconds(),
                r.speedup_vs(&seq),
                r.msgs,
                stolen,
            );
        }
    }
    println!("\nThe Figure-4 program dequeues and enqueues in critical sections on");
    println!("one shared queue. The task runtime keeps a deque per node, so");
    println!("spawn/pop are message-free; an idle node steals with one request");
    println!("and one reply, which carries the task, and parks at node 0 until a");
    println!("push wakes it.");
}

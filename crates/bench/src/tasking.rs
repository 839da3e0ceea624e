//! Tasking ablation: the paper's Figure-4 task queue vs. the tasking
//! runtime's cross-node work stealing, on the two irregular applications
//! (QSORT, TSP).
//!
//! The baseline is the paper's own program (`run_omp`): one shared queue
//! in DSM under `critical` (plus, in QSORT, the Figure-4 condition
//! variable), so every dequeue and enqueue pays a lock transfer when the
//! lock was last held on another node. The task runtime
//! ([`nomp::Env::task_scope`]) runs the same algorithm on per-node deques
//! where local operations are message-free and a steal sweep is one
//! chain of requests, forwarded from victim to victim, and one reply.

use crate::fmt::{f2, print_table, secs};
use nomp::{OmpConfig, TmkStats};
use now_apps::common::Report;
use now_apps::{qsort, tsp};

/// One node count of the ablation.
pub struct TaskRun {
    /// The paper's Figure-4 program.
    pub fig4: Report,
    /// The task-runtime version.
    pub steal: Report,
    /// The task version's DSM + tasking counters (spawns, steals,
    /// overflows, parks).
    pub stats: TmkStats,
}

/// Run QSORT's Figure-4 program and its task version once each on
/// `nodes` workstations (paper cost model).
pub fn qsort_once(nodes: usize) -> TaskRun {
    let cfg = qsort::QsortConfig::test();
    let fig4 = qsort::run_omp(&cfg, OmpConfig::paper(nodes));
    let (steal, stats) = qsort::run_task_stats(&cfg, OmpConfig::paper(nodes));
    TaskRun { fig4, steal, stats }
}

/// Run TSP's Figure-4 program and its task version once each on `nodes`
/// workstations (paper cost model).
pub fn tsp_once(nodes: usize) -> TaskRun {
    let cfg = tsp::TspConfig::test();
    let fig4 = tsp::run_omp(&cfg, OmpConfig::paper(nodes));
    let (steal, stats) = tsp::run_task_stats(&cfg, OmpConfig::paper(nodes));
    TaskRun { fig4, steal, stats }
}

/// The ablation table: for each node count, Figure-4 queue vs work
/// stealing — model time, messages, and the steal/spawn counters.
pub fn tasking_ablation() {
    for (app, runner) in [
        ("QSORT", qsort_once as fn(usize) -> TaskRun),
        ("TSP", tsp_once as fn(usize) -> TaskRun),
    ] {
        let mut rows = Vec::new();
        for nodes in [2usize, 4, 8] {
            let TaskRun { fig4, steal, stats } = runner(nodes);
            assert_eq!(
                fig4.checksum, steal.checksum,
                "{app} checksum diverged between Figure 4 and work stealing"
            );
            rows.push(vec![
                nodes.to_string(),
                secs(fig4.vt_ns),
                secs(steal.vt_ns),
                f2(fig4.vt_ns as f64 / steal.vt_ns as f64),
                fig4.msgs.to_string(),
                steal.msgs.to_string(),
                stats.tasks_spawned.to_string(),
                stats.tasks_stolen.to_string(),
                stats.steal_attempts.to_string(),
            ]);
        }
        print_table(
            &format!("Tasking ablation ({app}): Figure-4 queue vs work stealing"),
            &[
                "Nodes",
                "fig4 s",
                "steal s",
                "fig4/steal",
                "fig4 msgs",
                "steal msgs",
                "spawned",
                "stolen",
                "attempts",
            ],
            &rows,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_stealing_beats_centralized_somewhere() {
        // The acceptance bar: identical results, steal counters reported,
        // and work stealing ahead of the paper's centralized Figure-4
        // queue on at least one of the 2/4/8-node configurations.
        let mut any_win = false;
        for nodes in [2usize, 4, 8] {
            let TaskRun { fig4, steal, stats } = qsort_once(nodes);
            assert_eq!(fig4.checksum, steal.checksum, "{nodes} nodes");
            assert!(stats.tasks_spawned > 0);
            if steal.vt_ns < fig4.vt_ns {
                any_win = true;
            }
        }
        assert!(
            any_win,
            "work stealing should beat the Figure-4 queue somewhere"
        );
    }
}

//! Tasking ablation: centralized Figure-4 queue vs. cross-node work
//! stealing, on the two irregular applications (QSORT, TSP).
//!
//! Both variants run on the *same* tasking runtime
//! ([`nomp::Env::task_scope`]); only the scheduling policy differs, so the
//! comparison isolates the data structure: one shared DSM deque on node 0
//! (every remote operation pays a lock transfer to node 0's manager)
//! against per-node deques where local operations are message-free and
//! a steal is one request and one reply.

use crate::fmt::{f2, print_table, secs};
use nomp::{OmpConfig, TaskSched, TmkStats};
use now_apps::common::Report;
use now_apps::{qsort, tsp};

/// One measured configuration.
pub struct TaskRun {
    /// The usual timing/traffic record.
    pub report: Report,
    /// DSM + tasking counters (spawns, steals, overflows, parks).
    pub stats: TmkStats,
}

/// Run the QSORT task variant once under `sched` on `nodes` workstations
/// (paper cost model).
pub fn qsort_once(nodes: usize, sched: TaskSched) -> TaskRun {
    let cfg = qsort::QsortConfig::test();
    let (report, stats) = qsort::run_task_stats(&cfg, OmpConfig::paper(nodes), sched);
    TaskRun { report, stats }
}

/// Run the TSP task variant once under `sched` on `nodes` workstations
/// (paper cost model).
pub fn tsp_once(nodes: usize, sched: TaskSched) -> TaskRun {
    let cfg = tsp::TspConfig::test();
    let (report, stats) = tsp::run_task_stats(&cfg, OmpConfig::paper(nodes), sched);
    TaskRun { report, stats }
}

/// The ablation table: for each node count, centralized queue vs work
/// stealing — model time, messages, and the steal/spawn counters.
pub fn tasking_ablation() {
    for (app, runner) in [
        ("QSORT", qsort_once as fn(usize, TaskSched) -> TaskRun),
        ("TSP", tsp_once as fn(usize, TaskSched) -> TaskRun),
    ] {
        let mut rows = Vec::new();
        for nodes in [2usize, 4, 8] {
            let central = runner(nodes, TaskSched::Centralized);
            let steal = runner(nodes, TaskSched::WorkSteal);
            assert_eq!(
                central.report.checksum, steal.report.checksum,
                "{app} checksum diverged between schedulers"
            );
            rows.push(vec![
                nodes.to_string(),
                secs(central.report.vt_ns),
                secs(steal.report.vt_ns),
                f2(central.report.vt_ns as f64 / steal.report.vt_ns as f64),
                central.report.msgs.to_string(),
                steal.report.msgs.to_string(),
                steal.stats.tasks_spawned.to_string(),
                steal.stats.tasks_stolen.to_string(),
                steal.stats.steal_attempts.to_string(),
            ]);
        }
        print_table(
            &format!("Tasking ablation ({app}): centralized queue vs work stealing"),
            &[
                "Nodes",
                "central s",
                "steal s",
                "central/steal",
                "central msgs",
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
        // and work stealing ahead of the centralized queue on at least one
        // of the 2/4/8-node configurations.
        let mut any_win = false;
        for nodes in [2usize, 4, 8] {
            let central = qsort_once(nodes, TaskSched::Centralized);
            let steal = qsort_once(nodes, TaskSched::WorkSteal);
            assert_eq!(
                central.report.checksum, steal.report.checksum,
                "{nodes} nodes"
            );
            assert_eq!(
                central.stats.tasks_stolen, 0,
                "centralized mode counts no steals"
            );
            if nodes > 1 {
                assert!(steal.stats.tasks_spawned > 0);
            }
            if steal.report.vt_ns < central.report.vt_ns {
                any_win = true;
            }
        }
        assert!(
            any_win,
            "work stealing should beat the centralized queue somewhere"
        );
    }
}

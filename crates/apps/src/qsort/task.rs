//! Task-based QSORT on the distributed tasking runtime.
//!
//! The paper's Figure-4 version ([`super::run_omp`]) drives the sort
//! through one hand-rolled shared queue: every dequeue and enqueue is a
//! critical section on the same lock, so at scale all workstations
//! serialize on one lock manager. This version expresses the identical
//! algorithm as OpenMP tasks (`omp_task!` per subarray): each node pushes
//! children onto its own deque message-free, and idle nodes steal across
//! the cluster — the construct modern cluster-OpenMP uses for irregular
//! parallelism. The bench ablation compares the two.

use super::{bubble_sort, partition, sorted_digest, QsortConfig};
use crate::common::{Report, VersionKind};
use nomp::{omp_task, OmpConfig, TaskArgs, TaskScopeConfig};

/// [`run_task`], additionally returning the DSM/tasking counters (spawns,
/// steals, overflows) for the bench ablation.
pub fn run_task_stats(cfg: &QsortConfig, sys: OmpConfig) -> (Report, nomp::TmkStats) {
    let cfg = *cfg;
    let nodes = sys.threads();
    let out = nomp::run(sys, move |omp| {
        let n = cfg.n;
        let data = omp.malloc_vec::<i32>(n);
        let input = super::gen_input(&cfg);
        omp.write_slice(&data, 0, &input);

        omp.task_scope(
            TaskScopeConfig::default(),
            move |s| {
                s.single(|s| omp_task!(s, TaskArgs::ab(0, n as u64)));
            },
            move |s, t| {
                let (lo, hi) = (t.a as usize, t.b as usize);
                if hi - lo <= cfg.bubble_threshold {
                    s.view_mut(&data, lo..hi, bubble_sort);
                } else {
                    let split = s.view_mut(&data, lo..hi, partition);
                    omp_task!(s, TaskArgs::ab(lo as u64, (lo + split) as u64));
                    omp_task!(s, TaskArgs::ab((lo + split) as u64, hi as u64));
                }
            },
        );

        let sorted = omp.read_slice(&data, 0..n);
        sorted_digest(&sorted)
    });

    let report = Report {
        app: "QSORT",
        version: VersionKind::Task,
        nodes,
        vt_ns: out.vt_ns,
        msgs: out.net.total_msgs(),
        bytes: out.net.total_bytes(),
        checksum: out.result,
    };
    (report, out.dsm)
}

/// Run the task-runtime version with cross-node work stealing.
pub fn run_task(cfg: &QsortConfig, sys: OmpConfig) -> Report {
    run_task_stats(cfg, sys).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_sort_matches_sequential() {
        let cfg = QsortConfig::test();
        let seq = super::super::run_seq(&cfg, 1.0);
        for nodes in [2usize, 4] {
            let r = run_task(&cfg, OmpConfig::fast_test(nodes));
            assert_eq!(r.checksum, seq.checksum, "{nodes} nodes");
        }
    }
}

//! # now-bench — experiment harness
//!
//! Regenerates every table and figure of *"OpenMP on Networks of
//! Workstations"* (SC'98) against this reproduction, plus the ablations
//! DESIGN.md calls out:
//!
//! * [`tables::table1`] — workloads, sequential times, directives
//! * [`tables::figure5`] — 8-node speedups, OpenMP vs Tmk vs MPI
//! * [`tables::table2`] — megabytes + messages per version
//! * [`micro::characteristics`] — §7 platform characterization
//! * [`ablation::pipeline_ablation`] — Figures 1 vs 3 (flush vs semaphores)
//! * [`ablation::taskqueue_ablation`] — Figures 2 vs 4 (flush vs condvars)
//! * [`ablation::page_size_ablation`], [`tables::scale_sweep`] — model ablations
//! * [`tasking::tasking_ablation`] — the paper's Figure-4 task queue vs
//!   cross-node work stealing (the tasking-runtime extension)
//! * [`ompc::ompc_overhead`] — translated (`.omp` front-end) vs
//!   hand-written kernel, the cost of the translation pipeline
//! * [`smp::smp_topology_table`] — SMP-cluster topologies at equal total
//!   parallelism (`8×1`, `4×2`, `2×4`, `1×8`): moving threads on-node
//!   sheds DSM messages, down to zero on one SMP node
//! * [`warm::warm_cluster_table`] — the `Cluster` session API: host
//!   cost of a job on a warm cluster vs a cold build-run-teardown cycle,
//!   with virtual results asserted bit-identical (job N+1 pays no
//!   cluster spin-up)
//! * [`hetero::hetero_table`] — heterogeneous/loaded clusters: loop
//!   schedules {static, dynamic, guided, adaptive, affinity} ×
//!   {uniform, one-2×-slow-node, bursty} on pi/dotprod/jacobi, in
//!   virtual time and DSM messages (the regime beyond the paper's
//!   dedicated machines)
//!
//! Run everything with `cargo run -p now-bench --release --bin paper_tables`.

#![warn(missing_docs)]

pub mod ablation;
pub mod fmt;
pub mod hetero;
pub mod micro;
pub mod ompc;
pub mod regression;
pub mod smp;
pub mod tables;
pub mod tasking;
pub mod warm;

#[cfg(test)]
mod tests {
    use super::*;
    use now_apps::common::VersionKind;

    #[test]
    fn quick_campaign_runs_every_version() {
        let mut c = tables::Campaign::quick();
        c.nodes = 2;
        for app in tables::APPS {
            let seq = c.run(app, VersionKind::Seq);
            let omp = c.run(app, VersionKind::Omp);
            assert!(seq.vt_ns > 0 && omp.vt_ns > 0, "{app}");
        }
    }

    #[test]
    fn micro_numbers_are_in_calibrated_ranges() {
        let rtt = micro::raw_rtt_ns() / 1000;
        assert!((250..=400).contains(&rtt), "raw rtt {rtt} µs");
        let lock = micro::remote_lock_acquire_ns(2) / 1000;
        assert!((250..=1500).contains(&lock), "lock {lock} µs");
        let bar = micro::barrier_ns(4) / 1000;
        assert!((300..=3000).contains(&bar), "barrier {bar} µs");
        let (mpi_rtt, bw) = micro::mpi_characteristics();
        assert!(
            (300..=900).contains(&(mpi_rtt / 1000)),
            "mpi rtt {} µs",
            mpi_rtt / 1000
        );
        assert!((6.0..=10.0).contains(&bw), "mpi bw {bw} MB/s");
    }

    #[test]
    fn flush_costs_scale_with_nodes_semaphores_do_not() {
        // Compare *marginal* messages per handoff (the fixed fork/barrier
        // cost of bringing up n nodes cancels out).
        let marginal = |nodes: usize, flush: bool| -> f64 {
            let (_, m5) = ablation::pipeline_once(nodes, 5, flush);
            let (_, m25) = ablation::pipeline_once(nodes, 25, flush);
            (m25 - m5) as f64 / 20.0
        };
        let f2 = marginal(2, true);
        let f8 = marginal(8, true);
        let s2 = marginal(2, false);
        let s8 = marginal(8, false);
        assert!(
            f8 > f2 + 8.0,
            "flush messages/handoff must grow with nodes ({f2:.1} -> {f8:.1})"
        );
        assert!(
            (s8 - s2).abs() <= 2.0,
            "semaphore messages/handoff nearly constant ({s2:.1} -> {s8:.1})"
        );
        assert!(
            f8 > 2.0 * s8,
            "flush must cost a multiple of semaphores at 8 nodes"
        );
    }
}

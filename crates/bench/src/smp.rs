//! SMP-cluster topology ablation: the same translated programs at equal
//! total parallelism across `nodes × threads_per_node` topologies.
//!
//! The SC'98 paper runs one OpenMP thread per uniprocessor workstation
//! (`8×1`), so every barrier, reduction and chunk grab pays DSM protocol
//! traffic. The two-level runtime moves synchronization on-node: a local
//! sense-reversing barrier with one representative per node in the DSM
//! barrier, reductions combined in node shared memory with one DSM
//! contribution per node, and node-level loop chunks subdivided among
//! local threads. This table measures the effect directly with the
//! virtual-time + exact-traffic substrate: messages must fall strictly
//! as threads move on-node, reaching **zero** remote messages on `1×8`,
//! while results stay equal to the `8×1` numbers already reproduced
//! from the paper.

use crate::fmt::{print_table, secs};
use nomp::Cluster;

/// Equal-total-parallelism topologies (8 threads).
pub const TOPOLOGIES: [(usize, usize); 4] = [(8, 1), (4, 2), (2, 4), (1, 8)];

const PI: &str = include_str!("../../../examples/omp/pi.omp");
const DOTPROD: &str = include_str!("../../../examples/omp/dotprod.omp");
const JACOBI: &str = include_str!("../../../examples/omp/jacobi.omp");

/// The three regular kernels of the topology sweep.
pub const KERNELS: [(&str, &str); 3] = [("pi", PI), ("dotprod", DOTPROD), ("jacobi", JACOBI)];

/// One measured topology point.
pub struct TopoRow {
    /// Workstations.
    pub nodes: usize,
    /// Application threads per workstation.
    pub tpn: usize,
    /// Virtual run time in ns.
    pub vt_ns: u64,
    /// Remote DSM messages.
    pub msgs: u64,
    /// Payload bytes on the wire.
    pub bytes: u64,
    /// The program's checked result scalar.
    pub result: f64,
}

/// Native-Rust reference value for one kernel's checked result scalar
/// (the single source of truth — the root integration tests and the
/// `smp_topologies` example check against these same numbers).
pub fn native_reference(name: &str) -> f64 {
    match name {
        // pi.omp: midpoint rule, 20 000 intervals.
        "pi" => {
            let n = 20_000;
            let step = 1.0 / n as f64;
            (0..n)
                .map(|i| 4.0 / (1.0 + ((i as f64 + 0.5) * step).powi(2)))
                .sum::<f64>()
                * step
        }
        // dotprod.omp: the same generator pattern over 4096 elements.
        "dotprod" => (0..4096)
            .map(|i| (0.5 + (i % 17) as f64) * (1.0 / (1 + i % 13) as f64))
            .sum(),
        // jacobi.omp: max residual after 40 sweeps on a 258-point grid.
        "jacobi" => {
            let n = 258usize;
            let mut u = vec![0.0f64; n];
            let mut unew = vec![0.0f64; n];
            u[0] = 1.0;
            unew[0] = 1.0;
            for _ in 0..40 {
                for i in 1..n - 1 {
                    unew[i] = 0.5 * (u[i - 1] + u[i + 1]);
                }
                u[1..n - 1].copy_from_slice(&unew[1..n - 1]);
            }
            (1..n - 1)
                .map(|i| (0.5 * (u[i - 1] + u[i + 1]) - u[i]).abs())
                .fold(0.0f64, f64::max)
        }
        other => panic!("unknown kernel {other}"),
    }
}

/// Run one kernel on one topology (paper cost model) and pull out its
/// checked result scalar.
pub fn run_kernel(name: &str, src: &str, nodes: usize, tpn: usize) -> TopoRow {
    let mut cluster = Cluster::builder()
        .nodes(nodes)
        .threads_per_node(tpn)
        .build()
        .expect("valid cluster");
    let prog = ompc::compile(src).unwrap_or_else(|d| panic!("{name} must compile: {d}"));
    let out = cluster.run(&prog).expect("cluster job");
    let result = match name {
        "pi" => out.result.scalars["pi"],
        "dotprod" => out.result.scalars["dot"],
        "jacobi" => out.result.scalars["resid"],
        other => panic!("unknown kernel {other}"),
    };
    TopoRow {
        nodes,
        tpn,
        vt_ns: out.vt_ns,
        msgs: out.msgs(),
        bytes: out.bytes(),
        result,
    }
}

/// Measure one kernel across all equal-parallelism topologies,
/// asserting the invariants of the ablation: results agree with the
/// `8×1` baseline (the configuration already cross-checked against the
/// paper's numbers), DSM messages fall strictly as threads move
/// on-node, and `1×8` never touches the wire.
pub fn topo_rows(name: &str, src: &str) -> Vec<TopoRow> {
    let rows: Vec<TopoRow> = TOPOLOGIES
        .iter()
        .map(|&(nodes, tpn)| run_kernel(name, src, nodes, tpn))
        .collect();
    let base = &rows[0];
    let native = native_reference(name);
    let native_tol = 1e-9 * native.abs().max(1.0);
    assert!(
        (base.result - native).abs() <= native_tol,
        "{name} 8x1: result {} diverged from the native reference {native}",
        base.result
    );
    for r in &rows[1..] {
        let tol = 1e-9 * base.result.abs().max(1.0);
        assert!(
            (r.result - base.result).abs() <= tol,
            "{name} {}x{}: result {} diverged from 8x1 baseline {}",
            r.nodes,
            r.tpn,
            r.result,
            base.result
        );
    }
    assert!(
        rows.windows(2).all(|w| w[0].msgs > w[1].msgs),
        "{name}: messages must fall strictly as threads move on-node: {:?}",
        rows.iter().map(|r| r.msgs).collect::<Vec<_>>()
    );
    assert_eq!(
        rows.last().unwrap().msgs,
        0,
        "{name}: 1x8 must run without remote messages"
    );
    rows
}

/// Print the SMP-cluster topology ablation for pi, dotprod and jacobi.
pub fn smp_topology_table() {
    for (name, src) in KERNELS {
        let rows = topo_rows(name, src);
        let base_vt = rows[0].vt_ns as f64;
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}x{}", r.nodes, r.tpn),
                    secs(r.vt_ns),
                    format!("{:.2}", base_vt / r.vt_ns as f64),
                    r.msgs.to_string(),
                    format!("{:.2}", r.bytes as f64 / 1e6),
                ]
            })
            .collect();
        print_table(
            &format!("SMP-cluster topologies — {name} at 8 total threads"),
            &["topology", "time (s)", "vs 8x1", "msgs", "MB"],
            &table,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pi_topology_sweep_invariants_hold() {
        // topo_rows itself asserts: results equal the 8×1 baseline,
        // strictly fewer messages as threads move on-node, zero remote
        // messages at 1×8.
        let rows = topo_rows("pi", PI);
        assert_eq!(rows.len(), TOPOLOGIES.len());
        assert!((rows[0].result - std::f64::consts::PI).abs() < 1e-7);
        // tpn = 1 is bit-identical to the pre-SMP runtime path: the same
        // program on a cluster built from the flat config matches the
        // 8×1 row's traffic.
        let flat = Cluster::from_config(nomp::OmpConfig::paper(8))
            .run(&ompc::compile(PI).unwrap())
            .unwrap();
        assert_eq!(rows[0].msgs, flat.msgs(), "n×1 path must be unchanged");
    }

    #[test]
    fn dotprod_topology_sweep_invariants_hold() {
        let rows = topo_rows("dotprod", DOTPROD);
        assert!(rows[0].msgs > 0, "8x1 dotprod pays DSM traffic");
    }

    #[test]
    fn jacobi_topology_sweep_invariants_hold() {
        let rows = topo_rows("jacobi", JACOBI);
        assert!(rows[0].msgs > 0, "8x1 jacobi pays DSM traffic");
    }
}

//! Sequential Sweep3D baseline.

use super::{dim_order, flux_digest, octants, sweep_block, SweepConfig};
use crate::common::{time_sequential, Report, VersionKind};
use nomp::Schedule;

/// Full sequential sweep; returns the scalar flux field.
pub fn compute_seq(cfg: &SweepConfig) -> Vec<f64> {
    let mut flux = vec![0.0f64; cfg.cells()];
    let ys_up: Vec<usize> = (0..cfg.ny).collect();
    let ys_down: Vec<usize> = (0..cfg.ny).rev().collect();
    for _ in 0..cfg.n_sweeps {
        for oct in octants() {
            let xs = dim_order(cfg.nx, oct.sx);
            let ys = if oct.sy { &ys_up } else { &ys_down };
            let mut psix = vec![0.0f64; cfg.n_ang * cfg.ny * cfg.nz];
            // Same x-blocking as the parallel versions (identical cell
            // visit order; see mod tests).
            for b in 0..cfg.x_blocks {
                let br = Schedule::static_block(cfg.nx, cfg.x_blocks, b);
                let xr = &xs[br];
                sweep_block(cfg, oct, xr, ys, &mut psix, None, None, &mut flux);
            }
        }
    }
    flux
}

/// Run and time the sequential version.
pub fn run_seq(cfg: &SweepConfig, compute_scale: f64) -> Report {
    let cfg = *cfg;
    let (flux, vt_ns) = time_sequential(compute_scale, move || compute_seq(&cfg));
    Report {
        app: "Sweep3D",
        version: VersionKind::Seq,
        nodes: 1,
        vt_ns,
        msgs: 0,
        bytes: 0,
        checksum: flux_digest(&flux),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_runs() {
        let cfg = SweepConfig::test();
        assert_eq!(compute_seq(&cfg), compute_seq(&cfg));
    }

    #[test]
    fn more_sweeps_more_flux() {
        let mut c1 = SweepConfig::test();
        c1.n_sweeps = 1;
        let mut c2 = SweepConfig::test();
        c2.n_sweeps = 2;
        let f1: f64 = compute_seq(&c1).iter().sum();
        let f2: f64 = compute_seq(&c2).iter().sum();
        assert!(f2 > f1 * 1.9, "each sweep accumulates flux");
    }
}

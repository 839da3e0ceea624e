//! MPI version of Sweep3D: same y-decomposition and x-block pipeline,
//! boundary planes exchanged with explicit messages.

use super::{dim_order, flux_digest, octants, sweep_block, SweepConfig};
use crate::common::{Report, VersionKind};
use nomp::Schedule;
use nowmpi::MpiConfig;

const TAG_FLUX: i32 = 60;
/// Per-(octant, block) tags keep pipeline stages of one octant apart;
/// octants are separated by the sweep structure itself (a worker sends
/// block b of octant o only after receiving block b of octant o).
fn tag_for(oct_i: usize, block: usize) -> i32 {
    100 + (oct_i * 1024 + block) as i32
}

/// Run the message-passing version.
pub fn run_mpi(cfg: &SweepConfig, sys: MpiConfig) -> Report {
    let cfg = *cfg;
    let nodes = sys.ranks();
    let out = nowmpi::run_mpi(sys, move |mpi| {
        let (me, p) = (mpi.rank(), mpi.size());
        let my_ys = Schedule::static_block(cfg.ny, p, me);
        let my_ny = my_ys.len();
        let (nx, nz, n_ang) = (cfg.nx, cfg.nz, cfg.n_ang);
        let elen = n_ang * nx * nz;
        let ys_up: Vec<usize> = my_ys.clone().collect();
        let ys_down: Vec<usize> = my_ys.clone().rev().collect();
        let mut psix = vec![0.0f64; n_ang * my_ny * nz];
        let mut flux = vec![0.0f64; cfg.cells()];
        let mut buf_in = vec![0.0f64; elen];
        let mut buf_out = vec![0.0f64; elen];

        for _ in 0..cfg.n_sweeps {
            for (oi, oct) in octants().into_iter().enumerate() {
                let xs = dim_order(nx, oct.sx);
                let ys = if oct.sy { &ys_up } else { &ys_down };
                let (upstream, downstream) = if oct.sy {
                    ((me > 0).then(|| me - 1), (me + 1 < p).then(|| me + 1))
                } else {
                    ((me + 1 < p).then(|| me + 1), (me > 0).then(|| me - 1))
                };
                psix.fill(0.0);
                for b in 0..cfg.x_blocks {
                    let br = Schedule::static_block(nx, cfg.x_blocks, b);
                    let xr = &xs[br];
                    let (xlo, xhi) = (
                        *xr.iter().min().expect("blk"),
                        *xr.iter().max().expect("blk"),
                    );
                    let span = (xhi - xlo + 1) * nz;
                    if let Some(up) = upstream {
                        // One message per block: [a][x in block][z].
                        let plane: Vec<f64> = mpi.recv(up, tag_for(oi, b));
                        for a in 0..n_ang {
                            buf_in[(a * nx + xlo) * nz..(a * nx + xlo) * nz + span]
                                .copy_from_slice(&plane[a * span..(a + 1) * span]);
                        }
                    }
                    sweep_block(
                        &cfg,
                        oct,
                        xr,
                        ys,
                        &mut psix,
                        upstream.is_some().then_some(buf_in.as_slice()),
                        downstream.is_some().then_some(buf_out.as_mut_slice()),
                        &mut flux,
                    );
                    if let Some(down) = downstream {
                        let mut plane = Vec::with_capacity(n_ang * span);
                        for a in 0..n_ang {
                            let off = (a * nx + xlo) * nz;
                            plane.extend_from_slice(&buf_out[off..off + span]);
                        }
                        mpi.send(down, tag_for(oi, b), &plane);
                    }
                }
            }
        }
        // Gather flux rows at rank 0 for verification.
        if me == 0 {
            for src in 1..p {
                let rows: Vec<f64> = mpi.recv(src, TAG_FLUX);
                let yr = Schedule::static_block(cfg.ny, p, src);
                let lo = cfg.idx(0, yr.start, 0);
                flux[lo..lo + rows.len()].copy_from_slice(&rows);
            }
            flux_digest(&flux)
        } else {
            let lo = cfg.idx(0, my_ys.start, 0);
            let hi = cfg.idx(0, my_ys.end, 0);
            mpi.send(0, TAG_FLUX, &flux[lo..hi]);
            0.0
        }
    });

    Report {
        app: "Sweep3D",
        version: VersionKind::Mpi,
        nodes,
        vt_ns: out.vt_ns,
        msgs: out.net.total_msgs(),
        bytes: out.net.total_bytes(),
        checksum: out.results[0],
    }
}

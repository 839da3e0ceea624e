//! The shared-memory pipelined sweep worker (used by both the OpenMP and
//! hand-coded Tmk versions — they differ in the runtime layer driving it).

use super::{dim_order, octants, sweep_block, SweepConfig};
use nomp::Schedule;
use tmk::{SharedVec, Tmk};

/// Semaphore id for the +y pipeline edge `k` (between workers k, k+1).
pub fn sema_up(k: usize) -> u32 {
    100 + k as u32
}

/// Semaphore id for the −y pipeline edge `k`.
pub fn sema_down(k: usize) -> u32 {
    200 + k as u32
}

/// Size in f64s of one y-boundary interface plane: `[a][x][z]`.
pub fn edge_len(cfg: &SweepConfig) -> usize {
    cfg.n_ang * cfg.nx * cfg.nz
}

/// Run the full pipelined sweep on this worker. `iface` holds `p−1`
/// interface planes (edge k between workers k and k+1); `flux_sv` is the
/// shared scalar-flux field, written once at the end (owner-computes).
pub fn dsm_worker(t: &mut Tmk, cfg: &SweepConfig, flux_sv: SharedVec<f64>, iface: SharedVec<f64>) {
    let (me, p) = (t.proc_id(), t.nprocs());
    let my_ys = Schedule::static_block(cfg.ny, p, me);
    let my_ny = my_ys.len();
    let elen = edge_len(cfg);
    let (nx, nz, n_ang) = (cfg.nx, cfg.nz, cfg.n_ang);

    let ys_up: Vec<usize> = my_ys.clone().collect();
    let ys_down: Vec<usize> = my_ys.clone().rev().collect();
    let mut psix = vec![0.0f64; n_ang * my_ny * nz];
    let mut flux = vec![0.0f64; cfg.cells()];
    let mut buf_in = vec![0.0f64; elen];
    let mut buf_out = vec![0.0f64; elen];

    for _ in 0..cfg.n_sweeps {
        for oct in octants() {
            let xs = dim_order(nx, oct.sx);
            let ys = if oct.sy { &ys_up } else { &ys_down };
            // Pipeline neighbors for this sweep direction.
            let (upstream, downstream) = if oct.sy {
                (
                    (me > 0).then(|| (me - 1, sema_up(me - 1))),
                    (me + 1 < p).then(|| (me, sema_up(me))),
                )
            } else {
                (
                    (me + 1 < p).then(|| (me, sema_down(me))),
                    (me > 0).then(|| (me - 1, sema_down(me - 1))),
                )
            };
            psix.fill(0.0);
            for b in 0..cfg.x_blocks {
                let br = Schedule::static_block(nx, cfg.x_blocks, b);
                let xr = &xs[br];
                let (xlo, xhi) = (
                    *xr.iter().min().expect("block"),
                    *xr.iter().max().expect("block"),
                );
                // Wait for and read the upwind boundary plane.
                if let Some((edge, sema)) = upstream {
                    t.sema_wait(sema);
                    for a in 0..n_ang {
                        let base = edge * elen + (a * nx + xlo) * nz;
                        let span = (xhi - xlo + 1) * nz;
                        let seg = t.read_slice(&iface, base..base + span);
                        buf_in[(a * nx + xlo) * nz..(a * nx + xlo) * nz + span]
                            .copy_from_slice(&seg);
                    }
                }
                sweep_block(
                    cfg,
                    oct,
                    xr,
                    ys,
                    &mut psix,
                    upstream.is_some().then_some(buf_in.as_slice()),
                    downstream.is_some().then_some(buf_out.as_mut_slice()),
                    &mut flux,
                );
                // Publish our boundary plane and wake the downwind worker.
                if let Some((edge, sema)) = downstream {
                    for a in 0..n_ang {
                        let off = (a * nx + xlo) * nz;
                        let span = (xhi - xlo + 1) * nz;
                        t.write_slice(&iface, edge * elen + off, &buf_out[off..off + span]);
                    }
                    t.sema_signal(sema);
                }
            }
            // Octant boundary: interface planes are reused, so everyone
            // must be done reading before the next direction writes.
            t.barrier();
        }
    }
    // Owner-computes: publish this worker's flux rows once.
    let lo = cfg.idx(0, my_ys.start, 0);
    let hi = cfg.idx(0, my_ys.end, 0);
    t.write_slice(&flux_sv, lo, &flux[lo..hi]);
}

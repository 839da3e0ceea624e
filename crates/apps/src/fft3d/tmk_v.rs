//! Hand-coded TreadMarks version of the 3D-FFT.
//!
//! Structured the way TreadMarks programs are written by hand: a single
//! fork at the start and explicit barriers between phases (the OpenMP
//! version forks one region per `parallel do` instead — the difference is
//! part of what Figure 5 measures). Transposes use the same writer-push
//! layout as the OpenMP version.

use super::complex::C64;
use super::fft1d::FftPlan;
use super::{
    a_idx, b_idx, checksum_digest, checksum_points, evolution_tables, seq::fft_plane, FftConfig,
};
use crate::common::{Report, VersionKind};
use nomp::Schedule;
use tmk::TmkConfig;

/// Run the hand-coded DSM version on `sys.nodes()` workstations.
pub fn run_tmk(cfg: &FftConfig, sys: TmkConfig) -> Report {
    let cfg = *cfg;
    let nodes = sys.nodes();
    const SUM_LOCK: u32 = 11;
    let out = tmk::run_system(sys, move |tmk| {
        cfg.check_divisible(tmk.nprocs());
        let (nx, ny, nz) = (cfg.nx, cfg.ny, cfg.nz);
        let total = cfg.total();
        let v = tmk.malloc_vec::<C64>(total);
        let a2 = tmk.malloc_vec::<C64>(total);
        let sums = tmk.malloc_vec::<f64>(cfg.iters * 2);

        tmk.parallel(0, move |t| {
            let (me, p) = (t.proc_id(), t.nprocs());
            let zr = Schedule::static_block(nz, p, me);
            let xr = Schedule::static_block(nx, p, me);
            let plan_x = FftPlan::new(nx);
            let plan_y = FftPlan::new(ny);
            let plan_z = FftPlan::new(nz);
            let (ex, ey, ez) = evolution_tables(&cfg);
            let points = checksum_points(&cfg);

            // Phase 1: init + 2D FFT of owned z-planes, pushed transposed
            // into every x-slab of V.
            let zsl = zr.len();
            let mut planes: Vec<Vec<C64>> = Vec::with_capacity(zsl);
            for z in zr.clone() {
                let mut plane = super::init_plane(&cfg, z);
                fft_plane(&cfg, &mut plane, &plan_x, &plan_y, true);
                planes.push(plane);
            }
            let mut zseg = vec![C64::zero(); zsl];
            for x in 0..nx {
                for y in 0..ny {
                    for (dz, plane) in planes.iter().enumerate() {
                        zseg[dz] = plane[y * nx + x];
                    }
                    if cfg.writer_push {
                        t.write_slice_push(&v, b_idx(&cfg, x, y, zr.start), &zseg);
                    } else {
                        t.write_slice(&v, b_idx(&cfg, x, y, zr.start), &zseg);
                    }
                }
            }
            drop(planes);
            t.barrier();

            // Phase 2: forward z-FFT on the owned V slab.
            let vlo = b_idx(&cfg, xr.start, 0, 0);
            let vhi = b_idx(&cfg, xr.end, 0, 0);
            t.view_mut(&v, vlo..vhi, |slab| {
                for row in slab.chunks_mut(nz) {
                    plan_z.forward(row);
                }
            });
            t.barrier();

            let xsl = xr.len();
            let mut xseg = vec![C64::zero(); xsl];
            for it in 1..=cfg.iters {
                // Phase 3a: evolve + inverse z-FFT, push back into A2.
                let mut scratch: Vec<C64> = t.view_mut(&v, vlo..vhi, |slab| {
                    for (dx, xblock) in slab.chunks_mut(ny * nz).enumerate() {
                        let fx = ex[xr.start + dx];
                        for (y, row) in xblock.chunks_mut(nz).enumerate() {
                            let fxy = fx * ey[y];
                            for (z, c) in row.iter_mut().enumerate() {
                                *c = c.scale(fxy * ez[z]);
                            }
                        }
                    }
                    slab.to_vec()
                });
                for row in scratch.chunks_mut(nz) {
                    plan_z.inverse(row);
                }
                for z in 0..nz {
                    for y in 0..ny {
                        for dx in 0..xsl {
                            xseg[dx] = scratch[(dx * ny + y) * nz + z];
                        }
                        if cfg.writer_push {
                            t.write_slice_push(&a2, a_idx(&cfg, z, y, xr.start), &xseg);
                        } else {
                            t.write_slice(&a2, a_idx(&cfg, z, y, xr.start), &xseg);
                        }
                    }
                }
                t.barrier();

                // Phase 3b: 2D inverse on owned A2 planes + checksum.
                let lo = zr.start * ny * nx;
                let hi = zr.end * ny * nx;
                let mut slab = t.read_slice(&a2, lo..hi);
                let mut part = (0.0f64, 0.0f64);
                for (dz, plane) in slab.chunks_mut(ny * nx).enumerate() {
                    let z = zr.start + dz;
                    fft_plane(&cfg, plane, &plan_x, &plan_y, false);
                    for &pt in &points {
                        let pz = pt / (ny * nx);
                        if pz == z {
                            let off = pt - pz * ny * nx;
                            part.0 += plane[off].re;
                            part.1 += plane[off].im;
                        }
                    }
                }
                t.lock_acquire(SUM_LOCK);
                let base = (it - 1) * 2;
                let c0 = t.read(&sums, base);
                let c1 = t.read(&sums, base + 1);
                t.write(&sums, base, c0 + part.0);
                t.write(&sums, base + 1, c1 + part.1);
                t.lock_release(SUM_LOCK);
                t.barrier();
            }
        });

        let flat = tmk.read_slice(&sums, 0..cfg.iters * 2);
        flat.chunks(2)
            .map(|c| (c[0], c[1]))
            .collect::<Vec<(f64, f64)>>()
    });

    Report {
        app: "3D-FFT",
        version: VersionKind::Tmk,
        nodes,
        vt_ns: out.vt_ns,
        msgs: out.net.total_msgs(),
        bytes: out.net.total_bytes(),
        checksum: checksum_digest(&out.result),
    }
}

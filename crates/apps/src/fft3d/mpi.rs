//! MPI version of the 3D-FFT: local slabs + all-to-all transposes.

use super::complex::C64;
use super::fft1d::FftPlan;
use super::{checksum_digest, checksum_points, evolution_tables, seq::fft_plane, FftConfig};
use crate::common::{Report, VersionKind};
use nomp::Schedule;
use nowmpi::MpiConfig;

/// Run the message-passing version on `sys.ranks()` workstations.
pub fn run_mpi(cfg: &FftConfig, sys: MpiConfig) -> Report {
    let cfg = *cfg;
    let nodes = sys.ranks();
    let out = nowmpi::run_mpi(sys, move |mpi| {
        let (r, p) = (mpi.rank(), mpi.size());
        cfg.check_divisible(p);
        let (nx, ny, nz) = (cfg.nx, cfg.ny, cfg.nz);
        let (zsl, xsl) = (nz / p, nx / p);
        let zr = Schedule::static_block(nz, p, r);
        let xr = Schedule::static_block(nx, p, r);
        let plan_x = FftPlan::new(nx);
        let plan_y = FftPlan::new(ny);
        let plan_z = FftPlan::new(nz);
        let (ex, ey, ez) = evolution_tables(&cfg);
        let points = checksum_points(&cfg);

        // Local z-slab of A, initialized and 2D-transformed.
        let mut a: Vec<C64> = Vec::with_capacity(zsl * ny * nx);
        for z in zr.clone() {
            a.extend(super::init_plane(&cfg, z));
        }
        for plane in a.chunks_mut(ny * nx) {
            fft_plane(&cfg, plane, &plan_x, &plan_y, true);
        }

        // Forward transpose: pack per-destination x-blocks, exchange,
        // unpack into the local x-slab V[x_local][y][z_global].
        let blk = zsl * ny * xsl;
        let mut sendbuf = vec![C64::zero(); blk * p];
        for dst in 0..p {
            let dxr = Schedule::static_block(nx, p, dst);
            let out = &mut sendbuf[dst * blk..(dst + 1) * blk];
            let mut k = 0;
            for lz in 0..zsl {
                for y in 0..ny {
                    let row = &a[(lz * ny + y) * nx..][dxr.clone()];
                    out[k..k + xsl].copy_from_slice(row);
                    k += xsl;
                }
            }
        }
        let recvbuf = mpi.alltoall(&sendbuf);
        let mut v = vec![C64::zero(); xsl * ny * nz];
        for src in 0..p {
            let szr = Schedule::static_block(nz, p, src);
            let inb = &recvbuf[src * blk..(src + 1) * blk];
            let mut k = 0;
            for lz in 0..zsl {
                let z = szr.start + lz;
                for y in 0..ny {
                    for dx in 0..xsl {
                        v[(dx * ny + y) * nz + z] = inb[k];
                        k += 1;
                    }
                }
            }
        }
        for row in v.chunks_mut(nz) {
            plan_z.forward(row);
        }

        // Iterations.
        let mut sums: Vec<(f64, f64)> = Vec::with_capacity(cfg.iters);
        let mut w = vec![C64::zero(); v.len()];
        for _it in 1..=cfg.iters {
            for (dx, xblock) in v.chunks_mut(ny * nz).enumerate() {
                let fx = ex[xr.start + dx];
                for (y, row) in xblock.chunks_mut(nz).enumerate() {
                    let fxy = fx * ey[y];
                    for (z, c) in row.iter_mut().enumerate() {
                        *c = c.scale(fxy * ez[z]);
                    }
                }
            }
            w.copy_from_slice(&v);
            for row in w.chunks_mut(nz) {
                plan_z.inverse(row);
            }
            // Inverse transpose: pack per-destination z-blocks.
            for dst in 0..p {
                let dzr = Schedule::static_block(nz, p, dst);
                let out = &mut sendbuf[dst * blk..(dst + 1) * blk];
                let mut k = 0;
                for dx in 0..xsl {
                    for y in 0..ny {
                        let row = &w[(dx * ny + y) * nz..][dzr.clone()];
                        out[k..k + zsl].copy_from_slice(row);
                        k += zsl;
                    }
                }
            }
            let back = mpi.alltoall(&sendbuf);
            // Unpack into the local z-slab A2[z_local][y][x_global].
            let mut a2 = vec![C64::zero(); zsl * ny * nx];
            for src in 0..p {
                let sxr = Schedule::static_block(nx, p, src);
                let inb = &back[src * blk..(src + 1) * blk];
                let mut k = 0;
                for dx in 0..xsl {
                    let x = sxr.start + dx;
                    for y in 0..ny {
                        for lz in 0..zsl {
                            a2[(lz * ny + y) * nx + x] = inb[k];
                            k += 1;
                        }
                    }
                }
            }
            let mut part = (0.0f64, 0.0f64);
            for (lz, plane) in a2.chunks_mut(ny * nx).enumerate() {
                let z = zr.start + lz;
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
            let tot = mpi.allreduce(&[part.0, part.1], |x, y| x + y);
            sums.push((tot[0], tot[1]));
        }
        sums
    });

    let sums = out.results[0].clone();
    Report {
        app: "3D-FFT",
        version: VersionKind::Mpi,
        nodes,
        vt_ns: out.vt_ns,
        msgs: out.net.total_msgs(),
        bytes: out.net.total_bytes(),
        checksum: checksum_digest(&sums),
    }
}

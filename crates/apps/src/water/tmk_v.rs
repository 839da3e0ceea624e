//! Hand-coded TreadMarks version of Water: one fork, barrier-separated
//! phases per time step.

use super::{water_checksum, Molecule, WaterConfig};
use crate::common::{Report, VersionKind};
use nomp::Schedule;
use tmk::TmkConfig;

/// Run the hand-coded DSM version.
pub fn run_tmk(cfg: &WaterConfig, sys: TmkConfig) -> Report {
    let cfg = *cfg;
    let nodes = sys.nodes();
    const ENERGY_LOCK: u32 = 5;
    let out = tmk::run_system(sys, move |tmk| {
        let n = cfg.n_mol;
        let mols = tmk.malloc_vec::<Molecule>(n);
        let energy = tmk.malloc_vec::<f64>(2 * cfg.steps);
        let init = super::init_molecules(&cfg);
        tmk.write_slice(&mols, 0, &init);

        tmk.parallel(0, move |t| {
            let (me, p) = (t.proc_id(), t.nprocs());
            let block = Schedule::static_block(n, p, me);
            for step in 0..cfg.steps {
                // Predict own block, then synchronize.
                t.view_mut(&mols, block.clone(), |b| super::predict_block(b, cfg.dt));
                t.barrier();
                // Owner-computes forces against the full snapshot.
                let snapshot = t.read_slice(&mols, 0..n);
                let mut my = snapshot[block.clone()].to_vec();
                let (ke, pe) = super::force_block(&snapshot, &mut my, block.start, cfg.dt);
                t.write_slice(&mols, block.start, &my);
                t.lock_acquire(ENERGY_LOCK);
                let k0 = t.read(&energy, 2 * step);
                let p0 = t.read(&energy, 2 * step + 1);
                t.write(&energy, 2 * step, k0 + ke);
                t.write(&energy, 2 * step + 1, p0 + pe);
                t.lock_release(ENERGY_LOCK);
                t.barrier();
            }
        });

        let e = tmk.read_slice(&energy, 0..2 * cfg.steps);
        let energies: Vec<(f64, f64)> = e.chunks(2).map(|c| (c[0], c[1])).collect();
        let final_mols = tmk.read_slice(&mols, 0..n);
        (energies, final_mols)
    });

    let (energies, mols) = out.result;
    Report {
        app: "Water",
        version: VersionKind::Tmk,
        nodes,
        vt_ns: out.vt_ns,
        msgs: out.net.total_msgs(),
        bytes: out.net.total_bytes(),
        checksum: water_checksum(&energies, &mols),
    }
}

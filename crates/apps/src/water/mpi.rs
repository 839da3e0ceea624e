//! MPI version of Water: exchange predicted *positions* each step
//! (27 doubles per molecule would be wasteful — only the 9 position
//! coordinates are needed by remote force evaluations), compute own
//! block, allreduce energies.

use super::{water_checksum, Molecule, WaterConfig};
use crate::common::{Report, VersionKind};
use nomp::Schedule;
use nowmpi::MpiConfig;

/// Positions of one molecule's three sites.
type Pos = [[f64; 3]; 3];

/// Run the message-passing version.
pub fn run_mpi(cfg: &WaterConfig, sys: MpiConfig) -> Report {
    let cfg = *cfg;
    let nodes = sys.ranks();
    let out = nowmpi::run_mpi(sys, move |mpi| {
        let (r, p) = (mpi.rank(), mpi.size());
        let n = cfg.n_mol;
        let block = Schedule::static_block(n, p, r);
        // Everyone derives the same deterministic initial state and keeps
        // only its own block's full records.
        let all_init = super::init_molecules(&cfg);
        let mut my: Vec<Molecule> = all_init[block.clone()].to_vec();
        drop(all_init);
        let mut energies = Vec::with_capacity(cfg.steps);
        // Position snapshot as bare coordinates, rebuilt each step.
        let mut snapshot: Vec<Molecule> = vec![Molecule::default(); n];
        for _ in 0..cfg.steps {
            super::predict_block(&mut my, cfg.dt);
            let my_pos: Vec<Pos> = my.iter().map(|m| m.pos).collect();
            let all_pos = gather_positions(mpi, &my_pos, n);
            for (m, pos) in snapshot.iter_mut().zip(all_pos) {
                m.pos = pos;
            }
            let (ke, pe) = super::force_block(&snapshot, &mut my, block.start, cfg.dt);
            let e = mpi.allreduce(&[ke, pe], |a, b| a + b);
            energies.push((e[0], e[1]));
        }
        // Final full state to rank 0 for verification.
        let final_mols = gather_molecules(mpi, &my, n);
        (energies, final_mols)
    });

    let (energies, mols) = out.results[0].clone();
    Report {
        app: "Water",
        version: VersionKind::Mpi,
        nodes,
        vt_ns: out.vt_ns,
        msgs: out.net.total_msgs(),
        bytes: out.net.total_bytes(),
        checksum: water_checksum(&energies, &mols),
    }
}

/// Allgather with (possibly) unequal blocks: everyone sends to rank 0,
/// which concatenates in rank order and broadcasts.
fn gather_positions(mpi: &mut nowmpi::MpiRank, my: &[Pos], n: usize) -> Vec<Pos> {
    const TAG: i32 = 76;
    let (r, p) = (mpi.rank(), mpi.size());
    let mut full: Vec<Pos>;
    if r == 0 {
        full = Vec::with_capacity(n);
        full.extend_from_slice(my);
        for src in 1..p {
            let part: Vec<Pos> = mpi.recv(src, TAG);
            full.extend(part);
        }
    } else {
        mpi.send(0, TAG, my);
        full = Vec::new();
    }
    mpi.bcast(0, &mut full);
    full
}

/// Final-state gather (full records; once per run).
fn gather_molecules(mpi: &mut nowmpi::MpiRank, my: &[Molecule], n: usize) -> Vec<Molecule> {
    const TAG: i32 = 77;
    let (r, p) = (mpi.rank(), mpi.size());
    let mut full: Vec<Molecule>;
    if r == 0 {
        full = Vec::with_capacity(n);
        full.extend_from_slice(my);
        for src in 1..p {
            let part: Vec<Molecule> = mpi.recv(src, TAG);
            full.extend(part);
        }
    } else {
        mpi.send(0, TAG, my);
        full = Vec::new();
    }
    mpi.bcast(0, &mut full);
    full
}

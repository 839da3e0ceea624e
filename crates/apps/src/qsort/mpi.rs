//! MPI version of QSORT: parallel sorting by regular sampling (PSRS),
//! the standard message-passing formulation of quicksort. Local sorts
//! use the same quicksort/bubble kernels as the shared-memory versions.

use super::{gen_input, quicksort, sorted_digest, QsortConfig};
use crate::common::{Report, VersionKind};
use nomp::Schedule;
use nowmpi::MpiConfig;

const TAG_PART: i32 = 31;
const TAG_RESULT: i32 = 32;

/// Run the message-passing version.
pub fn run_mpi(cfg: &QsortConfig, sys: MpiConfig) -> Report {
    let cfg = *cfg;
    let nodes = sys.ranks();
    let out = nowmpi::run_mpi(sys, move |mpi| {
        let (r, p) = (mpi.rank(), mpi.size());
        let n = cfg.n;
        // Everyone derives the same deterministic input, keeps its block.
        let input = gen_input(&cfg);
        let myr = Schedule::static_block(n, p, r);
        let mut local: Vec<i32> = input[myr].to_vec();
        drop(input);
        // Phase 1: local sort.
        quicksort(&mut local, cfg.bubble_threshold);
        if p == 1 {
            return sorted_digest(&local);
        }
        // Phase 2: regular samples -> root picks p-1 pivots.
        let step = (local.len() / p).max(1);
        let samples: Vec<i32> = (0..p)
            .map(|k| local[(k * step).min(local.len() - 1)])
            .collect();
        let all = mpi.gather(0, &samples);
        let mut pivots: Vec<i32> = if let Some(mut s) = all {
            s.sort_unstable();
            (1..p).map(|k| s[k * p - 1]).collect()
        } else {
            vec![0; p - 1]
        };
        mpi.bcast(0, &mut pivots);
        // Phase 3: partition the local run by pivots and exchange.
        let mut parts: Vec<&[i32]> = Vec::with_capacity(p);
        let mut start = 0usize;
        for &pv in &pivots {
            let end = start + local[start..].partition_point(|&x| x <= pv);
            parts.push(&local[start..end]);
            start = end;
        }
        parts.push(&local[start..]);
        for (dst, part) in parts.iter().enumerate() {
            if dst != r {
                mpi.send(dst, TAG_PART, part);
            }
        }
        let mut merged: Vec<Vec<i32>> = Vec::with_capacity(p);
        for src in 0..p {
            if src == r {
                merged.push(parts[r].to_vec());
            } else {
                merged.push(mpi.recv(src, TAG_PART));
            }
        }
        // Phase 4: merge the p sorted runs.
        let mut mine: Vec<i32> = merged.concat();
        mine.sort_unstable(); // runs are sorted; a k-way merge in spirit
                              // Phase 5: concatenate at root for verification.
        if r == 0 {
            let mut full = mine;
            for src in 1..p {
                let part: Vec<i32> = mpi.recv(src, TAG_RESULT);
                full.extend(part);
            }
            assert_eq!(full.len(), n, "PSRS lost elements");
            sorted_digest(&full)
        } else {
            mpi.send(0, TAG_RESULT, &mine);
            0.0
        }
    });

    Report {
        app: "QSORT",
        version: VersionKind::Mpi,
        nodes,
        vt_ns: out.vt_ns,
        msgs: out.net.total_msgs(),
        bytes: out.net.total_bytes(),
        checksum: out.results[0],
    }
}

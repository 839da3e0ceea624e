//! SPMD bring-up: run one rank per simulated workstation.

use crate::comm::{MpiMsg, MpiRank};
use crate::config::MpiConfig;
use now_net::{NetMetricsSnapshot, Network};
use std::sync::Arc;
use std::thread;

/// Results of an MPI run.
#[derive(Debug)]
pub struct MpiOutcome<R> {
    /// Per-rank return values, in rank order.
    pub results: Vec<R>,
    /// The slowest rank's final virtual clock — the program's run time.
    pub vt_ns: u64,
    /// Network traffic (messages/bytes, per rank and per message kind).
    pub net: NetMetricsSnapshot,
}

impl<R> MpiOutcome<R> {
    /// Virtual run time in seconds.
    pub fn vt_seconds(&self) -> f64 {
        self.vt_ns as f64 / 1e9
    }
}

/// Launch `cfg.ranks()` ranks, each executing `f` (SPMD), and collect the
/// per-rank results plus timing/traffic statistics.
pub fn run_mpi<R, F>(cfg: MpiConfig, f: F) -> MpiOutcome<R>
where
    R: Send + 'static,
    F: Fn(&mut MpiRank) -> R + Send + Sync + 'static,
{
    let eps = Network::build::<MpiMsg>(cfg.net.clone());
    let f = Arc::new(f);
    let traffic = eps[0].traffic().clone();
    let handles: Vec<_> = eps
        .into_iter()
        .map(|ep| {
            let f = f.clone();
            let envelope = cfg.envelope_bytes;
            thread::Builder::new()
                .name(format!("mpi-rank-{}", ep.id()))
                .spawn(move || {
                    let mut rank = MpiRank::new(ep, envelope);
                    // Re-arm the meter on the owning thread.
                    rank.meter.restart();
                    let r = f(&mut rank);
                    rank.meter.charge(&rank.clock.clone());
                    (r, rank.clock.now())
                })
                .expect("spawn rank thread")
        })
        .collect();

    let mut results = Vec::with_capacity(handles.len());
    let mut vt_ns = 0;
    for h in handles {
        let (r, vt) = h.join().expect("rank thread panicked");
        results.push(r);
        vt_ns = vt_ns.max(vt);
    }
    MpiOutcome {
        results,
        vt_ns,
        net: traffic.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize) -> MpiConfig {
        MpiConfig::fast_test(n)
    }

    #[test]
    fn pt2pt_roundtrip() {
        let out = run_mpi(cfg(2), |mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 5, &[1.5f64, 2.5]);
                let back: Vec<f64> = mpi.recv(1, 6);
                back[0]
            } else {
                let xs: Vec<f64> = mpi.recv(0, 5);
                mpi.send(0, 6, &[xs.iter().sum::<f64>()]);
                0.0
            }
        });
        assert_eq!(out.results[0], 4.0);
        assert_eq!(out.net.total_msgs(), 2);
    }

    #[test]
    fn traffic_splits_into_pt2pt_and_collective_kinds() {
        let out = run_mpi(cfg(2), |mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 5, &[7u64]);
            } else {
                let _: Vec<u64> = mpi.recv(0, 5);
            }
            let mut data = vec![mpi.rank() as u32; 4];
            mpi.bcast(0, &mut data);
        });
        let kind = |k| out.net.kind(k).expect("declared kind").send_msgs;
        let (pt2pt, coll) = (kind("mpi_pt2pt"), kind("mpi_collective"));
        assert_eq!((pt2pt, coll), (1, 1));
        assert_eq!(pt2pt + coll, out.net.total_msgs());
        assert_eq!(kind("_other"), 0);
    }

    #[test]
    fn tag_matching_out_of_order() {
        let out = run_mpi(cfg(2), |mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 1, &[10u32]);
                mpi.send(1, 2, &[20u32]);
                0
            } else {
                // Receive tag 2 first even though tag 1 arrived first.
                let b: Vec<u32> = mpi.recv(0, 2);
                let a: Vec<u32> = mpi.recv(0, 1);
                (b[0] * 100 + a[0]) as i64
            }
        });
        assert_eq!(out.results[1], 2010);
    }

    #[test]
    fn barrier_completes_at_all_sizes() {
        for p in [1usize, 2, 3, 5, 8] {
            let out = run_mpi(cfg(p), |mpi| {
                for _ in 0..3 {
                    mpi.barrier();
                }
                mpi.rank()
            });
            assert_eq!(out.results.len(), p);
        }
    }

    #[test]
    fn bcast_from_each_root() {
        for p in [2usize, 3, 4, 7] {
            for root in 0..p {
                let out = run_mpi(cfg(p), move |mpi| {
                    let mut data = if mpi.rank() == root {
                        vec![42u64, 43]
                    } else {
                        vec![0u64, 0]
                    };
                    mpi.bcast(root, &mut data);
                    data
                });
                for r in out.results {
                    assert_eq!(r, vec![42, 43], "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn reduce_and_allreduce() {
        let out = run_mpi(cfg(5), |mpi| {
            let local = vec![mpi.rank() as u64, 1u64];
            let red = mpi.reduce(2, &local, |a, b| a + b);
            let all = mpi.allreduce(&local, |a, b| a + b);
            (red, all)
        });
        for (r, (red, all)) in out.results.into_iter().enumerate() {
            assert_eq!(all, vec![1 + 2 + 3 + 4, 5]); // sum of ranks 0..=4, sum of the ones
            if r == 2 {
                assert_eq!(red, Some(vec![10, 5]));
            } else {
                assert_eq!(red, None);
            }
        }
    }

    #[test]
    fn gather_allgather_scatter() {
        let out = run_mpi(cfg(4), |mpi| {
            let r = mpi.rank();
            let g = mpi.gather(1, &[r as u32 * 2]);
            let ag = mpi.allgather(&[r as u32]);
            let sc = mpi.scatter(0, (r == 0).then(|| vec![9u32, 8, 7, 6]).as_deref());
            (g, ag, sc)
        });
        for (r, (g, ag, sc)) in out.results.into_iter().enumerate() {
            if r == 1 {
                assert_eq!(g, Some(vec![0, 2, 4, 6]));
            } else {
                assert_eq!(g, None);
            }
            assert_eq!(ag, vec![0, 1, 2, 3]);
            assert_eq!(sc, vec![9 - r as u32]);
        }
    }

    #[test]
    fn alltoall_transposes_blocks() {
        let p = 4;
        let out = run_mpi(cfg(p), move |mpi| {
            let r = mpi.rank();
            // Block j of rank r contains value r*10 + j.
            let send: Vec<u32> = (0..p).map(|j| (r * 10 + j) as u32).collect();
            mpi.alltoall(&send)
        });
        for (r, recv) in out.results.into_iter().enumerate() {
            // Block j of the result should be j*10 + r.
            let expect: Vec<u32> = (0..p).map(|j| (j * 10 + r) as u32).collect();
            assert_eq!(recv, expect, "rank {r}");
        }
    }

    #[test]
    fn sendrecv_ring_shift() {
        let p = 3;
        let out = run_mpi(cfg(p), move |mpi| {
            let r = mpi.rank();
            let right = (r + 1) % p;
            let left = (r + p - 1) % p;
            let got = mpi.sendrecv(right, 7, &[r as u64], left, 7);
            got[0]
        });
        assert_eq!(out.results, vec![2, 0, 1]);
    }

    #[test]
    fn vt_advances_with_traffic() {
        let out = run_mpi(cfg(2), |mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 0, &[0u8; 1000]);
            } else {
                let _: Vec<u8> = mpi.recv(0, 0);
            }
            mpi.barrier();
        });
        assert!(out.vt_ns > 0);
    }
}

//! TSP: branch-and-bound travelling salesman.
//!
//! The paper's structure: a pool of partially evaluated tours, a priority
//! queue ordered by lower bound, and the current shortest tour. A worker
//! repeatedly dequeues the most promising tour; if enough cities remain
//! it extends the tour by one city and enqueues the children, otherwise
//! it solves the remainder exhaustively (depth-first with pruning).
//! Shared-memory versions protect the queue with `critical` only — the
//! dequeue and subsequent enqueues share one critical section, so no
//! condition variables are needed (Table 1). The MPI version is
//! master-worker with piggybacked work/bound exchange.

mod mpi;
mod omp;
mod seq;
mod shared;
mod task;
mod tmk_v;

pub use mpi::run_mpi;
pub use omp::run_omp;
pub use seq::run_seq;
pub use task::{run_task, run_task_stats, MAX_TASK_CITIES};
pub use tmk_v::run_tmk;

use crate::common::Xorshift;

/// Problem definition.
#[derive(Debug, Clone, Copy)]
pub struct TspConfig {
    /// Number of cities.
    pub n_cities: usize,
    /// Solve exhaustively once at most this many cities remain.
    pub exhaustive_at: usize,
    /// Workload seed (distance matrix).
    pub seed: u64,
}

impl TspConfig {
    /// Paper-scale workload.
    pub fn paper() -> Self {
        TspConfig {
            n_cities: 13,
            exhaustive_at: 10,
            seed: 1729,
        }
    }

    /// Small instance for tests.
    pub fn test() -> Self {
        TspConfig {
            n_cities: 9,
            exhaustive_at: 5,
            seed: 1729,
        }
    }
}

/// Deterministic symmetric distance matrix with entries in `1..=99`.
pub fn gen_distances(cfg: &TspConfig) -> Vec<u32> {
    let n = cfg.n_cities;
    let mut rng = Xorshift::new(cfg.seed);
    let mut d = vec![0u32; n * n];
    for i in 0..n {
        for j in i + 1..n {
            let w = 1 + rng.next_below(99);
            d[i * n + j] = w;
            d[j * n + i] = w;
        }
    }
    d
}

/// A partial tour starting at city 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tour {
    /// Visited cities in order (starts with 0).
    pub path: Vec<u8>,
    /// Length of the path so far.
    pub len: u32,
    /// Lower bound on any completion of this tour.
    pub bound: u32,
}

/// Cheap admissible lower bound: current length plus, for every city not
/// yet fixed (including the return to 0), its cheapest incident edge.
pub fn lower_bound(dist: &[u32], n: usize, path: &[u8], len: u32) -> u32 {
    let mut visited = vec![false; n];
    for &c in path {
        visited[c as usize] = true;
    }
    let mut extra = 0u32;
    for c in 0..n {
        if visited[c] && c != 0 {
            continue;
        }
        // Cheapest edge out of `c` to anything that could follow it.
        let mut best = u32::MAX;
        for o in 0..n {
            if o != c {
                best = best.min(dist[c * n + o]);
            }
        }
        extra += best;
    }
    len + extra
}

/// Exhaustive depth-first completion of `tour`, pruning against `best`.
/// Returns the best completion length found (or `best` unchanged).
pub fn solve_exhaustive(dist: &[u32], n: usize, tour: &Tour, mut best: u32) -> u32 {
    let mut visited = vec![false; n];
    for &c in &tour.path {
        visited[c as usize] = true;
    }
    let mut path = tour.path.clone();
    dfs(dist, n, &mut path, &mut visited, tour.len, &mut best);
    best
}

fn dfs(dist: &[u32], n: usize, path: &mut Vec<u8>, visited: &mut [bool], len: u32, best: &mut u32) {
    if len >= *best {
        return;
    }
    let last = *path.last().expect("non-empty path") as usize;
    if path.len() == n {
        let total = len + dist[last * n];
        if total < *best {
            *best = total;
        }
        return;
    }
    for c in 1..n {
        if !visited[c] {
            let nl = len + dist[last * n + c];
            if nl < *best {
                visited[c] = true;
                path.push(c as u8);
                dfs(dist, n, path, visited, nl, best);
                path.pop();
                visited[c] = false;
            }
        }
    }
}

/// Expand `tour` by one city in every feasible way.
pub fn expand(dist: &[u32], n: usize, tour: &Tour) -> Vec<Tour> {
    let mut visited = vec![false; n];
    for &c in &tour.path {
        visited[c as usize] = true;
    }
    let last = *tour.path.last().expect("non-empty path") as usize;
    let mut out = Vec::new();
    for c in 1..n {
        if !visited[c] {
            let mut path = tour.path.clone();
            path.push(c as u8);
            let len = tour.len + dist[last * n + c];
            let bound = lower_bound(dist, n, &path, len);
            out.push(Tour { path, len, bound });
        }
    }
    out
}

/// Number of cities remaining to place after this tour.
pub fn remaining(n: usize, tour: &Tour) -> usize {
    n - tour.path.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(dist: &[u32], n: usize) -> u32 {
        let t = Tour {
            path: vec![0],
            len: 0,
            bound: 0,
        };
        solve_exhaustive(dist, n, &t, u32::MAX)
    }

    #[test]
    fn distances_symmetric_nonzero() {
        let cfg = TspConfig::test();
        let d = gen_distances(&cfg);
        let n = cfg.n_cities;
        for i in 0..n {
            assert_eq!(d[i * n + i], 0);
            for j in 0..n {
                assert_eq!(d[i * n + j], d[j * n + i]);
                if i != j {
                    assert!(d[i * n + j] >= 1);
                }
            }
        }
    }

    #[test]
    fn lower_bound_is_admissible() {
        // The bound at the root must not exceed the optimal tour length.
        let cfg = TspConfig {
            n_cities: 7,
            exhaustive_at: 3,
            seed: 55,
        };
        let d = gen_distances(&cfg);
        let opt = brute_force(&d, 7);
        let root_bound = lower_bound(&d, 7, &[0], 0);
        assert!(root_bound <= opt, "bound {root_bound} > optimum {opt}");
    }

    #[test]
    fn expand_generates_all_children() {
        let cfg = TspConfig {
            n_cities: 5,
            exhaustive_at: 2,
            seed: 3,
        };
        let d = gen_distances(&cfg);
        let root = Tour {
            path: vec![0],
            len: 0,
            bound: 0,
        };
        let kids = expand(&d, 5, &root);
        assert_eq!(kids.len(), 4);
        for k in &kids {
            assert_eq!(k.path.len(), 2);
            assert!(k.bound >= k.len);
        }
    }

    #[test]
    fn exhaustive_finds_optimum_of_known_instance() {
        // 4 cities in a unit square with one long diagonal: the optimum
        // is the perimeter.
        #[rustfmt::skip]
        let d = vec![
            0, 1, 5, 1,
            1, 0, 1, 5,
            5, 1, 0, 1,
            1, 5, 1, 0,
        ];
        assert_eq!(brute_force(&d, 4), 4);
    }

    #[test]
    fn pruning_matches_unpruned_search() {
        for seed in [1u64, 9, 77] {
            let cfg = TspConfig {
                n_cities: 8,
                exhaustive_at: 4,
                seed,
            };
            let d = gen_distances(&cfg);
            let opt = brute_force(&d, 8);
            // B&B via expand + exhaustive threshold must agree.
            let mut best = u32::MAX;
            let mut stack = vec![Tour {
                path: vec![0],
                len: 0,
                bound: 0,
            }];
            while let Some(t) = stack.pop() {
                if t.bound >= best {
                    continue;
                }
                if remaining(8, &t) <= cfg.exhaustive_at {
                    best = solve_exhaustive(&d, 8, &t, best);
                } else {
                    stack.extend(expand(&d, 8, &t));
                }
            }
            assert_eq!(best, opt, "seed {seed}");
        }
    }
}

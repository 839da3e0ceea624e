//! Task-based TSP on the distributed tasking runtime.
//!
//! The paper's shared-memory TSP serializes every dequeue/expand/enqueue
//! through one critical section guarding a central priority queue
//! ([`super::shared`]). This version makes each partially evaluated tour
//! an OpenMP *task*: a subtour (≤ 16 cities) packs exactly into the
//! 32-byte [`TaskArgs`] block, so the whole tour pool lives implicitly in
//! the per-node task deques and moves between workstations inside steal
//! replies. Only the current best length remains
//! centralized, updated under a named critical section; pruning reads it
//! without the lock — a stale (older, higher) bound is admissible and
//! merely prunes less.
//!
//! Best-first order is given up for deque order (LIFO locally, FIFO for
//! thieves), the standard trade of task-parallel branch-and-bound: more
//! nodes may be expanded than with a global priority queue, but expansion
//! runs without a global lock. Results stay exact — only the visit order
//! changes.

use super::{expand, gen_distances, remaining, solve_exhaustive, Tour, TspConfig};
use crate::common::{Report, VersionKind};
use nomp::{omp_task, OmpConfig, OmpThread, TaskArgs, TaskScopeConfig};

/// Maximum city count encodable in one [`TaskArgs`] (16 path bytes).
pub const MAX_TASK_CITIES: usize = 16;

fn encode(tour: &Tour) -> TaskArgs {
    debug_assert!(tour.path.len() <= MAX_TASK_CITIES);
    let mut c = 0u64;
    let mut d = 0u64;
    for (i, &city) in tour.path.iter().enumerate() {
        if i < 8 {
            c |= (city as u64) << (8 * i);
        } else {
            d |= (city as u64) << (8 * (i - 8));
        }
    }
    TaskArgs {
        a: ((tour.len as u64) << 32) | tour.bound as u64,
        b: tour.path.len() as u64,
        c,
        d,
    }
}

fn decode(t: TaskArgs) -> Tour {
    let path = (0..t.b as usize)
        .map(|i| {
            if i < 8 {
                (t.c >> (8 * i)) as u8
            } else {
                (t.d >> (8 * (i - 8))) as u8
            }
        })
        .collect();
    Tour {
        path,
        len: (t.a >> 32) as u32,
        bound: (t.a & 0xffff_ffff) as u32,
    }
}

fn offer_best(th: &mut OmpThread<'_>, best: tmk::SharedScalar<u32>, found: u32) {
    th.critical_named("tsp_best", |th| {
        if found < best.get(th) {
            best.set(th, found);
        }
    });
}

/// [`run_task`], additionally returning the DSM/tasking counters (spawns,
/// steals, overflows) for the bench ablation.
pub fn run_task_stats(cfg: &TspConfig, sys: OmpConfig) -> (Report, nomp::TmkStats) {
    assert!(
        cfg.n_cities <= MAX_TASK_CITIES,
        "task-based TSP packs tours into TaskArgs: at most {MAX_TASK_CITIES} cities"
    );
    let cfg = *cfg;
    let nodes = sys.threads();
    let out = nomp::run(sys, move |omp| {
        let dist = gen_distances(&cfg);
        let n = cfg.n_cities;
        let best = omp.malloc_scalar::<u32>(u32::MAX);

        let dist_cl = dist.clone();
        omp.task_scope(
            TaskScopeConfig::default(),
            move |s| {
                s.single(|s| {
                    let root = Tour {
                        path: vec![0],
                        len: 0,
                        bound: 0,
                    };
                    omp_task!(s, encode(&root));
                });
            },
            move |s, t| {
                let tour = decode(t);
                // Unlocked read: stale bounds are admissible (see module
                // docs) — correctness never depends on freshness here.
                let best_now = best.get(s);
                if tour.bound >= best_now {
                    return;
                }
                if remaining(n, &tour) <= cfg.exhaustive_at {
                    let found = solve_exhaustive(&dist_cl, n, &tour, best_now);
                    if found < best_now {
                        offer_best(s, best, found);
                    }
                } else {
                    for child in expand(&dist_cl, n, &tour) {
                        if child.bound < best.get(s) {
                            omp_task!(s, encode(&child));
                        }
                    }
                }
            },
        );
        best.get(omp)
    });

    let report = Report {
        app: "TSP",
        version: VersionKind::Task,
        nodes,
        vt_ns: out.vt_ns,
        msgs: out.net.total_msgs(),
        bytes: out.net.total_bytes(),
        checksum: out.result as f64,
    };
    (report, out.dsm)
}

/// Run the task-runtime version with cross-node work stealing.
pub fn run_task(cfg: &TspConfig, sys: OmpConfig) -> Report {
    run_task_stats(cfg, sys).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tour_packing_roundtrips() {
        let tours = [
            Tour {
                path: vec![0],
                len: 0,
                bound: 0,
            },
            Tour {
                path: vec![0, 5, 3, 9],
                len: 123,
                bound: 456,
            },
            Tour {
                path: (0..16).map(|i| i as u8).collect(),
                len: u32::MAX,
                bound: 7,
            },
        ];
        for t in &tours {
            assert_eq!(&decode(encode(t)), t);
        }
    }

    #[test]
    fn task_tsp_matches_sequential() {
        let cfg = TspConfig::test();
        let seq = super::super::run_seq(&cfg, 1.0);
        for nodes in [2usize, 4] {
            let r = run_task(&cfg, OmpConfig::fast_test(nodes));
            assert_eq!(r.checksum, seq.checksum, "{nodes} nodes");
        }
    }

    #[test]
    #[should_panic(expected = "at most 16 cities")]
    fn rejects_oversized_instances() {
        let cfg = TspConfig {
            n_cities: 17,
            exhaustive_at: 10,
            seed: 1,
        };
        let _ = run_task(&cfg, OmpConfig::fast_test(2));
    }
}

//! The master-side OpenMP execution environment.

use crate::cluster::{Cluster, Job, RunReport};
use crate::config::{OmpConfig, Schedule};
use crate::forloop::{LoopPlan, LoopShared};
use crate::reduction::{RedOp, Reduce};
use crate::thread::{OmpThread, RUNTIME_LOCK_BASE};
use std::ops::{Deref, DerefMut, Range};
use std::sync::Arc;
use tmk::Tmk;

/// The sequential (master) context of an OpenMP program.
///
/// Dereferences to the master's [`Tmk`] handle for shared-memory
/// allocation and access in sequential sections; parallel constructs fork
/// regions onto all workstations.
pub struct Env<'t> {
    pub(crate) t: &'t mut Tmk,
    pub(crate) cfg: OmpConfig,
    loop_seq: u32,
    /// Task scopes opened in the job so far: the last one's number.
    task_scopes: u32,
}

impl Deref for Env<'_> {
    type Target = Tmk;
    fn deref(&self) -> &Tmk {
        self.t
    }
}
impl DerefMut for Env<'_> {
    fn deref_mut(&mut self) -> &mut Tmk {
        self.t
    }
}

impl<'t> Env<'t> {
    /// The master's execution environment for one job on `t`'s node
    /// (cluster-internal: jobs receive it ready-made).
    pub(crate) fn new(t: &'t mut Tmk, cfg: OmpConfig) -> Env<'t> {
        Env {
            t,
            cfg,
            loop_seq: 0,
            task_scopes: 0,
        }
    }
}

/// Run one OpenMP program on a fresh cluster and tear it down.
///
/// One-job shim over the [`Cluster`](crate::Cluster) session API —
/// `Cluster::builder()…build()?.run(job)` is the primary way in, and a
/// warm cluster amortizes bring-up over a stream of jobs.
pub fn run<R, F>(cfg: OmpConfig, f: F) -> RunReport<R>
where
    R: Send + 'static,
    F: FnOnce(&mut Env<'_>) -> R + Send + 'static,
{
    let mut cluster = Cluster::from_config(cfg);
    let report = cluster
        .run(Job::new(f))
        .expect("a freshly built cluster accepts a job");
    // Explicit shutdown so a node-thread panic re-raises here with its
    // own message instead of being swallowed by the cluster's drop.
    cluster.shutdown();
    report
}

impl Env<'_> {
    /// Number of OpenMP threads a region will run:
    /// `nodes × threads_per_node`.
    pub fn num_threads(&self) -> usize {
        self.t.nprocs() * self.cfg.smp.threads_per_node
    }

    /// Number of workstations (DSM nodes).
    pub fn num_nodes(&self) -> usize {
        self.t.nprocs()
    }

    /// Application threads per workstation.
    pub fn threads_per_node(&self) -> usize {
        self.cfg.smp.threads_per_node
    }

    /// `omp_get_wtime()`: the master's virtual clock in seconds — elapsed
    /// modeled time on the simulated network, not host time.
    pub fn wtime(&mut self) -> f64 {
        self.t.now_ns() as f64 / 1e9
    }

    /// A fresh runtime-internal lock id (for loop counters, reductions).
    fn next_runtime_lock(&mut self) -> u32 {
        self.loop_seq = self.loop_seq.wrapping_add(1);
        RUNTIME_LOCK_BASE + (self.loop_seq & 0x0fff)
    }

    /// The number of a new task scope: every node keys the scope's deque
    /// by it, numbered from 1 in the job (the nodes' deques are cleared
    /// at each job's reset).
    pub(crate) fn open_task_scope(&mut self) -> u32 {
        self.task_scopes += 1;
        self.task_scopes
    }

    /// A fresh runtime-internal lock id for layers built on top of the
    /// runtime (directive front-ends allocating reduction locks).
    pub fn alloc_runtime_lock(&mut self) -> u32 {
        self.next_runtime_lock()
    }

    /// Substitute [`Schedule::Runtime`] with the configured
    /// [`OmpConfig::runtime_schedule`] (itself defaulting to static if it
    /// degenerately points back at `Runtime`).
    pub fn resolve_schedule(&self, sched: Schedule) -> Schedule {
        match sched {
            Schedule::Runtime => match self.cfg.runtime_schedule {
                Schedule::Runtime => Schedule::Static,
                s => s,
            },
            s => s,
        }
    }

    /// Allocate the zeroed DSM-resident state a non-static loop plan
    /// needs (`None` for static policies): the shared chunk counter of
    /// dynamic/guided, the rate table of adaptive, or the per-node
    /// partition descriptors of affinity. Master-side hook for directive
    /// front-ends; `sched` should already be resolved.
    pub fn alloc_loop_shared(&mut self, sched: Schedule) -> Option<LoopShared> {
        self.loop_shared_for(sched)
    }

    /// Build a [`LoopPlan`] for `range` under `sched` (resolving
    /// `schedule(runtime)` and allocating the shared counter if the
    /// policy needs one). Master-side hook for directive front-ends; the
    /// plan is `Clone + Send` and is consumed inside the region with
    /// [`LoopPlan::next_chunk`] or [`LoopPlan::run`].
    pub fn plan_loop(&mut self, sched: Schedule, range: Range<usize>) -> LoopPlan {
        let sched = self.resolve_schedule(sched);
        let shared = self.loop_shared_for(sched);
        LoopPlan::new(sched, range, shared)
    }

    /// `!$omp parallel` … `!$omp end parallel`.
    ///
    /// By-value captures of `body` are the firstprivate environment;
    /// shared data must be `SharedVec`/`SharedScalar` handles (the
    /// paper's Modification 1, enforced by construction). An implicit
    /// barrier joins the region.
    pub fn parallel(&mut self, body: impl Fn(&mut OmpThread<'_>) + Send + Sync + 'static) {
        self.parallel_sized(0, body);
    }

    /// [`Env::parallel`] with an explicit modeled firstprivate payload
    /// size in bytes (added to the fork message).
    ///
    /// On an SMP topology (`threads_per_node > 1`) each forked node runs
    /// the body on a team of local threads sharing the node's DSM
    /// process: one fork message per node brings up `threads_per_node`
    /// OpenMP threads, and the implicit join barrier is two-level.
    pub fn parallel_sized(
        &mut self,
        payload_bytes: usize,
        body: impl Fn(&mut OmpThread<'_>) + Send + Sync + 'static,
    ) {
        let smp_cfg = self.cfg.smp;
        if smp_cfg.threads_per_node <= 1 {
            self.t.parallel(payload_bytes, move |t| {
                let mut th = OmpThread::new(t);
                body(&mut th);
            });
        } else {
            self.t.parallel(payload_bytes, move |t| {
                smp::run_team(t, smp_cfg, |t, team, local_tid| {
                    let mut th = OmpThread::new_smp(t, team, local_tid);
                    body(&mut th);
                });
            });
        }
    }

    /// `!$omp parallel do`: fork a region executing `body(i)` for every
    /// `i` in `range` under the given schedule, with the implicit
    /// end-of-loop barrier.
    pub fn parallel_for(
        &mut self,
        sched: Schedule,
        range: Range<usize>,
        body: impl Fn(&mut OmpThread<'_>, usize) + Send + Sync + 'static,
    ) {
        self.parallel_for_chunks(sched, range, move |th, r| {
            for i in r {
                body(th, i);
            }
        });
    }

    /// Chunk-granularity `parallel do`: `body` receives whole iteration
    /// ranges, letting applications use bulk shared-memory views per chunk
    /// (the idiomatic pattern on a page-based DSM).
    pub fn parallel_for_chunks(
        &mut self,
        sched: Schedule,
        range: Range<usize>,
        body: impl Fn(&mut OmpThread<'_>, Range<usize>) + Send + Sync + 'static,
    ) {
        let plan = self.plan_loop(sched, range);
        let body = Arc::new(body);
        self.parallel(move |th| {
            plan.run(th, &mut |th: &mut OmpThread<'_>, r: Range<usize>| {
                body(th, r)
            });
        });
    }

    fn loop_shared_for(&mut self, sched: Schedule) -> Option<LoopShared> {
        match sched {
            Schedule::Dynamic(_) | Schedule::Guided(_) => {
                let counter = self.t.malloc_scalar::<u64>(0);
                let lock = self.next_runtime_lock();
                Some(LoopShared::Counter { counter, lock })
            }
            Schedule::Adaptive(_) => {
                // `[next, rate per node…]` — rates ride the page the
                // claim already holds, so publishing them is free.
                let n = self.t.nprocs();
                let state = self.t.malloc_vec::<u64>(1 + n);
                let lock = self.next_runtime_lock();
                Some(LoopShared::Adaptive { state, lock })
            }
            Schedule::Affinity => {
                // One page-disjoint `[init, next, end]` descriptor per
                // node (the allocator never shares pages across regions),
                // each under a lock managed by its home node.
                let n = self.t.nprocs();
                let parts = (0..n)
                    .map(|_| self.t.malloc_vec::<u64>(crate::forloop::AFF_WORDS))
                    .collect();
                self.loop_seq = self.loop_seq.wrapping_add(1);
                let site = self.loop_seq & 0x3ff;
                Some(LoopShared::Affinity { parts, site })
            }
            _ => None,
        }
    }

    /// `!$omp parallel do reduction(op:acc)`: every thread reduces into a
    /// private accumulator seeded with the identity. Each node's partial
    /// rides its join-barrier arrival ([`Tmk::contribute`]), and after
    /// the join the master folds them in node order,
    /// `identity ⊕ p₀ ⊕ … ⊕ pₙ₋₁`: what a lock chain granted in node
    /// order would compute, with no lock and no shared page. Returns the
    /// reduced value.
    ///
    /// **Two-level** on SMP topologies: the team first folds its threads'
    /// values in node shared memory (message-free, in `local_tid` order),
    /// so each node contributes one partial.
    pub fn parallel_reduce<T: Reduce>(
        &mut self,
        sched: Schedule,
        range: Range<usize>,
        op: RedOp,
        body: impl Fn(&mut OmpThread<'_>, usize, &mut T) + Send + Sync + 'static,
    ) -> T {
        let site = self.next_runtime_lock();
        let plan = self.plan_loop(sched, range);
        let body = Arc::new(body);
        self.parallel(move |th| {
            let mut local = T::identity(op);
            plan.run(th, &mut |th: &mut OmpThread<'_>, r: Range<usize>| {
                for i in r {
                    body(th, i, &mut local);
                }
            });
            if let Some(total) = th.reduce_combine(site, local, move |a, b| T::combine(op, a, b)) {
                th.contribute(site, &[total]);
            }
        });
        let partials = self.t.take_partials::<T>(site);
        partials
            .iter()
            .fold(T::identity(op), |acc, p| T::combine(op, acc, p[0]))
    }

    /// Array reduction (`reduction` extended to arrays — the paper's
    /// extension of the standard): each thread gets a private slice seeded
    /// with the identity; the slices are folded element-wise, on the node
    /// and then by the master in node order, as
    /// [`Env::parallel_reduce`] folds scalars.
    pub fn parallel_reduce_vec<T: Reduce>(
        &mut self,
        len: usize,
        op: RedOp,
        body: impl Fn(&mut OmpThread<'_>, &mut [T]) + Send + Sync + 'static,
    ) -> Vec<T> {
        assert!(len > 0, "array reduction over empty array");
        let site = self.next_runtime_lock();
        let fold = move |mut a: Vec<T>, b: Vec<T>| {
            for (x, y) in a.iter_mut().zip(b) {
                *x = T::combine(op, *x, y);
            }
            a
        };
        self.parallel(move |th| {
            let mut local = vec![T::identity(op); len];
            body(th, &mut local);
            if let Some(total) = th.reduce_combine(site, local, fold) {
                th.contribute(site, &total);
            }
        });
        let partials = self.t.take_partials::<T>(site);
        partials.into_iter().fold(vec![T::identity(op); len], fold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OmpConfig;

    #[test]
    fn parallel_runs_on_every_thread() {
        let out = run(OmpConfig::fast_test(3), |omp| {
            let v = omp.malloc_vec::<u64>(3);
            omp.parallel(move |t| {
                let me = t.thread_num();
                t.write(&v, me, me as u64 + 1);
            });
            omp.read_slice(&v, 0..3)
        });
        assert_eq!(out.result, vec![1, 2, 3]);
    }

    #[test]
    fn firstprivate_via_capture() {
        // A by-value capture plays the role of a firstprivate variable:
        // same initial value on every thread, privately mutable.
        let out = run(OmpConfig::fast_test(2), |omp| {
            let seed = 17u64; // "firstprivate"
            let v = omp.malloc_vec::<u64>(2);
            omp.parallel(move |t| {
                let mut x = seed; // private copy initialized from master
                x += t.thread_num() as u64;
                let me = t.thread_num();
                t.write(&v, me, x);
            });
            omp.read_slice(&v, 0..2)
        });
        assert_eq!(out.result, vec![17, 18]);
    }

    #[test]
    fn scalar_reduction_sum() {
        let out = run(OmpConfig::fast_test(4), |omp| {
            omp.parallel_reduce(
                Schedule::Static,
                0..1000,
                RedOp::Sum,
                |_t, i, acc: &mut u64| {
                    *acc += i as u64;
                },
            )
        });
        assert_eq!(out.result, 499_500);
    }

    #[test]
    fn scalar_reduction_max_dynamic_schedule() {
        let out = run(OmpConfig::fast_test(3), |omp| {
            omp.parallel_reduce(
                Schedule::Dynamic(8),
                0..100,
                RedOp::Max,
                |_t, i, acc: &mut i64| {
                    let val = ((i as i64) * 37) % 91;
                    *acc = (*acc).max(val);
                },
            )
        });
        let expect = (0..100i64).map(|i| (i * 37) % 91).max().unwrap();
        assert_eq!(out.result, expect);
    }

    #[test]
    fn array_reduction() {
        let out = run(OmpConfig::fast_test(3), |omp| {
            omp.parallel_reduce_vec(4, RedOp::Sum, |t, acc: &mut [u64]| {
                // Every thread contributes its id+1 to every slot.
                let c = t.thread_num() as u64 + 1;
                for a in acc.iter_mut() {
                    *a += c;
                }
            })
        });
        assert_eq!(out.result, vec![6, 6, 6, 6]); // 1+2+3
    }

    #[test]
    fn master_and_single() {
        let out = run(OmpConfig::fast_test(3), |omp| {
            let v = omp.malloc_vec::<u64>(2);
            omp.parallel(move |t| {
                t.master(|t| t.write(&v, 0, 7));
                t.single(|t| t.write(&v, 1, 9));
                // After single's barrier everyone sees the value.
                assert_eq!(t.read(&v, 1), 9);
            });
            omp.read_slice(&v, 0..2)
        });
        assert_eq!(out.result, vec![7, 9]);
    }

    #[test]
    fn wtime_is_monotone_virtual_seconds() {
        let out = run(OmpConfig::paper(2), |omp| {
            let t0 = omp.wtime();
            let v = omp.malloc_vec::<u64>(64);
            omp.parallel(move |t| {
                let w = t.wtime();
                assert!(w >= 0.0);
                let me = t.thread_num();
                t.write(&v, me, me as u64);
            });
            let t1 = omp.wtime();
            (t0, t1)
        });
        let (t0, t1) = out.result;
        // Fork + barrier traffic must advance the virtual clock, and the
        // final reading agrees with the run's reported virtual time.
        assert!(t1 > t0, "wtime must advance across a region ({t0} -> {t1})");
        assert!(t1 <= out.vt_ns as f64 / 1e9 + 1e-9);
    }

    #[test]
    fn critical_named_mutual_exclusion() {
        let out = run(OmpConfig::fast_test(4), |omp| {
            let c = omp.malloc_scalar::<u64>(0);
            omp.parallel(move |t| {
                for _ in 0..10 {
                    t.critical_named("ctr", |t| {
                        let v = c.get(t);
                        c.set(t, v + 1);
                    });
                }
            });
            c.get(omp)
        });
        assert_eq!(out.result, 40);
    }
}

//! The per-thread context inside a parallel region.
//!
//! On the paper's platform every OpenMP thread is one workstation. In
//! SMP-cluster mode a thread is one of `threads_per_node` local threads
//! of a workstation: the context then carries the node's [`smp::Team`]
//! and the runtime's synchronization constructs become **two-level** —
//! a local sense-reversing barrier with one representative per node
//! entering the DSM barrier, hierarchical critical sections (a node-local
//! gate in front of the global lock), and combine cells that publish one
//! DSM reduction contribution per node.

use smp::{Arrival, Team};
use std::ops::{Deref, DerefMut};
use tmk::Tmk;

/// Reserved lock-id range for named critical sections and runtime
/// internals; application locks should use small ids.
pub(crate) const NAMED_CRITICAL_BASE: u32 = 0x8000_0000;
pub(crate) const RUNTIME_LOCK_BASE: u32 = 0xF000_0000;

/// Map an OpenMP `critical` section name to a lock id (FNV-1a).
pub fn critical_id(name: &str) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in name.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    NAMED_CRITICAL_BASE | (h & 0x3fff_ffff)
}

/// One node's SMP execution context: the team plus this thread's place
/// in it. Absent on the paper's `n × 1` topology.
#[derive(Clone, Copy)]
pub(crate) struct SmpCtx<'t> {
    pub(crate) team: &'t Team,
    pub(crate) local_tid: usize,
    pub(crate) tpn: usize,
}

/// Execution context of one OpenMP thread: a whole workstation on the
/// paper's platform, or one of `threads_per_node` local threads of an
/// SMP workstation. Dereferences to the underlying [`Tmk`] handle, so
/// all shared memory operations (`read`, `write`, `view_mut`, …) are
/// available directly; synchronization constructs (`barrier`,
/// `critical`, `single`) are two-level on SMP topologies.
pub struct OmpThread<'t> {
    pub(crate) t: &'t mut Tmk,
    pub(crate) smp: Option<SmpCtx<'t>>,
}

impl Deref for OmpThread<'_> {
    type Target = Tmk;
    fn deref(&self) -> &Tmk {
        self.t
    }
}
impl DerefMut for OmpThread<'_> {
    fn deref_mut(&mut self) -> &mut Tmk {
        self.t
    }
}

impl<'t> OmpThread<'t> {
    pub(crate) fn new(t: &'t mut Tmk) -> Self {
        OmpThread { t, smp: None }
    }

    pub(crate) fn new_smp(t: &'t mut Tmk, team: &'t Team, local_tid: usize) -> Self {
        let tpn = team.tpn();
        OmpThread {
            t,
            smp: Some(SmpCtx {
                team,
                local_tid,
                tpn,
            }),
        }
    }

    /// This node's SMP team, if running on a `threads_per_node > 1`
    /// topology. The returned reference outlives `self` (it lives for
    /// the whole region), so callers can hold it across further mutable
    /// uses of the thread context.
    pub(crate) fn smp_team(&self) -> Option<(&'t Team, usize)> {
        self.smp.as_ref().map(|c| (c.team, c.tpn))
    }

    /// `omp_get_thread_num()`: the global thread id,
    /// `node_id * threads_per_node + local_tid`.
    #[inline]
    pub fn thread_num(&self) -> usize {
        match &self.smp {
            Some(c) => self.t.proc_id() * c.tpn + c.local_tid,
            None => self.t.proc_id(),
        }
    }

    /// `omp_get_num_threads()`: `nodes × threads_per_node`.
    #[inline]
    pub fn num_threads(&self) -> usize {
        match &self.smp {
            Some(c) => self.t.nprocs() * c.tpn,
            None => self.t.nprocs(),
        }
    }

    /// The workstation this thread runs on.
    #[inline]
    pub fn node_id(&self) -> usize {
        self.t.proc_id()
    }

    /// This thread's index within its workstation (0 on `n × 1`).
    #[inline]
    pub fn local_tid(&self) -> usize {
        self.smp.as_ref().map_or(0, |c| c.local_tid)
    }

    /// Application threads per workstation.
    #[inline]
    pub fn threads_per_node(&self) -> usize {
        self.smp.as_ref().map_or(1, |c| c.tpn)
    }

    /// `omp_get_wtime()`: this thread's virtual clock in seconds —
    /// elapsed modeled time on the simulated network, not host time.
    pub fn wtime(&mut self) -> f64 {
        self.t.now_ns() as f64 / 1e9
    }

    /// `!$omp barrier` — **two-level** on SMP topologies: all local
    /// threads meet at the node's sense-reversing barrier (combining
    /// their virtual-time lanes), one representative per node enters the
    /// DSM barrier, and the team departs at the representative's
    /// post-barrier frontier. DSM barrier traffic is therefore paid once
    /// per *node*, not once per thread; on a single node it costs zero
    /// remote messages.
    pub fn barrier(&mut self) {
        let Some(ctx) = self.smp else {
            self.t.barrier();
            return;
        };
        let my_vt = self.t.now_ns();
        self.t.metrics().local_barriers.inc();
        match ctx.team.gather(ctx.local_tid, my_vt) {
            Arrival::Representative(combined) => {
                self.t
                    .trace_span(tmk::EventKind::LocalBarrier, my_vt, combined, 0, 0);
                self.t.lane_raise(combined);
                self.t.lane_advance(ctx.team.cfg().local_barrier_ns);
                self.t.barrier();
                let depart = self.t.now_ns();
                ctx.team.release(depart);
            }
            Arrival::Departed(depart) => {
                // The wait for the representative's release is local
                // barrier time on this thread's track.
                self.t
                    .trace_span(tmk::EventKind::LocalBarrier, my_vt, depart, 0, 0);
                self.t.lane_raise(depart);
            }
        }
    }

    /// Enter `!$omp critical` for `lock` without the closure sugar. On
    /// SMP topologies this is hierarchical: the node's (re-entrant)
    /// operation gate is held for the whole section — one in-flight
    /// critical section per node — so a node never holds a DSM lock
    /// while a sibling blocks the protocol engine on another acquire
    /// (the DSM protocol also forbids a process acquiring a lock it
    /// already holds). Then the global lock is taken.
    ///
    /// The returned guard frees the gate on drop — also on unwind, so a
    /// panic inside the section cannot wedge the node's siblings. Hold
    /// it until after [`OmpThread::exit_critical`].
    pub fn enter_critical(&mut self, lock: u32) -> tmk::NodeTransaction {
        if let Some(ctx) = self.smp {
            self.t.lane_advance(ctx.team.cfg().local_lock_ns);
        }
        let txn = self.t.node_transaction();
        self.t.lock_acquire(lock);
        txn
    }

    /// Leave `!$omp critical` for `lock` (then drop the guard from
    /// [`OmpThread::enter_critical`]).
    pub fn exit_critical(&mut self, lock: u32) {
        self.t.lock_release(lock);
    }

    /// `!$omp critical` with an explicit lock id.
    pub fn critical<R>(&mut self, lock: u32, f: impl FnOnce(&mut Self) -> R) -> R {
        let txn = self.enter_critical(lock);
        let r = f(self);
        self.exit_critical(lock);
        drop(txn);
        r
    }

    /// `!$omp critical (name)`.
    pub fn critical_named<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.critical(critical_id(name), f)
    }

    /// Two-level reduction combine for site `key`: hold `local` in the
    /// node's combine cell; exactly one thread per node receives the node
    /// total (`Some`), folded in `local_tid` order, and publishes the
    /// single DSM contribution — the callers with `None` proceed
    /// immediately. On `n × 1` every thread is its node's publisher.
    pub fn reduce_combine<T: Send + 'static>(
        &mut self,
        key: u32,
        local: T,
        fold: impl FnMut(T, T) -> T,
    ) -> Option<T> {
        match self.smp {
            None => Some(local),
            Some(ctx) => {
                self.t.lane_advance(ctx.team.cfg().local_lock_ns);
                ctx.team.combine(key, ctx.local_tid, local, fold)
            }
        }
    }

    /// `!$omp master`: run `f` on thread 0 only (no implied barrier).
    pub fn master<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> Option<R> {
        (self.thread_num() == 0).then(|| f(self))
    }

    /// `!$omp single` (master-executes variant): thread 0 runs `f`, then
    /// everyone synchronizes at the implied (two-level) barrier, so all
    /// threads see the single section's updates.
    pub fn single(&mut self, f: impl FnOnce(&mut Self)) {
        if self.thread_num() == 0 {
            f(self);
        }
        self.barrier();
    }

    /// `cond_wait(id)` inside the critical section `lock` — the paper's
    /// proposed directive (§3.2.3): atomically releases the critical
    /// section, blocks until signaled, re-enters before returning.
    ///
    /// # Panics
    ///
    /// On SMP topologies (`threads_per_node > 1`): a parked waiter holds
    /// the node's protocol gate, so a sibling thread signaling it (or
    /// doing any DSM operation) would deadlock the node. The paper's
    /// condition-variable directive is an `n × 1` feature.
    pub fn cond_wait(&mut self, lock: u32, cond: u32) {
        assert!(
            self.smp.is_none(),
            "cond_wait is not supported inside SMP teams (threads_per_node > 1): \
             a parked waiter holds the node's protocol gate and would deadlock \
             its sibling threads"
        );
        self.t.cond_wait(lock, cond);
    }

    /// `cond_signal(id)`: wake one waiter (no-op when none).
    pub fn cond_signal(&mut self, lock: u32, cond: u32) {
        self.t.cond_signal(lock, cond);
    }

    /// `cond_broadcast(id)`: wake all waiters.
    pub fn cond_broadcast(&mut self, lock: u32, cond: u32) {
        self.t.cond_broadcast(lock, cond);
    }

    /// `sema_wait(S)` — the paper's proposed directive (§3.2.3).
    ///
    /// # Panics
    ///
    /// On SMP topologies, for the same reason as [`OmpThread::cond_wait`]:
    /// a blocked waiter holds the node's protocol gate and any sibling
    /// DSM access — including the matching `sema_signal` — would
    /// deadlock the node.
    pub fn sema_wait(&mut self, sema: u32) {
        assert!(
            self.smp.is_none(),
            "sema_wait is not supported inside SMP teams (threads_per_node > 1): \
             a blocked waiter holds the node's protocol gate and would deadlock \
             its sibling threads"
        );
        self.t.sema_wait(sema);
    }

    /// `sema_signal(S)` — the paper's proposed directive (§3.2.3).
    /// Non-blocking apart from the manager acknowledgment; paired with
    /// [`OmpThread::sema_wait`], which is an `n × 1` feature.
    pub fn sema_signal(&mut self, sema: u32) {
        self.t.sema_signal(sema);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_ids_are_in_reserved_range_and_stable() {
        let a = critical_id("queue");
        let b = critical_id("queue");
        let c = critical_id("other");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a >= NAMED_CRITICAL_BASE);
        assert!(c >= NAMED_CRITICAL_BASE);
    }
}

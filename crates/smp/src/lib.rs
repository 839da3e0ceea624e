//! # smp — SMP-cluster execution: multi-threaded workstations
//!
//! The SC'98 paper runs **one** OpenMP thread per uniprocessor
//! workstation, so every barrier, reduction and chunk grab pays DSM
//! protocol traffic. The dominant follow-on platform is the *SMP
//! cluster*: each node hosts several processors sharing hardware-coherent
//! memory, and hybrid designs (MPI+OpenMP, two-level runtimes such as
//! Cashmere-2L) move synchronization on-node to slash inter-node
//! messages.
//!
//! This crate is the node-level half of that design for the NOW
//! simulator:
//!
//! * [`run_team`] turns one node's parallel-region entry into a *team* of
//!   `threads_per_node` host threads sharing the node's single [`Tmk`]
//!   DSM process ([`Tmk::smp_fork`] handles: shared pages, twins, diffs —
//!   intra-node accesses are message-free).
//! * [`Team`] provides the intra-node synchronization the two-level
//!   runtime in `nomp` is built from: a sense-reversing local barrier
//!   that combines the threads' virtual-time lanes, per-site combine
//!   cells for reductions (one DSM contribution per node), per-site
//!   chunk buffers for node-level loop scheduling, and the idle/wake
//!   bookkeeping hierarchical task scheduling needs. (Serializing a
//!   node's threads on the DSM protocol itself — including whole lock
//!   tenures — is the re-entrant node gate inside `tmk`, see
//!   `Tmk::node_transaction`.)
//! * [`SmpConfig`] is the small intra-node cost model: everything is
//!   charged against the threads' lanes on the node's `VirtualClock`,
//!   never the wire.
//!
//! Time model: each local thread's compute advances its own
//! [`now_net::ThreadLane`]; only protocol operations serialize on the
//! node clock (one NIC). A region on a `nodes × threads_per_node`
//! topology therefore gets genuine intra-node parallelism in virtual
//! time while the DSM message counts reflect one protocol endpoint per
//! node.

#![warn(missing_docs)]

use crossbeam::utils::Backoff;
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use tmk::Tmk;

/// Intra-node cost model and team size for one SMP workstation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmpConfig {
    /// Application threads per workstation (1 = the paper's platform).
    pub threads_per_node: usize,
    /// Modeled cost of one local sense-reversing barrier episode.
    pub local_barrier_ns: u64,
    /// Modeled cost of one local lock/combine-cell tenure.
    pub local_lock_ns: u64,
    /// Modeled cost of spawning one local thread at region entry.
    pub fork_thread_ns: u64,
}

impl SmpConfig {
    /// Paper-era SMP costs (µs-scale shared-memory synchronization on a
    /// quad Pentium Pro — three orders of magnitude below the DSM's
    /// network costs).
    pub fn paper(threads_per_node: usize) -> Self {
        SmpConfig {
            threads_per_node,
            local_barrier_ns: 4_000,
            local_lock_ns: 1_000,
            fork_thread_ns: 25_000,
        }
    }

    /// Near-zero-cost variant for functional tests.
    pub fn fast_test(threads_per_node: usize) -> Self {
        SmpConfig {
            threads_per_node,
            local_barrier_ns: 20,
            local_lock_ns: 5,
            fork_thread_ns: 10,
        }
    }
}

// ----------------------------------------------------------------------
// Team
// ----------------------------------------------------------------------

#[derive(Default)]
struct BarState {
    arrived: usize,
    max_vt: u64,
    gen: u64,
    depart_vt: u64,
}

#[derive(Default)]
struct ParkState {
    /// Local threads counted idle: the parked ones not yet handed a wake,
    /// and the agent.
    idle: usize,
    /// Tickets handed to parking threads, in parking order.
    parked: u64,
    /// Tickets below this were handed a wake. A wake takes its thread out
    /// of `idle` at once, so a sibling that goes idle before the woken
    /// thread runs cannot count it idle and become a second agent, and a
    /// thread that parks later cannot take the wake in its place.
    woken: u64,
    gen: u64,
    done: bool,
}

/// Shared handle to one loop site's node-level chunk buffer (as handed
/// out by [`Team::loop_site`]; cacheable across `next_chunk` calls).
pub type SharedChunkBuf = Arc<Mutex<ChunkBuf>>;

/// Node-level buffer of one work-shared loop's iterations: the node
/// grabs chunks from the DSM counter at node granularity and local
/// threads subdivide them here, message-free.
#[derive(Debug, Default, Clone, Copy)]
pub struct ChunkBuf {
    /// First iteration still buffered on this node.
    pub lo: usize,
    /// One past the last buffered iteration.
    pub hi: usize,
    /// Per-local-thread take size for the current node chunk.
    pub take: usize,
    /// Adaptive scheduling: virtual instant of the node's previous
    /// DSM-level claim (the refill turns it into an observed rate).
    pub claim_vt: u64,
    /// Adaptive scheduling: length of the node's previous claim.
    pub claim_len: u64,
}

/// A combine cell: how many local threads have arrived, and their
/// values by `local_tid` (a `Vec<Option<T>>`).
type Cell = (usize, Box<dyn Any + Send>);

/// Outcome of the local barrier's gather phase.
pub enum Arrival {
    /// This thread is the node's representative: all local threads have
    /// arrived and their combined (maximum) frontier is enclosed. The
    /// representative performs the node-level work (e.g. the DSM
    /// barrier) and then calls [`Team::release`].
    Representative(u64),
    /// A non-representative thread: the representative has released the
    /// episode; the enclosed value is the departure frontier to adopt.
    Departed(u64),
}

/// Outcome of a task worker going locally idle (see [`Team::task_enter_idle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleOutcome {
    /// Every local thread is idle: the caller becomes the node's agent
    /// in the cluster-level termination protocol.
    Agent,
    /// A local push (or wake) raced the caller's empty sweep — hunt again.
    Retry,
    /// The scope terminated while the caller was parked.
    Done,
}

/// Shared intra-node state of one SMP team (one per node per region).
pub struct Team {
    cfg: SmpConfig,
    bar: StdMutex<BarState>,
    bar_cv: Condvar,
    cells: Mutex<HashMap<u32, Cell>>,
    sites: Mutex<HashMap<u32, Arc<Mutex<ChunkBuf>>>>,
    park: StdMutex<ParkState>,
    park_cv: Condvar,
    finals: Mutex<u64>,
    poisoned: AtomicBool,
}

impl Team {
    /// A fresh team for `cfg.threads_per_node` local threads.
    pub fn new(cfg: SmpConfig) -> Self {
        assert!(cfg.threads_per_node >= 1, "team needs at least one thread");
        Team {
            cfg,
            bar: StdMutex::new(BarState::default()),
            bar_cv: Condvar::new(),
            cells: Mutex::new(HashMap::new()),
            sites: Mutex::new(HashMap::new()),
            park: StdMutex::new(ParkState::default()),
            park_cv: Condvar::new(),
            finals: Mutex::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// The cost model this team was built with.
    pub fn cfg(&self) -> &SmpConfig {
        &self.cfg
    }

    /// Local threads on this node.
    pub fn tpn(&self) -> usize {
        self.cfg.threads_per_node
    }

    /// Mark the team dead after a sibling panic, waking every waiter so
    /// the panic propagates instead of deadlocking the node.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        {
            let _g = self.bar.lock().unwrap_or_else(|e| e.into_inner());
            self.bar_cv.notify_all();
        }
        {
            let mut p = self.park.lock().unwrap_or_else(|e| e.into_inner());
            p.done = true;
            self.park_cv.notify_all();
        }
    }

    fn check_poison(&self) {
        if self.poisoned.load(Ordering::SeqCst) {
            panic!("SMP team poisoned by a sibling thread panic");
        }
    }

    // ------------------------------------------------------------------
    // Local sense-reversing barrier (virtual-time combining)
    // ------------------------------------------------------------------

    /// Gather phase of the two-level barrier: every local thread arrives
    /// with its lane frontier. `local_tid` 0 is the representative — it
    /// returns once all threads have arrived, with the combined maximum
    /// frontier, performs the node-level step, then calls
    /// [`Team::release`]. Everyone else blocks until the release and
    /// returns the departure frontier.
    pub fn gather(&self, local_tid: usize, my_vt: u64) -> Arrival {
        self.check_poison();
        let mut st = self.bar.lock().unwrap_or_else(|e| e.into_inner());
        st.max_vt = st.max_vt.max(my_vt);
        st.arrived += 1;
        self.bar_cv.notify_all();
        if local_tid == 0 {
            let backoff = Backoff::new();
            while st.arrived < self.cfg.threads_per_node {
                self.check_poison();
                st = backoff.snooze_or_wait(&self.bar, &self.bar_cv, st, None);
            }
            Arrival::Representative(st.max_vt)
        } else {
            let gen = st.gen;
            let backoff = Backoff::new();
            while st.gen == gen {
                self.check_poison();
                st = backoff.snooze_or_wait(&self.bar, &self.bar_cv, st, None);
            }
            Arrival::Departed(st.depart_vt)
        }
    }

    /// Release phase: the representative publishes the departure frontier
    /// (its lane after the node-level step) and wakes the episode.
    pub fn release(&self, depart_vt: u64) {
        let mut st = self.bar.lock().unwrap_or_else(|e| e.into_inner());
        st.depart_vt = depart_vt;
        st.arrived = 0;
        st.max_vt = 0;
        st.gen = st.gen.wrapping_add(1);
        self.bar_cv.notify_all();
    }

    // ------------------------------------------------------------------
    // Combine cells (two-level reductions)
    // ------------------------------------------------------------------

    /// Hold local thread `local_tid`'s `val` in the node's combine cell
    /// for reduction site `key`. The `threads_per_node`-th arriver
    /// receives the node total, folded in `local_tid` order whatever
    /// order the threads arrived in (and the cell resets for reuse):
    /// exactly one thread per node publishes one DSM contribution,
    /// everyone else proceeds immediately.
    pub fn combine<T: Send + 'static>(
        &self,
        key: u32,
        local_tid: usize,
        val: T,
        fold: impl FnMut(T, T) -> T,
    ) -> Option<T> {
        self.check_poison();
        let tpn = self.cfg.threads_per_node;
        let mut m = self.cells.lock();
        let cell = m.entry(key).or_insert_with(|| {
            let vals: Vec<Option<T>> = (0..tpn).map(|_| None).collect();
            (0, Box::new(vals))
        });
        let vals = cell
            .1
            .downcast_mut::<Vec<Option<T>>>()
            .expect("combine cell type mismatch at one reduction site");
        let prev = vals[local_tid].replace(val);
        assert!(
            prev.is_none(),
            "local thread {local_tid} combined twice at site {key}"
        );
        cell.0 += 1;
        if cell.0 < tpn {
            return None;
        }
        let (_, vals) = m.remove(&key).expect("the cell is there");
        let vals = vals.downcast::<Vec<Option<T>>>().expect("checked above");
        vals.into_iter()
            .map(|v| v.expect("every thread arrived"))
            .reduce(fold)
    }

    // ------------------------------------------------------------------
    // Loop chunk buffers (node-level scheduling)
    // ------------------------------------------------------------------

    /// The node-level chunk buffer of work-shared-loop site `key`
    /// (created empty on first use).
    pub fn loop_site(&self, key: u32) -> SharedChunkBuf {
        self.sites
            .lock()
            .entry(key)
            .or_insert_with(|| Arc::new(Mutex::new(ChunkBuf::default())))
            .clone()
    }

    // ------------------------------------------------------------------
    // Task idle/wake bookkeeping (hierarchical task scheduling)
    // ------------------------------------------------------------------

    /// Sample the local wake generation. Take this *before* sweeping the
    /// deques: a push that lands after the sweep bumps the generation,
    /// and [`Team::task_enter_idle`] turns the stale sample into a retry.
    pub fn task_gen(&self) -> u64 {
        self.park.lock().unwrap_or_else(|e| e.into_inner()).gen
    }

    /// Signal local work: bump the generation and wake the longest-parked
    /// local thread, if any (called after a local task push, or by the
    /// node agent when a remote steal brought back more work than one
    /// thread's worth).
    pub fn task_wake(&self) {
        let mut p = self.park.lock().unwrap_or_else(|e| e.into_inner());
        p.gen = p.gen.wrapping_add(1);
        if p.woken < p.parked {
            p.woken += 1;
            p.idle -= 1;
            // Every waiter re-checks its ticket; only the woken one leaves.
            self.park_cv.notify_all();
        }
    }

    /// Whether any local thread is currently idle (parked or agent).
    pub fn task_has_idle(&self) -> bool {
        self.park.lock().unwrap_or_else(|e| e.into_inner()).idle > 0
    }

    /// A worker found no work anywhere (its sweep started at generation
    /// `gen0`): go locally idle. The last thread to idle becomes the
    /// node's **agent** in the cluster-level termination protocol and stays
    /// counted; other threads park on the host condvar until a wake or
    /// scope termination.
    pub fn task_enter_idle(&self, gen0: u64) -> IdleOutcome {
        self.check_poison();
        let mut p = self.park.lock().unwrap_or_else(|e| e.into_inner());
        if p.done {
            return IdleOutcome::Done;
        }
        if p.gen != gen0 {
            return IdleOutcome::Retry;
        }
        p.idle += 1;
        if p.idle == self.cfg.threads_per_node {
            return IdleOutcome::Agent;
        }
        let ticket = p.parked;
        p.parked += 1;
        let backoff = Backoff::new();
        while !p.done && ticket >= p.woken {
            self.check_poison();
            p = backoff.snooze_or_wait(&self.park, &self.park_cv, p, None);
        }
        if p.done {
            return IdleOutcome::Done;
        }
        IdleOutcome::Retry
    }

    /// The agent found work and returns to it: leave the idle set.
    pub fn task_leave_idle(&self) {
        let mut p = self.park.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(p.idle > 0, "task_leave_idle without task_enter_idle");
        p.idle -= 1;
    }

    /// The agent observed global termination: release every parked local
    /// thread for good.
    pub fn task_done(&self) {
        let mut p = self.park.lock().unwrap_or_else(|e| e.into_inner());
        p.done = true;
        self.park_cv.notify_all();
    }

    // ------------------------------------------------------------------
    // Final frontiers
    // ------------------------------------------------------------------

    /// Record one thread's final lane frontier at team teardown.
    pub fn report_final(&self, vt: u64) {
        let mut f = self.finals.lock();
        *f = (*f).max(vt);
    }

    /// The slowest thread's final frontier (the node's region end time).
    pub fn final_frontier(&self) -> u64 {
        *self.finals.lock()
    }
}

// ----------------------------------------------------------------------
// Team entry
// ----------------------------------------------------------------------

/// Multi-threaded process entry for one node's parallel region: spawn
/// `cfg.threads_per_node - 1` sibling threads sharing `t`'s DSM process
/// and run `f(handle, team, local_tid)` on every local thread (the
/// caller is local thread 0). Returns after all local threads finish,
/// with the node clock raised to the slowest thread's frontier — the
/// caller then runs the node's share of the region join (e.g. the DSM
/// barrier) at the correct instant.
pub fn run_team(t: &mut Tmk, cfg: SmpConfig, f: impl Fn(&mut Tmk, &Team, usize) + Sync) {
    let tpn = cfg.threads_per_node;
    let team = Team::new(cfg);
    if tpn == 1 {
        // Degenerate team: no lanes, no gate, no extra threads.
        f(t, &team, 0);
        return;
    }
    t.smp_enter();
    t.metrics().team_forks.inc();
    let fork_t0 = t.trace_now();
    t.lane_advance(cfg.fork_thread_ns * (tpn as u64 - 1));
    t.trace_span(
        tmk::EventKind::TeamFork,
        fork_t0,
        t.trace_now(),
        tpn as u64,
        0,
    );
    let siblings: Vec<Tmk> = (1..tpn).map(|_| t.smp_fork()).collect();
    std::thread::scope(|s| {
        for (i, mut st) in siblings.into_iter().enumerate() {
            let team = &team;
            let f = &f;
            s.spawn(move || {
                st.rearm_meter();
                let r = catch_unwind(AssertUnwindSafe(|| f(&mut st, team, i + 1)));
                match r {
                    Ok(()) => team.report_final(st.smp_finish()),
                    Err(e) => {
                        team.poison();
                        resume_unwind(e);
                    }
                }
            });
        }
        // Host-side thread-spawn CPU is a simulation artifact — its
        // modeled cost is the fork_thread_ns charge above. Re-arm so it
        // is not billed as application compute.
        t.rearm_meter();
        let r = catch_unwind(AssertUnwindSafe(|| f(t, &team, 0)));
        if let Err(e) = r {
            team.poison();
            resume_unwind(e);
        }
    });
    team.report_final(t.smp_finish());
    t.smp_absorb(team.final_frontier());
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmk::{run_system, TmkConfig};

    #[test]
    fn team_barrier_combines_frontiers() {
        let team = Team::new(SmpConfig::fast_test(3));
        let team = Arc::new(team);
        let mut hs = Vec::new();
        for lt in 1..3usize {
            let team = team.clone();
            hs.push(std::thread::spawn(move || {
                match team.gather(lt, 100 * lt as u64) {
                    Arrival::Departed(vt) => vt,
                    Arrival::Representative(_) => panic!("non-zero tid became rep"),
                }
            }));
        }
        let combined = match team.gather(0, 50) {
            Arrival::Representative(vt) => vt,
            Arrival::Departed(_) => panic!("tid 0 must be the representative"),
        };
        assert_eq!(combined, 200, "max of 50, 100, 200");
        team.release(combined + 7);
        for h in hs {
            assert_eq!(h.join().unwrap(), 207);
        }
    }

    #[test]
    fn combine_cell_hands_total_to_last_arriver() {
        let team = Team::new(SmpConfig::fast_test(3));
        assert_eq!(team.combine(9, 1, 10u64, |a, b| a + b), None);
        assert_eq!(team.combine(9, 0, 20u64, |a, b| a + b), None);
        assert_eq!(team.combine(9, 2, 12u64, |a, b| a + b), Some(42));
        // The cell reset: a second reduction at the same site works.
        assert_eq!(team.combine(9, 2, 1u64, |a, b| a + b), None);
        assert_eq!(team.combine(9, 0, 2u64, |a, b| a + b), None);
        assert_eq!(team.combine(9, 1, 3u64, |a, b| a + b), Some(6));
    }

    #[test]
    fn combine_folds_in_local_tid_order_whatever_the_arrival_order() {
        let team = Team::new(SmpConfig::fast_test(3));
        let fold = |a: Vec<usize>, b: Vec<usize>| [a, b].concat();
        for order in [[0, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let mut total = None;
            for tid in order {
                total = team.combine(4, tid, vec![tid], fold);
            }
            assert_eq!(total, Some(vec![0, 1, 2]), "arrival order {order:?}");
        }
    }

    #[test]
    fn idle_last_thread_becomes_agent() {
        let team = Team::new(SmpConfig::fast_test(2));
        let g = team.task_gen();
        // A push after the sweep sample forces a retry.
        team.task_wake();
        assert_eq!(team.task_enter_idle(g), IdleOutcome::Retry);
        // Clean sweeps: first idler parks (exercised cross-thread below),
        // the last becomes the agent.
        let team = Arc::new(team);
        let t2 = team.clone();
        let sleeper = std::thread::spawn(move || {
            let g = t2.task_gen();
            t2.task_enter_idle(g)
        });
        // Wait until the sleeper is parked.
        while !team.task_has_idle() {
            std::thread::yield_now();
        }
        let g = team.task_gen();
        assert_eq!(team.task_enter_idle(g), IdleOutcome::Agent);
        team.task_done();
        assert_eq!(sleeper.join().unwrap(), IdleOutcome::Done);
    }

    #[test]
    fn a_woken_thread_is_not_counted_idle_before_it_runs() {
        // Two local threads. The sibling parks and a push wakes it; this
        // thread then goes idle at once, likely before the sibling runs.
        // Whichever order the host picks, exactly one of the two becomes
        // the agent: the wake took the sibling out of the idle count, and
        // this thread cannot take the sibling's wake if it parks first.
        let team = Arc::new(Team::new(SmpConfig::fast_test(2)));
        let t2 = team.clone();
        let sibling = std::thread::spawn(move || {
            let first = t2.task_enter_idle(t2.task_gen());
            let second = t2.task_enter_idle(t2.task_gen());
            if second == IdleOutcome::Agent {
                t2.task_done();
            }
            (first, second)
        });
        while !team.task_has_idle() {
            std::thread::yield_now();
        }
        team.task_wake();
        let mine = team.task_enter_idle(team.task_gen());
        if mine == IdleOutcome::Agent {
            team.task_done();
        }
        let (first, second) = sibling.join().unwrap();
        assert_eq!(first, IdleOutcome::Retry, "the push woke the sibling");
        let agents = [second, mine]
            .iter()
            .filter(|&&o| o == IdleOutcome::Agent)
            .count();
        assert_eq!(agents, 1, "sibling {second:?}, this thread {mine:?}");
    }

    #[test]
    fn run_team_shares_the_dsm_process() {
        // 2 nodes × 3 threads: every local thread writes its global slot
        // through the shared DSM process; intra-node writes are
        // message-free (no extra traffic vs what 2 single-threaded nodes
        // would pay for the same pages).
        let out = run_system(TmkConfig::fast_test(2), |t| {
            let v = t.malloc_vec::<u64>(6);
            t.parallel(0, move |t| {
                let node = t.proc_id();
                run_team(t, SmpConfig::fast_test(3), |t, _team, lt| {
                    let gid = node * 3 + lt;
                    t.write(&v, gid, gid as u64 + 1);
                });
            });
            t.read_slice(&v, 0..6)
        });
        assert_eq!(out.result, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn lanes_overlap_compute_within_a_node() {
        // One node, 4 local threads, each burning real CPU: the node's
        // final virtual time must be far below the serial sum of the
        // threads' compute (parallel lanes), while a single-threaded run
        // of the same total work pays it all.
        let work = |t: &mut Tmk| {
            let mut x = 0u64;
            for i in 0..3_000_000u64 {
                x = x.wrapping_add(i ^ (i << 7));
            }
            std::hint::black_box(x);
            t.now_ns()
        };
        let par = run_system(TmkConfig::fast_test(1), move |t| {
            t.parallel(0, move |t| {
                run_team(t, SmpConfig::fast_test(4), |t, _team, _lt| {
                    work(t);
                });
            });
            t.now_ns()
        });
        let seq = run_system(TmkConfig::fast_test(1), move |t| {
            t.parallel(0, move |t| {
                for _ in 0..4 {
                    work(t);
                }
            });
            t.now_ns()
        });
        assert!(
            par.result * 2 < seq.result,
            "4 parallel lanes ({} ns) must beat 4 serial runs ({} ns)",
            par.result,
            seq.result
        );
    }
}
